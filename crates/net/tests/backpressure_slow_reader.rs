//! Backpressure under a deliberately slow reader: a blocking initiator
//! throttles its read side while pulling a multi-megabyte batch from a
//! [`NetNode`] whose per-session write queue is tiny. The bound must fill
//! (stall counters tick, reads from that peer pause) and the session must
//! still complete — backpressure is flow control, not failure. Payload
//! size is swept by `TESTKIT_SEED` so the CI matrix exercises different
//! queue shapes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dtn::{DtnNode, PolicyKind};
use net::{Membership, MembershipConfig, NetConfig, NetNode, SessionMachine};
use parking_lot::Mutex;
use pfr::{ReplicaId, SimTime, SyncLimits};
use transport::{pump, DialConfig};

/// The base seed for the swept payload size, offset by `TESTKIT_SEED`
/// when set (the CI matrix sets 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x5AAD)
}

/// A read half that trickles: at most `chunk` bytes per call, with a
/// sleep before each one. TCP pushes the resulting receive-window
/// pressure back to the serving node, whose bounded outbox must absorb
/// the batch in the meantime.
struct SlowReader {
    inner: TcpStream,
    chunk: usize,
    delay: Duration,
}

impl Read for SlowReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(self.delay);
        let n = self.chunk.min(buf.len()).max(1);
        self.inner.read(&mut buf[..n])
    }
}

/// Writes go straight through: only the read side trickles.
impl Write for SlowReader {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn slow_reader_survives_backpressure() {
    let seed = base_seed();
    // 8–12 MiB: far beyond what loopback kernel socket buffers can hide,
    // so the serving session's outbox genuinely fills.
    let payload_len = 8 * 1024 * 1024 + (seed % 5) as usize * 1024 * 1024;

    let mut server_node = DtnNode::new(ReplicaId::new(2), "server", PolicyKind::Epidemic);
    server_node
        .send("client", vec![0xB5; payload_len], SimTime::ZERO)
        .expect("inject big message");
    let server = NetNode::start(
        server_node,
        "127.0.0.1:0",
        NetConfig {
            // A bound the batch exceeds by three orders of magnitude.
            write_queue_limit: 4 * 1024,
            // The reader is slow, not dead: the stall must not fire.
            dial: DialConfig {
                io_timeout: Duration::from_secs(30),
                ..DialConfig::default()
            },
            gossip_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    )
    .expect("bind server");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = SlowReader {
        inner: stream,
        chunk: 64 * 1024,
        delay: Duration::from_millis(1),
    };
    let client_node = Arc::new(Mutex::new(DtnNode::new(
        ReplicaId::new(1),
        "client",
        PolicyKind::Epidemic,
    )));
    let membership = Membership::new(1, "client:0", MembershipConfig::default());
    let (mut machine, opening) = SessionMachine::sync_initiator(
        Arc::clone(&client_node),
        Arc::new(Mutex::new(membership)),
        SyncLimits::unlimited(),
        SimTime::from_secs(60),
        false,
    )
    .expect("open a session");
    pump(&mut conn, &mut machine, opening, &|| 0).expect("slow session must survive backpressure");
    let report = machine.report();
    assert_eq!(report.peer, Some(ReplicaId::new(2)));
    assert_eq!(
        report
            .pulled
            .as_ref()
            .expect("pull direction ran")
            .delivered,
        1,
        "big message must arrive despite the stall"
    );

    let stats = server.stats();
    assert!(
        stats.backpressure_stalls >= 1,
        "a {payload_len}-byte batch against a 4 KiB bound must stall (got {stats:?})"
    );
    assert_eq!(stats.failed, 0, "backpressure must not fail the session");
    assert!(stats.completed >= 1, "serve session never completed");
    assert!(stats.syscalls > 0, "syscall accounting missing");
    assert!(stats.wakeups > 0, "wakeup accounting missing");

    drop((conn, machine));
    server.stop();
    let delivered = client_node.lock().inbox();
    assert_eq!(delivered.len(), 1, "exactly-once delivery broke");
    assert_eq!(delivered[0].payload.len(), payload_len);
}
