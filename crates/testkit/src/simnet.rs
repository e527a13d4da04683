//! An in-memory fault-injecting link the real sync protocol runs over.
//!
//! [`SimNet::pair`] builds the two ends of one bidirectional link. Each
//! end implements [`transport::Connection`], so [`transport::pump`]
//! drives the *exact* production [`transport::SessionMachine`] over it —
//! same frames, same codec, same error paths.
//!
//! The write side parses the byte stream back into protocol frames (using
//! the real header layout from [`transport::frame`]) and applies the
//! link's [`FaultPlan`] to each complete frame before delivery. All fault
//! decisions come from a per-direction generator seeded from the link
//! seed, so a run is a pure function of `(seed, plan)`.
//!
//! # Determinism and stalls
//!
//! Each side of a session sends only what does not depend on a reply it
//! has not read yet — at most two frames ahead — so a withheld frame soon
//! blocks both sides forever. Faults that withhold bytes therefore close
//! the link (the reader sees EOF immediately), and a reader additionally
//! carries a generous wall-clock backstop that turns a genuine deadlock
//! into EOF. The backstop only fires when both sides are already
//! permanently stuck — e.g. a reordered frame whose successor depends on
//! it — and EOF is the outcome either way. The pump handles frames
//! strictly in order and writes its replies to everything before a fatal
//! frame, so what a side does depends on the frames it was sent and not
//! on how the two threads interleave: traces stay byte-identical across
//! runs.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use transport::frame::HEADER_LEN;

use crate::fault::{Direction, FaultPlan, FrameFault};

/// How long a reader waits on a silent open link before treating the
/// session as dead. See the module notes on determinism: this is a
/// deadlock backstop, not a timing knob.
const STALL_BACKSTOP: Duration = Duration::from_millis(500);

#[derive(Default)]
struct LinkState {
    queue: VecDeque<u8>,
    closed: bool,
}

struct Link {
    state: Mutex<LinkState>,
    arrived: Condvar,
}

impl Link {
    fn new() -> Arc<Link> {
        Arc::new(Link {
            state: Mutex::new(LinkState::default()),
            arrived: Condvar::new(),
        })
    }

    fn push(&self, bytes: &[u8]) {
        let mut state = self.state.lock().expect("link lock");
        if !state.closed {
            state.queue.extend(bytes.iter().copied());
        }
        self.arrived.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("link lock").closed = true;
        self.arrived.notify_all();
    }
}

struct LinkReader {
    link: Arc<Link>,
}

impl Read for LinkReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.link.state.lock().expect("link lock");
        loop {
            if !state.queue.is_empty() {
                let n = buf.len().min(state.queue.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = state.queue.pop_front().expect("non-empty queue");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            let (next, timeout) = self
                .link
                .arrived
                .wait_timeout(state, STALL_BACKSTOP)
                .expect("link lock");
            state = next;
            if timeout.timed_out() && state.queue.is_empty() && !state.closed {
                // Permanent stall: both sides are waiting on each other.
                // EOF here matches what every withholding fault produces.
                return Ok(0);
            }
        }
    }
}

struct LinkWriter {
    link: Arc<Link>,
    direction: Direction,
    plan: FaultPlan,
    rng: StdRng,
    /// Bytes written but not yet forming a complete frame.
    pending: Vec<u8>,
    /// A frame held back by [`FrameFault::Reorder`], delivered after the
    /// next frame (or discarded at close).
    held: Option<Vec<u8>>,
    /// Per-direction frame counter driving [`FaultPlan`] scopes.
    frame_index: u64,
    /// Once a withholding fault fires, the rest of the stream is void.
    cut: bool,
}

impl LinkWriter {
    /// Extracts every complete frame from the pending buffer and runs it
    /// through the fault plan.
    fn pump(&mut self) {
        while !self.cut {
            if self.pending.len() < HEADER_LEN {
                return;
            }
            let len = u32::from_le_bytes([
                self.pending[3],
                self.pending[4],
                self.pending[5],
                self.pending[6],
            ]) as usize;
            let total = HEADER_LEN + len;
            if self.pending.len() < total {
                return;
            }
            let frame: Vec<u8> = self.pending.drain(..total).collect();
            let index = self.frame_index;
            self.frame_index += 1;
            match self.plan.fault_for(self.direction, index, &mut self.rng) {
                None => self.deliver(frame),
                Some(FrameFault::Drop) => {
                    self.cut = true;
                    self.link.close();
                }
                Some(FrameFault::Duplicate) => {
                    self.link.push(&frame);
                    self.deliver(frame);
                }
                Some(FrameFault::Reorder) => {
                    // Held until the next frame passes; if one was already
                    // held, the older frame is beyond saving — discard it.
                    self.held = Some(frame);
                }
                Some(FrameFault::Truncate { keep }) => {
                    // Clamp so the cut is real even for `keep >= len`.
                    let keep = keep.min(frame.len().saturating_sub(1));
                    self.link.push(&frame[..keep]);
                    self.cut = true;
                    self.link.close();
                }
                Some(FrameFault::Corrupt { offset, xor }) => {
                    let mut frame = frame;
                    // Flip within the checksummed region (type byte and
                    // later) but never the length field: a corrupted
                    // length desyncs the stream instead of producing the
                    // typed checksum/type error this fault models.
                    let targets: Vec<usize> = (2..3).chain(7..frame.len()).collect();
                    let pos = targets[offset % targets.len()];
                    frame[pos] ^= xor;
                    self.deliver(frame);
                }
            }
        }
    }

    fn deliver(&mut self, frame: Vec<u8>) {
        self.link.push(&frame);
        if let Some(held) = self.held.take() {
            self.link.push(&held);
        }
    }
}

impl Write for LinkWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // A cut link silently swallows writes, like TCP after the peer
        // reset: the writer discovers the failure on its next read.
        if !self.cut {
            self.pending.extend_from_slice(buf);
            self.pump();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for LinkWriter {
    fn drop(&mut self) {
        // Session over: close our outgoing direction so the peer's reader
        // wakes with EOF instead of the stall backstop.
        self.link.close();
    }
}

/// One end of a simulated link; reads and writes like a socket (a
/// [`transport::Connection`]), so the real pump drives it directly.
///
/// # Examples
///
/// ```
/// use testkit::{Direction, FaultPlan, SimNet};
/// use std::io::{Read, Write};
/// use transport::frame::{read_frame, write_frame, FrameError, FrameType};
///
/// let plan = FaultPlan::clean().corrupt_frame(Direction::AToB, 0, 9, 0x10);
/// let (mut a, mut b) = SimNet::pair(42, &plan);
/// write_frame(&mut a, FrameType::Hello, b"hi").unwrap();
/// let err = read_frame(&mut b).unwrap_err();
/// assert!(matches!(err, FrameError::BadChecksum { .. } | FrameError::BadType(_)));
/// ```
#[derive(Debug)]
pub struct SimNet {
    reader: LinkReader,
    writer: LinkWriter,
}

impl SimNet {
    /// Builds the two ends of one link governed by `plan`. The first end
    /// is the `A` (initiator) side: its outgoing frames travel
    /// [`Direction::AToB`].
    ///
    /// Fault decisions draw from per-direction generators derived from
    /// `seed`, so the same `(seed, plan)` always produces the same faults.
    pub fn pair(seed: u64, plan: &FaultPlan) -> (SimNet, SimNet) {
        let a_to_b = Link::new();
        let b_to_a = Link::new();
        let a = SimNet {
            reader: LinkReader {
                link: Arc::clone(&b_to_a),
            },
            writer: LinkWriter {
                link: a_to_b.clone(),
                direction: Direction::AToB,
                plan: plan.clone(),
                rng: StdRng::seed_from_u64(seed.wrapping_mul(2).wrapping_add(1)),
                pending: Vec::new(),
                held: None,
                frame_index: 0,
                cut: false,
            },
        };
        let b = SimNet {
            reader: LinkReader { link: a_to_b },
            writer: LinkWriter {
                link: b_to_a,
                direction: Direction::BToA,
                plan: plan.clone(),
                rng: StdRng::seed_from_u64(seed.wrapping_mul(2)),
                pending: Vec::new(),
                held: None,
                frame_index: 0,
                cut: false,
            },
        };
        (a, b)
    }
}

impl Read for SimNet {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for SimNet {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

impl std::fmt::Debug for LinkReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkReader").finish()
    }
}

impl std::fmt::Debug for LinkWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkWriter")
            .field("direction", &self.direction)
            .field("frame_index", &self.frame_index)
            .field("cut", &self.cut)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transport::frame::{read_frame, write_frame, FrameError, FrameType};

    fn send(end: &mut SimNet, ft: FrameType, payload: &[u8]) {
        write_frame(end, ft, payload).expect("sim writes never fail");
    }

    fn recv(end: &mut SimNet) -> Result<(FrameType, Vec<u8>), FrameError> {
        read_frame(end)
    }

    #[test]
    fn clean_link_roundtrips_frames_both_ways() {
        let (mut a, mut b) = SimNet::pair(1, &FaultPlan::clean());
        send(&mut a, FrameType::Hello, b"from a");
        send(&mut b, FrameType::Hello, b"from b");
        assert_eq!(
            recv(&mut b).unwrap(),
            (FrameType::Hello, b"from a".to_vec())
        );
        assert_eq!(
            recv(&mut a).unwrap(),
            (FrameType::Hello, b"from b".to_vec())
        );
    }

    #[test]
    fn dropped_frame_reads_as_eof() {
        let plan = FaultPlan::clean().drop_frame(Direction::AToB, 1);
        let (mut a, mut b) = SimNet::pair(1, &plan);
        send(&mut a, FrameType::Hello, b"ok");
        send(&mut a, FrameType::SyncRequest, b"lost");
        assert!(recv(&mut b).is_ok());
        let err = recv(&mut b).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    #[test]
    fn duplicated_frame_arrives_twice() {
        let plan = FaultPlan::clean().duplicate_frame(Direction::AToB, 0);
        let (mut a, mut b) = SimNet::pair(1, &plan);
        send(&mut a, FrameType::Hello, b"x");
        assert_eq!(recv(&mut b).unwrap(), (FrameType::Hello, b"x".to_vec()));
        assert_eq!(recv(&mut b).unwrap(), (FrameType::Hello, b"x".to_vec()));
    }

    #[test]
    fn reordered_frames_swap() {
        let plan = FaultPlan::clean().reorder_frame(Direction::AToB, 0);
        let (mut a, mut b) = SimNet::pair(1, &plan);
        send(&mut a, FrameType::Hello, b"first");
        send(&mut a, FrameType::SyncRequest, b"second");
        assert_eq!(
            recv(&mut b).unwrap(),
            (FrameType::SyncRequest, b"second".to_vec())
        );
        assert_eq!(recv(&mut b).unwrap(), (FrameType::Hello, b"first".to_vec()));
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let plan = FaultPlan::clean().truncate_frame(Direction::AToB, 0, 6);
        let (mut a, mut b) = SimNet::pair(1, &plan);
        send(&mut a, FrameType::Hello, b"cut me off");
        let err = recv(&mut b).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    #[test]
    fn corrupted_frame_is_a_typed_error_at_every_offset() {
        for offset in 0..32 {
            let plan = FaultPlan::clean().corrupt_frame(Direction::AToB, 0, offset, 0x41);
            let (mut a, mut b) = SimNet::pair(1, &plan);
            send(&mut a, FrameType::Hello, b"payload here");
            let err = recv(&mut b).unwrap_err();
            assert!(
                matches!(err, FrameError::BadChecksum { .. } | FrameError::BadType(_)),
                "offset {offset}: {err}"
            );
        }
    }

    #[test]
    fn closed_link_swallows_later_writes() {
        let plan = FaultPlan::clean().cut_after(Direction::AToB, 0);
        let (mut a, mut b) = SimNet::pair(1, &plan);
        send(&mut a, FrameType::Hello, b"void");
        send(&mut a, FrameType::SyncRequest, b"also void");
        let err = recv(&mut b).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
    }

    #[test]
    fn dropping_an_end_wakes_the_peer_with_eof() {
        let (a, mut b) = SimNet::pair(1, &FaultPlan::clean());
        drop(a);
        let err = recv(&mut b).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
    }
}
