//! The transport seam: a [`Connection`] is the byte duplex a sync session
//! runs over, [`pump`] is the blocking driver that runs a
//! [`SessionMachine`] over one, and [`feed`] is the frame step every
//! driver shares.
//!
//! The machine only needs frames in and frames out. Each driver moves
//! bytes its own way — the pump with blocking reads and writes (behind
//! [`Peer`](crate::Peer) and [`Dialer`](crate::Dialer)), `net`'s reactor
//! on nonblocking sockets, the testkit's `SimNet` through an in-memory
//! fault-injecting link on one thread — and hands what arrived to
//! [`feed`], so every driver drains frames, recovers from a damaged one
//! and ends a session the same way.

use std::io::{ErrorKind, Read, Write};

use crate::frame::{FrameAccum, FrameError};
use crate::session::{Progress, SessionError, SessionMachine};

/// A bidirectional byte stream a sync session can run over: anything
/// that reads and writes. The pump needs no buffering underneath — it
/// reads into its own buffer and writes each turn's frames in one call.
pub trait Connection: Read + Write {}

impl<T: Read + Write + ?Sized> Connection for T {}

/// How many bytes one `read` call pulls at most.
const READ_BUF: usize = 16 * 1024;

/// The pump's I/O buffers, reusable from one session to the next: the
/// dialer keeps them so a session on a pooled connection allocates
/// nothing to read.
#[derive(Debug, Default)]
pub(crate) struct PumpScratch {
    accum: FrameAccum,
    buf: Vec<u8>,
    /// Bytes the current session has read.
    pub(crate) received: usize,
}

/// Drives `machine` over `conn` with blocking I/O: write the outbox
/// (starting with `opening`), read into a [`FrameAccum`], feed every
/// complete frame to the machine, repeat. Returns once an initiator
/// machine has completed its session, or once the peer closes (or goes
/// quiet past the read timeout on) a connection whose responder machine
/// is parked between sessions — a responder serves as many back-to-back
/// sessions as the peer opens. `now_ms` is the monotonic clock handed to
/// the machine for membership freshness.
///
/// Frames are processed strictly in order and replies to the frames
/// before a fatal one are still written, so what each side does is a
/// function of the frames it was sent, not of how reads happened to
/// chunk them.
///
/// # Errors
///
/// The [`SessionError`] that ended the session — a read or write that
/// timed out mid-session is [`SessionError::Stalled`]; the machine has
/// been [`abort`](SessionMachine::abort)ed, so the failure is accounted
/// and its partial [`report`](SessionMachine::report) is final.
pub fn pump(
    conn: &mut dyn Connection,
    machine: &mut SessionMachine,
    opening: Vec<u8>,
    now_ms: &dyn Fn() -> u64,
) -> Result<(), SessionError> {
    let mut out = opening;
    let result = turns(conn, machine, &mut out, now_ms, &mut PumpScratch::default());
    if result.is_err() {
        give_up(conn, machine, &out);
    }
    result
}

/// Ends a session [`turns`] failed: what the machine queued before the
/// fatal frame still goes out, and the failure is accounted.
pub(crate) fn give_up(conn: &mut dyn Connection, machine: &mut SessionMachine, out: &[u8]) {
    let _ = conn.write_all(out).and_then(|()| conn.flush());
    machine.abort();
}

/// A socket timeout is the peer going quiet, not an I/O fault.
fn io_error(e: std::io::Error) -> SessionError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => SessionError::Stalled,
        _ => SessionError::Io(e),
    }
}

/// The pump's loop over recycled `scratch`. On an error the machine is
/// left as it stood and unsent replies stay in `out`: the caller either
/// [`give_up`]s or discards the attempt unaccounted.
pub(crate) fn turns(
    conn: &mut dyn Connection,
    machine: &mut SessionMachine,
    out: &mut Vec<u8>,
    now_ms: &dyn Fn() -> u64,
    scratch: &mut PumpScratch,
) -> Result<(), SessionError> {
    let PumpScratch {
        accum,
        buf,
        received,
    } = scratch;
    accum.recycle();
    buf.resize(READ_BUF, 0);
    *received = 0;
    loop {
        if !out.is_empty() {
            conn.write_all(out).map_err(io_error)?;
            conn.flush().map_err(io_error)?;
            out.clear();
        }
        if machine.is_closed() {
            return Ok(());
        }
        let parked = machine.is_idle() && accum.buffered() == 0;
        match conn.read(buf) {
            Ok(0) if parked => return Ok(()),
            Ok(0) => return Err(SessionError::Eof),
            Ok(n) => {
                *received += n;
                accum.extend(&buf[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if parked && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(())
            }
            Err(e) => return Err(io_error(e)),
        }
        feed(machine, accum, now_ms(), out)?;
    }
}

/// The one frame step every driver shares: drains the complete frames in
/// `accum` into `machine` in order, appending its replies to `out`, and
/// stops once the machine closes. A frame that failed its checksum was
/// consumed and goes to [`SessionMachine::on_checksum_error`], which
/// decides whether the session can recover; any other frame error ends
/// it. Returns how many sessions completed — a responder resets to idle
/// after each, so one feed can finish more than one.
///
/// # Errors
///
/// The [`SessionError`] that ended the session; replies to the frames
/// before it are already in `out`.
pub fn feed(
    machine: &mut SessionMachine,
    accum: &mut FrameAccum,
    now_ms: u64,
    out: &mut Vec<u8>,
) -> Result<usize, SessionError> {
    let mut completed = 0;
    while !machine.is_closed() {
        match accum.next_frame() {
            Ok(Some((frame_type, payload))) => {
                if machine.on_frame(frame_type, payload, now_ms, out)? == Progress::SessionComplete
                {
                    completed += 1;
                }
            }
            Ok(None) => break,
            Err(e @ FrameError::BadChecksum { .. }) => machine.on_checksum_error(e, out)?,
            Err(e) => return Err(SessionError::Frame(e)),
        }
    }
    Ok(completed)
}
