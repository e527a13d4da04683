//! An in-memory fault-injecting link the real sync protocol runs over,
//! on the caller's thread and at the caller's virtual time.
//!
//! [`SimNet::run`] carries one encounter (a sync session or a gossip
//! exchange) between two production [`transport::SessionMachine`]s at a
//! virtual instant in milliseconds, the clock membership merges read; no
//! wall clock is consulted. It alternates the two sides in one
//! loop under the rules of the blocking [`transport::pump`]: a side
//! writes its outbox into its direction of the link, then hands what
//! arrived to [`transport::conn::feed`], the frame step every driver
//! shares — same frames, same codec, same error paths.
//!
//! Each direction parses the byte stream back into protocol frames (using
//! the real header layout from [`transport::frame`]) and applies the
//! link's [`FaultPlan`] to each complete frame before delivery. All fault
//! decisions come from a per-direction generator seeded from the link
//! seed, so a run is a pure function of `(seed, plan)`.
//!
//! # Stalls
//!
//! Each side of a session sends only what does not depend on a reply it
//! has not read yet — at most two frames ahead — so a withheld frame soon
//! leaves both sides waiting on each other. Faults that withhold bytes
//! therefore cut their direction: the reader sees EOF once it has read
//! what came before. Where both sides still wait — e.g. a reordered frame
//! whose successor depends on it — a pass of the loop moves no byte, and
//! both directions close at once: each side ends as it would on EOF.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transport::conn::feed;
use transport::frame::{FrameAccum, HEADER_LEN};
use transport::{SessionError, SessionMachine};

use crate::fault::{Direction, FaultPlan, FrameFault};

/// One direction of the link: its fault state and the bytes in flight.
#[derive(Debug)]
struct Wire {
    direction: Direction,
    rng: StdRng,
    /// A frame held back by [`FrameFault::Reorder`], delivered after the
    /// next frame (or discarded at close).
    held: Option<Vec<u8>>,
    /// Per-direction frame counter driving [`FaultPlan`] scopes.
    frame_index: u64,
    /// Once a withholding fault fires or the writing side ends, the rest
    /// of the stream is void and the reader sees EOF after `queue`.
    cut: bool,
    /// Delivered bytes the reading side has not taken yet.
    queue: Vec<u8>,
}

impl Wire {
    fn new(direction: Direction, seed: u64) -> Wire {
        Wire {
            direction,
            rng: StdRng::seed_from_u64(seed),
            held: None,
            frame_index: 0,
            cut: false,
            queue: Vec::new(),
        }
    }

    /// Runs each frame of `bytes` — an outbox, so whole frames — through
    /// the fault plan. A cut direction silently swallows writes, like TCP
    /// after the peer reset: the writer discovers the failure on its next
    /// read.
    fn send(&mut self, plan: &FaultPlan, mut bytes: &[u8]) {
        while !self.cut && bytes.len() >= HEADER_LEN {
            let len = u32::from_le_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]) as usize;
            let Some(frame) = bytes.get(..HEADER_LEN + len) else {
                return;
            };
            bytes = &bytes[frame.len()..];
            let index = self.frame_index;
            self.frame_index += 1;
            match plan.fault_for(self.direction, index, &mut self.rng) {
                None => self.deliver(frame),
                Some(FrameFault::Drop) => self.cut = true,
                Some(FrameFault::Duplicate) => {
                    self.queue.extend_from_slice(frame);
                    self.deliver(frame);
                }
                Some(FrameFault::Reorder) => {
                    // Held until the next frame passes; if one was already
                    // held, the older frame is beyond saving — discard it.
                    self.held = Some(frame.to_vec());
                }
                Some(FrameFault::Truncate { keep }) => {
                    // Clamp so the cut is real even for `keep >= len`.
                    let keep = keep.min(frame.len().saturating_sub(1));
                    self.queue.extend_from_slice(&frame[..keep]);
                    self.cut = true;
                }
                Some(FrameFault::Corrupt { offset, xor }) => {
                    let mut frame = frame.to_vec();
                    // Flip within the checksummed region (type byte and
                    // later) but never the length field: a corrupted
                    // length desyncs the stream instead of producing the
                    // typed checksum/type error this fault models.
                    let targets: Vec<usize> = (2..3).chain(7..frame.len()).collect();
                    let pos = targets[offset % targets.len()];
                    frame[pos] ^= xor;
                    self.deliver(&frame);
                }
            }
        }
    }

    fn deliver(&mut self, frame: &[u8]) {
        self.queue.extend_from_slice(frame);
        if let Some(held) = self.held.take() {
            self.queue.extend_from_slice(&held);
        }
    }
}

/// One session machine's end of the link, with the pump's buffers.
struct Side<'m> {
    machine: &'m mut SessionMachine,
    accum: FrameAccum,
    out: Vec<u8>,
    /// How the side ended, once it has.
    end: Option<Result<(), SessionError>>,
}

/// A simulated link carrying one encounter between two session machines,
/// with every frame subject to a [`FaultPlan`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use dtn::{DtnNode, PolicyKind};
/// use parking_lot::Mutex;
/// use pfr::{ReplicaId, SimTime, SyncLimits};
/// use testkit::{Direction, FaultPlan, SimNet};
/// use transport::{Membership, MembershipConfig, SessionError, SessionMachine};
///
/// let host = |id: u64, name: &str| {
///     let node = DtnNode::new(ReplicaId::new(id), name, PolicyKind::Epidemic);
///     let view = Membership::new(id, name.to_string(), MembershipConfig::default());
///     (Arc::new(Mutex::new(node)), Arc::new(Mutex::new(view)))
/// };
/// let ((node_a, view_a), (node_b, view_b)) = (host(1, "a"), host(2, "b"));
/// let limits = SyncLimits::unlimited();
/// let (mut a, opening) =
///     SessionMachine::sync_initiator(node_a, view_a, limits, SimTime::ZERO, false).unwrap();
/// let mut b = SessionMachine::responder(node_b, view_b, limits);
///
/// // The initiator's hello is damaged in flight: the responder fails
/// // typed, and its hang-up reaches the initiator as EOF.
/// let plan = FaultPlan::clean().corrupt_frame(Direction::AToB, 0, 9, 0x10);
/// let (a_err, b_err) = SimNet::new(42, &plan).run(0, &mut a, opening, &mut b);
/// assert!(matches!(b_err, Some(SessionError::Frame(_))));
/// assert!(matches!(a_err, Some(SessionError::Eof)));
/// ```
#[derive(Debug)]
pub struct SimNet {
    plan: FaultPlan,
    /// Indexed by the writing side: `[A→B, B→A]`.
    wires: [Wire; 2],
}

impl SimNet {
    /// A link governed by `plan`. Side `A`, the initiator, writes
    /// [`Direction::AToB`].
    ///
    /// Fault decisions draw from per-direction generators derived from
    /// `seed`, so the same `(seed, plan)` always produces the same faults.
    pub fn new(seed: u64, plan: &FaultPlan) -> SimNet {
        SimNet {
            plan: plan.clone(),
            wires: [
                Wire::new(Direction::AToB, seed.wrapping_mul(2).wrapping_add(1)),
                Wire::new(Direction::BToA, seed.wrapping_mul(2)),
            ],
        }
    }

    /// Runs the encounter `initiator` opens with `opening` against
    /// `responder` at virtual time `now_ms` until both sides end, and
    /// returns what ended each: an initiator ends `Ok` once its session
    /// or gossip exchange completes, a responder once the initiator hangs
    /// up while it is parked between sessions. A failed side has been
    /// [`abort`](SessionMachine::abort)ed, so its partial
    /// [`report`](SessionMachine::report) is final.
    pub fn run(
        mut self,
        now_ms: u64,
        initiator: &mut SessionMachine,
        opening: Vec<u8>,
        responder: &mut SessionMachine,
    ) -> (Option<SessionError>, Option<SessionError>) {
        let side = |machine, out| Side {
            machine,
            accum: FrameAccum::new(),
            out,
            end: None,
        };
        let mut sides = [side(initiator, opening), side(responder, Vec::new())];
        while sides.iter().any(|side| side.end.is_none()) {
            let mut moved = false;
            for (i, side) in sides.iter_mut().enumerate() {
                moved |= self.turn(i, side, now_ms);
            }
            if !moved {
                // Both sides wait on each other: nothing will ever arrive.
                for wire in &mut self.wires {
                    wire.cut = true;
                }
            }
        }
        let [a, b] = sides.map(|side| side.end.and_then(Result::err));
        (a, b)
    }

    /// One turn of side `i` under the pump's rules: write the outbox,
    /// then feed what arrived. Returns whether the side moved a byte or
    /// ended.
    fn turn(&mut self, i: usize, side: &mut Side<'_>, now_ms: u64) -> bool {
        if side.end.is_some() {
            return false;
        }
        let wrote = !side.out.is_empty();
        self.wires[i].send(&self.plan, &side.out);
        side.out.clear();
        let inbound = &mut self.wires[1 - i];
        let end = if side.machine.is_closed() {
            Ok(())
        } else if !inbound.queue.is_empty() {
            side.accum.extend(&inbound.queue);
            inbound.queue.clear();
            match feed(side.machine, &mut side.accum, now_ms, &mut side.out) {
                Ok(_) => return true,
                Err(e) => Err(e),
            }
        } else if !inbound.cut {
            return wrote;
        } else if side.machine.is_idle() && side.accum.buffered() == 0 {
            Ok(())
        } else {
            Err(SessionError::Eof)
        };
        if end.is_err() {
            // The replies to the frames before the fatal one still go out.
            self.wires[i].send(&self.plan, &side.out);
            side.machine.abort();
        }
        // Hanging up is what tells the peer the session is over.
        self.wires[i].cut = true;
        side.end = Some(end);
        true
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dtn::{DtnNode, PolicyKind};
    use parking_lot::Mutex;
    use pfr::{ReplicaId, SimTime, SyncLimits};
    use transport::frame::{write_frame, FrameError, FrameType};
    use transport::{Membership, MembershipConfig};

    use super::*;

    type Frame = (FrameType, Vec<u8>);

    /// Sends `frames` down `direction` of a fresh link governed by `plan`.
    fn carry(plan: &FaultPlan, direction: Direction, frames: &[Frame]) -> SimNet {
        let mut net = SimNet::new(1, plan);
        for (frame_type, payload) in frames {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, *frame_type, payload).expect("frame fits");
            net.wires[direction as usize].send(&net.plan, &bytes);
        }
        net
    }

    /// What the reader of `direction` gets: the whole frames in order,
    /// the bytes of a partial frame after them, and whether EOF follows.
    fn arrived(net: &SimNet, direction: Direction) -> (Vec<Frame>, usize, bool) {
        let wire = &net.wires[direction as usize];
        let mut accum = FrameAccum::new();
        accum.extend(&wire.queue);
        let mut frames = Vec::new();
        while let Some((frame_type, payload)) = accum.next_frame().expect("frames decode") {
            frames.push((frame_type, payload.to_vec()));
        }
        (frames, accum.buffered(), wire.cut)
    }

    fn hello(payload: &[u8]) -> Frame {
        (FrameType::Hello, payload.to_vec())
    }

    fn request(payload: &[u8]) -> Frame {
        (FrameType::SyncRequest, payload.to_vec())
    }

    #[test]
    fn clean_link_delivers_frames_both_ways() {
        let mut net = carry(&FaultPlan::clean(), Direction::AToB, &[hello(b"from a")]);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, FrameType::Hello, b"from b").unwrap();
        net.wires[Direction::BToA as usize].send(&net.plan, &bytes);
        assert_eq!(
            arrived(&net, Direction::AToB),
            (vec![hello(b"from a")], 0, false)
        );
        assert_eq!(
            arrived(&net, Direction::BToA),
            (vec![hello(b"from b")], 0, false)
        );
    }

    #[test]
    fn dropped_frame_reads_as_eof() {
        let plan = FaultPlan::clean().drop_frame(Direction::AToB, 1);
        let net = carry(&plan, Direction::AToB, &[hello(b"ok"), request(b"lost")]);
        assert_eq!(
            arrived(&net, Direction::AToB),
            (vec![hello(b"ok")], 0, true)
        );
    }

    #[test]
    fn duplicated_frame_arrives_twice() {
        let plan = FaultPlan::clean().duplicate_frame(Direction::AToB, 0);
        let net = carry(&plan, Direction::AToB, &[hello(b"x")]);
        let (frames, ..) = arrived(&net, Direction::AToB);
        assert_eq!(frames, vec![hello(b"x"), hello(b"x")]);
    }

    #[test]
    fn reordered_frames_swap() {
        let plan = FaultPlan::clean().reorder_frame(Direction::AToB, 0);
        let net = carry(
            &plan,
            Direction::AToB,
            &[hello(b"first"), request(b"second")],
        );
        let (frames, ..) = arrived(&net, Direction::AToB);
        assert_eq!(frames, vec![request(b"second"), hello(b"first")]);
    }

    #[test]
    fn truncated_frame_ends_in_eof() {
        let plan = FaultPlan::clean().truncate_frame(Direction::AToB, 0, 6);
        let net = carry(&plan, Direction::AToB, &[hello(b"cut me off")]);
        assert_eq!(arrived(&net, Direction::AToB), (Vec::new(), 6, true));
    }

    #[test]
    fn corrupted_frame_is_a_typed_error_at_every_offset() {
        for offset in 0..32 {
            let plan = FaultPlan::clean().corrupt_frame(Direction::AToB, 0, offset, 0x41);
            let net = carry(&plan, Direction::AToB, &[hello(b"payload here")]);
            let mut accum = FrameAccum::new();
            accum.extend(&net.wires[0].queue);
            let err = accum.next_frame().unwrap_err();
            assert!(
                matches!(err, FrameError::BadChecksum { .. } | FrameError::BadType(_)),
                "offset {offset}: {err}"
            );
        }
    }

    #[test]
    fn cut_link_swallows_later_writes() {
        let plan = FaultPlan::clean().cut_after(Direction::AToB, 0);
        let net = carry(&plan, Direction::AToB, &[hello(b"void"), request(b"also")]);
        assert_eq!(arrived(&net, Direction::AToB), (Vec::new(), 0, true));
    }

    /// Runs one encounter between two fresh Epidemic hosts over `plan`.
    fn encounter(plan: &FaultPlan) -> (Option<SessionError>, Option<SessionError>) {
        let host = |id: u64, name: &str| {
            let node = DtnNode::new(ReplicaId::new(id), name, PolicyKind::Epidemic);
            let view = Membership::new(id, name.to_string(), MembershipConfig::default());
            (Arc::new(Mutex::new(node)), Arc::new(Mutex::new(view)))
        };
        let ((node_a, view_a), (node_b, view_b)) = (host(1, "a"), host(2, "b"));
        let limits = SyncLimits::unlimited();
        let (mut a, opening) =
            SessionMachine::sync_initiator(node_a, view_a, limits, SimTime::ZERO, false)
                .expect("hello fits");
        let mut b = SessionMachine::responder(node_b, view_b, limits);
        SimNet::new(1, plan).run(0, &mut a, opening, &mut b)
    }

    #[test]
    fn clean_encounter_ends_both_sides_ok() {
        let (a, b) = encounter(&FaultPlan::clean());
        assert!(a.is_none() && b.is_none(), "{a:?} {b:?}");
    }

    #[test]
    fn an_ended_side_gives_its_peer_eof() {
        // The responder's hello reply is damaged: the initiator fails and
        // hangs up while the responder awaits its request.
        let plan = FaultPlan::clean().corrupt_frame(Direction::BToA, 0, 9, 0x10);
        let (a, b) = encounter(&plan);
        assert!(matches!(a, Some(SessionError::Frame(_))), "{a:?}");
        assert!(matches!(b, Some(SessionError::Eof)), "{b:?}");
    }
}
