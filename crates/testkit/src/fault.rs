//! Declarative fault plans: which frames on a simulated link get damaged,
//! and how.
//!
//! A [`FaultPlan`] is a list of rules, each pairing a [`FaultScope`] (which
//! direction, which frame index, or a seeded probability) with a
//! [`FrameFault`] (what happens to a matching frame). Plans are plain data
//! — `Clone + Debug` — so a failing run can print the exact `(seed, plan)`
//! pair needed to reproduce it.

use rand::rngs::StdRng;
use rand::Rng;

/// Which way a frame is travelling across one simulated link. `AToB` is
/// the initiator-to-responder direction of the session the link carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Initiator → responder.
    AToB,
    /// Responder → initiator.
    BToA,
}

/// What happens to a frame selected by a fault rule.
///
/// A side of the sync protocol runs at most two frames ahead of the
/// replies it has read (a responder's request rides behind the batch it
/// serves, an initiator's batch behind its `SyncDone`), so a fault that
/// withholds bytes soon stalls both sides forever. To keep runs
/// deterministic, withholding faults also close the link: the deprived
/// reader sees EOF immediately instead of hanging, and the session
/// terminates with a typed error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// The frame is lost and the link closes: the receiver sees EOF where
    /// the frame should have been.
    Drop,
    /// The frame is delivered twice; the receiver's next read gets an
    /// unexpected repeat.
    Duplicate,
    /// The frame is held back and delivered *after* the next frame in the
    /// same direction. Where the two travel together that is a genuine
    /// swap: a responder's batch and request arrive reversed (the
    /// initiator refuses to serve before it has applied its pull — a
    /// typed failure), an initiator's `SyncDone` and batch arrive
    /// reversed (harmless: they belong to different halves). Where the
    /// next frame depends on a reply to the held one it never comes, and
    /// the held frame is discarded when the link closes (see the stall
    /// note on the enum).
    Reorder,
    /// Only the first `keep` bytes of the frame are delivered, then the
    /// link closes mid-frame.
    Truncate {
        /// Bytes of the frame actually delivered (clamped below the frame
        /// length so the cut is real).
        keep: usize,
    },
    /// One byte of the frame is XOR-flipped and the frame delivered in
    /// full. The flip lands past the magic and length fields (offsets
    /// covered by the frame checksum), so it surfaces as a typed
    /// `BadChecksum`, never as a silent desync.
    Corrupt {
        /// Position of the flipped byte, wrapped into the checksummed
        /// region of the frame.
        offset: usize,
        /// XOR mask applied to the byte; must be non-zero.
        xor: u8,
    },
}

/// Which frames of a link a rule applies to, counted per direction
/// starting at 0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FrameSelector {
    /// Every frame.
    Every,
    /// Exactly the frame with this per-direction index.
    Index(u64),
    /// This frame and every later one in the same direction.
    From(u64),
    /// Each frame independently with this probability, drawn from the
    /// link's seeded generator.
    Probability(f64),
}

/// Where a fault applies: an optional direction restriction plus a frame
/// selector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultScope {
    /// Restricts the rule to one direction; `None` matches both.
    pub direction: Option<Direction>,
    /// Which frame indices the rule matches.
    pub selector: FrameSelector,
}

/// One scoped fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    /// Which frames the rule matches.
    pub scope: FaultScope,
    /// What happens to a matching frame.
    pub fault: FrameFault,
}

/// A reproducible schedule of frame faults for one simulated link.
///
/// The first rule matching a frame wins. An empty plan is a perfect link.
///
/// # Examples
///
/// ```
/// use testkit::{Direction, FaultPlan};
///
/// // Corrupt the responder's first batch, then cut the session after the
/// // initiator's third frame.
/// let plan = FaultPlan::clean()
///     .corrupt_frame(Direction::BToA, 1, 4, 0x20)
///     .cut_after(Direction::AToB, 3);
/// assert!(!plan.is_clean());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no faults: frames pass through untouched.
    pub fn clean() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan has no rules.
    pub fn is_clean(&self) -> bool {
        self.rules.is_empty()
    }

    /// The plan's rules in match order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Appends an arbitrary scoped rule.
    pub fn rule(mut self, scope: FaultScope, fault: FrameFault) -> FaultPlan {
        if let FrameFault::Corrupt { xor, .. } = fault {
            assert!(xor != 0, "a zero XOR mask corrupts nothing");
        }
        if let FrameSelector::Probability(p) = scope.selector {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        self.rules.push(FaultRule { scope, fault });
        self
    }

    fn indexed(self, direction: Direction, index: u64, fault: FrameFault) -> FaultPlan {
        self.rule(
            FaultScope {
                direction: Some(direction),
                selector: FrameSelector::Index(index),
            },
            fault,
        )
    }

    /// Loses frame `index` travelling in `direction` (and closes the link).
    pub fn drop_frame(self, direction: Direction, index: u64) -> FaultPlan {
        self.indexed(direction, index, FrameFault::Drop)
    }

    /// Delivers frame `index` twice.
    pub fn duplicate_frame(self, direction: Direction, index: u64) -> FaultPlan {
        self.indexed(direction, index, FrameFault::Duplicate)
    }

    /// Holds frame `index` back behind its successor (see
    /// [`FrameFault::Reorder`]).
    pub fn reorder_frame(self, direction: Direction, index: u64) -> FaultPlan {
        self.indexed(direction, index, FrameFault::Reorder)
    }

    /// Delivers only the first `keep` bytes of frame `index`, then closes
    /// the link.
    pub fn truncate_frame(self, direction: Direction, index: u64, keep: usize) -> FaultPlan {
        self.indexed(direction, index, FrameFault::Truncate { keep })
    }

    /// XOR-flips one byte of frame `index` within its checksummed region.
    pub fn corrupt_frame(
        self,
        direction: Direction,
        index: u64,
        offset: usize,
        xor: u8,
    ) -> FaultPlan {
        self.indexed(direction, index, FrameFault::Corrupt { offset, xor })
    }

    /// Cuts the session after `n` frames have been delivered in
    /// `direction`: frame `n` and everything after it is lost.
    pub fn cut_after(self, direction: Direction, n: u64) -> FaultPlan {
        self.rule(
            FaultScope {
                direction: Some(direction),
                selector: FrameSelector::From(n),
            },
            FrameFault::Drop,
        )
    }

    /// Loses each frame (in either direction) independently with
    /// probability `p`, drawn from the link's seeded generator.
    pub fn drop_with_probability(self, p: f64) -> FaultPlan {
        self.rule(
            FaultScope {
                direction: None,
                selector: FrameSelector::Probability(p),
            },
            FrameFault::Drop,
        )
    }

    /// The fault (if any) to apply to the frame with per-direction index
    /// `index` travelling in `direction`. Probabilistic selectors draw
    /// from `rng` — the per-direction seeded generator — so the decision
    /// sequence is a pure function of `(seed, plan)`.
    pub(crate) fn fault_for(
        &self,
        direction: Direction,
        index: u64,
        rng: &mut StdRng,
    ) -> Option<FrameFault> {
        for rule in &self.rules {
            if let Some(d) = rule.scope.direction {
                if d != direction {
                    continue;
                }
            }
            let matched = match rule.scope.selector {
                FrameSelector::Every => true,
                FrameSelector::Index(i) => index == i,
                FrameSelector::From(i) => index >= i,
                FrameSelector::Probability(p) => rng.gen_bool(p),
            };
            if matched {
                return Some(rule.fault);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::clean()
            .drop_frame(Direction::AToB, 2)
            .duplicate_frame(Direction::AToB, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.fault_for(Direction::AToB, 2, &mut rng),
            Some(FrameFault::Drop)
        );
        assert_eq!(plan.fault_for(Direction::AToB, 1, &mut rng), None);
        assert_eq!(plan.fault_for(Direction::BToA, 2, &mut rng), None);
    }

    #[test]
    fn cut_after_matches_the_tail() {
        let plan = FaultPlan::clean().cut_after(Direction::BToA, 1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(plan.fault_for(Direction::BToA, 0, &mut rng), None);
        for index in 1..5 {
            assert_eq!(
                plan.fault_for(Direction::BToA, index, &mut rng),
                Some(FrameFault::Drop)
            );
        }
    }

    #[test]
    fn probabilistic_drops_are_seed_deterministic() {
        let plan = FaultPlan::clean().drop_with_probability(0.5);
        let draw = |seed: u64| -> Vec<bool> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|i| plan.fault_for(Direction::AToB, i, &mut rng).is_some())
                .collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    #[should_panic(expected = "zero XOR mask")]
    fn zero_xor_is_rejected() {
        let _ = FaultPlan::clean().corrupt_frame(Direction::AToB, 0, 0, 0);
    }
}
