//! Two-hop relay routing (Grossglauser & Tse, 2002) — an extension beyond
//! the paper's four case studies.
//!
//! The oldest bound on DTN copy spread: the *source* hands a copy to every
//! node it meets, but relays never re-forward — every delivery path has at
//! most two hops (source → relay → destination). Expressed as a
//! replication policy it is a two-line forwarding rule, which makes it a
//! nice demonstration of how little code a new protocol needs on this
//! substrate.

use pfr::sync::{Candidate, ParkKeys, SendDecision, SyncRequest};
use pfr::{Priority, SyncExtension};

use crate::messaging::ATTR_DEST;
use crate::policy::{DtnPolicy, PolicySummary};

/// Two-hop relay as a replication policy.
///
/// `to_send` forwards a message only when the local node *originated* it;
/// received copies wait for a direct encounter with the destination
/// (which the substrate serves through the filter match, outside the
/// policy).
///
/// # Examples
///
/// ```
/// use dtn::{DtnPolicy, TwoHopRelayPolicy};
///
/// let policy = TwoHopRelayPolicy::new();
/// assert_eq!(policy.name(), "twohop");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoHopRelayPolicy;

impl TwoHopRelayPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        TwoHopRelayPolicy
    }
}

impl SyncExtension for TwoHopRelayPolicy {
    fn label(&self) -> &'static str {
        "twohop"
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        if item.is_deleted() {
            return SendDecision::Send(Priority::normal());
        }
        // Hop 1 happens only at the origin; relays hold their copy for a
        // direct (filter-matched) delivery, so it is parked until then.
        if item.id().origin() == item.host() {
            SendDecision::Send(Priority::normal())
        } else {
            SendDecision::Park
        }
    }

    fn park_keys(&self, keys: &mut ParkKeys<'_>) {
        keys.file_under(ATTR_DEST);
    }
}

impl DtnPolicy for TwoHopRelayPolicy {
    fn name(&self) -> &'static str {
        "twohop"
    }

    fn summary(&self) -> PolicySummary {
        PolicySummary {
            protocol: "Two-hop relay",
            routing_state: "none",
            added_to_sync_request: "nothing",
            source_forwarding_policy: "only messages this node originated",
            parameters: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DtnNode, EncounterBudget, PolicyKind};
    use pfr::{ReplicaId, SimTime};

    fn node(n: u64, addr: &str) -> DtnNode {
        DtnNode::new(ReplicaId::new(n), addr, PolicyKind::TwoHopRelay)
    }

    #[test]
    fn source_spreads_relays_do_not() {
        let mut src = node(1, "a");
        let mut r1 = node(2, "b");
        let mut r2 = node(3, "c");
        let mut far = node(4, "d");
        let id = src.send("z", b"m".to_vec(), SimTime::ZERO).unwrap();

        // Source hands copies to both relays.
        src.encounter(
            &mut r1,
            SimTime::from_secs(60),
            EncounterBudget::unlimited(),
        );
        src.encounter(
            &mut r2,
            SimTime::from_secs(120),
            EncounterBudget::unlimited(),
        );
        assert!(r1.replica().contains_item(id));
        assert!(r2.replica().contains_item(id));

        // Relays never re-forward: the copy stays within two hops.
        r1.encounter(
            &mut far,
            SimTime::from_secs(180),
            EncounterBudget::unlimited(),
        );
        assert!(!far.replica().contains_item(id), "third hop forbidden");
    }

    #[test]
    fn relay_still_delivers_to_destination() {
        let mut src = node(1, "a");
        let mut relay = node(2, "b");
        let mut dest = node(9, "z");
        let id = src.send("z", b"m".to_vec(), SimTime::ZERO).unwrap();
        src.encounter(
            &mut relay,
            SimTime::from_secs(60),
            EncounterBudget::unlimited(),
        );
        let report = relay.encounter(
            &mut dest,
            SimTime::from_secs(120),
            EncounterBudget::unlimited(),
        );
        assert_eq!(report.delivered, 1, "hop 2 is the filter-matched delivery");
        assert!(dest.replica().contains_item(id));
    }

    #[test]
    fn summary_is_stateless() {
        let s = TwoHopRelayPolicy::new().summary();
        assert_eq!(s.routing_state, "none");
        assert!(s.parameters.is_empty());
    }
}
