//! The no-forwarding baseline: plain filtered replication.

use pfr::sync::{Candidate, ParkKeys, SendDecision, SyncRequest};
use pfr::SyncExtension;

use crate::messaging::ATTR_DEST;
use crate::policy::{DtnPolicy, PolicySummary};

/// "Basic Cimbiosys": no out-of-filter forwarding at all. Messages are
/// delivered only when the sender (or another node whose filter happens to
/// select them) directly encounters the destination — the baseline in every
/// figure of the paper's evaluation.
///
/// # Examples
///
/// ```
/// use dtn::{DirectDelivery, DtnPolicy};
///
/// let policy = DirectDelivery::new();
/// assert_eq!(policy.name(), "cimbiosys");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectDelivery;

impl DirectDelivery {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        DirectDelivery
    }
}

impl SyncExtension for DirectDelivery {
    fn label(&self) -> &'static str {
        "direct"
    }

    /// Nothing is ever forwarded, so a copy once declined is parked: only
    /// a target whose filter names its destination moves it.
    fn to_send(&mut self, _item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        SendDecision::Park
    }

    fn park_keys(&self, keys: &mut ParkKeys<'_>) {
        keys.file_under(ATTR_DEST);
    }
}

impl DtnPolicy for DirectDelivery {
    fn name(&self) -> &'static str {
        "cimbiosys"
    }

    fn summary(&self) -> PolicySummary {
        PolicySummary {
            protocol: "Cimbiosys (baseline)",
            routing_state: "none",
            added_to_sync_request: "nothing",
            source_forwarding_policy: "never (filter matches only)",
            parameters: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr::{sync, AttributeMap, Filter, Replica, ReplicaId, SimTime, SyncLimits};

    #[test]
    fn never_forwards_out_of_filter() {
        let mut a = Replica::new(ReplicaId::new(1), Filter::address("dest", "a"));
        let mut c = Replica::new(ReplicaId::new(3), Filter::address("dest", "c"));
        let mut attrs = AttributeMap::new();
        attrs.set("dest", "b");
        a.insert(attrs, vec![]).unwrap();

        let mut pa = DirectDelivery::new();
        let mut pc = DirectDelivery::new();
        let report = sync::sync_with(
            &mut a,
            &mut pa,
            &mut c,
            &mut pc,
            SyncLimits::unlimited(),
            SimTime::ZERO,
        );
        assert_eq!(report.transmitted, 0);
        assert_eq!(report.withheld, 1);
        assert_eq!(c.item_count(), 0);
    }
}
