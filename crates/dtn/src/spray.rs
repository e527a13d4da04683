//! Binary Spray and Wait (Spyropoulos et al., 2005).

use std::sync::OnceLock;

use pfr::sync::{Candidate, HostContext, ParkKeys, SendDecision, SyncRequest};
use pfr::{IStr, Item, Priority, ReplicaId, SyncExtension};

use crate::messaging::ATTR_DEST;
use crate::policy::{DtnPolicy, PolicySummary};

/// Transient attribute holding the number of logical copies this physical
/// copy represents.
pub const ATTR_COPIES: &str = "dtn.copies";

/// [`ATTR_COPIES`] as an interned key: stamping with it is a
/// reference-count bump, not a string allocation.
fn copies_key() -> IStr {
    static KEY: OnceLock<IStr> = OnceLock::new();
    KEY.get_or_init(|| IStr::new(ATTR_COPIES)).clone()
}

/// Binary Spray and Wait as a replication policy (paper §V-C2).
///
/// Each message is allocated a fixed budget of logical copies when it first
/// leaves its source. A holder with `n >= 2` copies hands `floor(n/2)` to
/// each new encounter and keeps the rest ("spray"); holders with a single
/// copy wait for a direct encounter with the destination ("wait" — direct
/// delivery happens through the filter match, outside the policy).
///
/// The copy count is transient metadata: handing copies away adjusts the
/// stored value through the substrate's no-new-version channel, so the
/// adjustment never replicates as an update (the paper's "internal
/// Cimbiosys interface").
///
/// # Examples
///
/// ```
/// use dtn::{DtnPolicy, SprayAndWaitPolicy};
///
/// let policy = SprayAndWaitPolicy::new(8); // Table II: copies = 8
/// assert_eq!(policy.initial_copies(), 8);
/// assert_eq!(policy.name(), "spray");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SprayAndWaitPolicy {
    initial_copies: i64,
}

impl SprayAndWaitPolicy {
    /// Creates the policy with a per-message copy budget.
    pub fn new(initial_copies: u32) -> Self {
        SprayAndWaitPolicy {
            initial_copies: i64::from(initial_copies).max(1),
        }
    }

    /// The copy budget each message starts with.
    pub fn initial_copies(&self) -> u32 {
        self.initial_copies as u32
    }

    fn copies_of(&self, item: &Item) -> i64 {
        item.transient()
            .get_i64(ATTR_COPIES)
            .unwrap_or(self.initial_copies)
    }
}

impl Default for SprayAndWaitPolicy {
    /// The paper's Table II parameter: 8 copies per message.
    fn default() -> Self {
        SprayAndWaitPolicy::new(8)
    }
}

impl SyncExtension for SprayAndWaitPolicy {
    fn label(&self) -> &'static str {
        "spray"
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        if item.is_deleted() {
            return SendDecision::Send(Priority::normal());
        }
        // One lookup answers both questions: how many copies this holder
        // has, and whether the budget was ever stamped on the stored copy.
        let copies = match item.transient().get_i64(ATTR_COPIES) {
            Some(copies) => copies,
            None => {
                item.set_transient(copies_key(), self.initial_copies);
                self.initial_copies
            }
        };
        // A one-copy holder waits for the destination: only a write to
        // its count (there is none in the wait phase) could change that.
        if copies >= 2 {
            SendDecision::Send(Priority::normal())
        } else {
            SendDecision::Park
        }
    }

    fn park_keys(&self, keys: &mut ParkKeys<'_>) {
        keys.file_under(ATTR_DEST);
    }

    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        _target: ReplicaId,
        matched_filter: bool,
    ) {
        if matched_filter || item.is_deleted() {
            return;
        }
        let copies = self.copies_of(item);
        let handed = copies / 2;
        let kept = copies - handed;
        // Binary spray: half the copies travel, half stay (both adjusted
        // without generating new versions).
        item.transient_mut().set(copies_key(), handed.max(1));
        let _ = cx.set_transient(item.id(), copies_key(), kept.max(1));
    }
}

impl DtnPolicy for SprayAndWaitPolicy {
    fn name(&self) -> &'static str {
        "spray"
    }

    fn summary(&self) -> PolicySummary {
        PolicySummary {
            protocol: "Spray&Wait",
            routing_state: "# copies per message",
            added_to_sync_request: "nothing",
            source_forwarding_policy: "when # copies >= 2",
            parameters: vec![(
                "copies per message".to_string(),
                self.initial_copies.to_string(),
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr::{sync, AttributeMap, Filter, Replica, SimTime, SyncLimits};

    fn host(n: u64, addr: &str) -> Replica {
        Replica::new(ReplicaId::new(n), Filter::address("dest", addr))
    }

    fn send_msg(r: &mut Replica, dest: &str) -> pfr::ItemId {
        let mut attrs = AttributeMap::new();
        attrs.set("dest", dest);
        r.insert(attrs, b"m".to_vec()).unwrap()
    }

    fn spray_sync(
        src: &mut Replica,
        sp: &mut SprayAndWaitPolicy,
        tgt: &mut Replica,
        tp: &mut SprayAndWaitPolicy,
        t: u64,
    ) {
        sync::sync_with(
            src,
            sp,
            tgt,
            tp,
            SyncLimits::unlimited(),
            SimTime::from_secs(t),
        );
    }

    #[test]
    fn binary_spray_halves_copies() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let id = send_msg(&mut a, "z");
        let mut pa = SprayAndWaitPolicy::new(8);
        let mut pb = SprayAndWaitPolicy::new(8);
        spray_sync(&mut a, &mut pa, &mut b, &mut pb, 0);
        assert_eq!(
            a.item(id).unwrap().transient().get_i64(ATTR_COPIES),
            Some(4)
        );
        assert_eq!(
            b.item(id).unwrap().transient().get_i64(ATTR_COPIES),
            Some(4)
        );
    }

    #[test]
    fn copy_conservation_across_spray_tree() {
        // Spray through a line of hosts; the total logical copies across
        // all holders never exceeds the initial allocation.
        let initial = 8u32;
        let mut hosts: Vec<Replica> = (0..6).map(|i| host(i + 1, &format!("h{i}"))).collect();
        let mut policies: Vec<SprayAndWaitPolicy> =
            (0..6).map(|_| SprayAndWaitPolicy::new(initial)).collect();
        let id = send_msg(&mut hosts[0], "nowhere");

        for step in 0..5 {
            let (left, right) = hosts.split_at_mut(step + 1);
            let (pl, pr) = policies.split_at_mut(step + 1);
            spray_sync(
                &mut left[step],
                &mut pl[step],
                &mut right[0],
                &mut pr[0],
                step as u64,
            );
        }
        let total: i64 = hosts
            .iter()
            .filter_map(|h| h.item(id))
            .filter_map(|i| i.transient().get_i64(ATTR_COPIES))
            .sum();
        assert!(total <= i64::from(initial), "copies inflated: {total}");
        // And the message stopped spreading once budgets hit 1.
        let holders = hosts.iter().filter(|h| h.contains_item(id)).count();
        assert!(
            holders <= 4,
            "8 copies spray to at most 4 holders in a line, got {holders}"
        );
    }

    #[test]
    fn single_copy_holders_wait() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut c = host(3, "c");
        let id = send_msg(&mut a, "z");
        let mut pa = SprayAndWaitPolicy::new(2);
        let mut pb = SprayAndWaitPolicy::new(2);
        let mut pc = SprayAndWaitPolicy::new(2);
        spray_sync(&mut a, &mut pa, &mut b, &mut pb, 0);
        assert_eq!(
            b.item(id).unwrap().transient().get_i64(ATTR_COPIES),
            Some(1)
        );
        // b has one copy: it must not spray to c.
        spray_sync(&mut b, &mut pb, &mut c, &mut pc, 1);
        assert!(!c.contains_item(id), "wait phase forwards nothing");
        // But b still delivers directly to the destination.
        let mut z = host(9, "z");
        let mut pz = SprayAndWaitPolicy::new(2);
        spray_sync(&mut b, &mut pb, &mut z, &mut pz, 2);
        assert!(z.contains_item(id), "direct delivery always allowed");
    }

    #[test]
    fn summary_matches_table_one() {
        let s = SprayAndWaitPolicy::default().summary();
        assert_eq!(s.routing_state, "# copies per message");
        assert_eq!(s.source_forwarding_policy, "when # copies >= 2");
        assert_eq!(
            s.parameters,
            vec![("copies per message".to_string(), "8".to_string())]
        );
    }
}
