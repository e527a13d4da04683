//! Epidemic routing: TTL-limited flooding (Vahdat & Becker, 2000).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use pfr::sync::{Candidate, HostContext, ParkKeys, SendDecision, SyncRequest};
use pfr::{AttributeMap, IStr, Item, Priority, ReplicaId, SyncExtension};

use crate::messaging::ATTR_DEST;
use crate::policy::{DtnPolicy, PolicySummary};

/// Transient attribute holding the remaining hop budget of a copy.
pub const ATTR_TTL: &str = "dtn.ttl";

/// [`ATTR_TTL`] as an interned key: stamping with it is a reference-count
/// bump, not a string allocation.
fn ttl_key() -> IStr {
    static KEY: OnceLock<IStr> = OnceLock::new();
    KEY.get_or_init(|| IStr::new(ATTR_TTL)).clone()
}

/// Process-wide interned `{dtn.ttl: n}` transient maps, one per budget a
/// policy issues (`0..=initial_ttl`): every in-flight copy at the same
/// remaining budget can share one map, so stamping an outgoing copy is an
/// `Arc` bump instead of a per-copy map privatization (see
/// [`Item::replace_transient`]).
fn ttl_maps() -> MutexGuard<'static, HashMap<i64, Arc<AttributeMap>>> {
    static MAPS: OnceLock<Mutex<HashMap<i64, Arc<AttributeMap>>>> = OnceLock::new();
    let maps = MAPS.get_or_init(|| Mutex::new(HashMap::new()));
    maps.lock().unwrap_or_else(|e| e.into_inner())
}

fn ttl_map(ttl: i64) -> Arc<AttributeMap> {
    ttl_maps()
        .entry(ttl)
        .or_insert_with(|| {
            let mut m = AttributeMap::new();
            m.set(ttl_key(), ttl);
            Arc::new(m)
        })
        .clone()
}

/// Epidemic routing as a replication policy (paper §V-C1).
///
/// Every item with remaining TTL is forwarded at every encounter; the TTL
/// is a *transient* per-copy attribute, initialized lazily on first
/// forwarding and decremented on the in-flight copy only, so the stored
/// copy's budget is unaffected — exactly the paper's description.
///
/// The original protocol's summary vectors are unnecessary: the
/// substrate's knowledge already guarantees at-most-once delivery.
///
/// # Examples
///
/// ```
/// use dtn::{DtnPolicy, EpidemicPolicy};
///
/// let policy = EpidemicPolicy::new(10); // Table II: TTL = 10
/// assert_eq!(policy.initial_ttl(), 10);
/// assert_eq!(policy.name(), "epidemic");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EpidemicPolicy {
    initial_ttl: i64,
}

impl EpidemicPolicy {
    /// Creates the policy with an initial per-message hop budget.
    pub fn new(initial_ttl: u32) -> Self {
        EpidemicPolicy {
            initial_ttl: i64::from(initial_ttl),
        }
    }

    /// The hop budget new messages start with.
    pub fn initial_ttl(&self) -> u32 {
        self.initial_ttl as u32
    }

    /// Reads a copy's remaining TTL, treating a missing field as "fresh".
    fn ttl_of(&self, item: &Item) -> i64 {
        item.transient()
            .get_i64(ATTR_TTL)
            .unwrap_or(self.initial_ttl)
    }
}

impl Default for EpidemicPolicy {
    /// The paper's Table II parameter: TTL = 10.
    fn default() -> Self {
        EpidemicPolicy::new(10)
    }
}

impl SyncExtension for EpidemicPolicy {
    fn label(&self) -> &'static str {
        "epidemic"
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        if item.is_deleted() {
            // Tombstones flood freely: they only shrink state downstream.
            return SendDecision::Send(Priority::normal());
        }
        let ttl = self.ttl_of(item);
        if !item.transient().contains(ATTR_TTL) {
            // Lazily stamp fresh messages with the initial budget (the
            // paper's "updates the stored message to add a TTL field").
            item.set_transient(ttl_key(), self.initial_ttl);
        }
        // The stored TTL only changes by a write, so an exhausted copy is
        // parked until its destination turns up.
        if ttl > 0 {
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
        _cx: &mut HostContext<'_>,
        item: &mut Item,
        _target: ReplicaId,
        matched_filter: bool,
    ) {
        if matched_filter || item.is_deleted() {
            return;
        }
        let ttl = self.ttl_of(item);
        // Decrement affects the in-flight copy only (paper: "does not
        // affect the TTL values for messages stored in the source"). When
        // the TTL is the copy's whole transient state — the common case —
        // the stamp swaps in the interned map for the new budget; only
        // copies carrying extra transient attributes pay a privatization.
        // A budget this policy never issues (a peer's copy can carry any
        // TTL) is set in place: interning it would grow the process-wide
        // table by one map per distinct value a peer sends.
        let next = (ttl - 1).max(0);
        let t = item.transient();
        if next <= self.initial_ttl && t.len() == 1 && t.contains(ATTR_TTL) {
            item.replace_transient(ttl_map(next));
        } else {
            item.transient_mut().set(ttl_key(), next);
        }
    }
}

impl DtnPolicy for EpidemicPolicy {
    fn name(&self) -> &'static str {
        "epidemic"
    }

    fn summary(&self) -> PolicySummary {
        PolicySummary {
            protocol: "Epidemic",
            routing_state: "TTL per message",
            added_to_sync_request: "nothing",
            source_forwarding_policy: "when TTL > 0",
            parameters: vec![("TTL".to_string(), self.initial_ttl.to_string())],
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

    fn relay_sync(
        src: &mut Replica,
        sp: &mut EpidemicPolicy,
        tgt: &mut Replica,
        tp: &mut EpidemicPolicy,
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
    fn floods_with_decrementing_ttl() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut c = host(3, "c");
        let id = send_msg(&mut a, "z");
        let mut pa = EpidemicPolicy::new(2);
        let mut pb = EpidemicPolicy::new(2);
        let mut pc = EpidemicPolicy::new(2);

        relay_sync(&mut a, &mut pa, &mut b, &mut pb, 0);
        assert_eq!(b.item(id).unwrap().transient().get_i64(ATTR_TTL), Some(1));
        // The source's stored copy keeps the full budget.
        assert_eq!(a.item(id).unwrap().transient().get_i64(ATTR_TTL), Some(2));

        relay_sync(&mut b, &mut pb, &mut c, &mut pc, 1);
        assert_eq!(c.item(id).unwrap().transient().get_i64(ATTR_TTL), Some(0));

        // c's copy is exhausted: it won't be forwarded further.
        let mut d = host(4, "d");
        let mut pd = EpidemicPolicy::new(2);
        relay_sync(&mut c, &mut pc, &mut d, &mut pd, 2);
        assert!(!d.contains_item(id), "TTL-0 copies stop flooding");
    }

    #[test]
    fn delivery_ignores_ttl() {
        // Even a TTL-0 copy is delivered to a host whose filter matches it:
        // filter matches bypass the policy entirely.
        let mut c = host(3, "c");
        let mut z = host(9, "z");
        let mut a = host(1, "a");
        let id = send_msg(&mut a, "z");
        let mut pa = EpidemicPolicy::new(1);
        let mut pc = EpidemicPolicy::new(1);
        let mut pz = EpidemicPolicy::new(1);
        relay_sync(&mut a, &mut pa, &mut c, &mut pc, 0);
        assert_eq!(c.item(id).unwrap().transient().get_i64(ATTR_TTL), Some(0));
        relay_sync(&mut c, &mut pc, &mut z, &mut pz, 1);
        assert!(z.contains_item(id), "delivery is not an expansion hop");
    }

    #[test]
    fn stamps_stored_items_lazily() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let id = send_msg(&mut a, "z");
        assert!(a.item(id).unwrap().transient().get_i64(ATTR_TTL).is_none());
        let mut pa = EpidemicPolicy::default();
        let mut pb = EpidemicPolicy::default();
        relay_sync(&mut a, &mut pa, &mut b, &mut pb, 0);
        assert_eq!(
            a.item(id).unwrap().transient().get_i64(ATTR_TTL),
            Some(10),
            "stored copy stamped with Table II default"
        );
    }

    #[test]
    fn ttls_from_the_wire_are_not_interned() {
        let mut a = host(1, "a");
        let id = send_msg(&mut a, "z");
        let mut policy = EpidemicPolicy::default();
        let mut cx = HostContext::new(&mut a, SimTime::ZERO, None);
        for ttl in 1000..2000 {
            // A copy as a peer sent it: the TTL its whole transient state.
            let mut copy = cx.replica().item(id).unwrap().clone();
            copy.transient_mut().set(ATTR_TTL, ttl);
            policy.prepare_outgoing(&mut cx, &mut copy, ReplicaId::new(2), false);
            assert_eq!(copy.transient().get_i64(ATTR_TTL), Some(ttl - 1));
        }
        let maps = ttl_maps();
        assert!(!(999..2000).any(|ttl| maps.contains_key(&ttl)));
    }

    #[test]
    fn summary_matches_table_one() {
        let p = EpidemicPolicy::default();
        let s = p.summary();
        assert_eq!(s.routing_state, "TTL per message");
        assert_eq!(s.source_forwarding_policy, "when TTL > 0");
        assert_eq!(s.parameters, vec![("TTL".to_string(), "10".to_string())]);
    }
}
