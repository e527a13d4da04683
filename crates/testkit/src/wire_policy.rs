//! A policy wrapper that makes every co-located sync behave as if its
//! request had crossed a socket.

use std::collections::BTreeSet;

use dtn::{DtnPolicy, PolicySummary};
use pfr::sync::{Candidate, HostContext, ParkKeys, SendDecision, SyncRequest};
use pfr::{Item, ItemId, ReplicaId, RoutingState, SyncExtension};

/// Wraps a routing policy so the routing data of every request it
/// generates is bytes by the time the source sees it: whatever the inner
/// policy lends goes through [`RoutingState::into_owned`], exactly what a
/// transport does to it. Everything else — hooks, name, persisted state —
/// passes straight through, so a fleet of wrapped policies must end a run
/// indistinguishable from a fleet of bare ones; that is the test that a
/// lent payload and its wire form mean the same thing.
pub struct OverTheWire(pub Box<dyn DtnPolicy>);

impl SyncExtension for OverTheWire {
    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn generate_request<'a>(&'a mut self, cx: &mut HostContext<'_>) -> RoutingState<'a> {
        self.0.generate_request(cx).into_owned()
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest<'_>) {
        self.0.process_request(cx, request);
    }

    fn to_send(
        &mut self,
        candidate: &mut Candidate<'_>,
        request: &SyncRequest<'_>,
    ) -> SendDecision {
        self.0.to_send(candidate, request)
    }

    fn park_keys(&self, keys: &mut ParkKeys) {
        self.0.park_keys(keys);
    }

    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        target: ReplicaId,
        matched_filter: bool,
    ) {
        self.0.prepare_outgoing(cx, item, target, matched_filter);
    }

    fn on_delivered(&mut self, cx: &mut HostContext<'_>, delivered: &[ItemId]) {
        self.0.on_delivered(cx, delivered);
    }

    fn on_relayed(&mut self, id: ItemId) {
        self.0.on_relayed(id);
    }
}

impl DtnPolicy for OverTheWire {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn summary(&self) -> PolicySummary {
        self.0.summary()
    }

    fn set_local_addresses(&mut self, addrs: BTreeSet<String>) {
        self.0.set_local_addresses(addrs);
    }

    fn save_state(&self) -> Vec<u8> {
        self.0.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.0.restore_state(bytes);
    }
}

impl std::fmt::Debug for OverTheWire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("OverTheWire").field(&self.0.name()).finish()
    }
}
