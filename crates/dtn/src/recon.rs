//! Digest-mode sync support: routing-state delta envelopes.
//!
//! In [`pfr::SyncMode::Digest`] encounters, knowledge vectors are already
//! compressed by the reconciliation layer ([`pfr::digest`]). The other
//! recurring payload in every sync request is the *routing state* — a
//! PROPHET predictability vector or a MaxProp meeting table — which
//! changes only incrementally between consecutive meetings of the same
//! pair. This module delta-encodes that payload against the last copy
//! exchanged with the peer, and transparently restores the raw bytes
//! before the routing policy sees them.
//!
//! The envelope is strictly an optimization. The encounter driver holds
//! both nodes, so before each sync it drops a sender's base that the
//! receiver no longer holds (lost to a restart or a spill) and the
//! payload goes out whole. Any decode failure that still happens (corrupt
//! bytes) degrades to "no routing data this round" — the same contract
//! policies already honour for peers running a different protocol — and
//! the driver clears the sender's cache so the next exchange carries the
//! full payload again.

use std::borrow::Cow;
use std::collections::BTreeMap;

use pfr::sync::{Candidate, HostContext, SendDecision, SyncRequest};
use pfr::wire::{Reader, Writer};
use pfr::{Item, ItemId, ReplicaId, RoutingState, SyncExtension};

/// Envelope format version.
const ENVELOPE_VERSION: u8 = 1;
/// The payload follows verbatim.
const KIND_FULL: u8 = 0;
/// The payload is a prefix/suffix diff against the last exchanged copy.
const KIND_DELTA: u8 = 1;

/// FNV-1a over the payload; guards the delta base and the reconstruction.
fn sum64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes `raw` for the wire, as a prefix/suffix delta against
/// `last_sent` when that is actually smaller, else verbatim.
pub(crate) fn encode_envelope(last_sent: Option<&[u8]>, raw: &[u8]) -> Vec<u8> {
    let mut full = Writer::new();
    full.put_u8(ENVELOPE_VERSION);
    full.put_u8(KIND_FULL);
    full.put_bytes(raw);
    let full = full.into_bytes();

    let Some(base) = last_sent else {
        return full;
    };
    let prefix = base
        .iter()
        .zip(raw.iter())
        .take_while(|(a, b)| a == b)
        .count();
    let suffix = base[prefix..]
        .iter()
        .rev()
        .zip(raw[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let mut delta = Writer::new();
    delta.put_u8(ENVELOPE_VERSION);
    delta.put_u8(KIND_DELTA);
    delta.put_u64(sum64(base));
    delta.put_u64(sum64(raw));
    delta.put_varint(prefix as u64);
    delta.put_varint(suffix as u64);
    delta.put_bytes(&raw[prefix..raw.len() - suffix]);
    let delta = delta.into_bytes();
    if delta.len() < full.len() {
        delta
    } else {
        full
    }
}

/// Decodes an envelope produced by [`encode_envelope`], resolving deltas
/// against `last_received`. `None` means the payload cannot be recovered
/// this round (unknown version, checksum mismatch, missing base).
pub(crate) fn decode_envelope(last_received: Option<&[u8]>, bytes: &[u8]) -> Option<Vec<u8>> {
    let mut r = Reader::new(bytes);
    if r.get_u8().ok()? != ENVELOPE_VERSION {
        return None;
    }
    match r.get_u8().ok()? {
        KIND_FULL => Some(r.get_bytes().ok()?.to_vec()),
        KIND_DELTA => {
            let base_sum = r.get_u64().ok()?;
            let full_sum = r.get_u64().ok()?;
            let prefix = r.get_varint().ok()? as usize;
            let suffix = r.get_varint().ok()? as usize;
            let middle = r.get_bytes().ok()?;
            let base = last_received?;
            if sum64(base) != base_sum || prefix.checked_add(suffix)? > base.len() {
                return None;
            }
            let mut raw = Vec::with_capacity(prefix + middle.len() + suffix);
            raw.extend_from_slice(&base[..prefix]);
            raw.extend_from_slice(middle);
            raw.extend_from_slice(&base[base.len() - suffix..]);
            (sum64(&raw) == full_sum).then_some(raw)
        }
        _ => None,
    }
}

/// The per-peer routing-envelope caches: the raw payload last sent to
/// (`tx`) and last decoded from (`rx`) the peer. Purely in-memory — never
/// snapshotted; a restart simply costs one full-size routing payload per
/// peer.
#[derive(Debug, Default)]
pub(crate) struct PeerLink {
    pub(crate) tx: Option<Vec<u8>>,
    pub(crate) rx: Option<Vec<u8>>,
}

/// All of a node's digest-mode state that lives outside [`pfr`]: one
/// [`PeerLink`] per peer (the reconciliation snapshots themselves are in
/// the node's [`pfr::ReconState`]).
#[derive(Debug, Default)]
pub(crate) struct RoutingLinks {
    links: BTreeMap<ReplicaId, PeerLink>,
}

impl RoutingLinks {
    pub(crate) fn link(&mut self, peer: ReplicaId) -> &mut PeerLink {
        self.links.entry(peer).or_default()
    }

    /// Forgets the payload last sent to `peer`, forcing the next envelope
    /// to carry the full routing state (the peer reported a decode miss).
    pub(crate) fn reset_tx(&mut self, peer: ReplicaId) {
        if let Some(link) = self.links.get_mut(&peer) {
            link.tx = None;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.links.clear();
    }
}

/// Wraps a routing policy for one digest-mode sync with one peer:
/// envelopes the routing state this side generates, and unwraps the
/// peer's envelope before the inner policy reads it. Every other hook
/// passes straight through.
pub(crate) struct DigestExt<'a> {
    inner: &'a mut dyn SyncExtension,
    link: &'a mut PeerLink,
    /// Set when the peer's routing envelope could not be decoded; the
    /// encounter driver clears the peer's `tx` cache in response.
    pub(crate) decode_failed: bool,
}

impl<'a> DigestExt<'a> {
    pub(crate) fn new(inner: &'a mut dyn SyncExtension, link: &'a mut PeerLink) -> Self {
        DigestExt {
            inner,
            link,
            decode_failed: false,
        }
    }
}

impl SyncExtension for DigestExt<'_> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn generate_request<'a>(&'a mut self, cx: &mut HostContext<'_>) -> RoutingState<'a> {
        // The envelope diffs bytes: whatever the policy lends is encoded
        // here, once, and the copy becomes the next delta's base.
        let raw = self.inner.generate_request(cx).into_bytes();
        if raw.is_empty() {
            // Stateless policies (epidemic, spray, direct) pay nothing.
            return RoutingState::empty();
        }
        let enveloped = encode_envelope(self.link.tx.as_deref(), &raw);
        self.link.tx = Some(raw);
        RoutingState::from_bytes(enveloped)
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest<'_>) {
        // A co-located digest-mode peer wears this wrapper too, so what
        // arrives is its envelope's bytes; a payload lent bare is read as
        // the bytes it would have been.
        let enveloped = request.routing.wire_form();
        if enveloped.is_empty() {
            self.inner.process_request(cx, request);
            return;
        }
        let routing = match decode_envelope(self.link.rx.as_deref(), &enveloped) {
            Some(raw) => {
                self.link.rx = Some(raw.clone());
                RoutingState::from_bytes(raw)
            }
            None => {
                // Unrecoverable this round: surface "no routing data" to
                // the policy and flag the driver to resynchronize.
                self.decode_failed = true;
                self.link.rx = None;
                RoutingState::empty()
            }
        };
        let unwrapped = SyncRequest {
            target: request.target,
            knowledge: Cow::Borrowed(request.knowledge.as_ref()),
            filter: Cow::Borrowed(request.filter.as_ref()),
            routing,
        };
        self.inner.process_request(cx, &unwrapped);
    }

    fn to_send(
        &mut self,
        candidate: &mut Candidate<'_>,
        request: &SyncRequest<'_>,
    ) -> SendDecision {
        // Policies read routing state in process_request, never here, so
        // the enveloped request passes through untranslated.
        self.inner.to_send(candidate, request)
    }

    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        target: ReplicaId,
        matched_filter: bool,
    ) {
        self.inner
            .prepare_outgoing(cx, item, target, matched_filter);
    }

    fn on_delivered(&mut self, cx: &mut HostContext<'_>, delivered: &[ItemId]) {
        self.inner.on_delivered(cx, delivered);
    }

    fn on_relayed(&mut self, id: ItemId) {
        self.inner.on_relayed(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_envelope_roundtrips() {
        let raw = b"routing-bytes".to_vec();
        let enc = encode_envelope(None, &raw);
        assert_eq!(decode_envelope(None, &enc), Some(raw));
    }

    #[test]
    fn identical_payload_deltas_to_a_few_bytes() {
        let raw: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let enc = encode_envelope(Some(&raw), &raw);
        assert!(
            enc.len() < 25,
            "unchanged payload should collapse, got {} bytes",
            enc.len()
        );
        assert_eq!(decode_envelope(Some(&raw), &enc), Some(raw));
    }

    #[test]
    fn small_edit_produces_small_delta() {
        let base: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let mut raw = base.clone();
        raw[100] = 0xff;
        let enc = encode_envelope(Some(&base), &raw);
        assert!(enc.len() < 30, "one-byte edit, got {} bytes", enc.len());
        assert_eq!(decode_envelope(Some(&base), &enc), Some(raw));
    }

    #[test]
    fn divergent_payload_falls_back_to_full() {
        let base: Vec<u8> = vec![1; 50];
        let raw: Vec<u8> = vec![2; 50];
        let enc = encode_envelope(Some(&base), &raw);
        // Nothing shared: the full form must win the size comparison.
        assert_eq!(decode_envelope(None, &enc), Some(raw));
    }

    #[test]
    fn delta_against_wrong_base_is_rejected() {
        let base: Vec<u8> = (0..100).collect();
        let mut raw = base.clone();
        raw[10] = 0xee;
        let enc = encode_envelope(Some(&base), &raw);
        let wrong: Vec<u8> = (100..200).collect();
        assert_eq!(decode_envelope(Some(&wrong), &enc), None);
        assert_eq!(decode_envelope(None, &enc), None);
    }

    #[test]
    fn corrupt_envelopes_never_panic() {
        let base: Vec<u8> = (0..100).collect();
        let enc = encode_envelope(Some(&base), &base);
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x41;
            // Any outcome but a panic is acceptable; a wrong Some would
            // need a 64-bit checksum collision.
            let _ = decode_envelope(Some(&base), &bad);
        }
        assert_eq!(decode_envelope(Some(&base), &[]), None);
        assert_eq!(decode_envelope(Some(&base), &[9, 9, 9]), None);
    }

    #[test]
    fn shared_prefix_and_suffix_both_collapse() {
        let mut base = vec![7u8; 300];
        let mut raw = base.clone();
        raw[150] = 1;
        base[150] = 2;
        let enc = encode_envelope(Some(&base), &raw);
        assert!(enc.len() < 30, "mid-edit delta, got {} bytes", enc.len());
        assert_eq!(decode_envelope(Some(&base), &enc), Some(raw));
    }
}
