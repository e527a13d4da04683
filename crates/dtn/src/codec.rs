//! Encodings for policy routing state carried in sync requests.
//!
//! Each policy defines its own routing payload (paper §V-A, requirement 2)
//! — its [`Advert`] — and lends it to a co-located peer as the struct it
//! is; these helpers encode the common shapes — probability vectors keyed
//! by address or replica, and address sets — with the same compact wire
//! primitives as the substrate, for the requests that do cross a wire.
//! [`receive`] is the one way a policy reads a peer's advert, and the
//! decode edge: bytes are checked here (a probability is a finite number
//! in [0, 1]) so that nothing past it has to doubt one. Addresses decode to
//! interned [`IStr`]s: the same few strings arrive at every contact, and
//! holding them interned makes every later copy a reference-count bump.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::borrow::Cow;
use std::collections::BTreeSet;

use pfr::wire::{Decode, Encode, Reader, WireError, Writer};
use pfr::{IStr, ReplicaId, RoutingPayload, RoutingState};

/// What a policy advertises in its sync requests, kept in one struct: lent
/// to a co-located peer by reference, encoded ([`RoutingPayload::encode`])
/// where the request meets a wire and decoded back on the other side.
pub(crate) trait Advert: RoutingPayload + Clone {
    /// Decodes and validates an advert from a peer's bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// The peer's advert out of a request's routing data: the lent struct
/// itself between co-located nodes of one policy, otherwise what the
/// bytes decode to. `None` — undecodable, a different policy, nothing
/// sent — means "no routing data this round". Another policy's lent
/// payload is read as its bytes would be, so a co-located pair behaves
/// exactly as the same pair across a socket.
pub(crate) fn receive<'a, A: Advert>(routing: &RoutingState<'a>) -> Option<Cow<'a, A>> {
    if let Some(advert) = routing.lent::<A>() {
        // From this process's own policy: nothing to check.
        return Some(Cow::Borrowed(advert));
    }
    A::decode(&mut Reader::new(&routing.wire_form()))
        .ok()
        .map(Cow::Owned)
}

/// A probability off the wire or the disk: anything but a finite number in
/// [0, 1] is undecodable. Unchecked, one `+inf` or `1e300` in a request
/// would outlive every ageing step and honest update at the receiver.
fn get_prob(r: &mut Reader<'_>) -> Result<f64, WireError> {
    let p = r.get_f64()?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(WireError::InvalidTag {
            what: "probability outside [0, 1]",
            tag: 0,
        })
    }
}

/// A probability vector keyed by destination address, given ascending
/// (read twice: once for its length).
pub(crate) fn put_addr_probs<'a>(
    w: &mut Writer,
    probs: impl Iterator<Item = (&'a IStr, f64)> + Clone,
) {
    w.put_varint(probs.clone().count() as u64);
    for (addr, p) in probs {
        w.put_str(addr);
        w.put_f64(p);
    }
}

/// A probability vector keyed by destination address, ascending by
/// address with each address once. Bytes that list an address twice or
/// out of order decode to the same vector, the later value of a repeated
/// address winning — what inserting them into a map in turn gives.
pub(crate) fn get_addr_probs(r: &mut Reader<'_>) -> Result<Vec<(IStr, f64)>, WireError> {
    let len = r.get_len(2)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let addr = IStr::new(r.get_str_slice()?);
        out.push((addr, get_prob(r)?));
    }
    canonicalize(&mut out);
    Ok(out)
}

/// Sorts a decoded vector ascending by key with each key once, the later
/// value of a repeated key winning.
fn canonicalize<K: Ord>(out: &mut Vec<(K, f64)>) {
    if !out.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0)) {
        // Stable, so a repeated key keeps its values in list order.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = next.1;
            }
            same
        });
    }
}

/// A probability vector keyed by replica (node) id, given ascending.
pub(crate) fn put_node_probs<'a>(
    w: &mut Writer,
    probs: impl ExactSizeIterator<Item = (&'a ReplicaId, &'a f64)>,
) {
    w.put_varint(probs.len() as u64);
    for (node, p) in probs {
        node.encode(w);
        w.put_f64(*p);
    }
}

/// A probability vector keyed by replica id, ascending by id with each
/// id once, decoded canonically as [`get_addr_probs`] decodes addresses.
pub(crate) fn get_node_probs(r: &mut Reader<'_>) -> Result<Vec<(ReplicaId, f64)>, WireError> {
    let len = r.get_len(2)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let node = ReplicaId::decode(r)?;
        out.push((node, get_prob(r)?));
    }
    canonicalize(&mut out);
    Ok(out)
}

/// A set of addresses (the sender's current local addresses).
pub(crate) fn put_addrs(w: &mut Writer, addrs: &BTreeSet<IStr>) {
    w.put_varint(addrs.len() as u64);
    for a in addrs {
        w.put_str(a);
    }
}

pub(crate) fn get_addrs(r: &mut Reader<'_>) -> Result<BTreeSet<IStr>, WireError> {
    let len = r.get_len(1)?;
    let mut out = BTreeSet::new();
    for _ in 0..len {
        out.insert(IStr::new(r.get_str_slice()?));
    }
    Ok(out)
}

/// The interned form of a host's address set.
pub(crate) fn intern_addrs(addrs: &BTreeSet<String>) -> BTreeSet<IStr> {
    addrs.iter().map(IStr::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_probs_roundtrip() {
        let probs = vec![(IStr::new("a"), 0.5), (IStr::new("b"), 0.125)];
        let mut w = Writer::new();
        put_addr_probs(&mut w, probs.iter().map(|(a, p)| (a, *p)));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_addr_probs(&mut r).unwrap(), probs);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn addr_probs_decode_canonical_whatever_the_listed_order() {
        let listed = [("b", 0.25), ("a", 0.5), ("b", 0.75), ("c", 1.0), ("a", 0.0)];
        let mut w = Writer::new();
        w.put_varint(listed.len() as u64);
        for (addr, p) in listed {
            w.put_str(addr);
            w.put_f64(p);
        }
        let decoded = get_addr_probs(&mut Reader::new(w.as_slice())).unwrap();
        let expected: Vec<(IStr, f64)> = [("a", 0.0), ("b", 0.75), ("c", 1.0)]
            .into_iter()
            .map(|(a, p)| (IStr::new(a), p))
            .collect();
        assert_eq!(
            decoded, expected,
            "ascending, each once, the last value kept"
        );
    }

    #[test]
    fn node_probs_roundtrip() {
        let probs = vec![(ReplicaId::new(1), 0.25), (ReplicaId::new(9), 0.75)];
        let mut w = Writer::new();
        put_node_probs(&mut w, probs.iter().map(|(node, p)| (node, p)));
        let bytes = w.into_bytes();
        assert_eq!(get_node_probs(&mut Reader::new(&bytes)).unwrap(), probs);
    }

    #[test]
    fn node_probs_decode_canonical_whatever_the_listed_order() {
        let listed = [(9, 0.25), (1, 0.5), (9, 0.75), (4, 1.0), (1, 0.0)];
        let mut w = Writer::new();
        w.put_varint(listed.len() as u64);
        for (node, p) in listed {
            ReplicaId::new(node).encode(&mut w);
            w.put_f64(p);
        }
        let decoded = get_node_probs(&mut Reader::new(w.as_slice())).unwrap();
        let expected: Vec<(ReplicaId, f64)> = [(1, 0.0), (4, 1.0), (9, 0.75)]
            .into_iter()
            .map(|(node, p)| (ReplicaId::new(node), p))
            .collect();
        assert_eq!(
            decoded, expected,
            "ascending, each once, the last value kept"
        );
    }

    #[test]
    fn addrs_roundtrip() {
        let addrs: BTreeSet<IStr> = ["u1", "u2"].into_iter().map(IStr::new).collect();
        let mut w = Writer::new();
        put_addrs(&mut w, &addrs);
        let bytes = w.into_bytes();
        assert_eq!(get_addrs(&mut Reader::new(&bytes)).unwrap(), addrs);
    }

    #[test]
    fn corrupt_state_fails_cleanly() {
        assert!(get_addr_probs(&mut Reader::new(&[0xff, 0xff, 0xff])).is_err());
    }

    #[test]
    fn a_probability_is_a_finite_number_between_zero_and_one() {
        for p in [0.0, 0.3, 1.0] {
            let mut w = Writer::new();
            w.put_f64(p);
            assert_eq!(get_prob(&mut Reader::new(w.as_slice())), Ok(p));
        }
        let hostile = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            1.0 + f64::EPSILON,
            -f64::MIN_POSITIVE,
        ];
        for p in hostile {
            let mut w = Writer::new();
            w.put_varint(1);
            w.put_str("victim");
            w.put_f64(p);
            assert!(
                get_addr_probs(&mut Reader::new(w.as_slice())).is_err(),
                "{p} decoded as a probability"
            );
        }
    }
}
