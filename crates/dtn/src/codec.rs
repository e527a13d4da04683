//! Encodings for policy routing state carried in sync requests.
//!
//! Each policy defines its own routing payload (paper §V-A, requirement 2);
//! these helpers encode the common shapes — probability vectors keyed by
//! address or replica, and address sets — with the same compact wire
//! primitives as the substrate. Addresses decode to interned [`IStr`]s:
//! the same few strings arrive at every contact, and holding them interned
//! makes every later copy a reference-count bump.

use std::collections::{BTreeMap, BTreeSet};

use pfr::wire::{Decode, Encode, Reader, WireError, Writer};
use pfr::{IStr, ReplicaId, RoutingState};

/// A probability vector keyed by destination address.
pub(crate) fn put_addr_probs(w: &mut Writer, probs: &BTreeMap<IStr, f64>) {
    w.put_varint(probs.len() as u64);
    for (addr, p) in probs {
        w.put_str(addr);
        w.put_f64(*p);
    }
}

pub(crate) fn get_addr_probs(r: &mut Reader<'_>) -> Result<BTreeMap<IStr, f64>, WireError> {
    let len = r.get_len(2)?;
    let mut out = BTreeMap::new();
    for _ in 0..len {
        let addr = IStr::new(r.get_str_slice()?);
        let p = r.get_f64()?;
        out.insert(addr, p);
    }
    Ok(out)
}

/// A probability vector keyed by replica (node) id.
pub(crate) fn put_node_probs(w: &mut Writer, probs: &BTreeMap<ReplicaId, f64>) {
    w.put_varint(probs.len() as u64);
    for (node, p) in probs {
        node.encode(w);
        w.put_f64(*p);
    }
}

pub(crate) fn get_node_probs(r: &mut Reader<'_>) -> Result<BTreeMap<ReplicaId, f64>, WireError> {
    let len = r.get_len(2)?;
    let mut out = BTreeMap::new();
    for _ in 0..len {
        let node = ReplicaId::decode(r)?;
        let p = r.get_f64()?;
        out.insert(node, p);
    }
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

/// Finishes a writer into a [`RoutingState`].
pub(crate) fn finish(w: Writer) -> RoutingState {
    RoutingState::from_bytes(w.into_bytes())
}

/// Opens a routing state for reading; a decode failure means the peer runs
/// a different (or corrupt) policy — callers treat it as "no routing data".
pub(crate) fn open(state: &RoutingState) -> Reader<'_> {
    Reader::new(state.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_probs_roundtrip() {
        let mut probs = BTreeMap::new();
        probs.insert(IStr::new("a"), 0.5);
        probs.insert(IStr::new("b"), 0.125);
        let mut w = Writer::new();
        put_addr_probs(&mut w, &probs);
        let state = finish(w);
        let mut r = open(&state);
        assert_eq!(get_addr_probs(&mut r).unwrap(), probs);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn node_probs_roundtrip() {
        let mut probs = BTreeMap::new();
        probs.insert(ReplicaId::new(1), 0.25);
        probs.insert(ReplicaId::new(9), 0.75);
        let mut w = Writer::new();
        put_node_probs(&mut w, &probs);
        let bytes = w.into_bytes();
        assert_eq!(get_node_probs(&mut Reader::new(&bytes)).unwrap(), probs);
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
        let state = RoutingState::from_bytes(vec![0xff, 0xff, 0xff]);
        let mut r = open(&state);
        assert!(get_addr_probs(&mut r).is_err());
    }
}
