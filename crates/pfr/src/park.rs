//! Parked copies: stored items a routing extension withholds until they
//! are rewritten ([`SendDecision::Park`](crate::SendDecision::Park)).
//!
//! Most of what a waiting policy is asked about at a contact it declined
//! at the last one, for a reason only a write to the copy can change: a
//! relay copy under two-hop, a one-copy holder under Spray, an
//! acknowledged message under MaxProp. A park records that verdict on the
//! copy's version-index entry, together with a 62-bit signature of the
//! copy's values of one attribute (`dest` for the DTN policies; every
//! string of a list). A sync then passes over a parked copy — no slot,
//! no filter, no `to_send` — unless the copy shares a signature bit with
//! the sync's *wanted* set: the values the target's filter can match on
//! that attribute, plus those the extension names ([`ParkKeys::want`]). A
//! bit shared by accident only costs the full evaluation every copy used
//! to get; equal strings always set the same bit.
//!
//! One `u64` per index entry encodes all three states:
//! - [`UNPARKED`] — not parked;
//! - [`PARKED`] plus signature bits `0..62` — parked;
//! - a wanted set is [`UNPARKED`] plus signature bits, or [`EVERY`].
//!
//! An entry is passed over exactly when `entry & wanted == 0`. The store
//! files versions in stretches of 64 counters, and each stretch keeps a
//! mask of its parked entries and a union covering their park entries, so
//! a walk usually passes a stretch's parks without reading them: when the
//! wanted set misses the union, every parked unknown version of the
//! stretch is counted and dropped with one `AND`. Otherwise each is
//! tested on its own entry. Park, write, replacement, removal and
//! [`crate::Replica::clear_parks`] keep the mask exact; a write leaves the
//! unparked entry's bits in the union until the stretch's last park goes,
//! and such a stale bit only costs the per-entry tests, never passes a
//! wanted copy. A multicast copy sets a bit for each of its destinations,
//! in its entry and so in its stretch's union.

use crate::filter::{CmpOp, Filter};
use crate::item::Item;
use crate::value::Value;

/// The index entry of a copy that is not parked. Every wanted set
/// includes this bit, so such a copy is always evaluated.
pub(crate) const UNPARKED: u64 = 1 << 63;

/// Set in every parked entry; only [`EVERY`] among wanted sets includes
/// it, so a parked copy with no key values is evaluated under it alone.
pub(crate) const PARKED: u64 = 1 << 62;

/// The wanted set that evaluates every parked copy: for filters of any
/// other shape than an address disjunction, and for a store with nothing
/// parked.
pub(crate) const EVERY: u64 = u64::MAX;

/// How many signature bits there are, below [`PARKED`].
const KEY_BITS: u64 = 62;

/// The signature bit of one key value (FNV-1a, folded to [`KEY_BITS`]).
fn key_bit(value: &str) -> u64 {
    let hash = value.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    1 << (hash % KEY_BITS)
}

/// The park entry of `item` filed under `attr`: [`PARKED`] plus the bit of
/// each string value the attribute holds, scalar or listed. Other values
/// set no bit: only a filter atom of another type could match them, and
/// such a filter wants [`EVERY`].
pub(crate) fn entry_of(item: &Item, attr: &str) -> u64 {
    let keys = match item.attrs().get(attr) {
        Some(Value::Str(s)) => key_bit(s),
        Some(Value::List(values)) => values
            .iter()
            .filter_map(Value::as_str)
            .fold(0, |keys, s| keys | key_bit(s)),
        _ => 0,
    };
    PARKED | keys
}

/// The signature bits of every value of `attr` that `filter` can match,
/// when it can match only items holding one of them there: a disjunction
/// (of any depth, possibly empty) of `contains`, `=` and `in` atoms on
/// `attr` with string operands. `None` for every other shape.
fn filter_keys(filter: &Filter, attr: &str) -> Option<u64> {
    match filter {
        Filter::None => Some(0),
        Filter::Contains {
            attr: on,
            value: Value::Str(s),
        }
        | Filter::Cmp {
            attr: on,
            op: CmpOp::Eq,
            value: Value::Str(s),
        } if on == attr => Some(key_bit(s)),
        Filter::In { attr: on, values } if on == attr => values
            .iter()
            .try_fold(0, |keys, v| Some(keys | key_bit(v.as_str()?))),
        Filter::Or(arms) => arms
            .iter()
            .try_fold(0, |keys, arm| Some(keys | filter_keys(arm, attr)?)),
        _ => None,
    }
}

/// The wanted set of one sync over parks filed under `attr`: what the
/// target's filter can match there plus the values `keys` names, or
/// [`EVERY`] when the filter has another shape.
pub(crate) fn wanted(filter: &Filter, attr: &str, keys: &ParkKeys) -> u64 {
    let named = if keys.attr == Some(attr) {
        keys.wanted
    } else {
        0
    };
    filter_keys(filter, attr).map_or(EVERY, |matched| UNPARKED | matched | named)
}

/// What a source's extension tells a sync about the copies it parks,
/// through [`SyncExtension::park_keys`](crate::SyncExtension::park_keys):
/// the attribute they are filed under, and the values of it whose parked
/// copies this sync must judge again because the extension's own verdict
/// on them may have changed (PROPHET: the destinations the peer is a
/// better custodian for). The target's filter needs no naming: the
/// substrate reads it.
///
/// An extension that never calls [`ParkKeys::file_under`] cannot park:
/// its [`SendDecision::Park`](crate::SendDecision::Park) is a plain skip.
#[derive(Clone, Debug, Default)]
pub struct ParkKeys {
    attr: Option<&'static str>,
    wanted: u64,
}

impl ParkKeys {
    /// Files parked copies under their values of `attr`.
    pub fn file_under(&mut self, attr: &'static str) {
        self.attr = Some(attr);
    }

    /// Has this sync judge again every parked copy filed under `value`.
    pub fn want(&mut self, value: &str) {
        self.wanted |= key_bit(value);
    }

    /// The attribute parked copies are filed under, if the extension
    /// parks at all.
    pub(crate) fn attr(&self) -> Option<&'static str> {
        self.attr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ItemId, ReplicaId, Version};

    fn item(dest: Value) -> Item {
        Item::builder(
            ItemId::new(ReplicaId::new(1), 1),
            Version::new(ReplicaId::new(1), 1),
        )
        .attr("dest", dest)
        .build()
    }

    fn passes(entry: u64, wanted: u64) -> bool {
        entry & wanted == 0
    }

    #[test]
    fn a_copy_is_judged_when_the_filter_or_the_policy_names_a_key() {
        let to_b = entry_of(&item(Value::from("b")), "dest");
        let none = ParkKeys::default();
        let only_a = wanted(&Filter::address("dest", "a"), "dest", &none);
        let a_or_b = wanted(&Filter::any_address("dest", ["a", "b"]), "dest", &none);
        assert!(passes(to_b, only_a) || key_bit("a") == key_bit("b"));
        assert!(!passes(to_b, a_or_b));
        assert!(
            !passes(UNPARKED, only_a),
            "an unparked copy is always judged"
        );

        let mut prophet = ParkKeys::default();
        prophet.file_under("dest");
        prophet.want("b");
        assert!(!passes(to_b, wanted(&Filter::None, "dest", &prophet)));
        let mut elsewhere = ParkKeys::default();
        elsewhere.file_under("src");
        elsewhere.want("b");
        assert!(
            passes(to_b, wanted(&Filter::None, "dest", &elsewhere)),
            "keys named under another attribute want nothing here"
        );
    }

    #[test]
    fn a_multicast_copy_is_filed_under_every_destination() {
        let both = entry_of(
            &item(Value::List(vec![Value::from("b"), Value::from("c")])),
            "dest",
        );
        let none = ParkKeys::default();
        for addr in ["b", "c"] {
            assert!(!passes(
                both,
                wanted(&Filter::address("dest", addr), "dest", &none)
            ));
        }
    }

    #[test]
    fn other_filter_shapes_want_every_parked_copy() {
        let none = ParkKeys::default();
        let keyless = entry_of(&item(Value::from(7i64)), "dest");
        assert_eq!(keyless, PARKED);
        for filter in [
            Filter::All,
            Filter::address("topic", "x"),
            Filter::address("dest", 7i64),
            Filter::Not(Box::new(Filter::address("dest", "a"))),
            Filter::And(vec![Filter::address("dest", "a")]),
            Filter::parse(r#"dest in ["a", 1]"#).unwrap(),
        ] {
            assert_eq!(wanted(&filter, "dest", &none), EVERY, "{filter}");
            assert!(!passes(keyless, EVERY));
        }
        assert_eq!(
            wanted(&Filter::None, "dest", &none),
            UNPARKED,
            "a filter that matches nothing wants nothing"
        );
        let parsed = Filter::parse(r#"dest = "a" or (dest in ["b", "c"])"#).unwrap();
        assert_eq!(
            wanted(&parsed, "dest", &none),
            UNPARKED | key_bit("a") | key_bit("b") | key_bit("c")
        );
    }
}
