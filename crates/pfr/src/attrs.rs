//! Attribute maps: the queryable metadata attached to every item.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::PfrError;
use crate::intern::IStr;
use crate::value::Value;

/// An ordered map of attribute names to [`Value`]s.
///
/// Items carry a handful of attributes each (a message: three), so the map
/// is a name-sorted array: one allocation per map, and a lookup is a scan
/// that rejects most keys on their length alone.
///
/// Every replicated item carries two attribute maps: the *versioned*
/// attributes written by the application (changing them creates a new item
/// version that replicates everywhere), and the *transient* attributes used
/// by DTN routing policies (TTL, copy counts, hop lists), which travel with
/// each transmitted copy but may be mutated locally without creating a new
/// version — the "host-specific metadata" of the paper's §V-A.
///
/// # Examples
///
/// ```
/// use pfr::{AttributeMap, Value};
///
/// let mut attrs = AttributeMap::new();
/// attrs.set("dest", "bus-7");
/// attrs.set("size", 140i64);
/// assert_eq!(attrs.get("dest"), Some(&Value::from("bus-7")));
/// assert_eq!(attrs.len(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributeMap {
    /// Strictly ascending by name.
    entries: Vec<(IStr, Value)>,
}

impl AttributeMap {
    /// Creates an empty attribute map.
    pub fn new() -> Self {
        AttributeMap::default()
    }

    /// Sets an attribute, replacing any previous value.
    ///
    /// `NaN` floats are silently normalized away by [`AttributeMap::try_set`];
    /// this convenience method panics on them instead.
    ///
    /// # Panics
    ///
    /// Panics if `value` is a `NaN` float (directly or inside a list), since
    /// `NaN` would make filter evaluation non-deterministic.
    pub fn set(&mut self, name: impl Into<IStr>, value: impl Into<Value>) -> &mut Self {
        self.try_set(name, value)
            .expect("attribute value must not contain NaN");
        self
    }

    /// Sets an attribute, rejecting values that would break filter
    /// determinism.
    ///
    /// # Errors
    ///
    /// Returns [`PfrError::InvalidAttribute`] if the value is or contains a
    /// `NaN` float.
    pub fn try_set(
        &mut self,
        name: impl Into<IStr>,
        value: impl Into<Value>,
    ) -> Result<&mut Self, PfrError> {
        let name = name.into();
        let value = value.into();
        check_value(&name, &value)?;
        match self.position(&name) {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => self.entries.insert(at, (name, value)),
        }
        Ok(self)
    }

    /// Builds a map from decoded `(name, value)` pairs, a later pair
    /// replacing an earlier one of the same name. An encoder writes names
    /// ascending and the pairs are taken as the array they are; anything
    /// else is sorted first, so hostile input costs O(n log n), not a
    /// shifting insert per pair.
    ///
    /// # Errors
    ///
    /// As [`AttributeMap::try_set`].
    pub(crate) fn from_pairs(mut entries: Vec<(IStr, Value)>) -> Result<Self, PfrError> {
        for (name, value) in &entries {
            check_value(name, value)?;
        }
        if !entries.is_sorted_by(|(a, _), (b, _)| a < b) {
            // Stable: among equal names the last pair stays last, and
            // `dedup_by` hands it the survivor's slot.
            entries.sort_by(|(a, _), (b, _)| a.cmp(b));
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        Ok(AttributeMap { entries })
    }

    /// Where `name` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, name: &str) -> Result<usize, usize> {
        // Appending in name order — how every decoder and most builders
        // fill a map — never searches.
        match self.entries.last() {
            Some((last, _)) if last.as_str() < name => Err(self.entries.len()),
            _ => self
                .entries
                .binary_search_by(|(key, _)| key.as_str().cmp(name)),
        }
    }

    /// Looks up an attribute by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        // A key's length sits in its handle: only a key of the right
        // length has its allocation read.
        self.entries
            .iter()
            .find(|(key, _)| key.len() == name.len() && key.as_str() == name)
            .map(|(_, value)| value)
    }

    /// Removes an attribute, returning its previous value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let at = self.position(name).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// Returns `true` if the attribute is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Convenience: the attribute as a string, if present and a string.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Convenience: the attribute as an integer, if present and an integer.
    pub fn get_i64(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_i64)
    }

    /// Convenience: the attribute as a float, accepting integer values too.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }
}

fn check_value(name: &str, value: &Value) -> Result<(), PfrError> {
    if contains_nan(value) {
        return Err(PfrError::InvalidAttribute {
            name: name.to_owned(),
            reason: "NaN floats are not allowed in attributes".into(),
        });
    }
    Ok(())
}

fn contains_nan(value: &Value) -> bool {
    match value {
        Value::Float(f) => f.is_nan(),
        Value::List(l) => l.iter().any(contains_nan),
        _ => false,
    }
}

impl fmt::Debug for AttributeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (k, v) in &self.entries {
            m.entry(k, &format_args!("{v}"));
        }
        m.finish()
    }
}

impl<K: Into<IStr>, V: Into<Value>> FromIterator<(K, V)> for AttributeMap {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut attrs = AttributeMap::new();
        for (k, v) in iter {
            attrs.set(k, v);
        }
        attrs
    }
}

impl<K: Into<IStr>, V: Into<Value>> Extend<(K, V)> for AttributeMap {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.set(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut a = AttributeMap::new();
        assert!(a.is_empty());
        a.set("k", 1i64);
        assert!(a.contains("k"));
        assert_eq!(a.get_i64("k"), Some(1));
        assert_eq!(a.remove("k"), Some(Value::Int(1)));
        assert!(!a.contains("k"));
    }

    #[test]
    fn set_replaces_previous_value() {
        let mut a = AttributeMap::new();
        a.set("k", 1i64);
        a.set("k", "two");
        assert_eq!(a.get_str("k"), Some("two"));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn nan_rejected() {
        let mut a = AttributeMap::new();
        let err = a.try_set("x", f64::NAN).unwrap_err();
        assert!(matches!(err, PfrError::InvalidAttribute { .. }));
        let err = a
            .try_set("x", Value::List(vec![Value::Float(f64::NAN)]))
            .unwrap_err();
        assert!(err.to_string().contains("NaN"));
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn set_panics_on_nan() {
        AttributeMap::new().set("x", f64::NAN);
    }

    #[test]
    fn typed_getters() {
        let mut a = AttributeMap::new();
        a.set("s", "hello").set("i", 3i64).set("f", 2.5);
        assert_eq!(a.get_str("s"), Some("hello"));
        assert_eq!(a.get_str("i"), None);
        assert_eq!(a.get_i64("i"), Some(3));
        assert_eq!(a.get_f64("f"), Some(2.5));
        // get_f64 widens integers.
        assert_eq!(a.get_f64("i"), Some(3.0));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut a: AttributeMap = [("a", 1i64), ("b", 2i64)].into_iter().collect();
        a.extend([("c", 3i64)]);
        assert_eq!(a.len(), 3);
        let names: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b", "c"], "iteration is name-ordered");
    }

    /// One step of the model test: names come from a pool of six, so
    /// replacements, removals of present names and misses all occur.
    #[derive(Clone, Debug)]
    enum Op {
        Set(u8, i64),
        Remove(u8),
    }

    fn name(n: u8) -> String {
        // Lengths differ and prefixes repeat: "k", "k1", "k11", ...
        format!("k{}", "1".repeat(usize::from(n % 6)))
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (any::<u8>(), any::<i64>()).prop_map(|(n, v)| Op::Set(n, v)),
                any::<u8>().prop_map(Op::Remove),
            ]
        }

        proptest! {
            /// The array map is the tree map it replaced: same answers to
            /// set / get / remove / contains, same name order out of
            /// `iter` (so the same wire, snapshot and WAL bytes), and
            /// `from_pairs` agrees with it too.
            #[test]
            fn array_map_matches_a_btreemap(ops in proptest::collection::vec(arb_op(), 0..40)) {
                let mut map = AttributeMap::new();
                let mut model: BTreeMap<String, Value> = BTreeMap::new();
                let mut pairs = Vec::new();
                for op in ops {
                    match op {
                        Op::Set(n, v) => {
                            map.set(name(n), v);
                            model.insert(name(n), Value::Int(v));
                            pairs.push((IStr::new(&name(n)), Value::Int(v)));
                        }
                        Op::Remove(n) => {
                            prop_assert_eq!(map.remove(&name(n)), model.remove(&name(n)));
                            pairs.retain(|(k, _)| k.as_str() != name(n));
                        }
                    }
                    prop_assert_eq!(map.len(), model.len());
                    for n in 0..6 {
                        prop_assert_eq!(map.get(&name(n)), model.get(&name(n)));
                        prop_assert_eq!(map.contains(&name(n)), model.contains_key(&name(n)));
                    }
                }
                let listed: Vec<(&str, &Value)> = map.iter().collect();
                let expected: Vec<(&str, &Value)> =
                    model.iter().map(|(k, v)| (k.as_str(), v)).collect();
                prop_assert_eq!(&listed, &expected);
                // Decoded in arrival order, repeats and all.
                prop_assert_eq!(&AttributeMap::from_pairs(pairs).unwrap(), &map);
            }
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let a: AttributeMap = [("a", 1i64)].into_iter().collect();
        assert!(format!("{a:?}").contains('a'));
        assert!(!format!("{:?}", AttributeMap::new()).is_empty());
    }
}
