//! Attribute values for content-based filtering.

use std::fmt;

use crate::intern::IStr;

/// A dynamically-typed attribute value attached to a replicated item.
///
/// Filters ([`Filter`](crate::Filter)) evaluate predicates over these
/// values; DTN routing policies additionally use them to carry per-message
/// routing metadata such as TTLs, copy counts, and hop lists.
///
/// `Value` implements `Ord` with a deterministic cross-type ordering so it
/// can be used in sorted containers; comparisons *within* filters are only
/// meaningful between values of the same type (see
/// [`Value::partial_cmp_same_type`]).
///
/// # Examples
///
/// ```
/// use pfr::Value;
///
/// let v = Value::from("bus-12");
/// assert_eq!(v.as_str(), Some("bus-12"));
/// assert_eq!(Value::from(3i64).as_i64(), Some(3));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// UTF-8 text, interned: the same string stored by many items (hot
    /// recipient addresses, folder names) shares one allocation.
    Str(IStr),
    /// Signed 64-bit integer.
    Int(i64),
    /// IEEE-754 double. `NaN` is rejected by [`AttributeMap`](crate::AttributeMap).
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// Opaque binary payload.
    Bytes(Vec<u8>),
    /// Ordered list of values (e.g. a multicast destination set or a
    /// MaxProp hop list).
    List(Vec<Value>),
}

impl Value {
    /// Returns the contained string, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the contained integer, if this is a [`Value::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained float, if this is a [`Value::Float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the contained boolean, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the contained bytes, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the contained list, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "str",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
        }
    }

    /// Compares two values of the same type; returns `None` when the types
    /// differ or the values are incomparable (e.g. a `NaN` float).
    ///
    /// Filters use this for `<`, `<=`, `>`, `>=` predicates, which are
    /// defined to be *false* across types rather than erroring, matching
    /// the query semantics of content-based filter systems.
    pub fn partial_cmp_same_type(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Bytes(a), Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Tests semantic equality: numeric values compare across `Int`/`Float`,
    /// everything else requires matching types.
    pub fn semantic_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (List(a), List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.semantic_eq(y))
            }
            // Interned strings are usually the same allocation: `IStr`
            // equality settles that on the pointers.
            (Str(a), Str(b)) => a == b,
            (a, b) => a
                .partial_cmp_same_type(b)
                .is_some_and(|o| o == std::cmp::Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(IStr::new(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(IStr::new(&s))
    }
}

impl From<IStr> for Value {
    fn from(s: IStr) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}

impl From<Vec<Value>> for Value {
    fn from(l: Vec<Value>) -> Self {
        Value::List(l)
    }
}

impl<'a> FromIterator<&'a str> for Value {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        Value::List(iter.into_iter().map(Value::from).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn accessors_return_matching_variants_only() {
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from("x").as_i64(), None);
        assert_eq!(Value::from(5i64).as_i64(), Some(5));
        assert_eq!(Value::from(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
        let l = Value::List(vec![Value::from(1i64)]);
        assert_eq!(l.as_list().unwrap().len(), 1);
    }

    #[test]
    fn same_type_comparison() {
        assert_eq!(
            Value::from("a").partial_cmp_same_type(&Value::from("b")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from(2i64).partial_cmp_same_type(&Value::from(2i64)),
            Some(Ordering::Equal)
        );
        // Cross numeric types compare numerically.
        assert_eq!(
            Value::from(2i64).partial_cmp_same_type(&Value::from(2.5)),
            Some(Ordering::Less)
        );
        // Cross non-numeric types are incomparable.
        assert_eq!(
            Value::from("a").partial_cmp_same_type(&Value::from(1i64)),
            None
        );
        // NaN is incomparable even to itself.
        assert_eq!(
            Value::from(f64::NAN).partial_cmp_same_type(&Value::from(f64::NAN)),
            None
        );
    }

    #[test]
    fn semantic_eq_handles_numbers_and_lists() {
        assert!(Value::from(2i64).semantic_eq(&Value::from(2.0)));
        assert!(!Value::from(2i64).semantic_eq(&Value::from("2")));
        let a = Value::List(vec![Value::from(1i64), Value::from("x")]);
        let b = Value::List(vec![Value::from(1.0), Value::from("x")]);
        assert!(a.semantic_eq(&b));
        let c = Value::List(vec![Value::from(1i64)]);
        assert!(!a.semantic_eq(&c));
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::from(""),
            Value::from(0i64),
            Value::from(0.0),
            Value::from(false),
            Value::from(Vec::<u8>::new()),
            Value::List(vec![]),
        ] {
            assert!(!format!("{v}").is_empty());
        }
        assert_eq!(format!("{}", Value::from(vec![0xabu8, 0x01])), "0xab01");
        assert_eq!(
            format!(
                "{}",
                Value::List(vec![Value::from(1i64), Value::from(2i64)])
            ),
            "[1, 2]"
        );
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::from("x").type_name(), "str");
        assert_eq!(Value::from(1i64).type_name(), "int");
        assert_eq!(Value::List(vec![]).type_name(), "list");
    }

    #[test]
    fn from_iterator_of_strs_builds_list() {
        let v: Value = ["a", "b"].into_iter().collect();
        assert_eq!(v.as_list().unwrap().len(), 2);
    }
}
