//! Content-based filters: query-like predicates over item attributes.
//!
//! A replica's filter defines which items it stores and receives during
//! synchronization — the mechanism that gives peer-to-peer *filtered*
//! replication its selective delivery (paper §II-B). In the DTN messaging
//! application each host's filter selects the messages addressed to it
//! (and, for the multi-address strategies of §IV-B, to a chosen set of
//! other hosts). Filters are evaluated, never compared with each other:
//! nothing here builds filter hierarchies.

mod parser;

use std::fmt;

use crate::error::PfrError;
use crate::item::Item;
use crate::value::Value;

/// Comparison operators usable in filter predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A content-based filter: a predicate expression over item attributes.
///
/// Filters are serializable values exchanged during synchronization, have a
/// canonical text form (via `Display`) and a parser
/// ([`Filter::parse`]) for the same small query language:
///
/// ```text
/// dest = "bus-3" or dest in ["bus-4", "bus-5"] and not deleted = true
/// ```
///
/// Missing attributes make comparison predicates false (never an error),
/// matching the usual semantics of content-based publish/subscribe filters.
///
/// # Examples
///
/// ```
/// use pfr::{Filter, Item, ItemId, ReplicaId, Version};
///
/// let filter = Filter::parse(r#"dest = "a" or dest = "b""#)?;
/// let item = Item::builder(
///     ItemId::new(ReplicaId::new(1), 1),
///     Version::new(ReplicaId::new(1), 1),
/// )
/// .attr("dest", "a")
/// .build();
/// assert!(filter.matches(&item));
/// # Ok::<(), pfr::PfrError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Filter {
    /// Matches every item (epidemic-style full replication).
    All,
    /// Matches no item.
    None,
    /// `attr op value` comparison. Equality uses
    /// [`Value::semantic_eq`]; ordered comparisons are false across types.
    Cmp {
        /// Attribute name.
        attr: String,
        /// Operator.
        op: CmpOp,
        /// Right-hand-side constant.
        value: Value,
    },
    /// `attr in [v1, v2, ...]` — the attribute equals one of the listed
    /// values.
    In {
        /// Attribute name.
        attr: String,
        /// Allowed values.
        values: Vec<Value>,
    },
    /// `attr contains v` — the attribute is a list containing `v` (or a
    /// scalar equal to `v`, so single- and multi-destination addresses can
    /// be filtered uniformly).
    Contains {
        /// Attribute name.
        attr: String,
        /// Element searched for.
        value: Value,
    },
    /// `exists attr` — the attribute is present.
    Exists(String),
    /// Logical negation.
    Not(Box<Filter>),
    /// Logical conjunction (true when empty).
    And(Vec<Filter>),
    /// Logical disjunction (false when empty).
    Or(Vec<Filter>),
}

impl Filter {
    /// Parses a filter from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`PfrError::FilterParse`] with the byte offset of the first
    /// offending token.
    pub fn parse(text: &str) -> Result<Filter, PfrError> {
        parser::parse(text)
    }

    /// Builds the common "address selector" filter: matches items whose
    /// `attr` equals `addr` or is a list containing `addr`.
    pub fn address(attr: impl Into<String>, addr: impl Into<Value>) -> Filter {
        Filter::Contains {
            attr: attr.into(),
            value: addr.into(),
        }
    }

    /// Builds a disjunction of [`Filter::address`] selectors over several
    /// addresses — the "multi-address filter" of paper §IV-B.
    pub fn any_address<A, I>(attr: &str, addrs: I) -> Filter
    where
        A: Into<Value>,
        I: IntoIterator<Item = A>,
    {
        let arms: Vec<Filter> = addrs
            .into_iter()
            .map(|a| Filter::address(attr, a))
            .collect();
        match arms.len() {
            0 => Filter::None,
            1 => arms.into_iter().next().expect("len checked"),
            _ => Filter::Or(arms),
        }
    }

    /// Evaluates the filter against an item's versioned attributes.
    pub fn matches(&self, item: &Item) -> bool {
        self.matches_attrs(item.attrs())
    }

    /// A 64-bit fingerprint of the filter's canonical text form (its
    /// [`std::fmt::Display`] rendering, which round-trips through the
    /// parser). Equal fingerprints identify semantically equal filters
    /// up to hash collisions; sync uses this to key per-filter match
    /// memos without holding filter clones.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        self.to_string().hash(&mut hasher);
        hasher.finish()
    }

    /// Evaluates the filter against a bare attribute map.
    pub fn matches_attrs(&self, attrs: &crate::AttributeMap) -> bool {
        match self {
            Filter::All => true,
            Filter::None => false,
            Filter::Cmp { attr, op, value } => match attrs.get(attr) {
                None => false,
                Some(actual) => match op {
                    CmpOp::Eq => actual.semantic_eq(value),
                    CmpOp::Ne => !actual.semantic_eq(value),
                    ordered => match actual.partial_cmp_same_type(value) {
                        None => false,
                        Some(ord) => match ordered {
                            CmpOp::Lt => ord == std::cmp::Ordering::Less,
                            CmpOp::Le => ord != std::cmp::Ordering::Greater,
                            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                            CmpOp::Ge => ord != std::cmp::Ordering::Less,
                            CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
                        },
                    },
                },
            },
            Filter::In { attr, values } => attrs
                .get(attr)
                .is_some_and(|actual| values.iter().any(|v| actual.semantic_eq(v))),
            Filter::Contains { attr, value } => match attrs.get(attr) {
                None => false,
                Some(Value::List(items)) => items.iter().any(|v| v.semantic_eq(value)),
                Some(scalar) => scalar.semantic_eq(value),
            },
            Filter::Exists(attr) => attrs.contains(attr),
            Filter::Not(inner) => !inner.matches_attrs(attrs),
            Filter::And(arms) => arms.iter().all(|f| f.matches_attrs(attrs)),
            Filter::Or(arms) => arms.iter().any(|f| f.matches_attrs(attrs)),
        }
    }

    /// Returns the disjunction of `self` and `other`, flattening nested
    /// `Or`s — used to widen a host's filter with extra addresses.
    pub fn or(self, other: Filter) -> Filter {
        match (self, other) {
            (Filter::Or(mut a), Filter::Or(b)) => {
                a.extend(b);
                Filter::Or(a)
            }
            (Filter::Or(mut a), b) => {
                a.push(b);
                Filter::Or(a)
            }
            (a, Filter::Or(mut b)) => {
                b.insert(0, a);
                Filter::Or(b)
            }
            (a, b) => Filter::Or(vec![a, b]),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::All => write!(f, "all"),
            Filter::None => write!(f, "none"),
            Filter::Cmp { attr, op, value } => write!(f, "{attr} {} {value}", op.symbol()),
            Filter::In { attr, values } => {
                write!(f, "{attr} in [")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Filter::Contains { attr, value } => write!(f, "{attr} contains {value}"),
            Filter::Exists(attr) => write!(f, "exists {attr}"),
            Filter::Not(inner) => write!(f, "not ({inner})"),
            Filter::And(arms) => write_joined(f, arms, "and"),
            Filter::Or(arms) => write_joined(f, arms, "or"),
        }
    }
}

fn write_joined(f: &mut fmt::Formatter<'_>, arms: &[Filter], word: &str) -> fmt::Result {
    if arms.is_empty() {
        // Canonical empty forms parse back to the right identity element.
        return match word {
            "and" => write!(f, "all"),
            _ => write!(f, "none"),
        };
    }
    for (i, arm) in arms.iter().enumerate() {
        if i > 0 {
            write!(f, " {word} ")?;
        }
        write!(f, "({arm})")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ItemId, ReplicaId, Version};

    fn item_with(attrs: &[(&str, Value)]) -> Item {
        let mut b = Item::builder(
            ItemId::new(ReplicaId::new(1), 1),
            Version::new(ReplicaId::new(1), 1),
        );
        for (k, v) in attrs {
            b = b.attr(*k, v.clone());
        }
        b.build()
    }

    #[test]
    fn all_and_none() {
        let item = item_with(&[]);
        assert!(Filter::All.matches(&item));
        assert!(!Filter::None.matches(&item));
    }

    #[test]
    fn eq_and_ne() {
        let item = item_with(&[("dest", Value::from("a"))]);
        let eq = Filter::Cmp {
            attr: "dest".into(),
            op: CmpOp::Eq,
            value: Value::from("a"),
        };
        assert!(eq.matches(&item));
        let ne = Filter::Cmp {
            attr: "dest".into(),
            op: CmpOp::Ne,
            value: Value::from("b"),
        };
        assert!(ne.matches(&item));
    }

    #[test]
    fn missing_attribute_is_false_not_error() {
        let item = item_with(&[]);
        let f = Filter::Cmp {
            attr: "missing".into(),
            op: CmpOp::Eq,
            value: Value::from(1i64),
        };
        assert!(!f.matches(&item));
        // Even Ne is false when the attribute is missing.
        let f = Filter::Cmp {
            attr: "missing".into(),
            op: CmpOp::Ne,
            value: Value::from(1i64),
        };
        assert!(!f.matches(&item));
    }

    #[test]
    fn ordered_comparisons() {
        let item = item_with(&[("size", Value::from(10i64))]);
        let mk = |op, v: i64| Filter::Cmp {
            attr: "size".into(),
            op,
            value: Value::from(v),
        };
        assert!(mk(CmpOp::Lt, 11).matches(&item));
        assert!(mk(CmpOp::Le, 10).matches(&item));
        assert!(mk(CmpOp::Gt, 9).matches(&item));
        assert!(mk(CmpOp::Ge, 10).matches(&item));
        assert!(!mk(CmpOp::Lt, 10).matches(&item));
        // Cross-type ordered comparison is false.
        let f = Filter::Cmp {
            attr: "size".into(),
            op: CmpOp::Lt,
            value: Value::from("x"),
        };
        assert!(!f.matches(&item));
    }

    #[test]
    fn in_predicate() {
        let item = item_with(&[("dest", Value::from("b"))]);
        let f = Filter::In {
            attr: "dest".into(),
            values: vec![Value::from("a"), Value::from("b")],
        };
        assert!(f.matches(&item));
        let f = Filter::In {
            attr: "dest".into(),
            values: vec![],
        };
        assert!(!f.matches(&item));
    }

    #[test]
    fn contains_handles_lists_and_scalars() {
        let multi = item_with(&[(
            "dest",
            Value::List(vec![Value::from("a"), Value::from("b")]),
        )]);
        let single = item_with(&[("dest", Value::from("a"))]);
        let f = Filter::address("dest", "a");
        assert!(f.matches(&multi));
        assert!(f.matches(&single));
        let g = Filter::address("dest", "z");
        assert!(!g.matches(&multi));
        assert!(!g.matches(&single));
    }

    #[test]
    fn any_address_builds_identity_cases() {
        assert_eq!(
            Filter::any_address("dest", Vec::<&str>::new()),
            Filter::None
        );
        let one = Filter::any_address("dest", ["a"]);
        assert!(matches!(one, Filter::Contains { .. }));
        let many = Filter::any_address("dest", ["a", "b"]);
        let item = item_with(&[("dest", Value::from("b"))]);
        assert!(many.matches(&item));
    }

    #[test]
    fn boolean_connectives() {
        let item = item_with(&[("a", Value::from(1i64)), ("b", Value::from(2i64))]);
        let a1 = Filter::Cmp {
            attr: "a".into(),
            op: CmpOp::Eq,
            value: Value::from(1i64),
        };
        let b9 = Filter::Cmp {
            attr: "b".into(),
            op: CmpOp::Eq,
            value: Value::from(9i64),
        };
        assert!(Filter::And(vec![a1.clone()]).matches(&item));
        assert!(!Filter::And(vec![a1.clone(), b9.clone()]).matches(&item));
        assert!(Filter::Or(vec![a1.clone(), b9.clone()]).matches(&item));
        assert!(Filter::Not(Box::new(b9)).matches(&item));
        assert!(Filter::And(vec![]).matches(&item), "empty and is true");
        assert!(!Filter::Or(vec![]).matches(&item), "empty or is false");
    }

    #[test]
    fn exists_predicate() {
        let item = item_with(&[("x", Value::from(true))]);
        assert!(Filter::Exists("x".into()).matches(&item));
        assert!(!Filter::Exists("y".into()).matches(&item));
    }

    #[test]
    fn or_combinator_flattens() {
        let a = Filter::address("dest", "a");
        let b = Filter::address("dest", "b");
        let c = Filter::address("dest", "c");
        let combined = a.or(b).or(c);
        match &combined {
            Filter::Or(arms) => assert_eq!(arms.len(), 3),
            other => panic!("expected flattened Or, got {other:?}"),
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        let filters = vec![
            Filter::All,
            Filter::None,
            Filter::address("dest", "bus-1"),
            Filter::any_address("dest", ["a", "b", "c"]),
            Filter::And(vec![
                Filter::Exists("x".into()),
                Filter::Not(Box::new(Filter::Cmp {
                    attr: "n".into(),
                    op: CmpOp::Ge,
                    value: Value::from(3i64),
                })),
            ]),
            Filter::In {
                attr: "t".into(),
                values: vec![Value::from("a"), Value::from(1i64), Value::from(true)],
            },
        ];
        for f in filters {
            let text = f.to_string();
            let parsed =
                Filter::parse(&text).unwrap_or_else(|e| panic!("failed to parse {text:?}: {e}"));
            assert_eq!(parsed, f, "round trip of {text:?}");
        }
    }
}
