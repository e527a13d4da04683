//! Thread-safe string interning for attribute names and string values.
//!
//! Items in a DTN deployment repeat the same few strings endlessly: every
//! message carries `"src"`/`"dest"`/`"sent_at"` attribute names, and the
//! hot Enron recipient and folder values recur across hundreds of messages
//! and thousands of relayed copies. An [`IStr`] stores each distinct string
//! once per process behind an `Arc<str>`; constructing one from text that
//! was seen before is a hash lookup plus a reference-count bump, and
//! cloning one never allocates.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// Interner capacity guard: decoding adversarial input must not let the
/// table grow without bound, so when it holds this many distinct strings
/// it drops every one that no `IStr` holds any more. The strings still
/// held stay, so equal live strings always share one allocation; if they
/// alone fill the table, the next sweep waits until it has doubled.
const INTERN_CAP: usize = 1 << 16;

struct Table {
    strings: HashSet<Arc<str>>,
    /// The size at which the next sweep runs.
    sweep_at: usize,
}

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(Table {
            strings: HashSet::new(),
            sweep_at: INTERN_CAP,
        })
    })
}

/// An interned, immutable string with the read API of `&str`.
///
/// Equality, ordering, hashing, `Display`, and `Debug` are all identical
/// to `String`'s (`Debug` included — filter fingerprints hash a `Debug`
/// render of string values, and interning must never change a verdict).
/// `Borrow<str>` + `Ord` agreement means a `BTreeMap<IStr, _>` is still
/// keyed and queried by `&str`.
///
/// Two live handles hold equal strings exactly when they share an
/// allocation ([`IStr::as_ptr`]): the table never forgets a string that
/// is still held, so a table may key strings by address.
#[derive(Clone)]
pub struct IStr(Arc<str>);

impl IStr {
    /// Interns `s`, returning the process-wide shared copy.
    pub fn new(s: &str) -> IStr {
        let mut table = table().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = table.strings.get(s) {
            return IStr(existing.clone());
        }
        if table.strings.len() >= table.sweep_at {
            // Only the table's own reference left: no handle can come
            // back for it, so dropping it cannot split a string in two.
            table.strings.retain(|held| Arc::strong_count(held) > 1);
            table.sweep_at = (2 * table.strings.len()).max(INTERN_CAP);
        }
        let arc: Arc<str> = Arc::from(s);
        table.strings.insert(arc.clone());
        IStr(arc)
    }

    /// The string contents.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// How many handles share this allocation.
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// The address of the shared allocation: while this handle lives, the
    /// address of every handle to an equal string and of no other.
    pub fn as_ptr(&self) -> *const u8 {
        self.0.as_ptr()
    }
}

impl Deref for IStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> IStr {
        IStr::new(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> IStr {
        IStr::new(&s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> IStr {
        IStr::new(s)
    }
}

impl From<IStr> for String {
    fn from(s: IStr) -> String {
        s.as_str().to_owned()
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &IStr) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for IStr {}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &IStr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &IStr) -> Ordering {
        // Interned twins share one allocation: equal without a byte read.
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `str`'s hash for Borrow<str>-keyed lookups.
        self.as_str().hash(state);
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Renders exactly like String's Debug (quoted + escaped); filter
        // fingerprints depend on this.
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = IStr::new("intern-test-dedup");
        let b = IStr::new("intern-test-dedup");
        assert!(Arc::ptr_eq(&a.0, &b.0), "same text, same allocation");
        assert!(a.share_count() >= 2);
    }

    #[test]
    fn debug_and_display_match_string() {
        let s = "quote\"and\\slash\n";
        let i = IStr::new(s);
        assert_eq!(format!("{i}"), s);
        assert_eq!(format!("{i:?}"), format!("{:?}", s.to_string()));
    }

    #[test]
    fn ordering_and_borrow_agree_with_str() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<IStr, i32> = BTreeMap::new();
        m.insert(IStr::new("b"), 2);
        m.insert(IStr::new("a"), 1);
        assert_eq!(m.get("a"), Some(&1), "lookup by &str");
        let keys: Vec<&str> = m.keys().map(IStr::as_str).collect();
        assert_eq!(keys, ["a", "b"], "str ordering");
    }

    #[test]
    fn a_sweep_keeps_every_held_string_and_its_address() {
        let keep = IStr::new("intern-test-survivor");
        // Enough fresh strings, all dropped at once, to run a sweep.
        for i in 0..INTERN_CAP {
            IStr::new(&format!("intern-test-garbage-{i}"));
        }
        let again = IStr::new("intern-test-survivor");
        assert_eq!(
            keep.as_ptr(),
            again.as_ptr(),
            "one allocation per live string"
        );
        let table = table().lock().unwrap();
        assert!(table.strings.len() < INTERN_CAP, "the garbage went");
    }
}
