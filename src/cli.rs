//! Argument handling for the `replidtn` command-line tool.
//!
//! A deliberately tiny `--flag value` parser (the CLI has no positional
//! arguments beyond the subcommand) that refuses any flag its subcommand
//! does not list, factored out of the binary so it can be unit-tested.

/// Parsed `--name value` flags.
#[derive(Debug)]
pub struct Flags<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Parses a flag list: `--name value` pairs, where a flag followed by
    /// another `--flag` (or the end of the list) is a bare boolean flag
    /// with an empty value (see [`Flags::has`]). `accepted` names every
    /// flag the subcommand knows, without the dashes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a bare value or for a flag
    /// outside `accepted`, naming it.
    pub fn parse(args: &'a [String], accepted: &[&str]) -> Result<Flags<'a>, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected --flag, found {flag:?}"));
            };
            if !accepted.contains(&name) {
                return Err(format!("unknown flag {flag}; try `replidtn help`"));
            }
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    iter.next().map(String::as_str).unwrap_or("")
                }
                _ => "",
            };
            pairs.push((name, value));
        }
        Ok(Flags { pairs })
    }

    /// Whether `name` was given at all (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| *n == name)
    }

    /// The last value given for `name`, if any (later flags override
    /// earlier ones).
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every value given for `name`, in order (for repeatable flags like
    /// `--connect`).
    pub fn get_all(&self, name: &str) -> Vec<&'a str> {
        self.pairs
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Parses `name` as a number, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value is missing or does
    /// not parse.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some("") => Err(format!("--{name} needs a value")),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["days", "seed", "k", "stats", "events"];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let a = args(&["--days", "5", "--seed", "42"]);
        let flags = Flags::parse(&a, KNOWN).unwrap();
        assert_eq!(flags.get("days"), Some("5"));
        assert_eq!(flags.get("seed"), Some("42"));
        assert_eq!(flags.get("missing"), None);
    }

    #[test]
    fn later_flags_override() {
        let a = args(&["--k", "1", "--k", "2"]);
        let flags = Flags::parse(&a, KNOWN).unwrap();
        assert_eq!(flags.get("k"), Some("2"));
        assert_eq!(flags.get_all("k"), vec!["1", "2"]);
    }

    #[test]
    fn rejects_bare_values() {
        let a = args(&["oops"]);
        assert!(Flags::parse(&a, KNOWN).unwrap_err().contains("--flag"));
    }

    #[test]
    fn rejects_unknown_flags() {
        let a = args(&["--days", "5", "--shard", "4"]);
        let error = Flags::parse(&a, KNOWN).unwrap_err();
        assert!(error.contains("--shard"), "{error}");
        assert!(error.contains("replidtn help"), "{error}");
    }

    #[test]
    fn bare_flags_are_booleans() {
        let a = args(&["--stats", "--events", "out.jsonl"]);
        let flags = Flags::parse(&a, KNOWN).unwrap();
        assert!(flags.has("stats"));
        assert_eq!(flags.get("stats"), Some(""));
        assert_eq!(flags.get("events"), Some("out.jsonl"));
        assert!(!flags.has("missing"));
        // A numeric flag left valueless is still an error.
        let a = args(&["--days"]);
        let flags = Flags::parse(&a, KNOWN).unwrap();
        assert!(flags
            .num("days", 1u64)
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn num_parses_with_default() {
        let a = args(&["--days", "5"]);
        let flags = Flags::parse(&a, KNOWN).unwrap();
        assert_eq!(flags.num("days", 1u64).unwrap(), 5);
        assert_eq!(flags.num("seed", 9u64).unwrap(), 9);
        let a = args(&["--days", "zebra"]);
        let flags = Flags::parse(&a, KNOWN).unwrap();
        assert!(flags.num("days", 1u64).unwrap_err().contains("days"));
    }

    #[test]
    fn empty_args_parse() {
        let flags = Flags::parse(&[], KNOWN).unwrap();
        assert_eq!(flags.get("anything"), None);
        assert!(flags.get_all("anything").is_empty());
    }
}
