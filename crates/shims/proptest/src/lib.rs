//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace vendors minimal API-compatible shims for its external
//! dependencies. This one implements the subset of proptest the test suites
//! use: the [`Strategy`] trait with `prop_map`/`prop_flat_map`/
//! `prop_recursive`, [`Just`], [`any`], integer-range and `[a-z]{m,n}`
//! string strategies, `collection::vec`, tuples, `prop_oneof!`, and the
//! `proptest!`/`prop_assert!` macros.
//!
//! Differences from real proptest, by design:
//! - **No shrinking.** A failing case reports its seed and inputs (via the
//!   panic message) but is not minimized.
//! - **Derandomized.** Each test function derives its RNG seed from its own
//!   name, so runs are reproducible without a `proptest-regressions` file.
//! - Unweighted `prop_oneof!` arms.
//!
//! Like the real crate, the default case count (64) yields to a
//! `PROPTEST_CASES` environment variable, so a CI leg can run a suite
//! deeper without editing it.

use std::marker::PhantomData;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Deterministic RNG (xoshiro256++ seeded via SplitMix64)
// ---------------------------------------------------------------------------

/// The random source threaded through strategy generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Builds a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut state = seed;
        TestRng {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform usize in `[lo, hi)`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range in strategy");
        lo + self.below((hi - lo) as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { source: self, f }
    }

    /// Generates a value, then generates from the strategy `f` derives
    /// from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { source: self, f }
    }

    /// Builds a recursive strategy: `self` generates leaves, and `f` wraps
    /// an inner strategy into one level of branching, applied up to `depth`
    /// times. The `_desired_size`/`_expected_branch` hints are accepted for
    /// API compatibility and ignored.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + Clone + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2 + 'static,
    {
        let mut strat = self.clone().boxed();
        for _ in 0..depth {
            let deeper = f(strat).boxed();
            strat = Union::new(vec![self.clone().boxed(), deeper]).boxed();
        }
        strat
    }

    /// Type-erases the strategy behind a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, clonable strategy handle.
pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between strategies of the same value type; the expansion
/// of `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics on an empty arm list.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let pick = rng.usize_in(0, self.arms.len());
        self.arms[pick].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: any::<T>(), integer ranges, regex-lite strings
// ---------------------------------------------------------------------------

/// Types with a canonical "whole domain" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values spanning a wide magnitude range.
        let mag = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let scale = [-1e9, -1.0, 1.0, 1e9][rng.usize_in(0, 4)];
        mag * scale
    }
}

/// The canonical strategy for `T`'s whole domain.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// See [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (u128::from(rng.next_u64()) * span) >> 64;
                (self.start as i128 + offset as i128) as $t
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (u128::from(rng.next_u64()) * span) >> 64;
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `&'static str` patterns act as string strategies, supporting the
/// `[a-z0-9]{m,n}` subset of proptest's regex syntax; characters outside a
/// class/quantifier construct are emitted literally.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // Parse one atom: a character class or a literal character.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"));
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                    assert!(lo <= hi, "bad class range in pattern {pattern:?}");
                    set.extend((lo..=hi).filter_map(char::from_u32));
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            i = close + 1;
            set
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        // Parse an optional {m,n} / {n} quantifier.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse::<usize>().expect("quantifier min"),
                    n.trim().parse::<usize>().expect("quantifier max"),
                ),
                None => {
                    let n = body.trim().parse::<usize>().expect("quantifier count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let count = if lo == hi {
            lo
        } else {
            rng.usize_in(lo, hi + 1)
        };
        for _ in 0..count {
            out.push(alphabet[rng.usize_in(0, alphabet.len())]);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tuple and collection strategies
// ---------------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Generates `Vec`s whose length is drawn from `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(
            size.start < size.end,
            "empty size range for collection::vec"
        );
        VecStrategy { element, size }
    }

    /// See [`vec`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.start, self.size.end);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// The default number of cases: `PROPTEST_CASES` from the environment if it
/// is set to a number, as in the real crate, else 64. A block that names
/// its own count with [`ProptestConfig::with_cases`] keeps it.
impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|cases| cases.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

#[doc(hidden)]
pub fn __run_cases<F: FnMut(&mut TestRng)>(name: &str, config: &ProptestConfig, mut case: F) {
    // FNV-1a over the test name: stable seeds without a regressions file.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        seed ^= u64::from(byte);
        seed = seed.wrapping_mul(0x100_0000_01b3);
    }
    for index in 0..config.cases {
        let mut rng = TestRng::seed_from_u64(seed ^ (u64::from(index) << 32));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(panic) = outcome {
            eprintln!(
                "proptest shim: {name} failed on case {index}/{} (seed {seed:#x})",
                config.cases
            );
            std::panic::resume_unwind(panic);
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __pt_config: $crate::ProptestConfig = $config;
            $crate::__run_cases(stringify!($name), &__pt_config, |__pt_rng| {
                $crate::__proptest_bind!{ __pt_rng, $($params)* }
                $body
            });
        }
        $crate::__proptest_fns!{ ($config) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $pat:pat in $strat:expr) => {
        let $pat = $crate::Strategy::generate(&($strat), $rng);
    };
    ($rng:ident, $pat:pat in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::Strategy::generate(&($strat), $rng);
        $crate::__proptest_bind!{ $rng, $($rest)* }
    };
}

/// Uniform choice among strategy arms with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts inside a property test (no shrinking in this shim, so it simply
/// forwards to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assertion inside a property test; forwards to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// The conventional glob import surface.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestRng, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples_stay_in_bounds((a, b) in (1u64..6, -3i64..4), n in 0usize..10) {
            prop_assert!((1..6).contains(&a));
            prop_assert!((-3..4).contains(&b));
            prop_assert!(n < 10);
        }

        #[test]
        fn string_patterns_match_shape(s in "[a-z]{2,5}") {
            prop_assert!((2..=5).contains(&s.len()), "len {}", s.len());
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }

        #[test]
        fn vec_lengths_respect_size(v in collection::vec(any::<u8>(), 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn config_form_parses(x in 0i32..100) {
            prop_assert!(x >= 0);
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = TestRng::seed_from_u64(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        let strat = any::<u8>()
            .prop_map(Tree::Leaf)
            .boxed()
            .prop_recursive(3, 16, 4, |inner| {
                collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let mut rng = TestRng::seed_from_u64(9);
        for _ in 0..100 {
            // Each prop_recursive level adds at most one Node layer.
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let strat = (2usize..6).prop_flat_map(|n| (Just(n), collection::vec(0..n, 1..4)));
        let mut rng = TestRng::seed_from_u64(11);
        for _ in 0..100 {
            let (n, xs) = strat.generate(&mut rng);
            assert!(xs.iter().all(|&x| x < n));
        }
    }
}
