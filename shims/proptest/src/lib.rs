//! A hermetic, in-tree stand-in for the `proptest` crate.
//!
//! The container this repository builds in has no network access and no
//! cargo registry cache, so the real `proptest` cannot be fetched. This
//! shim implements the subset of the API the workspace's tests use —
//! deterministic pseudo-random generation, `Strategy` combinators, the
//! `proptest!` macro, `prop_oneof!`, `prop::sample::select`,
//! `prop::collection::vec`, simple `[class]{lo,hi}` string patterns and
//! the `prop_assert*` macros — with a fixed per-test seed so runs are
//! reproducible. It performs no shrinking: a failing case panics with
//! the case index and the generated inputs' `Debug` rendering when
//! available.

use std::fmt;
use std::ops::Range;

// ---------------------------------------------------------------------
// Deterministic RNG (splitmix64).
// ---------------------------------------------------------------------

/// Deterministic pseudo-random generator used by all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Next 64 random bits (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw from `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant for test-input generation.
        self.next_u64() % bound
    }
}

// ---------------------------------------------------------------------
// Strategy trait and combinators.
// ---------------------------------------------------------------------

/// A generator of test values.
///
/// Object-safe: boxed strategies (`prop_oneof!`) generate through the
/// same entry point.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `f` (bounded retries).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, whence, f }
    }

    /// Boxes the strategy (type erasure for `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter gave up after 1000 rejections: {}", self.whence);
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over `arms` (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

// ---------------------------------------------------------------------
// Primitive strategies: any::<T>(), ranges, string classes, tuples.
// ---------------------------------------------------------------------

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The canonical strategy for `T` (`any::<u32>()` etc.).
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// Returns the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `"[class]{lo,hi}"` string patterns (the only regex form the
/// workspace's tests use). The class supports `\n`/`\t`/`\\` escapes,
/// `a-z` ranges and a literal leading `-`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, lo, hi) = parse_pattern(self);
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

fn parse_pattern(pat: &str) -> (Vec<char>, usize, usize) {
    let rest = pat
        .strip_prefix('[')
        .unwrap_or_else(|| panic!("unsupported string pattern (want [class]{{lo,hi}}): {pat:?}"));
    let (class, reps) = rest
        .split_once(']')
        .unwrap_or_else(|| panic!("unterminated char class in pattern {pat:?}"));
    let mut alphabet = Vec::new();
    let mut chars = class.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => alphabet.push('\n'),
                Some('t') => alphabet.push('\t'),
                Some(other) => alphabet.push(other),
                None => panic!("dangling escape in pattern {pat:?}"),
            },
            _ => {
                if chars.peek() == Some(&'-') {
                    let mut ahead = chars.clone();
                    ahead.next(); // the '-'
                    match ahead.next() {
                        Some(end) => {
                            chars = ahead;
                            for x in c as u32..=end as u32 {
                                if let Some(ch) = char::from_u32(x) {
                                    alphabet.push(ch);
                                }
                            }
                        }
                        None => alphabet.push(c), // '-' is last: literal
                    }
                } else {
                    alphabet.push(c);
                }
            }
        }
    }
    assert!(!alphabet.is_empty(), "empty char class in pattern {pat:?}");
    let reps = reps
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("missing {{lo,hi}} repetition in pattern {pat:?}"));
    let (lo, hi) = reps
        .split_once(',')
        .unwrap_or_else(|| panic!("want lo,hi in pattern {pat:?}"));
    (
        alphabet,
        lo.trim().parse().expect("pattern lo"),
        hi.trim().parse().expect("pattern hi"),
    )
}

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

// ---------------------------------------------------------------------
// prop:: modules (sample, collection).
// ---------------------------------------------------------------------

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice from a fixed list.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    /// Uniformly selects one of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select of an empty list");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Lengths accepted by [`vec()`]: an exact `usize` or a (possibly
    /// inclusive) `usize` range.
    pub trait IntoSizeRange {
        /// Draws a length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec length range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            let (start, end) = (*self.start(), *self.end());
            assert!(start <= end, "empty vec length range");
            start + rng.below((end - start + 1) as u64) as usize
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Vectors of `element` values with a drawn length.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The `prop::` namespace the prelude exposes.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

// ---------------------------------------------------------------------
// Runner, config, errors, macros.
// ---------------------------------------------------------------------

/// Per-`proptest!` configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// A failed `prop_assert*` inside a case body.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure with a rendered message.
    pub fn fail(message: String) -> TestCaseError {
        TestCaseError { message }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Drives the cases of one property test.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
}

impl TestRunner {
    /// A runner seeded deterministically from the test name.
    pub fn new(config: ProptestConfig, name: &str) -> TestRunner {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x100_0000_01b3);
        }
        TestRunner { config, rng: TestRng::new(seed) }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The shared RNG.
    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
        TestRunner,
    };
}

/// Declares property tests: `fn name(x in strategy, ...) { body }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`] — not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::new(config, stringify!($name));
            for case in 0..runner.cases() {
                $(let $pat = $crate::Strategy::generate(&($strat), runner.rng());)*
                // The immediately-called closure gives the body its own
                // `?`-able scope, like real proptest's per-case fn.
                #[allow(clippy::redundant_closure_call)]
                let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                })();
                if let Err(e) = outcome {
                    panic!("property `{}` failed at case {}: {}", stringify!($name), case, e);
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Uniformly picks one of several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts inside a property body (records the case on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}", stringify!($cond), format_args!($($fmt)+)
            )));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`", l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`: {}", l, r, format_args!($($fmt)+)
            )));
        }
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`", l, r
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let v = (3u16..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let s = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn string_pattern_respects_class_and_length() {
        let mut rng = TestRng::new(2);
        for _ in 0..200 {
            let s = "[a-c\\n]{1,4}".generate(&mut rng);
            assert!((1..=4).contains(&s.chars().count()));
            assert!(s.chars().all(|c| matches!(c, 'a'..='c' | '\n')));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_smoke(x in 0u32..10, v in prop::collection::vec(any::<bool>(), 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 4, "len was {}", v.len());
        }
    }

    static BODY_RUNS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(57))]

        fn body_runs_once_per_case(_x in any::<u64>()) {
            BODY_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn configured_case_count_is_honoured() {
        BODY_RUNS.store(0, std::sync::atomic::Ordering::Relaxed);
        body_runs_once_per_case();
        assert_eq!(BODY_RUNS.load(std::sync::atomic::Ordering::Relaxed), 57);
    }
}
