//! Offline stand-in for the `proptest` crate.
//!
//! Provides deterministic, generation-only property testing: the
//! [`strategy::Strategy`] trait with `prop_map`/`boxed`, `any::<T>()` for
//! integer/bool types, range and regex-subset string strategies,
//! collection/option combinators, and the `proptest!`/`prop_assert*`/
//! `prop_oneof!` macros. Failing cases are reported via panic with the
//! case's seed; there is no shrinking. Case counts come from
//! [`test_runner::ProptestConfig`] (default 64, overridable per-block via
//! `with_cases` or globally via the `PROPTEST_CASES` env var).

#![forbid(unsafe_code)]

/// Deterministic RNG and run configuration.
pub mod test_runner {
    /// SplitMix64-backed RNG driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed directly.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Derive a seed from a test name, so each test gets a distinct
        /// but reproducible stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value below `n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n.max(1)
        }
    }

    /// Error a property body may return (e.g. `return Ok(())` early-exits).
    /// Failures in this shim surface as panics, so this is mostly vestigial
    /// API parity.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    /// Per-block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }
}

/// Strategies: composable random-value generators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let inner = self;
            BoxedStrategy {
                generate: Rc::new(move |rng| inner.generate(rng)),
            }
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Type-erased strategy.
    pub struct BoxedStrategy<T> {
        generate: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy {
                generate: Rc::clone(&self.generate),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.generate)(rng)
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

    /// Uniform choice among equally-weighted alternatives
    /// (backs the `prop_oneof!` macro).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from boxed arms. Panics if empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128) - (lo as u128) + 1;
                    lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
                }
            }
        )*};
    }
    int_range_strategies!(u8, u16, u32, u64, usize);

    macro_rules! float_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                    self.start + unit * (self.end - self.start)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                    lo + unit * (hi - lo)
                }
            }
        )*};
    }
    float_range_strategies!(f32, f64);

    macro_rules! tuple_strategies {
        ($(($($n:tt $s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H, 8 I, 9 J)
    }

    /// Strategy from a regex-subset string pattern. Supports sequences of
    /// literal characters, `\d`/`\w` classes, `[...]` character classes
    /// (with ranges and escapes), and `{m,n}`/`{n}`/`*`/`+`/`?` repetition.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate_from_pattern(self, rng)
        }
    }
}

/// Regex-subset string generation backing `&str` strategies.
mod string {
    use crate::test_runner::TestRng;

    enum Atom {
        Class(Vec<char>),
    }

    struct Piece {
        atom: Atom,
        min: u32,
        max: u32,
    }

    const DIGITS: &str = "0123456789";
    const WORD: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars>) -> Vec<char> {
        let mut out = Vec::new();
        let mut prev: Option<char> = None;
        while let Some(c) = chars.next() {
            match c {
                ']' => break,
                '\\' => {
                    if let Some(esc) = chars.next() {
                        match esc {
                            'd' => out.extend(DIGITS.chars()),
                            'w' => out.extend(WORD.chars()),
                            other => {
                                out.push(other);
                                prev = Some(other);
                                continue;
                            }
                        }
                    }
                    prev = None;
                }
                '-' => {
                    // Range if we have a previous char and a next char.
                    if let (Some(lo), Some(&hi)) = (prev, chars.peek()) {
                        if hi != ']' {
                            chars.next();
                            let (lo, hi) = (lo as u32, hi as u32);
                            for code in lo..=hi {
                                if let Some(ch) = char::from_u32(code) {
                                    out.push(ch);
                                }
                            }
                            prev = None;
                            continue;
                        }
                    }
                    out.push('-');
                    prev = Some('-');
                }
                other => {
                    out.push(other);
                    prev = Some(other);
                }
            }
        }
        if out.is_empty() {
            out.push('?');
        }
        out
    }

    fn parse_repeat(chars: &mut std::iter::Peekable<std::str::Chars>) -> (u32, u32) {
        match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                if let Some((lo, hi)) = spec.split_once(',') {
                    let lo = lo.trim().parse().unwrap_or(0);
                    let hi = hi.trim().parse().unwrap_or(lo.max(1));
                    (lo, hi)
                } else {
                    let n = spec.trim().parse().unwrap_or(1);
                    (n, n)
                }
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            _ => (1, 1),
        }
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let mut chars = pattern.chars().peekable();
        let mut pieces = Vec::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => Atom::Class(parse_class(&mut chars)),
                '\\' => match chars.next() {
                    Some('d') => Atom::Class(DIGITS.chars().collect()),
                    Some('w') => Atom::Class(WORD.chars().collect()),
                    Some(other) => Atom::Class(vec![other]),
                    None => Atom::Class(vec!['\\']),
                },
                other => Atom::Class(vec![other]),
            };
            let (min, max) = parse_repeat(&mut chars);
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    pub(crate) fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let count = piece.min + rng.below((piece.max - piece.min + 1) as u64) as u32;
            let Atom::Class(chars) = &piece.atom;
            for _ in 0..count {
                out.push(chars[rng.below(chars.len() as u64) as usize]);
            }
        }
        out
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Sample a full-range value.
        fn sample(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn sample(rng: &mut TestRng) -> Self {
                    let mut v: u128 = rng.next_u64() as u128;
                    if core::mem::size_of::<$t>() > 8 {
                        v |= (rng.next_u64() as u128) << 64;
                    }
                    v as $t
                }
            }
        )*};
    }
    arb_ints!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

    impl Arbitrary for bool {
        fn sample(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn sample(rng: &mut TestRng) -> Self {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Strategy produced by [`any`].
    pub struct AnyStrategy<A> {
        _marker: core::marker::PhantomData<fn() -> A>,
    }

    impl<A: Arbitrary> Strategy for AnyStrategy<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::sample(rng)
        }
    }

    /// Full-range strategy for `A`.
    pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
        AnyStrategy {
            _marker: core::marker::PhantomData,
        }
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size bounds for generated collections.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }
    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }
    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.min + rng.below((self.max - self.min + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec<T>`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generate vectors of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<T>`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut out = std::collections::BTreeSet::new();
            // Insertions may collide; bound the attempts so generation
            // always terminates even for tiny domains.
            for _ in 0..(target * 4 + 8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }

    /// Generate ordered sets of `element` with size in `size`.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeMap<K, V>`.
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = std::collections::BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut out = std::collections::BTreeMap::new();
            for _ in 0..(target * 4 + 8) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.key.generate(rng), self.value.generate(rng));
            }
            out
        }
    }

    /// Generate ordered maps with size in `size`.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<T>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `None` a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    /// Module alias so `prop::collection::vec` etc. resolve.
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert inside a property; failure panics with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($arm) ),+
        ])
    };
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a function running the body over generated cases, carrying the
/// attributes written on it — so, as with upstream proptest, each property
/// is written `#[test] fn name(...)` and registers exactly once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let ( $($pat,)+ ) = (
                    $( $crate::strategy::Strategy::generate(&($strat), &mut __rng), )+
                );
                // The closure exists so `return Ok(())` works inside $body,
                // mirroring upstream proptest's TestCaseResult plumbing.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(__e) = __outcome {
                    panic!("property {} failed on case {}: {:?}", stringify!($name), __case, __e);
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u32> {
        any::<u32>().prop_map(|v| v & !1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(v in 10u16..20, w in 0u8..=4) {
            prop_assert!((10..20).contains(&v));
            prop_assert!(w <= 4);
        }

        #[test]
        fn mapped_values_are_even(v in arb_even()) {
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn oneof_and_tuples((a, b) in (prop_oneof![Just(1u8), Just(2u8)], any::<bool>())) {
            prop_assert!(a == 1 || a == 2);
            let _ = b;
        }

        #[test]
        fn collections_respect_sizes(v in prop::collection::vec(any::<u8>(), 0..5),
                                     s in prop::collection::btree_set(0u8..10, 1..5)) {
            prop_assert!(v.len() < 5);
            prop_assert!(!s.is_empty() && s.len() < 5);
        }

        #[test]
        fn pattern_strings_match_subset(s in "[0-9]{0,4}") {
            prop_assert!(s.len() <= 4);
            prop_assert!(s.chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
