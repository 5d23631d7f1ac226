//! Shim for `proptest`: the API subset this workspace's property tests
//! use, implemented as deterministic random testing.
//!
//! Differences from real proptest, by design:
//! * no shrinking — a failing case panics with the generated inputs in
//!   the assertion message instead of a minimized counterexample;
//! * the RNG seed is derived from the test function's name, so every
//!   run explores the same case sequence (fully deterministic);
//! * string strategies accept only the simple character-class regexes
//!   the tests use (`[a-z]{0,6}`-style), not full regex syntax.
//!
//! Supported surface: `Strategy` (`prop_map`, `prop_recursive`,
//! `boxed`), `Just`, `any::<T>()`, integer/float range strategies,
//! tuple strategies, `collection::vec`, `option::of`, `Union` /
//! `prop_oneof!` (weighted and unweighted), `proptest!` with
//! `#![proptest_config(..)]`, and the `prop_assert*` macros.

pub mod test_runner {
    //! Config, error type, and the deterministic RNG driving generation.

    /// Error a property body may return; `prop_assert!` panics instead,
    /// so this mostly types `return Ok(())` early exits.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// Assertion failure.
        Fail(String),
        /// Input rejected by the test.
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }
        /// Build a rejection.
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration; only `cases` matters to the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        /// 256 cases, or what `PROPTEST_CASES` asks for — as in the real
        /// crate, an explicit `with_cases` is not overridden.
        fn default() -> ProptestConfig {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|n| n.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Deterministic RNG (SplitMix64) used for all generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG seeded from an arbitrary label (e.g. the test name).
        pub fn deterministic_for(label: &str) -> TestRng {
            // FNV-1a over the label, so distinct tests get distinct
            // but reproducible streams.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            // Multiply-shift; bias is negligible for the spans used here.
            (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.

    use std::marker::PhantomData;
    use std::ops::Range;
    use std::sync::Arc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Build recursive values: `f` receives a strategy for smaller
        /// instances (bottoming out at `self`) and returns the composite
        /// layer. `_desired_size` / `_expected_branch` are accepted for
        /// API compatibility and ignored.
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let leaf = self.boxed();
            let mut current = leaf.clone();
            for _ in 0..depth {
                // Each layer is leaf-or-composite, so generated trees
                // have depth at most `depth` and varied shallow shapes.
                current =
                    Union::new(vec![(1, leaf.clone()), (2, f(current).boxed())]).boxed();
            }
            current
        }

        /// Type-erase into a clonable, shareable strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// Type-erased strategy; cheap to clone.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> BoxedStrategy<T> {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.new_value(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Clone)]
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
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Weighted choice among strategies; backs `prop_oneof!`.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` arms; weights must not all
        /// be zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof: all weights are zero");
            Union { arms, total }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Union<T> {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return s.new_value(rng);
                }
                pick -= w;
            }
            unreachable!("prop_oneof: weight walk exhausted")
        }
    }

    /// Strategy for a type's canonical distribution; see [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Canonical strategy for `T` (`bool`, `u8`, `i64`, `u64`, `f64`).
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(PhantomData)
    }

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Any<T> {
            Any(PhantomData)
        }
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<u8> {
        type Value = u8;
        fn new_value(&self, rng: &mut TestRng) -> u8 {
            rng.next_u64() as u8
        }
    }

    impl Strategy for Any<u64> {
        type Value = u64;
        fn new_value(&self, rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Strategy for Any<i64> {
        type Value = i64;
        fn new_value(&self, rng: &mut TestRng) -> i64 {
            rng.next_u64() as i64
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            // Mostly arbitrary bit patterns (covers subnormals and NaN),
            // with special values mixed in explicitly.
            match rng.below(16) {
                0 => *[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0]
                    .get(rng.below(5) as usize)
                    .unwrap(),
                _ => f64::from_bits(rng.next_u64()),
            }
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u64 + 1;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn new_value(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (self.end - self.start) * rng.unit_f64() as f32
        }
    }

    /// `&'static str` patterns act as string strategies over a simple
    /// character-class grammar: `[items]{m,n}` or `[items]{n}`, where
    /// items are literal chars, `\xHH` escapes, and `a-z` ranges.
    impl Strategy for &'static str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            let (ranges, min, max) = parse_class_pattern(self);
            let len = min + rng.below((max - min + 1) as u64) as usize;
            let total_span: u64 = ranges
                .iter()
                .map(|(lo, hi)| u64::from(*hi) - u64::from(*lo) + 1)
                .sum();
            let mut out = String::with_capacity(len);
            for _ in 0..len {
                let mut pick = rng.below(total_span);
                for (lo, hi) in &ranges {
                    let span = u64::from(*hi) - u64::from(*lo) + 1;
                    if pick < span {
                        let cp = u32::from(*lo) + pick as u32;
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        break;
                    }
                    pick -= span;
                }
            }
            out
        }
    }

    /// Parse `[class]{m,n}` into (codepoint ranges, min len, max len).
    fn parse_class_pattern(pat: &str) -> (Vec<(char, char)>, usize, usize) {
        fn bad(pat: &str) -> ! {
            panic!("string strategy: unsupported pattern `{pat}` (shim accepts only `[class]{{m,n}}`)")
        }
        let mut chars = pat.chars().peekable();
        if chars.next() != Some('[') {
            bad(pat);
        }
        // Collect class members, then fold trailing `-` ranges.
        let mut members: Vec<char> = Vec::new();
        let mut dashes: Vec<usize> = Vec::new(); // member indexes that were `-`
        loop {
            let c = chars.next().unwrap_or_else(|| bad(pat));
            match c {
                ']' => break,
                '\\' => match chars.next().unwrap_or_else(|| bad(pat)) {
                    'x' => {
                        let h1 = chars.next().unwrap_or_else(|| bad(pat));
                        let h2 = chars.next().unwrap_or_else(|| bad(pat));
                        let v = u32::from_str_radix(&format!("{h1}{h2}"), 16)
                            .unwrap_or_else(|_| bad(pat));
                        members.push(char::from_u32(v).unwrap_or_else(|| bad(pat)));
                    }
                    'n' => members.push('\n'),
                    't' => members.push('\t'),
                    other => members.push(other),
                },
                '-' => {
                    dashes.push(members.len());
                    members.push('-');
                }
                other => members.push(other),
            }
        }
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut i = 0;
        while i < members.len() {
            // `a-z`: a dash with a member on both sides forms a range.
            if i + 2 < members.len() && dashes.contains(&(i + 1)) {
                let (lo, hi) = (members[i], members[i + 2]);
                assert!(lo <= hi, "string strategy: inverted range in `{pat}`");
                ranges.push((lo, hi));
                i += 3;
            } else {
                ranges.push((members[i], members[i]));
                i += 1;
            }
        }
        if ranges.is_empty() {
            bad(pat);
        }
        if chars.next() != Some('{') {
            bad(pat);
        }
        let rest: String = chars.collect();
        let body = rest.strip_suffix('}').unwrap_or_else(|| bad(pat));
        let (min, max) = match body.split_once(',') {
            Some((m, n)) => (
                m.parse().unwrap_or_else(|_| bad(pat)),
                n.parse().unwrap_or_else(|_| bad(pat)),
            ),
            None => {
                let n: usize = body.parse().unwrap_or_else(|_| bad(pat));
                (n, n)
            }
        };
        assert!(min <= max, "string strategy: bad repeat in `{pat}`");
        (ranges, min, max)
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A/a);
    impl_tuple_strategy!(A/a, B/b);
    impl_tuple_strategy!(A/a, B/b, C/c);
    impl_tuple_strategy!(A/a, B/b, C/c, D/d);
    impl_tuple_strategy!(A/a, B/b, C/c, D/d, E/e);
    impl_tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f);
    impl_tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f, G/g);
    impl_tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f, G/g, H/h);
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Length bounds for generated collections (inclusive).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy producing `Vec`s of `element` values.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy yielding `Some` three times out of four.
    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    /// `Option<T>` strategy from a `T` strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.new_value(rng))
            }
        }
    }
}

pub mod prelude {
    //! Everything a property test needs in scope.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Run named properties over generated inputs; see module docs for the
/// supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$attr:meta])*
      fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __strategies = ($($strat,)+);
            let mut __rng =
                $crate::test_runner::TestRng::deterministic_for(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let ($($arg,)+) =
                    $crate::strategy::Strategy::new_value(&__strategies, &mut __rng);
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err(__e) => {
                        panic!("property {} failed on case {}: {:?}", stringify!($name), __case, __e);
                    }
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Choose among strategies, optionally weighted (`w => strat`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

/// Assert within a property body (shim: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality within a property body (shim: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality within a property body (shim: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_strings_generate_in_bounds() {
        let mut rng = TestRng::deterministic_for("shim-test");
        let strat = (0i64..10, "[a-z]{0,6}", any::<bool>());
        for _ in 0..200 {
            let (n, s, _b) = Strategy::new_value(&strat, &mut rng);
            assert!((0..10).contains(&n));
            assert!(s.len() <= 6 && s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn hex_class_covers_full_span() {
        let mut rng = TestRng::deterministic_for("hex");
        let mut max_seen = 0u32;
        for _ in 0..500 {
            let s = Strategy::new_value(&"[\\x00-\\x7f]{0,24}", &mut rng);
            assert!(s.len() <= 24);
            for c in s.chars() {
                assert!((c as u32) <= 0x7f);
                max_seen = max_seen.max(c as u32);
            }
        }
        assert!(max_seen > 0x60, "upper class never sampled");
    }

    #[test]
    fn union_respects_weights_roughly() {
        let u = prop_oneof![
            9 => Just(1u8),
            1 => Just(2u8),
        ];
        let mut rng = TestRng::deterministic_for("weights");
        let ones = (0..1000)
            .filter(|_| Strategy::new_value(&u, &mut rng) == 1)
            .count();
        assert!((800..=980).contains(&ones), "got {ones}");
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            #[allow(dead_code)]
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0i64..100).prop_map(Tree::Leaf).prop_recursive(3, 16, 2, |inner| {
            crate::collection::vec(inner, 1..3).prop_map(Tree::Node)
        });
        let mut rng = TestRng::deterministic_for("rec");
        for _ in 0..200 {
            assert!(depth(&Strategy::new_value(&strat, &mut rng)) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro wires args, config, and early `return Ok(())`.
        #[test]
        fn macro_round_trip(xs in crate::collection::vec(any::<i64>(), 0..8), flip in any::<bool>()) {
            if xs.is_empty() && flip {
                return Ok(());
            }
            let doubled: Vec<i64> = xs.iter().map(|x| x.wrapping_mul(2)).collect();
            prop_assert_eq!(doubled.len(), xs.len());
        }
    }
}
