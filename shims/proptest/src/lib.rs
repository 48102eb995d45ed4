//! In-repo stand-in for the `proptest` crate.
//!
//! The build environment is offline, so the workspace vendors the slice
//! of proptest it uses: the `proptest!` test macro, `Strategy` with
//! `prop_map`/`boxed`, range and tuple strategies, `any::<T>()`, `Just`,
//! `prop_oneof!`, `proptest::collection::vec`, a tiny `[a-z]{m,n}`
//! regex-string strategy, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from upstream: generation is seeded deterministically per
//! test (from the test name), and a failing case is reported with its
//! inputs but not shrunk. For the property suites in this repo that
//! trade-off is fine — cases are already small.

pub mod test_runner {
    use std::fmt;

    /// Per-test configuration (subset of upstream's struct).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for compatibility; shrinking is not implemented.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256, max_shrink_iters: 0 }
        }
    }

    /// Failure raised by `prop_assert!` family macros.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The property did not hold.
        Fail(String),
    }

    impl TestCaseError {
        /// Build a failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
            }
        }
    }

    /// The message of a panic payload, for reporting a failed case.
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            s.to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panicked".to_string()
        }
    }

    /// Deterministic generator used by strategies (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from a test name.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the test name keeps runs reproducible while
            // giving each property its own stream.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating values of one type.
    ///
    /// Object-safe so heterogeneous `prop_oneof!` arms can be boxed.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through a function.
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
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            (**self).new_value(rng)
        }
    }

    /// Always produce a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<V: Clone>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn new_value(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build from the macro's boxed arms.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let ix = rng.below(self.arms.len() as u64) as usize;
            self.arms[ix].new_value(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    /// `"[a-z]{m,n}"`-style string strategy: a character class plus a
    /// length range. Only the tiny regex subset the workspace's tests use
    /// is supported; anything else panics with a clear message.
    impl Strategy for &'static str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            let (chars, min, max) = parse_class_pattern(self)
                .unwrap_or_else(|| panic!("unsupported regex strategy {self:?} (shim supports \"[class]{{m,n}}\")"));
            let len = min + rng.below((max - min + 1) as u64) as usize;
            (0..len)
                .map(|_| chars[rng.below(chars.len() as u64) as usize])
                .collect()
        }
    }

    fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let (class, rest) = rest.split_once(']')?;
        let mut chars = Vec::new();
        let cs: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                let (lo, hi) = (cs[i], cs[i + 2]);
                for c in lo..=hi {
                    chars.push(c);
                }
                i += 3;
            } else {
                chars.push(cs[i]);
                i += 1;
            }
        }
        if chars.is_empty() {
            return None;
        }
        let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (min, max) = match counts.split_once(',') {
            Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
            None => {
                let n = counts.trim().parse().ok()?;
                (n, n)
            }
        };
        if min > max {
            return None;
        }
        Some((chars, min, max))
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $ix:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$ix.new_value(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// Strategy for `any::<T>()` values.
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T> AnyStrategy<T> {
        /// Construct (used by [`crate::arbitrary::any`]).
        pub fn new() -> Self {
            AnyStrategy(PhantomData)
        }
    }

    impl<T> Default for AnyStrategy<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::AnyStrategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw one value from the full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy behind `any::<T>()`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy::new()
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite, sign-symmetric, spanning many magnitudes.
            let mag = rng.unit_f64() * 1e15;
            if rng.next_u64() & 1 == 1 {
                -mag
            } else {
                mag
            }
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for vectors with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec(element, min..max)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $(let $pat = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    },
                ));
                let failure = match outcome {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => continue,
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => e.to_string(),
                    ::std::result::Result::Err(payload) => {
                        $crate::test_runner::panic_message(&*payload)
                    }
                };
                // Generation is deterministic per test name: replay the
                // stream up to the failing case to show its inputs.
                let mut replay = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for _ in 0..case {
                    $(let _ = $crate::strategy::Strategy::new_value(&($strat), &mut replay);)+
                }
                let mut inputs = ::std::string::String::new();
                $(
                    inputs.push_str(&format!(
                        "\n    {} = {:?}",
                        stringify!($pat),
                        $crate::strategy::Strategy::new_value(&($strat), &mut replay),
                    ));
                )+
                panic!(
                    "proptest {} failed at case {}/{}: {}\n  inputs:{}",
                    stringify!($name), case + 1, config.cases, failure, inputs
                );
            }
        }
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Assert inside a `proptest!` body; failure aborts only this case's
/// closure via `return Err(..)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_strategy_parses_class_and_counts() {
        let mut rng = crate::test_runner::TestRng::deterministic("regex");
        for _ in 0..200 {
            let s = Strategy::new_value(&"[a-z]{1,5}", &mut rng);
            assert!((1..=5).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
        let empty_ok = Strategy::new_value(&"[a-z]{0,2}", &mut rng);
        assert!(empty_ok.len() <= 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_in_bounds(x in 0..30i64, y in 3usize..9, f in 0.5f64..0.95) {
            prop_assert!((0..30).contains(&x));
            prop_assert!((3..9).contains(&y));
            prop_assert!((0.5..0.95).contains(&f));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            Just(-1i64),
            (0..10i64).prop_map(|x| x * 2),
            any::<bool>().prop_map(|b| if b { 100 } else { 200 }),
        ]) {
            prop_assert!(v == -1 || (v >= 0 && v < 20 && v % 2 == 0) || v == 100 || v == 200);
        }

        #[test]
        fn vec_lengths_respect_range(xs in crate::collection::vec(0..5u8, 2..6)) {
            prop_assert!((2..6).contains(&xs.len()));
            for x in &xs {
                prop_assert!(*x < 5);
            }
        }

        #[test]
        fn tuples_destructure(
            (id, name) in (0..12u64, "[a-z]{1,6}"),
            mut tail in crate::collection::vec(0..3u8, 1..4),
        ) {
            prop_assert!(id < 12);
            prop_assert!(!name.is_empty() && name.len() <= 6);
            tail.push(0);
            prop_assert!(!tail.is_empty());
        }
    }

    #[test]
    fn failing_property_panics_with_case_number() {
        use crate::test_runner::TestRng;
        use std::sync::atomic::{AtomicU32, Ordering};
        static RUNS: AtomicU32 = AtomicU32::new(0);
        proptest! {
            #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
            #[allow(unused)]
            fn fails_third(x in 0..10u8, (a, ys) in (any::<bool>(), crate::collection::vec(0..100u32, 1..4))) {
                prop_assert!(RUNS.fetch_add(1, Ordering::Relaxed) < 2, "third case");
            }
        }
        let msg = *std::panic::catch_unwind(fails_third)
            .expect_err("the property fails")
            .downcast::<String>()
            .expect("formatted panic message");
        // The third case's inputs, drawn the way the runner draws them.
        let mut rng = TestRng::deterministic("fails_third");
        let mut draw = || {
            let x = Strategy::new_value(&(0..10u8), &mut rng);
            let pair = Strategy::new_value(
                &(any::<bool>(), crate::collection::vec(0..100u32, 1..4)),
                &mut rng,
            );
            (x, pair)
        };
        draw();
        draw();
        let (x, pair) = draw();
        assert!(msg.contains("failed at case 3/8: third case"), "{msg}");
        assert!(msg.contains(&format!("x = {x:?}")), "{msg}");
        assert!(msg.contains(&format!("(a, ys) = {pair:?}")), "{msg}");

        // A panicking body is a failed case too.
        proptest! {
            #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
            #[allow(unused)]
            fn panics_first(x in 0..10u8) {
                panic!("boom");
            }
        }
        let msg = *std::panic::catch_unwind(panics_first)
            .expect_err("the property fails")
            .downcast::<String>()
            .expect("formatted panic message");
        let x = Strategy::new_value(&(0..10u8), &mut TestRng::deterministic("panics_first"));
        assert!(msg.contains(&format!("failed at case 1/8: boom\n  inputs:\n    x = {x:?}")), "{msg}");
    }
}
