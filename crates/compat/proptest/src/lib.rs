//! Offline stand-in for the [proptest](https://docs.rs/proptest) framework.
//!
//! The build environment for this workspace has no registry access, so the
//! subset of the proptest API used by `tests/properties.rs` is vendored
//! here: the [`Strategy`](strategy::Strategy) trait with range / tuple /
//! `prop_map` / `collection::vec` / [`any`](arbitrary::any) strategies, the
//! [`proptest!`] test macro and the `prop_assert*` macros, backed by a
//! seeded PRNG instead of proptest's full shrinking machinery. Failing
//! cases report their generated inputs but are not shrunk. Swapping the
//! `proptest` workspace dependency for the registry crate restores real
//! proptest with no source changes to the tests.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test-case plumbing: configuration, failure type, and the shim PRNG.

    /// Error returned (via `prop_assert!`) from a failing property body.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property was falsified, with an explanation.
        Fail(String),
        /// The case was rejected (input did not satisfy preconditions).
        Reject(String),
    }

    impl TestCaseError {
        /// A falsification with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given message.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    /// Per-test configuration (API subset of `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` generated inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        /// Mirrors real proptest: the `PROPTEST_CASES` environment variable
        /// overrides the built-in default of 256 cases (CI's weekly deep
        /// run sets `PROPTEST_CASES=4096`).
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(256);
            Self { cases }
        }
    }

    /// The deterministic PRNG driving input generation (splitmix64).
    #[derive(Debug, Clone)]
    pub struct ShimRng {
        state: u64,
    }

    impl ShimRng {
        /// Seeds from the `PROPTEST_SHIM_SEED` environment variable if set,
        /// otherwise from a fixed seed mixed with the test name, so every
        /// test is deterministic but distinct.
        pub fn from_env(test_name: &str) -> Self {
            let base = std::env::var("PROPTEST_SHIM_SEED")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0x9E37_79B9_7F4A_7C15);
            let mut h = base;
            for b in test_name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
            Self { state: h }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform double in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
        }

        /// Uniform integer in `[0, bound)`; `bound` must be positive.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "bound must be positive");
            // Multiply-shift; bias is irrelevant for test-input generation.
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::ShimRng;

    /// A recipe for generating test inputs (API subset of proptest's
    /// `Strategy`; no shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut ShimRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy produced by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut ShimRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut ShimRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut ShimRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end - start) as u64;
                    start + rng.below(span.saturating_add(1).max(1)) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for std::ops::Range<i64> {
        type Value = i64;

        fn generate(&self, rng: &mut ShimRng) -> i64 {
            assert!(self.start < self.end, "empty range strategy");
            let span = self.end.wrapping_sub(self.start) as u64;
            self.start.wrapping_add(rng.below(span) as i64)
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut ShimRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+)),*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut ShimRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D));

    /// A strategy wrapping a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut ShimRng) -> T {
            self.0.clone()
        }
    }
}

pub mod arbitrary {
    //! The [`any`] strategy over primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::ShimRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        /// Generates an arbitrary value of the type.
        fn arbitrary(rng: &mut ShimRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut ShimRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut ShimRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut ShimRng) -> f64 {
            rng.next_f64()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Default)]
    pub struct AnyStrategy<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut ShimRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy generating arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy {
            _marker: std::marker::PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::ShimRng;

    /// A strategy for `Vec`s whose length is drawn from `lengths` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, lengths: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(lengths.start < lengths.end, "empty length range");
        VecStrategy { element, lengths }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        lengths: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut ShimRng) -> Vec<S::Value> {
            let span = (self.lengths.end - self.lengths.start) as u64;
            let len = self.lengths.start + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a property, returning a
/// [`TestCaseError`](test_runner::TestCaseError) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(left == right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = &$left;
        let right = &$right;
        if !(left == right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `(left == right)`: {}\n  left: `{:?}`\n right: `{:?}`",
                format!($($fmt)*),
                left,
                right
            )));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if left == right {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `(left != right)`\n  both: `{:?}`",
                left
            )));
        }
    }};
}

/// Declares property tests (API subset of `proptest::proptest!`).
///
/// Each declared function runs `config.cases` times with freshly generated
/// inputs; a failing `prop_assert*` (or an early `Err` return) panics with
/// the case number and the generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut shim_rng = $crate::test_runner::ShimRng::from_env(stringify!($name));
                for case in 0..config.cases {
                    #[allow(unused_imports)]
                    use $crate::strategy::Strategy as _;
                    $(let $arg = ($strat).generate(&mut shim_rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            #[allow(unreachable_code)]
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!(
                            "property `{}` falsified at case {}/{}: {}\n  inputs: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            e,
                            inputs
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::ShimRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = ShimRng::from_env("ranges_stay_in_bounds");
        for _ in 0..10_000 {
            let x = (5u64..17).generate(&mut rng);
            assert!((5..17).contains(&x));
            let f = (1.0f64..2.0).generate(&mut rng);
            assert!((1.0..2.0).contains(&f));
            let v = crate::collection::vec(0u64..10, 1..4).generate(&mut rng);
            assert!(!v.is_empty() && v.len() < 4);
            assert!(v.iter().all(|&e| e < 10));
        }
    }

    #[test]
    fn prop_map_and_tuples_compose() {
        let mut rng = ShimRng::from_env("prop_map_and_tuples_compose");
        let strat = (0u64..4, any::<bool>()).prop_map(|(a, b)| if b { a + 100 } else { a });
        for _ in 0..1_000 {
            let v = strat.generate(&mut rng);
            assert!(v < 4 || (100..104).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: generated inputs respect their strategies.
        #[test]
        fn macro_generates_in_range(x in 1u64..50, v in crate::collection::vec(0u64..5, 2..6)) {
            prop_assert!((1..50).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 6, "bad length {}", v.len());
            prop_assert_eq!(v.iter().filter(|&&e| e >= 5).count(), 0);
        }
    }
}
