//! Offline shim for `proptest`.
//!
//! The container cannot reach crates.io, so this crate implements the
//! slice of proptest the workspace's property tests use: the `proptest!`
//! macro, `prop_assert!`/`prop_assert_eq!`/`prop_assume!`, `any`,
//! numeric-range and tuple strategies, `prop::collection::vec`,
//! `Strategy::prop_map` and `sample::subsequence`.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its case index and RNG seed
//!   (every run is deterministic, so that is enough to reproduce).
//! * **Case count** defaults to 64 per property (128 in release builds
//!   would add little here); override with `ICGMM_PROPTEST_CASES` (the
//!   workspace-specific knob CI's deep differential pass sets, taking
//!   precedence) or the conventional `PROPTEST_CASES`. Tier-1
//!   `cargo test -q` stays bounded at the default; nightly-style passes
//!   crank the count without touching any test.

use rand::rngs::StdRng;

/// Strategy combinators and generation.
pub mod strategy {
    use super::TestRng;
    use rand::Rng as _;

    /// A generator of random values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
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

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    range_strategy!(usize, u64, u32, u16, u8, f64);

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
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.gen::<u64>()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.gen::<u32>()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T> {
        _marker: core::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: core::marker::PhantomData,
        }
    }
}

/// The RNG handed to strategies (deterministic per test case).
pub type TestRng = StdRng;

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start + 1 >= self.size.end {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(element, len_range)`: vectors whose length lies in the range.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Sampling strategies (`proptest::sample`).
pub mod sample {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// Strategy producing order-preserving subsequences of `values`.
    pub struct Subsequence<T> {
        values: Vec<T>,
        size: core::ops::Range<usize>,
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;

        fn generate(&self, rng: &mut TestRng) -> Vec<T> {
            let n = self.values.len();
            let lo = self.size.start.min(n);
            let hi = self.size.end.min(n + 1).max(lo + 1);
            let len = if lo + 1 >= hi {
                lo
            } else {
                rng.gen_range(lo..hi)
            };
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(rng);
            idx.truncate(len);
            idx.sort_unstable();
            idx.into_iter().map(|i| self.values[i].clone()).collect()
        }
    }

    /// A subsequence of `values` whose length lies in `size`.
    pub fn subsequence<T: Clone>(values: Vec<T>, size: core::ops::Range<usize>) -> Subsequence<T> {
        Subsequence { values, size }
    }
}

/// Test-runner plumbing used by the macros.
pub mod test_runner {
    use rand::SeedableRng;

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` — not a failure.
        Reject(String),
        /// A `prop_assert!` failed.
        Fail(String),
    }

    /// Drives the per-property case loop.
    pub struct TestRunner {
        /// Cases to run per property.
        pub cases: u32,
        base_seed: u64,
    }

    /// The workspace knob wins over the conventional proptest one, so CI
    /// can deepen this repo's differential suites without perturbing any
    /// other proptest-using environment. Factored over a lookup closure
    /// so the precedence rule is testable without mutating process-global
    /// environment variables under parallel tests.
    pub(crate) fn cases_from(lookup: impl Fn(&str) -> Option<String>) -> u32 {
        ["ICGMM_PROPTEST_CASES", "PROPTEST_CASES"]
            .iter()
            .find_map(|k| lookup(k)?.parse().ok())
            .unwrap_or(64)
    }

    impl Default for TestRunner {
        fn default() -> Self {
            TestRunner {
                cases: cases_from(|k| std::env::var(k).ok()),
                base_seed: 0x1C_6B1B_5EED,
            }
        }
    }

    impl TestRunner {
        /// A deterministic RNG for case number `case`.
        pub fn rng_for_case(&self, case: u32) -> super::TestRng {
            super::TestRng::seed_from_u64(
                self.base_seed ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        }
    }
}

/// The catch-all import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::sample;
    pub use crate::strategy::{any, Arbitrary, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// The `prop::` module alias used as `prop::collection::vec(...)`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let runner = $crate::test_runner::TestRunner::default();
                for case in 0..runner.cases {
                    let mut prop_rng = runner.rng_for_case(case);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut prop_rng);)*
                    let result = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match result {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property '{}' failed at case {} (deterministic; rerun reproduces): {}",
                                stringify!($name), case, msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside `proptest!`, failing the case (not
/// panicking) so the runner can report it.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn case_count_env_precedence() {
        // Pure-function check over an injected lookup — no process-global
        // environment mutation, so parallel sibling tests are unaffected.
        let both = |k: &str| match k {
            "ICGMM_PROPTEST_CASES" => Some("7".to_string()),
            "PROPTEST_CASES" => Some("9".to_string()),
            _ => None,
        };
        assert_eq!(
            crate::test_runner::cases_from(both),
            7,
            "workspace knob must win"
        );
        let plain = |k: &str| (k == "PROPTEST_CASES").then(|| "9".to_string());
        assert_eq!(
            crate::test_runner::cases_from(plain),
            9,
            "conventional knob is the fallback"
        );
        assert_eq!(crate::test_runner::cases_from(|_| None), 64, "default");
        let garbage = |_: &str| Some("not-a-number".to_string());
        assert_eq!(
            crate::test_runner::cases_from(garbage),
            64,
            "unparseable values fall back to the default"
        );
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(0u32..5, 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn map_and_tuple_compose(p in (0u64..10, any::<bool>()).prop_map(|(n, b)| if b { n } else { n + 10 })) {
            prop_assert!(p < 20);
        }

        #[test]
        fn subsequences_preserve_order(s in sample::subsequence((0..16u64).collect::<Vec<_>>(), 4..12)) {
            prop_assert!((4..12).contains(&s.len()));
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }
}
