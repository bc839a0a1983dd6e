//! Offline stand-in for `proptest`.
//!
//! Implements the slice of the proptest API the workspace's property tests
//! use — `Strategy` with `prop_map` / `prop_filter_map`, numeric range
//! strategies, tuple strategies, `Just`, `any`, `prop_oneof!`,
//! `collection::vec`, the `proptest!` macro with `proptest_config`, and the
//! `prop_assert*` macros — on top of a deterministic SplitMix64 generator.
//!
//! Differences from the real crate, deliberate for a vendored environment:
//! shrinking works on the generator's recorded draws rather than on value
//! trees (integer ranges shrink toward their start, `collection::vec`
//! toward its shortest length, and a failing test prints the shrunk
//! input before its panic), there are no persistence files, and the
//! per-test seed is derived from the test's name, so runs are
//! reproducible across machines.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    pub use crate::strategy::{vec, SizeRange, VecStrategy};
}

pub mod arbitrary {
    pub use crate::strategy::{any, Arbitrary};
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// The `proptest!` test-block macro: each `fn name(arg in strategy, ...)`
/// becomes a `#[test]` running the body over `Config::cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    (@impl ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let mut runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
                // Move generated values into the body exactly as
                // proptest does; the inner closure confines any `return`.
                let strategy = ($($strategy,)+);
                let test = $crate::test_runner::property(&strategy, |($($arg,)+)| (|| $body)());
                if let Err(failure) = runner.run(&strategy, &test) {
                    $crate::test_runner::report(stringify!($name), failure, &test);
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()) $($rest)*);
    };
}
