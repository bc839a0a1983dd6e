//! The `Strategy` trait and the combinators the workspace tests use.

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A recipe for generating values of one type. `generate` is the whole
/// contract: a value is a function of the rng's draws, so the runner
/// shrinks a failing value by replaying smaller draws
/// ([`crate::test_runner::TestRunner`]).
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Keep only values the function maps to `Some`, retrying otherwise.
    fn prop_filter_map<U, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap { inner: self, f, reason }
    }

    /// Type-erase for heterogeneous collections (`prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// Boxed, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

// Strategies borrow fine: `&S` generates what `S` generates.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_filter_map` adapter: rejection-samples until the map accepts.
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    reason: &'static str,
}

impl<S, U, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<U>,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map({}) rejected 10000 consecutive candidates", self.reason);
    }
}

/// Uniform choice over same-typed strategies (`prop_oneof!`).
pub struct OneOf<T> {
    choices: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    pub fn new(choices: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one choice");
        Self { choices }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.choices.len() as u64) as usize;
        self.choices[i].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// Numeric range strategies.

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty => $wide:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $wide - self.start as $wide) as u64;
                (self.start as $wide + rng.below(span) as $wide) as $t
            }
        }
    )*};
}

signed_range_strategy!(i8 => i64, i16 => i64, i32 => i64, i64 => i128);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

// ---------------------------------------------------------------------------
// Tuple strategies: generate component-wise, left to right.

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
tuple_strategy!(A, B, C, D, E, F, G, H);

// ---------------------------------------------------------------------------
// `any::<T>()`.

/// Full-domain generation for primitives.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over a type's whole domain.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---------------------------------------------------------------------------
// `collection::vec`.

/// Element-count specification: an exact count or a half-open range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        Self { lo: r.start, hi: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        Self { lo: *r.start(), hi: *r.end() + 1 }
    }
}

/// Vec of values drawn from one element strategy.
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        assert!(self.size.lo < self.size.hi, "empty size range");
        let span = (self.size.hi - self.size.lo) as u64;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..2000 {
            let a = (3usize..10).generate(&mut rng);
            assert!((3..10).contains(&a));
            let b = (0u8..=32).generate(&mut rng);
            assert!(b <= 32);
            let c = (-5i32..7).generate(&mut rng);
            assert!((-5..7).contains(&c));
            let d = (-2.0f64..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&d));
        }
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut rng = TestRng::from_name("ends");
        let mut seen = [false; 3];
        for _ in 0..500 {
            seen[(0u8..=2).generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn filter_map_rejects_until_accepted() {
        let mut rng = TestRng::from_name("filter");
        let strat = (0u32..10, 0u32..10).prop_filter_map("distinct", |(a, b)| {
            if a == b {
                None
            } else {
                Some((a, b))
            }
        });
        for _ in 0..500 {
            let (a, b) = strat.generate(&mut rng);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn vec_respects_exact_and_ranged_sizes() {
        let mut rng = TestRng::from_name("vec");
        assert_eq!(vec(0u8..5, 3).generate(&mut rng).len(), 3);
        for _ in 0..200 {
            let v = vec(0u8..5, 1..40).generate(&mut rng);
            assert!((1..40).contains(&v.len()));
        }
    }

    #[test]
    fn oneof_covers_all_choices() {
        let mut rng = TestRng::from_name("oneof");
        let strat = crate::prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..300 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }
}
