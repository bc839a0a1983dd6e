//! Deterministic test runner state: configuration, the RNG, and the
//! runner that shrinks a failing case.

use crate::strategy::Strategy;

/// Mirror of `proptest::test_runner::Config` (the `cases` knob only).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Config {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for Config {
    fn default() -> Self {
        // The real proptest defaults to 256; 64 keeps the vendored test
        // suite quick while still exercising a broad input sample.
        Self { cases: 64 }
    }
}

/// SplitMix64: tiny, full-period, statistically solid for test-input
/// generation. Seeded from the test name so every test draws a distinct,
/// reproducible sequence.
///
/// Every draw is recorded, so a generated value is a function of its
/// draws: a rng made by [`TestRng::replaying`] draws a given sequence
/// instead (clamped to each draw's bound, 0 past its end), which is how
/// [`TestRunner`] shrinks a failing case.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
    /// The draws to replay, if replaying, and how many were drawn.
    replay: Option<(Vec<u64>, usize)>,
    /// The draws of the value being generated, as drawn.
    draws: Vec<u64>,
}

impl TestRng {
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name, mixed once so similar names diverge.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut rng = Self { state: h ^ 0x9e37_79b9_7f4a_7c15, replay: None, draws: Vec::new() };
        rng.next_u64();
        rng.draws.clear();
        rng
    }

    /// A rng whose draws are `draws`, in order, then zeros.
    pub fn replaying(draws: Vec<u64>) -> Self {
        Self { state: 0, replay: Some((draws, 0)), draws: Vec::new() }
    }

    /// The draws made since the last call, as drawn.
    pub fn take_draws(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.draws)
    }

    /// The next draw below `bound` (any `u64` for `None`).
    fn draw(&mut self, bound: Option<u64>) -> u64 {
        let v = match &mut self.replay {
            Some((draws, at)) => {
                let v = draws.get(*at).copied().unwrap_or(0);
                *at += 1;
                bound.map_or(v, |b| v.min(b - 1))
            }
            None => {
                self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                // Uniform in `[0, bound)` via rejection-free
                // multiply-shift.
                bound.map_or(z, |b| ((z as u128 * b as u128) >> 64) as u64)
            }
        };
        self.draws.push(v);
        v
    }

    pub fn next_u64(&mut self) -> u64 {
        self.draw(None)
    }

    /// Uniform in `[0, bound)`; a smaller draw is a value nearer 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.draw(Some(bound))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Test runs a shrink may spend on one failing case.
const SHRINK_BUDGET: u32 = 2000;

/// A failing case: its input, shrunk as far as the budget allowed, and
/// the message it panicked with.
#[derive(Debug)]
pub struct Failure<V> {
    /// The generated case that failed first (0-based).
    pub case: u32,
    /// The shrunk input.
    pub minimal: V,
    /// How many shrinks the search accepted.
    pub shrinks: u32,
    /// The shrunk input's panic message.
    pub message: String,
}

/// Runs a property over generated inputs and shrinks the first failing
/// one. A value is a function of the rng's draws, so shrinking works on
/// the draws alone: it deletes runs of them (a shorter `vec` drops
/// elements this way) and lowers each one as far as the case still
/// fails (an integer range toward its start, a `vec` length toward its
/// minimum, a `prop_oneof!` toward its first choice).
pub struct TestRunner {
    config: Config,
    rng: TestRng,
}

impl TestRunner {
    pub fn new(config: Config, name: &str) -> Self {
        Self { config, rng: TestRng::from_name(name) }
    }

    /// Runs `test` on `config.cases` inputs from `strategy`; the first
    /// that panics is shrunk and returned.
    pub fn run<S: Strategy>(
        &mut self,
        strategy: &S,
        test: &impl Fn(S::Value),
    ) -> Result<(), Failure<S::Value>> {
        for case in 0..self.config.cases {
            let value = strategy.generate(&mut self.rng);
            let draws = self.rng.take_draws();
            if let Err(message) = quietly(|| test(value)) {
                return Err(shrink(strategy, test, draws, case, message));
            }
        }
        Ok(())
    }
}

/// `test` as a property of `strategy`'s values, so a closure's argument
/// types come from the strategy.
pub fn property<S: Strategy, F: Fn(S::Value)>(_strategy: &S, test: F) -> F {
    test
}

/// Prints `failure`'s shrunk input, then runs `test` on it so the test
/// fails with its own panic.
pub fn report<V: std::fmt::Debug>(name: &str, failure: Failure<V>, test: impl Fn(V)) {
    let Failure { case, minimal, shrinks, message } = failure;
    eprintln!(
        "proptest: {name} failed on case {case}; minimal failing input after {shrinks} \
         shrinks: {minimal:?}"
    );
    test(minimal);
    panic!("{name}: the minimal input passed when run again; it failed with: {message}");
}

/// Runs `f`, its panic message (if any) kept off the output.
fn quietly(f: impl FnOnce()) -> Result<(), String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

thread_local! {
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Wraps the panic hook once so panics on a thread inside [`quietly`]
/// print nothing; every other panic prints as before.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

/// Shrinks the failing case `draws`: a candidate replaces it when its
/// case fails too and draws less — fewer draws, or as many and the
/// first that differs lower — so the search ends.
fn shrink<S: Strategy>(
    strategy: &S,
    test: &impl Fn(S::Value),
    mut draws: Vec<u64>,
    case: u32,
    mut message: String,
) -> Failure<S::Value> {
    let (mut budget, mut shrinks) = (SHRINK_BUDGET, 0);
    // The draws `candidate`'s case makes and its message, if it fails
    // and draws less than `best`.
    let mut fails = |candidate: Vec<u64>, best: &[u64]| -> Option<(Vec<u64>, String)> {
        budget = budget.checked_sub(1)?;
        let mut rng = TestRng::replaying(candidate);
        let mut value = None;
        // A candidate the strategy rejects (a filter that never passes)
        // is no case.
        quietly(|| value = Some(strategy.generate(&mut rng))).ok()?;
        let (value, used) = (value?, rng.take_draws());
        if (used.len(), &used[..]) >= (best.len(), best) {
            return None;
        }
        quietly(|| test(value)).err().map(|message| (used, message))
    };
    let mut progress = true;
    while progress {
        progress = false;
        for size in [8, 4, 2, 1] {
            let mut i = 0;
            while i + size <= draws.len() {
                let mut candidate = draws.clone();
                candidate.drain(i..i + size);
                match fails(candidate, &draws) {
                    Some((used, m)) => {
                        (draws, message, progress, shrinks) = (used, m, true, shrinks + 1)
                    }
                    None => i += 1,
                }
            }
        }
        let mut i = 0;
        while let Some(&value) = draws.get(i) {
            // The lowest value of draw `i` that still fails.
            let (mut lo, mut hi) = (0, value);
            while lo < hi {
                let mut candidate = draws.clone();
                candidate[i] = lo + (hi - lo) / 2;
                match fails(candidate, &draws) {
                    Some((used, m)) => {
                        (draws, message, progress, shrinks) = (used, m, true, shrinks + 1);
                        hi = draws.get(i).map_or(0, |&v| v.min(hi));
                    }
                    None => lo = lo + (hi - lo) / 2 + 1,
                }
            }
            i += 1;
        }
    }
    let minimal = strategy.generate(&mut TestRng::replaying(draws));
    Failure { case, minimal, shrinks, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::strategy::vec;

    #[test]
    fn a_failing_property_reports_its_minimal_case() {
        // Fails when `x` reaches 100 and the vec holds 3 or more elements:
        // the minimal case is exactly 100 and three zeros, whatever input
        // failed first.
        let strategy = (0u32..1000, vec(0u8..10, 0..20));
        let test = |(x, v): (u32, Vec<u8>)| assert!(x < 100 || v.len() < 3, "x {x}, v {v:?}");
        let failure = TestRunner::new(Config::with_cases(256), "minimal")
            .run(&strategy, &test)
            .expect_err("most inputs fail");
        assert_eq!(failure.minimal, (100, vec![0, 0, 0]));
        assert!(failure.shrinks > 0);
        assert_eq!(failure.message, "x 100, v [0, 0, 0]");
    }

    #[test]
    fn a_passing_property_reports_nothing() {
        let test = |x: u8| assert!(x < 10);
        assert!(TestRunner::new(Config::with_cases(64), "passing").run(&(0u8..10), &test).is_ok());
    }

    #[test]
    fn a_replayed_rng_draws_the_recorded_values() {
        let mut rng = TestRng::from_name("replay");
        let drawn = [rng.below(7), rng.next_u64(), rng.below(1000)];
        let mut replay = TestRng::replaying(rng.take_draws());
        assert_eq!([replay.below(7), replay.next_u64(), replay.below(1000)], drawn);
        // Past the recorded draws, and above a smaller bound, it draws
        // the least value.
        assert_eq!(replay.below(5), 0);
        assert_eq!(TestRng::replaying(vec![9]).below(4), 3);
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("alpha");
        let mut b = TestRng::from_name("alpha");
        let mut c = TestRng::from_name("beta");
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = TestRng::from_name("unit");
        for _ in 0..1000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
