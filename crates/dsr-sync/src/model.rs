//! Public surface of the concurrency model checker.
//!
//! In normal builds every entry point degrades to a cheap single-execution
//! smoke run (and [`mutation_enabled`] is a compile-time `false`), so model
//! tests still compile and execute once under `cargo test`. Under
//! `RUSTFLAGS="--cfg dsr_model"` the same tests drive the schedule
//! explorer in the crate-private `engine` module.
//!
//! # Quick start
//!
//! ```no_run
//! use dsr_sync::model::{self, Model};
//! use dsr_sync::{Arc, Mutex};
//!
//! let report = Model::new()
//!     .check(|| {
//!         let m = Arc::new(Mutex::new(0u32));
//!         let m2 = Arc::clone(&m);
//!         let h = dsr_sync::thread::spawn(move || *dsr_sync::lock(&m2) += 1);
//!         *dsr_sync::lock(&m) += 1;
//!         h.join().unwrap();
//!         assert_eq!(*dsr_sync::lock(&m), 2);
//!     })
//!     .expect("no interleaving violates the invariant");
//! println!("explored {} schedules", report.schedules_explored);
//! ```
//!
//! A failure carries a *schedule string*; feed it to [`Model::replay`] to
//! re-run exactly the failing interleaving under a debugger or with extra
//! logging:
//!
//! ```text
//! model failure: assertion failed: ...
//!   schedule: 1.0.2.0.1   (replay with Model::new().replay("1.0.2.0.1", f))
//! ```

#[cfg(dsr_model)]
use crate::engine;

/// Names of the seeded mutation bugs used to prove the checker's detection
/// power (see the `model_mutation_*` tests in dsr-service). Production code
/// consults [`mutation_enabled`] at the mutation site; in normal builds
/// that is a const `false` and the code is unchanged.
pub const MUTATION_CACHE_SKIP_GENERATION_RECHECK: &str = "cache_skip_generation_recheck";
/// See [`MUTATION_CACHE_SKIP_GENERATION_RECHECK`].
pub const MUTATION_BATCHER_RELEASE_BEFORE_PUBLISH: &str = "batcher_release_before_publish";

/// True when compiled with `--cfg dsr_model` (exploration available).
#[inline(always)]
pub const fn is_model_build() -> bool {
    cfg!(dsr_model)
}

/// Runs `f` with the model context cleared: primitives touched inside —
/// and, crucially, threads spawned inside — behave as non-model even when
/// the caller is a model thread. This is the escape hatch for
/// *process-global* services (e.g. the lazily created `SlavePool` in
/// dsr-cluster) whose threads must outlive any single model execution: if
/// such a thread were registered as a model thread, the execution could
/// never finish waiting for it. In normal builds this is just `f()`.
#[cfg(dsr_model)]
pub fn without_model<R>(f: impl FnOnce() -> R) -> R {
    engine::with_cleared_ctx(f)
}

/// See the `dsr_model` variant; a plain call in normal builds.
#[cfg(not(dsr_model))]
#[inline(always)]
pub fn without_model<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Whether the named seeded bug is active in the current model execution.
#[cfg(dsr_model)]
pub fn mutation_enabled(name: &str) -> bool {
    match engine::ctx() {
        Some(c) => c.exec.st().mutation_enabled(name),
        None => false,
    }
}

/// Compile-time `false` in normal builds: mutation sites cost nothing.
#[cfg(not(dsr_model))]
#[inline(always)]
pub fn mutation_enabled(_name: &str) -> bool {
    false
}

/// Outcome of a successful exploration.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Number of schedules executed.
    pub schedules_explored: u64,
    /// True if exploration stopped at `max_schedules` before exhausting
    /// the schedule space.
    pub truncated: bool,
}

/// A failing interleaving: what went wrong, where, and how to re-run it.
#[derive(Debug, Clone)]
pub struct ModelFailure {
    /// Panic/assertion/deadlock/race message from the failing execution.
    pub message: String,
    /// Replayable schedule string (pass to [`Model::replay`]).
    pub schedule: String,
    /// Tail of the per-thread operation trace at the point of failure.
    pub trace: Vec<String>,
    /// How many schedules ran before this one failed.
    pub schedules_explored: u64,
}

impl std::fmt::Display for ModelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model failure: {}", self.message)?;
        writeln!(
            f,
            "  schedule: {:?}  (replay with Model::new().replay(schedule, f))",
            self.schedule
        )?;
        writeln!(
            f,
            "  after {} schedule(s); trace tail:",
            self.schedules_explored
        )?;
        for line in self.trace.iter().rev().take(30).rev() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ModelFailure {}

/// Builder for one exploration run. See the module docs for an example.
#[derive(Debug, Clone)]
// In normal builds check() runs the closure once and most knobs are unread.
#[cfg_attr(not(dsr_model), allow(dead_code))]
pub struct Model {
    preemption_bound: u32,
    max_schedules: u64,
    max_steps: u64,
    trace_cap: usize,
    random: Option<(u64, u64)>,
    mutations: Vec<&'static str>,
}

impl Default for Model {
    fn default() -> Model {
        Model::new()
    }
}

impl Model {
    pub fn new() -> Model {
        Model {
            preemption_bound: 2,
            max_schedules: 4096,
            max_steps: 50_000,
            trace_cap: 200,
            random: None,
            mutations: Vec::new(),
        }
    }

    /// Max forced context switches away from a runnable thread per
    /// schedule (DFS mode). Most real bugs need very few preemptions;
    /// 2–3 keeps small tests exhaustive and fast.
    pub fn preemption_bound(mut self, bound: u32) -> Model {
        self.preemption_bound = bound;
        self
    }

    /// Stop after this many schedules even if the DFS is not exhausted
    /// (the report is then marked `truncated`).
    pub fn max_schedules(mut self, n: u64) -> Model {
        self.max_schedules = n;
        self
    }

    /// Per-schedule step budget (guards against unbounded spinning).
    pub fn max_steps(mut self, n: u64) -> Model {
        self.max_steps = n;
        self
    }

    /// Use seeded random-walk exploration (`iters` schedules from `seed`)
    /// instead of exhaustive DFS — for state spaces too big to enumerate.
    pub fn random(mut self, seed: u64, iters: u64) -> Model {
        self.random = Some((seed, iters));
        self
    }

    /// Enable a seeded mutation bug for this run (see the `MUTATION_*`
    /// constants).
    pub fn mutation(mut self, name: &'static str) -> Model {
        self.mutations.push(name);
        self
    }

    /// Explore interleavings of `f`. `Err` carries the first failing
    /// schedule. In normal (non-`dsr_model`) builds this runs `f` once.
    #[cfg(dsr_model)]
    pub fn check(&self, f: impl Fn()) -> Result<ModelReport, ModelFailure> {
        let mode = match self.random {
            Some((seed, iters)) => engine::StartMode::Random { seed, iters },
            None => engine::StartMode::Dfs,
        };
        engine::run(self.run_cfg(mode), &f)
    }

    /// Single smoke execution (normal build).
    #[cfg(not(dsr_model))]
    pub fn check(&self, f: impl Fn()) -> Result<ModelReport, ModelFailure> {
        f();
        Ok(ModelReport {
            schedules_explored: 1,
            truncated: false,
        })
    }

    /// Re-run exactly one recorded schedule (from [`ModelFailure::schedule`]).
    #[cfg(dsr_model)]
    pub fn replay(&self, schedule: &str, f: impl Fn()) -> Result<ModelReport, ModelFailure> {
        let script = engine::decode_schedule(schedule);
        engine::run(self.run_cfg(engine::StartMode::Replay(script)), &f)
    }

    /// Single smoke execution (normal build; the schedule is ignored).
    #[cfg(not(dsr_model))]
    pub fn replay(&self, _schedule: &str, f: impl Fn()) -> Result<ModelReport, ModelFailure> {
        self.check(f)
    }

    #[cfg(dsr_model)]
    fn run_cfg(&self, mode: engine::StartMode) -> engine::RunCfg {
        engine::RunCfg {
            preemption_bound: self.preemption_bound,
            max_schedules: self.max_schedules,
            max_steps: self.max_steps,
            trace_cap: self.trace_cap,
            mutations: self.mutations.clone(),
            mode,
        }
    }
}

/// Convenience wrapper: explore with defaults, panic (with the replayable
/// schedule) on the first failing interleaving.
pub fn explore(f: impl Fn()) {
    if let Err(failure) = Model::new().check(f) {
        panic!("{failure}");
    }
}

// ---------------------------------------------------------------------------
// RaceCell facade
// ---------------------------------------------------------------------------

#[cfg(dsr_model)]
pub use crate::instrumented::RaceCell;

/// Normal-build `RaceCell`: a plain mutex-protected cell (no detection).
#[cfg(not(dsr_model))]
#[derive(Debug)]
pub struct RaceCell<T> {
    value: std::sync::Mutex<T>,
}

#[cfg(not(dsr_model))]
impl<T: Clone> RaceCell<T> {
    pub fn new(value: T) -> RaceCell<T> {
        RaceCell {
            value: std::sync::Mutex::new(value),
        }
    }

    pub fn read(&self) -> T {
        self.value
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    pub fn write(&self, value: T) {
        *self
            .value
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = value;
    }
}
