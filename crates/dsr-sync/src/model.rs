//! Public surface of the concurrency model checker.
//!
//! In normal builds every entry point degrades to a cheap single-execution
//! smoke run, so model tests still compile and execute once under
//! `cargo test`. Under
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

/// Builder for one exploration run: an exhaustive DFS over interleavings
/// with at most two forced context switches per schedule and a budget of
/// 50 000 visible operations per schedule. See the module docs for an
/// example.
#[derive(Debug, Clone)]
// In normal builds check() runs the closure once and the bound is unread.
#[cfg_attr(not(dsr_model), allow(dead_code))]
pub struct Model {
    max_schedules: u64,
}

impl Default for Model {
    fn default() -> Model {
        Model::new()
    }
}

impl Model {
    pub fn new() -> Model {
        Model {
            max_schedules: 4096,
        }
    }

    /// Stop after this many schedules even if the DFS is not exhausted
    /// (the report is then marked `truncated`).
    pub fn max_schedules(mut self, n: u64) -> Model {
        self.max_schedules = n;
        self
    }

    /// Explore interleavings of `f`. `Err` carries the first failing
    /// schedule. In normal (non-`dsr_model`) builds this runs `f` once.
    #[cfg(dsr_model)]
    pub fn check(&self, f: impl Fn()) -> Result<ModelReport, ModelFailure> {
        engine::run(self.max_schedules, engine::StartMode::Dfs, &f)
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
        engine::run(self.max_schedules, engine::StartMode::Replay(script), &f)
    }

    /// Single smoke execution (normal build; the schedule is ignored).
    #[cfg(not(dsr_model))]
    pub fn replay(&self, _schedule: &str, f: impl Fn()) -> Result<ModelReport, ModelFailure> {
        self.check(f)
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
