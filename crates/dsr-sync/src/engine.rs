//! The controlled scheduler behind `--cfg dsr_model`.
//!
//! ## How exploration works
//!
//! [`run`] executes the test closure repeatedly. Within one execution, all
//! *model threads* (the calling thread plus everything spawned through
//! `dsr_sync::thread` while a model context is active) are serialized: a
//! single `active` token decides who runs, and everyone else parks on a
//! condvar. Every visible operation calls [`ExecShared::op`], which
//!
//! 1. takes a **scheduling choice**: if more than one thread is runnable
//!    (and the preemption budget is not exhausted) the controller picks who
//!    runs next — this is where interleavings branch;
//! 2. runs the operation's *attempt* under the scheduler lock. An attempt
//!    either completes ([`Attempt::Done`]) or reports that it must block on
//!    an object ([`Attempt::Block`]), in which case the thread is parked
//!    until [`ExecState::wake`] marks it runnable and the scheduler grants
//!    it the token again, then the attempt is retried.
//!
//! The controller is either an exhaustive DFS over choice points with a
//! preemption bound (complete for small tests) or a replay of a recorded
//! schedule. The sequence of choice indices *is* the schedule: it is
//! attached to every failure and can be fed back via `Model::replay`.
//!
//! ## Hybrid executions
//!
//! Threads without a model context (e.g. the process-global `SlavePool`
//! workers) are not scheduled; they run on real OS time and interact with
//! instrumented primitives through their `std` internals. When such a
//! thread unblocks a parked model thread it does so through the object's
//! registered waker ([`ExecShared::wake_object`]). When no model thread is
//! runnable the scheduler polls briefly for such external progress before
//! declaring a deadlock. Purely-model executions stay
//! fully deterministic; hybrid ones remain correct but the DFS may observe
//! divergent schedules (it clamps and keeps exploring).
//!
//! ## Vector clocks
//!
//! Each thread carries a vector clock. Release-style operations join the
//! thread's clock into the object's clock; acquire-style operations join
//! the object's clock into the thread's. `RaceCell` accesses compare these
//! clocks: a write must happen-after every prior access, a read must
//! happen-after the last write — anything else is reported as a data race
//! with the two thread names involved.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Duration;

use crate::model::{ModelFailure, ModelReport};

/// Sentinel for "no thread holds the token" (someone must be elected).
const NO_ACTIVE: usize = usize::MAX;
/// Idle milliseconds of real time before declaring a model deadlock.
const DEADLOCK_MS: u64 = 1000;
/// Milliseconds to keep pumping teardown after a failure before giving up.
const TEARDOWN_MS: u64 = 10_000;
/// Forced context switches away from a runnable thread per schedule. Most
/// real bugs need very few; two keeps small tests exhaustive and fast.
const PREEMPTION_BOUND: u32 = 2;
/// Visible operations per schedule (guards against unbounded spinning).
const MAX_STEPS: u64 = 50_000;
/// Trace lines kept for a failure report.
const TRACE_CAP: usize = 200;

/// Object ids: thread-join objects are the tid itself; everything else
/// (mutexes, condvars, channels, cells) allocates above `OBJ_BASE`.
const OBJ_BASE: u64 = 1 << 32;

static NEXT_OBJ: StdAtomicU64 = StdAtomicU64::new(OBJ_BASE);

pub(crate) fn next_obj_id() -> u64 {
    NEXT_OBJ.fetch_add(1, Ordering::Relaxed)
}

fn thread_obj(tid: usize) -> u64 {
    tid as u64
}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u32>);

impl VClock {
    pub(crate) fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, o) in self.0.iter_mut().zip(other.0.iter()) {
            *s = (*s).max(*o);
        }
    }

    /// `self` happens-before-or-equals `other`.
    pub(crate) fn le(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.0.get(i).copied().unwrap_or(0))
    }
}

// ---------------------------------------------------------------------------
// Controller (exploration strategy)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct PathEntry {
    chosen: u32,
    options: u32,
}

#[derive(Debug)]
pub(crate) enum Mode {
    Dfs { path: Vec<PathEntry>, pos: usize },
    Replay { script: Vec<u32>, pos: usize },
}

pub(crate) enum StartMode {
    Dfs,
    Replay(Vec<u32>),
}

impl Mode {
    fn new(start: &StartMode) -> Mode {
        match start {
            StartMode::Dfs => Mode::Dfs {
                path: Vec::new(),
                pos: 0,
            },
            StartMode::Replay(script) => Mode::Replay {
                script: script.clone(),
                pos: 0,
            },
        }
    }

    fn choose(&mut self, options: u32) -> u32 {
        match self {
            Mode::Dfs { path, pos } => {
                let c = if *pos < path.len() {
                    // Re-walking a recorded prefix. Hybrid executions can
                    // diverge (external timing); clamp and keep going.
                    let e = &mut path[*pos];
                    e.options = options;
                    e.chosen.min(options - 1)
                } else {
                    path.push(PathEntry { chosen: 0, options });
                    0
                };
                *pos += 1;
                c
            }
            Mode::Replay { script, pos } => {
                let c = script.get(*pos).copied().unwrap_or(0).min(options - 1);
                *pos += 1;
                c
            }
        }
    }

    /// Prepare the next execution. Returns false when exploration is done.
    fn advance(&mut self) -> bool {
        match self {
            Mode::Dfs { path, pos } => {
                *pos = 0;
                while let Some(last) = path.last_mut() {
                    if last.chosen + 1 < last.options {
                        last.chosen += 1;
                        return true;
                    }
                    path.pop();
                }
                false
            }
            Mode::Replay { .. } => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Status {
    Runnable,
    Blocked { obj: u64 },
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    clock: VClock,
    name: String,
}

pub(crate) struct ExecState {
    threads: Vec<ThreadState>,
    active: usize,
    mode: Mode,
    /// Choice indices taken so far this execution (the schedule).
    choices: Vec<u32>,
    trace: Vec<String>,
    objects: HashMap<u64, VClock>,
    failure: Option<(String, String, Vec<String>)>, // (message, schedule, trace)
    preemptions: u32,
    steps: u64,
}

impl ExecState {
    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    fn note(&mut self, tid: usize, label: &str) {
        if self.trace.len() >= 2 * TRACE_CAP {
            self.trace.drain(..TRACE_CAP);
        }
        let name = &self.threads[tid].name;
        self.trace.push(format!("t{tid}({name}) {label}"));
    }

    /// Record the first failure; later ones are teardown noise.
    pub(crate) fn fail(&mut self, message: String) {
        if self.failure.is_none() {
            let schedule = encode_schedule(&self.choices);
            self.failure = Some((message, schedule, self.trace.clone()));
        }
    }

    pub(crate) fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Mark every model thread blocked on `obj` runnable.
    pub(crate) fn wake(&mut self, obj: u64) {
        for t in &mut self.threads {
            if t.status == (Status::Blocked { obj }) {
                t.status = Status::Runnable;
            }
        }
    }

    pub(crate) fn thread_finished(&self, tid: usize) -> bool {
        self.threads[tid].status == Status::Finished
    }

    // --- happens-before bookkeeping -------------------------------------

    /// Acquire edge: object clock flows into the thread.
    pub(crate) fn hb_acquire(&mut self, tid: usize, obj: u64) {
        let oc = self.objects.entry(obj).or_default().clone();
        self.threads[tid].clock.join(&oc);
    }

    /// Release edge: thread clock flows into the object.
    pub(crate) fn hb_release(&mut self, tid: usize, obj: u64) {
        let tc = self.threads[tid].clock.clone();
        self.objects.entry(obj).or_default().join(&tc);
        self.threads[tid].clock.tick(tid);
    }

    pub(crate) fn clock_of(&self, tid: usize) -> VClock {
        self.threads[tid].clock.clone()
    }

    pub(crate) fn thread_name(&self, tid: usize) -> String {
        self.threads[tid].name.clone()
    }

    fn choose(&mut self, options: u32) -> u32 {
        let c = self.mode.choose(options);
        self.choices.push(c);
        c
    }
}

// ---------------------------------------------------------------------------
// Shared execution handle
// ---------------------------------------------------------------------------

pub(crate) struct ExecShared {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
}

impl std::fmt::Debug for ExecShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecShared").finish_non_exhaustive()
    }
}

/// Result of one attempt at a visible operation.
pub(crate) enum Attempt<R> {
    Done(R),
    Block { obj: u64 },
}

/// Panic payload used to tear down model threads after a failure.
pub(crate) struct ModelAbort;

type Guard<'a> = StdMutexGuard<'a, ExecState>;

impl ExecShared {
    fn new(state: ExecState) -> Arc<Self> {
        Arc::new(ExecShared {
            state: StdMutex::new(state),
            cv: StdCondvar::new(),
        })
    }

    pub(crate) fn st(&self) -> Guard<'_> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn abort_if_failed(&self, st: &Guard<'_>) {
        if st.failure.is_some() {
            self.cv.notify_all();
            panic::panic_any(ModelAbort);
        }
    }

    /// One visible operation of model thread `tid`. See module docs.
    pub(crate) fn op<R>(
        &self,
        tid: usize,
        label: &str,
        mut attempt: impl FnMut(&mut ExecState) -> Attempt<R>,
    ) -> R {
        let mut st = self.st();
        self.abort_if_failed(&st);
        st.steps += 1;
        if st.steps > MAX_STEPS {
            st.fail(format!(
                "step budget ({MAX_STEPS}) exceeded at `{label}` — shrink the test"
            ));
            self.abort_if_failed(&st);
        }
        st.note(tid, label);
        st = self.yield_choice(st, tid);
        loop {
            self.abort_if_failed(&st);
            match attempt(&mut st) {
                Attempt::Done(r) => {
                    self.abort_if_failed(&st);
                    self.cv.notify_all();
                    return r;
                }
                Attempt::Block { obj } => {
                    st.threads[tid].status = Status::Blocked { obj };
                    st.active = NO_ACTIVE;
                    self.cv.notify_all();
                    st = self.wait_active(st, tid);
                }
            }
        }
    }

    /// A pure scheduling point (no state change): lets other threads run.
    pub(crate) fn schedule_point(&self, tid: usize, label: &str) {
        self.op(tid, label, |_| Attempt::Done(()));
    }

    /// The branch point: possibly hand the token to another runnable thread.
    fn yield_choice<'a>(&'a self, mut st: Guard<'a>, tid: usize) -> Guard<'a> {
        let runnable = st.runnable();
        if runnable.len() > 1 {
            let can_preempt = st.preemptions < PREEMPTION_BOUND;
            if can_preempt {
                let idx = st.choose(runnable.len() as u32) as usize;
                let chosen = runnable[idx];
                if chosen != tid {
                    st.preemptions += 1;
                    st.active = chosen;
                    self.cv.notify_all();
                    st = self.wait_active(st, tid);
                }
            }
        }
        st
    }

    /// Park until this thread is runnable and holds the token. Performs
    /// elections and deadlock detection while parked.
    fn wait_active<'a>(&'a self, mut st: Guard<'a>, tid: usize) -> Guard<'a> {
        let mut idle_ms: u64 = 0;
        loop {
            self.abort_if_failed(&st);
            if st.threads[tid].status == Status::Runnable && st.active == tid {
                return st;
            }
            if st.active == NO_ACTIVE {
                let runnable = st.runnable();
                if !runnable.is_empty() {
                    let idx = if runnable.len() == 1 {
                        0
                    } else {
                        st.choose(runnable.len() as u32) as usize
                    };
                    st.active = runnable[idx];
                    self.cv.notify_all();
                    idle_ms = 0;
                    continue;
                }
                // No model thread can run. Give external (non-model)
                // threads a moment, then declare a deadlock.
                if idle_ms >= DEADLOCK_MS && lowest_blocked(&st) == Some(tid) {
                    let detail = blocked_summary(&st);
                    st.fail(format!(
                        "deadlock: every model thread is blocked ({detail})"
                    ));
                    self.cv.notify_all();
                    continue;
                }
            }
            let (g, to) = self
                .cv
                .wait_timeout(st, Duration::from_millis(1))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = g;
            if to.timed_out() && st.active == NO_ACTIVE {
                idle_ms += 1;
            }
        }
    }

    /// External wake: a (possibly non-model) thread changed an object's
    /// state in a way that may unblock parked model threads.
    pub(crate) fn wake_object(&self, obj: u64) {
        let mut st = self.st();
        st.wake(obj);
        self.cv.notify_all();
    }

    // --- thread lifecycle -----------------------------------------------

    pub(crate) fn register_child(&self, parent: usize, name: Option<String>) -> usize {
        let mut st = self.st();
        let clock = st.threads[parent].clock.clone();
        st.threads[parent].clock.tick(parent);
        let tid = st.threads.len();
        st.threads.push(ThreadState {
            status: Status::Runnable,
            clock,
            name: name.unwrap_or_else(|| format!("thread-{tid}")),
        });
        st.note(parent, &format!("spawn t{tid}"));
        tid
    }

    /// Park a fresh child until the scheduler grants it the token.
    pub(crate) fn wait_first(&self, tid: usize) {
        let st = self.st();
        drop(self.wait_active(st, tid));
    }

    pub(crate) fn finish_thread(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.st();
        st.note(tid, "exit");
        let clk = st.threads[tid].clock.clone();
        st.objects.entry(thread_obj(tid)).or_default().join(&clk);
        st.threads[tid].status = Status::Finished;
        if st.active == tid {
            st.active = NO_ACTIVE;
        }
        if let Some(msg) = panic_msg {
            st.fail(msg);
        }
        st.wake(thread_obj(tid));
        self.cv.notify_all();
    }

    /// Run the execution to completion after the root closure returned:
    /// keep electing/waking until every model thread has finished.
    fn pump(&self) {
        let mut st = self.st();
        let mut idle_ms: u64 = 0;
        let mut teardown_ms: u64 = 0;
        loop {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                return;
            }
            if st.failure.is_some() {
                teardown_ms += 1;
                if teardown_ms > TEARDOWN_MS {
                    // Leak the stuck threads rather than hang the suite;
                    // the failure is already recorded.
                    return;
                }
            }
            if st.active == NO_ACTIVE {
                let runnable = st.runnable();
                if !runnable.is_empty() {
                    // After a failure the choice is irrelevant (threads
                    // abort at their next op) — grant in tid order.
                    let idx = if runnable.len() == 1 || st.failure.is_some() {
                        0
                    } else {
                        st.choose(runnable.len() as u32) as usize
                    };
                    st.active = runnable[idx];
                    self.cv.notify_all();
                    idle_ms = 0;
                } else if st.failure.is_none() && idle_ms >= DEADLOCK_MS {
                    let detail = blocked_summary(&st);
                    st.fail(format!(
                        "deadlock after main returned: model threads still blocked ({detail})"
                    ));
                    self.cv.notify_all();
                    continue;
                }
            }
            let (g, to) = self
                .cv
                .wait_timeout(st, Duration::from_millis(1))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = g;
            if to.timed_out() {
                idle_ms += 1;
                if st.failure.is_some() {
                    // Parked threads re-check the failure flag on wakeups.
                    self.cv.notify_all();
                }
            }
        }
    }
}

fn lowest_blocked(st: &ExecState) -> Option<usize> {
    st.threads
        .iter()
        .enumerate()
        .find_map(|(i, t)| matches!(t.status, Status::Blocked { .. }).then_some(i))
}

fn blocked_summary(st: &ExecState) -> String {
    let parts: Vec<String> = st
        .threads
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t.status {
            Status::Blocked { obj } => Some(format!("t{i}({}) on obj {obj}", t.name)),
            _ => None,
        })
        .collect();
    parts.join(", ")
}

// ---------------------------------------------------------------------------
// Thread-local model context
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    pub exec: Arc<ExecShared>,
    pub tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Runs `f` with the model context cleared: primitives touched inside (and
/// threads spawned inside) behave as non-model. Backs
/// [`crate::model::without_model`] — the escape hatch for process-global
/// services whose threads must outlive any single model execution.
pub(crate) fn with_cleared_ctx<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Ctx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let saved = self.0.take();
            CTX.with(|c| *c.borrow_mut() = saved);
        }
    }
    let _restore = Restore(CTX.with(|c| c.borrow_mut().take()));
    f()
}

pub(crate) struct CtxGuard;

impl CtxGuard {
    pub(crate) fn set(ctx: Ctx) -> CtxGuard {
        CTX.with(|c| *c.borrow_mut() = Some(ctx));
        CtxGuard
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = None);
    }
}

// ---------------------------------------------------------------------------
// Schedule encoding
// ---------------------------------------------------------------------------

fn encode_schedule(choices: &[u32]) -> String {
    let body: Vec<String> = choices.iter().map(|c| c.to_string()).collect();
    body.join(".")
}

pub(crate) fn decode_schedule(s: &str) -> Vec<u32> {
    s.split('.')
        .filter(|p| !p.is_empty())
        .filter_map(|p| p.trim().parse().ok())
        .collect()
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Suppress panic output from model threads: their panics are captured and
/// reported through `ModelFailure` instead (and abort cascades would spam).
fn install_panic_hook() {
    use std::sync::OnceLock;
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if ctx().is_none() {
                prev(info);
            }
        }));
    });
}

pub(crate) fn payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Explores `f` from `start` until the schedule space is exhausted, a
/// schedule fails, or `max_schedules` schedules have run.
pub(crate) fn run(
    max_schedules: u64,
    start: StartMode,
    f: &dyn Fn(),
) -> Result<ModelReport, ModelFailure> {
    install_panic_hook();
    let mut mode = Mode::new(&start);
    let mut schedules: u64 = 0;
    loop {
        schedules += 1;
        let state = ExecState {
            threads: vec![ThreadState {
                status: Status::Runnable,
                clock: VClock::default(),
                name: "main".to_string(),
            }],
            active: 0,
            mode,
            choices: Vec::new(),
            trace: Vec::new(),
            objects: HashMap::new(),
            failure: None,
            preemptions: 0,
            steps: 0,
        };
        let shared = ExecShared::new(state);

        {
            let _ctx = CtxGuard::set(Ctx {
                exec: Arc::clone(&shared),
                tid: 0,
            });
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            if let Err(p) = result {
                if !p.is::<ModelAbort>() {
                    shared.st().fail(payload_message(p.as_ref()));
                }
            }
            shared.finish_thread(0, None);
            shared.pump();
        }

        let (failure, next_mode) = {
            let mut st = shared.st();
            let failure = st.failure.take();
            let next_mode = std::mem::replace(
                &mut st.mode,
                Mode::Replay {
                    script: Vec::new(),
                    pos: 0,
                },
            );
            (failure, next_mode)
        };
        mode = next_mode;

        if let Some((message, schedule, trace)) = failure {
            return Err(ModelFailure {
                message,
                schedule,
                trace,
                schedules_explored: schedules,
            });
        }
        if schedules >= max_schedules {
            return Ok(ModelReport {
                schedules_explored: schedules,
                truncated: true,
            });
        }
        if !mode.advance() {
            return Ok(ModelReport {
                schedules_explored: schedules,
                truncated: false,
            });
        }
    }
}
