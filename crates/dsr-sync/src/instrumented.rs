//! Instrumented sync primitives (compiled only under `--cfg dsr_model`).
//!
//! Each primitive wraps its `std` counterpart plus an [`ObjCore`]: a lazy
//! object id and a registered waker. When the calling thread has a model
//! context (it was spawned inside `Model::check`), operations go through
//! the scheduler ([`crate::engine::ExecShared::op`]); otherwise they pass
//! straight through to the inner `std` primitive, calling
//! [`ObjCore::wake`] after any state change that could unblock a parked
//! model thread. That hybrid rule lets model code interoperate with
//! ordinary threads (the process-global `SlavePool`, TCP reader threads)
//! in the same execution.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc as std_mpsc;
use std::sync::{
    Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard,
    OnceLock, PoisonError, Weak,
};
use std::time::Duration;

use crate::engine::{ctx, next_obj_id, Attempt, Ctx, CtxGuard, ExecShared, ModelAbort};

// ---------------------------------------------------------------------------
// ObjCore: identity + waker shared by every instrumented object
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct ObjCore {
    id: OnceLock<u64>,
    waker: StdMutex<Option<Weak<ExecShared>>>,
}

impl ObjCore {
    pub(crate) const fn new() -> ObjCore {
        ObjCore {
            id: OnceLock::new(),
            waker: StdMutex::new(None),
        }
    }

    pub(crate) fn id(&self) -> u64 {
        *self.id.get_or_init(next_obj_id)
    }

    /// Remember which execution has threads parked on this object.
    pub(crate) fn register(&self, exec: &Arc<ExecShared>) {
        let mut w = self.waker.lock().unwrap_or_else(PoisonError::into_inner);
        *w = Some(Arc::downgrade(exec));
    }

    /// Wake model threads parked on this object (no-op outside a model run).
    pub(crate) fn wake(&self) {
        let weak = {
            let w = self.waker.lock().unwrap_or_else(PoisonError::into_inner);
            w.clone()
        };
        if let Some(exec) = weak.and_then(|w| w.upgrade()) {
            exec.wake_object(self.id());
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

pub struct Mutex<T> {
    core: ObjCore,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Mutex<T> {
        Mutex {
            core: ObjCore::new(),
            inner: StdMutex::new(t),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(c) = ctx() {
            let obj = self.core.id();
            let exec = Arc::clone(&c.exec);
            let (inner, poisoned) =
                c.exec
                    .op(c.tid, "mutex lock", |st| match self.inner.try_lock() {
                        Ok(g) => {
                            st.hb_acquire(c.tid, obj);
                            Attempt::Done((g, false))
                        }
                        Err(std::sync::TryLockError::WouldBlock) => {
                            self.core.register(&exec);
                            Attempt::Block { obj }
                        }
                        Err(std::sync::TryLockError::Poisoned(e)) => {
                            st.hb_acquire(c.tid, obj);
                            Attempt::Done((e.into_inner(), true))
                        }
                    });
            let guard = MutexGuard {
                inner: Some(inner),
                lock: self,
                model: Some(c),
            };
            if poisoned {
                Err(PoisonError::new(guard))
            } else {
                Ok(guard)
            }
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    lock: self,
                    model: None,
                }),
                Err(e) => Err(PoisonError::new(MutexGuard {
                    inner: Some(e.into_inner()),
                    lock: self,
                    model: None,
                })),
            }
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

pub struct MutexGuard<'a, T> {
    inner: Option<StdMutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
    model: Option<Ctx>,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Take the pieces out without running the release protocol (used by
    /// `Condvar::wait`, which releases as part of its own scheduler op).
    fn dismantle(mut self) -> (StdMutexGuard<'a, T>, &'a Mutex<T>, Option<Ctx>) {
        let inner = self.inner.take().expect("guard already dismantled");
        let lock = self.lock;
        let model = self.model.take();
        std::mem::forget(self);
        (inner, lock, model)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard dismantled")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard dismantled")
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let inner = match self.inner.take() {
            Some(g) => g,
            None => return,
        };
        match self.model.take() {
            Some(c) => {
                let obj = self.lock.core.id();
                {
                    let mut st = c.exec.st();
                    if !st.failed() {
                        st.hb_release(c.tid, obj);
                    }
                    drop(inner); // real unlock, still under the scheduler lock
                    st.wake(obj);
                }
                // A release is a visible op: give others a chance to grab
                // the lock before this thread proceeds. Skipped while
                // unwinding (a panic inside a scheduler op would abort).
                if !std::thread::panicking() {
                    c.exec.schedule_point(c.tid, "mutex unlock");
                } else {
                    c.exec.wake_object(obj);
                }
            }
            None => {
                drop(inner);
                self.lock.core.wake();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub struct Condvar {
    core: ObjCore,
    inner: StdCondvar,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            core: ObjCore::new(),
            inner: StdCondvar::new(),
        }
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let is_model_guard = guard.model.is_some();
        match (is_model_guard, ctx()) {
            (true, Some(c)) => {
                let (inner, lock, _) = guard.dismantle();
                let cv_obj = self.core.id();
                let mutex_obj = lock.core.id();
                let exec = Arc::clone(&c.exec);
                let mut held: Option<StdMutexGuard<'a, T>> = Some(inner);
                // The wait ends only when notified.
                c.exec.op(c.tid, "condvar wait", |st| {
                    if let Some(g) = held.take() {
                        // First attempt: release the mutex and park.
                        st.hb_release(c.tid, mutex_obj);
                        drop(g);
                        st.wake(mutex_obj);
                        self.core.register(&exec);
                        lock.core.register(&exec);
                        Attempt::Block { obj: cv_obj }
                    } else {
                        st.hb_acquire(c.tid, cv_obj);
                        Attempt::Done(())
                    }
                });
                lock.lock()
            }
            _ => {
                // Non-model thread (or guard acquired outside the model):
                // pass through to the std condvar on the inner guard.
                let (inner, lock, model) = guard.dismantle();
                let reassemble = |g: StdMutexGuard<'a, T>, model: Option<Ctx>| MutexGuard {
                    inner: Some(g),
                    lock,
                    model,
                };
                match self.inner.wait(inner) {
                    Ok(g) => Ok(reassemble(g, model)),
                    Err(e) => Err(PoisonError::new(reassemble(e.into_inner(), model))),
                }
            }
        }
    }

    pub fn notify_one(&self) {
        self.notify(false)
    }

    pub fn notify_all(&self) {
        self.notify(true)
    }

    fn notify(&self, all: bool) {
        if let Some(c) = ctx() {
            let obj = self.core.id();
            let label = if all { "notify_all" } else { "notify_one" };
            c.exec.op(c.tid, label, |st| {
                st.hb_release(c.tid, obj);
                // Conservatively wake every parked model waiter; spurious
                // wakeups are within the condvar contract.
                st.wake(obj);
                Attempt::Done(())
            });
        } else {
            self.core.wake();
        }
        // Real waiters (non-model threads parked on the inner condvar).
        if all {
            self.inner.notify_all();
        } else {
            self.inner.notify_one();
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

use std::sync::atomic::Ordering;

macro_rules! instrumented_atomic {
    ($Name:ident, $Std:ty, $T:ty) => {
        #[derive(Debug)]
        pub struct $Name {
            core: ObjCore,
            inner: $Std,
        }

        impl $Name {
            pub const fn new(v: $T) -> $Name {
                $Name {
                    core: ObjCore::new(),
                    inner: <$Std>::new(v),
                }
            }

            /// Non-`Relaxed` accesses are scheduling points carrying a
            /// full acquire+release happens-before edge (conservative).
            /// `Relaxed` accesses stay invisible to the scheduler so
            /// stats counters do not blow up the schedule space.
            fn sync_op<R>(&self, order: Ordering, label: &str, f: impl Fn() -> R) -> R {
                match (order, ctx()) {
                    (Ordering::Relaxed, _) | (_, None) => f(),
                    (_, Some(c)) => {
                        let obj = self.core.id();
                        c.exec.op(c.tid, label, |st| {
                            st.hb_acquire(c.tid, obj);
                            st.hb_release(c.tid, obj);
                            Attempt::Done(f())
                        })
                    }
                }
            }

            pub fn load(&self, order: Ordering) -> $T {
                self.sync_op(order, concat!(stringify!($Name), " load"), || {
                    self.inner.load(Ordering::SeqCst)
                })
            }

            pub fn store(&self, v: $T, order: Ordering) {
                self.sync_op(order, concat!(stringify!($Name), " store"), || {
                    self.inner.store(v, Ordering::SeqCst)
                })
            }

            pub fn swap(&self, v: $T, order: Ordering) -> $T {
                self.sync_op(order, concat!(stringify!($Name), " swap"), || {
                    self.inner.swap(v, Ordering::SeqCst)
                })
            }

            pub fn fetch_add(&self, v: $T, order: Ordering) -> $T {
                self.sync_op(order, concat!(stringify!($Name), " fetch_add"), || {
                    self.inner.fetch_add(v, Ordering::SeqCst)
                })
            }

            pub fn fetch_sub(&self, v: $T, order: Ordering) -> $T {
                self.sync_op(order, concat!(stringify!($Name), " fetch_sub"), || {
                    self.inner.fetch_sub(v, Ordering::SeqCst)
                })
            }

            pub fn fetch_max(&self, v: $T, order: Ordering) -> $T {
                self.sync_op(order, concat!(stringify!($Name), " fetch_max"), || {
                    self.inner.fetch_max(v, Ordering::SeqCst)
                })
            }
        }

        impl Default for $Name {
            fn default() -> $Name {
                $Name::new(0)
            }
        }
    };
}

instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

// ---------------------------------------------------------------------------
// mpsc
// ---------------------------------------------------------------------------

pub mod mpsc {
    use super::*;
    use std_mpsc::{RecvError, SendError, TryRecvError};

    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std_mpsc::channel();
        let core = Arc::new(ObjCore::new());
        (
            Sender {
                inner: Some(tx),
                core: Arc::clone(&core),
            },
            Receiver { inner: rx, core },
        )
    }

    #[derive(Debug)]
    pub struct Sender<T> {
        inner: Option<std_mpsc::Sender<T>>,
        core: Arc<ObjCore>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender {
                inner: self.inner.clone(),
                core: Arc::clone(&self.core),
            }
        }
    }

    impl<T> Sender<T> {
        fn tx(&self) -> &std_mpsc::Sender<T> {
            self.inner.as_ref().expect("sender dropped")
        }

        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            if let Some(c) = ctx() {
                let obj = self.core.id();
                let mut payload = Some(t);
                c.exec.op(c.tid, "channel send", |st| {
                    st.hb_release(c.tid, obj);
                    let r = self.tx().send(payload.take().expect("send retried"));
                    st.wake(obj);
                    Attempt::Done(r)
                })
            } else {
                let r = self.tx().send(t);
                self.core.wake();
                r
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            // Drop the inner sender first so a disconnect is visible to the
            // receiver before model threads parked on it are woken.
            self.inner.take();
            self.core.wake();
        }
    }

    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: std_mpsc::Receiver<T>,
        core: Arc<ObjCore>,
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let Some(c) = ctx() else {
                return self.inner.recv();
            };
            let obj = self.core.id();
            let exec = Arc::clone(&c.exec);
            c.exec
                .op(c.tid, "channel recv", |st| match self.inner.try_recv() {
                    Ok(v) => {
                        st.hb_acquire(c.tid, obj);
                        Attempt::Done(Ok(v))
                    }
                    Err(TryRecvError::Disconnected) => Attempt::Done(Err(RecvError)),
                    Err(TryRecvError::Empty) => {
                        self.core.register(&exec);
                        Attempt::Block { obj }
                    }
                })
        }
    }
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

pub mod thread {
    use super::*;
    use crate::engine::payload_message;

    #[derive(Debug)]
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        model: Option<(Arc<ExecShared>, usize)>,
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            if let (Some((exec, child)), Some(c)) = (self.model.as_ref(), ctx()) {
                debug_assert!(Arc::ptr_eq(exec, &c.exec));
                let child = *child;
                c.exec.op(c.tid, "join", |st| {
                    if st.thread_finished(child) {
                        st.hb_acquire(c.tid, child as u64);
                        Attempt::Done(())
                    } else {
                        Attempt::Block { obj: child as u64 }
                    }
                });
            }
            self.inner.join()
        }

        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }

        pub fn thread(&self) -> &std::thread::Thread {
            self.inner.thread()
        }
    }

    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        pub fn new() -> Builder {
            Builder { name: None }
        }

        pub fn name(mut self, name: String) -> Builder {
            self.name = Some(name);
            self
        }

        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let mut b = std::thread::Builder::new();
            if let Some(n) = &self.name {
                b = b.name(n.clone());
            }
            match ctx() {
                Some(c) => {
                    let child = c.exec.register_child(c.tid, self.name.clone());
                    let exec = Arc::clone(&c.exec);
                    let inner = b.spawn(move || {
                        let _ctx = CtxGuard::set(Ctx {
                            exec: Arc::clone(&exec),
                            tid: child,
                        });
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            exec.wait_first(child);
                            f()
                        }));
                        let panic_msg = match &r {
                            Ok(_) => None,
                            Err(p) if p.is::<ModelAbort>() => None,
                            Err(p) => Some(payload_message(p.as_ref())),
                        };
                        exec.finish_thread(child, panic_msg);
                        match r {
                            Ok(v) => v,
                            Err(p) => resume_unwind(p),
                        }
                    })?;
                    // Spawning is itself a visible op: the child is now a
                    // scheduling option.
                    c.exec.schedule_point(c.tid, "spawn");
                    Ok(JoinHandle {
                        inner,
                        model: Some((c.exec, child)),
                    })
                }
                None => {
                    let inner = b.spawn(f)?;
                    Ok(JoinHandle { inner, model: None })
                }
            }
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    pub fn sleep(dur: Duration) {
        if let Some(c) = ctx() {
            // Model time is abstract: sleeping is just a scheduling point.
            c.exec.schedule_point(c.tid, "sleep");
        } else {
            std::thread::sleep(dur);
        }
    }
}

// ---------------------------------------------------------------------------
// RaceCell (model-build implementation; see crate::model for the facade)
// ---------------------------------------------------------------------------

use crate::engine::VClock;

#[derive(Debug)]
struct CellInner<T> {
    value: T,
    last_write: Option<(usize, String, VClock)>,
    reads: Vec<(usize, String, VClock)>,
}

/// A plain data cell watched by the race detector: reads and writes are
/// *not* synchronized by the cell itself, so two accesses (at least one a
/// write) that are not ordered by happens-before are reported as a data
/// race with the offending schedule.
#[derive(Debug)]
pub struct RaceCell<T> {
    state: StdMutex<CellInner<T>>,
}

impl<T: Clone> RaceCell<T> {
    pub fn new(value: T) -> RaceCell<T> {
        RaceCell {
            state: StdMutex::new(CellInner {
                value,
                last_write: None,
                reads: Vec::new(),
            }),
        }
    }

    pub fn read(&self) -> T {
        match ctx() {
            Some(c) => {
                c.exec.op(c.tid, "racecell read", |st| {
                    let mut inner = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                    let clock = st.clock_of(c.tid);
                    if let Some((wtid, wname, wclock)) = &inner.last_write {
                        if !wclock.le(&clock) {
                            st.fail(format!(
                                "data race on RaceCell: read by t{}({}) races with write by t{wtid}({wname})",
                                c.tid,
                                st.thread_name(c.tid),
                            ));
                        }
                    }
                    let name = st.thread_name(c.tid);
                    inner.reads.push((c.tid, name, clock));
                    Attempt::Done(inner.value.clone())
                })
            }
            None => {
                let inner = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                inner.value.clone()
            }
        }
    }

    pub fn write(&self, value: T) {
        match ctx() {
            Some(c) => {
                let mut payload = Some(value);
                c.exec.op(c.tid, "racecell write", |st| {
                    let mut inner = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                    let clock = st.clock_of(c.tid);
                    if let Some((wtid, wname, wclock)) = &inner.last_write {
                        if !wclock.le(&clock) {
                            st.fail(format!(
                                "data race on RaceCell: write by t{}({}) races with write by t{wtid}({wname})",
                                c.tid,
                                st.thread_name(c.tid),
                            ));
                        }
                    }
                    for (rtid, rname, rclock) in &inner.reads {
                        if !rclock.le(&clock) {
                            st.fail(format!(
                                "data race on RaceCell: write by t{}({}) races with read by t{rtid}({rname})",
                                c.tid,
                                st.thread_name(c.tid),
                            ));
                        }
                    }
                    let name = st.thread_name(c.tid);
                    inner.value = payload.take().expect("write retried");
                    inner.last_write = Some((c.tid, name, clock));
                    inner.reads.clear();
                    Attempt::Done(())
                });
            }
            None => {
                let mut inner = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                inner.value = value;
            }
        }
    }
}
