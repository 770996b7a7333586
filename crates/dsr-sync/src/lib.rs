//! # dsr-sync — the workspace's single import point for sync primitives
//!
//! Every crate in the workspace that names a synchronization primitive
//! (`Mutex`, `Condvar`, atomics, channels, `thread::spawn`, ...) imports it
//! from here instead of from `std::sync`/`std::thread`. The `dsr-lint` tool
//! enforces this at CI time.
//!
//! ## Two build modes
//!
//! * **Normal builds** (no extra cfg): everything in this crate is a
//!   zero-cost re-export of the corresponding `std` item. There is no
//!   wrapper type, no branch, no dependency — the facade compiles away
//!   entirely.
//!
//! * **Model builds** (`RUSTFLAGS="--cfg dsr_model"`): the same names
//!   resolve to *instrumented* primitives driven by a controlled scheduler
//!   (see [`model`]). Threads spawned inside [`model::Model::check`] become
//!   *model threads*: they are serialized so that at most one runs at a
//!   time, every visible operation (lock, unlock, condvar wait/notify,
//!   channel send/recv, non-`Relaxed` atomic access, spawn/join) is a
//!   scheduling point, and the scheduler systematically explores
//!   interleavings by an exhaustive bounded-preemption DFS. Vector
//!   clocks track happens-before so unsynchronized access to a
//!   [`model::RaceCell`] is reported as a data race. Every failure carries
//!   a replayable schedule string.
//!
//!   Threads that are *not* model threads (e.g. the process-global
//!   `SlavePool` workers) pass straight through to the underlying `std`
//!   primitive, so mixed workloads still run correctly — they are simply
//!   not scheduled by the explorer.
//!
//! ## Poisoned-lock policy
//!
//! The workspace recovers from lock poisoning instead of unwrapping it:
//! use [`lock`] and [`wait`] rather than `.lock().unwrap()`. Rationale: a
//! poisoned lock only means *some thread panicked while holding it*. Every
//! place that matters already propagates that panic explicitly — the
//! `SlavePool` rethrows worker panics to the caller, and a fused run that
//! panics fails its waiters with a typed error —
//! so the poison flag carries no extra information, while unwrapping it in
//! `Drop`/teardown paths converts one panic into a double-panic abort. The
//! protected data is kept consistent by the panicking code's own unwind
//! safety, which in this codebase means "fully written before the lock is
//! released" (no partially-applied states are ever left behind a lock).
//! `dsr-lint` flags `.unwrap()`/`.expect()` on lock results in non-test
//! code to keep this policy honest.

#![forbid(unsafe_code)]

pub mod model;

#[cfg(dsr_model)]
mod engine;
#[cfg(dsr_model)]
mod instrumented;

// ---------------------------------------------------------------------------
// Items identical in both build modes.
// ---------------------------------------------------------------------------

pub use std::sync::{Arc, LockResult, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Normal builds: pure std re-exports.
// ---------------------------------------------------------------------------

#[cfg(not(dsr_model))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

/// Atomic types. Normal builds re-export `std::sync::atomic`; model builds
/// swap in instrumented atomics (non-`Relaxed` accesses become scheduling
/// points and happens-before edges, `Relaxed` accesses stay invisible so
/// stats counters do not blow up the schedule space).
#[cfg(not(dsr_model))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

/// Multi-producer single-consumer channels (instrumented under `dsr_model`).
#[cfg(not(dsr_model))]
pub mod mpsc {
    pub use std::sync::mpsc::*;
}

/// Thread spawning and management (instrumented under `dsr_model`).
#[cfg(not(dsr_model))]
pub mod thread {
    pub use std::thread::*;
}

// ---------------------------------------------------------------------------
// Model builds: instrumented primitives.
// ---------------------------------------------------------------------------

#[cfg(dsr_model)]
pub use instrumented::{Condvar, Mutex, MutexGuard};

#[cfg(dsr_model)]
pub mod atomic {
    pub use crate::instrumented::{AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

#[cfg(dsr_model)]
pub mod mpsc {
    pub use crate::instrumented::mpsc::{channel, Receiver, Sender};
    pub use std::sync::mpsc::{RecvError, SendError};
}

#[cfg(dsr_model)]
pub mod thread {
    pub use crate::instrumented::thread::{sleep, spawn, Builder, JoinHandle};
    pub use std::thread::{
        available_parallelism, current, panicking, scope, Scope, ScopedJoinHandle, Thread, ThreadId,
    };
}

// ---------------------------------------------------------------------------
// Poisoned-lock policy helpers.
// ---------------------------------------------------------------------------

/// Acquire `m`, recovering from poisoning (see the crate-level policy).
///
/// This is the workspace-standard way to lock a mutex in non-test code;
/// `dsr-lint` flags `.lock().unwrap()` / `.lock().expect(..)` instead.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `cv` releasing `guard`, recovering from poisoning on wakeup.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_helper_basic() {
        let m = Mutex::new(7);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[cfg(not(dsr_model))]
    #[test]
    fn lock_helper_recovers_from_poison() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock(&m), 1, "helper recovers the inner value");
    }
}
