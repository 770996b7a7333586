//! Self-tests for the model checker: exploration finds real interleaving
//! bugs, the vector-clock race detector distinguishes raced from locked
//! access, failing schedules replay deterministically, and deadlocks are
//! reported rather than hung on.
//!
//! Run with `RUSTFLAGS="--cfg dsr_model" cargo test -p dsr-sync` for real
//! exploration; in normal builds each body executes once as a smoke test.

use dsr_sync::model::{self, Model, RaceCell};
use dsr_sync::{thread, Arc, Mutex};

/// Two threads doing a non-atomic read-modify-write through separate lock
/// acquisitions: the classic lost update. The DFS must find the schedule
/// where both threads read 0 and the final value is 1.
fn lost_update() {
    let n = Arc::new(Mutex::new(0u32));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let n = Arc::clone(&n);
            thread::spawn(move || {
                let read = *dsr_sync::lock(&n);
                *dsr_sync::lock(&n) = read + 1;
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*dsr_sync::lock(&n), 2, "lost update");
}

#[test]
fn model_dfs_finds_lost_update() {
    if !model::is_model_build() {
        return; // single-run smoke can't observe the race
    }
    let failure = Model::new()
        .check(lost_update)
        .expect_err("DFS must find the lost-update interleaving");
    assert!(failure.message.contains("lost update"), "{failure}");
    assert!(!failure.schedule.is_empty());
}

/// A correct version of the same program must survive full exploration.
#[test]
fn model_atomic_update_passes() {
    let report = Model::new()
        .check(|| {
            let n = Arc::new(Mutex::new(0u32));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        *dsr_sync::lock(&n) += 1; // one critical section
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*dsr_sync::lock(&n), 2);
        })
        .expect("atomic increments cannot lose updates");
    assert!(report.schedules_explored >= 1);
}

/// Vector-clock detector: two unsynchronized writers to a RaceCell race.
#[test]
fn model_race_detector_catches_true_race() {
    if !model::is_model_build() {
        return;
    }
    let failure = Model::new()
        .check(|| {
            let cell = Arc::new(RaceCell::new(0u32));
            let c2 = Arc::clone(&cell);
            let h = thread::spawn(move || c2.write(1));
            cell.write(2);
            h.join().unwrap();
        })
        .expect_err("unsynchronized writes must be reported as a race");
    assert!(failure.message.contains("data race"), "{failure}");
}

/// Same cell, but every access under one mutex: no race may be reported.
#[test]
fn model_race_detector_accepts_locked_access() {
    Model::new()
        .check(|| {
            let cell = Arc::new(RaceCell::new(0u32));
            let lock = Arc::new(Mutex::new(()));
            let (c2, l2) = (Arc::clone(&cell), Arc::clone(&lock));
            let h = thread::spawn(move || {
                let _g = dsr_sync::lock(&l2);
                let v = c2.read();
                c2.write(v + 1);
            });
            {
                let _g = dsr_sync::lock(&lock);
                let v = cell.read();
                cell.write(v + 1);
            }
            h.join().unwrap();
            assert_eq!(cell.read(), 2);
        })
        .expect("mutex-ordered access must not be flagged as a race");
}

/// Join itself is a happens-before edge: writes before a thread exits are
/// visible to the joiner without extra locking.
#[test]
fn model_join_is_happens_before() {
    Model::new()
        .check(|| {
            let cell = Arc::new(RaceCell::new(0u32));
            let c2 = Arc::clone(&cell);
            let h = thread::spawn(move || c2.write(7));
            h.join().unwrap();
            assert_eq!(cell.read(), 7);
        })
        .expect("join orders the child's writes before the parent's read");
}

/// A failing schedule string must reproduce the same interleaving: replay
/// fails again, with the same message and the same operation trace.
#[test]
fn model_replay_is_deterministic() {
    if !model::is_model_build() {
        return;
    }
    let first = Model::new()
        .check(lost_update)
        .expect_err("exploration must fail first");
    for round in 0..3 {
        let again = Model::new()
            .replay(&first.schedule, lost_update)
            .expect_err("replaying the failing schedule must fail again");
        assert_eq!(first.message, again.message, "round {round}");
        assert_eq!(first.trace, again.trace, "round {round}: diverging trace");
        assert_eq!(first.schedule, again.schedule, "round {round}");
    }
}

/// Classic ABBA deadlock: must be reported as a failure, not hang.
#[test]
fn model_detects_deadlock() {
    if !model::is_model_build() {
        return;
    }
    let failure = Model::new()
        .check(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = thread::spawn(move || {
                let _ga = dsr_sync::lock(&a2);
                let _gb = dsr_sync::lock(&b2);
            });
            let _gb = dsr_sync::lock(&b);
            let _ga = dsr_sync::lock(&a);
            drop((_ga, _gb));
            h.join().unwrap();
        })
        .expect_err("ABBA ordering must deadlock in some schedule");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

/// Channels: send/recv carry happens-before, and exploration terminates.
#[test]
fn model_channel_send_recv() {
    Model::new()
        .check(|| {
            let (tx, rx) = dsr_sync::mpsc::channel();
            let cell = Arc::new(RaceCell::new(0u32));
            let c2 = Arc::clone(&cell);
            let h = thread::spawn(move || {
                c2.write(41);
                tx.send(1u32).unwrap();
            });
            let got = rx.recv().unwrap();
            assert_eq!(cell.read() + got, 42, "recv orders the sender's write");
            h.join().unwrap();
        })
        .expect("channel happens-before must order the write");
}

/// Condvar protocol: a waiter parked before the notify still wakes up.
#[test]
fn model_condvar_wakeup() {
    Model::new()
        .check(|| {
            let pair = Arc::new((Mutex::new(false), dsr_sync::Condvar::new()));
            let p2 = Arc::clone(&pair);
            let h = thread::spawn(move || {
                let (m, cv) = &*p2;
                let mut ready = dsr_sync::lock(m);
                while !*ready {
                    ready = dsr_sync::wait(cv, ready);
                }
            });
            let (m, cv) = &*pair;
            *dsr_sync::lock(m) = true;
            cv.notify_all();
            h.join().unwrap();
        })
        .expect("notified waiter must wake in every schedule");
}
