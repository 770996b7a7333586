//! Process-level readings from `/proc/self`, and CPU affinity.

use std::fs;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Peak resident set size (`VmHWM`) of this process in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process (all threads) in microseconds.
/// The kernel reports clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_us() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. the 12th and 13th after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    ticks * 10_000.0
}

/// How much two busy threads get done together, relative to one alone: 2.0
/// when both cores are free. On a shared box the two virtual CPUs at times
/// amount to little more than one (1.15 was seen for tens of minutes, with
/// every multi-threaded workload 45 % slower); numbers taken in such a
/// period do not compare with numbers taken outside it.
pub fn two_thread_scaling() -> f64 {
    fn spin() -> Duration {
        let start = Instant::now();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        black_box(x);
        start.elapsed()
    }
    let alone = spin();
    let together = std::thread::scope(|scope| {
        let first = scope.spawn(spin);
        let second = scope.spawn(spin);
        let first = first.join().expect("spin thread");
        first.max(second.join().expect("spin thread"))
    });
    2.0 * alone.as_secs_f64() / together.as_secs_f64()
}

/// The CPUs a thread may run on, as the kernel's bit mask (1 024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuSet([u64; 16]);

#[allow(unsafe_code)] // two foreign calls into the C library the standard library links
mod affinity {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPUs.
    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `mask` points to `size_of_val(&set.0)` writable bytes that
        // live across the call; pid 0 names the calling thread.
        let status =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (status == 0).then_some(set)
    }

    /// Restricts the calling thread to `set`; threads it spawns inherit it.
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `mask` points to `size_of_val(&set.0)` readable bytes that
        // live across the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
    }
}

/// The calling thread restricted to one CPU; see [`pin_to_one_cpu`].
#[derive(Debug)]
pub struct Pinned {
    pub cpu: usize,
    before: CpuSet,
    one: CpuSet,
}

impl Pinned {
    /// Runs `f` on the CPUs the thread had before it was pinned (threads
    /// `f` spawns may use them all), then pins it again.
    pub fn widened<R>(&self, f: impl FnOnce() -> R) -> R {
        affinity::set(&self.before);
        let result = f();
        affinity::set(&self.one);
        result
    }
}

/// Restricts the calling thread, and every thread spawned by it from now on,
/// to the highest-numbered CPU it may run on. `None` when the kernel
/// refuses; the caller then runs unpinned.
///
/// Why: two busy threads on this box's two virtual CPUs get anything between
/// one and two cores' worth of work done from one tenth of a second to the
/// next (the same pair of traversals took 14 ms and 31 ms), while one CPU's
/// speed stays within a tenth. Pinned, a workload's threads take turns on one
/// CPU, so a timing is the work done, not the cores the host lent.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let before = affinity::get()?;
    let (word, bits) = before
        .0
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = CpuSet([0; 16]);
    one.0[word] = 1 << bit;
    affinity::set(&one).then_some(Pinned {
        cpu: word * 64 + bit,
        before,
        one,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_widening_restores() {
        std::thread::spawn(|| {
            let before = affinity::get().expect("affinity is readable on Linux");
            let pinned = pin_to_one_cpu().expect("a thread may narrow its own CPUs");
            let now = affinity::get().expect("readable");
            assert_eq!(now.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(
                pinned.widened(|| affinity::get().expect("readable")),
                before
            );
            assert_eq!(affinity::get().expect("readable"), now);
        })
        .join()
        .expect("affinity test thread");
    }

    #[test]
    fn readings_are_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_us() >= 0.0);
        let scaling = two_thread_scaling();
        assert!(scaling > 0.2 && scaling < 4.0, "{scaling}");
    }
}
