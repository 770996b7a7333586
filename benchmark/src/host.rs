//! The host's speed, measured beside everything the benchmark times.
//!
//! The benchmark runs on a few virtual CPUs of a shared host whose speed
//! changes by a third over minutes (measured: the same set-up took 0.43 s
//! and 0.57 s a few minutes apart, `engine_batch64` served 550 and 370
//! queries per second). No run length the driver allows averages that out,
//! so every timing is expressed in **reference time**: a fixed probe — a
//! graph traversal with the instruction mix of the measured code, owned by
//! the benchmark so that no later change can alter it — is timed between the
//! slices of a measured section, and each slice's durations are divided by
//! how much slower than [`REFERENCE_TRAVERSAL_NS`] the probe ran around it.
//! `host.speed_index` in the traced run says by how much the numbers of a
//! run were scaled.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::Until;

/// What one traversal of the probe takes on this box when the host is
/// quiet. Only fixes the scale of reference time.
pub const REFERENCE_TRAVERSAL_NS: f64 = 116_000.0;

/// Traversals per sample: about 7 ms.
const TRAVERSALS_PER_SAMPLE: usize = 50;

/// How long a measured section runs between two samples.
const SLICE: Duration = Duration::from_millis(150);

const PROBE_VERTICES: usize = 4000;
const PROBE_EDGES: usize = 16_000;

/// A fixed random graph in compressed rows and the traversal over it.
struct Probe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Probe {
    fn new() -> Self {
        let n = PROBE_VERTICES as u64;
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as u32
        };
        let mut edges: Vec<(u32, u32)> = (0..PROBE_EDGES).map(|_| (next(), next())).collect();
        edges.sort_unstable();
        let mut offsets = vec![0u32; PROBE_VERTICES + 1];
        for &(from, _) in &edges {
            offsets[from as usize + 1] += 1;
        }
        for vertex in 0..PROBE_VERTICES {
            offsets[vertex + 1] += offsets[vertex];
        }
        Probe {
            offsets,
            targets: edges.into_iter().map(|(_, to)| to).collect(),
        }
    }

    /// Breadth-first search from `source` that also hashes, collects and
    /// sorts part of what it reaches, as the engine does with its pairs.
    fn traverse(&self, source: usize) -> usize {
        let mut seen = vec![false; PROBE_VERTICES];
        let mut queue = VecDeque::from([source as u32]);
        seen[source] = true;
        let mut kept = HashSet::new();
        while let Some(vertex) = queue.pop_front() {
            let row =
                self.offsets[vertex as usize] as usize..self.offsets[vertex as usize + 1] as usize;
            for &next in &self.targets[row] {
                if !seen[next as usize] {
                    seen[next as usize] = true;
                    queue.push_back(next);
                    if next % 8 == 0 {
                        kept.insert(next);
                    }
                }
            }
        }
        let mut kept: Vec<u32> = kept.into_iter().collect();
        kept.sort_unstable();
        black_box(kept).len()
    }
}

/// Samples the host's speed index: probe time now ÷ reference probe time,
/// so 1.25 means the host is a quarter slower than the reference.
pub struct HostClock {
    probe: Probe,
    next_source: usize,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock {
            probe: Probe::new(),
            next_source: 0,
        }
    }
}

impl HostClock {
    /// Times the probe now.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..TRAVERSALS_PER_SAMPLE {
            black_box(self.probe.traverse(self.next_source));
            self.next_source = (self.next_source + 7919) % PROBE_VERTICES;
        }
        let per_traversal_ns = start.elapsed().as_nanos() as f64 / TRAVERSALS_PER_SAMPLE as f64;
        per_traversal_ns / REFERENCE_TRAVERSAL_NS
    }

    /// Runs `f` with a sample before and after it. Returns its result, how
    /// long it took, and the mean of the two samples.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration, f64) {
        let before = self.sample();
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        (result, elapsed, (before + self.sample()) / 2.0)
    }

    /// Drives a measured section for `total`, one slice at a time with a
    /// sample between slices. `section` runs until the [`Until`] it is given
    /// and returns what it measured and how long it ran; each is returned
    /// with the mean of the samples on either side of it.
    pub(crate) fn sliced<S>(
        &mut self,
        total: Duration,
        mut section: impl FnMut(Until) -> (S, Duration),
    ) -> Vec<(S, f64)> {
        let mut slices = Vec::new();
        let mut remaining = total;
        let mut before = self.sample();
        while !remaining.is_zero() {
            let (measured, elapsed) = section(Until::Elapsed(remaining.min(SLICE)));
            let after = self.sample();
            slices.push((measured, (before + after) / 2.0));
            remaining = remaining.saturating_sub(elapsed);
            before = after;
        }
        slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_repeats_and_slices_cover_the_total() {
        let probe = Probe::new();
        assert_eq!(probe.targets.len(), PROBE_EDGES);
        assert_eq!(probe.traverse(0), probe.traverse(0));
        assert!(
            probe.traverse(0) > 0,
            "the probe graph is connected enough to do work"
        );

        let mut clock = HostClock::default();
        let slices = clock.sliced(Duration::from_millis(20), |until| {
            let start = Instant::now();
            while !until.reached(0, start) {
                std::hint::spin_loop();
            }
            ((), start.elapsed())
        });
        assert_eq!(slices.len(), 1);
        assert!(slices[0].1 > 0.0);
    }
}
