//! Pass timing that resists host noise.
//!
//! The simulator is deterministic, so every pass of a workload makes
//! the same calls in the same order. Marks taken at those calls (pass
//! start and end, replica build, `infer`/`run`) cut each pass into the
//! same sequence of segments, and segment `i` does the same work in
//! every pass. A segment's cost is the median of its times over the
//! run's passes, and a pass costs the sum of its segments' costs. On a
//! shared host a burst from another tenant then inflates a segment only
//! when it lands on that segment in half the passes, where a whole-pass
//! median needs half the passes to be clean from end to end. The median
//! rather than the minimum: on a 2-vCPU 2.1 GHz Xeon guest the fastest
//! times are rare lucky moments. Five minutes of `zoo_infer` passes cut
//! into ten runs of 27 gave an `op_p50_ms` whose middle half spread by
//! 19% of its median when built from per-slot minima, 5% from medians.

use std::sync::Mutex;
use std::time::Instant;

use dgnn_bench::harness::walltime;

static MARKS: Mutex<Vec<Instant>> = Mutex::new(Vec::new());

/// Cuts the current pass here.
pub fn mark() {
    let t = walltime();
    MARKS.lock().expect("mark log poisoned by a panic").push(t);
}

/// Takes the marks since the last call and returns the host seconds of
/// the segments between consecutive marks.
pub fn take() -> Vec<f64> {
    let marks = std::mem::take(&mut *MARKS.lock().expect("mark log poisoned by a panic"));
    marks
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect()
}

/// Runs `f` as a pass's timed call: marks before and after it, and
/// returns its result with the segment times between.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Vec<f64>) {
    take();
    mark();
    let out = f();
    mark();
    (out, take())
}

/// Times of each slot over passes that must all have the same number
/// of slots.
#[derive(Debug, Default)]
pub struct Slots {
    /// `times[slot][pass]`.
    times: Vec<Vec<f64>>,
    passes: usize,
}

impl Slots {
    /// Folds in one pass's slot times. Returns a problem when the pass
    /// has another number of slots than the first one: then it did not
    /// make the same calls.
    pub fn add(&mut self, what: &str, times: &[f64]) -> Option<String> {
        if self.passes == 0 {
            self.times = times.iter().map(|&t| vec![t]).collect();
        } else if times.len() != self.times.len() {
            return Some(format!(
                "pass {} has {} {what}, the first pass {}",
                self.passes,
                times.len(),
                self.times.len()
            ));
        } else {
            for (slot, &t) in self.times.iter_mut().zip(times) {
                slot.push(t);
            }
        }
        self.passes += 1;
        None
    }

    /// Each slot's cost: the median of its times.
    pub fn costs(&self) -> Vec<f64> {
        self.times.iter().map(|t| crate::stats::median(t)).collect()
    }

    pub fn len(&self) -> usize {
        self.times.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_medians_per_slot() {
        let mut s = Slots::default();
        assert_eq!(s.add("segments", &[3.0, 1.0, 8.0]), None);
        assert_eq!(s.add("segments", &[1.0, 4.0, 7.0]), None);
        assert_eq!(s.add("segments", &[2.0, 9.0, 5.0]), None);
        assert_eq!(s.costs(), vec![2.0, 4.0, 7.0]);
        assert!(s.add("segments", &[1.0]).is_some());
        assert_eq!(s.costs(), vec![2.0, 4.0, 7.0], "a mismatched pass is left out");
    }
}
