//! Fixed-K interleaved A/B runs for the in-bin throughput gates.
//!
//! `fleet_throughput` (telemetry on vs off) and `ingest_throughput`
//! (framed wire vs direct enqueue) each gate one leg of a workload
//! against another. Both run exactly [`GATE_PAIRS`] interleaved pairs —
//! baseline, then candidate, K times, so slow thermal or frequency drift
//! hits both legs alike — and gate on the **median** of the per-pair
//! statistic, reporting min and max next to it. The number of runs never
//! depends on the outcome: repeating only while a gate fails, and keeping
//! the best sample, would bias the gate toward passing.

use sad_stats::quantile::quantile_sorted;

/// Interleaved pairs per gate.
pub const GATE_PAIRS: usize = 5;

/// Runs `k` interleaved pairs, `baseline()` then `candidate()` in each,
/// and returns the pairs in run order.
pub fn interleaved_pairs<B, C>(
    k: usize,
    mut baseline: impl FnMut() -> B,
    mut candidate: impl FnMut() -> C,
) -> Vec<(B, C)> {
    (0..k)
        .map(|_| {
            let b = baseline();
            (b, candidate())
        })
        .collect()
}

/// Median, min and max of one statistic over `k` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples.
    pub k: usize,
    /// Median (mean of the two middle samples when `k` is even).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`; panics when there are none.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Spread {
        let mut v: Vec<f64> = samples.into_iter().collect();
        v.sort_by(f64::total_cmp);
        let k = v.len();
        Spread { k, median: quantile_sorted(&v, 0.5), min: v[0], max: v[k - 1] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_run_interleaved_a_fixed_number_of_times() {
        let log = std::cell::RefCell::new(Vec::new());
        let pairs = interleaved_pairs(
            3,
            || log.borrow_mut().push('b'),
            || {
                log.borrow_mut().push('c');
                log.borrow().len()
            },
        );
        assert_eq!(pairs.len(), 3);
        assert_eq!(log.into_inner(), ['b', 'c', 'b', 'c', 'b', 'c']);
        assert_eq!(pairs.iter().map(|p| p.1).collect::<Vec<_>>(), [2, 4, 6]);
    }

    #[test]
    fn spread_reports_median_min_max() {
        let s = Spread::of([0.97, 0.88, 1.02, 0.93, 0.91]);
        assert_eq!(s, Spread { k: 5, median: 0.93, min: 0.88, max: 1.02 });
        assert_eq!(Spread::of([1.0, 4.0, 2.0, 3.0]).median, 2.5);
    }
}
