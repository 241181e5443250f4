//! Incrementally maintained mean and variance.
//!
//! The μ/σ-Change drift strategy (paper §IV-B) keeps a running mean of the
//! training set and updates it in `O(1)` per stream step:
//!
//! ```text
//! μ_t = μ_{t-1} + (x_t - x*) / N      (replace x* by x_t, set size fixed)
//! μ_t = ((N-1) μ_{t-1} + x_t) / N     (append x_t, set grows to N)
//! ```
//!
//! [`VectorRunningStats`] applies these update rules element-wise across
//! feature-vector dimensions, together with the matching second-moment
//! updates — exactly the `Nw`-element mean feature vector whose cost
//! Table II tallies.

/// Width of the chunks the fused moment pass computes `(μ_i, σ_i)` in.
/// The in-order sums keep a plain per-dimension loop scalar; a fixed-width
/// chunk lets the divides and square roots vectorise ahead of them.
const CHUNK: usize = 8;

/// Element-wise running mean/variance over a multiset of fixed-dimension
/// vectors with `O(d)` insert / remove / replace.
///
/// Struct-of-arrays layout: one shared count plus a `sum` and a `sum_sq`
/// column, so every update is a straight element-wise loop the compiler
/// vectorises. The sum-of-squares form (rather than Welford's) is chosen
/// because the training-set strategies *remove* arbitrary elements
/// (reservoirs) and Welford's recurrence does not support removal; the
/// values seen here are normalized sensor readings, so catastrophic
/// cancellation is not a practical concern (property-tested against batch
/// recomputation).
///
/// The per-dimension moments are only read through one fused pass
/// ([`Self::drift_terms`], [`Self::snapshot_means`]) that computes
/// `μ_i = sum_i/n` and `σ_i = sqrt(max(sum_sq_i/n − μ_i², 0))` a chunk at
/// a time and feeds each reduction strictly in dimension order, so every
/// result is bitwise what a per-dimension scalar loop would produce.
#[derive(Debug, Clone)]
pub struct VectorRunningStats {
    n: usize,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl VectorRunningStats {
    /// Creates an accumulator for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        Self { n: 0, sum: vec![0.0; dim], sum_sq: vec![0.0; dim] }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.sum.len()
    }

    /// Number of tracked vectors.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Adds a vector.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn insert(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.dim(), "dimension mismatch");
        self.n += 1;
        for ((s, q), &x) in self.sum.iter_mut().zip(&mut self.sum_sq).zip(v) {
            *s += x;
            *q += x * x;
        }
    }

    /// Removes a previously inserted vector. Draining to empty snaps the
    /// accumulated rounding error back to exactly zero.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or if the accumulator is empty.
    pub fn remove(&mut self, v: &[f64]) {
        assert!(v.len() == self.dim() && self.n > 0, "dimension mismatch or remove from empty");
        self.n -= 1;
        if self.n == 0 {
            self.sum.fill(0.0);
            self.sum_sq.fill(0.0);
            return;
        }
        for ((s, q), &x) in self.sum.iter_mut().zip(&mut self.sum_sq).zip(v) {
            *s -= x;
            *q -= x * x;
        }
    }

    /// Replaces `old` with `new` in one pass — the paper's
    /// sliding-window/reservoir update `μ_t = μ_{t-1} + (x_t - x*)/N`.
    ///
    /// # Panics
    /// Panics on a dimension mismatch or if the accumulator is empty.
    pub fn replace(&mut self, old: &[f64], new: &[f64]) {
        let d = self.dim();
        assert!(
            old.len() == d && new.len() == d && self.n > 0,
            "dimension mismatch or replace on empty"
        );
        for ((s, q), (&o, &x)) in self.sum.iter_mut().zip(&mut self.sum_sq).zip(old.iter().zip(new))
        {
            *s += x - o;
            *q += x * x - o * o;
        }
    }

    /// RMS distance `d(ref, μ_t)` between `reference` and the current mean
    /// vector, and the average per-dimension population standard deviation
    /// `σ_t` — the two μ/σ-Change trigger terms, from one fused pass.
    ///
    /// # Panics
    /// Panics if `reference` is shorter than [`Self::dim`].
    pub fn drift_terms(&self, reference: &[f64]) -> (f64, f64) {
        let reference = &reference[..self.dim()];
        // `-0.0` is `Iterator::sum`'s identity, so both sums match a
        // sequential `.sum()` bit for bit.
        let mut dist_sq = -0.0;
        let sigma_sum = self.fused_moments(|offset, mu, _| {
            for (&r, &m) in reference[offset..].iter().zip(mu) {
                dist_sq += (r - m) * (r - m);
            }
        });
        ((dist_sq / self.dim() as f64).sqrt(), self.mean_of(sigma_sum))
    }

    /// Writes the current mean vector into `means` (cleared first, its
    /// capacity reused) and returns `σ_t`, from one fused pass.
    pub fn snapshot_means(&self, means: &mut Vec<f64>) -> f64 {
        means.clear();
        let sigma_sum = self.fused_moments(|_, mu, _| means.extend_from_slice(mu));
        self.mean_of(sigma_sum)
    }

    /// `σ_t` from the in-order sum of the per-dimension σ (`0.0` for
    /// zero-dimensional vectors).
    fn mean_of(&self, sigma_sum: f64) -> f64 {
        if self.dim() == 0 {
            0.0
        } else {
            sigma_sum / self.dim() as f64
        }
    }

    /// The fused moment pass: computes `(μ_i, σ_i)` element-wise a chunk
    /// at a time (an empty accumulator reads as all zeros), hands each
    /// chunk to `visit` with its starting dimension, and returns `Σσ_i`
    /// accumulated in dimension order.
    #[inline]
    fn fused_moments(&self, mut visit: impl FnMut(usize, &[f64], &[f64])) -> f64 {
        let n = self.n as f64;
        let empty = self.n == 0;
        let mut mu = [0.0; CHUNK];
        let mut sigma = [0.0; CHUNK];
        let mut sigma_sum = -0.0;
        let mut chunk =
            |offset: usize, sum: &[f64], sum_sq: &[f64], mu: &mut [f64], sigma: &mut [f64]| {
                if !empty {
                    for (((&s, &q), m), sd) in
                        sum.iter().zip(sum_sq).zip(mu.iter_mut()).zip(sigma.iter_mut())
                    {
                        let mean = s / n;
                        *m = mean;
                        *sd = (q / n - mean * mean).max(0.0).sqrt();
                    }
                }
                visit(offset, mu, sigma);
                for &sd in sigma.iter() {
                    sigma_sum += sd;
                }
            };
        let (sums, sum_sqs) = (self.sum.chunks_exact(CHUNK), self.sum_sq.chunks_exact(CHUNK));
        let (sum_tail, sq_tail) = (sums.remainder(), sum_sqs.remainder());
        for (i, (s, q)) in sums.zip(sum_sqs).enumerate() {
            // Fixed-width chunks give the element-wise loop a constant trip
            // count, which is what lets it vectorise.
            let s: &[f64; CHUNK] = s.try_into().expect("exact chunk");
            let q: &[f64; CHUNK] = q.try_into().expect("exact chunk");
            chunk(i * CHUNK, s, q, &mut mu, &mut sigma);
        }
        let tail = sum_tail.len();
        if tail > 0 {
            chunk(self.dim() - tail, sum_tail, sq_tail, &mut mu[..tail], &mut sigma[..tail]);
        }
        sigma_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_mean_var(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        (mean, var)
    }

    /// Per-dimension `(μ_i, σ_i)` as the fused pass computes them.
    fn fused(s: &VectorRunningStats) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        s.fused_moments(|_, mu, sigma| out.extend(mu.iter().copied().zip(sigma.iter().copied())));
        out
    }

    /// Per-dimension `(mean, population variance)`: the mean as the fused
    /// pass computes it, the variance straight from `n`, `sum` and `sum_sq`.
    fn moments(s: &VectorRunningStats) -> Vec<(f64, f64)> {
        let n = s.n as f64;
        fused(s)
            .into_iter()
            .zip(&s.sum_sq)
            .map(|((m, _), &sum_sq)| {
                (m, if s.n == 0 { 0.0 } else { (sum_sq / n - m * m).max(0.0) })
            })
            .collect()
    }

    /// Accumulator over the rows of `rows` (each `dim` wide).
    fn from_rows(rows: &[Vec<f64>], dim: usize) -> VectorRunningStats {
        let mut s = VectorRunningStats::new(dim);
        for r in rows {
            s.insert(r);
        }
        s
    }

    /// Vectors of width `dim` derived from a scalar sequence (dimension `j`
    /// scales the scalar by `j + 1` and shifts it by `j`).
    fn widen(values: &[f64], dim: usize) -> Vec<Vec<f64>> {
        values.iter().map(|&v| (0..dim).map(|j| v * (j + 1) as f64 + j as f64).collect()).collect()
    }

    /// Asserts every dimension of `s` matches the batch statistics of the
    /// matching column of `rows`. Dimension `j` of [`widen`] scales the
    /// values by `j + 1`, so its bounds are `tol_mean·(j+1)` and
    /// `tol_var·(j+1)²`; dimension 0 is held to the scalar bounds.
    fn assert_matches_batch(
        s: &VectorRunningStats,
        rows: &[Vec<f64>],
        tol_mean: f64,
        tol_var: f64,
    ) {
        assert_eq!(s.count(), rows.len());
        for (d, (m, v)) in moments(s).into_iter().enumerate() {
            let scale = (d + 1) as f64;
            let column: Vec<f64> = rows.iter().map(|r| r[d]).collect();
            let (bm, bv) = batch_mean_var(&column);
            assert!((m - bm).abs() < tol_mean * scale, "dim {d}: mean {m} vs {bm}");
            assert!((v - bv).abs() < tol_var * scale * scale, "dim {d}: var {v} vs {bv}");
        }
    }

    #[test]
    fn insert_matches_batch() {
        for dim in [1, 3, 11] {
            let rows = widen(&[1.0, 2.0, 4.0, 8.0, -3.0], dim);
            assert_matches_batch(&from_rows(&rows, dim), &rows, 1e-12, 1e-12);
        }
    }

    #[test]
    fn remove_matches_batch() {
        for dim in [1, 9] {
            let rows = widen(&[1.0, 2.0, 3.0, 4.0], dim);
            let mut s = from_rows(&rows, dim);
            s.remove(&rows[1]);
            let kept = [rows[0].clone(), rows[2].clone(), rows[3].clone()];
            assert_matches_batch(&s, &kept, 1e-12, 1e-12);
        }
    }

    #[test]
    fn replace_equals_remove_then_insert() {
        for dim in [1, 8, 10] {
            let rows = widen(&[5.0, 7.0, 9.0], dim);
            let fresh = widen(&[2.0], dim).remove(0);
            let mut a = from_rows(&rows, dim);
            let mut b = a.clone();
            a.replace(&rows[1], &fresh);
            b.remove(&rows[1]);
            b.insert(&fresh);
            assert_eq!(a.count(), b.count());
            for (d, ((ma, va), (mb, vb))) in moments(&a).into_iter().zip(moments(&b)).enumerate() {
                let scale = (d + 1) as f64;
                assert!((ma - mb).abs() < 1e-12 * scale, "dim {d}: mean {ma} vs {mb}");
                assert!((va - vb).abs() < 1e-12 * scale * scale, "dim {d}: var {va} vs {vb}");
            }
        }
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = VectorRunningStats::new(3);
        assert_eq!(s.count(), 0);
        assert!(moments(&s).iter().all(|&(m, v)| m == 0.0 && v == 0.0));
        let mut means = Vec::new();
        assert_eq!(s.snapshot_means(&mut means), 0.0);
        assert_eq!(means, vec![0.0; 3]);
    }

    #[test]
    fn constant_values_have_zero_variance() {
        let s = from_rows(&vec![vec![3.0, -1.5]; 100], 2);
        assert!(moments(&s).iter().all(|&(_, v)| v.abs() < 1e-12));
    }

    #[test]
    fn drain_to_empty_resets_exactly() {
        for dim in [1, 5] {
            let rows = widen(&[0.1, 0.2], dim);
            let mut s = from_rows(&rows, dim);
            s.remove(&rows[0]);
            s.remove(&rows[1]);
            assert_eq!(s.count(), 0);
            assert!(s.sum.iter().chain(&s.sum_sq).all(|v| v.to_bits() == 0));
            assert!(moments(&s).iter().all(|&(m, v)| m == 0.0 && v == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "remove from empty")]
    fn remove_from_empty_panics() {
        VectorRunningStats::new(1).remove(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "replace on empty")]
    fn replace_on_empty_panics() {
        VectorRunningStats::new(2).replace(&[1.0, 2.0], &[3.0, 4.0]);
    }

    #[test]
    fn vector_stats_mean_and_std() {
        let mut s = VectorRunningStats::new(2);
        s.insert(&[1.0, 10.0]);
        s.insert(&[3.0, 30.0]);
        assert_eq!(s.count(), 2);
        let mut means = Vec::new();
        let sigma = s.snapshot_means(&mut means);
        assert_eq!(means, vec![2.0, 20.0]);
        let sd = fused(&s);
        assert!((sd[0].1 - 1.0).abs() < 1e-12);
        assert!((sd[1].1 - 10.0).abs() < 1e-12);
        assert!((sigma - 5.5).abs() < 1e-12);
        let (dist, sigma_t) = s.drift_terms(&[2.0, 22.0]);
        assert!((dist - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(sigma_t.to_bits(), sigma.to_bits());
    }

    #[test]
    fn vector_replace_tracks_sliding_window() {
        let mut s = VectorRunningStats::new(1);
        s.insert(&[1.0]);
        s.insert(&[2.0]);
        s.insert(&[3.0]);
        // Slide: drop 1.0, add 4.0 -> window {2,3,4}.
        s.replace(&[1.0], &[4.0]);
        let mut means = Vec::new();
        s.snapshot_means(&mut means);
        assert!((means[0] - 3.0).abs() < 1e-12);
        assert_eq!(s.count(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn vector_dim_mismatch_panics() {
        VectorRunningStats::new(3).insert(&[1.0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// After any sequence of inserts, the running stats match a
            /// batch recomputation to high precision, at dim 1 and dim > 1.
            #[test]
            fn running_equals_batch(
                values in proptest::collection::vec(-1e3f64..1e3, 1..200),
                dim in 1usize..20,
            ) {
                let rows = widen(&values, dim);
                let s = from_rows(&rows, dim);
                for (d, (m, v)) in moments(&s).into_iter().enumerate() {
                    let scale = (d + 1) as f64;
                    let column: Vec<f64> = rows.iter().map(|r| r[d]).collect();
                    let (bm, bv) = batch_mean_var(&column);
                    prop_assert!((m - bm).abs() < 1e-8 * scale);
                    prop_assert!((v - bv).abs() < 1e-5 * scale * scale);
                }
            }

            /// Replacing every element one by one keeps stats equal to the
            /// batch stats of the final multiset.
            #[test]
            fn replace_chain_equals_batch(
                init in proptest::collection::vec(-100f64..100.0, 5..40),
                updates in proptest::collection::vec(-100f64..100.0, 5..40),
                dim in 1usize..20,
            ) {
                let mut current = widen(&init, dim);
                let mut s = from_rows(&current, dim);
                for (i, u) in widen(&updates, dim).into_iter().enumerate() {
                    let idx = i % current.len();
                    s.replace(&current[idx], &u);
                    current[idx] = u;
                }
                for (d, (m, v)) in moments(&s).into_iter().enumerate() {
                    let scale = (d + 1) as f64;
                    let column: Vec<f64> = current.iter().map(|r| r[d]).collect();
                    let (bm, bv) = batch_mean_var(&column);
                    prop_assert!((m - bm).abs() < 1e-8 * scale);
                    prop_assert!((v - bv).abs() < 1e-5 * scale * scale);
                }
            }

            /// Variance is never negative, even under adversarial
            /// insert/remove interleavings.
            #[test]
            fn variance_nonnegative(
                values in proptest::collection::vec(-1e6f64..1e6, 2..100),
                dim in 1usize..20,
            ) {
                let rows = widen(&values, dim);
                let mut s = from_rows(&rows, dim);
                for r in rows.iter().take(rows.len() / 2) {
                    s.remove(r);
                }
                prop_assert!(moments(&s).iter().all(|&(_, v)| v >= 0.0));
            }

            /// Draining every inserted vector resets the accumulator to
            /// exact zeros, whatever rounding the sums picked up.
            #[test]
            fn drain_to_empty_is_exact(
                values in proptest::collection::vec(-1e3f64..1e3, 1..50),
                dim in 1usize..20,
            ) {
                let rows = widen(&values, dim);
                let mut s = from_rows(&rows, dim);
                for r in rows.iter().rev() {
                    s.remove(r);
                }
                prop_assert_eq!(s.count(), 0);
                prop_assert!(s.sum.iter().chain(&s.sum_sq).all(|v| v.to_bits() == 0));
            }
        }
    }
}
