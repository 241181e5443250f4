//! Per-dimension standardization for the neural models.
//!
//! Sensor channels in the benchmark corpora differ in scale by orders of
//! magnitude (accelerometer milli-g vs CPU percent vs byte counters).
//! Gradient-trained networks need roughly unit-scale inputs, so the neural
//! models fit `z = (x − μ)/σ` statistics on the warm-up training set and
//! map reconstructions/forecasts back to raw units before the cosine
//! nonconformity compares them with the stream. (The reference
//! implementations of AE/USAD/N-BEATS normalize in their data pipelines;
//! here it lives inside the model so the framework stays scale-agnostic.)

use sad_core::FeatureVector;

/// Per-dimension affine scaler `z_j = (x_j − μ_j) / σ_j`.
#[derive(Debug, Clone)]
pub struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// σ floor: constant dimensions pass through unscaled instead of
    /// dividing by zero.
    const STD_FLOOR: f64 = 1e-8;

    /// An identity scaler of dimension `dim` (useful before any data has
    /// been seen).
    pub fn identity(dim: usize) -> Self {
        Self { mean: vec![0.0; dim], std: vec![1.0; dim] }
    }

    /// Fits per-dimension mean and standard deviation over the flattened
    /// feature vectors of `train`.
    ///
    /// # Panics
    /// Panics if `train` is empty or dimensions are inconsistent.
    pub fn fit(train: &[FeatureVector]) -> Self {
        assert!(!train.is_empty(), "cannot fit a standardizer on no data");
        let dim = train[0].dim();
        let n = train.len() as f64;
        let mut mean = vec![0.0; dim];
        for x in train {
            assert_eq!(x.dim(), dim, "inconsistent feature dimensions");
            for (m, &v) in mean.iter_mut().zip(x.as_slice()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for x in train {
            for ((s, &v), &m) in var.iter_mut().zip(x.as_slice()).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var.into_iter().map(|s| (s / n).sqrt().max(Self::STD_FLOOR)).collect();
        Self { mean, std }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardizes a raw vector.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "standardizer dimension mismatch");
        x.iter().zip(&self.mean).zip(&self.std).map(|((&v, &m), &s)| (v - m) / s).collect()
    }

    /// Allocation-free [`Self::transform`]: writes the standardized vector
    /// into `out` (the batched training path fills workspace rows with
    /// this).
    pub fn transform_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "standardizer dimension mismatch");
        assert_eq!(out.len(), x.len(), "standardizer output length mismatch");
        for (o, ((&v, &m), &s)) in out.iter_mut().zip(x.iter().zip(&self.mean).zip(&self.std)) {
            *o = (v - m) / s;
        }
    }

    /// Maps a standardized vector back to raw units.
    pub fn inverse(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.mean.len(), "standardizer dimension mismatch");
        z.iter().zip(&self.mean).zip(&self.std).map(|((&v, &m), &s)| v * s + m).collect()
    }

    /// Standardizes only a suffix slice (used by forecasting models whose
    /// target is the last stream vector: the scaler is fit on `w·N` dims
    /// and the last `N` entries correspond to `s_t`).
    pub fn transform_tail(&self, tail: &[f64]) -> Vec<f64> {
        let offset = self.mean.len() - tail.len();
        tail.iter()
            .zip(&self.mean[offset..])
            .zip(&self.std[offset..])
            .map(|((&v, &m), &s)| (v - m) / s)
            .collect()
    }

    /// Inverse of [`Self::transform_tail`].
    pub fn inverse_tail(&self, tail: &[f64]) -> Vec<f64> {
        let offset = self.mean.len() - tail.len();
        tail.iter()
            .zip(&self.mean[offset..])
            .zip(&self.std[offset..])
            .map(|((&v, &m), &s)| v * s + m)
            .collect()
    }

    /// The affine map's `(sub, div) = (μ, σ)`: `z = (x − μ)/σ`.
    pub(crate) fn affine(&self) -> (&[f64], &[f64]) {
        (&self.mean, &self.std)
    }
}

/// Per-dimension min-max scaler mapping the training range onto `[0, 1]`.
///
/// USAD bounds its decoder outputs with a final sigmoid and normalizes data
/// to `[0, 1]` (Audibert et al. §5.1) — this boundedness is what keeps the
/// adversarial maximization of `R_both` from diverging. Out-of-range stream
/// values simply map outside `[0, 1]` and become unreconstructable, which
/// is the desired anomaly signal.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    min: Vec<f64>,
    range: Vec<f64>,
}

impl MinMaxScaler {
    /// Range floor for constant dimensions.
    const RANGE_FLOOR: f64 = 1e-8;

    /// Fits per-dimension min/max over the flattened feature vectors.
    ///
    /// # Panics
    /// Panics if `train` is empty or dimensions are inconsistent.
    pub fn fit(train: &[FeatureVector]) -> Self {
        assert!(!train.is_empty(), "cannot fit a scaler on no data");
        let dim = train[0].dim();
        let mut min = vec![f64::INFINITY; dim];
        let mut max = vec![f64::NEG_INFINITY; dim];
        for x in train {
            assert_eq!(x.dim(), dim, "inconsistent feature dimensions");
            for ((lo, hi), &v) in min.iter_mut().zip(&mut max).zip(x.as_slice()) {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        let range = min.iter().zip(&max).map(|(l, h)| (h - l).max(Self::RANGE_FLOOR)).collect();
        Self { min, range }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Maps a raw vector into (approximately) `[0, 1]`.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.min.len(), "scaler dimension mismatch");
        x.iter().zip(&self.min).zip(&self.range).map(|((&v, &m), &r)| (v - m) / r).collect()
    }

    /// Allocation-free [`Self::transform`]: writes the scaled vector into
    /// `out`.
    pub fn transform_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.min.len(), "scaler dimension mismatch");
        assert_eq!(out.len(), x.len(), "scaler output length mismatch");
        for (o, ((&v, &m), &r)) in out.iter_mut().zip(x.iter().zip(&self.min).zip(&self.range)) {
            *o = (v - m) / r;
        }
    }

    /// Maps a `[0, 1]` vector back to raw units.
    pub fn inverse(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.min.len(), "scaler dimension mismatch");
        z.iter().zip(&self.min).zip(&self.range).map(|((&v, &m), &r)| v * r + m).collect()
    }

    /// The affine map's `(sub, div) = (min, range)`: `z = (x − min)/range`.
    pub(crate) fn affine(&self) -> (&[f64], &[f64]) {
        (&self.min, &self.range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(values: &[f64]) -> FeatureVector {
        FeatureVector::new(values.to_vec(), values.len(), 1)
    }

    #[test]
    fn minmax_maps_training_range_to_unit() {
        let train = vec![fv(&[0.0, -10.0]), fv(&[4.0, 30.0])];
        let s = MinMaxScaler::fit(&train);
        assert_eq!(s.transform(&[0.0, -10.0]), vec![0.0, 0.0]);
        assert_eq!(s.transform(&[4.0, 30.0]), vec![1.0, 1.0]);
        assert_eq!(s.transform(&[2.0, 10.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn minmax_round_trip() {
        let train = vec![fv(&[1.0, 2.0]), fv(&[3.0, 8.0]), fv(&[2.0, 5.0])];
        let s = MinMaxScaler::fit(&train);
        let x = [2.7, 6.1];
        let back = s.inverse(&s.transform(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn minmax_out_of_range_values_exceed_unit() {
        let train = vec![fv(&[0.0]), fv(&[1.0])];
        let s = MinMaxScaler::fit(&train);
        assert!(s.transform(&[5.0])[0] > 1.0);
        assert!(s.transform(&[-5.0])[0] < 0.0);
    }

    #[test]
    fn minmax_constant_dim_is_floored() {
        let train = vec![fv(&[7.0]), fv(&[7.0])];
        let s = MinMaxScaler::fit(&train);
        assert!(s.transform(&[7.0])[0].is_finite());
    }

    #[test]
    fn fit_computes_mean_and_std() {
        let train = vec![fv(&[0.0, 10.0]), fv(&[2.0, 30.0])];
        let s = Standardizer::fit(&train);
        let z = s.transform(&[1.0, 20.0]);
        assert!(z[0].abs() < 1e-12 && z[1].abs() < 1e-12, "center maps to zero: {z:?}");
        let z2 = s.transform(&[2.0, 30.0]);
        assert!((z2[0] - 1.0).abs() < 1e-12);
        assert!((z2[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_is_identity() {
        let train = vec![fv(&[1.0, 2.0, 3.0]), fv(&[4.0, 0.0, -3.0]), fv(&[2.0, 2.0, 9.0])];
        let s = Standardizer::fit(&train);
        let x = [3.3, -1.2, 7.0];
        let back = s.inverse(&s.transform(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_dimension_is_floored_not_nan() {
        let train = vec![fv(&[5.0, 1.0]), fv(&[5.0, 2.0])];
        let s = Standardizer::fit(&train);
        let z = s.transform(&[5.0, 1.5]);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(z[0], 0.0);
    }

    #[test]
    fn tail_transforms_use_suffix_stats() {
        let train = vec![fv(&[0.0, 100.0]), fv(&[2.0, 300.0])];
        let s = Standardizer::fit(&train);
        let z = s.transform_tail(&[200.0]);
        assert!(z[0].abs() < 1e-12);
        let raw = s.inverse_tail(&[1.0]);
        assert!((raw[0] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn identity_scaler_is_noop() {
        let s = Standardizer::identity(3);
        let x = [1.0, -2.0, 3.0];
        assert_eq!(s.transform(&x), x.to_vec());
        assert_eq!(s.inverse(&x), x.to_vec());
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        let _ = Standardizer::fit(&[]);
    }

    #[test]
    fn transform_into_matches_transform_bitwise() {
        let train = vec![fv(&[1.0, -4.0, 0.5]), fv(&[3.0, 2.0, 9.5]), fv(&[0.0, 1.0, 4.0])];
        let x = [2.2, -0.7, 6.1];
        let mut out = [0.0; 3];
        let s = Standardizer::fit(&train);
        s.transform_into(&x, &mut out);
        assert_eq!(out.map(f64::to_bits).to_vec(),
            s.transform(&x).iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        let mm = MinMaxScaler::fit(&train);
        mm.transform_into(&x, &mut out);
        assert_eq!(out.map(f64::to_bits).to_vec(),
            mm.transform(&x).iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }
}
