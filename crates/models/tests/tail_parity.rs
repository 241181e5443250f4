//! Detector-tail parity: the struct-of-arrays μ/σ statistics with their
//! fused moment pass, and the one-pass cosine similarity, against *frozen
//! reference implementations* of the layouts they replaced.
//!
//! The references below are verbatim in semantics to the pre-fusion code:
//! an array of per-dimension `RunningStats{n, sum, sum_sq}`, a μ/σ-Change
//! trigger that streams `means()` into the RMS distance and then takes
//! `mean_std_dev()` in a second pass, and a cosine built from three
//! sequential reductions (`‖a‖`, `‖b‖`, `a·b`). Every assertion is on
//! `to_bits`, so the contract is bit-for-bit, not a tolerance.
//!
//! Op sequences cover inserts, replaces and removes (including draining to
//! empty and refilling), dimensions that are not a multiple of the fused
//! pass's chunk width, and constant channels. The detector-level tests run
//! the paper's AE / sliding window / μ/σ pipeline with the live and the
//! frozen drift detector side by side, on a clean stream and on one
//! poisoned by a single NaN, where the non-finite counter must move while
//! every output stays what the frozen reference produces.

use proptest::prelude::*;
use sad_core::{
    AlgorithmSpec, Detector, DetectorConfig, DriftDetector, FeatureVector, ModelKind,
    MuSigmaChange, ScoreKind, SetUpdate, StepOutput, Task1, Task2,
};
use sad_models::{build_model, build_scorer, build_task1, BuildParams};
use sad_stats::{OpCount, VectorRunningStats};
use sad_tensor::{cosine_similarity, Scalar};

// ---------------------------------------------------------------------------
// Frozen references (pre-fusion semantics).
// ---------------------------------------------------------------------------

/// Legacy scalar accumulator, one per dimension.
#[derive(Debug, Clone, Default)]
struct RefRunningStats {
    n: usize,
    sum: f64,
    sum_sq: f64,
}

impl RefRunningStats {
    fn insert(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.sum_sq += v * v;
    }

    fn remove(&mut self, v: f64) {
        assert!(self.n > 0);
        self.n -= 1;
        self.sum -= v;
        self.sum_sq -= v * v;
        if self.n == 0 {
            self.sum = 0.0;
            self.sum_sq = 0.0;
        }
    }

    fn replace(&mut self, old: f64, new: f64) {
        assert!(self.n > 0);
        self.sum += new - old;
        self.sum_sq += new * new - old * old;
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    fn std_dev(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.n as f64 - m * m).max(0.0).sqrt()
    }
}

/// Legacy array-of-structs vector statistics.
#[derive(Debug, Clone)]
struct RefVectorStats {
    dims: Vec<RefRunningStats>,
}

impl RefVectorStats {
    fn new(dim: usize) -> Self {
        Self { dims: vec![RefRunningStats::default(); dim] }
    }

    fn count(&self) -> usize {
        self.dims.first().map_or(0, |d| d.n)
    }

    fn insert(&mut self, v: &[f64]) {
        for (d, &x) in self.dims.iter_mut().zip(v) {
            d.insert(x);
        }
    }

    fn remove(&mut self, v: &[f64]) {
        for (d, &x) in self.dims.iter_mut().zip(v) {
            d.remove(x);
        }
    }

    fn replace(&mut self, old: &[f64], new: &[f64]) {
        for (d, (&o, &n)) in self.dims.iter_mut().zip(old.iter().zip(new)) {
            d.replace(o, n);
        }
    }

    fn means(&self) -> impl Iterator<Item = f64> + '_ {
        self.dims.iter().map(RefRunningStats::mean)
    }

    fn mean_std_dev(&self) -> f64 {
        if self.dims.is_empty() {
            return 0.0;
        }
        self.dims.iter().map(RefRunningStats::std_dev).sum::<f64>() / self.dims.len() as f64
    }

    /// The legacy two-pass trigger terms: RMS distance streamed from
    /// `means()`, then `mean_std_dev()`.
    fn drift_terms(&self, reference: &[f64]) -> (f64, f64) {
        let dist_sq =
            reference.iter().zip(self.means()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
                / self.dims.len() as f64;
        (dist_sq.sqrt(), self.mean_std_dev())
    }
}

/// Legacy μ/σ-Change over [`RefVectorStats`], op tally included.
#[derive(Debug, Clone)]
struct RefMuSigma {
    stats: Option<RefVectorStats>,
    ref_mean: Vec<f64>,
    ref_sigma: f64,
    has_ref: bool,
    ops: OpCount,
}

impl RefMuSigma {
    fn new() -> Self {
        Self {
            stats: None,
            ref_mean: Vec::new(),
            ref_sigma: 0.0,
            has_ref: false,
            ops: OpCount::default(),
        }
    }
}

impl DriftDetector for RefMuSigma {
    fn name(&self) -> &'static str {
        "μ/σ"
    }

    fn observe(&mut self, x: &FeatureVector, update: &SetUpdate, _train: &[FeatureVector]) -> bool {
        let d = x.dim() as u64;
        let stats = self.stats.get_or_insert_with(|| RefVectorStats::new(x.dim()));
        match update {
            SetUpdate::Appended => {
                stats.insert(x.as_slice());
                self.ops.additions += 2 * d;
                self.ops.multiplications += d;
            }
            SetUpdate::Replaced { removed } => {
                stats.replace(removed.as_slice(), x.as_slice());
                self.ops.additions += 4 * d;
                self.ops.multiplications += 2 * d;
            }
            SetUpdate::Unchanged => {}
        }
        if !self.has_ref {
            return false;
        }
        let stats = self.stats.as_ref().unwrap();
        if stats.count() < 2 {
            return false;
        }
        let (dist, sigma_t) = stats.drift_terms(&self.ref_mean);
        self.ops.additions += 2 * d;
        self.ops.multiplications += 4 * d;
        self.ops.comparisons += 3;
        let sigma_ref = self.ref_sigma.max(1e-9);
        dist > sigma_ref || sigma_t > 2.0 * sigma_ref || sigma_t < 0.5 * sigma_ref
    }

    fn on_fine_tune(&mut self, _train: &[FeatureVector]) {
        if let Some(stats) = &self.stats {
            self.ref_mean.clear();
            self.ref_mean.extend(stats.means());
            self.ref_sigma = stats.mean_std_dev();
            self.has_ref = true;
        }
    }

    fn ops(&self) -> OpCount {
        self.ops
    }

    fn clone_box(&self) -> Box<dyn DriftDetector> {
        Box::new(self.clone())
    }
}

/// Legacy cosine: `‖a‖`, `‖b‖`, then `a·b`, each a sequential fold.
fn ref_cosine<T: Scalar>(a: &[T], b: &[T]) -> T {
    let dot = |u: &[T], v: &[T]| u.iter().zip(v).fold(T::ZERO, |acc, (&x, &y)| acc + x * y);
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na <= T::EPSILON || nb <= T::EPSILON {
        return T::ZERO;
    }
    (dot(a, b) / (na * nb)).clampv(-T::ONE, T::ONE)
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

/// SplitMix64: the op-sequence generator behind each proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-scale, scale)`.
    fn value(&mut self, scale: f64) -> f64 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
    }
}

/// A random vector whose every fifth dimension is a constant channel.
fn vector(rng: &mut Rng, dim: usize, scale: f64) -> Vec<f64> {
    (0..dim).map(|j| if j % 5 == 2 { 0.75 } else { rng.value(scale) }).collect()
}

/// Asserts the live and frozen statistics agree bit for bit on the means,
/// `σ_t`, and both trigger terms against `reference`.
fn assert_stats_bitwise(live: &VectorRunningStats, frozen: &RefVectorStats, reference: &[f64]) {
    assert_eq!(live.count(), frozen.count());
    let mut means = Vec::new();
    let sigma = live.snapshot_means(&mut means);
    let want: Vec<u64> = frozen.means().map(f64::to_bits).collect();
    let got: Vec<u64> = means.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "means");
    assert_eq!(sigma.to_bits(), frozen.mean_std_dev().to_bits(), "mean_std_dev");
    let (dist, sigma_t) = live.drift_terms(reference);
    let (ref_dist, ref_sigma_t) = frozen.drift_terms(reference);
    assert_eq!(dist.to_bits(), ref_dist.to_bits(), "dist");
    assert_eq!(sigma_t.to_bits(), ref_sigma_t.to_bits(), "σ_t");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random insert / replace / remove sequences (draining to empty and
    /// refilling along the way) keep the struct-of-arrays statistics
    /// bitwise equal to the array-of-structs reference.
    #[test]
    fn soa_stats_match_frozen_aos(
        seed in 0u64..u64::MAX,
        dim in 1usize..45,
        steps in 20usize..200,
    ) {
        let mut rng = Rng(seed);
        let scale = [1e-3, 1.0, 1e3][rng.below(3)];
        let mut live = VectorRunningStats::new(dim);
        let mut frozen = RefVectorStats::new(dim);
        let mut held: Vec<Vec<f64>> = Vec::new();
        let reference = vector(&mut rng, dim, scale);
        for step in 0..steps {
            match rng.below(10) {
                0..=3 => {
                    let v = vector(&mut rng, dim, scale);
                    live.insert(&v);
                    frozen.insert(&v);
                    held.push(v);
                }
                4..=7 if !held.is_empty() => {
                    let i = rng.below(held.len());
                    let v = vector(&mut rng, dim, scale);
                    live.replace(&held[i], &v);
                    frozen.replace(&held[i], &v);
                    held[i] = v;
                }
                8 if !held.is_empty() => {
                    let v = held.swap_remove(rng.below(held.len()));
                    live.remove(&v);
                    frozen.remove(&v);
                }
                _ if step % 50 == 49 => {
                    // Drain to empty: the snap-to-zero path.
                    for v in held.drain(..) {
                        live.remove(&v);
                        frozen.remove(&v);
                    }
                }
                _ => {}
            }
            assert_stats_bitwise(&live, &frozen, &reference);
        }
    }

    /// The live μ/σ-Change detector returns the frozen two-pass trigger's
    /// verdict and op tally on every step of a random set-update sequence.
    #[test]
    fn mu_sigma_verdicts_match_frozen(
        seed in 0u64..u64::MAX,
        w in 1usize..6,
        n in 1usize..9,
        steps in 50usize..300,
    ) {
        let mut rng = Rng(seed);
        let dim = w * n;
        let mut live = MuSigmaChange::new();
        let mut frozen = RefMuSigma::new();
        let mut held: Vec<FeatureVector> = Vec::new();
        let mut shift = 0.0;
        for t in 0..steps {
            if rng.below(40) == 0 {
                shift += rng.value(3.0);
            }
            let mut data = vector(&mut rng, dim, 1.0);
            for v in &mut data {
                *v += shift;
            }
            let x = FeatureVector::new(data, w, n);
            let update = if held.len() < 12 {
                held.push(x.clone());
                SetUpdate::Appended
            } else if rng.below(5) == 0 {
                SetUpdate::Unchanged
            } else {
                let i = rng.below(held.len());
                SetUpdate::Replaced { removed: std::mem::replace(&mut held[i], x.clone()) }
            };
            let got = live.observe(&x, &update, &held);
            let want = frozen.observe(&x, &update, &held);
            prop_assert_eq!(got, want, "verdict at step {}", t);
            if got || t == 15 {
                live.on_fine_tune(&held);
                frozen.on_fine_tune(&held);
            }
        }
        prop_assert_eq!(live.ops(), frozen.ops());
        prop_assert_eq!(live.nonfinite_stats(), 0);
    }

    /// One-pass cosine equals the three-pass reference bitwise in f64 and
    /// f32, including zero vectors and vectors with zero-norm tails.
    #[test]
    fn fused_cosine_matches_frozen(seed in 0u64..u64::MAX, len in 0usize..400) {
        let mut rng = Rng(seed);
        let scale = [1e-9, 1.0, 1e6][rng.below(3)];
        let zero_a = rng.below(6) == 0;
        let a: Vec<f64> = (0..len).map(|_| if zero_a { 0.0 } else { rng.value(scale) }).collect();
        let b: Vec<f64> =
            (0..len).map(|j| if j % 7 == 3 { 0.0 } else { rng.value(scale) }).collect();
        prop_assert_eq!(cosine_similarity(&a, &b).to_bits(), ref_cosine(&a, &b).to_bits());
        prop_assert_eq!(cosine_similarity(&a, &a).to_bits(), ref_cosine(&a, &a).to_bits());
        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        prop_assert_eq!(cosine_similarity(&af, &bf).to_bits(), ref_cosine(&af, &bf).to_bits());
        prop_assert_eq!(cosine_similarity(&bf, &af).to_bits(), ref_cosine(&bf, &af).to_bits());
    }
}

#[test]
fn cosine_zero_norm_branch_matches_frozen() {
    let zero = [0.0f64; 11];
    let tiny = [1e-170f64; 11];
    let one = [1.0f64; 11];
    for (a, b) in [(&zero, &one), (&one, &zero), (&zero, &zero), (&tiny, &one)] {
        assert_eq!(cosine_similarity(a, b).to_bits(), ref_cosine(a, b).to_bits());
        assert_eq!(cosine_similarity(a, b), 0.0);
    }
    let zf = [0.0f32; 5];
    let of = [2.0f32; 5];
    assert_eq!(cosine_similarity(&zf, &of).to_bits(), ref_cosine(&zf, &of).to_bits());
    assert_eq!(cosine_similarity(&of, &of).to_bits(), ref_cosine(&of, &of).to_bits());
}

// ---------------------------------------------------------------------------
// Detector level: AE / sliding window / μ/σ, live vs frozen drift detector.
// ---------------------------------------------------------------------------

const CHANNELS: usize = 5;
const WINDOW: usize = 10;

/// Noisy multichannel sinusoid with a mean shift at t=800, so μ/σ-Change
/// fires on the clean stream.
fn stream(len: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng(7);
    (0..len)
        .map(|t| {
            let shift = if t >= 800 { 1.5 } else { 0.0 };
            (0..CHANNELS)
                .map(|c| (t as f64 * 0.05 * (c + 1) as f64).sin() + 0.1 * rng.value(1.0) + shift)
                .collect()
        })
        .collect()
}

fn ae_detector(drift: Box<dyn DriftDetector>) -> Detector {
    let spec = AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let config = DetectorConfig {
        window: WINDOW,
        channels: CHANNELS,
        warmup: 200,
        initial_epochs: 2,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config.clone()).with_seed(11);
    Detector::new(
        config,
        build_model(spec.model, &params),
        build_task1(spec.task1, &params),
        drift,
        build_scorer(ScoreKind::AnomalyLikelihood, &params),
    )
}

/// Runs the live and the frozen-reference detector over `series` and
/// asserts identical outputs; returns the live detector and its outputs.
fn run_side_by_side(series: &[Vec<f64>]) -> (Detector, Vec<StepOutput>) {
    let mut live = ae_detector(Box::new(MuSigmaChange::new()));
    let mut frozen = ae_detector(Box::new(RefMuSigma::new()));
    let mut outs = Vec::new();
    for (t, s) in series.iter().enumerate() {
        let (a, b) = (live.step(s), frozen.step(s));
        match (&a, &b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.nonconformity.to_bits(), b.nonconformity.to_bits(), "a_t at t={t}");
                assert_eq!(a.anomaly_score.to_bits(), b.anomaly_score.to_bits(), "f_t at t={t}");
                assert_eq!((a.drift, a.fine_tuned), (b.drift, b.fine_tuned), "drift at t={t}");
            }
            (None, None) => {}
            _ => panic!("warm-up boundary diverged at t={t}"),
        }
        outs.extend(a);
    }
    assert_eq!(live.drift_times(), frozen.drift_times());
    assert_eq!(live.drift_ops(), frozen.drift_ops());
    (live, outs)
}

fn nonfinite_counter(det: &Detector) -> u64 {
    det.export_metrics().counter_by_name("sad_detector_nonfinite_drift_stats_total").unwrap()
}

#[test]
fn ae_sw_mu_sigma_clean_stream_matches_frozen() {
    let (det, _) = run_side_by_side(&stream(1200));
    assert!(!det.drift_times().is_empty(), "the mean shift must trigger μ/σ-Change");
    assert_eq!(nonfinite_counter(&det), 0);
}

/// One NaN at t=500 poisons the running sums for good. The outputs must
/// stay exactly what the frozen reference produces (the input policy is a
/// separate change) while the new counter makes the poisoning visible.
#[test]
fn nan_poisoning_is_counted_without_changing_outputs() {
    let mut series = stream(1200);
    series[500][2] = f64::NAN;
    let (det, outs) = run_side_by_side(&series);
    let poisoned = nonfinite_counter(&det);
    assert!(poisoned > 0, "the non-finite counter must move");
    // Every observe after the NaN entered the statistics is counted.
    let after = outs.iter().filter(|o| o.t >= 500).count() as u64;
    assert_eq!(poisoned, after);
    assert!(det.drift_times().iter().all(|&t| t < 500), "poisoned μ/σ never fires again");
}
