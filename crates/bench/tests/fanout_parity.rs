//! Bitwise parity of the single-pass scorer fan-out against legacy
//! per-scorer runs.
//!
//! The tentpole guarantee of the fan-out refactor: teeing the per-step
//! nonconformity `a_t` through a [`sad_core::ScorerBank`] (one detector
//! pass, all scorers) produces **bit-identical** score traces and metric
//! rows to the pre-fan-out protocol of one detector per `(spec, corpus,
//! scorer)` cell — for every scorer, every training strategy (including
//! the anomaly-feedback ARES path, which shares only the warm-up and
//! forks per scorer), and at any worker count.
//!
//! The legacy reference is replicated here verbatim (one detector per
//! scorer, `score_series`, the five-metric sweep) so the comparison does
//! not depend on the refactored code path under test.

use sad_bench::{
    cell_index, evaluate_tree, harness_params, run_grid, EvalRow, GridDims, HarnessScale, JobPool,
    TreeEval,
};
use sad_core::{paper_algorithms, AlgorithmSpec, DetectorConfig, ScoreKind, Task1};
use sad_data::{daphnet_like, smd_like, Corpus, CorpusParams};
use sad_metrics::{best_f1, best_nab, pr_auc, vus_pr};
use sad_models::{build_detector, build_scorer_bank, BuildParams};

const ALL_SCORERS: [ScoreKind; 3] =
    [ScoreKind::Raw, ScoreKind::Average, ScoreKind::AnomalyLikelihood];

/// Small-but-real detector configuration for trace-level checks.
fn tiny_params(channels: usize, seed: u64) -> BuildParams {
    let config = DetectorConfig {
        window: 6,
        channels,
        warmup: 80,
        initial_epochs: 2,
        fine_tune_epochs: 1,
    };
    BuildParams::new(config).with_capacity(12).with_kswin_stride(3).with_seed(seed)
}

/// The pre-fan-out scoring protocol: one fresh detector per scorer.
fn legacy_traces(
    spec: AlgorithmSpec,
    params: &BuildParams,
    series: &[Vec<f64>],
) -> Vec<(Vec<f64>, usize)> {
    ALL_SCORERS
        .iter()
        .map(|&kind| {
            let p = params.clone().with_score(kind);
            let mut det = build_detector(spec, &p);
            det.score_series(series)
        })
        .collect()
}

/// The pre-fan-out metric row: legacy trace + the five-metric sweep.
fn legacy_row(
    spec: AlgorithmSpec,
    params: &BuildParams,
    corpus: &Corpus,
    score: ScoreKind,
) -> EvalRow {
    let n_thresholds = 40;
    let rows: Vec<EvalRow> = corpus
        .series
        .iter()
        .map(|series| {
            let p = params.clone().with_score(score);
            let mut detector = build_detector(spec, &p);
            let (scores, offset) = detector.score_series(&series.data);
            let labels = &series.labels[offset..];
            let (_th, precision, recall, _f1) = best_f1(&scores, labels, n_thresholds);
            let auc = pr_auc(&scores, labels, n_thresholds);
            let vus = vus_pr(&scores, labels, params.config.window, n_thresholds);
            let (_nab_th, report) = best_nab(&scores, labels, n_thresholds);
            EvalRow { precision, recall, auc, vus, nab: report.score }
        })
        .collect();
    EvalRow::mean(&rows)
}

/// The fan-out path under test for one spec: a root with one drift
/// variant.
fn evaluate_spec(
    spec: AlgorithmSpec,
    params: &BuildParams,
    corpus: &Corpus,
    scorers: &[ScoreKind],
) -> TreeEval {
    evaluate_tree(spec.model, spec.task1, &[spec.task2], params, corpus, scorers)
}

fn row_bits(row: &EvalRow) -> [u64; 5] {
    [
        row.precision.to_bits(),
        row.recall.to_bits(),
        row.auc.to_bits(),
        row.vus.to_bits(),
        row.nab.to_bits(),
    ]
}

/// Deterministic synthetic multivariate series with a planted level shift.
fn synthetic_series(len: usize, channels: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            (0..channels)
                .map(|c| {
                    let phase = (seed % 17) as f64 * 0.31 + c as f64 * 0.7;
                    let base = ((t as f64) * 0.11 + phase).sin();
                    let shift = if t > 2 * len / 3 { 0.8 } else { 0.0 };
                    base + 0.05 * (((t * (c + 3)) % 23) as f64 - 11.0) / 11.0 + shift
                })
                .collect()
        })
        .collect()
}

#[test]
fn fanout_traces_match_legacy_for_every_spec_and_scorer() {
    // Every Table I spec: feedback-free ones take the shared-pass branch,
    // ARES ones the warm-up-share fork branch inside
    // `evaluate_tree`; at trace level only feedback-free specs
    // can use `run_fanout` directly.
    let series = synthetic_series(260, 2, 5);
    for spec in paper_algorithms() {
        let params = tiny_params(2, 9);
        let p0 = params.clone().with_score(ALL_SCORERS[0]);
        let mut det = build_detector(spec, &p0);
        if !det.scorer_feedback_free() {
            continue; // ARES: covered at EvalRow level below.
        }
        let mut bank = build_scorer_bank(&ALL_SCORERS, &params);
        let run = det.run_fanout(&series, &mut bank);
        let legacy = legacy_traces(spec, &params, &series);
        for (k, (trace, (legacy_trace, legacy_offset))) in
            run.traces.iter().zip(&legacy).enumerate()
        {
            assert_eq!(run.offset, *legacy_offset, "{}: offset", spec.label());
            assert_eq!(trace.len(), legacy_trace.len(), "{}: trace length", spec.label());
            for (t, (a, b)) in trace.iter().zip(legacy_trace).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} / {:?}: trace diverges at step {t}",
                    spec.label(),
                    ALL_SCORERS[k],
                );
            }
        }
    }
}

#[test]
fn group_rows_match_legacy_for_every_spec() {
    // EvalRow-level parity over a real (small) corpus for all 26 specs —
    // exercises both the shared-pass and the ARES fork branch.
    let cp = CorpusParams { length: 520, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpus = smd_like(3, cp);
    let channels = corpus.series[0].channels();
    for spec in paper_algorithms() {
        let params = tiny_params(channels, 21);
        let tree = evaluate_spec(spec, &params, &corpus, &ALL_SCORERS);
        assert_eq!(tree.rows.len(), 1);
        assert_eq!(tree.rows[0].len(), ALL_SCORERS.len());
        assert_eq!(tree.shared_pass, spec.task1 != Task1::AnomalyAwareReservoir, "{}", spec.label());
        for (k, &kind) in ALL_SCORERS.iter().enumerate() {
            let legacy = legacy_row(spec, &params, &corpus, kind);
            assert_eq!(
                row_bits(&tree.rows[0][k]),
                row_bits(&legacy),
                "{} / {kind:?}: EvalRow diverges from legacy per-scorer run",
                spec.label(),
            );
        }
    }
}

#[test]
fn grid_matches_legacy_cells_at_every_worker_count() {
    // The grouped grid must scatter rows into exactly the legacy per-cell
    // layout, bitwise, at --serial and --jobs 2/4/8.
    let cp = CorpusParams { length: 600, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpora: Vec<Corpus> = vec![daphnet_like(13, cp), smd_like(13, cp)];
    let specs: Vec<AlgorithmSpec> = paper_algorithms()
        .into_iter()
        .filter(|s| {
            // A cheap slice covering all three Task-1 strategies.
            matches!(
                s.task1,
                Task1::SlidingWindow | Task1::UniformReservoir | Task1::AnomalyAwareReservoir
            )
        })
        .take(6)
        .collect();
    let dims = GridDims { corpora: corpora.len(), scorers: ALL_SCORERS.len() };

    // Legacy reference: one detector per (spec, corpus, scorer) cell.
    let mut legacy = Vec::new();
    for spec in &specs {
        for corpus in &corpora {
            let params = harness_params(corpus.series[0].channels(), HarnessScale::Quick);
            for &kind in &ALL_SCORERS {
                legacy.push(legacy_row(*spec, &params, corpus, kind));
            }
        }
    }

    for jobs in [1usize, 2, 4, 8] {
        let grid =
            run_grid(&specs, &corpora, &ALL_SCORERS, HarnessScale::Quick, JobPool::new(jobs));
        assert_eq!(grid.rows.len(), legacy.len(), "jobs={jobs}");
        for (si, spec) in specs.iter().enumerate() {
            for ci in 0..corpora.len() {
                for (ki, kind) in ALL_SCORERS.iter().enumerate() {
                    let idx = cell_index(si, ci, ki, dims);
                    assert_eq!(
                        row_bits(&grid.rows[idx]),
                        row_bits(&legacy[idx]),
                        "jobs={jobs}: cell {idx} ({} / {kind:?}) diverges",
                        spec.label(),
                    );
                }
            }
        }
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// Fan-out traces equal legacy per-scorer traces bitwise for a
        /// random feedback-free spec, random seed, and random series.
        #[test]
        fn random_spec_seed_series_fanout_parity(
            spec_idx in 0usize..26,
            seed in 0u64..1000,
            len in 200usize..320,
        ) {
            let spec = paper_algorithms()[spec_idx];
            let series = synthetic_series(len, 2, seed);
            let params = tiny_params(2, seed);
            let p0 = params.clone().with_score(ALL_SCORERS[0]);
            let mut det = build_detector(spec, &p0);
            if det.scorer_feedback_free() {
                let mut bank = build_scorer_bank(&ALL_SCORERS, &params);
                let run = det.run_fanout(&series, &mut bank);
                let legacy = legacy_traces(spec, &params, &series);
                for (trace, (legacy_trace, legacy_offset)) in run.traces.iter().zip(&legacy) {
                    prop_assert_eq!(run.offset, *legacy_offset);
                    prop_assert_eq!(trace.len(), legacy_trace.len());
                    for (a, b) in trace.iter().zip(legacy_trace) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            } else {
                // ARES: the fork path must still reproduce legacy rows.
                // Label a slice of the planted level shift as anomalous so
                // the metric sweep is non-degenerate.
                let labels: Vec<bool> =
                    (0..series.len()).map(|t| t > 3 * series.len() / 4).collect();
                let corpus = Corpus {
                    name: "prop".into(),
                    series: vec![sad_data::LabeledSeries::new("prop-s0", series.clone(), labels)],
                };
                let tree = evaluate_spec(spec, &params, &corpus, &ALL_SCORERS);
                for (k, &kind) in ALL_SCORERS.iter().enumerate() {
                    let legacy = legacy_row(spec, &params, &corpus, kind);
                    prop_assert_eq!(row_bits(&tree.rows[0][k]), row_bits(&legacy));
                }
            }
        }
    }
}
