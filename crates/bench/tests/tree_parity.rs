//! Bitwise parity of the shared-prefix evaluation tree against the
//! per-group evaluation path it replaced.
//!
//! The tentpole guarantee of the tree refactor: streaming the warm-up
//! segment ONCE per `(model, Task1, corpus, series)` root — one repr +
//! Task-1 pass, every drift variant observing the same update stream, one
//! `fit_initial` — and then forking one detector per drift variant
//! produces **bit-identical** score traces and metric rows to the
//! previous protocol of one independent warm-up + fit per
//! `(model, Task1, Task2)` spec, for every Table I spec, every scorer,
//! and at any worker count.
//!
//! The per-group reference is replicated here verbatim (one
//! `build_detector` per spec, full-series `run_fanout` / warm-up-share
//! scorer forks, the five-metric sweep) so the comparison does not depend
//! on the refactored code path under test.

use sad_bench::{
    cell_index, evaluate_tree, harness_params, plan_roots, run_grid, EvalRow, GridDims,
    HarnessScale, JobPool,
};
use sad_core::{paper_algorithms, AlgorithmSpec, DetectorConfig, ModelKind, ScoreKind};
use sad_data::{daphnet_like, smd_like, Corpus, CorpusParams};
use sad_metrics::{best_f1, best_nab, pr_auc, vus_pr};
use sad_models::{
    build_detector, build_scorer, build_scorer_bank, build_shared_warmup, BuildParams,
};

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

/// The five-metric sweep, replicated from the eval module.
fn metrics_row(scores: &[f64], labels: &[bool], window: usize) -> EvalRow {
    let n_thresholds = 40;
    let (_th, precision, recall, _f1) = best_f1(scores, labels, n_thresholds);
    let auc = pr_auc(scores, labels, n_thresholds);
    let vus = vus_pr(scores, labels, window, n_thresholds);
    let (_nab_th, report) = best_nab(scores, labels, n_thresholds);
    EvalRow { precision, recall, auc, vus, nab: report.score }
}

/// The per-group evaluation protocol this PR replaced, replicated
/// verbatim: ONE independent detector (own warm-up, own `fit_initial`)
/// per `(model, Task1, Task2)` spec; inside it the scorer fan-out of the
/// previous refactor (shared full-series pass for feedback-free
/// strategies, warm-up-share `clone` + `set_scorer` forks for ARES).
/// Returns one corpus-averaged row per scorer.
fn group_reference(
    spec: AlgorithmSpec,
    params: &BuildParams,
    corpus: &Corpus,
    scorers: &[ScoreKind],
) -> Vec<EvalRow> {
    let window = params.config.window;
    let mut per_scorer: Vec<Vec<EvalRow>> = vec![Vec::new(); scorers.len()];
    for series in &corpus.series {
        let p = params.clone().with_score(scorers[0]);
        let mut detector = build_detector(spec, &p);
        if detector.scorer_feedback_free() {
            let mut bank = build_scorer_bank(scorers, params);
            let run = detector.run_fanout(&series.data, &mut bank);
            let labels = &series.labels[run.offset..];
            for (k, trace) in run.traces.iter().enumerate() {
                per_scorer[k].push(metrics_row(trace, labels, window));
            }
        } else {
            let warm = params.config.warmup.min(series.data.len());
            for s in &series.data[..warm] {
                assert!(detector.step(s).is_none(), "warm-up step produced output");
            }
            for (k, &kind) in scorers.iter().enumerate() {
                let mut fork = detector.clone();
                fork.set_scorer(build_scorer(kind, params));
                let mut scores = Vec::new();
                let mut offset = series.data.len();
                for s in &series.data[warm..] {
                    if let Some(out) = fork.step(s) {
                        if scores.is_empty() {
                            offset = out.t;
                        }
                        scores.push(out.anomaly_score);
                    }
                }
                per_scorer[k].push(metrics_row(&scores, &series.labels[offset..], window));
            }
        }
    }
    per_scorer.iter().map(|rows| EvalRow::mean(rows)).collect()
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

/// EvalRow-level parity over a real (small) corpus: every Table I root,
/// every drift variant, every scorer, against the independent-warm-up
/// reference — and one shared `fit_initial` per root, not one per member.
#[test]
fn tree_rows_match_group_reference_for_all_26_specs() {
    let cp = CorpusParams { length: 520, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpus = smd_like(3, cp);
    let channels = corpus.series[0].channels();
    let specs = paper_algorithms();
    let roots = plan_roots(&specs);
    assert_eq!(roots.len(), 14);
    let mut covered = 0usize;
    for root in &roots {
        let params = tiny_params(channels, 21);
        let tree = evaluate_tree(root.model, root.task1, &root.task2s, &params, &corpus, &ALL_SCORERS);
        assert_eq!(tree.rows.len(), root.members.len());
        assert_eq!(tree.initial_fits, corpus.series.len(), "{}", root.label());
        for (v, &spec_idx) in root.members.iter().enumerate() {
            let spec = specs[spec_idx];
            let reference = group_reference(spec, &params, &corpus, &ALL_SCORERS);
            for (k, &kind) in ALL_SCORERS.iter().enumerate() {
                assert_eq!(
                    row_bits(&tree.rows[v][k]),
                    row_bits(&reference[k]),
                    "{} / {kind:?}: EvalRow diverges from independent-warm-up run",
                    spec.label(),
                );
            }
            covered += 1;
        }
    }
    assert_eq!(covered, 26);
}

/// Trace-level parity: the warmed forks' post-warm-up score traces equal
/// the full-series traces of independently warmed detectors, bitwise, for
/// every spec (feedback-free specs via the scorer bank, ARES specs via
/// per-scorer forks).
#[test]
fn tree_traces_match_group_reference_for_all_26_specs() {
    let series = synthetic_series(260, 2, 5);
    let specs = paper_algorithms();
    for root in plan_roots(&specs) {
        let params = tiny_params(2, 9);
        let warm = params.config.warmup.min(series.len());
        let mut shared = build_shared_warmup(root.model, root.task1, &root.task2s, &params);
        for s in &series[..warm] {
            shared.step(s);
        }
        for (v, &spec_idx) in root.members.iter().enumerate() {
            let spec = specs[spec_idx];
            // Independent warm-up reference for this member.
            let p0 = params.clone().with_score(ALL_SCORERS[0]);
            let mut reference = build_detector(spec, &p0);
            if shared.scorer_feedback_free() {
                let mut fork = shared.fork(v, build_scorer(ALL_SCORERS[0], &params));
                let mut fork_bank = build_scorer_bank(&ALL_SCORERS, &params);
                let fork_run = fork.run_fanout(&series[warm..], &mut fork_bank);
                let mut ref_bank = build_scorer_bank(&ALL_SCORERS, &params);
                let ref_run = reference.run_fanout(&series, &mut ref_bank);
                for (k, (a, b)) in fork_run.traces.iter().zip(&ref_run.traces).enumerate() {
                    assert_eq!(a.len(), b.len(), "{}: trace length", spec.label());
                    for (t, (x, y)) in a.iter().zip(b).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{} / {:?}: trace diverges at step {t}",
                            spec.label(),
                            ALL_SCORERS[k],
                        );
                    }
                }
                assert_eq!(fork.drift_times(), reference.drift_times(), "{}", spec.label());
            } else {
                for s in &series[..warm] {
                    assert!(reference.step(s).is_none());
                }
                for &kind in &ALL_SCORERS {
                    let mut fork = shared.fork(v, build_scorer(kind, &params));
                    let mut ref_fork = reference.fork_with_scorer(build_scorer(kind, &params));
                    for (t, s) in series[warm..].iter().enumerate() {
                        let a = fork.step(s);
                        let b = ref_fork.step(s);
                        assert_eq!(a.is_some(), b.is_some(), "{}: step {t}", spec.label());
                        if let (Some(a), Some(b)) = (a, b) {
                            assert_eq!(
                                a.anomaly_score.to_bits(),
                                b.anomaly_score.to_bits(),
                                "{} / {kind:?}: trace diverges at step {t}",
                                spec.label(),
                            );
                            assert_eq!(a.drift, b.drift, "{}: step {t}", spec.label());
                        }
                    }
                }
            }
        }
    }
}

/// The root-scheduled grid must scatter rows into exactly the per-cell
/// layout of the independent-warm-up reference, bitwise, at --serial and
/// --jobs 2/4/8.
#[test]
fn tree_grid_matches_group_reference_at_every_worker_count() {
    let cp = CorpusParams { length: 600, n_series: 1, anomalies_per_series: 2, with_drift: true };
    let corpora: Vec<Corpus> = vec![daphnet_like(13, cp), smd_like(13, cp)];
    // A cheap slice covering paired roots (ARIMA × all three Task-1
    // strategies) and a PCB singleton root.
    let specs: Vec<AlgorithmSpec> = paper_algorithms()
        .into_iter()
        .filter(|s| matches!(s.model, ModelKind::OnlineArima | ModelKind::PcbIForest))
        .collect();
    assert_eq!(specs.len(), 8);
    let dims = GridDims { corpora: corpora.len(), scorers: ALL_SCORERS.len() };

    let mut reference = Vec::new();
    for spec in &specs {
        for corpus in &corpora {
            let params = harness_params(corpus.series[0].channels(), HarnessScale::Quick);
            reference.extend(group_reference(*spec, &params, corpus, &ALL_SCORERS));
        }
    }

    let n_roots = plan_roots(&specs).len() * corpora.len();
    for jobs in [1usize, 2, 4, 8] {
        let grid =
            run_grid(&specs, &corpora, &ALL_SCORERS, HarnessScale::Quick, JobPool::new(jobs));
        assert_eq!(grid.rows.len(), reference.len(), "jobs={jobs}");
        assert_eq!(grid.root_times.len(), n_roots, "jobs={jobs}");
        // Every root fitted once per series, regardless of variant count.
        assert_eq!(grid.initial_fits(), n_roots, "jobs={jobs}");
        for (si, spec) in specs.iter().enumerate() {
            for ci in 0..corpora.len() {
                for (ki, kind) in ALL_SCORERS.iter().enumerate() {
                    let idx = cell_index(si, ci, ki, dims);
                    assert_eq!(
                        row_bits(&grid.rows[idx]),
                        row_bits(&reference[idx]),
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

        /// A random root (spec pair or singleton), random seed, random
        /// series: the tree rows equal the independent-warm-up reference
        /// bitwise for every member and scorer.
        #[test]
        fn random_root_seed_series_tree_parity(
            root_idx in 0usize..14,
            seed in 0u64..1000,
            len in 200usize..320,
        ) {
            let specs = paper_algorithms();
            let roots = plan_roots(&specs);
            let root = &roots[root_idx];
            let series = synthetic_series(len, 2, seed);
            let labels: Vec<bool> = (0..series.len()).map(|t| t > 3 * series.len() / 4).collect();
            let corpus = Corpus {
                name: "prop".into(),
                series: vec![sad_data::LabeledSeries::new("prop-s0", series, labels)],
            };
            let params = tiny_params(2, seed);
            let tree =
                evaluate_tree(root.model, root.task1, &root.task2s, &params, &corpus, &ALL_SCORERS);
            prop_assert_eq!(tree.initial_fits, 1);
            for (v, &spec_idx) in root.members.iter().enumerate() {
                let reference = group_reference(specs[spec_idx], &params, &corpus, &ALL_SCORERS);
                for (k, _) in ALL_SCORERS.iter().enumerate() {
                    prop_assert_eq!(row_bits(&tree.rows[v][k]), row_bits(&reference[k]));
                }
            }
        }
    }
}
