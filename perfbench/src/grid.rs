//! The `table3_exathlon` workload: the quick-profile Table III grid
//! (26 specs × 3 scorers) on the exathlon-like corpus, run serially with
//! `run_grid`. Its rows do not depend on the corpus's position in the
//! full three-corpus grid, so at seed 42 they must reproduce the `ex:`
//! columns of `bench_output/table3_quick.txt`.

use std::time::Instant;

use sad_bench::{
    evaluate_tree, harness_params, plan_roots, run_grid, EvalRow, GridDims, GridRun, HarnessScale,
    JobPool,
};
use sad_core::{paper_algorithms, AlgorithmSpec, ModelKind, ScoreKind};
use sad_data::{exathlon_like, Corpus, CorpusParams};
use sad_metrics::{best_f1, best_nab, pr_auc, vus_pr};
use sad_models::{build_detector, build_scorer_bank};

use crate::probe::{run_probe, InferPath, ProbeCosts, ProbePlan};
use crate::trace::{self as span, Tracer, NO_PARENT};
use crate::util::{clock_overhead_ns, median, quantile_sorted, SplitMix};
use crate::{Outcome, Report};

const SCORERS: [ScoreKind; 3] = [
    ScoreKind::Raw,
    ScoreKind::Average,
    ScoreKind::AnomalyLikelihood,
];
/// Threshold count of the grid's metric sweep (`sad_bench::eval`).
const N_THRESHOLDS: usize = 40;
/// Committed quick-profile Table III output, produced at seed 42.
const TABLE3_QUICK: &str = "bench_output/table3_quick.txt";
const SETUP_REPS: usize = 25;

fn corpus_params(smoke: bool) -> CorpusParams {
    // The quick profile of `table3_results`; the smoke run shortens the
    // series to just past the 400-step warm-up.
    CorpusParams {
        length: if smoke { 520 } else { 1600 },
        n_series: 1,
        anomalies_per_series: 4,
        with_drift: true,
    }
}

fn specs(smoke: bool) -> Vec<AlgorithmSpec> {
    let all = paper_algorithms();
    if smoke {
        // One Online ARIMA root and one 2-layer AE root: cheap, and a
        // neural spec for the stage probe.
        all.into_iter()
            .filter(|s| {
                s.task1 == sad_core::Task1::SlidingWindow
                    && matches!(s.model, ModelKind::OnlineArima | ModelKind::TwoLayerAe)
            })
            .collect()
    } else {
        all
    }
}

/// Table rows as `table3_results` prints them: one headline row per spec
/// (mean over the spec's Table I scorers), then one row per scorer
/// averaged over all specs. Each row is its `ex:` cells formatted `{:.2}`.
fn table_rows(specs: &[AlgorithmSpec], rows: &[EvalRow]) -> Vec<(String, Vec<String>)> {
    let dims = GridDims {
        corpora: 1,
        scorers: SCORERS.len(),
    };
    let cell = |si: usize, ki: usize| rows[sad_bench::cell_index(si, 0, ki, dims)];
    let fmt = |r: &EvalRow| {
        [r.precision, r.recall, r.auc, r.vus, r.nab]
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
    };
    let mut out = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let headline: Vec<EvalRow> = (0..SCORERS.len())
            .filter(|&ki| spec.scores().contains(&SCORERS[ki]))
            .map(|ki| cell(si, ki))
            .collect();
        let label = format!(
            "{} {} {}",
            spec.model.label(),
            spec.task1.label(),
            spec.task2.label()
        );
        out.push((label, fmt(&EvalRow::mean(&headline))));
    }
    for (ki, kind) in SCORERS.iter().enumerate() {
        let per: Vec<EvalRow> = (0..specs.len()).map(|si| cell(si, ki)).collect();
        out.push((
            format!("Anomaly scores {}", kind.label()),
            fmt(&EvalRow::mean(&per)),
        ));
    }
    out
}

/// The `ex:` cells of every data row of the committed table, with the
/// row's label (model, T1, T2) whitespace-normalised.
fn committed_rows(text: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut lines = text.lines().skip_while(|l| !l.starts_with("---")).skip(1);
    let mut out = Vec::new();
    for line in lines.by_ref() {
        if line.trim().is_empty() {
            break;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 15 {
            return Err(format!("short table row: {line}"));
        }
        let label = tokens[..tokens.len() - 15].join(" ");
        let ex = tokens[tokens.len() - 10..tokens.len() - 5]
            .iter()
            .map(|s| s.to_string())
            .collect();
        out.push((label, ex));
    }
    Ok(out)
}

fn check_rows(rows: &[EvalRow], problems: &mut Vec<String>) {
    for (i, r) in rows.iter().enumerate() {
        let unit = [r.precision, r.recall, r.auc, r.vus]
            .iter()
            .all(|v| (0.0..=1.0).contains(v));
        if !unit || !r.nab.is_finite() || r.nab > 1.0 + 1e-9 {
            problems.push(format!("cell {i} out of range: {r:?}"));
        }
    }
}

fn check_seed42(specs: &[AlgorithmSpec], rows: &[EvalRow], problems: &mut Vec<String>) {
    let text = match std::fs::read_to_string(TABLE3_QUICK) {
        Ok(t) => t,
        Err(e) => {
            problems.push(format!("cannot read {TABLE3_QUICK}: {e}"));
            return;
        }
    };
    let want = match committed_rows(&text) {
        Ok(w) => w,
        Err(e) => {
            problems.push(e);
            return;
        }
    };
    let got = table_rows(specs, rows);
    if want != got {
        let first = want.iter().zip(&got).find(|(a, b)| a != b);
        problems.push(format!(
            "exathlon rows differ from {TABLE3_QUICK}: first difference {first:?}"
        ));
    }
}

/// Detector steps the grid streams: per root, the shared warm-up once,
/// then the post-warm-up series once per drift variant (scorer fan-out) or
/// once per variant and scorer (anomaly-feedback strategies).
fn grid_steps(
    grid: &GridRun,
    roots: &[sad_bench::RootSpec],
    corpus: &Corpus,
    warmup: usize,
) -> usize {
    let len = corpus.series[0].data.len();
    let warm = warmup.min(len);
    roots
        .iter()
        .zip(grid.root_shared.iter())
        .map(|(root, &shared)| {
            warm + (len - warm) * root.members.len() * if shared { 1 } else { SCORERS.len() }
        })
        .sum()
}

/// Completion latency of every Table III cell: the time from the start of
/// the grid until the root that computes the cell finishes. The serial
/// pool runs roots in plan order, so a root finishes at the running sum of
/// root times. Which root holds a given cell rank does not depend on the
/// seed, so the percentiles are sums over the same roots in every run.
fn cell_completion_ms(grid: &GridRun, roots: &[sad_bench::RootSpec]) -> Vec<f64> {
    let mut done = 0.0;
    let mut out = Vec::with_capacity(grid.rows.len());
    for (root, took) in roots.iter().zip(&grid.root_times) {
        done += took.as_secs_f64() * 1e3;
        out.extend(std::iter::repeat_n(
            done,
            root.members.len() * SCORERS.len(),
        ));
    }
    out
}

pub fn run(seed: u64, trace: bool, smoke: bool) -> Result<Outcome, String> {
    let cp = corpus_params(smoke);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut corpus = None;
    for _ in 0..if smoke { 2 } else { SETUP_REPS } {
        let started = Instant::now();
        let c = exathlon_like(seed, cp);
        setup_s.push(started.elapsed().as_secs_f64());
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one set-up");
    let specs = specs(smoke);
    let roots = plan_roots(&specs);
    let channels = corpus.series[0].channels();
    let params = harness_params(channels, HarnessScale::Quick);

    let grid = run_grid(
        &specs,
        std::slice::from_ref(&corpus),
        &SCORERS,
        HarnessScale::Quick,
        JobPool::new(1),
    );
    let wall = grid.wall_time.as_secs_f64();
    let mut problems = Vec::new();
    check_rows(&grid.rows, &mut problems);
    if seed == 42 && !smoke {
        check_seed42(&specs, &grid.rows, &mut problems);
    }
    let steps = grid_steps(&grid, &roots, &corpus, params.config.warmup);
    let cell_ms = cell_completion_ms(&grid, &roots);

    let mut report = Report::default();
    report.samples.push(("setup_reps", setup_s.len()));
    report.samples.push(("roots", roots.len()));
    report.samples.push(("cells", grid.rows.len()));
    report.samples.push(("detector_steps", steps));
    let mut tracer = None;
    if !trace {
        report.metric("setup_s", median(&setup_s));
        report.metric("steps_per_s", steps as f64 / wall);
        report.metric("lat_p50_ms", quantile_sorted(&cell_ms, 0.5));
        report.metric("lat_p99_ms", quantile_sorted(&cell_ms, 0.99));
        report.metric("peak_rss_mb", crate::util::peak_rss_mb());
        report.samples.push(("grid_wall_ms", (wall * 1e3) as usize));
        eprintln!(
            "grid wall {wall:.3} s ({} roots, {} detector steps)",
            roots.len(),
            steps
        );
    } else {
        let mut tr = Tracer::new(1 << 18);
        // Traced pass: the same roots, each timed from outside.
        let mut root_s = Vec::with_capacity(roots.len());
        let (mut train_s, mut fits) = (0.0, 0usize);
        let mut traced_rows = vec![EvalRow::default(); grid.rows.len()];
        let dims = GridDims {
            corpora: 1,
            scorers: SCORERS.len(),
        };
        let traced_started = Instant::now();
        for (r, root) in roots.iter().enumerate() {
            let a = tr.now();
            let started = Instant::now();
            let tree = evaluate_tree(
                root.model,
                root.task1,
                &root.task2s,
                &params,
                &corpus,
                &SCORERS,
            );
            root_s.push(started.elapsed().as_secs_f64());
            let b = tr.now();
            tr.record(span::GRID_ROOT, r as u64, a, b, NO_PARENT);
            train_s += tree.train_seconds;
            fits += tree.initial_fits;
            for (v, &si) in root.members.iter().enumerate() {
                for (k, row) in tree.rows[v].iter().enumerate() {
                    traced_rows[sad_bench::cell_index(si, 0, k, dims)] = *row;
                }
            }
        }
        let traced_wall = traced_started.elapsed().as_secs_f64();
        let same = traced_rows.iter().zip(&grid.rows).all(|(a, b)| {
            [a.precision, a.recall, a.auc, a.vus, a.nab]
                .iter()
                .zip([b.precision, b.recall, b.auc, b.vus, b.nab])
                .all(|(x, y)| x.to_bits() == y.to_bits())
        });
        if !same {
            problems.push("per-root evaluation differs from run_grid".into());
        }
        root_s.sort_by(f64::total_cmp);
        report.metric("grid.root_s_p50", quantile_sorted(&root_s, 0.5));
        report.metric("grid.root_s_max", quantile_sorted(&root_s, 1.0));
        report.metric("grid.train_frac", train_s / root_s.iter().sum::<f64>());
        report.metric("grid.initial_fits", fits as f64);
        report.metric("metrics.eval_ms", metrics_cost(&corpus, &params, &mut tr));
        report.metric("trace.overhead_pct", (traced_wall / wall - 1.0) * 100.0);
        report.metric("trace.explained_frac", 0.0);

        // Stage probe on a seed-chosen neural spec (the split-step API
        // needs a batchable model); a one-row f64 batch is bitwise the
        // grid's scalar `predict`.
        let neural: Vec<AlgorithmSpec> = specs
            .iter()
            .copied()
            .filter(|s| {
                matches!(
                    s.model,
                    ModelKind::TwoLayerAe | ModelKind::Usad | ModelKind::NBeats
                )
            })
            .collect();
        let spec = neural[SplitMix::new(seed).sample(neural.len(), 1)[0]];
        let plan = ProbePlan {
            spec,
            params: params.clone().with_score(SCORERS[0]),
            path: InferPath::F64Batch,
            series: vec![corpus.series[0].data.as_slice()],
            width: 1,
        };
        let probe = run_probe(&plan, &mut tr, clock_overhead_ns()).unwrap_or_else(|e| {
            problems.push(format!("stage probe on {}: {e}", spec.label()));
            ProbeCosts::default()
        });
        eprintln!("stage probe: {}", spec.label());
        report.samples.push(("probe_steps", probe.steps));
        report.probe_layers(&probe);
        report.metric("detector.fine_tunes", probe.fine_tunes as f64);
        report.metric(
            "detector.drift_per_kstep",
            probe.drifts as f64 * 1e3 / probe.steps.max(1) as f64,
        );
        report.metric("obs.export_us", probe.export_us);
        report.zero_serve_layers();
        tracer = Some(tr);
    }
    let failed = grid
        .rows
        .iter()
        .filter(|r| {
            ![r.precision, r.recall, r.auc, r.vus, r.nab]
                .iter()
                .all(|v| v.is_finite())
        })
        .count();
    if trace {
        report.metric("failed_frac", failed as f64 / grid.rows.len() as f64);
    }
    Ok(Outcome {
        report,
        problems,
        attempted: grid.rows.len(),
        failed,
        tracer,
    })
}

/// Mean wall time of the grid's per-trace metric block (best-F1, range
/// PR-AUC, VUS-PR, best NAB at the grid's threshold count) over the three
/// scorers' traces of the cheapest spec on this corpus.
fn metrics_cost(corpus: &Corpus, params: &sad_models::BuildParams, tr: &mut Tracer) -> f64 {
    let series = &corpus.series[0];
    let spec = paper_algorithms()[0];
    let mut det = build_detector(spec, &params.clone().with_score(SCORERS[0]));
    let mut bank = build_scorer_bank(&SCORERS, params);
    let run = det.run_fanout(&series.data, &mut bank);
    let labels = &series.labels[run.offset..];
    let window = params.config.window;
    let mut ms = Vec::new();
    for _ in 0..3 {
        for (k, scores) in run.traces.iter().enumerate() {
            let a = tr.now();
            let started = Instant::now();
            let f1 = best_f1(scores, labels, N_THRESHOLDS);
            let auc = pr_auc(scores, labels, N_THRESHOLDS);
            let vus = vus_pr(scores, labels, window, N_THRESHOLDS);
            let nab = best_nab(scores, labels, N_THRESHOLDS);
            std::hint::black_box((f1, auc, vus, nab));
            ms.push(started.elapsed().as_secs_f64() * 1e3);
            let b = tr.now();
            tr.record(span::METRICS_EVAL, k as u64, a, b, NO_PARENT);
        }
    }
    median(&ms)
}
