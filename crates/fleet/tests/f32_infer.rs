//! f32 serving agreement: the `FleetConfig::f32_infer` snapshot path
//! against the bitwise-parity f64 fleet, on the standard mixed fleet from
//! `fleet_parity.rs`.
//!
//! What "agreement" means here is precise, not hand-wavy:
//!
//! * **Training is bitwise untouched.** The f32 path only perturbs emitted
//!   model outputs; every stream in this fleet maintains its training set
//!   with a sliding window and detects drift from *stream* statistics
//!   (μ/σ-Change, KS), neither of which reads a score. So drift times,
//!   fine-tune counts and flags must be **exactly** equal — any divergence
//!   is a bug, not rounding. (Components that branch on scores would not
//!   get this guarantee; see EXPERIMENTS.md §E12's eligibility rule.)
//! * **Scores agree to f32 accuracy.** Nonconformity and anomaly score
//!   per step within a small absolute + relative tolerance.

use sad_core::{paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_detector, BuildParams};

fn spec(idx: usize, expect: &str) -> AlgorithmSpec {
    let specs = paper_algorithms();
    let s = specs[idx];
    assert!(s.label().contains(expect), "registry moved: {} is {:?}", idx, s.label());
    s
}

fn detector(idx: usize, expect: &str, seed: u64) -> Detector {
    let config =
        DetectorConfig { window: 5, channels: 2, warmup: 50, initial_epochs: 2, fine_tune_epochs: 1 };
    let params =
        BuildParams::new(config).with_capacity(16).with_score(ScoreKind::Raw).with_seed(seed);
    build_detector(spec(idx, expect), &params)
}

fn series(len: usize, phase: f64, shift_at: Option<usize>) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            let x = t as f64 * 0.09 + phase;
            let jump = match shift_at {
                Some(s) if t >= s => 2.5,
                _ => 0.0,
            };
            vec![x.sin() + jump, (x * 0.63).cos() - 0.5 * jump]
        })
        .collect()
}

/// The `fleet_parity.rs` mixed fleet: cohort twins, same-arch separate
/// cohorts, three NN families, one never-batchable stream, and planted
/// level shifts so fine-tune → refresh events land inside the trace.
fn mixed_streams() -> Vec<(usize, &'static str, u64, Vec<Vec<f64>>)> {
    vec![
        (6, "AE", 7, series(180, 0.0, Some(110))),
        (6, "AE", 7, series(180, 0.0, Some(110))),
        (6, "AE", 7, series(180, 1.3, None)),
        (6, "AE", 9, series(180, 0.0, Some(110))),
        (12, "USAD", 5, series(180, 0.7, Some(120))),
        (18, "N-BEATS", 11, series(180, 0.4, None)),
        (24, "PCB-iForest", 3, series(180, 0.9, Some(100))),
    ]
}

const ABS_TOL: f64 = 5e-3;

fn assert_scores_close(f32_trace: &[StepOutput], f64_trace: &[StepOutput], label: &str) {
    assert_eq!(f32_trace.len(), f64_trace.len(), "{label}: trace length");
    for (a, b) in f32_trace.iter().zip(f64_trace) {
        assert_eq!(a.t, b.t, "{label}: step index");
        assert_eq!(a.drift, b.drift, "{label}: drift flag diverges at t={}", a.t);
        assert_eq!(a.fine_tuned, b.fine_tuned, "{label}: fine-tune flag diverges at t={}", a.t);
        let tol = |want: f64| ABS_TOL * want.abs().max(1.0);
        assert!(
            (a.nonconformity - b.nonconformity).abs() <= tol(b.nonconformity),
            "{label}: nonconformity {} vs {} at t={}",
            a.nonconformity,
            b.nonconformity,
            a.t,
        );
        assert!(
            (a.anomaly_score - b.anomaly_score).abs() <= tol(b.anomaly_score),
            "{label}: anomaly score {} vs {} at t={}",
            a.anomaly_score,
            b.anomaly_score,
            a.t,
        );
    }
}

#[test]
fn f32_infer_agrees_with_f64_on_mixed_fleet() {
    let streams = mixed_streams();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();

    let build = |f32_infer: bool| {
        let dets: Vec<Detector> =
            streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
        let config = FleetConfig { f32_infer, ..FleetConfig::default() };
        DetectorFleet::new(dets, config)
    };

    let mut f64_fleet = build(false);
    let f64_traces = f64_fleet.run(&fleet_series);
    let mut f32_fleet = build(true);
    let f32_traces = f32_fleet.run(&fleet_series);

    for i in 0..streams.len() {
        let label = format!("stream {i}");
        assert_scores_close(&f32_traces[i], &f64_traces[i], &label);
        // Training is score-independent here → exact equality.
        assert_eq!(
            f32_fleet.detector(i).drift_times(),
            f64_fleet.detector(i).drift_times(),
            "{label}: drift times",
        );
        assert_eq!(
            f32_fleet.detector(i).fine_tune_count(),
            f64_fleet.detector(i).fine_tune_count(),
            "{label}: fine-tune count",
        );
    }

    // The fleets really took different serving paths.
    let f64_stats = f64_fleet.stats();
    let f32_stats = f32_fleet.stats();
    assert_eq!(f64_stats.f32_rows, 0, "f64 fleet must not touch the snapshot path");
    assert!(f32_stats.batched_rows > 0, "batched path engaged");
    assert_eq!(
        f32_stats.f32_rows, f32_stats.batched_rows,
        "every batched row served through an f32 snapshot: {f32_stats:?}",
    );
    // Fine-tunes landed inside the trace, so snapshots were refreshed via
    // the dirty-on-training-event hook (not just built once).
    assert!(f32_stats.cohort_rebuilds > 1, "snapshot refreshes exercised: {f32_stats:?}");
    // The structural serving counters agree: same batching decisions.
    assert_eq!(f32_stats.steps, f64_stats.steps);
    assert_eq!(f32_stats.batched_rows, f64_stats.batched_rows);
    assert_eq!(f32_stats.scalar_steps, f64_stats.scalar_steps);
    assert_eq!(f32_stats.cohort_rebuilds, f64_stats.cohort_rebuilds);
}

/// A cohort rebuild re-syncs only the snapshots whose weights changed:
/// two AE streams of different seeds are two one-row cohorts, so after
/// the two initial snapshots each fine-tune costs exactly one re-sync —
/// not one per cohort per rebuild — and scores still agree with f64.
#[test]
fn rebuilds_resync_only_the_snapshots_that_trained() {
    let data = [series(180, 0.0, Some(110)), series(180, 1.3, None)];
    let run = |f32_infer: bool| {
        let dets = vec![detector(6, "AE", 7), detector(6, "AE", 9)];
        let config = FleetConfig { f32_infer, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(dets, config);
        let traces = fleet.run(&data);
        (traces, fleet)
    };
    let (f64_traces, _) = run(false);
    let (f32_traces, fleet) = run(true);
    for i in 0..2 {
        assert_scores_close(&f32_traces[i], &f64_traces[i], &format!("stream {i}"));
    }
    let fine_tunes = fleet.detector(0).fine_tune_count() + fleet.detector(1).fine_tune_count();
    assert!(fine_tunes > 0, "the level shift must fine-tune");
    let stats = fleet.stats();
    assert_eq!(stats.f32_resyncs, 2 + fine_tunes, "{stats:?}");
    assert!(stats.f32_resyncs < 2 * stats.cohort_rebuilds, "rebuilds skip clean snapshots: {stats:?}");
}

/// Scores must not be *identical* either — an f32 path that bitwise equals
/// f64 on every step would mean the snapshot path silently isn't running.
#[test]
fn f32_infer_actually_runs_in_reduced_precision() {
    let data = series(180, 0.0, None);
    let run = |f32_infer: bool| {
        let config = FleetConfig { f32_infer, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(vec![detector(6, "AE", 7)], config);
        fleet.run(std::slice::from_ref(&data))
    };
    let f64_trace = run(false);
    let f32_trace = run(true);
    assert!(
        f64_trace[0]
            .iter()
            .zip(&f32_trace[0])
            .any(|(a, b)| a.nonconformity.to_bits() != b.nonconformity.to_bits()),
        "f32 serving must produce f32-rounded scores, not the f64 bits",
    );
}

/// FNV-1a over the bits of every nonconformity and anomaly score, in
/// stream then step order.
fn score_bits_hash(traces: &[Vec<StepOutput>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for trace in traces {
        for o in trace {
            for v in [o.nonconformity, o.anomaly_score] {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Tolerance pins f32 serving against f64; this pins it against itself.
/// Every score bit of the mixed-fleet f32 run hashes to the value the
/// original per-cohort f32 engine produced, so a change to the snapshot
/// conversion, the f32 layer loop or the scaler arithmetic shows up here
/// even when it stays inside the tolerance.
#[test]
fn f32_infer_scores_match_golden_bits() {
    let streams = mixed_streams();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
    let dets: Vec<Detector> =
        streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
    let config = FleetConfig { f32_infer: true, ..FleetConfig::default() };
    let traces = DetectorFleet::new(dets, config).run(&fleet_series);
    let hash = score_bits_hash(&traces);
    assert_eq!(hash, 0xc3c4_23d8_1918_f971, "f32 score bits changed: {hash:#018x}");
}

/// Dynamic admission that grows a shard past its arch group's capacity
/// re-sizes the group's workspaces but keeps every f32 snapshot: the
/// first stream's snapshot survives the growth and only the newcomer's
/// cohort syncs. Frozen models never fine-tune, so every resync counted
/// is a snapshot built for a new or changed cohort.
#[test]
fn admission_growth_keeps_existing_snapshots() {
    let data = [series(200, 0.0, None), series(200, 1.3, None)];
    let frozen = |seed: u64| {
        let mut det = detector(6, "AE", seed);
        det.freeze_model();
        det
    };
    let run = |f32_infer: bool| {
        let config = FleetConfig { shards: 1, f32_infer, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::open(config);
        fleet.admit(frozen(7));
        let mut traces = vec![Vec::new(), Vec::new()];
        let mut out = Vec::new();
        for t in 0..data[0].len() {
            // The second stream arrives after the first has formed its
            // group, sized for the one stream then on the shard.
            if t == 80 {
                fleet.admit(frozen(9));
            }
            for (i, s) in data.iter().enumerate().take(fleet.len()) {
                assert!(fleet.enqueue(i, &s[t]));
            }
            fleet.drain_round(&mut out);
            for (trace, o) in traces.iter_mut().zip(&out) {
                trace.extend(*o);
            }
        }
        (traces, fleet)
    };
    let (f64_traces, _) = run(false);
    let (f32_traces, fleet) = run(true);
    for i in 0..2 {
        assert!(!f32_traces[i].is_empty(), "stream {i} served");
        assert_scores_close(&f32_traces[i], &f64_traces[i], &format!("stream {i}"));
        assert_eq!(fleet.detector(i).fine_tune_count(), 0, "frozen stream {i}");
    }
    let stats = fleet.stats();
    assert_eq!(stats.f32_rows, stats.batched_rows, "{stats:?}");
    assert!(stats.cohort_rebuilds >= 2, "the newcomer rebuilt the grown group: {stats:?}");
    assert_eq!(stats.f32_resyncs, 2, "one snapshot per stream, none rebuilt: {stats:?}");
}
