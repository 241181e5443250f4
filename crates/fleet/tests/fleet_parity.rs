//! Bitwise parity of the sharded, cross-stream-batched fleet against K
//! standalone detectors.
//!
//! The tentpole guarantee of the fleet layer: serving K streams through
//! [`DetectorFleet`] — at any shard count (shards drain on the fleet's
//! worker pool), with batched NN stepping on or off — produces, per stream, the **bit-identical**
//! `StepOutput` trace of a standalone `Detector::run` over the same
//! series, plus identical drift times and fine-tune counts. The batched
//! path shares one `forward_batch` per weight-identical cohort, so the
//! mixed fleet below deliberately plants:
//!
//! - two AE streams with the same seed **and** the same series (they stay
//!   one cohort through every fine-tune and exercise the shared pass),
//! - a same-seed AE on a different series and a different-seed AE on the
//!   same series (same arch group, separate cohorts after the warm-up
//!   fit),
//! - a USAD and an N-BEATS stream (their own arch groups),
//! - a PCB-iForest stream (never batchable — permanent scalar path),
//!
//! and level shifts mid-series so drift → fine-tune → cohort-rebuild
//! events happen inside the measured window. Comparisons are `to_bits`
//! with no tolerance, in the style of `tree_parity.rs`.

use sad_core::{paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, ScoreKind, StepOutput};
use sad_fleet::{DetectorFleet, FleetConfig};
use sad_models::{build_detector, BuildParams};

/// Table I algorithm by registry index, with a label guard so a registry
/// reshuffle fails loudly instead of silently testing the wrong model.
fn spec(idx: usize, expect: &str) -> AlgorithmSpec {
    let specs = paper_algorithms();
    let s = specs[idx];
    assert!(s.label().contains(expect), "registry moved: {} is {:?}", idx, s.label());
    s
}

fn tiny_config() -> DetectorConfig {
    DetectorConfig { window: 5, channels: 2, warmup: 50, initial_epochs: 2, fine_tune_epochs: 1 }
}

fn detector(idx: usize, expect: &str, seed: u64) -> Detector {
    let params = BuildParams::new(tiny_config())
        .with_capacity(16)
        .with_score(ScoreKind::Raw)
        .with_seed(seed);
    build_detector(spec(idx, expect), &params)
}

/// Deterministic 2-channel series; `shift_at` plants a level shift so the
/// μ/σ drift detector fires and fine-tunes land inside the trace.
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

/// One stream of the mixed fleet: algorithm index, label guard, seed, and
/// its input series.
fn mixed_streams() -> Vec<(usize, &'static str, u64, Vec<Vec<f64>>)> {
    vec![
        (6, "AE", 7, series(180, 0.0, Some(110))),
        (6, "AE", 7, series(180, 0.0, Some(110))), // cohort twin of stream 0
        (6, "AE", 7, series(180, 1.3, None)),      // same seed, different data
        (6, "AE", 9, series(180, 0.0, Some(110))), // same data, different seed
        (12, "USAD", 5, series(180, 0.7, Some(120))),
        (18, "N-BEATS", 11, series(180, 0.4, None)),
        (24, "PCB-iForest", 3, series(180, 0.9, Some(100))), // scalar forever
    ]
}

fn assert_traces_identical(fleet: &[StepOutput], standalone: &[StepOutput], label: &str) {
    assert_eq!(fleet.len(), standalone.len(), "{label}: trace length");
    for (t, (a, b)) in fleet.iter().zip(standalone).enumerate() {
        assert_eq!(a.t, b.t, "{label}: step index at trace position {t}");
        assert_eq!(
            a.nonconformity.to_bits(),
            b.nonconformity.to_bits(),
            "{label}: nonconformity diverges at t={}",
            a.t,
        );
        assert_eq!(
            a.anomaly_score.to_bits(),
            b.anomaly_score.to_bits(),
            "{label}: anomaly score diverges at t={}",
            a.t,
        );
        assert_eq!(a.drift, b.drift, "{label}: drift flag diverges at t={}", a.t);
        assert_eq!(a.fine_tuned, b.fine_tuned, "{label}: fine-tune flag diverges at t={}", a.t);
    }
}

/// The mixed fleet against standalone references, for shard counts 1/2/4
/// × batching on/off. Multi-shard fleets drain on the worker pool
/// whenever the host has more than one core. Identical outputs everywhere.
#[test]
fn mixed_fleet_matches_standalone_detectors_at_all_shard_counts() {
    let streams = mixed_streams();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();

    // Standalone references: one independent detector per stream.
    let mut references = Vec::new();
    for &(idx, expect, seed, ref data) in &streams {
        let mut det = detector(idx, expect, seed);
        let trace = det.run(data);
        references.push((trace, det));
    }
    // The planted level shifts must actually fine-tune an NN stream, or
    // the cohort-rebuild path is never exercised.
    assert!(
        references[0].1.fine_tune_count() > 0,
        "level shift must fine-tune the AE cohort stream",
    );

    for shards in [1usize, 2, 4] {
        for batching in [true, false] {
            let label = format!("shards={shards} batching={batching}");
            let dets: Vec<Detector> =
                streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
            let config =
                FleetConfig { shards, batching, queue_capacity: 4, ..FleetConfig::default() };
            let mut fleet = DetectorFleet::new(dets, config);
            let traces = fleet.run(&fleet_series);
            for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
                let stream = format!("{label} stream {i}");
                assert_traces_identical(&traces[i], ref_trace, &stream);
                let det = fleet.detector(i);
                assert_eq!(det.drift_times(), ref_det.drift_times(), "{stream}: drift times");
                assert_eq!(
                    det.fine_tune_count(),
                    ref_det.fine_tune_count(),
                    "{stream}: fine-tune count",
                );
            }
            let stats = fleet.stats();
            if batching {
                assert!(stats.batched_rows > 0, "{label}: batched path never engaged");
                assert!(stats.cohort_rebuilds > 0, "{label}: cohorts never rebuilt");
            } else {
                assert_eq!(stats.batched_rows, 0, "{label}: batching off must stay scalar");
            }
            assert_eq!(
                stats.steps,
                streams.iter().map(|s| s.3.len()).sum::<usize>(),
                "{label}: every vector consumed exactly once",
            );
        }
    }
}

/// The cohort twins (streams 0 and 1 on one shard) really share forward
/// passes: strictly fewer batched passes than batched rows.
#[test]
fn cohort_twins_amortize_forward_passes() {
    let streams = mixed_streams();
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
    let dets: Vec<Detector> =
        streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
    // Cohorts are per shard: one shard keeps the twins together.
    let config = FleetConfig { shards: 1, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(dets, config);
    let _ = fleet.run(&fleet_series);
    let stats = fleet.stats();
    assert!(
        stats.batches < stats.batched_rows,
        "twin AE streams must share passes: {stats:?}",
    );
}

/// The fleet's training phase: every stream below warms up in the same
/// round (five initial fits in one phase), and the same level shift makes
/// several streams fine-tune in the same rounds (the seed twins always
/// do). At 1 and 2 shards the phase — inline, or on the worker pool when
/// the fleet has one — must leave every stream bitwise equal to a
/// standalone detector, and its job counter must equal warm-ups plus
/// fine-tunes.
#[test]
fn concurrent_training_phase_matches_standalone_detectors() {
    let streams = vec![
        (6, "AE", 7, series(170, 0.0, Some(100))),
        (6, "AE", 7, series(170, 0.0, Some(100))), // fine-tunes with stream 0
        (6, "AE", 9, series(170, 0.0, Some(100))),
        (12, "USAD", 5, series(170, 0.0, Some(100))),
        (24, "PCB-iForest", 3, series(170, 0.0, Some(100))),
    ];
    let fleet_series: Vec<Vec<Vec<f64>>> = streams.iter().map(|s| s.3.clone()).collect();
    let mut references = Vec::new();
    for &(idx, expect, seed, ref data) in &streams {
        let mut det = detector(idx, expect, seed);
        let trace = det.run(data);
        references.push((trace, det));
    }
    let fine_tunes: usize = references.iter().map(|(_, d)| d.fine_tune_count()).sum();
    let shared_round = (0..references[0].0.len()).any(|k| {
        references.iter().filter(|(trace, _)| trace.get(k).is_some_and(|o| o.fine_tuned)).count()
            >= 2
    });
    assert!(shared_round, "two streams must fine-tune in the same round");
    let multi_core = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);

    for shards in [1usize, 2] {
        let label = format!("shards={shards}");
        let dets: Vec<Detector> =
            streams.iter().map(|&(idx, expect, seed, _)| detector(idx, expect, seed)).collect();
        let config = FleetConfig { shards, queue_capacity: 4, ..FleetConfig::default() };
        let mut fleet = DetectorFleet::new(dets, config);
        let traces = fleet.run(&fleet_series);
        for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
            let stream = format!("{label} stream {i}");
            assert_traces_identical(&traces[i], ref_trace, &stream);
            let det = fleet.detector(i);
            assert_eq!(det.drift_times(), ref_det.drift_times(), "{stream}: drift times");
            assert_eq!(
                det.fine_tune_count(),
                ref_det.fine_tune_count(),
                "{stream}: fine-tune count",
            );
        }
        let stats = fleet.stats();
        assert_eq!(stats.training_jobs, streams.len() + fine_tunes, "{label}: {stats:?}");
        let reg = fleet.export_metrics();
        assert_eq!(
            reg.counter_by_name("sad_fleet_training_jobs_total"),
            Some(stats.training_jobs as u64),
            "{label}",
        );
        let phases = reg.histogram_by_name("sad_fleet_training_seconds").unwrap().count();
        assert!(phases > 0 && phases < stats.training_jobs as u64, "{label}: {phases} phases");
        let parallel_rounds =
            reg.counter_by_name("sad_fleet_training_parallel_rounds_total").unwrap();
        assert!(parallel_rounds <= phases, "{label}");
        // The pool has a worker only when both the shards and the host
        // offer a second thread.
        let pooled = shards > 1 && multi_core;
        assert_eq!(parallel_rounds > 0, pooled, "{label}: worker path follows the pool");
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// Decode one generated pick into (algorithm index, label guard, seed).
    /// Seeds repeat (mod 3) so same-arch same-seed cohorts arise by chance.
    fn decode(pick: usize) -> (usize, &'static str, u64) {
        let table = [(6, "AE"), (12, "USAD"), (18, "N-BEATS"), (24, "PCB-iForest")];
        let (idx, expect) = table[pick % 4];
        (idx, expect, (pick / 4) as u64 % 3)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        /// Random fleet composition (2–5 streams over all four model
        /// families × 3 seeds), random shard count, batching on or off:
        /// per-stream bitwise parity with standalone detectors.
        #[test]
        fn random_fleet_matches_standalone(
            picks in collection::vec(0usize..12, 2..=5),
            shards in 1usize..=4,
            batching in 0u8..2,
            shift in 90usize..130,
        ) {
            let batching = batching == 1;
            let streams: Vec<(usize, &'static str, u64)> =
                picks.iter().map(|&p| decode(p)).collect();
            let fleet_series: Vec<Vec<Vec<f64>>> = streams
                .iter()
                .enumerate()
                .map(|(i, _)| series(150, (i % 2) as f64 * 0.8, Some(shift)))
                .collect();

            let mut references = Vec::new();
            for (i, &(idx, expect, seed)) in streams.iter().enumerate() {
                let mut det = detector(idx, expect, seed);
                let trace = det.run(&fleet_series[i]);
                references.push((trace, det));
            }

            let dets: Vec<Detector> =
                streams.iter().map(|&(idx, expect, seed)| detector(idx, expect, seed)).collect();
            let config =
                FleetConfig { shards, batching, queue_capacity: 4, ..FleetConfig::default() };
            let mut fleet = DetectorFleet::new(dets, config);
            let traces = fleet.run(&fleet_series);

            for (i, (ref_trace, ref_det)) in references.iter().enumerate() {
                let label = format!(
                    "picks={picks:?} shards={shards} batching={batching} stream {i}"
                );
                assert_traces_identical(&traces[i], ref_trace, &label);
                prop_assert_eq!(fleet.detector(i).drift_times(), ref_det.drift_times());
                prop_assert_eq!(fleet.detector(i).fine_tune_count(), ref_det.fine_tune_count());
            }
        }
    }
}
