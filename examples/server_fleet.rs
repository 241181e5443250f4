//! Server-fleet monitoring through the sharded
//! [`streamad::fleet::DetectorFleet`], in the two regimes that bound its
//! batched NN path:
//!
//! 1. **Replica fleet under steady load** — one AE warm-started on a
//!    reference stream and rolled out as N identical clones (replicas
//!    behind a load balancer). Weight-identical streams on one shard stay
//!    one batching cohort, so every round packs each shard's share of the
//!    fleet into a single `forward_batch` (the fleet has one shard per
//!    core and drains them in parallel); with no drift events the serving
//!    cost is pure inference and batching wins outright. Timed batched vs
//!    per-stream.
//!
//! 2. **Heterogeneous fleet** — the same clone rolled out to six
//!    *different* SMD-like servers. Each server drifts on its own
//!    schedule, every fine-tune splits that clone off the shared cohort,
//!    and batching degrades gracefully to batch-of-1 passes while
//!    training dominates the bill. The fleet's counters (rows/pass,
//!    cohort rebuilds) make the eligibility rule visible: same
//!    architecture ⇒ same group, same weights ⇒ same forward pass.
//!
//! ```sh
//! cargo run --release --example server_fleet
//! ```

use std::time::Instant;
use streamad::core::{AlgorithmSpec, Detector, DetectorConfig, ModelKind, ScoreKind, Task1, Task2};
use streamad::data::{smd_like, CorpusParams};
use streamad::fleet::{DetectorFleet, FleetConfig, FleetStats};
use streamad::models::{build_detector, BuildParams};

const CHANNELS: usize = 38;
const WINDOW: usize = 10;
const WARMUP: usize = 300;
const REPLICAS: usize = 16;

/// Steady multivariate load, periodic with the detector window: the
/// training-set statistics are constant, so no drift fires and serving is
/// pure inference.
fn steady_stream(len: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            let phase = std::f64::consts::TAU * (t % WINDOW) as f64 / WINDOW as f64;
            (0..CHANNELS)
                .map(|c| (phase + c as f64 * 0.37).sin() * (1.0 + c as f64 * 0.1) + c as f64)
                .collect()
        })
        .collect()
}

fn warm_template(reference: &[Vec<f64>]) -> Detector {
    let config = DetectorConfig {
        window: WINDOW,
        channels: CHANNELS,
        warmup: WARMUP,
        initial_epochs: 6,
        fine_tune_epochs: 1,
    };
    let spec = AlgorithmSpec {
        model: ModelKind::TwoLayerAe,
        task1: Task1::SlidingWindow,
        task2: Task2::MuSigma,
    };
    let params = BuildParams::new(config)
        .with_capacity(40)
        .with_score(ScoreKind::AnomalyLikelihood)
        .with_seed(42);
    let mut template = build_detector(spec, &params);
    for s in &reference[..=WARMUP] {
        template.step(s);
    }
    assert!(template.is_warmed_up(), "template must leave warm-up before rollout");
    template
}

/// Serves `streams[i][t]` round by round; returns (stats, elapsed secs,
/// alerts at score >= 0.9).
fn serve(
    template: &Detector,
    streams: &[&[Vec<f64>]],
    batching: bool,
) -> (FleetStats, f64, usize) {
    let detectors = streams.iter().map(|_| template.clone()).collect();
    let mut fleet =
        DetectorFleet::new(detectors, FleetConfig { batching, ..FleetConfig::default() });
    let rounds = streams.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut out = Vec::new();
    let mut alerts = 0usize;
    let start = Instant::now();
    for t in 0..rounds {
        for (i, stream) in streams.iter().enumerate() {
            assert!(fleet.enqueue(i, &stream[t]));
        }
        fleet.drain_round(&mut out);
        alerts += out.iter().flatten().filter(|o| o.anomaly_score >= 0.9).count();
    }
    (fleet.stats(), start.elapsed().as_secs_f64(), alerts)
}

fn main() {
    // ---- Regime 1: replica fleet under steady load.
    let steady = steady_stream(WARMUP + 1 + 600);
    let template = warm_template(&steady);
    let load = &steady[WARMUP + 1..];
    let replicas: Vec<&[Vec<f64>]> = vec![load; REPLICAS];
    println!("replica fleet: {REPLICAS} identical {CHANNELS}-channel streams x {} rounds", load.len());
    let mut batched_secs = f64::INFINITY;
    for batching in [true, false] {
        let (stats, secs, _) = serve(&template, &replicas, batching);
        let mode = if batching { "batched   " } else { "per-stream" };
        println!(
            "  {mode}  {:>6} steps in {:>7.1} ms  ({:>7.0} steps/s)",
            stats.steps,
            secs * 1e3,
            stats.steps as f64 / secs,
        );
        if batching {
            batched_secs = secs;
            println!(
                "              {} rows over {} shared passes ({:.1} rows/pass), {} cohort rebuilds",
                stats.batched_rows,
                stats.batches,
                stats.batched_rows as f64 / stats.batches.max(1) as f64,
                stats.cohort_rebuilds,
            );
        } else {
            println!("              speedup from batching: {:.2}x", secs / batched_secs);
        }
    }

    // ---- Regime 2: the same rollout across six different servers.
    let corpus_params =
        CorpusParams { length: 900, n_series: 6, anomalies_per_series: 2, with_drift: false };
    let corpus = smd_like(7, corpus_params);
    let smd_template = warm_template(&corpus.series[0].data);
    let servers: Vec<&[Vec<f64>]> =
        corpus.series.iter().map(|s| &s.data[WARMUP + 1..]).collect();
    let (stats, secs, alerts) = serve(&smd_template, &servers, true);
    println!(
        "\nheterogeneous fleet: {} distinct {} servers, batching on",
        servers.len(),
        corpus.name,
    );
    println!(
        "  {} steps in {:.1} ms; {:.1} rows/pass, {} cohort rebuilds, {} alerts",
        stats.steps,
        secs * 1e3,
        stats.batched_rows as f64 / stats.batches.max(1) as f64,
        stats.cohort_rebuilds,
        alerts,
    );
    println!("  (each server's fine-tunes split its clone off the shared cohort — the");
    println!("   eligibility rule: same architecture => same group, same weights => same pass)");
    println!("\n(all modes emit bit-identical scores — fleet/tests/fleet_parity.rs)");
}
