//! Fleet serving throughput: cross-stream batched NN stepping vs the
//! scalar per-stream path (§E11 of EXPERIMENTS.md).
//!
//! Scenario: one AE rolled out to a fleet of identical streams — the
//! replica-serving pattern where the batched path is eligible end to end.
//! Every detector is built with the same seed and fed the same
//! window-periodic (drift-free) 38-channel stream, so all fleet members
//! stay one weight cohort and the steady state is pure inference: the
//! measured delta is exactly the shared `forward_batch` against N scalar
//! `predict` calls, single-threaded (shards = 1, parallel off — the
//! batching win must not lean on parallelism).
//!
//! Three modes per fleet size: `scalar` (per-stream `Detector::step`),
//! `batched` (shared f64 `forward_batch` per cohort — bitwise-parity
//! mode), and `batched_f32` (`--f32-infer`: cohort forward passes through
//! f32 weight snapshots — tolerance mode, ~half the weight traffic).
//!
//! Writes `bench_output/fleet_throughput.json`: per fleet size, each
//! mode's steps/sec, round-latency p50/p99, and the cohort counters
//! proving the batched runs actually amortized (rows/pass ≈ fleet size,
//! one cohort rebuild at group formation).
//!
//! Also measures the telemetry tax: the 64-stream batched leg is re-run
//! with `FleetConfig::telemetry` off and on in 5 interleaved pairs
//! ([`sad_bench::gate`]), and the per-pair overhead's median, min and max
//! land in `bench_output/obs_overhead.json` with an in-bin assertion that
//! the median overhead stays ≤ 3%.
//!
//! ```sh
//! cargo run --release --bin fleet_throughput            # quick (default)
//! cargo run --release --bin fleet_throughput -- --full  # more rounds
//! ```

use std::time::Instant;

use sad_core::{paper_algorithms, AlgorithmSpec, Detector, DetectorConfig, ModelKind, ScoreKind};
use sad_fleet::{DetectorFleet, FleetConfig, FleetStats};
use sad_bench::{interleaved_pairs, Spread, GATE_PAIRS};
use sad_models::{build_detector, BuildParams};
use sad_obs::Histogram;

const CHANNELS: usize = 38;
const WINDOW: usize = 10;
const WARMUP: usize = 200;
const SEED: u64 = 42;

/// Window-periodic stream: every length-10 window holds the same multiset
/// of values per channel, so the training-set statistics are constant,
/// μ/σ-Change never fires, and the timed region never fine-tunes.
fn stream_vector(t: usize, buf: &mut [f64]) {
    let phase = std::f64::consts::TAU * (t % WINDOW) as f64 / WINDOW as f64;
    for (c, v) in buf.iter_mut().enumerate() {
        let scale = 1.0 + c as f64 * 0.1;
        *v = (phase + c as f64 * 0.37).sin() * scale + c as f64;
    }
}

fn ae_spec() -> AlgorithmSpec {
    paper_algorithms()
        .into_iter()
        .find(|s| {
            s.model == ModelKind::TwoLayerAe
                && s.label().contains("SW")
                && s.label().contains("μ")
        })
        .expect("AE / SW / μσ is in Table I")
}

fn detector() -> Detector {
    let config = DetectorConfig {
        window: WINDOW,
        channels: CHANNELS,
        warmup: WARMUP,
        initial_epochs: 4,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config)
        .with_capacity(32)
        .with_score(ScoreKind::Raw)
        .with_seed(SEED);
    build_detector(ae_spec(), &params)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Scalar,
    Batched,
    BatchedF32,
}

struct ModeResult {
    steps: usize,
    steps_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    stats: FleetStats,
}

/// Serves `rounds` timed rounds (after untimed warm-up + settling) on a
/// fresh fleet of `n` identically-seeded detectors.
fn serve(n: usize, mode: Mode, rounds: usize, telemetry: bool) -> ModeResult {
    let detectors: Vec<Detector> = (0..n).map(|_| detector()).collect();
    let config = FleetConfig {
        shards: 1,
        batching: mode != Mode::Scalar,
        parallel: false,
        queue_capacity: 4,
        f32_infer: mode == Mode::BatchedF32,
        telemetry,
    };
    let mut fleet = DetectorFleet::new(detectors, config);

    let mut buf = vec![0.0; CHANNELS];
    let mut out = Vec::new();
    let mut t = 0usize;
    // Untimed: warm-up, the initial fit, group/cohort formation, and
    // buffer right-sizing, so the timed region is steady state only.
    for _ in 0..WARMUP + 32 {
        stream_vector(t, &mut buf);
        for i in 0..n {
            assert!(fleet.enqueue(i, &buf));
        }
        fleet.drain_round(&mut out);
        t += 1;
    }
    let settled = fleet.stats();

    let mut latency = Histogram::latency();
    let timed = Instant::now();
    for _ in 0..rounds {
        stream_vector(t, &mut buf);
        for i in 0..n {
            assert!(fleet.enqueue(i, &buf));
        }
        let start = Instant::now();
        fleet.drain_round(&mut out);
        latency.record(start.elapsed().as_secs_f64());
        t += 1;
    }
    let wall = timed.elapsed().as_secs_f64();

    let stats = fleet.stats();
    assert_eq!(stats.cohort_rebuilds, settled.cohort_rebuilds, "timed region must not fine-tune");
    let steps = stats.steps - settled.steps;
    assert_eq!(steps, rounds * n, "every stream serves every round");
    match mode {
        Mode::Scalar => assert_eq!(stats.batched_rows, 0, "batching off must stay scalar"),
        Mode::Batched | Mode::BatchedF32 => {
            assert_eq!(
                stats.batched_rows - settled.batched_rows,
                steps,
                "identical replicas must stay one cohort",
            );
            if mode == Mode::BatchedF32 {
                assert_eq!(
                    stats.f32_rows - settled.f32_rows,
                    steps,
                    "f32 mode must serve every batched row through a snapshot",
                );
            } else {
                assert_eq!(stats.f32_rows, 0, "f64 mode must not touch the f32 path");
            }
        }
    }

    ModeResult {
        steps,
        steps_per_sec: steps as f64 / wall.max(1e-12),
        p50_us: latency.quantile(0.50) * 1e6,
        p99_us: latency.quantile(0.99) * 1e6,
        stats,
    }
}

fn json_mode(r: &ModeResult) -> String {
    format!(
        "{{\"steps\": {}, \"steps_per_sec\": {:.1}, \"round_p50_us\": {:.2}, \
         \"round_p99_us\": {:.2}, \"batched_rows\": {}, \"batches\": {}, \
         \"f32_rows\": {}, \"cohort_rebuilds\": {}}}",
        r.steps,
        r.steps_per_sec,
        r.p50_us,
        r.p99_us,
        r.stats.batched_rows,
        r.stats.batches,
        r.stats.f32_rows,
        r.stats.cohort_rebuilds,
    )
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let rounds = if full { 1200 } else { 400 };
    let sizes: &[usize] = &[8, 64];

    println!(
        "fleet throughput: AE w={WINDOW} x {CHANNELS}ch, warm-up {WARMUP}, {rounds} timed rounds, single-threaded",
    );
    let mut entries = Vec::new();
    for &n in sizes {
        let batched = serve(n, Mode::Batched, rounds, true);
        let batched_f32 = serve(n, Mode::BatchedF32, rounds, true);
        let scalar = serve(n, Mode::Scalar, rounds, true);
        let speedup = batched.steps_per_sec / scalar.steps_per_sec.max(1e-12);
        let speedup_f32 = batched_f32.steps_per_sec / scalar.steps_per_sec.max(1e-12);
        println!(
            "  {n:>3} streams: batched {:>9.0} steps/s  f32 {:>9.0} steps/s  scalar {:>9.0} steps/s  speedup {speedup:.2}x / {speedup_f32:.2}x",
            batched.steps_per_sec, batched_f32.steps_per_sec, scalar.steps_per_sec,
        );
        entries.push(format!(
            "    {{\"streams\": {n}, \"speedup\": {speedup:.3}, \"speedup_f32\": {speedup_f32:.3},\n      \"batched\": {},\n      \"batched_f32\": {},\n      \"scalar\": {}}}",
            json_mode(&batched),
            json_mode(&batched_f32),
            json_mode(&scalar),
        ));
    }

    let json = format!(
        "{{\n  \"harness\": \"fleet_throughput\",\n  \"profile\": \"{}\",\n  \
         \"model\": \"2-layer AE / SW / μ/σ\",\n  \"window\": {WINDOW},\n  \
         \"channels\": {CHANNELS},\n  \"warmup\": {WARMUP},\n  \"rounds\": {rounds},\n  \
         \"shards\": 1,\n  \"parallel\": false,\n  \"fleets\": [\n{}\n  ]\n}}\n",
        if full { "full" } else { "quick" },
        entries.join(",\n"),
    );
    match std::fs::create_dir_all("bench_output")
        .and_then(|()| std::fs::write("bench_output/fleet_throughput.json", &json))
    {
        Ok(()) => println!("-> bench_output/fleet_throughput.json"),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }

    // ---- Telemetry overhead: the 64-stream batched leg with the timed
    // telemetry off vs on, in a fixed number of interleaved pairs (the
    // interleave cancels thermal/frequency drift), gated on the median of
    // the per-pair overhead.
    let obs_n = *sizes.last().expect("sizes is non-empty");
    let pairs = interleaved_pairs(
        GATE_PAIRS,
        || serve(obs_n, Mode::Batched, rounds, false).steps_per_sec,
        || serve(obs_n, Mode::Batched, rounds, true).steps_per_sec,
    );
    let off = Spread::of(pairs.iter().map(|&(off, _)| off));
    let on = Spread::of(pairs.iter().map(|&(_, on)| on));
    let overhead =
        Spread::of(pairs.iter().map(|&(off, on)| (off / on.max(1e-12) - 1.0) * 100.0));
    let overhead_pct = overhead.median;
    println!(
        "telemetry overhead @ {obs_n} streams (median of {} pairs): on {:.0} steps/s, \
         off {:.0} steps/s, {overhead_pct:+.2}% (min {:+.2}%, max {:+.2}%)",
        overhead.k, on.median, off.median, overhead.min, overhead.max,
    );
    let obs_json = format!(
        "{{\n  \"harness\": \"fleet_throughput\",\n  \"experiment\": \"obs_overhead\",\n  \
         \"streams\": {obs_n},\n  \"rounds\": {rounds},\n  \"pairs\": {},\n  \
         \"mode\": \"batched\",\n  \
         \"steps_per_sec_telemetry_on\": {:.1},\n  \
         \"steps_per_sec_telemetry_off\": {:.1},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"overhead_pct_min\": {:.3},\n  \
         \"overhead_pct_max\": {:.3},\n  \"budget_pct\": 3.0\n}}\n",
        overhead.k, on.median, off.median, overhead.min, overhead.max,
    );
    match std::fs::write("bench_output/obs_overhead.json", &obs_json) {
        Ok(()) => println!("-> bench_output/obs_overhead.json"),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
    assert!(
        overhead_pct <= 3.0,
        "median telemetry overhead {overhead_pct:.2}% exceeds the 3% budget \
         (on {:.0} vs off {:.0} steps/s, median of {} pairs)",
        on.median,
        off.median,
        overhead.k,
    );
}
