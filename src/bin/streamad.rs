//! `streamad` — command-line streaming anomaly detection.
//!
//! Runs any of the paper's 26 algorithms over a CSV time series
//! (`t,ch0,…,chN-1,label` — the format of `streamad::data::csv`; the label
//! column may be all zeros if unlabelled) and reports detections. With
//! ground-truth labels present, the full metric suite is printed.
//!
//! ```sh
//! streamad --list                         # show the 26 algorithms
//! streamad data.csv                       # run the default algorithm
//! streamad data.csv --algo 13 --window 50 --warmup 1000 --threshold 0.9
//! streamad data.csv --fleet 64 --algo 6   # serve 64 jittered copies as a fleet
//! ```
//!
//! `--fleet N` fans the CSV into `N` streams served through the sharded
//! [`streamad::fleet::DetectorFleet`]: stream 0 carries the file verbatim,
//! streams 1.. get a tiny (±1e-3) deterministic jitter after warm-up, so
//! all N detectors fit identical weights and the cross-stream batched NN
//! path engages. Reports serving throughput and round-latency percentiles
//! instead of detections.
//!
//! `--metrics-json PATH` writes the run's telemetry registry (detector
//! lifecycle counters; in `--fleet` mode also the per-shard serving
//! counters and latency histograms) as a JSON snapshot on exit, and
//! `--metrics-every N` prints a compact metrics line to stderr every `N`
//! fleet rounds.
//!
//! ## Serving over the wire
//!
//! `streamad serve` runs the ingestion engine instead of a file replay:
//! frames arrive over TCP (`--listen ADDR`) or stdin (`--stdin`), each
//! unknown stream id admits a freshly built detector (channel count taken
//! from its first frame), idle streams retire after `--idle-rounds`, and
//! full per-stream queues resolve under `--policy block|drop-newest|
//! drop-oldest`. Detections at or above `--threshold` print to stdout as
//! they happen; `--metrics-json` snapshots are flushed on EOF, after
//! every connection, *and* on dirty disconnects, so an interrupted server
//! still leaves its final counters behind.
//!
//! ```sh
//! streamad serve --stdin < frames.bin
//! streamad serve --listen 127.0.0.1:7650 --shards 4 --idle-rounds 2000
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;
use streamad::core::{paper_algorithms, AlgorithmSpec, DetectorConfig, ScoreKind, StepOutput};
use streamad::data::csv::load_csv;
use streamad::data::LabeledSeries;
use streamad::fleet::{DetectorFleet, FleetConfig};
use streamad::ingest::{
    BackpressurePolicy, CsvTransport, DetectorTemplate, EngineConfig, EngineSink, FramedTransport,
    IngestEngine, IngestStats,
};
use streamad::metrics::{best_f1, intervals_from_labels, nab_score, pr_auc, vus_pr};
use streamad::models::{build_detector, BuildParams};
use streamad::obs::{Histogram, Registry};

struct Args {
    path: Option<String>,
    algo: usize,
    window: usize,
    warmup: usize,
    capacity: usize,
    threshold: f64,
    score: ScoreKind,
    seed: u64,
    list: bool,
    fleet: Option<usize>,
    shards: usize,
    no_batch: bool,
    f32_infer: bool,
    metrics_json: Option<String>,
    metrics_every: Option<usize>,
    serve: bool,
    listen: Option<String>,
    stdin: bool,
    csv: bool,
    policy: BackpressurePolicy,
    idle_rounds: Option<u64>,
    max_streams: usize,
    queue_cap: usize,
    max_conns: usize,
}

fn score_name(score: ScoreKind) -> &'static str {
    match score {
        ScoreKind::Raw => "raw",
        ScoreKind::Average => "avg",
        ScoreKind::AnomalyLikelihood => "al",
    }
}

/// The `--list` table: a header carrying the run defaults (so the values
/// behind `--seed`/`--score` are visible without reading the source),
/// then one row per Table I algorithm.
fn algorithm_table(specs: &[AlgorithmSpec], args: &Args) -> String {
    let mut out = format!(
        "the {} paper algorithms (run settings: --score {}, --seed {})\n\
         \x20#  model / Task 1 / Task 2\n",
        specs.len(),
        score_name(args.score),
        args.seed,
    );
    for (i, s) in specs.iter().enumerate() {
        out.push_str(&format!("{i:2}  {}\n", s.label()));
    }
    out
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: None,
        algo: 12, // USAD / SW / μσ
        window: 25,
        warmup: 500,
        capacity: 40,
        threshold: 0.9,
        score: ScoreKind::AnomalyLikelihood,
        seed: 42,
        list: false,
        fleet: None,
        shards: FleetConfig::default().shards,
        no_batch: false,
        f32_infer: false,
        metrics_json: None,
        metrics_every: None,
        serve: false,
        listen: None,
        stdin: false,
        csv: false,
        policy: BackpressurePolicy::Block,
        idle_rounds: None,
        max_streams: 65_536,
        queue_cap: 4,
        max_conns: 0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--list" => args.list = true,
            "--algo" => args.algo = value("--algo")?.parse().map_err(|e| format!("--algo: {e}"))?,
            "--window" => {
                args.window = value("--window")?.parse().map_err(|e| format!("--window: {e}"))?
            }
            "--warmup" => {
                args.warmup = value("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?
            }
            "--capacity" => {
                args.capacity =
                    value("--capacity")?.parse().map_err(|e| format!("--capacity: {e}"))?
            }
            "--threshold" => {
                args.threshold =
                    value("--threshold")?.parse().map_err(|e| format!("--threshold: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--fleet" => {
                let n: usize = value("--fleet")?.parse().map_err(|e| format!("--fleet: {e}"))?;
                if n == 0 {
                    return Err("--fleet needs at least one stream".into());
                }
                args.fleet = Some(n);
            }
            "--shards" => {
                args.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be positive".into());
                }
            }
            "--no-batch" => args.no_batch = true,
            "--f32-infer" => args.f32_infer = true,
            "--listen" => args.listen = Some(value("--listen")?),
            "--stdin" => args.stdin = true,
            "--csv" => args.csv = true,
            "--policy" => {
                args.policy = match value("--policy")?.as_str() {
                    "block" => BackpressurePolicy::Block,
                    "drop-newest" => BackpressurePolicy::DropNewest,
                    "drop-oldest" => BackpressurePolicy::DropOldest,
                    other => {
                        return Err(format!(
                            "unknown policy {other:?} (block|drop-newest|drop-oldest)"
                        ))
                    }
                }
            }
            "--idle-rounds" => {
                let n: u64 = value("--idle-rounds")?
                    .parse()
                    .map_err(|e| format!("--idle-rounds: {e}"))?;
                if n == 0 {
                    return Err("--idle-rounds must be positive".into());
                }
                args.idle_rounds = Some(n);
            }
            "--max-streams" => {
                args.max_streams =
                    value("--max-streams")?.parse().map_err(|e| format!("--max-streams: {e}"))?;
                if args.max_streams == 0 {
                    return Err("--max-streams must be positive".into());
                }
            }
            "--queue-cap" => {
                args.queue_cap =
                    value("--queue-cap")?.parse().map_err(|e| format!("--queue-cap: {e}"))?;
                if args.queue_cap == 0 {
                    return Err("--queue-cap must be positive".into());
                }
            }
            "--max-conns" => {
                args.max_conns =
                    value("--max-conns")?.parse().map_err(|e| format!("--max-conns: {e}"))?
            }
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")?),
            "--metrics-every" => {
                let n: usize = value("--metrics-every")?
                    .parse()
                    .map_err(|e| format!("--metrics-every: {e}"))?;
                if n == 0 {
                    return Err("--metrics-every must be positive".into());
                }
                args.metrics_every = Some(n);
            }
            "--score" => {
                args.score = match value("--score")?.as_str() {
                    "raw" => ScoreKind::Raw,
                    "avg" => ScoreKind::Average,
                    "al" => ScoreKind::AnomalyLikelihood,
                    other => return Err(format!("unknown score {other:?} (raw|avg|al)")),
                }
            }
            "--help" | "-h" => {
                return Err("usage: streamad <csv> [--algo N] [--window W] [--warmup N] \
                            [--capacity M] [--score raw|avg|al] [--threshold T] [--seed S] \
                            [--fleet N [--shards S] [--no-batch] [--f32-infer] \
                            [--metrics-every N]] [--metrics-json PATH] [--list]\n\
                            \x20      streamad serve (--listen ADDR [--max-conns N] | --stdin) \
                            [--csv] [--policy block|drop-newest|drop-oldest] [--idle-rounds N] \
                            [--max-streams N] [--queue-cap N] [--algo N] [--window W] \
                            [--warmup N] [--shards S] [--no-batch] [--f32-infer] \
                            [--metrics-json PATH] [--metrics-every N]\n\
                            \x20      --shards S: worker shards, drained in parallel \
                            (default: the host's cores; cohorts are per shard)"
                    .into())
            }
            "serve" if !args.serve && args.path.is_none() => args.serve = true,
            other if !other.starts_with('-') && args.path.is_none() && !args.serve => {
                args.path = Some(other.to_string())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let specs = paper_algorithms();
    if args.list {
        // Write in one shot and ignore EPIPE so `streamad --list | head`
        // does not panic when the pipe closes early.
        let _ = std::io::stdout().write_all(algorithm_table(&specs, &args).as_bytes());
        return ExitCode::SUCCESS;
    }
    if args.algo >= specs.len() {
        // Show the whole table, not just the bound — the index→algorithm
        // mapping is exactly what the user is missing here.
        let msg = format!(
            "--algo {} is out of range; pick one of:\n{}",
            args.algo,
            algorithm_table(&specs, &args),
        );
        let _ = std::io::stderr().write_all(msg.as_bytes());
        return ExitCode::FAILURE;
    }
    if args.serve {
        return run_serve(&args, specs[args.algo]);
    }
    let Some(path) = &args.path else {
        eprintln!("no input file (try --help)");
        return ExitCode::FAILURE;
    };
    let series = match load_csv(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if series.len() <= args.warmup {
        eprintln!(
            "series has {} steps but warm-up needs more than {} (use --warmup)",
            series.len(),
            args.warmup
        );
        return ExitCode::FAILURE;
    }

    let spec = specs[args.algo];
    if let Some(n) = args.fleet {
        return run_fleet(&args, spec, &series, n);
    }
    eprintln!(
        "running {} on {} ({} steps x {} channels), w={}, warm-up {}",
        spec.label(),
        series.name,
        series.len(),
        series.channels(),
        args.window,
        args.warmup
    );
    let config = DetectorConfig {
        window: args.window,
        channels: series.channels(),
        warmup: args.warmup,
        initial_epochs: 10,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config)
        .with_capacity(args.capacity)
        .with_score(args.score)
        .with_seed(args.seed);
    let mut detector = build_detector(spec, &params);
    let (scores, offset) = detector.score_series(&series.data);

    // Detections: maximal runs of scores above the threshold.
    let pred: Vec<bool> = scores.iter().map(|&s| s >= args.threshold).collect();
    let detections = intervals_from_labels(&pred);
    println!("detections (threshold {}):", args.threshold);
    for iv in &detections {
        let peak = scores[iv.start..iv.end].iter().cloned().fold(0.0f64, f64::max);
        println!("  t = {}..{}  peak score {:.3}", offset + iv.start, offset + iv.end, peak);
    }
    if detections.is_empty() {
        println!("  (none)");
    }
    eprintln!("fine-tune sessions: {}", detector.fine_tune_count());
    eprintln!(
        "drift state: {} drift event(s){}, {} removal miss(es)",
        detector.drift_times().len(),
        match detector.drift_times() {
            [] => String::new(),
            times => format!(" at t = {times:?}"),
        },
        detector.drift_removal_misses(),
    );
    if let Some(path) = &args.metrics_json {
        if !write_metrics_json(path, &detector.export_metrics()) {
            return ExitCode::FAILURE;
        }
    }

    // If the file carries ground truth, report metrics.
    let labels = &series.labels[offset..];
    if labels.iter().any(|&l| l) {
        let (th, p, r, f1) = best_f1(&scores, labels, 40);
        let auc = pr_auc(&scores, labels, 40);
        let vus = vus_pr(&scores, labels, args.window, 40);
        let fixed: Vec<bool> = scores.iter().map(|&s| s >= args.threshold).collect();
        let nab = nab_score(&fixed, labels).score;
        println!("\nmetrics vs ground truth:");
        println!("  best-F1 threshold {th:.3}: precision {p:.3}, recall {r:.3}, F1 {f1:.3}");
        println!("  PR-AUC {auc:.3}   VUS-PR {vus:.3}   NAB (at --threshold) {nab:.3}");
    }
    ExitCode::SUCCESS
}

/// Deterministic ±1e-3 jitter for stream `i` at step `t`, channel `c`;
/// stream 0 carries the file verbatim. SplitMix64-style hash so reruns
/// reproduce without a RNG dependency in the binary.
fn jitter(i: usize, t: usize, c: usize) -> f64 {
    if i == 0 {
        return 0.0;
    }
    let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (t as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ (c as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e-3
}

/// Writes a registry snapshot as JSON to `path`; reports failure on stderr
/// and returns `false` so callers can exit non-zero.
fn write_metrics_json(path: &str, reg: &Registry) -> bool {
    let mut json = String::new();
    reg.render_json(&mut json);
    match std::fs::write(path, &json) {
        Ok(()) => {
            eprintln!("metrics -> {path}");
            true
        }
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            false
        }
    }
}

/// Serve-mode sink: prints detections at or above the threshold as they
/// happen, plus the periodic `--metrics-every` stderr line.
struct ServeSink {
    threshold: f64,
    every: Option<u64>,
    outputs: u64,
    detections: u64,
}

impl EngineSink for ServeSink {
    fn output(&mut self, stream: u64, out: &StepOutput) {
        self.outputs += 1;
        if out.anomaly_score >= self.threshold {
            self.detections += 1;
            println!(
                "detect stream={} t={} score={:.3}{}",
                stream,
                out.t,
                out.anomaly_score,
                if out.drift { " drift" } else { "" },
            );
        }
    }

    fn round(&mut self, rounds: u64, stats: &IngestStats) {
        if let Some(every) = self.every {
            if rounds.is_multiple_of(every) {
                eprintln!(
                    "[metrics] round {}: {} frames, {} steps, {} live streams, \
                     {} dropped, {} detections",
                    rounds,
                    stats.frames,
                    stats.fleet.steps,
                    stats.fleet.admitted - stats.fleet.retired,
                    stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest,
                    self.detections,
                );
            }
        }
    }
}

/// `streamad serve`: run the ingestion engine over TCP or stdin. Streams
/// admit on first contact (channel count from the first frame) and retire
/// after `--idle-rounds`; the engine — and so every stream's detector
/// state — persists across TCP connections.
fn run_serve(args: &Args, spec: AlgorithmSpec) -> ExitCode {
    if args.stdin == args.listen.is_some() {
        eprintln!("serve needs exactly one of --stdin or --listen ADDR (try --help)");
        return ExitCode::FAILURE;
    }
    // Channel count is a placeholder: the template stamps each stream's
    // real width from its first frame.
    let config = DetectorConfig {
        window: args.window,
        channels: 1,
        warmup: args.warmup,
        initial_epochs: 10,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config)
        .with_capacity(args.capacity)
        .with_score(args.score)
        .with_seed(args.seed);
    let fleet_config = FleetConfig {
        shards: args.shards,
        batching: !args.no_batch,
        queue_capacity: args.queue_cap,
        f32_infer: args.f32_infer,
        telemetry: true,
    };
    let engine_config = EngineConfig {
        policy: args.policy,
        idle_rounds: args.idle_rounds,
        round_frames: 0,
        max_streams: args.max_streams,
    };
    let mut engine = IngestEngine::new(DetectorTemplate::new(spec, params), fleet_config, engine_config);
    let mut sink = ServeSink {
        threshold: args.threshold,
        every: args.metrics_every.map(|n| n as u64),
        outputs: 0,
        detections: 0,
    };
    eprintln!(
        "serving {} ({} framing, {:?} back-pressure, {} shard(s), batching {}{})",
        spec.label(),
        if args.csv { "csv" } else { "binary" },
        args.policy,
        args.shards,
        if args.no_batch { "off" } else { "on" },
        if !args.no_batch && args.f32_infer { ", f32 inference" } else { "" },
    );

    let started = Instant::now();
    let clean = if args.stdin {
        let stdin = std::io::stdin();
        let result = if args.csv {
            engine.run(&mut CsvTransport::new(stdin.lock()), &mut sink)
        } else {
            engine.run(&mut FramedTransport::new(stdin.lock()), &mut sink)
        };
        match result {
            Ok(()) => true,
            Err(e) => {
                eprintln!("stdin stream failed: {e}");
                false
            }
        }
    } else {
        serve_listener(args, &mut engine, &mut sink)
    };

    // Final snapshot no matter how the stream ended — a dirty disconnect
    // must still leave the counters behind.
    if let Some(path) = &args.metrics_json {
        if !write_metrics_json(path, &engine.export_metrics()) {
            return ExitCode::FAILURE;
        }
    }
    let stats = engine.stats();
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "served {} frames as {} detector steps over {} rounds ({:.0} frames/s)",
        stats.frames,
        stats.fleet.steps,
        stats.rounds,
        stats.frames as f64 / secs.max(1e-9),
    );
    eprintln!(
        "streams: {} admitted, {} idle-retired; {} frames dropped, {} rejected; \
         {} outputs, {} detections",
        stats.fleet.admitted,
        stats.idle_retired,
        stats.fleet.bp_dropped_newest + stats.fleet.bp_dropped_oldest,
        stats.rejected,
        sink.outputs,
        sink.detections,
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Accepts TCP connections sequentially into one shared engine. A client
/// dying mid-frame is logged and the server keeps listening (its backlog
/// is still drained and the metrics snapshot still flushed); with
/// `--max-conns N` the server exits after `N` connections.
fn serve_listener(args: &Args, engine: &mut IngestEngine, sink: &mut ServeSink) -> bool {
    let addr = args.listen.as_deref().expect("listen mode");
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("could not bind {addr}: {e}");
            return false;
        }
    };
    match listener.local_addr() {
        Ok(a) => eprintln!("listening on {a}"),
        Err(_) => eprintln!("listening on {addr}"),
    }
    let mut clean = true;
    let mut conns = 0usize;
    loop {
        let (socket, peer) = match listener.accept() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("accept failed: {e}");
                return false;
            }
        };
        conns += 1;
        let result = if args.csv {
            engine.run(&mut CsvTransport::new(&socket), sink)
        } else {
            engine.run(&mut FramedTransport::new(&socket), sink)
        };
        match result {
            Ok(()) => eprintln!("connection {conns} from {peer} drained cleanly"),
            Err(e) => {
                eprintln!("connection {conns} from {peer} failed: {e}");
                clean = false;
            }
        }
        // Keep the on-disk snapshot current between connections so an
        // interrupted server still leaves its latest counters.
        if let Some(path) = &args.metrics_json {
            write_metrics_json(path, &engine.export_metrics());
        }
        if args.max_conns > 0 && conns >= args.max_conns {
            return clean;
        }
    }
}

/// `--fleet N`: fan the series into `N` streams (stream 0 verbatim, the
/// rest jittered after warm-up so every detector fits identical weights
/// and stays in one batching cohort) and report serving throughput.
fn run_fleet(args: &Args, spec: AlgorithmSpec, series: &LabeledSeries, n: usize) -> ExitCode {
    let batching = !args.no_batch;
    eprintln!(
        "fleet: {} x {} streams on {} ({} steps x {} channels), {} shard(s), batching {}{}",
        spec.label(),
        n,
        series.name,
        series.len(),
        series.channels(),
        args.shards,
        if batching { "on" } else { "off" },
        if batching && args.f32_infer { " (f32 inference)" } else { "" },
    );
    let config = DetectorConfig {
        window: args.window,
        channels: series.channels(),
        warmup: args.warmup,
        initial_epochs: 10,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config)
        .with_capacity(args.capacity)
        .with_score(args.score)
        .with_seed(args.seed);
    let detectors = (0..n).map(|_| build_detector(spec, &params)).collect();
    let fleet_config = FleetConfig {
        shards: args.shards,
        batching,
        queue_capacity: 4,
        f32_infer: args.f32_infer,
        telemetry: true,
    };
    let mut fleet = DetectorFleet::new(detectors, fleet_config);

    let mut out = Vec::new();
    let mut buf = vec![0.0; series.channels()];
    // Round latency measured at the CLI boundary (enqueue excluded) through
    // the shared histogram type — p50/p99 come from the same interpolation
    // the fleet's own per-shard round histograms use.
    let mut latency = Histogram::latency();
    let mut total_ns = 0u64;
    for (t, s) in series.data.iter().enumerate() {
        for i in 0..n {
            for (c, &v) in s.iter().enumerate() {
                buf[c] = v + if t >= args.warmup { jitter(i, t, c) } else { 0.0 };
            }
            assert!(fleet.enqueue(i, &buf), "one vector per round cannot fill a queue");
        }
        let start = Instant::now();
        fleet.drain_round(&mut out);
        let elapsed = start.elapsed();
        latency.record(elapsed.as_secs_f64());
        total_ns += elapsed.as_nanos() as u64;
        if let Some(every) = args.metrics_every {
            if (t + 1) % every == 0 {
                let s = fleet.stats();
                eprintln!(
                    "[metrics] round {}: {} steps, {} batched rows, {} rebuilds, \
                     p50 {:.1} us, p99 {:.1} us",
                    t + 1,
                    s.steps,
                    s.batched_rows,
                    s.cohort_rebuilds,
                    latency.quantile(0.50) * 1e6,
                    latency.quantile(0.99) * 1e6,
                );
            }
        }
    }

    let stats = fleet.stats();
    let steps_per_sec = stats.steps as f64 / (total_ns.max(1) as f64 / 1e9);
    println!(
        "served {} detector steps: {} batched rows in {} shared passes ({} f32), {} scalar",
        stats.steps, stats.batched_rows, stats.batches, stats.f32_rows, stats.scalar_steps,
    );
    println!("cohort rebuilds: {}, training jobs: {}", stats.cohort_rebuilds, stats.training_jobs);
    println!("throughput: {:.0} steps/s over {} rounds", steps_per_sec, latency.count());
    println!(
        "round latency: p50 {:.1} us, p99 {:.1} us",
        latency.quantile(0.50) * 1e6,
        latency.quantile(0.99) * 1e6,
    );
    if let Some(path) = &args.metrics_json {
        // Fleet serving + aggregated detector lifecycle, plus the
        // CLI-boundary round latency under its own name.
        let mut reg = fleet.export_metrics();
        let mut cli = Registry::new();
        cli.register_histogram(
            "sad_cli_round_seconds",
            "drain_round latency measured at the CLI boundary.",
            latency,
        );
        reg.absorb(&cli);
        if !write_metrics_json(path, &reg) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
