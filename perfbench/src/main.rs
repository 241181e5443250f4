//! The streamad benchmark: one command, one workload per process.
//!
//! ```sh
//! CARGO_TARGET_DIR=.bench_build cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_replica_f32 --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant and prints the per-layer metrics. `--smoke` runs the workload at
//! a tiny size through all of its correctness gates. The last line of
//! stdout is the result object; the line before it is the host
//! fingerprint. Workload rationale and the layer → end-to-end prediction
//! table are in `perfbench/README.md`.

mod grid;
mod probe;
mod serve;
mod trace;
mod util;

use crate::probe::ProbeCosts;
use crate::serve::ServeWorkload;
use crate::trace::Tracer;

/// Every end-to-end metric: `(name, unit)`. Each workload reports all of
/// them with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric: `(name, unit)`. Each workload reports all of
/// them with `--trace 1`; a layer the workload does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.decode_ns", "ns"),
    ("ingest.offer_ns", "ns"),
    ("ingest.bytes_per_frame", "bytes"),
    ("ingest.bp_blocked", "count"),
    ("ingest.dropped", "count"),
    ("ingest.rejected", "count"),
    ("fleet.round_us_p50", "us"),
    ("fleet.round_us_p99", "us"),
    ("fleet.rows_per_batch", "rows"),
    ("fleet.batched_frac", "ratio"),
    ("fleet.queue_high_water", "count"),
    ("fleet.cohort_rebuilds", "count"),
    ("fleet.f32_resyncs", "count"),
    ("fleet.resyncs_per_fine_tune", "ratio"),
    ("models.forward_ns_per_row", "ns"),
    ("models.refresh_us", "us"),
    ("detector.begin_ns", "ns"),
    ("detector.finish_ns", "ns"),
    ("detector.finetune_ms", "ms"),
    ("detector.fine_tunes", "count"),
    ("detector.drift_per_kstep", "1/kstep"),
    ("core.nonconformity_ns", "ns"),
    ("core.task1_ns", "ns"),
    ("core.drift_observe_ns", "ns"),
    ("core.scorer_ns", "ns"),
    ("obs.export_us", "us"),
    ("grid.root_s_p50", "s"),
    ("grid.root_s_max", "s"),
    ("grid.train_frac", "ratio"),
    ("grid.initial_fits", "count"),
    ("metrics.eval_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.explained_frac", "ratio"),
    ("failed_frac", "ratio"),
];

// Throughput is the noisier figure on a shared host, so the replica
// workloads give the saturated phase the longer window. On drifting traffic
// the paced tail is set by the few rounds that fine-tune most, so the
// paced phase gets half of the run to see enough of them.
const SERVE: &[ServeWorkload] = &[
    ServeWorkload {
        name: "serve_replica_f64",
        f32_infer: false,
        drift: false,
        budget_rate: 93_000.0,
        saturated_share: 0.7,
        paced_rate: 46_000.0,
    },
    ServeWorkload {
        name: "serve_replica_f32",
        f32_infer: true,
        drift: false,
        budget_rate: 125_000.0,
        saturated_share: 0.7,
        paced_rate: 62_000.0,
    },
    ServeWorkload {
        name: "serve_drift_f32",
        f32_infer: true,
        drift: true,
        budget_rate: 1_500.0,
        saturated_share: 0.5,
        paced_rate: 750.0,
    },
];
const GRID: &str = "table3_exathlon";

/// Metrics one run measured, plus sample counts for the fingerprint.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, usize)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value));
    }

    /// The probe's per-call costs.
    pub fn probe_layers(&mut self, p: &ProbeCosts) {
        self.metric("models.forward_ns_per_row", p.forward_ns_per_row);
        self.metric("models.refresh_us", p.refresh_us);
        self.metric("detector.begin_ns", p.begin_ns);
        self.metric("detector.finish_ns", p.finish_ns);
        self.metric("detector.finetune_ms", p.finetune_ms);
        self.metric("core.nonconformity_ns", p.nonconformity_ns);
        self.metric("core.task1_ns", p.task1_ns);
        self.metric("core.drift_observe_ns", p.drift_observe_ns);
        self.metric("core.scorer_ns", p.scorer_ns);
    }

    /// The serve workloads run no grid.
    pub fn zero_grid_layers(&mut self) {
        for name in [
            "grid.root_s_p50",
            "grid.root_s_max",
            "grid.train_frac",
            "grid.initial_fits",
            "metrics.eval_ms",
        ] {
            self.metric(name, 0.0);
        }
    }

    /// The grid runs no wire, engine or fleet.
    pub fn zero_serve_layers(&mut self) {
        for (name, _) in PER_LAYER {
            let serving = ["ingest.", "fleet.", "gen."]
                .iter()
                .any(|p| name.starts_with(p));
            if serving {
                self.metric(name, 0.0);
            }
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// A finished run: its report, the correctness gate's findings, and the
/// operation counts.
pub struct Outcome {
    pub report: Report,
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    pub tracer: Option<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.workload == GRID {
        return grid::run(args.seed, args.trace, args.smoke);
    }
    let w = SERVE
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = SERVE.iter().map(|w| w.name).chain([GRID]).collect();
            format!(
                "unknown workload {:?}; expected one of {}",
                args.workload,
                names.join(", ")
            )
        })?;
    serve::run(w, args.seed, args.seconds, args.trace, args.smoke)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = outcome
            .report
            .value(name)
            .unwrap_or_else(|| panic!("{} did not report {name}", args.workload));
        eprintln!("{:<30} {value:>16.6} {unit}", name);
        let value = if value.is_finite() { value } else { f64::MAX };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for p in &outcome.problems {
        eprintln!("GATE FAILED: {p}");
    }
    if let Some(tr) = &outcome.tracer {
        eprint!("{}", tr.summary());
        let path = std::path::PathBuf::from(format!(".perfbench/trace_{}.bin", args.workload));
        match tr.write(&path) {
            Ok(()) => eprintln!("{} spans -> {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        util::fingerprint(
            &args.workload,
            args.seed,
            args.trace,
            args.smoke,
            &outcome.report.samples
        )
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
