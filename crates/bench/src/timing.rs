//! Machine-readable timing artifacts for the harness binaries.
//!
//! Each grid run can be serialized to a small JSON file (e.g.
//! `bench_output/table3_timing.json`) holding total wall time, worker
//! count, and per-cell times — a perf trajectory for future PRs to
//! regress against. Written by hand with only `std` (the workspace has no
//! serialization dependency).

use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Timing telemetry of one harness run.
#[derive(Debug, Clone)]
pub struct TimingArtifact {
    /// Which artifact produced this (e.g. `"table3_results"`).
    pub harness: String,
    /// Profile name (`"quick"` / `"full"`).
    pub profile: String,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Sum of per-job wall times (serial-equivalent cost when the
    /// workers were not oversubscribed; see `JobReport::cpu_time`).
    pub cpu_time: Duration,
    /// Per-cell timing breakdown (legacy amortized view: cells in one
    /// shared-pass group report the group's wall time divided by the
    /// scorer count).
    pub cells: Vec<CellTiming>,
    /// Per-group timing breakdown (amortized view since the shared-prefix
    /// tree: member groups of one root report the root's wall time divided
    /// by the variant count). Empty for harnesses that still time per
    /// cell.
    pub groups: Vec<GroupTiming>,
    /// Per-root timing breakdown — the actual scheduling unit since the
    /// shared-prefix evaluation tree (one warm-up + initial fit per
    /// `(model, Task1, corpus)` node, forked across drift variants).
    /// Empty for harnesses that still time per group or per cell.
    pub roots: Vec<RootTiming>,
}

/// Timing of one grid cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Cell label (`spec @ corpus / scorer`).
    pub label: String,
    /// End-to-end cell wall time.
    pub wall: Duration,
    /// Seconds the cell's detectors spent in model training (initial fit
    /// plus drift-triggered fine-tunes, summed over the corpus's series) —
    /// the share of `wall` governed by the batched NN training path.
    pub train_seconds: f64,
}

/// Timing of one `(spec, corpus)` group — the shared-pass scheduling unit
/// introduced by the scorer fan-out.
#[derive(Debug, Clone)]
pub struct GroupTiming {
    /// Group label (`spec @ corpus`).
    pub label: String,
    /// Measured end-to-end group wall time (one shared detector pass per
    /// series covering every scorer, or warm-up-shared forks for
    /// anomaly-feedback strategies).
    pub wall: Duration,
    /// True training seconds of the group (shared work counted once —
    /// unlike summing the per-cell `train_seconds` telemetry, which
    /// repeats the shared pass per scorer).
    pub train_seconds: f64,
    /// Whether the group's scorers shared a single detector pass per
    /// series.
    pub shared_pass: bool,
    /// Number of scorers fanned out inside the group.
    pub scorers: usize,
}

/// Timing of one shared-prefix tree root — the `(model, Task1, corpus)`
/// scheduling unit whose warm-up + initial fit is forked across drift
/// variants.
#[derive(Debug, Clone)]
pub struct RootTiming {
    /// Root label (`model / task1 @ corpus`).
    pub label: String,
    /// Measured end-to-end root wall time (shared warm-up + initial fit,
    /// every drift-variant fork, every scorer).
    pub wall: Duration,
    /// True training seconds of the root: the shared initial fit counted
    /// once across all variants and scorers, plus per-fork fine-tunes.
    pub train_seconds: f64,
    /// Number of `fit_initial` invocations (one per series that reached
    /// warm-up — deduplicated across the root's drift variants).
    pub initial_fits: usize,
    /// Whether the root's scorers shared a single detector pass per fork.
    pub shared_pass: bool,
    /// Number of drift variants forked from the shared warm-up.
    pub variants: usize,
    /// Number of scorers fanned out inside each fork.
    pub scorers: usize,
}

impl TimingArtifact {
    /// Renders the artifact as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 64);
        out.push_str("{\n");
        out.push_str(&format!("  \"harness\": {},\n", json_string(&self.harness)));
        out.push_str(&format!("  \"profile\": {},\n", json_string(&self.profile)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"wall_seconds\": {:.6},\n", self.wall_time.as_secs_f64()));
        out.push_str(&format!("  \"cpu_seconds\": {:.6},\n", self.cpu_time.as_secs_f64()));
        // Observed concurrency (sum of per-cell wall times over total wall
        // time). Equal to real speedup only when the workers had physical
        // cores to themselves; under cgroup CPU limits the per-cell times
        // are inflated by time-slicing, so this is an upper bound.
        out.push_str(&format!(
            "  \"concurrency\": {:.3},\n",
            self.cpu_time.as_secs_f64() / self.wall_time.as_secs_f64().max(1e-12)
        ));
        // Total model-training share (the hot loop the batched NN path
        // optimizes). Roots deduplicate the shared initial fit across
        // drift variants, so when root timings exist they are the
        // truthful total; groups repeat the shared fit per variant and
        // the per-cell sum additionally repeats the shared pass per
        // scorer — both are legacy views.
        let train_total = if !self.roots.is_empty() {
            self.roots.iter().map(|r| r.train_seconds).sum::<f64>()
        } else if !self.groups.is_empty() {
            self.groups.iter().map(|g| g.train_seconds).sum::<f64>()
        } else {
            self.cells.iter().map(|c| c.train_seconds).sum::<f64>()
        };
        out.push_str(&format!("  \"train_seconds_total\": {train_total:.6},\n"));
        // Total `fit_initial` invocations — the headline saving of the
        // shared-prefix tree (42 on the quick paper grid, down from 78).
        let fits_total: usize = self.roots.iter().map(|r| r.initial_fits).sum();
        out.push_str(&format!("  \"initial_fits_total\": {fits_total},\n"));
        out.push_str("  \"roots\": [\n");
        for (i, root) in self.roots.iter().enumerate() {
            let comma = if i + 1 == self.roots.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"label\": {}, \"seconds\": {:.6}, \"train_seconds\": {:.6}, \"initial_fits\": {}, \"shared_pass\": {}, \"variants\": {}, \"scorers\": {}}}{comma}\n",
                json_string(&root.label),
                root.wall.as_secs_f64(),
                root.train_seconds,
                root.initial_fits,
                root.shared_pass,
                root.variants,
                root.scorers,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"groups\": [\n");
        for (i, group) in self.groups.iter().enumerate() {
            let comma = if i + 1 == self.groups.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"label\": {}, \"seconds\": {:.6}, \"train_seconds\": {:.6}, \"shared_pass\": {}, \"scorers\": {}}}{comma}\n",
                json_string(&group.label),
                group.wall.as_secs_f64(),
                group.train_seconds,
                group.shared_pass,
                group.scorers,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"label\": {}, \"seconds\": {:.6}, \"train_seconds\": {:.6}}}{comma}\n",
                json_string(&cell.label),
                cell.wall.as_secs_f64(),
                cell.train_seconds,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }

    /// Projects the run into a `sad_obs` registry so grid evaluations flow
    /// through the same telemetry substrate as the serving layers: run
    /// shape as gauges, per-root wall/train times as labelled gauges, and
    /// a wall-time histogram over the scheduling units (roots when
    /// present, else groups, else cells).
    pub fn to_registry(&self) -> sad_obs::Registry {
        use sad_obs::{with_label, Histogram, Registry};
        let mut reg = Registry::new();
        let jobs = reg.register_gauge("sad_grid_jobs", "Worker threads used.");
        reg.set_gauge(jobs, self.jobs as f64);
        let wall = reg.register_gauge("sad_grid_wall_seconds", "End-to-end grid wall time.");
        reg.set_gauge(wall, self.wall_time.as_secs_f64());
        let cpu = reg.register_gauge("sad_grid_cpu_seconds", "Serial-equivalent grid cost.");
        reg.set_gauge(cpu, self.cpu_time.as_secs_f64());
        let fits = reg.register_counter(
            "sad_grid_initial_fits_total",
            "fit_initial invocations across the grid.",
        );
        reg.inc(fits, self.roots.iter().map(|r| r.initial_fits as u64).sum());
        let unit_wall = reg.register_histogram(
            "sad_grid_unit_seconds",
            "Wall time per scheduling unit (root/group/cell).",
            Histogram::log2(1e-3, 4096.0),
        );
        let units: Vec<(&str, Duration, f64)> = if !self.roots.is_empty() {
            self.roots.iter().map(|r| (r.label.as_str(), r.wall, r.train_seconds)).collect()
        } else if !self.groups.is_empty() {
            self.groups.iter().map(|g| (g.label.as_str(), g.wall, g.train_seconds)).collect()
        } else {
            self.cells.iter().map(|c| (c.label.as_str(), c.wall, c.train_seconds)).collect()
        };
        for (label, wall, train) in units {
            reg.record(unit_wall, wall.as_secs_f64());
            let w = reg.register_gauge(
                &with_label("sad_grid_unit_wall_seconds", "unit", label),
                "Wall time of one scheduling unit.",
            );
            reg.set_gauge(w, wall.as_secs_f64());
            let t = reg.register_gauge(
                &with_label("sad_grid_unit_train_seconds", "unit", label),
                "Model-training share of one scheduling unit.",
            );
            reg.set_gauge(t, train);
        }
        reg
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> TimingArtifact {
        TimingArtifact {
            harness: "table3_results".into(),
            profile: "quick".into(),
            jobs: 4,
            wall_time: Duration::from_millis(500),
            cpu_time: Duration::from_millis(1800),
            cells: vec![
                CellTiming {
                    label: "ARIMA @ daphnet-like / AL".into(),
                    wall: Duration::from_millis(900),
                    train_seconds: 0.25,
                },
                CellTiming {
                    label: "AE \"quoted\"".into(),
                    wall: Duration::from_millis(900),
                    train_seconds: 0.5,
                },
            ],
            groups: Vec::new(),
            roots: Vec::new(),
        }
    }

    fn grouped_artifact() -> TimingArtifact {
        let mut a = artifact();
        a.groups = vec![
            GroupTiming {
                label: "ARIMA @ daphnet-like".into(),
                wall: Duration::from_millis(1200),
                train_seconds: 0.25,
                shared_pass: true,
                scorers: 3,
            },
            GroupTiming {
                label: "AE / ARES @ smd-like".into(),
                wall: Duration::from_millis(600),
                train_seconds: 0.125,
                shared_pass: false,
                scorers: 3,
            },
        ];
        a
    }

    fn rooted_artifact() -> TimingArtifact {
        let mut a = grouped_artifact();
        a.roots = vec![
            RootTiming {
                label: "Online ARIMA / SW @ daphnet-like".into(),
                wall: Duration::from_millis(1500),
                train_seconds: 0.2,
                initial_fits: 1,
                shared_pass: true,
                variants: 2,
                scorers: 3,
            },
            RootTiming {
                label: "2-layer AE / ARES @ smd-like".into(),
                wall: Duration::from_millis(800),
                train_seconds: 0.1,
                initial_fits: 1,
                shared_pass: false,
                variants: 2,
                scorers: 3,
            },
        ];
        a
    }

    #[test]
    fn json_has_expected_fields() {
        let json = artifact().to_json();
        for needle in [
            "\"harness\": \"table3_results\"",
            "\"profile\": \"quick\"",
            "\"jobs\": 4",
            "\"wall_seconds\": 0.500000",
            "\"cpu_seconds\": 1.800000",
            "\"concurrency\": 3.600",
            "\"cells\": [",
            "\"seconds\": 0.900000",
            "\"train_seconds\": 0.250000",
            "\"train_seconds_total\": 0.750000",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn group_timings_serialize_and_own_the_train_total() {
        let json = grouped_artifact().to_json();
        for needle in [
            "\"groups\": [",
            "\"label\": \"ARIMA @ daphnet-like\"",
            "\"shared_pass\": true",
            "\"shared_pass\": false",
            "\"scorers\": 3",
            // Groups count shared work once: 0.25 + 0.125, not the
            // per-cell 0.75.
            "\"train_seconds_total\": 0.375000",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn cell_only_artifact_keeps_legacy_train_total() {
        let json = artifact().to_json();
        assert!(json.contains("\"train_seconds_total\": 0.750000"));
        assert!(json.contains("\"groups\": [\n  ],"), "empty groups array present:\n{json}");
    }

    #[test]
    fn root_timings_serialize_and_own_the_train_total() {
        let json = rooted_artifact().to_json();
        for needle in [
            "\"roots\": [",
            "\"label\": \"Online ARIMA / SW @ daphnet-like\"",
            "\"initial_fits\": 1",
            "\"variants\": 2",
            "\"initial_fits_total\": 2",
            // Roots deduplicate the shared fit: 0.2 + 0.1, not the
            // per-group 0.375 or the per-cell 0.75.
            "\"train_seconds_total\": 0.300000",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn registry_projection_tracks_scheduling_units() {
        let reg = rooted_artifact().to_registry();
        assert_eq!(reg.gauge_by_name("sad_grid_jobs"), Some(4.0));
        assert_eq!(reg.counter_by_name("sad_grid_initial_fits_total"), Some(2));
        let h = reg.histogram_by_name("sad_grid_unit_seconds").unwrap();
        assert_eq!(h.count(), 2, "roots are the scheduling unit when present");
        assert_eq!(
            reg.gauge_by_name(
                "sad_grid_unit_wall_seconds{unit=\"Online ARIMA / SW @ daphnet-like\"}"
            ),
            Some(1.5)
        );
        // Falls back to cells when no roots/groups were timed.
        let cell_reg = artifact().to_registry();
        assert_eq!(cell_reg.histogram_by_name("sad_grid_unit_seconds").unwrap().count(), 2);
        let mut prom = String::new();
        cell_reg.render_prometheus(&mut prom);
        assert!(prom.contains("# TYPE sad_grid_unit_wall_seconds gauge"), "{prom}");
    }

    #[test]
    fn strings_are_escaped() {
        let json = artifact().to_json();
        assert!(json.contains("AE \\\"quoted\\\""));
        assert_eq!(json_string("a\nb\\c"), "\"a\\nb\\\\c\"");
    }

    #[test]
    fn write_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("sad_bench_timing_test");
        let path = dir.join("t.json");
        artifact().write(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with('{') && content.trim_end().ends_with('}'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
