//! Detector lifecycle telemetry: each [`Detector`](crate::Detector) owns a
//! [`LifecycleTelemetry`] — a private `sad_obs` registry tracking warm-up
//! completion, the initial fit, drift triggers (labelled by Task-2
//! variant), fine-tune sessions, and a per-step nonconformity histogram.
//!
//! Recording is pure observation: nothing here feeds back into the
//! detection trajectory, and every hot-path call (`record_step`, the event
//! counters) is zero-alloc by the `sad_obs` registry contract — the fleet's
//! steady-state allocation guards run with this telemetry live.
//!
//! Every registry carries the same schema (all three paper Task-2 variant
//! labels are pre-registered even though each detector only ever increments
//! its own), so snapshots from any two detectors merge cleanly when a
//! serving layer aggregates a population.

use sad_obs::{with_label, CounterId, Histogram, HistogramId, Registry};

/// Full metric name of the per-variant drift counter.
fn drift_counter_name(variant: &str) -> String {
    with_label("sad_detector_drift_events_total", "task2", variant)
}

/// The paper's three Task-2 variants (Table I); pre-registered in every
/// telemetry registry so all detector snapshots share one merge schema.
const PAPER_TASK2_VARIANTS: [&str; 3] = ["Regular", "μ/σ", "KS"];

/// Per-detector lifecycle metrics. See the module docs.
#[derive(Debug, Clone)]
pub struct LifecycleTelemetry {
    registry: Registry,
    steps: CounterId,
    warmup_completions: CounterId,
    initial_fits: CounterId,
    drift_events: CounterId,
    fine_tune_events: CounterId,
    nonconformity: HistogramId,
}

impl LifecycleTelemetry {
    /// Builds the telemetry registry for a detector whose Task-2 variant is
    /// named `variant` (see [`DriftDetector::name`](crate::DriftDetector::name)).
    pub fn new(variant: &str) -> Self {
        let mut registry = Registry::new();
        let steps =
            registry.register_counter("sad_detector_steps_total", "Post-warm-up detector steps.");
        let warmup_completions = registry.register_counter(
            "sad_detector_warmup_completions_total",
            "Warm-up segments completed.",
        );
        let initial_fits = registry.register_counter(
            "sad_detector_initial_fits_total",
            "Initial model fits at the end of warm-up.",
        );
        let mut drift_events = None;
        for known in PAPER_TASK2_VARIANTS {
            let id = registry.register_counter(
                &drift_counter_name(known),
                "Drift triggers by Task-2 variant.",
            );
            if known == variant {
                drift_events = Some(id);
            }
        }
        let drift_events = drift_events.unwrap_or_else(|| {
            registry
                .register_counter(&drift_counter_name(variant), "Drift triggers by Task-2 variant.")
        });
        let fine_tune_events = registry.register_counter(
            "sad_detector_fine_tune_events_total",
            "Fine-tune sessions (drift events with a trainable model).",
        );
        let nonconformity = registry.register_histogram(
            "sad_detector_nonconformity",
            "Per-step nonconformity scores a_t.",
            Histogram::linear(0.0, 1.0, 20),
        );
        Self {
            registry,
            steps,
            warmup_completions,
            initial_fits,
            drift_events,
            fine_tune_events,
            nonconformity,
        }
    }

    /// Records one completed post-warm-up step and its nonconformity
    /// score. Zero-alloc.
    #[inline]
    pub fn record_step(&mut self, a_t: f64) {
        self.registry.inc(self.steps, 1);
        self.registry.record(self.nonconformity, a_t);
    }

    /// Records warm-up completion and its initial model fit. Zero-alloc.
    #[inline]
    pub fn on_warmup_complete(&mut self) {
        self.registry.inc(self.warmup_completions, 1);
        self.registry.inc(self.initial_fits, 1);
    }

    /// Records one drift trigger. Zero-alloc.
    #[inline]
    pub fn on_drift(&mut self) {
        self.registry.inc(self.drift_events, 1);
    }

    /// Records one fine-tune session. Zero-alloc.
    #[inline]
    pub fn on_fine_tune(&mut self) {
        self.registry.inc(self.fine_tune_events, 1);
    }

    /// The underlying registry (read-only).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshots the lifecycle registry plus the export-time metrics that
    /// live outside it: `sad_detector_removal_misses_total` and
    /// `sad_detector_nonfinite_drift_stats_total` (both pulled from the
    /// Task-2 detector) and `sad_detector_train_seconds` (the cumulative
    /// training wall time). Allocates — export path only.
    pub fn snapshot(
        &self,
        removal_misses: u64,
        nonfinite_drift_stats: u64,
        train_time: std::time::Duration,
    ) -> Registry {
        let mut reg = self.registry.clone();
        let rm = reg.register_counter(
            "sad_detector_removal_misses_total",
            "Training-set removals the Task-2 detector could not honor.",
        );
        reg.inc(rm, removal_misses);
        let nf = reg.register_counter(
            "sad_detector_nonfinite_drift_stats_total",
            "Drift observes whose running statistics were non-finite (a NaN/inf sample).",
        );
        reg.inc(nf, nonfinite_drift_stats);
        let tt = reg.register_gauge(
            "sad_detector_train_seconds",
            "Cumulative model training wall time (max across merged detectors).",
        );
        reg.set_gauge(tt, train_time.as_secs_f64());
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_merge_across_task2_variants() {
        let mut a = LifecycleTelemetry::new("KS");
        let mut b = LifecycleTelemetry::new("μ/σ");
        a.record_step(0.2);
        a.on_drift();
        b.record_step(0.8);
        b.record_step(0.9);
        b.on_drift();
        b.on_fine_tune();
        let mut merged = a.snapshot(3, 0, std::time::Duration::from_secs(2));
        merged.merge_from(&b.snapshot(0, 7, std::time::Duration::from_secs(5)));
        assert_eq!(merged.counter_by_name("sad_detector_steps_total"), Some(3));
        assert_eq!(merged.counter_by_name(&drift_counter_name("KS")), Some(1));
        assert_eq!(merged.counter_by_name(&drift_counter_name("μ/σ")), Some(1));
        assert_eq!(merged.counter_by_name(&drift_counter_name("Regular")), Some(0));
        assert_eq!(merged.counter_by_name("sad_detector_fine_tune_events_total"), Some(1));
        assert_eq!(merged.counter_by_name("sad_detector_removal_misses_total"), Some(3));
        assert_eq!(merged.counter_by_name("sad_detector_nonfinite_drift_stats_total"), Some(7));
        assert_eq!(merged.gauge_by_name("sad_detector_train_seconds"), Some(5.0));
        assert_eq!(merged.histogram_by_name("sad_detector_nonconformity").unwrap().count(), 3);
    }

    #[test]
    fn unknown_variant_gets_its_own_labelled_counter() {
        let mut t = LifecycleTelemetry::new("Custom");
        t.on_drift();
        assert_eq!(t.registry().counter_by_name(&drift_counter_name("Custom")), Some(1));
        assert_eq!(t.registry().counter_by_name(&drift_counter_name("KS")), Some(0));
    }
}
