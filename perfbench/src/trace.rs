//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer. Each span carries a name, a trace id (frame id for the serve
//! workloads, root id for the grid), start and end times, and the index of
//! its parent span. The buffer is preallocated; spans beyond its capacity
//! are counted, not stored, so recording never allocates.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Sentinel parent index for a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// Every span kind the benchmark records; a span's `name` indexes this.
pub const NAMES: &[&str] = &[
    "setup",
    "phase.saturated",
    "ingest.decode",
    "ingest.offer",
    "fleet.round",
    "probe.begin",
    "probe.forward",
    "probe.finish",
    "probe.finetune",
    "probe.refresh",
    "core.nonconformity",
    "core.scorer",
    "core.task1",
    "core.drift_observe",
    "grid.root",
    "metrics.eval",
];
pub const SETUP: u16 = 0;
pub const SATURATED: u16 = 1;
pub const DECODE: u16 = 2;
pub const OFFER: u16 = 3;
pub const ROUND: u16 = 4;
pub const PROBE_BEGIN: u16 = 5;
pub const PROBE_FORWARD: u16 = 6;
pub const PROBE_FINISH: u16 = 7;
pub const PROBE_FINETUNE: u16 = 8;
pub const PROBE_REFRESH: u16 = 9;
pub const CORE_NONCONFORMITY: u16 = 10;
pub const CORE_SCORER: u16 = 11;
pub const CORE_TASK1: u16 = 12;
pub const CORE_DRIFT: u16 = 13;
pub const GRID_ROOT: u16 = 14;
pub const METRICS_EVAL: u16 = 15;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub name: u16,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    overflow: u64,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            overflow: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds of `t` since the tracer was created.
    #[inline]
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index (or `NO_PARENT` when the
    /// buffer is full).
    #[inline]
    pub fn record(
        &mut self,
        name: u16,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.overflow += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            trace,
            start_ns,
            end_ns,
            parent,
            name,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of a span recorded open (with `end_ns == start_ns`)
    /// so that it can parent the spans recorded inside it.
    pub fn set_end(&mut self, idx: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(idx as usize) {
            span.end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-name `(count, total ns, self ns)`: self time is a span's
    /// duration minus the part its direct children cover. Children of one
    /// parent never overlap (every span is recorded on one thread).
    pub fn self_times(&self) -> Vec<(u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = vec![(0u64, 0u64, 0u64); NAMES.len()];
        for (s, &child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = &mut out[s.name as usize];
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child);
        }
        out
    }

    /// Durations (ns) of every span with `name`, in recording order.
    pub fn durations(&self, name: u16) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes the spans as a text header naming the span kinds followed by
    /// fixed 32-byte little-endian records
    /// `(trace u64, start_ns u64, end_ns u64, parent u32, name u16, pad u16)`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "perfbench-trace v1 spans={} overflow={} names={}",
            self.spans.len(),
            self.overflow,
            NAMES.join(",")
        )?;
        for s in &self.spans {
            w.write_all(&s.trace.to_le_bytes())?;
            w.write_all(&s.start_ns.to_le_bytes())?;
            w.write_all(&s.end_ns.to_le_bytes())?;
            w.write_all(&s.parent.to_le_bytes())?;
            w.write_all(&s.name.to_le_bytes())?;
            w.write_all(&[0u8; 2])?;
        }
        w.flush()
    }

    /// Human-readable self-time table (one line per span name).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, (n, total, own)) in NAMES.iter().zip(self.self_times()) {
            if n > 0 {
                out.push_str(&format!(
                    "  span {name:<16} n={n:<9} total={:>10.3} ms  self={:>10.3} ms  self/call={:>9.0} ns\n",
                    total as f64 / 1e6,
                    own as f64 / 1e6,
                    own as f64 / n as f64
                ));
            }
        }
        out
    }
}
