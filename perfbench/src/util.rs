//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, and the host fingerprint.

use std::time::Instant;

/// SplitMix64: the benchmark's own seeded generator, so inputs depend only
/// on `--seed` and not on any library RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct indices out of `0..n`, in ascending order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + (self.next_u64() % (n - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut out = idx[..k.min(n)].to_vec();
        out.sort_unstable();
        out
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Median over `windows` contiguous, near-equal slices of `items` of
/// `per_window(slice)`.
pub fn median_of_windows<T>(items: &[T], windows: usize, per_window: impl Fn(&[T]) -> f64) -> f64 {
    let n = items.len();
    let w = windows.clamp(1, n.max(1));
    let values: Vec<f64> = (0..w)
        .map(|i| per_window(&items[i * n / w..(i + 1) * n / w]))
        .collect();
    median(&values)
}

/// Median cost of one `Instant::now()` pair, in ns — subtracted from the
/// per-call timings of calls short enough for the clock to matter.
pub fn clock_overhead_ns() -> f64 {
    let mut samples = Vec::with_capacity(2001);
    for _ in 0..2001 {
        let a = Instant::now();
        let b = Instant::now();
        samples.push(b.duration_since(a).as_nanos() as f64);
    }
    median(&samples)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The git revision of the checkout, read from `.git` without running git;
/// `"none"` when the checkout is not a repository.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON object describing the host and the run, printed on its own
/// line before the result.
pub fn fingerprint(
    workload: &str,
    seed: u64,
    trace: bool,
    smoke: bool,
    samples: &[(&str, usize)],
) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_max = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "absent".into());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let samples: Vec<String> = samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"fingerprint\": {{\"cpu\": {}, \"nproc\": {nproc}, \"cgroup_cpu_max\": {}, \
         \"simd_feature\": {}, \"avx2_runtime\": {avx2}, \"git_rev\": {}, \"workload\": {}, \
         \"seed\": {seed}, \"trace\": {trace}, \"smoke\": {smoke}, \"samples\": {{{}}}}}}}",
        json_str(&cpu),
        json_str(&cpu_max),
        cfg!(feature = "simd"),
        json_str(&git_revision()),
        json_str(workload),
        samples.join(", "),
    )
}
