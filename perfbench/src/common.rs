//! Helpers shared by every workload: timing, order statistics, peak RSS,
//! the host calibration probe, report digests and the result line.

use std::time::Instant;

/// Seconds spent in `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest of `v`: the best-of-N time of repetitions that do identical
/// work.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile of already-sorted samples, linearly interpolated.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort samples in place and return them (for repeated [`quantile`] calls).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host speed probe: iterations per second of a fixed integer mix whose
/// every step depends on a load from a 16 MiB table, so it tracks the
/// cache and memory contention that slows the simulator, not just the
/// clock. Depends only on the host, never on the code under test.
pub fn calibration_rate() -> f64 {
    const TABLE_WORDS: usize = (16 << 20) / 8;
    const ITERS: u64 = 20_000_000;
    let mut table = vec![0u64; TABLE_WORDS];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for (i, w) in table.iter_mut().enumerate() {
        x = x.wrapping_mul(0xd134_2543_de82_ef95).rotate_left(23) ^ i as u64;
        *w = x;
    }
    let (secs, x) = timed(|| {
        for i in 0..ITERS {
            x = x.wrapping_mul(0xd134_2543_de82_ef95).rotate_left(23) ^ i;
            x ^= table[(x >> 17) as usize & (TABLE_WORDS - 1)];
        }
        x
    });
    std::hint::black_box(x);
    ITERS as f64 / secs
}

/// SplitMix64: the harness's own seeded stream for replay inputs.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Mix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// FNV-1a over `text`: the digest pinned for a report's `Debug` dump.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Figures printed for people only (not part of the result line).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Record `violations` under a `context` label.
    pub fn check(&mut self, context: &str, violations: Vec<String>) {
        self.violations
            .extend(violations.into_iter().map(|v| format!("{context}: {v}")));
    }

    /// The result line: one JSON object.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `f` until at least `min_reps` repetitions and `seconds` of wall
/// time have passed (at most `max_reps`), returning each repetition's
/// seconds and result.
pub fn repeat<R>(
    seconds: f64,
    min_reps: usize,
    max_reps: usize,
    mut f: impl FnMut() -> (f64, R),
) -> Vec<(f64, R)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max_reps && (out.len() < min_reps || start.elapsed().as_secs_f64() < seconds)
    {
        out.push(f());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        o.metric("run_s", 1.5, "s");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
