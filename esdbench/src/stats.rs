//! Measurement helpers: latency distributions with honest tail percentiles,
//! the metric record the report prints, a result fingerprint, process CPU
//! and peak-RSS probes, and the seeded generator every script is drawn
//! from.

use std::time::{Duration, Instant};

/// One reported metric: name, unit, value, and how it was derived
/// (sample count, percentile actually used).
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub(crate) name: String,
    pub(crate) unit: &'static str,
    pub(crate) value: f64,
    pub(crate) note: String,
}

impl Metric {
    pub(crate) fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            note: String::new(),
        }
    }

    pub(crate) fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Samples of one quantity, in the unit the caller chose.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dist {
    values: Vec<f64>,
}

impl Dist {
    pub(crate) fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub(crate) fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile (`p` in 0..=100); `NaN` when empty.
    pub(crate) fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }

    pub(crate) fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The metric `name` at percentile `want`, falling back to the highest
    /// of p99/p90/p50 that still has at least ten samples beyond it.
    ///
    /// The host's speed drifts over seconds, so one slow stretch would
    /// own a whole-run tail. The samples (in the order they were taken)
    /// are therefore cut into up to [`SEGMENTS`] consecutive segments,
    /// each still with ten samples beyond the percentile, and the median
    /// of the per-segment percentiles is reported. With fewer than
    /// [`MIN_SEGMENTS`] such segments the whole run is used. The note records the
    /// sample count, the percentile actually used and the segment count.
    pub(crate) fn metric(&self, name: &str, unit: &'static str, want: f64) -> Metric {
        let n = self.len();
        let beyond = |len: usize, p: f64| len - ((p / 100.0) * len as f64).ceil() as usize;
        let used = [want, 99.0, 90.0, 50.0]
            .into_iter()
            .filter(|&p| p <= want)
            .find(|&p| p <= 50.0 || beyond(n, p) >= 10)
            .unwrap_or(50.0);
        // A median over two or three segments would discard most of the
        // samples; below MIN_SEGMENTS the whole run is one segment.
        let segs = (MIN_SEGMENTS..=SEGMENTS)
            .rev()
            .find(|&s| n / s >= 10 && (used <= 50.0 || beyond(n / s, used) >= 10))
            .unwrap_or(1);
        let per: Vec<f64> = (0..segs)
            .map(|i| percentile(&self.values[i * n / segs..(i + 1) * n / segs], used))
            .collect();
        Metric::new(name, unit, median_of(&per)).with_note(format!("n={n} pct=p{used} segs={segs}"))
    }
}

/// Most segments a run's samples are cut into (see [`Dist::metric`]).
pub(crate) const SEGMENTS: usize = 7;
/// Fewest segments worth taking a median over.
const MIN_SEGMENTS: usize = 4;

fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The statistical median (mean of the middle two for even counts).
pub(crate) fn median_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Wall and CPU clocks of a measured phase, read at segment boundaries so
/// throughput and CPU per op are reported as medians over segments.
#[derive(Debug)]
pub(crate) struct Phase {
    ops: usize,
    segs: usize,
    done: usize,
    started: Instant,
    last: (Instant, f64),
    per_s: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Phase {
    /// Starts the clocks for a phase of `ops` ops cut into `segs`
    /// segments of equal op count.
    pub(crate) fn start(ops: usize, segs: usize) -> Self {
        let now = Instant::now();
        Self {
            ops,
            segs: segs.clamp(1, ops.max(1)),
            done: 0,
            started: now,
            last: (now, cpu_seconds()),
            per_s: Vec::new(),
            cpu_ms: Vec::new(),
        }
    }

    /// Marks one op complete.
    pub(crate) fn tick(&mut self) {
        self.done += 1;
        let seg = self.per_s.len();
        if seg < self.segs && self.done == (seg + 1) * self.ops / self.segs {
            let (now, cpu) = (Instant::now(), cpu_seconds());
            let n = (self.done - seg * self.ops / self.segs) as f64;
            self.per_s.push(n / (now - self.last.0).as_secs_f64());
            self.cpu_ms.push((cpu - self.last.1) * 1e3 / n);
            self.last = (now, cpu);
        }
    }

    pub(crate) fn elapsed(&self) -> Duration {
        self.last.0 - self.started
    }

    /// `ops_per_s` and `cpu_ms_per_op`, each the median over segments.
    pub(crate) fn metrics(&self) -> [Metric; 2] {
        let note = format!("n={} segs={}", self.done, self.per_s.len());
        [
            Metric::new("ops_per_s", "1/s", median_of(&self.per_s)).with_note(note.clone()),
            Metric::new("cpu_ms_per_op", "ms", median_of(&self.cpu_ms)).with_note(note),
        ]
    }
}

/// FNV-1a over everything a workload returned, in script order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub(crate) fn value(self) -> u64 {
        self.0
    }
}

/// Process CPU time (user + system, all threads, live and exited) in
/// seconds, from `/proc/self/stat` at the kernel's 100 Hz tick.
pub(crate) fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub(crate) fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub(crate) fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_fall_back_when_samples_are_few() {
        let mut d = Dist::default();
        for i in 1..=100 {
            d.push(f64::from(i));
        }
        let m = d.metric("x", "us", 99.0);
        assert_eq!(m.note, "n=100 pct=p90 segs=1");
        assert_eq!(m.value, 90.0);
        assert_eq!(d.median(), 50.0);
        for i in 101..=1000 {
            d.push(f64::from(i));
        }
        assert_eq!(d.metric("x", "us", 99.0).note, "n=1000 pct=p99 segs=1");
        assert_eq!(d.metric("x", "us", 50.0).note, "n=1000 pct=p50 segs=7");
        assert_eq!(d.metric("x", "us", 90.0).note, "n=1000 pct=p90 segs=7");
    }

    #[test]
    fn segment_medians_ignore_one_slow_stretch() {
        let mut d = Dist::default();
        for seg in 0..7 {
            for _ in 0..100 {
                d.push(if seg == 3 { 10.0 } else { 1.0 });
            }
        }
        assert_eq!(d.metric("x", "us", 90.0).value, 1.0);
    }
}
