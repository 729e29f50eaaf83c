//! Live service metrics: atomic counters and fixed-bucket latency
//! histograms, cheap enough to sit on every request path.
//!
//! Everything here is wait-free for writers (a handful of relaxed atomic
//! adds per recorded event) so instrumentation never perturbs the tail
//! latencies it measures. Readers (`metrics` command, shutdown report)
//! tolerate the slight skew of unsynchronised snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing event counter (also usable as a high-water
/// mark via [`Counter::record_max`]).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the stored value to `v` if `v` is larger (high-water mark).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` covers latencies up to `2^i` µs,
/// so the range spans 1 µs .. ~134 s before the final catch-all.
const BUCKETS: usize = 28;

/// A fixed-bucket latency histogram with power-of-two microsecond bounds.
///
/// Percentile estimates are the upper bound of the bucket containing the
/// requested rank — at worst a 2× overestimate, which is the right
/// trade-off for an always-on histogram with 28 words of state.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let us = ns.div_ceil(1000).max(1);
        let idx = (us.next_power_of_two().trailing_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.total_ns.load(Ordering::Relaxed) as f64 / 1000.0 / n as f64
    }

    /// Upper bound (µs) of the bucket holding the `p`-quantile observation,
    /// `p` in `[0, 1]`. Returns 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64 * p).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << idx;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Counters and histograms for every operation the service performs.
///
/// One registry lives for the lifetime of a [`crate::Service`]; all worker,
/// writer, and connection threads share it.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Service start time (for the uptime line).
    started: Instant,
    /// Queries answered (hits + misses), successful only.
    pub queries_served: Counter,
    /// Queries answered straight from the result cache.
    pub cache_hits: Counter,
    /// Queries that had to walk the snapshot's lists.
    pub cache_misses: Counter,
    /// Individual `GraphUpdate`s applied (batch elements, not batches).
    pub updates_applied: Counter,
    /// Updates that were no-ops (duplicate insert, missing removal).
    pub updates_noop: Counter,
    /// Updates rejected as structurally invalid (self-loops).
    pub updates_rejected: Counter,
    /// Snapshots published (epoch advances).
    pub snapshots_published: Counter,
    /// Requests that missed their deadline (either in-queue or waiting).
    pub deadline_exceeded: Counter,
    /// Requests rejected because a bounded queue was full (backpressure).
    pub rejected_queue_full: Counter,
    /// High-water mark of the query queue depth.
    pub queue_depth_peak: Counter,
    /// Faults injected by the fault layer (always 0 unless the
    /// `fault-injection` feature is armed and a plan is loaded).
    pub faults_injected: Counter,
    /// Panics caught and contained in the worker pool or writer; the
    /// thread is restarted in place instead of poisoning the engine.
    pub worker_restarts: Counter,
    /// Client-side retries performed by `execute_with_retry` /
    /// `submit_with_retry`.
    pub retries: Counter,
    /// Queries answered from a retained cached result under overload
    /// shedding instead of being rejected with `QueueFull`.
    pub shed: Counter,
    /// WAL records appended by the durable commit path (0 when the
    /// service runs without a [`crate::durability::DurabilityConfig`]).
    pub wal_records: Counter,
    /// WAL bytes appended (frame bytes, including headers).
    pub wal_bytes: Counter,
    /// WAL group-commit fsyncs performed.
    pub wal_fsyncs: Counter,
    /// Failed windows whose speculative WAL record was transactionally
    /// truncated away (so it can never be replayed).
    pub wal_truncations: Counter,
    /// WAL records replayed during crash recovery at startup.
    pub wal_replayed_records: Counter,
    /// Checkpoints written (every checkpoint is a full edge set).
    pub ckpt_full: Counter,
    /// Checkpoint attempts that failed (retried at the next interval).
    pub ckpt_failures: Counter,
    /// End-to-end query latency (enqueue to response).
    pub query_latency: LatencyHistogram,
    /// End-to-end update-batch latency (enqueue to publish).
    pub update_latency: LatencyHistogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            queries_served: Counter::default(),
            cache_hits: Counter::default(),
            cache_misses: Counter::default(),
            updates_applied: Counter::default(),
            updates_noop: Counter::default(),
            updates_rejected: Counter::default(),
            snapshots_published: Counter::default(),
            deadline_exceeded: Counter::default(),
            rejected_queue_full: Counter::default(),
            queue_depth_peak: Counter::default(),
            faults_injected: Counter::default(),
            worker_restarts: Counter::default(),
            retries: Counter::default(),
            shed: Counter::default(),
            wal_records: Counter::default(),
            wal_bytes: Counter::default(),
            wal_fsyncs: Counter::default(),
            wal_truncations: Counter::default(),
            wal_replayed_records: Counter::default(),
            ckpt_full: Counter::default(),
            ckpt_failures: Counter::default(),
            query_latency: LatencyHistogram::default(),
            update_latency: LatencyHistogram::default(),
        }
    }
}

impl MetricsRegistry {
    /// Cache hit rate in `[0, 1]` (0 when no query has completed).
    pub fn hit_rate(&self) -> f64 {
        let h = self.cache_hits.get();
        let total = h + self.cache_misses.get();
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// Renders the registry as `key  value` lines, one metric per line,
    /// with the caller's live gauges appended, framed by a final
    /// `-- end metrics --` marker so line-protocol clients can detect the
    /// end of the block.
    pub fn render(&self, gauges: &[(&str, u64)]) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<24} {v}\n"));
        };
        line(
            "uptime_s",
            format!("{:.1}", self.started.elapsed().as_secs_f64()),
        );
        line("queries_served", self.queries_served.get().to_string());
        line("cache_hits", self.cache_hits.get().to_string());
        line("cache_misses", self.cache_misses.get().to_string());
        line("cache_hit_rate", format!("{:.3}", self.hit_rate()));
        line("updates_applied", self.updates_applied.get().to_string());
        line("updates_noop", self.updates_noop.get().to_string());
        line("updates_rejected", self.updates_rejected.get().to_string());
        line(
            "snapshots_published",
            self.snapshots_published.get().to_string(),
        );
        line(
            "deadline_exceeded",
            self.deadline_exceeded.get().to_string(),
        );
        line(
            "rejected_queue_full",
            self.rejected_queue_full.get().to_string(),
        );
        line("queue_depth_peak", self.queue_depth_peak.get().to_string());
        line("faults_injected", self.faults_injected.get().to_string());
        line("worker_restarts", self.worker_restarts.get().to_string());
        line("retries", self.retries.get().to_string());
        line("shed", self.shed.get().to_string());
        line("wal_records", self.wal_records.get().to_string());
        line("wal_bytes", self.wal_bytes.get().to_string());
        line("wal_fsyncs", self.wal_fsyncs.get().to_string());
        line("wal_truncations", self.wal_truncations.get().to_string());
        line(
            "wal_replayed_records",
            self.wal_replayed_records.get().to_string(),
        );
        line("ckpt_full", self.ckpt_full.get().to_string());
        line("ckpt_failures", self.ckpt_failures.get().to_string());
        line(
            "query_p50_us",
            self.query_latency.percentile_us(0.50).to_string(),
        );
        line(
            "query_p99_us",
            self.query_latency.percentile_us(0.99).to_string(),
        );
        line(
            "query_mean_us",
            format!("{:.1}", self.query_latency.mean_us()),
        );
        line(
            "update_p50_us",
            self.update_latency.percentile_us(0.50).to_string(),
        );
        line(
            "update_p99_us",
            self.update_latency.percentile_us(0.99).to_string(),
        );
        line(
            "update_mean_us",
            format!("{:.1}", self.update_latency.mean_us()),
        );
        for (k, v) in gauges {
            line(k, v.to_string());
        }
        out.push_str("-- end metrics --\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.record_max(3);
        assert_eq!(c.get(), 5, "record_max never lowers");
        c.record_max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn histogram_percentiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        // 10 µs lands in the 16 µs bucket; the one 50 ms outlier drives p99+.
        assert_eq!(h.percentile_us(0.50), 16);
        assert!(h.percentile_us(0.999) >= 50_000);
        assert!(h.mean_us() > 10.0 && h.mean_us() < 1000.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn sub_microsecond_records_land_in_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.percentile_us(0.5), 1);
    }

    #[test]
    fn render_is_framed() {
        let m = MetricsRegistry::default();
        m.queries_served.add(7);
        let text = m.render(&[("queue_depth", 3)]);
        assert!(text.contains("queries_served"));
        assert!(text.contains("queue_depth"));
        assert!(text.ends_with("-- end metrics --\n"));
    }
}
