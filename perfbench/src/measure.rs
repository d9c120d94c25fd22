//! Measurement primitives shared by every workload: latency samples
//! with honest percentiles, named metrics with units, registry deltas
//! read from outside the program, and the process high-water RSS.

use std::time::Instant;

use pds_flash::{CostModel, IoStats};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form context printed beside the value: the percentile a
    /// tail latency really is, its sample count, or a ratio's base.
    pub note: String,
}

/// An ordered list of metrics (report order is insertion order).
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_noted(name, value, unit, String::new());
    }

    pub fn put_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// `num / den`, recorded as 0 when the base is empty; the note
    /// names the base so a reader can tell "idle" from "free".
    pub fn ratio(&mut self, name: &str, num: f64, den: f64, unit: &'static str, base: &str) {
        let value = if den > 0.0 { num / den } else { 0.0 };
        self.put_noted(name, value, unit, format!("{num} / {den} {base}"));
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Wall-clock latencies of one operation type, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn push_since(&mut self, t0: Instant) -> u64 {
        let ns = t0.elapsed().as_nanos() as u64;
        self.0.push(ns);
        ns
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The first `k` samples, in the order taken.
    pub fn head(&self, k: usize) -> Samples {
        Samples(self.0.iter().take(k).copied().collect())
    }

    /// Least-squares slope of the samples against their index (ns per
    /// sample): how much each successive sample grows.
    pub fn slope_ns(&self) -> f64 {
        let n = self.0.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mx = (n - 1.0) / 2.0;
        let my = self.mean_ns();
        let (mut sxy, mut sxx) = (0.0, 0.0);
        for (i, y) in self.0.iter().enumerate() {
            let dx = i as f64 - mx;
            sxy += dx * (*y as f64 - my);
            sxx += dx * dx;
        }
        sxy / sxx
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }

    /// Nearest-rank percentile `p` (0–100) in nanoseconds.
    fn percentile_of(sorted: &[u64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64
    }

    pub fn p50_ns(&self) -> f64 {
        Self::percentile_of(&self.sorted(), 50.0)
    }

    pub fn mean_ns(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64
    }

    /// The highest of p99.9/p99/p95/p90/p75/p50 that still has at least
    /// ten samples beyond it, as `(value_ns, percentile)`. With fewer
    /// than twenty samples no percentile qualifies and the maximum is
    /// reported as percentile 100.
    pub fn tail_ns(&self) -> (f64, f64) {
        let s = self.sorted();
        let n = s.len() as f64;
        for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
            if n * (1.0 - p / 100.0) >= 10.0 {
                return (Self::percentile_of(&s, p), p);
            }
        }
        (s.last().copied().unwrap_or(0) as f64, 100.0)
    }

    /// Record `<stem>_p50_<unit>` and `<stem>_p99_<unit>` (the tail
    /// rule of [`tail_ns`](Self::tail_ns); the note says which
    /// percentile it really is and how many samples back it).
    pub fn report(&self, m: &mut Metrics, stem: &str, unit: &'static str) {
        let scale = match unit {
            "us" => 1e3,
            "ms" => 1e6,
            "s" => 1e9,
            _ => 1.0,
        };
        let n = self.len();
        m.put_noted(
            &format!("{stem}_p50_{unit}"),
            self.p50_ns() / scale,
            unit,
            format!("n={n}"),
        );
        let (tail, p) = self.tail_ns();
        m.put_noted(
            &format!("{stem}_p99_{unit}"),
            tail / scale,
            unit,
            format!("p{p} of n={n}"),
        );
    }
}

/// Process high-water resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated NAND time of an I/O delta under the default latency model.
pub fn device_ms(io: IoStats) -> f64 {
    io.time_ns(&CostModel::default()) as f64 / 1e6
}

/// Program-published counters the benchmark reads deltas of.
pub const COUNTERS: &[&str] = &[
    "flash.page_reads",
    "flash.page_programs",
    "flash.block_erases",
    "recovery.pages_scanned",
    "blackbox.frames_written",
    "blackbox.pages_flushed",
    "mvcc.changes_logged",
    "mvcc.commits",
    "mcu.ram.budget_aborts",
];

/// Program-published histograms the benchmark reads deltas of.
pub const HISTOGRAMS: &[&str] = &[
    "policy.decision_ns",
    "fleet.phase.collect_us",
    "fleet.phase.reduce_us",
    "fleet.phase.distribute_us",
];

/// A point-in-time reading of the process-wide `pds_obs` registry.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    counters: Vec<u64>,
    /// `(count, sum)` per histogram.
    hists: Vec<(u64, u64)>,
    events_dropped: u64,
}

impl Reading {
    pub fn now() -> Self {
        Reading {
            counters: COUNTERS.iter().map(|c| pds_obs::counter(c).get()).collect(),
            hists: HISTOGRAMS
                .iter()
                .map(|h| {
                    let h = pds_obs::histogram(h);
                    (h.count(), h.sum())
                })
                .collect(),
            events_dropped: pds_obs::metrics::global().events_dropped(),
        }
    }
}

/// Accumulated registry deltas over many measured intervals.
#[derive(Debug, Clone, Default)]
pub struct Deltas {
    counters: Vec<u64>,
    hists: Vec<(u64, u64)>,
    events_dropped: u64,
}

impl Deltas {
    pub fn add(&mut self, before: &Reading, after: &Reading) {
        if self.counters.is_empty() {
            self.counters = vec![0; COUNTERS.len()];
            self.hists = vec![(0, 0); HISTOGRAMS.len()];
        }
        for (i, acc) in self.counters.iter_mut().enumerate() {
            *acc += after.counters[i].saturating_sub(before.counters[i]);
        }
        for (i, acc) in self.hists.iter_mut().enumerate() {
            acc.0 += after.hists[i].0.saturating_sub(before.hists[i].0);
            acc.1 += after.hists[i].1.saturating_sub(before.hists[i].1);
        }
        self.events_dropped += after.events_dropped.saturating_sub(before.events_dropped);
    }

    pub fn counter(&self, name: &str) -> f64 {
        COUNTERS
            .iter()
            .position(|c| *c == name)
            .and_then(|i| self.counters.get(i))
            .map_or(0.0, |v| *v as f64)
    }

    /// Mean of the histogram's observations in the window (0 if none).
    pub fn hist_mean(&self, name: &str) -> f64 {
        HISTOGRAMS
            .iter()
            .position(|h| *h == name)
            .and_then(|i| self.hists.get(i))
            .map_or(
                0.0,
                |(n, s)| if *n > 0 { *s as f64 / *n as f64 } else { 0.0 },
            )
    }

    pub fn events_dropped(&self) -> f64 {
        self.events_dropped as f64
    }
}

/// Process-wide flash I/O so far, from the program's `flash.*` counters.
pub fn io_now() -> IoStats {
    IoStats {
        page_reads: pds_obs::counter("flash.page_reads").get(),
        page_programs: pds_obs::counter("flash.page_programs").get(),
        block_erases: pds_obs::counter("flash.block_erases").get(),
        non_sequential_programs: 0,
    }
}
