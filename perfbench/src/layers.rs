//! The traced run: spans the benchmark opens around its own calls into
//! the public API (plus the spans the program already opens beneath
//! them), registry deltas read around each traced unit of work, and the
//! per-layer table built from both.
//!
//! Nothing here reaches inside the program: a layer's time is the
//! duration of a span around a public call or of a span the program
//! already publishes (`pds.request`, `pds.policy`, `search.query`,
//! `db.select`, `db.op.*`), and a layer's self time is its spans'
//! duration minus the part their child spans cover.

use std::collections::BTreeMap;

use pds_obs::FinishedSpan;

use crate::measure::{Deltas, Metrics, Reading, Samples};

#[derive(Debug, Default)]
struct SpanAgg {
    durations: Samples,
    /// Sums of every integer attribute seen on spans of this name.
    attr_sums: BTreeMap<String, u64>,
}

/// Collector of the traced run. Workloads trace every other unit of
/// work (a visit, a session, a round, a batch) so traced and untraced
/// units see the same data and machine state; comparing each traced
/// unit with its untraced neighbours gives the tracing overhead.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Whether the current unit of work is traced.
    pub on: bool,
    spans: BTreeMap<String, SpanAgg>,
    /// Self time per layer (span-name prefix), nanoseconds.
    self_ns: BTreeMap<&'static str, u64>,
    deltas: Deltas,
    unit_start: Option<Reading>,
    /// Traced units of work.
    pub units: u64,
    /// Operations in the traced units (the base of every `_per_op`
    /// ratio): requests of a visit, one session, the token
    /// contributions of a round, the protocol runs of a batch.
    ops: u64,
    /// Flash page size of the workload's tokens (bytes programmed =
    /// pages programmed × page size).
    pub page_size: usize,
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
    derived: BTreeMap<&'static str, Samples>,
    /// `(traced, wall ns)` of every unit, in run order.
    walls: Vec<(bool, u64)>,
    /// Wall time of the traced units, nanoseconds.
    traced_wall_ns: u64,
}

/// The layer a span belongs to, by the name prefix the program uses.
fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "pds" => "core",
        "search" => "search",
        "db" => "db",
        _ => "bench",
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a unit of work; with tracing on, read the registry.
    pub fn begin_unit(&mut self) {
        self.unit_start = self.on.then(Reading::now);
    }

    /// End the unit begun by [`begin_unit`](Self::begin_unit), taking
    /// its wall time for the overhead ratio and the operations it held.
    pub fn end_unit(&mut self, wall_ns: u64, ops: u64) {
        let before = self.unit_start.take();
        self.walls.push((before.is_some(), wall_ns));
        if let Some(before) = before {
            self.deltas.add(&before, &Reading::now());
            self.units += 1;
            self.ops += ops;
            self.traced_wall_ns += wall_ns;
        }
    }

    /// Run `f` outside the current unit's registry window: work the
    /// benchmark does for itself inside a unit, such as a read-back
    /// check, must not count as the unit's.
    pub fn outside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let Some(before) = self.unit_start.take() else {
            return f();
        };
        self.deltas.add(&before, &Reading::now());
        let out = f();
        self.unit_start = Some(Reading::now());
        out
    }

    /// Run `f`, under a `bench.<name>` span when tracing is on. Returns
    /// the finished span tree too, for derived per-call figures.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Option<FinishedSpan>) {
        if !self.on {
            return (f(), None);
        }
        let (out, span) = pds_obs::trace::trace(&format!("bench.{name}"), f);
        self.ingest(&span);
        (out, Some(span))
    }

    fn ingest(&mut self, span: &FinishedSpan) {
        let covered: u64 = span.children.iter().map(|c| c.duration_ns).sum();
        *self.self_ns.entry(layer_of(&span.name)).or_insert(0) +=
            span.duration_ns.saturating_sub(covered);
        let agg = self.spans.entry(span.name.clone()).or_default();
        agg.durations.push(span.duration_ns);
        for (k, v) in &span.attrs {
            if let Some(n) = v.as_u64() {
                *agg.attr_sums.entry(k.clone()).or_insert(0) += n;
            }
        }
        for c in &span.children {
            self.ingest(c);
        }
    }

    /// Add to a named per-layer total (only while tracing).
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(key).or_insert(0.0) += v;
        }
    }

    /// Raise a named per-layer maximum (only while tracing).
    pub fn max(&mut self, key: &'static str, v: f64) {
        if self.on {
            let e = self.maxes.entry(key).or_insert(0.0);
            *e = e.max(v);
        }
    }

    /// Record a derived per-call duration (only while tracing).
    pub fn sample(&mut self, key: &'static str, ns: u64) {
        if self.on {
            self.derived.entry(key).or_default().push(ns);
        }
    }

    /// Set a named per-layer total measured over the whole run rather
    /// than the traced units.
    pub fn set_total(&mut self, key: &'static str, v: f64) {
        self.sums.insert(key, v);
    }

    /// Tracing overhead: each traced unit's wall time over the mean of
    /// the untraced units on either side of it, median over the run.
    /// Comparing neighbours cancels a trend in unit time (fleet rounds
    /// grow round by round; gateway visits grow with the data). Returns
    /// the ratio and the number of traced units it rests on.
    fn overhead(&self) -> (f64, usize) {
        let mut ratios = Samples::default();
        for w in self.walls.windows(3) {
            if let [(false, a), (true, t), (false, b)] = *w {
                // Ratios kept as parts per billion in the integer samples.
                ratios.push((t as f64 * 2e9 / (a + b).max(1) as f64) as u64);
            }
        }
        (ratios.p50_ns() / 1e9, ratios.len())
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn span_p50(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |a| a.durations.p50_ns())
    }

    fn span_count(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |a| a.durations.len() as f64)
    }

    fn attr_sum(&self, name: &str, attr: &str) -> f64 {
        self.spans
            .get(name)
            .and_then(|a| a.attr_sums.get(attr))
            .map_or(0.0, |v| *v as f64)
    }

    fn derived_p50(&self, key: &str) -> f64 {
        self.derived.get(key).map_or(0.0, Samples::p50_ns)
    }

    /// The per-layer table. Every metric is emitted on every workload;
    /// a layer the workload leaves idle reads 0, and a ratio's note
    /// names its base.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let units = self.ops as f64;
        let d = &self.deltas;
        let per_op = "traced ops";

        // pds-flash
        m.ratio(
            "flash.page_reads_per_op",
            d.counter("flash.page_reads"),
            units,
            "count",
            per_op,
        );
        m.ratio(
            "flash.page_programs_per_op",
            d.counter("flash.page_programs"),
            units,
            "count",
            per_op,
        );
        m.ratio(
            "flash.erases_per_op",
            d.counter("flash.block_erases"),
            units,
            "count",
            per_op,
        );
        m.ratio(
            "flash.write_amp",
            d.counter("flash.page_programs") * self.page_size as f64,
            self.sum("user_bytes"),
            "ratio",
            "user bytes ingested",
        );
        m.ratio(
            "flash.blocks_consumed_per_session",
            self.sum("blocks_consumed"),
            self.sum("sessions"),
            "count",
            "sessions",
        );
        m.ratio(
            "recovery.pages_scanned_per_open",
            d.counter("recovery.pages_scanned"),
            self.sum("opens"),
            "count",
            "wakes and reopens",
        );

        // pds-core
        m.put("core.wake_us", self.span_p50("bench.wake") / 1e3, "us");
        m.put("core.reopen_us", self.span_p50("bench.reopen") / 1e3, "us");
        m.put(
            "core.hibernate_us",
            self.span_p50("bench.hibernate") / 1e3,
            "us",
        );
        m.put("core.commit_us", self.span_p50("bench.commit") / 1e3, "us");
        m.put("core.policy_ns", d.hist_mean("policy.decision_ns"), "ns");
        m.ratio(
            "blackbox.frames_written_per_op",
            d.counter("blackbox.frames_written"),
            units,
            "count",
            per_op,
        );
        m.ratio(
            "blackbox.pages_flushed_per_op",
            d.counter("blackbox.pages_flushed"),
            units,
            "count",
            per_op,
        );
        // Self time per op, and as a share of the traced units' wall
        // time: where the time of a unit of work went.
        let wall_ns = self.traced_wall_ns as f64;
        for layer in ["core", "search", "db"] {
            let ns = self.self_ns.get(layer).copied().unwrap_or(0) as f64;
            m.ratio(
                &format!("{layer}.self_us_per_op"),
                ns / 1e3,
                units,
                "us",
                per_op,
            );
            m.ratio(
                &format!("{layer}.self_share"),
                ns,
                wall_ns,
                "ratio",
                "ns of traced unit wall time",
            );
        }

        // pds-search
        m.put(
            "search.query_us",
            self.derived_p50("search.query") / 1e3,
            "us",
        );
        m.ratio(
            "search.pages_read_per_query",
            self.sum("search.pages_read"),
            self.span_count("bench.search"),
            "count",
            "searches",
        );
        m.put(
            "search.ram_peak_bytes",
            self.maxes.get("ram.search").copied().unwrap_or(0.0),
            "bytes",
        );

        // pds-db
        for (span, name) in [
            ("db.op.summary_scan", "db.op.summary_scan_us"),
            ("db.op.full_scan", "db.op.full_scan_us"),
            ("db.op.fetch_rows", "db.op.fetch_rows_us"),
        ] {
            m.put_noted(
                name,
                self.span_p50(span) / 1e3,
                "us",
                format!("p50 of n={}", self.span_count(span)),
            );
        }
        m.ratio(
            "db.pages_read_per_row_returned",
            self.attr_sum("db.select", "flash.page_reads"),
            self.attr_sum("db.select", "db.rows"),
            "ratio",
            "rows returned",
        );
        m.ratio(
            "mvcc.changes_logged_per_commit",
            d.counter("mvcc.changes_logged"),
            d.counter("mvcc.commits"),
            "count",
            "commits",
        );

        // pds-mcu
        for (key, name) in [
            ("ram.search", "mcu.ram_peak_bytes.search"),
            ("ram.get_document", "mcu.ram_peak_bytes.get_document"),
            ("ram.select", "mcu.ram_peak_bytes.select"),
            ("ram.write", "mcu.ram_peak_bytes.write"),
            ("ram.open", "mcu.ram_peak_bytes.open"),
        ] {
            m.put(name, self.maxes.get(key).copied().unwrap_or(0.0), "bytes");
        }
        m.put(
            "mcu.budget_aborts",
            d.counter("mcu.ram.budget_aborts"),
            "count",
        );

        // pds-crypto
        m.put(
            "crypto.paillier_keygen_ms",
            self.span_p50("bench.paillier_keygen") / 1e6,
            "ms",
        );
        for (span, name) in [
            ("bench.paillier_encrypt", "crypto.paillier_encrypt_us"),
            ("bench.paillier_scalar_mul", "crypto.paillier_scalar_mul_us"),
            ("bench.paillier_decrypt", "crypto.paillier_decrypt_us"),
            ("bench.commutative_encrypt", "crypto.commutative_encrypt_us"),
        ] {
            m.put(name, self.span_p50(span) / 1e3, "us");
        }
        m.ratio(
            "global.token_crypto_ops_per_token",
            self.sum("crypto_ops"),
            self.sum("parties"),
            "count",
            "tokens or parties",
        );

        // pds-global
        let rounds = self.sum("rounds");
        m.ratio(
            "global.ssi_bytes_per_round",
            self.sum("ssi_bytes"),
            rounds,
            "bytes",
            "rounds",
        );
        m.ratio(
            "global.fake_tuple_ratio",
            self.sum("fake_tuples"),
            self.sum("fake_tuples") + self.sum("token_tuples"),
            "ratio",
            "tuples",
        );
        m.ratio(
            "global.rounds",
            self.sum("protocol_rounds"),
            rounds,
            "count",
            "rounds",
        );

        // pds-fleet
        for h in ["collect", "reduce", "distribute"] {
            let name = format!("fleet.phase.{h}_us");
            m.put(&name, d.hist_mean(&name), "us");
        }
        m.ratio(
            "sched.wakes_per_token",
            self.sum("sched.wakes"),
            self.sum("parties"),
            "count",
            "token contributions",
        );
        for key in ["sched.sleep_wakes", "sched.evictions", "sched.batches"] {
            m.ratio(key, self.sum(key), rounds, "count", "rounds");
        }
        m.put(
            "sched.peak_resident",
            self.maxes
                .get("sched.peak_resident")
                .copied()
                .unwrap_or(0.0),
            "count",
        );
        m.ratio(
            "bus.redelivery_ratio",
            self.sum("bus.redeliveries"),
            self.sum("bus.delivered"),
            "ratio",
            "deliveries",
        );
        m.ratio(
            "bus.dedup_hits",
            self.sum("bus.dedup_hits"),
            rounds,
            "count",
            "rounds",
        );
        m.ratio(
            "bus.payload_bytes_per_token",
            self.sum("bus.payload_bytes"),
            self.sum("parties"),
            "bytes",
            "token contributions",
        );
        m.ratio(
            "bus.ticks",
            self.sum("bus.ticks"),
            rounds,
            "count",
            "rounds",
        );

        // pds-obs
        let (overhead, pairs) = self.overhead();
        m.put_noted(
            "obs.tracing_overhead_ratio",
            overhead,
            "ratio",
            format!("median over {pairs} traced units of wall ÷ mean of both untraced neighbours"),
        );
        m.put("obs.events_dropped", d.events_dropped(), "count");
        m.put("bench.traced_ops", units, "count");
        m.put("bench.traced_units", self.units as f64, "count");
        m
    }
}
