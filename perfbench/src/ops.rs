//! The gateway requests a client sends a token — search, document
//! fetch, selection, write — each timed around the public `Pds` call
//! alone and checked against the plaintext [`Mirror`] afterwards.
//! Shared by the `gateway` and `sessions` workloads.

use std::collections::BTreeMap;
use std::time::Instant;

use pds_core::data::{BANK_TABLE, EMAIL_TABLE, HEALTH_TABLE};
use pds_core::{Pds, Predicate, Value};
use pds_obs::rng::{Rng, StdRng};

use crate::layers::Tracer;
use crate::life::{self, Mirror, Record};
use crate::measure::{device_ms, io_now, Metrics, Samples};

/// Latencies and outcomes of the requests a workload sent.
#[derive(Default)]
pub struct OpStats {
    pub search: Samples,
    pub get_document: Samples,
    pub select: Samples,
    pub select_kind: BTreeMap<&'static str, Samples>,
    pub write: Samples,
    /// Requests whose answer was wrong or that returned an error, by
    /// reason.
    pub failures: BTreeMap<String, u64>,
    /// Simulated NAND time of all requests (ms).
    pub device_ms: f64,
}

impl OpStats {
    pub fn fail(&mut self, why: impl Into<String>) {
        *self.failures.entry(why.into()).or_insert(0) += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// The per-request-type latency metrics of the gateway layers.
    pub fn report(&self, m: &mut Metrics) {
        self.search.report(m, "search", "us");
        self.select.report(m, "select", "us");
        self.write.report(m, "write", "us");
    }

    /// Secondary latencies printed beside the named ones.
    pub fn report_detail(&self, m: &mut Metrics) {
        self.get_document.report(m, "get_document", "us");
        for (kind, s) in &self.select_kind {
            s.report(m, &format!("select.{kind}"), "us");
        }
    }
}

/// One client of one token: its owner's context, its seeded request
/// stream and the day new records are stamped with.
pub struct Client {
    pub owner: String,
    pub rng: StdRng,
    /// Days of preloaded history (bounds the day-number keywords).
    pub days: u64,
    /// Requests between two `sync`s of the write path.
    pub sync_every: u64,
    writes: u64,
}

impl Client {
    pub fn new(owner: &str, rng: StdRng, days: u64, sync_every: u64) -> Self {
        Client {
            owner: owner.to_string(),
            rng,
            days,
            sync_every,
            writes: 0,
        }
    }

    /// A 1–2 keyword top-10 search; returns its wall time and the top
    /// hit (for a following `get_document`).
    pub fn search(
        &mut self,
        pds: &mut Pds,
        mirror: &Mirror,
        tr: &mut Tracer,
        st: &mut OpStats,
    ) -> (u64, Option<u32>) {
        let n_kw = self.rng.gen_range(1..=2);
        let kws: Vec<String> = (0..n_kw)
            .map(|_| life::keyword(&mut self.rng, self.days))
            .collect();
        let kw: Vec<&str> = kws.iter().map(String::as_str).collect();
        let ctx = life::owner_ctx(&self.owner);
        let io0 = io_now();
        let t0 = Instant::now();
        let (res, span) = tr.call("search", || pds.search(&ctx, &kw, 10));
        let ns = st.search.push_since(t0);
        st.device_ms += device_ms(io_now() - io0);
        tr.max("ram.search", pds.token().ram().high_water() as f64);
        if let Some(span) = span {
            if let Some(req) = span.find("pds.request") {
                let policy = req.find("pds.policy").map_or(0, |p| p.duration_ns);
                tr.sample("search.query", req.duration_ns.saturating_sub(policy));
            }
            tr.add("search.pages_read", span.total("flash.page_reads") as f64);
        }
        match res {
            Ok(hits) if mirror.search_matches(&kw, 10, &hits) => (ns, hits.first().map(|h| h.doc)),
            Ok(_) => {
                st.fail("search: hits differ from the oracle");
                (ns, None)
            }
            Err(e) => {
                st.fail(format!("search: {e:?}"));
                (ns, None)
            }
        }
    }

    /// Fetch one document and compare it with the ingested text.
    pub fn get_document(
        &mut self,
        pds: &mut Pds,
        mirror: &Mirror,
        doc: u32,
        tr: &mut Tracer,
        st: &mut OpStats,
    ) -> u64 {
        let ctx = life::owner_ctx(&self.owner);
        let io0 = io_now();
        let t0 = Instant::now();
        let (res, _) = tr.call("get_document", || pds.get_document(&ctx, doc));
        let ns = st.get_document.push_since(t0);
        st.device_ms += device_ms(io_now() - io0);
        tr.max("ram.get_document", pds.token().ram().high_water() as f64);
        match res {
            Ok(bytes) if mirror.doc(doc).is_some_and(|t| t.as_bytes() == bytes) => {}
            Ok(_) => st.fail("get_document: content differs"),
            Err(e) => st.fail(format!("get_document: {e:?}")),
        }
        ns
    }

    /// One selection of the given kind (see [`life::select`]) compared
    /// with a plaintext filter of the generated rows.
    pub fn select(
        &mut self,
        pds: &mut Pds,
        mirror: &Mirror,
        kind: u32,
        tr: &mut Tracer,
        st: &mut OpStats,
    ) -> u64 {
        let sel = life::select(&mut self.rng, kind);
        let ctx = life::owner_ctx(&self.owner);
        let io0 = io_now();
        let t0 = Instant::now();
        let (res, _) = tr.call("select", || pds.select(&ctx, sel.table, &sel.pred));
        let ns = st.select.push_since(t0);
        st.select_kind.entry(sel.kind).or_default().push(ns);
        st.device_ms += device_ms(io_now() - io0);
        tr.max("ram.select", pds.token().ram().high_water() as f64);
        match res {
            Ok(rows) if rows == mirror.select(sel.table, sel.col, &sel.pred) => {}
            Ok(_) => st.fail(format!("select {}: rows differ", sel.kind)),
            Err(e) => st.fail(format!("select {}: {e:?}", sel.kind)),
        }
        ns
    }

    /// Ingest one new record and commit it; every `sync_every`-th write
    /// also syncs, inside the same timed operation.
    pub fn write(
        &mut self,
        pds: &mut Pds,
        mirror: &mut Mirror,
        tr: &mut Tracer,
        st: &mut OpStats,
    ) -> u64 {
        self.writes += 1;
        let day = self.days + self.writes / 3;
        let rec: Record = life::new_record(day, &mut self.rng);
        let sync = self.writes.is_multiple_of(self.sync_every);
        pds.token().ram().reset_high_water();
        let io0 = io_now();
        let t0 = Instant::now();
        let (ingested, _) = tr.call("ingest", || rec.ingest(pds));
        let res = ingested.and_then(|()| {
            tr.call("commit", || pds.commit()).0?;
            if sync {
                tr.call("sync", || pds.sync()).0?;
            }
            Ok(())
        });
        let ns = st.write.push_since(t0);
        st.device_ms += device_ms(io_now() - io0);
        tr.max("ram.write", pds.token().ram().high_water() as f64);
        tr.add("user_bytes", rec.user_bytes() as f64);
        match res {
            // The mirror follows what the token acknowledged.
            Ok(()) => mirror.apply(&rec),
            Err(e) => st.fail(format!("write: {e:?}")),
        }
        ns
    }
}

/// Read every row of every table and the newest document back and
/// compare them with the mirror: what the token acknowledged must have
/// survived. Returns the failure, if any.
pub fn durable(pds: &mut Pds, mirror: &Mirror, owner: &str) -> Result<(), String> {
    let ctx = life::owner_ctx(owner);
    let all = Predicate::between("day", Value::U64(0), Value::U64(u64::MAX));
    for table in [EMAIL_TABLE, HEALTH_TABLE, BANK_TABLE] {
        let rows = pds
            .select(&ctx, table, &all)
            .map_err(|e| format!("durability: select {table}: {e:?}"))?;
        if rows != mirror.all_rows(table) {
            return Err(format!("durability: {table} rows differ after reopen"));
        }
    }
    if let Some(last) = mirror.num_docs().checked_sub(1) {
        let doc = pds
            .get_document(&ctx, last)
            .map_err(|e| format!("durability: get_document: {e:?}"))?;
        if mirror.doc(last).map(str::as_bytes) != Some(&doc[..]) {
            return Err("durability: newest document differs after reopen".to_string());
        }
    }
    Ok(())
}
