//! `gateway`: one resident secure-profile token preloaded with a year
//! of `synthetic_life`, serving a closed loop of client visits — two
//! searches, `get_document` on a hit, one selection of each kind, two
//! writes. The query layers do nearly all the work: no recovery, no
//! bus, no bignum.

use std::time::{Duration, Instant};

use pds_core::{Pds, PdsError};
use pds_obs::rng::{SeedableRng, StdRng};

use crate::layers::Tracer;
use crate::life::{self, Mirror};
use crate::measure::Samples;
use crate::ops::{Client, OpStats};
use crate::{Outcome, RunCfg};

/// A token preloaded with `days` of history, its mirror, and the
/// selection indexes built (owner-only maintenance).
pub fn preload(id: u64, owner: &str, days: u64, seed: u64) -> Result<(Pds, Mirror), PdsError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pds = Pds::new(id, owner)?;
    let mut mirror = Mirror::default();
    let mut day = 0;
    for rec in life::records(days, &mut rng) {
        let d = match &rec {
            life::Record::Email { day, .. }
            | life::Record::Health { day, .. }
            | life::Record::Bank { day, .. } => *day,
        };
        if d != day {
            pds.commit()?;
            day = d;
        }
        rec.ingest(&mut pds)?;
        mirror.apply(&rec);
    }
    pds.commit()?;
    let ctx = life::owner_ctx(owner);
    for (table, column) in life::INDEXED {
        pds.create_index(&ctx, table, column)?;
    }
    pds.sync()?;
    Ok((pds, mirror))
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let days = cfg.scale.pick(730, 30);
    let owner = "alice";
    // Set-up is repeated and its median reported; the last copy serves.
    let mut setups = Samples::default();
    let mut token = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        token = Some(preload(1, owner, days, cfg.seed));
        setups.push_since(t0);
    }
    let (mut pds, mut mirror) = match token.expect("set-ups ran") {
        Ok(t) => t,
        Err(e) => return Outcome::setup_failed(format!("preload: {e:?}")),
    };

    let mut client = Client::new(owner, StdRng::seed_from_u64(cfg.seed ^ 0x6A7E), days, 16);
    let mut st = OpStats::default();
    let mut tr = Tracer::new();
    tr.page_size = pds.token().flash().geometry().page_size;
    // A visit is the unit of latency: its fixed composition keeps the
    // median visit from jumping between request types.
    let mut visits = Samples::default();
    let (mut requests, mut busy_ns) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    loop {
        tr.on = cfg.trace && visits.len() % 2 == 1;
        tr.begin_unit();
        let mut ns = Vec::with_capacity(9);
        let (t, top) = client.search(&mut pds, &mirror, &mut tr, &mut st);
        ns.push(t);
        if let Some(doc) = top {
            ns.push(client.get_document(&mut pds, &mirror, doc, &mut tr, &mut st));
        }
        ns.push(client.search(&mut pds, &mirror, &mut tr, &mut st).0);
        for kind in 0..4 {
            ns.push(client.select(&mut pds, &mirror, kind, &mut tr, &mut st));
        }
        for _ in 0..2 {
            ns.push(client.write(&mut pds, &mut mirror, &mut tr, &mut st));
        }
        let visit: u64 = ns.iter().sum();
        tr.end_unit(visit, ns.len() as u64);
        visits.push(visit);
        requests += ns.len() as u64;
        busy_ns += visit;
        if Instant::now() >= deadline {
            break;
        }
    }

    let failed = st.failed();
    let done = (requests - failed) as f64;
    let mut out = Outcome::new(
        requests,
        failed,
        &setups,
        &visits,
        (done, busy_ns as f64 / 1e9),
    );
    st.report(&mut out.e2e);
    out.e2e.put_noted(
        "device_ms_per_op",
        st.device_ms / requests as f64,
        "ms",
        format!("over {requests} requests"),
    );
    st.report_detail(&mut out.detail);
    out.failures = st.failures;
    out.layers = cfg.trace.then(|| tr.metrics());
    out
}
