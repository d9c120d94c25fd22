//! `sessions`: a population of preloaded secure tokens, all parked
//! (`hibernate`), one resident at a time. A seeded pick of token drives
//! each session: wake, two or three requests, one write, hibernate;
//! every `REOPEN_EVERY`-th session ends in `sync` plus a power-cycle
//! `reopen` instead, after which everything acknowledged must read back.
//! Open and close dominate: the flash recovery scan and page CRC, the
//! search-index rebuild and black-box recovery.

use std::time::{Duration, Instant};

use pds_core::{Pds, PdsHibernation, ReopenReport};
use pds_flash::IoStats;
use pds_obs::rng::{Rng, SeedableRng, StdRng};

use crate::gateway::preload;
use crate::layers::Tracer;
use crate::life::Mirror;
use crate::measure::{device_ms, io_now, Samples};
use crate::ops::{durable, Client, OpStats};
use crate::{Outcome, RunCfg};

/// Every this many sessions one ends in a power cycle.
const REOPEN_EVERY: u64 = 8;

struct Member {
    client: Client,
    mirror: Mirror,
    parked: Option<PdsHibernation>,
    /// Free flash blocks when the token was first parked, and at its
    /// latest wake.
    free_at_park: usize,
    free_now: usize,
}

fn clean(rep: &ReopenReport) -> bool {
    rep.docs_lost == 0 && rep.changes_dropped == 0 && rep.rows_lost.iter().all(|(_, n)| *n == 0)
}

/// A seeded pick of parked token; a token lost to a failure passes its
/// turn to the next parked one.
fn next_parked(pop: &[Member], pick: &mut StdRng) -> Option<usize> {
    let start = pick.gen_range(0..pop.len());
    (0..pop.len())
        .map(|k| (start + k) % pop.len())
        .find(|&t| pop[t].parked.is_some())
}

fn build(cfg: &RunCfg, tokens: u64, days: u64) -> Result<Vec<Member>, String> {
    (0..tokens)
        .map(|i| {
            let owner = format!("owner-{i}");
            let seed = cfg.seed.wrapping_mul(1000).wrapping_add(i);
            let (pds, mirror) =
                preload(100 + i, &owner, days, seed).map_err(|e| format!("preload: {e:?}"))?;
            let free = pds.token().flash().free_blocks();
            let parked = pds.hibernate().map_err(|e| format!("hibernate: {e:?}"))?;
            Ok(Member {
                client: Client::new(&owner, StdRng::seed_from_u64(seed ^ 0x5E55), days, 16),
                mirror,
                parked: Some(parked),
                free_at_park: free,
                free_now: free,
            })
        })
        .collect()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let tokens = cfg.scale.pick(32, 4);
    let days = cfg.scale.pick(120, 20);
    let mut setups = Samples::default();
    let mut pop = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        drop(pop.take()); // free the previous copy before building the next
        pop = Some(build(cfg, tokens, days));
        setups.push_since(t0);
    }
    let mut pop = match pop.expect("three set-ups ran") {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed(e),
    };

    let mut pick = StdRng::seed_from_u64(cfg.seed ^ 0x9E55);
    let mut st = OpStats::default();
    let mut tr = Tracer::new();
    tr.page_size = 2048;
    let mut open = Samples::default();
    let mut session = Samples::default();
    let mut reopen = Samples::default();
    let (mut attempted, mut failed, mut device) = (0u64, 0u64, 0.0f64);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    // Ends at the deadline, or when every token was lost to a failure.
    while let Some(t) = next_parked(&pop, &mut pick) {
        let power_cycle = attempted % REOPEN_EVERY == REOPEN_EVERY - 1;
        tr.on = cfg.trace && attempted % 2 == 1;
        attempted += 1;
        let failed_before = st.failed();
        tr.begin_unit();
        let m = &mut pop[t];
        let h = m.parked.take().expect("picked a parked token");
        let io0 = io_now();
        let t0 = Instant::now();
        let mut paused = Duration::ZERO;
        let mut check_io = IoStats::default();
        let (woke, _) = tr.call("wake", || Pds::wake(h));
        let mut pds = match woke {
            Ok((pds, rep)) => {
                if !clean(&rep) {
                    st.fail("wake: a clean hibernation reported losses");
                }
                pds
            }
            Err(e) => {
                // The token is gone: its parked state was consumed.
                st.fail(format!("wake: {e:?}"));
                failed += 1;
                tr.end_unit(t0.elapsed().as_nanos() as u64, 1);
                if Instant::now() >= deadline {
                    break;
                }
                continue;
            }
        };
        tr.add("opens", 1.0);
        tr.max("ram.open", pds.token().ram().high_water() as f64);
        m.free_now = pds.token().flash().free_blocks();

        // Two or three requests; the first answer ends the open.
        let requests = pick.gen_range(2..=3);
        let mut pending_doc = None;
        for r in 0..requests {
            if let Some(doc) = pending_doc.take() {
                m.client
                    .get_document(&mut pds, &m.mirror, doc, &mut tr, &mut st);
            } else if pick.gen_bool(0.5) {
                pending_doc = m.client.search(&mut pds, &m.mirror, &mut tr, &mut st).1;
            } else {
                let kind = pick.gen_range(0..4);
                m.client.select(&mut pds, &m.mirror, kind, &mut tr, &mut st);
            }
            if r == 0 {
                open.push_since(t0);
            }
        }
        m.client.write(&mut pds, &mut m.mirror, &mut tr, &mut st);

        let closed = if power_cycle {
            let synced = tr.call("sync", || pds.sync()).0;
            let t_re = Instant::now();
            let (res, _) = tr.call("reopen", || synced.and_then(|()| pds.reopen()));
            reopen.push_since(t_re);
            res.map_err(|e| format!("reopen: {e:?}"))
                .and_then(|(mut pds, rep)| {
                    tr.add("opens", 1.0);
                    if !clean(&rep) {
                        st.fail("reopen: losses after a sync");
                    }
                    // The durability check reads everything back; it is
                    // not part of the session a user waits for, nor of
                    // its device time or traced counts.
                    let t_check = Instant::now();
                    let io_c = io_now();
                    let check = tr.outside(|| durable(&mut pds, &m.mirror, &m.client.owner));
                    check_io = io_now() - io_c;
                    paused += t_check.elapsed();
                    if let Err(e) = check {
                        st.fail(e);
                    }
                    tr.call("hibernate", || pds.hibernate())
                        .0
                        .map_err(|e| format!("hibernate: {e:?}"))
                })
        } else {
            tr.call("hibernate", || pds.hibernate())
                .0
                .map_err(|e| format!("hibernate: {e:?}"))
        };
        let ns = (t0.elapsed().saturating_sub(paused)).as_nanos() as u64;
        session.push(ns);
        device += device_ms(io_now() - io0 - check_io);
        match closed {
            Ok(h) => m.parked = Some(h),
            Err(e) => st.fail(e),
        }
        if st.failed() > failed_before {
            failed += 1;
        }
        tr.end_unit(ns, 1);
        if Instant::now() >= deadline {
            break;
        }
    }

    let consumed: usize = pop
        .iter()
        .map(|m| m.free_at_park.saturating_sub(m.free_now))
        .sum();
    let per_session = consumed as f64 / attempted.max(1) as f64;
    tr.set_total("blocks_consumed", consumed as f64);
    tr.set_total("sessions", attempted as f64);

    let busy_s = session.mean_ns() * session.len() as f64 / 1e9;
    let done = (attempted - failed) as f64;
    let mut out = Outcome::new(attempted, failed, &setups, &session, (done, busy_s));
    st.report(&mut out.e2e);
    out.e2e.put_noted(
        "open_p50_ms",
        open.p50_ns() / 1e6,
        "ms",
        format!("n={}", open.len()),
    );
    session.report(&mut out.e2e, "session", "ms");
    out.e2e.put_noted(
        "device_ms_per_op",
        device / attempted.max(1) as f64,
        "ms",
        format!("over {attempted} sessions"),
    );
    st.report_detail(&mut out.detail);
    reopen.report(&mut out.detail, "reopen", "ms");
    out.detail.put_noted(
        "flash.blocks_consumed_per_session",
        per_session,
        "count",
        format!("{consumed} blocks over {attempted} sessions on {tokens} tokens"),
    );
    out.failures = st.failures;
    out.layers = cfg.trace.then(|| tr.metrics());
    out
}
