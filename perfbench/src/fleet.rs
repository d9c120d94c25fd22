//! `fleet_round`: [TNP14] secure aggregation of
//! `GroupByQuery::bank_by_category` over a fleet of slim tokens under a
//! resident cap far below fleet size (default `EvictPolicy::Hibernate`,
//! no more workers than cores). The scheduler, the bus, the SSI and the
//! symmetric crypto path do the work; each token is tiny and holds no
//! documents, so search and select are idle.

use std::time::{Duration, Instant};

use pds_fleet::{build_fleet, fleet_secure_aggregation, EvictPolicy, FleetConfig, OnTamper};
use pds_global::ssi::SsiThreat;
use pds_global::GroupByQuery;

use crate::layers::Tracer;
use crate::measure::{device_ms, io_now, peak_rss_mb, Samples};
use crate::{Outcome, RunCfg};

/// Steady rounds the named round figures are taken over.
const STEADY_ROUNDS: usize = 6;

pub fn run(cfg: &RunCfg) -> Outcome {
    let tokens = cfg.scale.pick(10_000, 300);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut fc = FleetConfig::new(tokens, workers, cfg.seed);
    fc.resident_cap = Some(cfg.scale.pick(256, 32));
    fc.evict = EvictPolicy::Hibernate;
    let query = GroupByQuery::bank_by_category();
    let aggregate = |fleet: &mut pds_fleet::agg::Fleet| {
        fleet_secure_aggregation(
            &fc,
            &query,
            fleet,
            SsiThreat::HonestButCurious,
            OnTamper::Abort,
        )
    };

    // Set-up: build the scheduler and run one untimed cold round (first
    // materialization of every token). Repeated; the median is reported.
    let mut setups = Samples::default();
    let mut fleet = None;
    for _ in 0..3 {
        drop(fleet.take()); // free the previous copy before building the next
        let t0 = Instant::now();
        let built = build_fleet(&fc, &query)
            .map_err(|e| format!("build_fleet: {e:?}"))
            .and_then(|mut f| {
                aggregate(&mut f)
                    .map_err(|e| format!("cold round: {e:?}"))
                    .map(|_| f)
            });
        setups.push_since(t0);
        fleet = Some(built);
    }
    let mut fleet = match fleet.expect("set-ups ran") {
        Ok(f) => f,
        Err(e) => return Outcome::setup_failed(e),
    };

    let mut tr = Tracer::new();
    tr.page_size = 512;
    let mut rounds = Samples::default();
    let mut rss_steady = 0.0;
    let (mut attempted, mut failed, mut device) = (0u64, 0u64, 0.0f64);
    let mut failures = std::collections::BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    loop {
        tr.on = cfg.trace && attempted % 2 == 1;
        attempted += 1;
        tr.begin_unit();
        let io0 = io_now();
        let t0 = Instant::now();
        let (res, _) = tr.call("round", || aggregate(&mut fleet));
        let ns = rounds.push_since(t0);
        if rounds.len() == STEADY_ROUNDS {
            rss_steady = peak_rss_mb();
        }
        device += device_ms(io_now() - io0);
        tr.end_unit(ns, tokens as u64);
        match res {
            Ok(rep) if rep.result == rep.expected && !rep.result.is_empty() => {
                tr.add("rounds", 1.0);
                tr.add("parties", tokens as f64);
                tr.add("crypto_ops", rep.stats.token_crypto_ops as f64);
                tr.add("ssi_bytes", rep.stats.ssi_bytes as f64);
                tr.add("fake_tuples", rep.stats.fake_tuples as f64);
                tr.add("token_tuples", rep.stats.token_tuples as f64);
                tr.add("protocol_rounds", f64::from(rep.stats.rounds));
                tr.add("opens", rep.sched.sleep_wakes as f64);
                tr.add("sched.wakes", rep.sched.wakes as f64);
                tr.add("sched.sleep_wakes", rep.sched.sleep_wakes as f64);
                tr.add("sched.evictions", rep.sched.evictions as f64);
                tr.add("sched.batches", rep.sched.batches as f64);
                tr.max("sched.peak_resident", rep.sched.peak_resident as f64);
                tr.add("bus.redeliveries", rep.bus.redeliveries as f64);
                tr.add("bus.delivered", rep.bus.delivered as f64);
                tr.add("bus.dedup_hits", rep.bus.duplicates as f64);
                tr.add("bus.payload_bytes", rep.bus.payload_bytes as f64);
                tr.add("bus.ticks", rep.bus.ticks as f64);
            }
            Ok(_) => {
                failed += 1;
                *failures
                    .entry("round: result differs from the plaintext reference".to_string())
                    .or_insert(0) += 1;
            }
            Err(e) => {
                failed += 1;
                *failures.entry(format!("round: {e:?}")).or_insert(0) += 1;
            }
        }
        if Instant::now() >= deadline && rounds.len() >= STEADY_ROUNDS {
            break;
        }
    }

    // Each round wakes every token twice and each wake appends to the
    // token's black-box ring, which the next wake scans again: round
    // time grows with the round index (reported below as
    // `round_growth_s`). The named figures use the first
    // `STEADY_ROUNDS` steady rounds, which every run completes, so runs
    // of different speed compare the same rounds.
    let steady = rounds.head(STEADY_ROUNDS);
    let round_s = steady.p50_ns() / 1e9;
    // The unit of throughput is a token contribution; a round is too
    // long for a mean over a few of them to be steady, so throughput
    // is the fleet size over the median round.
    let done = if failed == 0 { tokens as f64 } else { 0.0 };
    let mut out = Outcome::new(attempted, failed, &setups, &steady, (done, round_s));
    out.e2e.put_noted(
        "round_s",
        round_s,
        "s",
        format!(
            "median of the first {} steady rounds, {tokens} tokens, {workers} workers",
            steady.len()
        ),
    );
    rounds.report(&mut out.detail, "round.all", "s");
    out.detail.put_noted(
        "round_growth_s",
        rounds.slope_ns() / 1e9,
        "s",
        format!(
            "least-squares growth per round over {} rounds",
            rounds.len()
        ),
    );
    out.e2e.put_noted(
        "device_ms_per_op",
        device / (rounds.len() as f64 * tokens as f64),
        "ms",
        "per token contribution".to_string(),
    );
    // Every round grows the parked tokens' rings, so the high-water RSS
    // is taken where the named figures end; the end-of-run one (which
    // depends on how many rounds fitted) is a detail.
    let rss_end = peak_rss_mb();
    out.e2e.put_noted(
        "peak_rss_mb",
        if rounds.len() >= STEADY_ROUNDS {
            rss_steady
        } else {
            rss_end
        },
        "MB",
        format!("after the first {} steady rounds", steady.len()),
    );
    out.detail.put("peak_rss_mb.end_of_run", rss_end, "MB");
    out.failures = failures;
    out.layers = cfg.trace.then(|| tr.metrics());
    out
}
