//! `smc_toolkit`: seeded batches of [CKV+02] toolkit protocols from
//! `pds_global::toolkit` — a Paillier-512 secure scalar product, a
//! secure set union and a secure intersection size over a commutative
//! group generated at set-up. The only workload where bignum and
//! Paillier run; every other layer is idle.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use pds_crypto::{BigUint, CommutativeGroup, CommutativeKey, Paillier};
use pds_global::toolkit::{secure_intersection_size, secure_scalar_product, secure_set_union};
use pds_obs::rng::{Rng, SeedableRng, StdRng};

use crate::layers::Tracer;
use crate::measure::Samples;
use crate::{Outcome, RunCfg};

const PAILLIER_BITS: usize = 512;

/// One batch's inputs.
struct Inputs {
    x: Vec<u64>,
    y: Vec<u64>,
    union_sets: Vec<Vec<Vec<u8>>>,
    inter_sets: Vec<Vec<Vec<u8>>>,
}

fn draw_sets(rng: &mut StdRng, parties: usize, universe: u32, size: usize) -> Vec<Vec<Vec<u8>>> {
    (0..parties)
        .map(|_| {
            let mut s = BTreeSet::new();
            while s.len() < size {
                s.insert(rng.gen_range(0..universe));
            }
            s.into_iter()
                .map(|v| format!("item-{v}").into_bytes())
                .collect()
        })
        .collect()
}

fn draw(rng: &mut StdRng, tiny: bool) -> Inputs {
    let n = if tiny { 4 } else { 32 };
    Inputs {
        x: (0..n).map(|_| rng.gen_range(0..1000)).collect(),
        y: (0..n).map(|_| rng.gen_range(0..1000)).collect(),
        union_sets: draw_sets(rng, 3, 40, if tiny { 3 } else { 12 }),
        inter_sets: draw_sets(rng, 3, 16, if tiny { 3 } else { 10 }),
    }
}

/// Time the crypto primitives the protocols are built from, directly,
/// on this batch's own inputs (traced units only).
fn time_primitives(inp: &Inputs, group: &CommutativeGroup, rng: &mut StdRng, tr: &mut Tracer) {
    let ((pk, sk), _) = tr.call("paillier_keygen", || Paillier::keygen(PAILLIER_BITS, rng));
    let mut acc = pk.neutral();
    for (&x, &y) in inp.x.iter().zip(&inp.y) {
        let (ct, _) = tr.call("paillier_encrypt", || pk.encrypt_u64(x, rng));
        let (term, _) = tr.call("paillier_scalar_mul", || {
            pk.scalar_mul(&ct, &BigUint::from_u64(y))
        });
        acc = pk.add(&acc, &term);
    }
    tr.call("paillier_decrypt", || sk.decrypt(&acc));
    let key = CommutativeKey::random(group, rng);
    for item in inp.union_sets.iter().flatten() {
        tr.call("commutative_encrypt", || key.encrypt_value(item));
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let tiny = cfg.scale == crate::Scale::Tiny;
    // Set-up: generate the 256-bit commutative group (a safe prime).
    // The group is a public parameter, not a workload input: it is
    // generated from the fixed stream of `CommutativeGroup::test_params`,
    // so the set-up work — a prime search whose length varies several
    // fold between streams — is the same on every run. Three times; the
    // last one serves.
    let mut setups = Samples::default();
    let mut group = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        group = Some(CommutativeGroup::test_params());
        setups.push_since(t0);
    }
    let group = group.expect("three set-ups ran");

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5C);
    let mut tr = Tracer::new();
    let mut batches = Samples::default();
    let (mut sp, mut su, mut si) = (Samples::default(), Samples::default(), Samples::default());
    let mut failures = std::collections::BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fail = |why: &str| *failures.entry(why.to_string()).or_insert(0u64) += 1;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut n = 0u64;
    loop {
        tr.on = cfg.trace && n % 2 == 1;
        n += 1;
        let inp = draw(&mut rng, tiny);
        tr.begin_unit();
        let t0 = Instant::now();

        let t = Instant::now();
        let ((prod, s1), _) = tr.call("scalar_product", || {
            secure_scalar_product(&inp.x, &inp.y, PAILLIER_BITS, &mut rng)
        });
        sp.push_since(t);
        let t = Instant::now();
        let ((union, s2), _) = tr.call("set_union", || {
            secure_set_union(&inp.union_sets, &group, &mut rng)
        });
        su.push_since(t);
        let t = Instant::now();
        let ((inter, s3), _) = tr.call("intersection_size", || {
            secure_intersection_size(&inp.inter_sets, &group, &mut rng)
        });
        si.push_since(t);

        let ns = batches.push_since(t0);
        tr.end_unit(ns, 3);
        if tr.on {
            time_primitives(&inp, &group, &mut rng, &mut tr);
        }
        tr.add(
            "crypto_ops",
            (s1.crypto_ops + s2.crypto_ops + s3.crypto_ops) as f64,
        );
        tr.add("parties", 2.0 + 3.0 + 3.0);

        // Plaintext references.
        attempted += 3;
        let dot: u64 = inp.x.iter().zip(&inp.y).map(|(a, b)| a * b).sum();
        if prod != dot {
            failed += 1;
            fail("scalar_product differs from the plaintext dot product");
        }
        let all: BTreeSet<&Vec<u8>> = inp.union_sets.iter().flatten().collect();
        if union.len() != all.len() {
            failed += 1;
            fail("set_union cardinality differs from the plaintext union");
        }
        let (first, rest) = inp.inter_sets.split_first().expect("three parties");
        let common = first
            .iter()
            .filter(|v| rest.iter().all(|s| s.contains(v)))
            .count();
        if inter != common {
            failed += 1;
            fail("intersection_size differs from the plaintext intersection");
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    // A unit of latency is one batch (all three protocols on fresh
    // inputs); throughput counts protocol runs.
    let busy_s = batches.mean_ns() * batches.len() as f64 / 1e9;
    let done = (attempted - failed) as f64;
    let mut out = Outcome::new(attempted, failed, &setups, &batches, (done, busy_s));
    out.e2e.put_noted(
        "smc_p50_ms",
        batches.p50_ns() / 1e6,
        "ms",
        format!("median batch of 3 protocol runs, n={}", batches.len()),
    );
    sp.report(&mut out.detail, "smc.scalar_product", "ms");
    su.report(&mut out.detail, "smc.set_union", "ms");
    si.report(&mut out.detail, "smc.intersection_size", "ms");
    out.failures = failures;
    out.layers = cfg.trace.then(|| tr.metrics());
    out
}
