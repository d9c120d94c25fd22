//! Smoke test: every workload at tiny sizes, untraced and traced. Every
//! named metric must be emitted with its unit on each workload it
//! applies to, the last line must carry exactly the metrics
//! `BENCHMARK.json` names, and every output check must pass.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use pds_obs::json::{self, Json};

const WORKLOADS: &[&str] = &["gateway", "sessions", "fleet_round", "smc_toolkit"];

/// `(name, unit, workloads it applies to)` of every named end-to-end
/// metric.
const NAMED: &[(&str, &str, &[&str])] = &[
    ("search_p50_us", "us", &["gateway", "sessions"]),
    ("search_p99_us", "us", &["gateway", "sessions"]),
    ("select_p50_us", "us", &["gateway", "sessions"]),
    ("select_p99_us", "us", &["gateway", "sessions"]),
    ("write_p50_us", "us", &["gateway", "sessions"]),
    ("write_p99_us", "us", &["gateway", "sessions"]),
    ("open_p50_ms", "ms", &["sessions"]),
    ("session_p50_ms", "ms", &["sessions"]),
    ("session_p99_ms", "ms", &["sessions"]),
    ("round_s", "s", &["fleet_round"]),
    ("smc_p50_ms", "ms", &["smc_toolkit"]),
    ("throughput_ops_s", "ops/s", WORKLOADS),
    (
        "device_ms_per_op",
        "ms",
        &["gateway", "sessions", "fleet_round"],
    ),
    ("failed_ratio", "ratio", WORKLOADS),
    ("setup_s", "s", WORKLOADS),
    ("peak_rss_mb", "MB", WORKLOADS),
    ("op_p50_ms", "ms", WORKLOADS),
];

/// Per-layer times the report line of a traced run carries.
const LAYER_TIMES: &[(&str, &str)] = &[
    ("core.wake_us", "us"),
    ("core.reopen_us", "us"),
    ("core.hibernate_us", "us"),
    ("core.commit_us", "us"),
    ("core.policy_ns", "ns"),
    ("core.self_us_per_op", "us"),
    ("search.query_us", "us"),
    ("search.self_us_per_op", "us"),
    ("db.op.summary_scan_us", "us"),
    ("db.op.full_scan_us", "us"),
    ("db.op.fetch_rows_us", "us"),
    ("db.self_us_per_op", "us"),
    ("crypto.paillier_keygen_ms", "ms"),
    ("crypto.paillier_encrypt_us", "us"),
    ("crypto.paillier_scalar_mul_us", "us"),
    ("crypto.paillier_decrypt_us", "us"),
    ("crypto.commutative_encrypt_us", "us"),
    ("fleet.phase.collect_us", "us"),
    ("fleet.phase.reduce_us", "us"),
    ("fleet.phase.distribute_us", "us"),
];

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload; returns the report object and the last line.
fn run(workload: &str, trace: bool) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let last = json::parse(lines.last().expect("output")).expect("last line is JSON");
    let report = lines
        .iter()
        .find(|l| l.starts_with("{\"perfbench\""))
        .and_then(|l| json::parse(l))
        .and_then(|j| j.get("perfbench").cloned())
        .expect("report line");
    (report, last)
}

fn unit_of<'a>(metrics: &'a Json, name: &str) -> Option<&'a str> {
    metrics.get(name)?.get("unit")?.as_str()
}

fn assert_correct(workload: &str, report: &Json, last: &Json) {
    assert_eq!(
        last.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {report:?}"
    );
    assert_eq!(
        last.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        last.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    let failures = report.get("failures").expect("failures");
    assert_eq!(
        failures,
        &Json::Obj(Default::default()),
        "{workload}: {failures:?}"
    );
}

#[test]
fn every_workload_emits_its_named_metrics_and_passes_its_checks() {
    let gated = contract("end_to_end");
    for &w in WORKLOADS {
        let (report, last) = run(w, false);
        assert_correct(w, &report, &last);
        let e2e = report.get("end_to_end").expect("end_to_end");
        for (name, unit, applies) in NAMED {
            if applies.contains(&w) {
                assert_eq!(unit_of(e2e, name), Some(*unit), "{w}: {name}");
            }
        }
        assert_eq!(
            e2e.get("failed_ratio")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0),
            "{w}"
        );
        let metrics = last.get("metrics").expect("metrics");
        let Json::Obj(m) = metrics else {
            panic!("{w}: metrics is not an object")
        };
        assert_eq!(
            m.len(),
            gated.len(),
            "{w}: last line carries exactly the gated metrics"
        );
        for (name, unit) in &gated {
            assert_eq!(unit_of(metrics, name), Some(unit.as_str()), "{w}: {name}");
            let v = metrics
                .get(name)
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64);
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{w}: {name} must be positive, got {v:?}"
            );
        }
    }
}

#[test]
fn every_workload_emits_the_per_layer_table_when_traced() {
    let layers = contract("per_layer");
    for &w in WORKLOADS {
        let (report, last) = run(w, true);
        assert_correct(w, &report, &last);
        let metrics = last.get("metrics").expect("metrics");
        let Json::Obj(m) = metrics else {
            panic!("{w}: metrics is not an object")
        };
        assert_eq!(
            m.len(),
            layers.len(),
            "{w}: last line carries exactly the per-layer metrics"
        );
        for (name, unit) in &layers {
            assert_eq!(unit_of(metrics, name), Some(unit.as_str()), "{w}: {name}");
        }
        // Absolute per-layer times are in the report line.
        let table = report.get("per_layer").expect("per-layer table");
        for (name, unit) in LAYER_TIMES {
            assert_eq!(unit_of(table, name), Some(*unit), "{w}: {name}");
        }
        let ratio = metrics
            .get("obs.tracing_overhead_ratio")
            .and_then(|x| x.get("value"))
            .and_then(Json::as_f64);
        assert!(
            ratio.is_some_and(|r| r > 0.0),
            "{w}: tracing overhead {ratio:?}"
        );
    }
}

#[test]
fn sessions_power_cycles_and_reads_everything_back() {
    let (report, last) = run("sessions", false);
    assert_correct("sessions", &report, &last);
    let reopens = report
        .get("detail")
        .and_then(|d| d.get("reopen_p50_ms"))
        .and_then(|m| m.get("note"))
        .and_then(Json::as_str)
        .expect("reopen latency");
    assert_ne!(reopens, "n=0", "the run must include power-cycled sessions");
}
