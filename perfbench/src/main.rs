//! perfbench — wall-clock benchmark of the PDS stack.
//!
//! ```text
//! perfbench --workload <gateway|sessions|fleet_round|smc_toolkit>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! One process runs one seeded workload through the public APIs of
//! `pds-core`, `pds-fleet` and `pds-global`, checks every answer
//! against a plaintext reference, and prints:
//!
//! * a table of every metric with its unit (the workload's named
//!   end-to-end metrics, then with `--trace 1` the per-layer table);
//! * one JSON line `{"perfbench": {...}}` holding all of it, the form
//!   later changes diff;
//! * as the last line, `{"correct", "attempted", "failed", "metrics"}`
//!   with the gated end-to-end metrics (`--trace 0`) or the per-layer
//!   metrics (`--trace 1`).
//!
//! See `perfbench/README.md` for why each workload exists.

mod fleet;
mod gateway;
mod layers;
mod life;
mod measure;
mod ops;
mod sessions;
mod smc;

use std::collections::BTreeMap;
use std::process::ExitCode;

use measure::{peak_rss_mb, Metric, Metrics, Samples};

/// End-to-end metrics every workload reports and the last line carries
/// with `--trace 0` (the names `BENCHMARK.json` gates).
const GATED: &[&str] = &["op_p50_ms", "throughput_ops_s", "setup_s", "peak_rss_mb"];

/// Input size: `full` for measurement, `tiny` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Units of work attempted (requests, sessions, rounds, protocol runs).
    pub attempted: u64,
    /// Units that failed or answered wrong.
    pub failed: u64,
    /// The workload's end-to-end metrics.
    pub e2e: Metrics,
    /// Secondary figures printed beside them.
    pub detail: Metrics,
    /// The per-layer table of the traced run.
    pub layers: Option<Metrics>,
    /// Failure reasons with counts.
    pub failures: BTreeMap<String, u64>,
    /// Set-up could not complete; nothing was measured.
    pub setup_error: Option<String>,
}

impl Outcome {
    /// The metrics every workload shares: `op_p50_ms`/`op_p99_ms` over
    /// its unit of work, `throughput_ops_s` (`done` operations completed
    /// in `busy_s` seconds spent inside the measured calls — one
    /// closed-loop client, checks excluded), `failed_ratio` and the
    /// median `setup_s`.
    pub fn new(
        attempted: u64,
        failed: u64,
        setups: &Samples,
        units: &Samples,
        (done, busy_s): (f64, f64),
    ) -> Self {
        let mut e2e = Metrics::default();
        units.report(&mut e2e, "op", "ms");
        e2e.ratio(
            "throughput_ops_s",
            done,
            busy_s,
            "ops/s",
            "s inside measured calls",
        );
        e2e.ratio(
            "failed_ratio",
            failed as f64,
            attempted as f64,
            "ratio",
            "attempted",
        );
        e2e.put_noted(
            "setup_s",
            setups.p50_ns() / 1e9,
            "s",
            format!("median of {} set-ups", setups.len()),
        );
        Outcome {
            attempted,
            failed,
            e2e,
            ..Outcome::default()
        }
    }

    pub fn setup_failed(why: String) -> Self {
        Outcome {
            setup_error: Some(why),
            ..Outcome::default()
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_metrics<'a>(ms: impl Iterator<Item = &'a Metric>, with_note: bool) -> String {
    let items: Vec<String> = ms
        .map(|m| {
            let note = if with_note && !m.note.is_empty() {
                format!(", \"note\": {}", json_str(&m.note))
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{note}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn print_table(title: &str, ms: &Metrics) {
    println!("== {title}");
    for m in &ms.0 {
        println!(
            "  {:<36} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                }
            }
            "--scale" => {
                args.scale = match val.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("bad --scale {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
    };
    let mut out = match args.workload.as_str() {
        "gateway" => gateway::run(&cfg),
        "sessions" => sessions::run(&cfg),
        "fleet_round" => fleet::run(&cfg),
        "smc_toolkit" => smc::run(&cfg),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(e) = out.setup_error {
        eprintln!("perfbench: set-up failed: {e}");
        return ExitCode::from(1);
    }
    if out.e2e.get("peak_rss_mb").is_none() {
        out.e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
    }

    println!(
        "perfbench {} seed={} seconds={} trace={} scale={:?}",
        args.workload, args.seed, args.seconds, cfg.trace as u8, cfg.scale
    );
    print_table("end-to-end", &out.e2e);
    print_table("detail", &out.detail);
    if let Some(layers) = &out.layers {
        print_table("per-layer (traced units)", layers);
    }
    for (why, n) in &out.failures {
        println!("FAILED x{n}: {why}");
    }

    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|(why, n)| format!("{}: {n}", json_str(why)))
        .collect();
    let report = format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"detail\": {}, \
         \"per_layer\": {}, \"failures\": {{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        cfg.trace as u8,
        out.attempted,
        out.failed,
        json_metrics(out.e2e.0.iter(), true),
        json_metrics(out.detail.0.iter(), true),
        out.layers
            .as_ref()
            .map_or("null".to_string(), |l| json_metrics(l.0.iter(), true)),
        failures.join(", ")
    );
    println!("{report}");

    // The last line of a traced run carries the per-layer counts,
    // ratios, sizes and self-time shares. Absolute per-layer times stay
    // in the report line: a layer a workload leaves idle reads 0 there
    // on every run, which is a measurement, not a clock reading.
    let last: Vec<&Metric> = match &out.layers {
        Some(layers) => layers
            .0
            .iter()
            .filter(|m| !matches!(m.unit, "ns" | "us" | "ms" | "s"))
            .collect(),
        None => GATED.iter().filter_map(|n| out.e2e.get(n)).collect(),
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        json_metrics(last.into_iter(), false)
    );
    ExitCode::SUCCESS
}
