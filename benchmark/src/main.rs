//! `amp-benchmark`: one end-to-end benchmark for the submit -> daemon ->
//! results path of the AMP gateway, with per-layer attribution.
//!
//! One run of one workload (the unit `BENCHMARK.json` names):
//!
//! ```text
//! amp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! builds the deployment from the seed, measures for about `<s>` seconds,
//! checks the program's outputs, prints every metric by name with its
//! unit, and ends with one JSON line. `--trace 0` gives the end-to-end
//! metrics from an untraced run; `--trace 1` records spans around every
//! call into a layer (in every other slice, cycle or trial, so traced and
//! untraced throughput are measured side by side), runs the direct probes
//! and gives the per-layer metrics. `run`, `selfcheck` and `spread` (see
//! `runner`) do this for all four workloads, each in a child process of
//! its own, always for [`DEFAULT_SECONDS`] (half a second with `--smoke`).

mod check;
mod counters;
mod fleet;
mod http;
mod inputs;
mod metrics;
mod probes;
mod procstat;
mod rng;
mod runner;
mod speed;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{insert, Values, END_TO_END, PER_LAYER};
use workloads::{Cfg, Measured};

/// The seed `run` and `selfcheck` use when none is given. The README
/// names a second, hold-out seed that is never used while developing.
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`; every committed result was taken at it.
pub const DEFAULT_SECONDS: f64 = 20.0;
pub const SMOKE_SECONDS: f64 = 0.5;
/// Spans written to a trace file at most; the file says how many there were.
const TRACE_FILE_SPANS: usize = 200_000;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `run --smoke`: the same code and checks on a fifth of the data.
    pub smoke: bool,
    pub trace_out: Option<String>,
    /// Set by `runner::child` only: the result line may then say more than
    /// the driver's contract allows (see `result_line`).
    pub for_runner: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(RunArgs {
        workload: need("--workload")?.to_string(),
        seed: need("--seed")?.parse().map_err(|_| "--seed takes a whole number")?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
        trace_out: flag(args, "--trace-out").map(str::to_string),
        for_runner: args.iter().any(|a| a == "--for-runner"),
    })
}

/// One run. Untraced it yields the end-to-end metrics. Traced it records
/// spans in every other interval of the timed part and runs the probes;
/// the per-layer metrics come from there.
fn one_run(args: &RunArgs) -> Result<Measured, String> {
    let cfg = Cfg { seed: args.seed, seconds: args.seconds, traced: args.trace, smoke: args.smoke };
    let mut m = workloads::run(&args.workload, &cfg)?;
    insert(&mut m.values, "rss_peak_mb", procstat::rss_peak_mb());
    if args.trace {
        // Spans cover about half the timed part.
        let cost = trace::span_cost_s(m.spans.len()) / (m.timed_s / 2.0);
        insert(&mut m.values, "harness.span_cost_share", Some(cost));
    }
    Ok(m)
}

/// The line the contract asks for: `--trace 0` carries every end-to-end
/// metric, `--trace 1` every per-layer metric, each as a number with its
/// unit. The driver takes nothing but numbers, so for it a per-layer
/// metric the workload does not exercise reads 0. For the runner the same
/// line says what is true: such a metric is `null` with the reason, which
/// keeps it apart from a measured zero (`gridamp.holds`), and the
/// untraced line also says where the database files were.
fn result_line(args: &RunArgs, m: &Measured) -> Result<String, String> {
    let mut out = serde_json::Map::new();
    if args.trace {
        for spec in &PER_LAYER {
            let entry = match m.values.get(spec.name) {
                Some(&v) => serde_json::json!({"value": v, "unit": spec.unit}),
                None if args.for_runner => serde_json::json!({
                    "value": null, "unit": spec.unit, "reason": format!("{} does not exercise it", args.workload),
                }),
                None => serde_json::json!({"value": 0.0, "unit": spec.unit}),
            };
            out.insert(spec.name.to_string(), entry);
        }
    } else {
        let storage = PER_LAYER.iter().filter(|spec| args.for_runner && spec.name == "harness.storage_tmpfs");
        for (name, unit) in END_TO_END.iter().map(|m| (m.name, m.unit)).chain(storage.map(|m| (m.name, m.unit))) {
            // A share of 0 is a value, and the worst one; only a metric
            // that was not measured at all stops the run.
            let v = m.values.get(name).ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
            out.insert(name.to_string(), serde_json::json!({"value": v, "unit": unit}));
        }
    }
    let line = serde_json::json!({
        "correct": true, "attempted": m.attempted, "failed": 0, "metrics": serde_json::Value::Object(out),
    });
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// Every metric of this run by name, with its unit and what it stands
/// for on this workload (end-to-end) or what it should move (per-layer).
fn print_values(workload: &str, values: &Values, trace: bool) {
    let column = metrics::WORKLOADS.iter().position(|w| w.0 == workload).unwrap_or(0);
    println!("# {workload} ({})", if trace { "traced: per-layer" } else { "untraced: end-to-end" });
    for (name, value) in values {
        if let Some(m) = END_TO_END.iter().find(|m| m.name == *name).filter(|_| !trace) {
            println!("{name:<36} {value:>16.4} {:<6} {}", m.unit, m.per_workload[column]);
        } else if let Some(m) = PER_LAYER.iter().find(|m| m.name == *name).filter(|_| trace) {
            println!("{name:<36} {value:>16.4} {:<6} -> {}", m.unit, m.moves);
        }
    }
}

fn run_one(args: &[String]) -> Result<(), String> {
    let args = parse_run(args)?;
    let measured = one_run(&args)?;
    if let Some(path) = &args.trace_out {
        let doc = trace::to_json(&args.workload, &measured.spans, TRACE_FILE_SPANS);
        let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    let line = result_line(&args, &measured)?;
    print_values(&args.workload, &measured.values, args.trace);
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => runner::run(&args[1..]),
        Some("selfcheck") => runner::selfcheck(&args[1..]),
        Some("spread") => runner::spread(&args[1..]),
        Some(_) if flag(&args, "--workload").is_some() => run_one(&args),
        _ => Err("usage: amp-benchmark --workload <browse|submit_journey|backlog_drain|store_churn> --seed <n> \
                  --seconds <s> --trace <0|1> [--trace-out <file>]\n       amp-benchmark run [--seed <n>] [--trace] \
                  [--smoke]\n       amp-benchmark selfcheck [--seed <n>]\n       amp-benchmark spread [--seed <n>]"
            .into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("amp-benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
