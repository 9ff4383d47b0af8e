//! `run` and `selfcheck`: every workload, each in a child process of its
//! own (this binary re-executed), so `amp_obs` counters start at zero and
//! peak memory is per workload. Results go to `benchmark/out/` and, for
//! `selfcheck`, to `benchmark/results/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles_exclusive};
use crate::{flag, DEFAULT_SECONDS, DEFAULT_SEED, SMOKE_SECONDS};

type Json = serde_json::Value;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The commit the numbers belong to, `-dirty` when the working tree
/// differs from it; `unknown` when the checkout is not a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// What the subcommands take. The run length is not among them: every
/// multi-workload run is `DEFAULT_SECONDS` long, the `run_seconds` of
/// `BENCHMARK.json`, so that whatever lands in `results/` is comparable.
struct Options {
    seed: u64,
    /// `run --smoke`: a fifth of the data, half a second timed.
    smoke: bool,
}

impl Options {
    fn parse(args: &[String], smoke: bool) -> Result<Options, String> {
        let seed =
            flag(args, "--seed").map_or(Ok(DEFAULT_SEED), str::parse).map_err(|_| "--seed takes a whole number")?;
        Ok(Options { seed, smoke })
    }

    fn seconds(&self) -> f64 {
        if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }
    }
}

fn workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.0)
}

/// Run one workload once in a child process; its last line is the result.
fn child(workload: &str, seed: u64, opt: &Options, trace: bool, trace_out: Option<&Path>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &opt.seconds().to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }, "--for-runner"]);
    if opt.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} (seed {seed}) failed: {}", String::from_utf8_lossy(&output.stderr).trim()));
    }
    let (report, line) = stdout.trim_end().rsplit_once('\n').ok_or_else(|| format!("{workload}: no result line"))?;
    println!("{report}");
    serde_json::from_str(line).map_err(|e| format!("{workload}: result line: {e}"))
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// End-to-end metrics of one set, per workload and metric, and where the
/// runs said their database files were.
struct Set {
    rows: BTreeMap<&'static str, BTreeMap<&'static str, f64>>,
    storage: &'static str,
}

/// One set: every workload `repeats` times, on seeds `seed`, `seed + 1`,
/// ...; the per-metric median over the repeats.
fn end_to_end_set(opt: &Options, repeats: u64) -> Result<Set, String> {
    let mut set = Set { rows: BTreeMap::new(), storage: "tmpfs" };
    for workload in workloads() {
        let runs =
            (0..repeats).map(|r| child(workload, opt.seed + r, opt, false, None)).collect::<Result<Vec<_>, _>>()?;
        let mut row = BTreeMap::new();
        for spec in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| value_of(r, spec.name)).collect();
            row.insert(spec.name, median(&values).ok_or_else(|| format!("{workload}: {} missing", spec.name))?);
        }
        // One run that fell back to the checkout's disk marks the set.
        if runs.iter().any(|r| value_of(r, "harness.storage_tmpfs") != Some(1.0)) {
            set.storage = "disk";
        }
        set.rows.insert(workload, row);
    }
    Ok(set)
}

fn set_json(set: &Set) -> Json {
    let mut out = serde_json::Map::new();
    for (workload, row) in &set.rows {
        let mut metrics = serde_json::Map::new();
        for spec in &END_TO_END {
            metrics.insert(spec.name.to_string(), serde_json::json!({"value": row[spec.name], "unit": spec.unit}));
        }
        out.insert(workload.to_string(), Json::Object(metrics));
    }
    Json::Object(out)
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// `run [--seed n] [--trace] [--smoke]`: the whole set once, written to
/// `benchmark/out/result.json`. With `--trace`, each workload runs once
/// more with spans on; the per-layer metrics join the result and the
/// spans go to `benchmark/out/trace-<workload>.json`.
pub fn run(args: &[String]) -> Result<(), String> {
    let opt = Options::parse(args, args.iter().any(|a| a == "--smoke"))?;
    let out = out_dir()?;
    let set = end_to_end_set(&opt, 1)?;
    let mut doc = serde_json::Map::new();
    doc.insert("commit".into(), commit().into());
    doc.insert("seed".into(), serde_json::json!(opt.seed));
    doc.insert("seconds".into(), opt.seconds().into());
    doc.insert("smoke".into(), opt.smoke.into());
    doc.insert("storage".into(), set.storage.into());
    doc.insert("end_to_end".into(), set_json(&set));
    if args.iter().any(|a| a == "--trace") {
        let mut layers = serde_json::Map::new();
        let mut cost_per_live_sim = BTreeMap::new();
        for workload in workloads() {
            let traced = child(workload, opt.seed, &opt, true, Some(&out.join(format!("trace-{workload}.json"))))?;
            // The child's line has every per-layer metric: a value, or
            // null and the reason. Add what the catalogue says about it.
            let mut row = serde_json::Map::new();
            for spec in &PER_LAYER {
                let measured = traced.get("metrics").and_then(|m| m.get(spec.name)).and_then(Json::as_object);
                let mut entry = measured.cloned().ok_or_else(|| format!("{workload}: {} missing", spec.name))?;
                entry.insert("better".into(), spec.better.into());
                entry.insert("moves".into(), spec.moves.into());
                row.insert(spec.name.to_string(), Json::Object(entry));
            }
            if let Some(v) = value_of(&traced, "gridamp.tick_us_per_live_sim") {
                cost_per_live_sim.insert(workload, v);
            }
            layers.insert(workload.to_string(), Json::Object(row));
        }
        doc.insert("per_layer".into(), Json::Object(layers));
        // Tick cost per live simulation with a backlog live against two
        // dozen live: above 1, a tick costs more than linear in its load.
        if let (Some(large), Some(small)) =
            (cost_per_live_sim.get("backlog_drain"), cost_per_live_sim.get("submit_journey"))
        {
            doc.insert("gridamp.superlinearity".into(), (large / small).into());
            println!("{:<36} {:>16.4} ratio", "gridamp.superlinearity", large / small);
        }
    }
    let path = out.join("result.json");
    write_json(&path, &Json::Object(doc))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `selfcheck [--seed n]`: the whole set twice, three runs per workload
/// each time, and a failure when any end-to-end metric of one set is
/// worse than the other's by more than its bound: as a share of the
/// better value, or, for a share of operations (`slo_share`), as a
/// difference. Writes `results/baseline.json` and appends both sets to
/// `results/history.jsonl`, the trajectory later changes are read against.
pub fn selfcheck(args: &[String]) -> Result<(), String> {
    const REPEATS: u64 = 3;
    let opt = Options::parse(args, false)?;
    let sets = [end_to_end_set(&opt, REPEATS)?, end_to_end_set(&opt, REPEATS)?];
    let mut worst: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for workload in workloads() {
        for spec in &END_TO_END {
            let (a, b) = (sets[0].rows[workload][spec.name], sets[1].rows[workload][spec.name]);
            let (lo, hi) = (a.min(b), a.max(b));
            let gap = if spec.absolute {
                hi - lo
            } else if spec.better == "lower" {
                (hi - lo) / lo
            } else {
                (hi - lo) / hi
            };
            let ok = gap <= spec.bound;
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>7.2}% of {:>5.1}% {}",
                workload,
                spec.name,
                a,
                b,
                gap * 100.0,
                spec.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
            rows.push(serde_json::json!({"workload": workload, "metric": spec.name, "unit": spec.unit, "first": a, "second": b, "gap": gap, "bound": spec.bound, "ok": ok}));
            if !ok {
                worst.push(format!("{workload}/{}: {a} vs {b}", spec.name));
            }
        }
    }
    let results = bench_dir().join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let commit = commit();
    let meta = |doc: &mut serde_json::Map, storage: &str| {
        doc.insert("commit".into(), commit.clone().into());
        doc.insert("seed".into(), serde_json::json!(opt.seed));
        doc.insert("seconds".into(), opt.seconds().into());
        doc.insert("runs_per_workload".into(), serde_json::json!(REPEATS));
        doc.insert("storage".into(), storage.into());
    };
    let mut baseline = serde_json::Map::new();
    meta(&mut baseline, if sets.iter().all(|s| s.storage == "tmpfs") { "tmpfs" } else { "disk" });
    baseline.insert("agree".into(), worst.is_empty().into());
    baseline.insert("comparison".into(), Json::Array(rows));
    write_json(
        &results.join(format!(
            "baseline{}.json",
            if opt.seed == DEFAULT_SEED { String::new() } else { format!("-seed{}", opt.seed) }
        )),
        &Json::Object(baseline),
    )?;
    let mut history = std::fs::read_to_string(results.join("history.jsonl")).unwrap_or_default();
    for set in &sets {
        let mut line = serde_json::Map::new();
        meta(&mut line, set.storage);
        line.insert("end_to_end".into(), set_json(set));
        history.push_str(&serde_json::to_string(&Json::Object(line)).map_err(|e| e.to_string())?);
        history.push('\n');
    }
    std::fs::write(results.join("history.jsonl"), history).map_err(|e| format!("history.jsonl: {e}"))?;
    if worst.is_empty() {
        Ok(())
    } else {
        Err(format!("two sets of the same commit disagree: {}", worst.join("; ")))
    }
}

/// `spread [--seed n]`: each workload ten times, each time on another
/// seed, and for every end-to-end metric the distance between the first
/// and third quartile as a share of the median, against the metric's
/// bound. This is the steadiness rule a benchmark change is accepted by;
/// a spread above a third of the bound is flagged, one above the bound
/// fails.
pub fn spread(args: &[String]) -> Result<(), String> {
    const RUNS: u64 = 10;
    let opt = Options::parse(args, false)?;
    let mut over = Vec::new();
    for workload in workloads() {
        let results =
            (0..RUNS).map(|r| child(workload, opt.seed + r, &opt, false, None)).collect::<Result<Vec<_>, _>>()?;
        for spec in &END_TO_END {
            let values: Vec<f64> = results.iter().filter_map(|r| value_of(r, spec.name)).collect();
            let (q1, q3) = quartiles_exclusive(&values);
            let mid = median(&values).expect("runs");
            let share = (q3 - q1) / mid;
            let verdict = if spec.name == "setup_s" {
                "exempt"
            } else if share > spec.bound {
                "FAIL"
            } else if share > spec.bound / 3.0 {
                "wide"
            } else {
                "ok"
            };
            println!(
                "spread {:<16} {:<16} median {:>12.4} {:<6} iqr/median {:>6.2}% bound {:>5.1}% {verdict}",
                workload,
                spec.name,
                mid,
                spec.unit,
                share * 100.0,
                spec.bound * 100.0
            );
            if verdict == "FAIL" {
                over.push(format!("{workload}/{}", spec.name));
            }
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("spread above the bound: {}", over.join(", ")))
    }
}
