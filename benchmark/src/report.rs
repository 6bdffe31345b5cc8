//! The one command (`suite`: every workload, untraced then traced, each
//! in a process of its own) and `aa` (the untraced set twice on one
//! build, compared against the benchmark's own bounds).

use std::path::{Path, PathBuf};
use std::process::Command;

use natix::Json;

use crate::inputs::Scale;
use crate::spec::{per_layer, END_TO_END, WORKLOADS, WORKLOAD_END_TO_END};
use crate::stats::{median, quartile_spread};

/// Settings shared by every run of a suite.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--scale`.
    pub scale: Scale,
    /// `--out`: scratch files, span files and the reports.
    pub out: PathBuf,
}

/// One child run: the driver's result line plus the context line.
pub struct ChildRun {
    /// `correct` of the result line.
    pub correct: bool,
    /// `attempted` of the result line.
    pub attempted: f64,
    /// `failed` of the result line.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// The `info:` line (sizes, pass counts, failures).
    pub info: Json,
}

impl ChildRun {
    fn metric(&self, name: &str) -> f64 {
        self.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// Run one workload in a child process and parse what it printed.
pub fn child(cfg: &SuiteConfig, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
        .args([
            "--seconds",
            &cfg.seconds.to_string(),
            "--scale",
            cfg.scale.name(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            trace as u8,
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or_default())
        .map_err(|e| format!("{workload}: result line: {}", e.what))?;
    let info = lines
        .find_map(|l| l.strip_prefix("info: "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    let metrics = match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").and_then(Json::as_num).unwrap_or(0.0)))
            .collect(),
        _ => return Err(format!("{workload}: no metrics in the result line")),
    };
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        attempted: result.get("attempted").and_then(Json::as_num).unwrap_or(0.0),
        failed: result.get("failed").and_then(Json::as_num).unwrap_or(0.0),
        metrics,
        info,
    })
}

/// Where and how the numbers were taken.
pub fn host_json(cfg: &SuiteConfig) -> Json {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj(vec![
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        ("rustc", Json::Str(rustc)),
        ("profile", Json::Str(profile.to_owned())),
        ("page_size", Json::Num(xmlstore::page::PAGE_SIZE as f64)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("scale", Json::Str(cfg.scale.name().to_owned())),
        ("seconds", Json::Num(cfg.seconds)),
    ])
}

fn metrics_json(run: &ChildRun, names: impl Iterator<Item = (String, &'static str)>) -> Json {
    Json::Obj(
        names
            .map(|(name, unit)| {
                let value = Json::Num(run.metric(&name));
                (name, Json::obj(vec![("value", value), ("unit", Json::Str(unit.to_owned()))]))
            })
            .collect(),
    )
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// What [`suite`] hands back.
pub struct SuiteRun {
    /// Per workload, in `WORKLOADS` order: the untraced and the traced run.
    pub runs: Vec<(ChildRun, ChildRun)>,
    /// Every run, traced or not, got every answer right.
    pub correct: bool,
}

/// The whole benchmark once: every workload untraced, then traced.
/// Prints every metric by name with its unit and writes the report to
/// `<out>/<file>`.
pub fn suite(cfg: &SuiteConfig, file: &str) -> Result<SuiteRun, String> {
    let mut all_correct = true;
    let mut report = Vec::new();
    let mut runs = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("\n== {workload} — {why}");
        let untraced = child(cfg, workload, false)?;
        let traced = child(cfg, workload, true)?;
        for (name, unit, better, bound) in END_TO_END {
            println!(
                "  {name:<46} {:>16.4} {unit:<6} ({better} is better, bound {:.0} %)",
                untraced.metric(name),
                bound * 100.0
            );
        }
        for (name, unit, _) in per_layer() {
            println!("  {name:<46} {:>16.4} {unit}", traced.metric(&name));
        }
        for run in [&untraced, &traced] {
            println!("  attempted {} failed {} correct {}", run.attempted, run.failed, run.correct);
            all_correct &= run.correct;
        }
        report.push(Json::obj(vec![
            ("name", Json::Str(workload.to_owned())),
            ("correct", Json::Bool(untraced.correct && traced.correct)),
            ("attempted", Json::Num(untraced.attempted + traced.attempted)),
            ("failed", Json::Num(untraced.failed + traced.failed)),
            (
                "end_to_end",
                metrics_json(&untraced, END_TO_END.iter().map(|m| (m.0.to_owned(), m.1))),
            ),
            ("per_layer", metrics_json(&traced, per_layer().into_iter().map(|m| (m.0, m.1)))),
            ("untraced_run", untraced.info.clone()),
            ("traced_run", traced.info.clone()),
        ]));
        runs.push((untraced, traced));
    }
    let doc = Json::obj(vec![
        ("host", host_json(cfg)),
        ("workloads", Json::Arr(report)),
        ("claim", Json::Null),
    ]);
    write(&cfg.out.join(file), &doc)?;
    Ok(SuiteRun { runs, correct: all_correct })
}

/// Runs per side of [`aa`], as many as the driver makes.
pub const AA_RUNS: usize = 10;

/// One metric on one workload that [`aa`] holds to a bound.
struct Gate {
    workload: usize,
    metric: &'static str,
    unit: &'static str,
    bound: f64,
    /// Read from the `--trace 1` run (the workload-specific readings).
    traced: bool,
}

fn gates() -> Vec<Gate> {
    let mut gates = Vec::new();
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for &(metric, unit, _, bound) in &END_TO_END {
            gates.push(Gate { workload: w, metric, unit, bound, traced: false });
        }
        for &(metric, unit, _, bound, on) in &WORKLOAD_END_TO_END {
            if on.contains(workload) {
                gates.push(Gate { workload: w, metric, unit, bound, traced: true });
            }
        }
    }
    gates
}

/// `aa`: the set [`AA_RUNS`] times per side on this one build, sides and
/// workload order alternating; per metric and workload both medians, their
/// relative difference, each side's quartile spread and the bound. A
/// workload with a reading of its own (`WORKLOAD_END_TO_END`) makes its
/// traced run too. The first side-A pass is a full suite, written as
/// `baseline.json`. `Ok(false)` when a difference or (as the driver rules,
/// for every metric but `setup_s`) a spread exceeds its bound, or an op
/// failed.
pub fn aa(cfg: &SuiteConfig) -> Result<bool, String> {
    let gates = gates();
    let needs_trace = |w: usize| gates.iter().any(|g| g.workload == w && g.traced);
    // values[side][gate] = one value per run
    let mut values = vec![vec![Vec::new(); gates.len()]; 2];
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut record = |side: usize, w: usize, run: &ChildRun, traced: bool| {
        attempted += run.attempted;
        failed += run.failed;
        for (g, gate) in gates.iter().enumerate() {
            if gate.workload == w && gate.traced == traced {
                values[side][g].push(run.metric(gate.metric));
            }
        }
    };
    let SuiteRun { runs: first, correct: mut all_correct } = suite(cfg, "baseline.json")?;
    for (w, (untraced, traced)) in first.iter().enumerate() {
        record(0, w, untraced, false);
        record(0, w, traced, true);
    }
    // Side A has one pass already; the schedule alternates which side
    // goes first and which end of the workload list a pass starts from.
    // Pass r of either side runs on seed + r, as the driver gives every
    // run another seed.
    let mut schedule = vec![1];
    for r in 1..AA_RUNS {
        schedule.extend(if r % 2 == 1 { [1, 0] } else { [0, 1] });
    }
    let mut passes = [1, 0];
    for (k, side) in schedule.into_iter().enumerate() {
        let pass = SuiteConfig { seed: cfg.seed + passes[side], ..cfg.clone() };
        passes[side] += 1;
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if k % 2 == 0 {
            order.reverse();
        }
        for w in order {
            println!("aa: side {} seed {} — {}", ["A", "B"][side], pass.seed, WORKLOADS[w].0);
            for traced in [false, true] {
                if !traced || needs_trace(w) {
                    let run = child(&pass, WORKLOADS[w].0, traced)?;
                    all_correct &= run.correct;
                    record(side, w, &run, traced);
                }
            }
        }
    }
    let mut rows = Vec::new();
    let mut within = true;
    println!(
        "\n{:<14} {:<26} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "spread A", "spread B", "bound"
    );
    for (g, gate) in gates.iter().enumerate() {
        let workload = WORKLOADS[gate.workload].0;
        let (a, b) = (median(&values[0][g]), median(&values[1][g]));
        // A reading of 0 was not taken (a smoke-scale window too short
        // for it): the gate fails, and there is nothing to divide by.
        let measured = a > 0.0 && b > 0.0;
        let diff = if measured { (b - a) / a } else { 0.0 };
        let spreads = match measured {
            true => [0, 1].map(|side| quartile_spread(&values[side][g])),
            false => [0.0; 2],
        };
        let ok = measured
            && if gate.bound == 0.0 {
                // Repeats exactly: run r of either side has the same seed.
                values[0][g] == values[1][g]
            } else {
                let steady = gate.metric == "setup_s" || spreads.iter().all(|s| *s <= gate.bound);
                diff.abs() <= gate.bound && steady
            };
        within &= ok;
        println!(
            "{workload:<14} {:<26} {a:>14.4} {b:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}% {}",
            gate.metric,
            diff * 100.0,
            spreads[0] * 100.0,
            spreads[1] * 100.0,
            gate.bound * 100.0,
            if ok { "" } else { "EXCEEDED" }
        );
        rows.push(Json::obj(vec![
            ("workload", Json::Str(workload.to_owned())),
            ("metric", Json::Str(gate.metric.to_owned())),
            ("unit", Json::Str(gate.unit.to_owned())),
            ("a", Json::Num(a)),
            ("b", Json::Num(b)),
            ("relative_difference", Json::Num(diff)),
            ("spread_a", Json::Num(spreads[0])),
            ("spread_b", Json::Num(spreads[1])),
            ("bound", Json::Num(gate.bound)),
            ("within_bound", Json::Bool(ok)),
        ]));
    }
    println!("failed_share: {failed} of {attempted} ops (bound 0)");
    let doc = Json::obj(vec![
        ("host", host_json(cfg)),
        ("runs_per_side", Json::Num(AA_RUNS as f64)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("all_answers_correct", Json::Bool(all_correct)),
        ("all_within_bounds", Json::Bool(within)),
        ("rows", Json::Arr(rows)),
        ("claim", Json::Null),
    ]);
    write(&cfg.out.join("aa.json"), &doc)?;
    Ok(within && all_correct && failed == 0.0)
}
