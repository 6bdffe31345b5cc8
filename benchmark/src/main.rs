//! `natix-benchmark`: with `--workload` one run of one workload (what the
//! driver calls; the last line of stdout is the result object), without it
//! the whole suite; `aa` and `spec` are subcommands. See `README.md`.

use std::process::ExitCode;

use natix::Json;
use natix_benchmark::alloc::CountingAlloc;
use natix_benchmark::inputs::{out_dir, Scale};
use natix_benchmark::report::{self, SuiteConfig};
use natix_benchmark::run::{Config, Outcome};
use natix_benchmark::spec::{self, per_layer, END_TO_END, RUN_SECONDS, WORKLOADS};
use natix_benchmark::workloads;

/// The counting allocator sits behind this binary only.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: natix-benchmark [aa|spec] [--workload <name>] [--seed <n>] \
[--seconds <n>] [--trace <0|1>] [--scale smoke|full] [--out <dir>]";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        out: out_dir(),
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let mut value = || words.next().ok_or(format!("{word} needs a value"));
        let bad = |v: &str| format!("{word}: bad value `{v}`");
        match word.as_str() {
            "aa" | "spec" => args.command = Some(word),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--out" => args.out = value()?.into(),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--scale" => args.scale = value().and_then(|v| Scale::parse(&v).ok_or(bad(&v)))?,
            _ => return Err(format!("unknown argument `{word}`")),
        }
    }
    Ok(args)
}

/// Print one run: every metric by name with its unit, the failures, the
/// context line, and last the result object the driver reads.
fn print_run(cfg: &Config, outcome: &Outcome) {
    let names: Vec<(String, &str)> = if cfg.trace {
        per_layer().into_iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0.to_owned(), m.1)).collect()
    };
    for (name, _) in &outcome.metrics {
        assert!(names.iter().any(|(n, _)| n == name), "`{name}` is not in the benchmark's spec");
    }
    println!(
        "workload {} seed {} scale {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.scale.name(),
        cfg.seconds,
        cfg.trace as u8
    );
    let mut metrics = Vec::new();
    for (name, unit) in names {
        // A per-layer metric a workload does not exercise reads 0.
        let value = outcome.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        assert!(cfg.trace || value > 0.0, "end-to-end metric `{name}` was not measured");
        println!("  {name:<46} {value:>16.4} {unit}");
        let fields = vec![
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.to_owned())),
        ];
        metrics.push((name, Json::obj(fields)));
    }
    for failure in &outcome.check.failures {
        println!("  FAILED {failure}");
    }
    let correct = outcome.check.failed == 0 && outcome.check.failures.is_empty();
    let mut info = outcome.info.clone();
    let failures = outcome.check.failures.iter().map(|f| Json::Str(f.clone())).collect();
    info.push(("failures".to_owned(), Json::Arr(failures)));
    println!("info: {}", Json::Obj(info));
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.check.attempted as f64)),
        ("failed", Json::Num(outcome.check.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let suite = SuiteConfig {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        out: args.out.clone(),
    };
    let done = match (args.command.as_deref(), args.workload) {
        (Some("spec"), _) => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        (Some("aa"), _) => report::aa(&suite),
        (_, Some(workload)) => {
            let cfg = Config {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                scale: args.scale,
                out: args.out,
            };
            match workloads::run(&cfg) {
                Some(outcome) => {
                    print_run(&cfg, &outcome);
                    Ok(true)
                }
                None => Err(format!(
                    "unknown workload `{}` (one of: {})",
                    cfg.workload,
                    WORKLOADS.map(|w| w.0).join(", ")
                )),
            }
        }
        (_, None) => report::suite(&suite, "run.json").map(|run| run.correct),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
