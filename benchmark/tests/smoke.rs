//! Every workload at `--scale smoke`, through the binary the driver runs:
//! the run succeeds and its answers check out, the names it emits are
//! exactly the names `BENCHMARK.json` lists, exact metrics repeat, and the
//! seed reaches the generated inputs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use natix::Json;
use natix_benchmark::spec;

const EXE: &str = env!("CARGO_BIN_EXE_natix-benchmark");

/// Tests run side by side: each gets an `--out` directory of its own.
fn out_dir(test: &str) -> PathBuf {
    natix_benchmark::inputs::out_dir().join(test)
}

/// One smoke run: the result object and the `info:` object.
fn run(out: &Path, workload: &str, seed: u64, trace: bool) -> (Json, Json) {
    let output = Command::new(EXE)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--scale",
            "smoke",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("start natix-benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("result line is JSON");
    let info = lines
        .find_map(|l| l.strip_prefix("info: "))
        .map(|l| Json::parse(l).expect("info line is JSON"))
        .expect("an info line");
    (result, info)
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no metric `{name}`"))
}

fn names_of(list: Option<&Json>) -> BTreeSet<String> {
    match list {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| match m.get("name") {
                Some(Json::Str(name)) => name.clone(),
                _ => panic!("entry without a name"),
            })
            .collect(),
        _ => panic!("not a list"),
    }
}

fn emitted(result: &Json) -> BTreeSet<String> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(name, _)| name.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

#[test]
fn benchmark_json_is_the_spec() {
    assert_eq!(
        benchmark_json(),
        spec::benchmark_json(),
        "regenerate with `natix-benchmark spec`"
    );
}

#[test]
fn every_workload_runs_and_emits_exactly_the_listed_names() {
    let out = out_dir("smoke-names");
    let listed = benchmark_json();
    let workloads = names_of(listed.get("workloads"));
    assert_eq!(workloads, spec::WORKLOADS.iter().map(|w| w.0.to_owned()).collect());
    let well_formed = |name: &String| {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    assert!(workloads.iter().all(well_formed));
    for workload in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (result, _) = run(&out, workload, 42, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload} trace {trace}");
            assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_num) >= Some(5.0), "{workload}");
            let names = emitted(&result);
            assert!(names.iter().all(well_formed));
            assert_eq!(names, names_of(listed.get(key)), "{workload}: {key}");
            if !trace {
                for name in &names {
                    assert!(metric(&result, name) > 0.0, "{workload}: {name} is never 0");
                }
            }
        }
        let spans = out.join(format!("trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote its span file");
        assert!(text.lines().count() > 5 && text.lines().all(|l| Json::parse(l).is_ok()));
    }
}

#[test]
fn exact_metrics_repeat_and_the_seed_reaches_the_inputs() {
    const EXACT: [&str; 9] = [
        "compiler.plan_ops",
        "compiler.rewrites_fired",
        "nqe.tuples_per_op",
        "xmlstore.nav_calls_per_op",
        "xmlstore.value_calls_per_op",
        "xmlstore.name_calls_per_op",
        "xmlstore.order_calls_per_op",
        "xmlstore.probe_calls_per_op",
        "store_bytes_per_xml_byte",
    ];
    let out = out_dir("smoke-exact");
    for workload in ["fig10_arena", "fig5_tree", "fig10_disk", "compile_cold"] {
        let (first, first_info) = run(&out, workload, 7, true);
        let (second, _) = run(&out, workload, 7, true);
        for name in EXACT.iter().chain(&["alloc.count_per_op"]) {
            assert_eq!(metric(&first, name), metric(&second, name), "{workload}: {name}");
        }
        if workload != "compile_cold" {
            assert!(metric(&first, "xmlstore.nav_calls_per_op") > 0.0);
            let (_, other_info) = run(&out, workload, 8, true);
            assert_ne!(
                first_info.get("doc0_xml_bytes"),
                other_info.get("doc0_xml_bytes"),
                "{workload}: another seed, another document"
            );
        }
    }
    let (disk, _) = run(&out, "fig10_disk", 7, true);
    assert!(metric(&disk, "store_bytes_per_xml_byte") > 1.0);
    assert!(metric(&disk, "xmlstore.buffer.evictions_per_op") > 0.0);
    assert!(metric(&disk, "xmlstore.probe_calls_per_op") > 0.0);
}
