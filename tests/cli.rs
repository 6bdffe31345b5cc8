//! CLI regression tests: error paths must render the typed error on
//! stderr and exit non-zero (they used to print and exit 0), and the
//! resource flags must parse and govern.

use std::io::Write;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_natix-cli"))
}

fn write_doc(name: &str, xml: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("natix-cli-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(xml.as_bytes()).unwrap();
    path
}

#[test]
fn successful_query_exits_zero() {
    let doc = write_doc("ok.xml", "<r><a><b/><b/></a></r>");
    let out = cli().arg(&doc).arg("count(/r/a/b)").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("number: 2"));
    std::fs::remove_file(&doc).ok();
}

#[test]
fn compile_error_exits_nonzero_with_typed_message() {
    let doc = write_doc("compile-err.xml", "<r/>");
    let out = cli().arg(&doc).arg("bogus()").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("bogus"), "{stderr}");
    std::fs::remove_file(&doc).ok();
}

/// `position()>=last()` buffers its context in Tmp^cs (`=` would run as a
/// tail window, which buffers nothing).
#[test]
fn memory_trip_exits_nonzero_with_typed_message() {
    let doc = write_doc("mem.xml", "<r><a><b/><b/><b/></a></r>");
    let out = cli()
        .arg(&doc)
        .args(["--max-mem", "64", "/r/a/b[position()>=last()]"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("memory budget exceeded"), "{stderr}");
    std::fs::remove_file(&doc).ok();
}

#[test]
fn timeout_flag_parses_and_governs() {
    let doc = write_doc("timeout.xml", "<r><a><b/></a></r>");
    // A zero timeout is already expired when execution starts.
    let out = cli().arg(&doc).args(["--timeout", "0s", "/r/a/b"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline exceeded"), "{out:?}");
    // A generous timeout passes.
    let out = cli().arg(&doc).args(["--timeout", "30s", "/r/a/b"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_file(&doc).ok();
}

#[test]
fn one_failing_query_among_many_exits_nonzero() {
    let doc = write_doc("mixed.xml", "<r><a><b/></a></r>");
    let out = cli().arg(&doc).arg("count(/r/a/b)").arg("bogus()").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // The good query still ran.
    assert!(String::from_utf8_lossy(&out.stdout).contains("number: 1"));
    std::fs::remove_file(&doc).ok();
}

#[test]
fn bad_flag_value_exits_with_usage_error() {
    let out = cli().args(["--max-mem", "sixteen", "doc.xml", "/r"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = cli().args(["--timeout", "xyz", "doc.xml", "/r"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn analyze_mode_reports_trip_and_exits_nonzero() {
    let doc = write_doc("analyze.xml", "<r><a><b/><b/><b/></a></r>");
    let out = cli()
        .arg(&doc)
        .args(["--analyze", "--max-mem", "64", "/r/a/b[position()>=last()]"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stopped:"), "report names the stop reason: {stdout}");
    assert!(stdout.contains("resources:"), "{stdout}");
    std::fs::remove_file(&doc).ok();
}

// ---- failure-class exit codes (DESIGN.md §13) --------------------------

/// Build a valid `.natix` page file via `--persist` and return its path.
fn persist_store(name: &str, xml: &str) -> std::path::PathBuf {
    let doc = write_doc(&format!("{name}.xml"), xml);
    let store =
        std::env::temp_dir().join(format!("natix-cli-test-{}-{name}.natix", std::process::id()));
    let out = cli().arg(&doc).args(["--persist", store.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_file(&doc).ok();
    store
}

#[test]
fn xml_parse_error_exits_3() {
    let doc = write_doc("parse-err.xml", "<r><unclosed></r>");
    let out = cli().arg(&doc).arg("/r").output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"), "{out:?}");
    std::fs::remove_file(&doc).ok();
}

#[test]
fn duplicate_attribute_exits_3() {
    let doc = write_doc("dup-attr.xml", r#"<r><a id="1" id="2"/></r>"#);
    let out = cli().arg(&doc).arg("count(/r/a/@id)").output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("duplicate attribute `id`"),
        "{out:?}"
    );
    std::fs::remove_file(&doc).ok();
}

#[test]
fn depth_limit_exits_3_with_typed_error() {
    let mut xml = String::new();
    for _ in 0..64 {
        xml.push_str("<d>");
    }
    for _ in 0..64 {
        xml.push_str("</d>");
    }
    let doc = write_doc("deep.xml", &xml);
    let out = cli().arg(&doc).args(["--max-depth", "8", "/d"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nesting deeper"), "{out:?}");
    // Raising the cap makes the same document load.
    let out = cli().arg(&doc).args(["--max-depth", "128", "count(//d)"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_file(&doc).ok();
}

#[test]
fn missing_input_file_exits_4() {
    let out = cli().arg("/nonexistent/natix-cli-test-missing.xml").arg("/r").output().unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
}

#[test]
fn corrupt_store_exits_5_with_page_coordinates() {
    let store = persist_store("corrupt5", "<r><a>payload</a><a>text</a></r>");
    // Flip one byte in the node region (beyond the header page) — the
    // page checksum catches it at open.
    let mut bytes = std::fs::read(&store).unwrap();
    let off = 2 * 8192 + 100;
    assert!(bytes.len() > off, "store should span several pages");
    bytes[off] ^= 0xFF;
    std::fs::write(&store, &bytes).unwrap();
    let out = cli().arg(&store).arg("count(//a)").output().unwrap();
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("page"), "diagnostic names the page: {stderr}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn truncated_store_exits_5() {
    let store = persist_store("truncated", "<r><a>x</a></r>");
    let bytes = std::fs::read(&store).unwrap();
    std::fs::write(&store, &bytes[..bytes.len() / 2 - 7]).unwrap();
    let out = cli().arg(&store).arg("/r").output().unwrap();
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn verify_store_reports_ok_and_detects_damage() {
    let store = persist_store("verify", "<r><a k='v'>text</a></r>");
    let out = cli().arg(&store).arg("--verify-store").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "{stdout}");
    assert!(stdout.contains("page(s)"), "{stdout}");
    // Index regions are verified and counted: 5 nodes in the structural
    // index, 2 content keys (@k='v', a→'text') with one posting each.
    assert!(stdout.contains("5 index entr(ies)"), "{stdout}");
    assert!(stdout.contains("2 content key(s)"), "{stdout}");
    assert!(stdout.contains("2 posting(s)"), "{stdout}");
    // Damage the file: verification must fail with the corrupt exit code.
    let mut bytes = std::fs::read(&store).unwrap();
    let last = bytes.len() - 10;
    bytes[last] ^= 0x01;
    std::fs::write(&store, &bytes).unwrap();
    let out = cli().arg(&store).arg("--verify-store").output().unwrap();
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn verify_store_without_path_is_usage_error() {
    let out = cli().arg("--verify-store").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// `--explain` prints the plan `--analyze` would run: under
/// `--cost-based` on an indexed document that is the probe plan.
#[test]
fn cost_based_explain_shows_the_probe_plan() {
    let out = cli()
        .args(["--generate", "dblp:2000", "--cost-based", "--explain"])
        .arg("/dblp/article[author='Guido Moerkotte']/title")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let plan = String::from_utf8_lossy(&out.stdout);
    assert!(plan.contains("probe=author='Guido Moerkotte'"), "{plan}");
}
