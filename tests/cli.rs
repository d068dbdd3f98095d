//! Black-box tests of the `steiner-cli` binary: every subcommand driven
//! end-to-end through a real process, including the interactive REPL fed
//! over stdin.

use std::io::Write;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_steiner-cli"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "steiner-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn generate_graph(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("g.bin");
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "CTS",
            "--out",
            path.to_str().unwrap(),
            "--tiny",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn generate_and_stats_roundtrip() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let out = cli()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices      512"), "{text}");
    assert!(text.contains("components"), "{text}");
}

#[test]
fn solve_reports_tree_and_phases() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let dot = dir.join("tree.dot");
    let out = cli()
        .args([
            "solve",
            "--graph",
            graph.to_str().unwrap(),
            "--select",
            "8",
            "--ranks",
            "2",
            "--improve",
            "5",
            "--dot",
            dot.to_str().unwrap(),
            "--out",
            dir.join("tree.txt").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total distance"), "{text}");
    // Each phase line carries one wait per rank.
    let voronoi = (text.lines())
        .find(|l| l.trim_start().starts_with("voronoi"))
        .unwrap_or_else(|| panic!("no voronoi line: {text}"));
    let waits = voronoi.split("wait ms [").nth(1).expect("wait column");
    let waits: Vec<f64> = (waits.trim_end_matches(']').split_whitespace())
        .map(|w| w.parse().expect("wait in ms"))
        .collect();
    assert_eq!(waits.len(), 2, "{voronoi}");
    let dot_text = std::fs::read_to_string(&dot).expect("dot written");
    assert!(dot_text.starts_with("graph steiner_tree"));
    let tree_text = std::fs::read_to_string(dir.join("tree.txt")).expect("tree written");
    let parsed = stgraph::SteinerTree::from_text(&tree_text).expect("parseable");
    assert!(parsed.num_edges() > 0);
}

#[test]
fn compare_lists_all_algorithms() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let out = cli()
        .args([
            "compare",
            "--graph",
            graph.to_str().unwrap(),
            "--select",
            "6",
            "--ranks",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for algo in [
        "takahashi",
        "kmb",
        "www",
        "mehlhorn",
        "distributed",
        "exact",
    ] {
        assert!(text.contains(algo), "missing {algo} in:\n{text}");
    }
}

#[test]
fn repl_executes_scripted_session() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let mut child = cli()
        .args(["repl", "--graph", graph.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"add 1\nadd 100\ntree\nbogus\nseeds\nremove 100\nquit\n")
        .expect("write script");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("add 1: 1 seeds"), "{text}");
    assert!(text.contains("tree: distance"), "{text}");
    assert!(text.contains("error: unknown command"), "{text}");
    assert!(text.contains("[1, 100]"), "{text}");
}

/// Feeds `script` to a REPL over `graph` and returns its stdout; the
/// REPL must exit cleanly.
fn run_repl(graph: &std::path::Path, script: &str) -> String {
    let mut child = cli()
        .args(["repl", "--graph", graph.to_str().unwrap(), "--ranks", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("wait");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The number after `key` on the first line of `text` that contains it.
fn number_after(text: &str, key: &str) -> u64 {
    let rest = &text[text
        .find(key)
        .unwrap_or_else(|| panic!("no {key:?} in:\n{text}"))
        + key.len()..];
    rest.split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no number after {key:?} in:\n{text}"))
}

#[test]
fn repl_tree_matches_batch_solve_after_edits() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let text = run_repl(
        &graph,
        "add 1\nadd 100\nadd 7\nadd 300\nremove 7\nadd 250\nremove 100\nremove 42\n\
         add 100\ntree\nquit\n",
    );
    assert!(text.contains("remove 42: 3 seeds"), "{text}");
    let out = cli()
        .args([
            "solve",
            "--graph",
            graph.to_str().unwrap(),
            "--seeds",
            "1,100,250,300",
            "--ranks",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batch = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        number_after(&text, "tree: distance"),
        number_after(&batch, "total distance"),
        "repl:\n{text}\nbatch:\n{batch}"
    );
}

#[test]
fn repl_rejects_out_of_range_add_and_keeps_going() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    // The CTS tiny analogue has 512 vertices, so 512 is one past the end.
    let text = run_repl(&graph, "add 512\nadd 3\nseeds\nquit\n");
    let err = stgraph::error::SteinerError::SeedOutOfRange(512);
    assert!(text.contains(&format!("error: {err}")), "{text}");
    assert!(text.contains("add 3: 1 seeds"), "{text}");
    assert!(text.contains("[3]"), "{text}");
}

#[test]
fn repl_tree_with_one_seed_is_a_structured_error() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let text = run_repl(&graph, "add 5\ntree\nseeds\nquit\n");
    let err = stgraph::error::SteinerError::TooFewSeeds { got: 1 };
    assert!(text.contains(&format!("error: {err}")), "{text}");
    assert!(text.contains("[5]"), "{text}");
}

#[test]
fn crash_flag_recovers_and_reports_restores() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let report = dir.join("crash_report.json");
    let out = cli()
        .args([
            "solve",
            "--graph",
            graph.to_str().unwrap(),
            "--select",
            "8",
            "--ranks",
            "4",
            "--crash",
            "crash_rank=1,crash_after_visits=3,crash_phase=0,seed=7",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recovery"), "{text}");
    assert!(text.contains("total distance"), "{text}");
    let doc = stgraph::json::parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report parses");
    let recovery = doc.get("recovery").expect("recovery section");
    assert_eq!(
        recovery.get("crashes_injected").and_then(|v| v.as_u64()),
        Some(1),
        "{doc}"
    );
    assert!(
        recovery.get("restores").and_then(|v| v.as_u64()).unwrap() >= 1,
        "{doc}"
    );
}

#[test]
fn crash_flag_without_recovery_fails_structured() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let out = cli()
        .args([
            "solve",
            "--graph",
            graph.to_str().unwrap(),
            "--select",
            "8",
            "--ranks",
            "2",
            "--crash",
            "crash_rank=1,crash_at_sync=2,seed=7",
            "--no-recover",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unrecoverable"), "{err}");
}

#[test]
fn deadline_zero_fails_with_deadline_error() {
    let dir = tempdir();
    let graph = generate_graph(&dir);
    let out = cli()
        .args([
            "solve",
            "--graph",
            graph.to_str().unwrap(),
            "--select",
            "8",
            "--ranks",
            "2",
            "--deadline",
            "0",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deadline"), "{err}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = cli().args(["solve"]).output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");

    let out = cli().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
}
