//! `steiner_bench`: end-to-end and per-layer benchmark of the distributed
//! Steiner solver, with sequential Mehlhorn as the baseline.
//!
//! ```text
//! cargo run --release --manifest-path steiner_bench/Cargo.toml -- \
//!     --workload <web-async|web-1rank|cite-manyseeds|query-stream> \
//!     [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One invocation runs one workload in its own process. It generates the
//! workload's inputs from `--seed`, measures for `--seconds`, checks every
//! tree it gets back, and prints each metric as `name value unit`. With
//! `--trace 0` those are the end-to-end metrics of an untraced pass; with
//! `--trace 1` the per-layer metrics, which add a traced pass. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The same document, with sample
//! counts and spreads, and a Chrome trace of the benchmark's own spans are
//! written under `.bench_out/`. The exit code is 1 when any operation
//! failed, 2 on bad arguments.

mod runner;
mod spans;
mod stats;
mod workload;

use runner::RunResult;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stgraph::json::Json;
use workload::Workload;

/// Temporary graph files and result documents go here, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: steiner_bench --workload <web-async|web-1rank|cite-manyseeds|query-stream> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = bench::EXPERIMENT_SEED;
    let mut seconds = Duration::from_secs(20);
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics` (`{name: {value, unit}}`).
fn summary(run: &RunResult) -> Json {
    let mut metrics = Json::obj();
    for m in &run.metrics {
        metrics.insert(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    Json::obj()
        .with("correct", run.failed == 0)
        .with("attempted", run.attempted)
        .with("failed", run.failed)
        .with("metrics", metrics)
}

fn write_artifacts(args: &Args, run: &RunResult, elapsed_s: f64) -> std::io::Result<()> {
    let stem = format!(
        "steiner_bench-{}-trace{}",
        args.workload.name(),
        u8::from(args.trace)
    );
    let notes = run
        .metrics
        .iter()
        .fold(Json::obj(), |notes, m| notes.with(m.name, m.note.as_str()));
    let doc = summary(run)
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds.as_secs_f64())
        .with("trace", args.trace)
        .with("elapsed_s", elapsed_s)
        .with(
            "first_failure",
            run.first_failure.as_deref().map_or(Json::Null, Json::from),
        )
        .with("notes", notes);
    let dir = Path::new(OUT_DIR);
    std::fs::write(dir.join(format!("{stem}.json")), doc.to_pretty())?;
    std::fs::write(
        dir.join(format!("{stem}-spans.json")),
        run.spans.to_chrome_trace().to_string(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("steiner_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let spec = args.workload.spec();
    let run = match runner::run(
        &spec,
        args.seed,
        args.seconds,
        args.trace,
        Path::new(OUT_DIR),
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("steiner_bench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let elapsed_s = started.elapsed().as_secs_f64();
    for m in &run.metrics {
        if m.note.is_empty() {
            println!("{} {} {}", m.name, m.value, m.unit);
        } else {
            println!("{} {} {} ({})", m.name, m.value, m.unit, m.note);
        }
    }
    println!("ops attempted {} failed {}", run.attempted, run.failed);
    println!("workload {} elapsed {elapsed_s:.2} s", args.workload.name());
    if let Err(e) = write_artifacts(&args, &run, elapsed_s) {
        eprintln!("steiner_bench: writing results under {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", summary(&run));
    match &run.first_failure {
        Some(failure) => {
            eprintln!("steiner_bench: first failing operation: {failure}");
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::json::parse;
    use workload::tests::tiny;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
    fn declared_metrics(doc: &Json, section: &str) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = doc
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        out.sort();
        out
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let doc = declared();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            for resident in [false, true] {
                let dir = Path::new(OUT_DIR)
                    .join(format!("test-{}-{trace}-{resident}", std::process::id()));
                let run = runner::run(&tiny(resident), 3, Duration::from_millis(50), trace, &dir)
                    .expect("tiny run succeeds");
                std::fs::remove_dir_all(&dir).ok();
                assert_eq!(run.failed, 0, "{:?}", run.first_failure);
                assert!(run.attempted >= 5);
                let mut printed: Vec<(String, String)> = run
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert!(printed.iter().all(|(name, _)| valid_name(name)));
                assert!(run.metrics.iter().all(|m| m.value.is_finite()));
                printed.sort();
                assert_eq!(printed, declared_metrics(&doc, section), "{section}");
            }
        }
    }

    #[test]
    fn workloads_are_the_declared_ones() {
        let doc = declared();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn parses_the_contract_command_line() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args =
            parse_args(argv("--workload query-stream --seed 7 --seconds 12 --trace 1").into_iter())
                .unwrap();
        assert_eq!(args.workload, Workload::QueryStream);
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Duration::from_secs(12), true)
        );
        let defaults = parse_args(argv("--workload web-async").into_iter()).unwrap();
        assert_eq!(defaults.seed, bench::EXPERIMENT_SEED);
        assert!(!defaults.trace);
        for bad in [
            "",
            "--workload web",
            "--workload web-async --trace 2",
            "--workload web-async --seconds 0",
            "--workload web-async --seed",
            "--workload web-async --fast 1",
        ] {
            assert!(parse_args(argv(bad).into_iter()).is_err(), "{bad:?}");
        }
    }
}
