//! The harness end to end at `--quick` scale (20k sequences, the graph
//! preset ÷2048, 2 measured rounds; about ten seconds in a release build):
//! a full run must report every named metric, and a driver run must print
//! the contract's result object. Both really build fixtures, spawn `papar`,
//! start daemons and check outputs against the reference partitioners.

use papar_benchmark::fixture::Workload;
use papar_benchmark::json::Json;
use papar_benchmark::metrics::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::Command;

const HARNESS: &str = env!("CARGO_BIN_EXE_papar-benchmark");
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// The `papar` binary beside the harness. `benchmark/run.sh` builds both;
/// under a bare `cargo test` only the harness exists yet, so build it the
/// same way, into the same profile directory.
fn papar() -> PathBuf {
    let profile_dir = Path::new(HARNESS)
        .parent()
        .expect("harness has a directory");
    let papar = profile_dir.join("papar");
    if !papar.is_file() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut build = Command::new(cargo);
        build
            .args(["build", "--offline", "-p", "papar-cli"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if profile_dir.ends_with("release") {
            build.arg("--release");
        }
        assert!(
            build.status().expect("run cargo").success(),
            "building papar failed"
        );
    }
    papar
}

fn harness(args: &[&str]) -> std::process::Output {
    let out = Command::new(HARNESS)
        .args(["--papar", papar().to_str().expect("utf-8 path")])
        .args(args)
        .current_dir(REPO_ROOT)
        .output()
        .expect("run the harness");
    assert!(
        out.status.success(),
        "harness {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn metric(section: &Json, name: &str, unit: &str) -> f64 {
    let m = section
        .get(name)
        .unwrap_or_else(|| panic!("metric '{name}' is missing"));
    assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
    let v = m
        .get("value")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric '{name}' has no finite value"));
    assert!(v.is_finite(), "{name} = {v}");
    v
}

/// One test, two stages: both stages write `benchmark/out/trace.json`, so
/// they must not run side by side.
#[test]
fn quick_runs_report_every_metric_and_no_failures() {
    driver_runs_print_the_contract_result_object_last();
    full_run_reports_every_metric();
}

fn full_run_reports_every_metric() {
    let result = Path::new(REPO_ROOT).join("benchmark/out/smoke-result.json");
    let out = harness(&["--quick", "--seed", "11", "--out", result.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);

    let doc = Json::parse(&std::fs::read_to_string(&result).expect("result file")).expect("JSON");
    assert_eq!(
        doc.get("claim"),
        Some(&Json::Null),
        "the harness claims no gain"
    );
    assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
    assert!(doc.get("host_cores").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(11.0));

    for w in Workload::ALL {
        let section = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .unwrap_or_else(|| panic!("no section for {}", w.name()));
        assert_eq!(
            section.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            w.name()
        );
        assert_eq!(
            section.get("failed_share").and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(section.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

        let e2e = section.get("end_to_end").expect("end_to_end");
        for m in END_TO_END {
            let v = metric(e2e, m.name, m.unit);
            assert!(v > 0.0, "{}: {} must never be 0", w.name(), m.name);
            // Printed by name with its unit, too.
            assert!(stdout.contains(m.name), "{} not printed", m.name);
        }
        let layers = section.get("per_layer").expect("per_layer");
        for m in PER_LAYER {
            metric(layers, m.name, m.unit);
            assert!(stdout.contains(m.name), "{} not printed", m.name);
        }

        // Warm requests are served from both caches, always.
        assert_eq!(metric(layers, "serve.plan_hit_ratio", "ratio"), 1.0);
        assert_eq!(metric(layers, "serve.data_hit_ratio", "ratio"), 1.0);
        // The spans explain the job: at most 5% of it is in no child span.
        let unexplained = metric(layers, "job.unexplained_share", "ratio");
        assert!(
            unexplained <= 0.05,
            "{}: {unexplained} of the job is unexplained",
            w.name()
        );
        // The two passes count the same shuffle.
        assert_eq!(
            metric(layers, "mr.shuffled_bytes", "bytes"),
            metric(e2e, "shuffled_bytes", "bytes"),
            "{}",
            w.name()
        );
        assert!(metric(layers, "core.jobs", "count") >= 1.0);
    }

    // The trace loads: valid JSON, one `job` span per traced iteration, and
    // every other span names a parent.
    let trace = std::fs::read_to_string(Path::new(REPO_ROOT).join("benchmark/out/trace.json"))
        .expect("trace.json");
    let trace = Json::parse(&trace).expect("trace.json is valid JSON");
    let spans: Vec<&Json> = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let jobs = spans
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("job"))
        .count();
    assert!(jobs >= 4 * 3, "only {jobs} job spans");
    for e in &spans {
        let name = e.get("name").and_then(Json::as_str).unwrap();
        let parent = e.get("args").and_then(|a| a.get("parent")).unwrap();
        let top_level = name == "job" || name == "kernels";
        assert_eq!(*parent == Json::Null, top_level, "span '{name}'");
    }
    let _ = std::fs::remove_file(result);
}

fn driver_runs_print_the_contract_result_object_last() {
    for (trace, names) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
    ] {
        let out = harness(&[
            "--workload",
            "hybrid_oneshot",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        let doc = Json::parse(last).expect("the last line is one JSON object");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics.members().len(),
            names.len(),
            "exactly the manifest's metrics"
        );
        for (name, unit) in names {
            metric(metrics, name, unit);
        }
    }
}
