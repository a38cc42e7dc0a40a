//! The repository's standing benchmark: file-in → partitions-on-disk,
//! one-shot and served, with a per-layer traced pass. See
//! `benchmark/README.md`; run through `benchmark/run.sh`, which builds
//! `papar` and this harness first.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one timed run (the driver's form)
//! run.sh [--seed N] [--out FILE] [--quick]               full run: all workloads, both passes
//! run.sh compare A.json B.json                           judge B against baseline A
//! run.sh manifest                                        print BENCHMARK.json
//! ```

use papar_benchmark::e2e::{JobSample, Runner};
use papar_benchmark::fixture::{self, Input, Scale, Workload, NODES, PARTITIONS, THREADS};
use papar_benchmark::json::Json;
use papar_benchmark::metrics::{self, END_TO_END, PER_LAYER};
use papar_benchmark::report::{driver_line, Measured, WorkloadResult};
use papar_benchmark::span::{self, Recorder};
use papar_benchmark::{compare, traced};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where the harness writes: fixtures and job outputs under a per-process
/// directory that is removed at the end, `trace.json` and the default
/// result file beside it.
const OUT_DIR: &str = "benchmark/out";

/// Set-ups per driver run and per full run; `setup_s` is their median.
const DRIVER_SETUPS: usize = 7;
const FULL_RUN_SETUPS: usize = 3;
/// Untimed jobs before a driver run measures (the first is verified
/// against the reference partitioner; for the served workload it is also
/// the cold request).
const DRIVER_WARMUP_JOBS: usize = 2;
/// A driver run measures at least this many jobs, however slow they are.
const DRIVER_MIN_JOBS: usize = 5;

struct Options {
    papar: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_options(mut argv: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        papar: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: Path::new(OUT_DIR).join("result.json"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--papar" => o.papar = value()?.into(),
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = value()?.into(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.papar.as_os_str().is_empty() {
        // run.sh builds `papar` into the same directory as this harness.
        o.papar = std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.join("papar")))
            .filter(|p| p.is_file())
            .ok_or(
                "no `papar` binary beside the harness; build with benchmark/run.sh or pass --papar",
            )?;
    }
    Ok(o)
}

/// The per-process scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn make_input(blast: bool, scale: &Scale, seed: u64, dir: &Path) -> Result<Input, String> {
    if blast {
        Input::blast(scale, seed, dir)
    } else {
        Input::hybrid(scale, seed, dir)
    }
}

/// Generate an input `repeats` times into `dir` and keep the last; returns
/// the seconds each took. A single set-up is an outlier one time in three
/// on the reference host (it writes 115 MB through a slow disk's page
/// cache), so `setup_s` is always a median of several. The previous copy is
/// deleted first, off the clock: left in place its dirty pages push the
/// next write into the kernel's write-back throttle.
fn timed_input(
    blast: bool,
    scale: &Scale,
    seed: u64,
    dir: &Path,
    repeats: usize,
) -> Result<(Input, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        drop(kept.take());
        let _ = std::fs::remove_dir_all(dir);
        let t0 = Instant::now();
        kept = Some(make_input(blast, scale, seed, dir)?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.ok_or("no set-up was asked for")?, secs))
}

/// `setup_s` of a workload: its input's set-ups, each plus the once-timed
/// start of its runner (the daemon, for the served workload).
fn setup_metric(input_secs: &[f64], runner_start_s: f64) -> Measured {
    let secs: Vec<f64> = input_secs.iter().map(|s| s + runner_start_s).collect();
    eprintln!("set-ups (s): {secs:.3?}");
    Measured::median_of(&secs)
}

fn write_trace(rec: &Recorder) -> Result<PathBuf, String> {
    let path = Path::new(OUT_DIR).join("trace.json");
    std::fs::write(&path, span::to_chrome_json(rec.spans()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// One timed run of one workload, in the form the benchmark driver calls:
/// prints the result object as the last line of stdout.
fn driver(o: &Options, workload: Workload) -> Result<(), String> {
    let scale = if o.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    let scratch = Scratch::new()?;
    let dir = scratch.0.join(workload.name());
    let mut result = WorkloadResult::default();

    if o.trace {
        let input = make_input(workload.is_blast(), &scale, o.seed, &dir)?;
        let mut rec = Recorder::default();
        let outcome = traced::traced_pass(workload, &input, &scale, &o.papar, &dir, &mut rec)?;
        let trace = write_trace(&rec)?;
        eprintln!("trace: {}", trace.display());
        result.per_layer = outcome.metrics;
        result.attempted = outcome.attempted;
        result.failures = outcome.failures;
    } else {
        let (input, input_secs) = timed_input(
            workload.is_blast(),
            &scale,
            o.seed,
            &dir.join("input"),
            DRIVER_SETUPS,
        )?;
        let t0 = Instant::now();
        let runner = Runner::start(workload, &o.papar, &dir)?;
        let setup = setup_metric(&input_secs, t0.elapsed().as_secs_f64());

        let run = |result: &mut WorkloadResult| {
            let sample = runner.job(&input);
            result.attempted += 1;
            if let Some(why) = &sample.failure {
                result.failures.push(why.clone());
            }
            sample
        };
        for _ in 0..DRIVER_WARMUP_JOBS {
            run(&mut result);
        }
        let started = Instant::now();
        let mut samples: Vec<JobSample> = Vec::new();
        while started.elapsed().as_secs_f64() < o.seconds || samples.len() < DRIVER_MIN_JOBS {
            samples.push(run(&mut result));
        }
        runner.finish()?;
        let walls: Vec<String> = samples.iter().map(|s| format!("{:.3}", s.wall_s)).collect();
        eprintln!("job walls (s): {}", walls.join(" "));
        result.end_to_end_from(&samples, setup, input.record_count)?;
    }

    eprint!("{}", result.render(workload));
    // Exactly the manifest's metrics for this kind of run, each measured.
    let measured: Vec<(&'static str, &'static str, Option<f64>)> = if o.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, result.per_layer.get(m.name).copied()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    result.end_to_end.get(m.name).map(|v| v.value),
                )
            })
            .collect()
    };
    let metrics = measured
        .into_iter()
        .map(|(name, unit, value)| match value {
            Some(v) if v.is_finite() => Ok((name.to_string(), v, unit)),
            _ => Err(format!("metric '{name}' was not measured")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!(
        "{}",
        driver_line(result.attempted, result.failed(), metrics)
    );
    Ok(())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The full run: every workload, the interleaved end-to-end pass, then the
/// traced pass; prints every metric and writes the result file.
fn full(o: &Options) -> Result<bool, String> {
    let scale = if o.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    let scratch = Scratch::new()?;
    let started = Instant::now();

    // Set-up. The blast input is shared by three workloads and counted in
    // the set-up time of each.
    let (blast, blast_secs) = timed_input(
        true,
        &scale,
        o.seed,
        &scratch.0.join("blast"),
        FULL_RUN_SETUPS,
    )?;
    let (hybrid, hybrid_secs) = timed_input(
        false,
        &scale,
        o.seed,
        &scratch.0.join("hybrid"),
        FULL_RUN_SETUPS,
    )?;
    let input_of = |w: Workload| if w.is_blast() { &blast } else { &hybrid };

    let mut runners = Vec::new();
    let mut setups = Vec::new();
    for w in Workload::ALL {
        let t0 = Instant::now();
        runners.push(Runner::start(w, &o.papar, &scratch.0.join(w.name()))?);
        let input_secs = if w.is_blast() {
            &blast_secs
        } else {
            &hybrid_secs
        };
        setups.push(setup_metric(input_secs, t0.elapsed().as_secs_f64()));
    }
    eprintln!(
        "set-up done in {:.1} s ({} sequences / {} B, {} edges / {} B)",
        started.elapsed().as_secs_f64(),
        blast.record_count,
        blast.data_bytes,
        hybrid.record_count,
        hybrid.data_bytes
    );

    // End-to-end pass: round-robin over the workloads, so a slow phase of
    // the shared host spreads over all of them instead of landing on one.
    let mut results: Vec<WorkloadResult> = Workload::ALL
        .iter()
        .map(|_| WorkloadResult::default())
        .collect();
    let mut samples: Vec<Vec<JobSample>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..scale.warmup_rounds + scale.rounds {
        for (i, runner) in runners.iter().enumerate() {
            let sample = runner.job(input_of(runner.workload));
            results[i].attempted += 1;
            if let Some(why) = &sample.failure {
                results[i].failures.push(why.clone());
            }
            if round >= scale.warmup_rounds {
                samples[i].push(sample);
            }
        }
    }
    for (i, runner) in runners.into_iter().enumerate() {
        let w = runner.workload;
        runner.finish()?;
        results[i].end_to_end_from(&samples[i], setups[i], input_of(w).record_count)?;
    }
    eprintln!(
        "end-to-end pass done at {:.1} s",
        started.elapsed().as_secs_f64()
    );

    // Traced pass, after the end-to-end pass: it makes this process large,
    // and a spawned job's peak RSS starts at its parent's.
    let mut rec = Recorder::default();
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let dir = scratch.0.join(format!("{}-traced", w.name()));
        let outcome = traced::traced_pass(w, input_of(w), &scale, &o.papar, &dir, &mut rec)?;
        results[i].per_layer = outcome.metrics;
        results[i].attempted += outcome.attempted;
        results[i].failures.extend(outcome.failures);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let trace = write_trace(&rec)?;
    let total_s = started.elapsed().as_secs_f64();

    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = git_rev();
    let mut all_good = true;
    for (w, r) in Workload::ALL.into_iter().zip(&results) {
        print!("{}", r.render(w));
        all_good &= r.failures.is_empty();
    }
    let doc = Json::obj([
        (
            "benchmark",
            Json::Str("papar file-in to partitions-on-disk".into()),
        ),
        // This harness is an instrument; it claims no gain.
        ("claim", Json::Null),
        ("git_rev", Json::Str(rev.clone())),
        ("seed", Json::Num(o.seed as f64)),
        ("quick", Json::Bool(scale.quick)),
        ("host_cores", Json::Num(host_cores as f64)),
        ("engine_threads", Json::Num(THREADS as f64)),
        ("nodes", Json::Num(NODES as f64)),
        ("num_partitions", Json::Num(PARTITIONS as f64)),
        ("warmup_rounds", Json::Num(scale.warmup_rounds as f64)),
        ("measured_rounds", Json::Num(scale.rounds as f64)),
        ("traced_iterations", Json::Num(scale.traced_iters as f64)),
        ("blast_sequences", Json::Num(blast.record_count as f64)),
        ("blast_file_bytes", Json::Num(blast.data_bytes as f64)),
        ("graph_edges", Json::Num(hybrid.record_count as f64)),
        ("graph_file_bytes", Json::Num(hybrid.data_bytes as f64)),
        ("total_s", Json::Num(total_s)),
        (
            "workloads",
            Json::obj(
                Workload::ALL
                    .into_iter()
                    .zip(&results)
                    .map(|(w, r)| (w.name(), r.to_json(w))),
            ),
        ),
    ]);
    if let Some(parent) = o.out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&o.out, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", o.out.display()))?;
    println!(
        "host_cores {} · seed {} · rev {} · {:.1} s · results {} · trace {}",
        host_cores,
        o.seed,
        rev,
        total_s,
        o.out.display(),
        trace.display()
    );
    Ok(all_good)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!(
        "{}",
        if regressed {
            "REGRESSION: at least one row is worse than its bound"
        } else {
            "no row is worse than its bound"
        }
    );
    Ok(!regressed)
}

fn run() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("gen-blast") => {
            let args: Vec<String> = argv.skip(1).collect();
            let [sequences, seed, path] = args.as_slice() else {
                return Err("usage: gen-blast <sequences> <seed> <path>".into());
            };
            let sequences = sequences.parse().map_err(|_| "bad sequence count")?;
            let seed = seed.parse().map_err(|_| "bad seed")?;
            fixture::gen_blast(sequences, seed, Path::new(path))?;
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("compare") => {
            let args: Vec<String> = argv.skip(1).collect();
            match args.as_slice() {
                [a, b] => compare_files(a, b),
                _ => Err("usage: compare <baseline.json> <new.json>".into()),
            }
        }
        _ => {
            let o = parse_options(argv)?;
            match o.workload {
                Some(w) => driver(&o, w).map(|()| true),
                None => full(&o),
            }
        }
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("papar-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
