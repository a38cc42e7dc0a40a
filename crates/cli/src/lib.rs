//! The `papar` command-line tool: run a PaPar partitioning workflow over
//! real files on disk.
//!
//! This is the deployment surface a downstream user adopts: point the tool
//! at the two configuration documents, the input file, and an output
//! directory, and it parses, plans, executes on the simulated cluster, and
//! writes one output file per partition in the input's format:
//!
//! ```sh
//! papar --input-config blast_db.xml --workflow partition.xml \
//!       --data env_nr.db --out partitions/ --nodes 16 \
//!       --arg num_partitions=32
//! ```
//!
//! The library half (this module) is fully testable without spawning the
//! binary; `main.rs` is a thin argument-parsing shell around [`run`].
//!
//! The pipeline itself lives in [`papar_serve::job`], once: [`run`] is
//! load → compile → fresh cluster (+ fault plan, replication, retries,
//! checkpoint salt) → run → trace/profile → emit → [`RunSummary`] over
//! those stage functions, `papar serve` wraps the same calls in its
//! caches, and [`run_plan`] reuses compile's argument defaulting and its
//! decision → lower → verify tail. What stays here is what a front-end
//! owns: the spec types, the argument parsers, and how results render.

use papar_config::{InputConfig, WorkflowConfig};
use papar_core::exec::{CheckpointCfg, ExecOptions, WorkflowReport};
use papar_core::plan::Planner;
use papar_mr::ChaosSpec;
use papar_record::batch::{Batch, Dataset};
use papar_record::Schema;
use papar_serve::cache::CachedPlan;
use papar_serve::{job, JobSpec};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Everything `papar run` needs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Path to the InputData configuration document.
    pub input_config: PathBuf,
    /// Path to the Workflow configuration document.
    pub workflow: PathBuf,
    /// Path to the input data file.
    pub data: PathBuf,
    /// Directory to write the partition files into (created if missing).
    pub out_dir: PathBuf,
    /// Simulated cluster size.
    pub nodes: usize,
    /// Launch-time workflow arguments (`key=value` pairs). The workflow's
    /// input-path argument is bound to the data file's path automatically
    /// when not given.
    pub args: HashMap<String, String>,
    /// For binary inputs whose record region is followed by payload (e.g. a
    /// full muBLASTP database file): read exactly this many records.
    /// `None` reads the longest whole-record suffix-free prefix.
    pub records: Option<usize>,
    /// Fault spec (`crash=1,drop=2,...`) realized into a seeded schedule;
    /// `None` runs fault-free.
    pub faults: Option<String>,
    /// Seed for the fault schedule (same seed, same faults).
    pub fault_seed: u64,
    /// Replicas kept per materialized fragment (0 disables checkpointing;
    /// crashes then lose data unrecoverably).
    pub replication: usize,
    /// Executions allowed per task before the job aborts.
    pub max_retries: u32,
    /// OS threads for the engine's node tasks (`None` → `PAPAR_THREADS` or
    /// the host's available parallelism). Output bytes are identical for
    /// every value; only wall-clock time changes.
    pub threads: Option<usize>,
    /// Disable physical-plan fusion rewrites (`--no-fuse`): every logical
    /// job runs as its own MR job. Output bytes are identical either way;
    /// only job counts and shuffle traffic change.
    pub no_fuse: bool,
    /// Print a per-phase virtual-time breakdown after the run.
    pub profile: bool,
    /// Write a Chrome trace-event JSON file of the run's span tree
    /// (loadable in chrome://tracing or Perfetto).
    pub trace_out: Option<PathBuf>,
    /// Persist per-stage progress into this run directory
    /// (`--checkpoint`); with [`RunSpec::resume`] set, completed stages
    /// are restored from it instead of re-executed.
    pub checkpoint: Option<PathBuf>,
    /// Resume from [`RunSpec::checkpoint`]'s manifest (`--resume`).
    pub resume: bool,
    /// Run the cost-based adaptive planner (`--adaptive`): a sampling
    /// pre-pass over the input feeds a candidate enumeration whose
    /// winner overrides the literal reducer/stride/boundary/fusion
    /// knobs. Output bytes are identical either way (only output-neutral
    /// knobs are tunable); `--no-adaptive` names the default explicitly.
    pub adaptive: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            input_config: PathBuf::new(),
            workflow: PathBuf::new(),
            data: PathBuf::new(),
            out_dir: PathBuf::new(),
            nodes: 0,
            args: HashMap::new(),
            records: None,
            faults: None,
            fault_seed: 0,
            replication: 0,
            // Matches the engine's default retry policy; a derived zero
            // would clamp every task to a single attempt.
            max_retries: 3,
            threads: None,
            no_fuse: false,
            profile: false,
            trace_out: None,
            checkpoint: None,
            resume: false,
            adaptive: false,
        }
    }
}

/// A summary of a completed run, for printing.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Records read from the input file.
    pub records_in: usize,
    /// Partition files written, in partition order.
    pub files: Vec<PathBuf>,
    /// Per-job lines: `(job id, simulated time, shuffled bytes)`.
    pub jobs: Vec<(String, std::time::Duration, u64)>,
    /// Total simulated partitioning time.
    pub total_sim: std::time::Duration,
    /// Faults that fired during the run.
    pub faults_injected: u32,
    /// Workflow-wide recovery accounting.
    pub recovery: papar_mr::RecoveryStats,
    /// Rendered fault/recovery log lines, in order.
    pub recovery_log: Vec<String>,
    /// Warning-severity diagnostics from the pre-run static analysis
    /// (error-severity ones refuse the run instead).
    pub check_warnings: Vec<String>,
    /// Rendered per-phase breakdown table (present with `--profile`).
    pub profile: Option<String>,
    /// The Chrome trace-event file written (present with `--trace`).
    pub trace_file: Option<PathBuf>,
    /// Stages restored from the checkpoint instead of executed (0 unless
    /// `--resume` skipped work).
    pub stages_resumed: usize,
    /// Corrupt or torn checkpoint data found while resuming, already
    /// quarantined and recomputed.
    pub checkpoint_events: Vec<String>,
    /// Rendered adaptive-planner rationale (present with `--adaptive`).
    pub rationale: Option<String>,
    /// Rendered engine notes: collapsed reducer counts, post-run
    /// re-balance hints.
    pub notes: Vec<String>,
}

/// CLI error: a message for the user (exit code 1).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parse one `--arg key=value` pair into the argument map, refusing
/// duplicates. Workflow arguments bind exactly once; before this check a
/// repeated `--arg` silently kept the last value, so a typo'd sweep
/// (`--arg num_partitions=4 ... --arg num_partitions=8`) ran with a
/// surprise binding instead of an error naming both values.
fn insert_arg(args: &mut HashMap<String, String>, kv: &str) -> Result<(), CliError> {
    let (k, v) = kv
        .split_once('=')
        .ok_or_else(|| fail(format!("--arg wants key=value, got '{kv}'")))?;
    if let Some(prev) = args.get(k) {
        return Err(fail(format!(
            "--arg '{k}' given twice: '{prev}' then '{v}' (each workflow argument \
             binds exactly once)"
        )));
    }
    args.insert(k.to_string(), v.to_string());
    Ok(())
}

/// The value that must follow `flag`.
fn value(flag: &str, argv: &mut impl Iterator<Item = String>) -> Result<String, CliError> {
    argv.next()
        .ok_or_else(|| fail(format!("{flag} needs a value")))
}

/// The value following `flag`, as an integer that may be zero.
fn non_negative_int<T: std::str::FromStr>(
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
) -> Result<T, CliError> {
    let v = value(flag, argv)?;
    v.parse()
        .map_err(|_| fail(format!("{flag} wants a non-negative integer, got '{v}'")))
}

/// The value following `flag`, as an integer that is at least one.
fn positive_int<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
) -> Result<T, CliError> {
    let v = value(flag, argv)?;
    match v.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(fail(format!("{flag} wants a positive integer, got '{v}'"))),
    }
}

/// The twelve flags `papar run` and `papar submit` share, parsed into the
/// [`RunSpec`] fields both are built from. `Ok(false)` means `flag` is
/// not one of them and the caller's own flags get their turn. Node and
/// thread counts are held to the `u32` the wire protocol carries, so a
/// count `papar submit` would have to refuse is refused by `papar run`
/// too.
fn job_flag(
    spec: &mut RunSpec,
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
) -> Result<bool, CliError> {
    match flag {
        "--input-config" => spec.input_config = value(flag, argv)?.into(),
        "--workflow" => spec.workflow = value(flag, argv)?.into(),
        "--data" => spec.data = value(flag, argv)?.into(),
        "--out" => spec.out_dir = value(flag, argv)?.into(),
        "--nodes" => spec.nodes = positive_int::<u32>(flag, argv)? as usize,
        "--records" => spec.records = Some(non_negative_int(flag, argv)?),
        "--arg" => insert_arg(&mut spec.args, &value(flag, argv)?)?,
        "--threads" => spec.threads = Some(positive_int::<u32>(flag, argv)? as usize),
        "--no-fuse" => spec.no_fuse = true,
        "--adaptive" => spec.adaptive = true,
        "--no-adaptive" => spec.adaptive = false,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The four paths a job cannot do without.
fn require_job_paths(spec: &RunSpec, usage: &str) -> Result<(), CliError> {
    for (flag, p) in [
        ("--input-config", &spec.input_config),
        ("--workflow", &spec.workflow),
        ("--data", &spec.data),
        ("--out", &spec.out_dir),
    ] {
        if p.as_os_str().is_empty() {
            return Err(fail(format!("{flag} is required\n{usage}")));
        }
    }
    Ok(())
}

impl RunSpec {
    /// The request half of the spec — the twelve fields `papar run` and
    /// `papar submit` share — in the form the pipeline stages and the
    /// daemon's wire protocol take.
    fn job(&self) -> JobSpec {
        // Sorted for a deterministic wire encoding (the daemon re-sorts
        // for hashing anyway; this keeps repeated submits byte-identical
        // on the wire too).
        let mut args: Vec<(String, String)> = self
            .args
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        args.sort();
        let narrow = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        JobSpec {
            input_config: self.input_config.display().to_string(),
            workflow: self.workflow.display().to_string(),
            data: self.data.display().to_string(),
            out_dir: self.out_dir.display().to_string(),
            nodes: narrow(self.nodes),
            args,
            records: self.records.map(|n| n as u64),
            threads: self.threads.map(narrow),
            no_fuse: self.no_fuse,
            adaptive: self.adaptive,
        }
    }
}

/// Execute a run spec end-to-end: the shared stages of
/// [`papar_serve::job`] — load → compile → run → emit — on a fresh
/// cluster, with the inputs only a one-shot run has (fault plan,
/// replication, retry budget, checkpoint) handed to them.
pub fn run(spec: &RunSpec) -> Result<RunSummary, CliError> {
    let request = spec.job();
    let cfg_text = job::read_text(&spec.input_config).map_err(fail)?;
    let wf_text = job::read_text(&spec.workflow).map_err(fail)?;
    let trace = spec.profile || spec.trace_out.is_some();
    let options = job::exec_options(&request, spec.threads, trace);
    // The budget load and emit share with the engine: `--threads`, else
    // `PAPAR_THREADS`, else the host's parallelism.
    let threads = match spec.threads {
        Some(threads) => threads,
        None => papar_mr::default_thread_budget().map_err(|e| fail(e.to_string()))?,
    };
    let input = job::load(&request, &cfg_text, threads).map_err(fail)?;
    let records_in = job::record_count(&input);
    let compiled = job::compile(
        &request,
        &cfg_text,
        &wf_text,
        spec.replication,
        &input,
        &options,
    )
    .map_err(fail)?;

    let mut cluster =
        job::new_cluster(spec.nodes, spec.replication, spec.max_retries.max(1)).map_err(fail)?;
    if let Some(fault_spec) = &spec.faults {
        let chaos = ChaosSpec::parse(fault_spec).map_err(|e| fail(e.to_string()))?;
        cluster =
            cluster.with_fault_plan(chaos.realize(spec.fault_seed, spec.nodes, compiled.num_jobs));
    }
    let checkpoint = spec.checkpoint.as_ref().map(|dir| {
        // Salt the resume fingerprint with everything byte-affecting the
        // runner cannot see: the fault schedule and the recovery knobs.
        let salt = format!(
            "faults={:?} seed={} replication={} max_retries={}",
            spec.faults, spec.fault_seed, spec.replication, spec.max_retries
        );
        CheckpointCfg {
            dir: dir.clone(),
            resume: spec.resume,
            extra: papar_record::wire::checksum(salt.as_bytes()),
        }
    });
    let report =
        job::run(&compiled, options, checkpoint, &mut cluster, input).map_err(|e| match e {
            papar_core::error::CoreError::Mr(papar_mr::MrError::ResumeMismatch { .. }) => {
                fail(format!(
                    "error[P020]: {e}\n(the checkpoint was taken by a run with a different \
                     plan, input, fault seed or configuration; re-run with --checkpoint \
                     to start it over)"
                ))
            }
            e => fail(e.to_string()),
        })?;

    // Render/export the span tree before the partitions are written, so a
    // disk-full failure below still leaves the trace on disk for debugging.
    let mut profile = None;
    let mut trace_file = None;
    if let Some(trace) = &report.trace {
        if spec.profile {
            profile = Some(render_profile(
                trace, &compiled, &report, spec.nodes, records_in,
            ));
        }
        if let Some(path) = &spec.trace_out {
            std::fs::write(path, papar_trace::to_chrome_json(trace))
                .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
            trace_file = Some(path.clone());
        }
    }

    let files = job::emit(&compiled, &cluster, &spec.out_dir).map_err(fail)?;

    Ok(RunSummary {
        records_in,
        files,
        jobs: report
            .jobs
            .iter()
            .map(|j| (j.name.clone(), j.sim_time(), j.exchange.remote_bytes))
            .collect(),
        total_sim: report.total_sim_time(),
        faults_injected: report.faults_injected(),
        recovery: report.total_recovery(),
        recovery_log: report
            .recovery_events
            .iter()
            .map(|e| e.to_string())
            .collect(),
        check_warnings: compiled.warnings.clone(),
        profile,
        trace_file,
        stages_resumed: report.stages_resumed,
        checkpoint_events: report.checkpoint_events.clone(),
        rationale: report.rationale.as_ref().map(|r| r.render()),
        notes: report.notes.iter().map(|n| n.to_string()).collect(),
    })
}

/// The `--profile` text: the per-phase table, then the bound-vs-observed
/// columns — the static interpretation of the compiled physical plan
/// over the exact input count, lined up with the traced counters (debug
/// builds additionally assert containment after every stage) — then the
/// adaptive cost model's predicted-vs-observed row.
fn render_profile(
    trace: &papar_trace::WorkflowTrace,
    compiled: &CachedPlan,
    report: &WorkflowReport,
    nodes: usize,
    records_in: usize,
) -> String {
    let mut rendered = papar_trace::render_profile(trace);
    let mut opts = papar_core::bounds::BoundsOptions {
        num_nodes: nodes,
        default_reducers: None,
        sources: Default::default(),
        reducer_overrides: compiled
            .decision
            .as_ref()
            .map(|d| d.knobs().sort_reducers.clone())
            .unwrap_or_default(),
    };
    for (name, _) in &compiled.plan.external_inputs {
        opts.sources.insert(
            name.clone(),
            papar_core::bounds::SourceBounds::exact(records_in as u64),
        );
    }
    let bounds = papar_core::bounds::compute(&compiled.plan, &compiled.phys, &opts);
    let static_bounds: Vec<papar_trace::StaticBound> = bounds
        .stages
        .iter()
        .map(|s| papar_trace::StaticBound {
            name: s.id.clone(),
            records_in: (s.records_in.lo, s.records_in.hi),
            records_out: (s.records_out.lo, s.records_out.hi),
            pairs: (s.pairs.lo, s.pairs.hi),
            max_load: (s.max_load.lo, s.max_load.hi),
        })
        .collect();
    rendered.push_str(&papar_trace::render_bounds_check(trace, &static_bounds));
    if let Some(r) = &report.rationale {
        rendered.push('\n');
        rendered.push_str(&papar_trace::render_prediction_check(
            trace,
            &r.stats_job,
            &papar_trace::Prediction {
                cost_ns: r.predicted.cost_ns,
                max_load: r.predicted.max_load,
                shuffle_bytes: r.predicted.shuffle_bytes,
            },
        ));
    }
    rendered
}

/// Everything `papar check` needs.
#[derive(Debug, Clone, Default)]
pub struct CheckSpec {
    /// Path to the Workflow configuration document.
    pub workflow: PathBuf,
    /// Paths to InputData configuration documents (any number, including
    /// zero — unresolvable formats are then diagnosed).
    pub input_configs: Vec<PathBuf>,
    /// Cluster size, when known (enables partition-count checks).
    pub nodes: Option<usize>,
    /// Replication factor, when known.
    pub replication: Option<usize>,
    /// Input record count, when known (enables `L_m^{km}` divisibility).
    pub records: Option<usize>,
    /// Launch arguments; the analysis is symbolic for any left unbound.
    pub args: HashMap<String, String>,
    /// Emit machine-readable JSON instead of one-per-line text.
    pub json: bool,
    /// Run the interval bounds analysis (`--bounds`): bind the plan with
    /// placeholder paths, lower it, propagate cardinality/volume/skew
    /// intervals, and print the per-stage table plus P021/W007/W008/W009.
    pub bounds: bool,
    /// Promote warning-severity diagnostics to errors (`--deny-warnings`):
    /// a warnings-only run then exits 1 instead of 0.
    pub deny_warnings: bool,
    /// `W008` threshold (`--skew-ratio`, default 4.0): worst-case
    /// busiest-partition load over the fair share.
    pub skew_ratio: Option<f64>,
    /// Declared upper bound on distinct values of any single input field
    /// (`--distinct-keys`); enables `P021`.
    pub distinct_keys: Option<u64>,
}

/// What `papar check` found, rendered and counted.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Rendered diagnostics (text or JSON per the spec).
    pub output: String,
    /// Error-severity count (non-zero → exit code 1).
    pub errors: usize,
    /// Warning-severity count.
    pub warnings: usize,
}

/// Run the static analyzer over configuration documents on disk.
pub fn run_check(spec: &CheckSpec) -> Result<CheckReport, CliError> {
    let workflow_xml = job::read_text(&spec.workflow).map_err(fail)?;
    let mut input_texts: Vec<(String, String)> = Vec::new();
    for p in &spec.input_configs {
        let text = job::read_text(p).map_err(fail)?;
        let label = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.display().to_string());
        input_texts.push((label, text));
    }
    let ctx = papar_check::CheckContext {
        args: spec.args.clone(),
        nodes: spec.nodes,
        replication: spec.replication,
        records: spec.records,
        ..Default::default()
    };
    let inputs: Vec<(&str, &str)> = input_texts
        .iter()
        .map(|(l, t)| (l.as_str(), t.as_str()))
        .collect();
    let mut analysis = papar_check::check_sources(&workflow_xml, &inputs, &ctx);

    // Cross-check the inference against the compiled plan whenever the
    // documents are clean enough to bind with the given arguments.
    let mut bounds_table = None;
    if !analysis.has_errors() {
        if let Ok(wf) = WorkflowConfig::parse_str(&workflow_xml) {
            let cfgs: Vec<InputConfig> = input_texts
                .iter()
                .filter_map(|(_, t)| InputConfig::parse_str(t).ok())
                .collect();
            // Path arguments bind to placeholders — neither the
            // cross-check nor the bounds analysis reads data.
            let mut args = spec.args.clone();
            job::default_path_args(&wf, &mut args, PLAN_INPUT, PLAN_OUTPUT);
            if let Ok(plan) = Planner::new(wf.clone(), cfgs).bind(&args) {
                let divergences = papar_check::verify_plan(&analysis, &plan);
                analysis.diagnostics.extend(divergences);
                if spec.bounds {
                    let nodes = spec.nodes.unwrap_or(4);
                    let phys = papar_core::physplan::lower(&plan, nodes, None, true);
                    let report = papar_check::analyze_bounds(
                        &wf,
                        &plan,
                        &phys,
                        &papar_check::BoundsConfig {
                            num_nodes: nodes,
                            default_reducers: None,
                            records: spec.records.map(|n| n as u64),
                            distinct_keys: spec.distinct_keys,
                            skew_ratio: spec.skew_ratio.unwrap_or(4.0),
                            reducer_overrides: Default::default(),
                        },
                    );
                    analysis.diagnostics.extend(report.diagnostics);
                    bounds_table = Some(report.table);
                }
            } else if spec.bounds {
                return Err(fail(
                    "--bounds needs the workflow to bind; pass the missing --arg values",
                ));
            }
        }
    }
    // `--deny-warnings` promotes every warning to an error, so a
    // warnings-only run exits 1 instead of 0. Codes stay W0xx: the finding
    // is the same, only the policy differs.
    if spec.deny_warnings {
        for d in &mut analysis.diagnostics {
            d.severity = papar_check::Severity::Error;
        }
    }

    let errors = analysis.errors().len();
    let warnings = analysis.diagnostics.len() - errors;
    let output = if spec.json {
        papar_check::json::to_json(&analysis.diagnostics)
    } else {
        let mut out = papar_check::render_text(&analysis.diagnostics);
        if let Some(table) = bounds_table {
            out.push_str(&table);
        }
        out.push_str(&format!(
            "{}: {errors} error(s), {warnings} warning(s)",
            spec.workflow.display()
        ));
        out
    };
    Ok(CheckReport {
        output,
        errors,
        warnings,
    })
}

/// Parse `papar check` arguments into a [`CheckSpec`].
pub fn parse_check_args<I: Iterator<Item = String>>(mut argv: I) -> Result<CheckSpec, CliError> {
    let mut spec = CheckSpec::default();
    let argv = &mut argv;
    while let Some(a) = argv.next() {
        let flag = a.as_str();
        match flag {
            "--workflow" => spec.workflow = value(flag, argv)?.into(),
            "--input-config" => spec.input_configs.push(value(flag, argv)?.into()),
            "--nodes" => spec.nodes = Some(non_negative_int(flag, argv)?),
            "--replication" => spec.replication = Some(non_negative_int(flag, argv)?),
            "--records" => spec.records = Some(non_negative_int(flag, argv)?),
            "--arg" => insert_arg(&mut spec.args, &value(flag, argv)?)?,
            "--format" => {
                let v = value(flag, argv)?;
                spec.json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(fail(format!(
                            "--format wants 'text' or 'json', got '{other}'"
                        )))
                    }
                };
            }
            "--bounds" => spec.bounds = true,
            "--deny-warnings" => spec.deny_warnings = true,
            "--skew-ratio" => {
                let v = value(flag, argv)?;
                let r: f64 = v
                    .parse()
                    .map_err(|_| fail(format!("--skew-ratio wants a number, got '{v}'")))?;
                if !r.is_finite() || r < 1.0 {
                    return Err(fail(format!("--skew-ratio wants a number >= 1, got '{v}'")));
                }
                spec.skew_ratio = Some(r);
            }
            "--distinct-keys" => spec.distinct_keys = Some(non_negative_int(flag, argv)?),
            "-h" | "--help" => return Err(fail(CHECK_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{CHECK_USAGE}"))),
        }
    }
    if spec.workflow.as_os_str().is_empty() {
        return Err(fail(format!("--workflow is required\n{CHECK_USAGE}")));
    }
    Ok(spec)
}

/// Usage text for `papar check`.
pub const CHECK_USAGE: &str = "\
usage: papar check --workflow <xml> [--input-config <xml>]...
                   [--nodes N] [--replication N] [--records N]
                   [--arg key=value]... [--format text|json]
                   [--bounds] [--distinct-keys N] [--skew-ratio R]
                   [--deny-warnings]

Statically analyzes the workflow without reading any data: dataflow over
$variable references, schema inference through every operator, distribution
legality, and determinism lints. Arguments left unbound are analyzed
symbolically. Exit code 0 when clean or warnings only, 1 when any
error-severity diagnostic is found, 2 on usage errors.

Bounds analysis (abstract interpretation over the physical plan):
  --bounds           propagate record/byte/distinct-key/max-load intervals
                     through every physical stage; prints a per-stage table
                     and enables P021/W007/W008/W009. Use --records N to make
                     source counts exact; unhinted sources stay [0, ?].
  --distinct-keys N  declared bound on distinct values of any input field
                     (needed for P021: reducers that can never receive a key)
  --skew-ratio R     W008 threshold: flag stages whose worst-case partition
                     load exceeds R times the fair share (default 4.0)
  --deny-warnings    promote warnings to errors: warnings-only runs exit 1";

/// Everything `papar plan` needs.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Path to the Workflow configuration document.
    pub workflow: PathBuf,
    /// Paths to InputData configuration documents.
    pub input_configs: Vec<PathBuf>,
    /// Cluster size the plan is lowered for (the group→split fusion gate
    /// depends on it).
    pub nodes: usize,
    /// Launch arguments. Conventional path arguments (`input_path`,
    /// `input_file`, `output_path`) default to placeholders — planning
    /// never reads data, so any concrete string binds.
    pub args: HashMap<String, String>,
    /// Lower with fusion rewrites disabled.
    pub no_fuse: bool,
    /// Print the full logical→physical mapping instead of the one-line
    /// summary.
    pub explain: bool,
    /// Exact record count of every external input (`--records`); makes
    /// the `--explain` bound columns exact instead of `[0, ?]`.
    pub records: Option<u64>,
    /// Run the adaptive planner and print its rationale (`--adaptive`).
    /// With [`PlanSpec::data`] set, the real sampling pre-pass feeds it;
    /// without data it degenerates to weighing fusion toggles.
    pub adaptive: bool,
    /// Input data file to sample for `--adaptive` (`--data`); read with
    /// the first `--input-config`, never partitioned.
    pub data: Option<PathBuf>,
}

impl Default for PlanSpec {
    fn default() -> Self {
        PlanSpec {
            workflow: PathBuf::new(),
            input_configs: Vec::new(),
            nodes: 4,
            args: HashMap::new(),
            no_fuse: false,
            explain: false,
            records: None,
            adaptive: false,
            data: None,
        }
    }
}

/// What `papar plan` computed, rendered and counted.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Rendered plan: the full `--explain` mapping, or a one-line summary.
    pub output: String,
    /// Logical jobs in the bound workflow plan.
    pub logical_jobs: usize,
    /// Physical stages after lowering.
    pub stages: usize,
    /// Whether fusion rewrites were enabled.
    pub fused: bool,
}

/// What `papar plan` and `papar check` bind the conventional path
/// arguments to: neither reads data, so any concrete string binds.
const PLAN_INPUT: &str = "/plan/input";
const PLAN_OUTPUT: &str = "/plan/output";

/// Bind a workflow and lower it to a physical plan, without reading data.
pub fn run_plan(spec: &PlanSpec) -> Result<PlanReport, CliError> {
    let workflow = WorkflowConfig::parse_str(&job::read_text(&spec.workflow).map_err(fail)?)
        .map_err(|e| fail(format!("{}: {e}", spec.workflow.display())))?;
    let mut input_cfgs = Vec::new();
    for p in &spec.input_configs {
        input_cfgs.push(
            InputConfig::parse_str(&job::read_text(p).map_err(fail)?)
                .map_err(|e| fail(format!("{}: {e}", p.display())))?,
        );
    }
    let mut args = spec.args.clone();
    job::default_path_args(&workflow, &mut args, PLAN_INPUT, PLAN_OUTPUT);
    let plan = Planner::new(workflow.clone(), input_cfgs.clone())
        .bind(&args)
        .map_err(|e| fail(e.to_string()))?;

    // Adaptive planning samples the data file when one is given (read
    // with the first input config, never partitioned); the rationale
    // prints after the plan and the bound table reflects the chosen
    // reducer counts.
    let options = ExecOptions {
        fuse: !spec.no_fuse,
        adaptive: spec.adaptive,
        ..ExecOptions::default()
    };
    let sample = match (&spec.data, input_cfgs.first()) {
        (Some(data), Some(cfg)) if spec.adaptive => {
            let schema = Arc::new(Schema::from_input_config(cfg));
            let records = job::load_records(cfg, &schema, data, None).map_err(fail)?;
            Some(vec![Arc::new(Dataset::new(schema, Batch::Flat(records)))])
        }
        _ => None,
    };
    let (phys, decision) =
        job::lower_verified(&plan, spec.nodes, &options, sample.as_deref()).map_err(fail)?;
    let mut output = if spec.explain {
        // The explain text itself is fingerprint-stable (checkpoint resume
        // hashes it); the bound table rides along after it.
        let mut out = papar_core::physplan::explain(&plan, &phys);
        let report = papar_check::analyze_bounds(
            &workflow,
            &plan,
            &phys,
            &papar_check::BoundsConfig {
                num_nodes: spec.nodes,
                default_reducers: None,
                records: spec.records,
                reducer_overrides: decision
                    .as_ref()
                    .map(|d| d.knobs().sort_reducers.clone())
                    .unwrap_or_default(),
                ..Default::default()
            },
        );
        out.push_str("\nstatic bounds (intervals admitted by the declared sources):\n");
        out.push_str(&report.table);
        out
    } else {
        format!(
            "workflow '{}': {} logical job(s) -> {} physical stage(s) ({})\n\
             (`papar plan --explain` prints the full logical→physical mapping)",
            plan.id,
            plan.jobs.len(),
            phys.stages.len(),
            if phys.fused { "fused" } else { "--no-fuse" },
        )
    };
    if let Some(d) = &decision {
        output.push('\n');
        output.push_str(&d.rationale.render());
    }
    Ok(PlanReport {
        output,
        logical_jobs: plan.jobs.len(),
        stages: phys.stages.len(),
        fused: phys.fused,
    })
}

/// Parse `papar plan` arguments into a [`PlanSpec`].
pub fn parse_plan_args<I: Iterator<Item = String>>(mut argv: I) -> Result<PlanSpec, CliError> {
    let mut spec = PlanSpec::default();
    let argv = &mut argv;
    while let Some(a) = argv.next() {
        let flag = a.as_str();
        match flag {
            "--workflow" => spec.workflow = value(flag, argv)?.into(),
            "--input-config" => spec.input_configs.push(value(flag, argv)?.into()),
            "--nodes" => spec.nodes = positive_int(flag, argv)?,
            "--arg" => insert_arg(&mut spec.args, &value(flag, argv)?)?,
            "--no-fuse" => spec.no_fuse = true,
            "--explain" => spec.explain = true,
            "--adaptive" => spec.adaptive = true,
            "--no-adaptive" => spec.adaptive = false,
            "--data" => spec.data = Some(value(flag, argv)?.into()),
            "--records" => spec.records = Some(non_negative_int(flag, argv)?),
            "-h" | "--help" => return Err(fail(PLAN_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{PLAN_USAGE}"))),
        }
    }
    if spec.workflow.as_os_str().is_empty() {
        return Err(fail(format!("--workflow is required\n{PLAN_USAGE}")));
    }
    Ok(spec)
}

/// Usage text for `papar plan`.
pub const PLAN_USAGE: &str = "\
usage: papar plan --workflow <xml> [--input-config <xml>]...
                  [--nodes N] [--arg key=value]... [--no-fuse] [--explain]
                  [--records N] [--adaptive [--data <file>]]

Binds the workflow and lowers it to the physical plan `papar run` would
execute, without reading any data. `--explain` prints every logical job and
every physical stage with its fusion and streaming annotations, followed by
the static bound table (record/pair/max-load intervals per stage; `--records
N` makes source counts exact). `--no-fuse` shows the unfused plan.
`--adaptive` runs the cost-based planner and prints its rationale — every
candidate considered, every rejection and its reason, and the winner's
predicted cost; give `--data <file>` to feed it the real sampling pre-pass
(otherwise it only weighs fusion toggles). Conventional path arguments
(input_path, input_file, output_path) default to placeholders. Exit code 0 on
success, 1 when binding or physical-plan verification fails, 2 on usage
errors.";

/// Parse command-line arguments into a [`RunSpec`].
pub fn parse_args<I: Iterator<Item = String>>(mut argv: I) -> Result<RunSpec, CliError> {
    let mut spec = RunSpec {
        nodes: 4,
        ..Default::default()
    };
    let argv = &mut argv;
    while let Some(a) = argv.next() {
        let flag = a.as_str();
        if job_flag(&mut spec, flag, argv)? {
            continue;
        }
        match flag {
            "--faults" => {
                let v = value(flag, argv)?;
                // Validate now so the user hears about a typo before any
                // data is read.
                ChaosSpec::parse(&v).map_err(|e| fail(e.to_string()))?;
                spec.faults = Some(v);
            }
            "--fault-seed" => spec.fault_seed = non_negative_int(flag, argv)?,
            "--replication" => spec.replication = non_negative_int(flag, argv)?,
            "--max-retries" => spec.max_retries = positive_int(flag, argv)?,
            "--profile" => spec.profile = true,
            "--trace" => spec.trace_out = Some(value(flag, argv)?.into()),
            "--checkpoint" | "--resume" => {
                let dir: PathBuf = value(flag, argv)?.into();
                if spec.checkpoint.as_ref().is_some_and(|d| *d != dir) {
                    return Err(fail("--checkpoint and --resume name different directories"));
                }
                spec.checkpoint = Some(dir);
                spec.resume |= flag == "--resume";
            }
            "-h" | "--help" => return Err(fail(USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{USAGE}"))),
        }
    }
    require_job_paths(&spec, USAGE)?;
    Ok(spec)
}

/// Usage text.
pub const USAGE: &str = "\
usage: papar [run] --input-config <xml> --workflow <xml> --data <file> --out <dir>
             [--nodes N] [--records N] [--arg key=value]...
             [--faults SPEC] [--fault-seed N] [--replication N] [--max-retries N]
             [--threads N] [--no-fuse] [--adaptive] [--profile]
             [--trace <file>] [--checkpoint <dir> | --resume <dir>]
       papar check --workflow <xml> [options]   (see `papar check --help`)
       papar plan --workflow <xml> [options]    (see `papar plan --help`)

Runs the PaPar partitioning workflow described by the two configuration
documents over the data file, on an N-node simulated cluster, and writes
one file per partition into the output directory.

Fault injection (chaos testing the simulated cluster):
  --faults SPEC      inject faults, e.g. 'crash=1,drop=2,corrupt=1,straggler=1'
  --fault-seed N     seed for fault placement (same seed, same schedule; default 0)
  --replication N    replicas per fragment; crashes need N >= 1 to recover (default 0)
  --max-retries N    executions allowed per task before aborting (default 3)

Performance:
  --threads N        OS threads for node tasks; output bytes are identical for
                     every N (default: PAPAR_THREADS or available parallelism)
  --no-fuse          run every logical job as its own MR job instead of fusing
                     adjacent sort+distribute / group+split pairs; output bytes
                     are identical, only job counts and shuffle traffic change
                     (`papar plan --explain` shows what fusion would do)
  --adaptive         run the cost-based adaptive planner: a sampling pre-pass
                     summarizes the input's key distribution, candidate plans
                     (reducer counts, sampling stride, range-vs-cyclic
                     boundaries, per-rewrite fusion) are priced with the cost
                     model under static bounds, and the cheapest admissible one
                     runs; the rationale is printed and output bytes stay
                     identical (only output-neutral knobs are tuned)
  --no-adaptive      keep the configured literal knobs (the default, named)

Observability:
  --profile          print a per-phase virtual-time breakdown (paper Fig. 13 style)
  --trace FILE       write a Chrome trace-event JSON span tree; open it in
                     chrome://tracing or https://ui.perfetto.dev. The file is
                     byte-identical for every --threads value.

Checkpointing (crash-consistent; resumed output is byte-identical to a cold run):
  --checkpoint DIR   durably publish each completed stage's output fragments and
                     stats into DIR (write-ahead manifest, fsync+rename commits)
  --resume DIR       validate DIR's manifest, skip its completed stages and
                     re-execute from the first incomplete one; refuses with
                     error[P020] when the plan/input/seed/config fingerprint
                     differs. Corrupt or torn data is quarantined (*.quarantine)
                     and recomputed, never silently reused.";

// ---------------------------------------------------------------------
// papar serve / submit / status: the resident daemon surface.
// ---------------------------------------------------------------------

/// Everything `papar serve` needs.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Where to listen: a Unix socket path, or `tcp:HOST:PORT`.
    pub socket: String,
    /// Pending-job admission limit (queued + running).
    pub queue_capacity: usize,
    /// Compiled plans kept resident.
    pub plan_cache: usize,
    /// Decoded input files kept resident.
    pub data_cache: usize,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            socket: String::new(),
            queue_capacity: 32,
            plan_cache: 16,
            data_cache: 8,
        }
    }
}

/// Parse `papar serve` arguments into a [`ServeSpec`].
pub fn parse_serve_args<I: Iterator<Item = String>>(mut argv: I) -> Result<ServeSpec, CliError> {
    let mut spec = ServeSpec::default();
    let argv = &mut argv;
    while let Some(a) = argv.next() {
        let flag = a.as_str();
        match flag {
            "--socket" => spec.socket = value(flag, argv)?,
            "--queue" => spec.queue_capacity = positive_int(flag, argv)?,
            "--plan-cache" => spec.plan_cache = positive_int(flag, argv)?,
            "--data-cache" => spec.data_cache = positive_int(flag, argv)?,
            "-h" | "--help" => return Err(fail(SERVE_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{SERVE_USAGE}"))),
        }
    }
    if spec.socket.is_empty() {
        return Err(fail(format!("--socket is required\n{SERVE_USAGE}")));
    }
    Ok(spec)
}

/// Run the daemon until a `papar submit --shutdown` or SIGTERM/SIGINT,
/// then drain and exit. Startup validation (socket, `PAPAR_THREADS`)
/// fails here, before any request is accepted.
pub fn run_serve(spec: &ServeSpec) -> Result<(), CliError> {
    let server = papar_serve::Server::bind(papar_serve::ServeOptions {
        endpoint: papar_serve::Endpoint::parse(&spec.socket),
        queue_capacity: spec.queue_capacity,
        plan_cache: spec.plan_cache,
        data_cache: spec.data_cache,
        handle_signals: true,
    })
    .map_err(|e| fail(e.to_string()))?;
    eprintln!(
        "papar serve: listening on {} (engine threads: {}, queue capacity: {})",
        server.endpoint(),
        server.default_threads(),
        spec.queue_capacity,
    );
    server.run().map_err(|e| fail(e.to_string()))
}

/// Everything `papar submit` needs.
#[derive(Debug, Clone, Default)]
pub struct SubmitSpec {
    /// The daemon's socket (same syntax as `papar serve --socket`).
    pub socket: String,
    /// The job, with `papar run`'s flag names.
    pub job: papar_serve::JobSpec,
    /// Return immediately after admission instead of waiting for the
    /// result (`--detach`); poll with `papar status <job-id>`.
    pub detach: bool,
    /// Ask the daemon to drain its queue and exit (`--shutdown`).
    pub shutdown: bool,
}

/// Parse `papar submit` arguments into a [`SubmitSpec`].
pub fn parse_submit_args<I: Iterator<Item = String>>(mut argv: I) -> Result<SubmitSpec, CliError> {
    let mut spec = SubmitSpec::default();
    let mut job = RunSpec {
        nodes: 4,
        ..Default::default()
    };
    let argv = &mut argv;
    while let Some(a) = argv.next() {
        let flag = a.as_str();
        if job_flag(&mut job, flag, argv)? {
            continue;
        }
        match flag {
            "--socket" => spec.socket = value(flag, argv)?,
            "--detach" => spec.detach = true,
            "--shutdown" => spec.shutdown = true,
            "-h" | "--help" => return Err(fail(SUBMIT_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{SUBMIT_USAGE}"))),
        }
    }
    if spec.socket.is_empty() {
        return Err(fail(format!("--socket is required\n{SUBMIT_USAGE}")));
    }
    if !spec.shutdown {
        require_job_paths(&job, SUBMIT_USAGE)?;
    }
    // The daemon resolves paths against *its* working directory;
    // absolutize against ours so `papar submit` behaves like `papar run`
    // regardless of where the daemon was started.
    for p in [
        &mut job.input_config,
        &mut job.workflow,
        &mut job.data,
        &mut job.out_dir,
    ] {
        if !p.as_os_str().is_empty() && p.is_relative() {
            if let Ok(cwd) = std::env::current_dir() {
                *p = cwd.join(&*p);
            }
        }
    }
    spec.job = job.job();
    Ok(spec)
}

/// Execute a submit: admit the job and either detach or block for the
/// result. Returns the lines to print.
pub fn run_submit(spec: &SubmitSpec) -> Result<String, CliError> {
    let endpoint = papar_serve::Endpoint::parse(&spec.socket);
    let mut client = papar_serve::Client::connect(&endpoint).map_err(|e| fail(e.to_string()))?;
    if spec.shutdown {
        client.shutdown().map_err(|e| fail(e.to_string()))?;
        return Ok("daemon is draining its queue and shutting down".to_string());
    }
    let (id, position) = client
        .submit(spec.job.clone())
        .map_err(|e| fail(e.to_string()))?;
    if spec.detach {
        return Ok(format!(
            "job {id} queued at position {position}\n(`papar status {id} --socket {}` follows it)",
            spec.socket
        ));
    }
    let report = client.wait(id).map_err(|e| fail(e.to_string()))?;
    render_job_report(&report)
}

/// Everything `papar status` needs.
#[derive(Debug, Clone, Default)]
pub struct StatusSpec {
    /// The daemon's socket.
    pub socket: String,
    /// The job to report on; `None` pings the daemon and prints its
    /// lifetime counters instead.
    pub job: Option<u64>,
}

/// Parse `papar status` arguments into a [`StatusSpec`].
pub fn parse_status_args<I: Iterator<Item = String>>(mut argv: I) -> Result<StatusSpec, CliError> {
    let mut spec = StatusSpec::default();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--socket" => spec.socket = value("--socket", &mut argv)?,
            "-h" | "--help" => return Err(fail(STATUS_USAGE)),
            other => {
                let id: u64 = other.parse().map_err(|_| {
                    fail(format!("expected a job id, got '{other}'\n{STATUS_USAGE}"))
                })?;
                if spec.job.is_some() {
                    return Err(fail(format!("more than one job id given\n{STATUS_USAGE}")));
                }
                spec.job = Some(id);
            }
        }
    }
    if spec.socket.is_empty() {
        return Err(fail(format!("--socket is required\n{STATUS_USAGE}")));
    }
    Ok(spec)
}

/// Execute a status query. Returns the lines to print.
pub fn run_status(spec: &StatusSpec) -> Result<String, CliError> {
    let endpoint = papar_serve::Endpoint::parse(&spec.socket);
    let mut client = papar_serve::Client::connect(&endpoint).map_err(|e| fail(e.to_string()))?;
    match spec.job {
        Some(id) => {
            let report = client.status(id).map_err(|e| fail(e.to_string()))?;
            render_job_report(&report)
        }
        None => {
            let stats = client.ping().map_err(|e| fail(e.to_string()))?;
            Ok(format!(
                "daemon alive on {}\n\
                 jobs: {} done, {} failed\n\
                 plans: {} resident, {} hit(s), {} miss(es)\n\
                 data: {} hit(s), {} miss(es)",
                spec.socket,
                stats.jobs_done,
                stats.jobs_failed,
                stats.plans_cached,
                stats.plan_hits,
                stats.plan_misses,
                stats.data_hits,
                stats.data_misses,
            ))
        }
    }
}

/// Render a job report the way the daemon's stats deserve: one state
/// line, then the job's own detail (summary + profile table, or the
/// failure). A `Failed` report comes back as `Err` so callers exit 1.
fn render_job_report(report: &papar_serve::JobReport) -> Result<String, CliError> {
    use papar_serve::JobStateKind;
    match report.state {
        JobStateKind::Queued { position } => {
            Ok(format!("job {}: queued at position {position}", report.id))
        }
        JobStateKind::Running => Ok(format!("job {}: running", report.id)),
        JobStateKind::Done => Ok(format!(
            "job {}: done in {} ms\n{}",
            report.id,
            report.wall_ms,
            report.detail.trim_end()
        )),
        JobStateKind::Failed => Err(fail(format!(
            "job {} failed: {}",
            report.id,
            report.detail.trim_end()
        ))),
    }
}

/// Usage text for `papar serve`.
pub const SERVE_USAGE: &str = "\
usage: papar serve --socket <path|tcp:HOST:PORT>
                   [--queue N] [--plan-cache N] [--data-cache N]

Runs the resident partitioning daemon: compiled plans and decoded input
files stay cached between requests (LRU, keyed by the plan fingerprint),
and jobs execute one at a time on a resident cluster — output bytes are
identical to one-shot `papar run`. Submit work with `papar submit`, follow
it with `papar status`. SIGTERM/SIGINT (or `papar submit --shutdown`)
drains the queue and exits cleanly.

  --socket S       Unix socket path, or tcp:HOST:PORT (tcp:127.0.0.1:0
                   picks a free port and prints it)
  --queue N        admission limit on pending jobs; submits beyond it are
                   refused with a typed queue-full error (default 32)
  --plan-cache N   compiled plans kept resident (default 16)
  --data-cache N   decoded input files kept resident (default 8)";

/// Usage text for `papar submit`.
pub const SUBMIT_USAGE: &str = "\
usage: papar submit --socket <path|tcp:HOST:PORT>
                    --input-config <xml> --workflow <xml> --data <file> --out <dir>
                    [--nodes N] [--records N] [--arg key=value]...
                    [--threads N] [--no-fuse] [--adaptive] [--detach]
       papar submit --socket <path|tcp:HOST:PORT> --shutdown

Submits one partitioning job to a `papar serve` daemon. Without --detach,
blocks until the job completes and prints the same summary `papar run`
would (plus cache verdicts and the profile table); with --detach, prints
the job id immediately. --shutdown asks the daemon to drain and exit.
Paths are resolved against this command's working directory. Exit code 0
on success, 1 when the job fails or the daemon refuses it, 2 on usage
errors.";

/// Usage text for `papar status`.
pub const STATUS_USAGE: &str = "\
usage: papar status [<job-id>] --socket <path|tcp:HOST:PORT>

With a job id: prints the job's state — queue position while queued, or
the completed job's summary, cache verdicts, and per-phase profile table.
Without one: pings the daemon and prints its lifetime counters (jobs,
plan/data cache hits). Exit code 0 on success, 1 when the job failed or
the daemon is unreachable, 2 on usage errors.";

#[cfg(test)]
mod tests {
    use super::*;

    /// A command line, split the way a shell would split it.
    fn argv(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    /// `parse_args` over the four required flags plus `extra`.
    fn parse_run(extra: &str) -> Result<RunSpec, CliError> {
        parse_args(argv("--input-config a --workflow b --data c --out d").chain(argv(extra)))
    }

    /// `papar plan --explain` over the Figure 8 example, eight partitions.
    fn fig8_plan() -> PlanSpec {
        let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        PlanSpec {
            workflow: format!("{configs}/blast_partition.xml").into(),
            input_configs: vec![format!("{configs}/blast_db.xml").into()],
            args: HashMap::from([("num_partitions".to_string(), "8".to_string())]),
            explain: true,
            ..Default::default()
        }
    }

    /// `papar check` over the same documents: 4 nodes, 1000 records.
    fn fig8_check() -> CheckSpec {
        let plan = fig8_plan();
        CheckSpec {
            workflow: plan.workflow,
            input_configs: plan.input_configs,
            nodes: Some(4),
            records: Some(1000),
            args: plan.args,
            ..Default::default()
        }
    }

    #[test]
    fn parse_args_happy_path() {
        let spec = parse_run("--nodes 8 --arg num_partitions=16").unwrap();
        assert_eq!(spec.nodes, 8);
        assert_eq!(spec.args["num_partitions"], "16");
        assert_eq!(spec.out_dir, PathBuf::from("d"));
    }

    #[test]
    fn parse_args_chaos_flags() {
        let spec = parse_run(
            "--faults crash=1,straggler=2 --fault-seed 99 --replication 2 --max-retries 5 \
             --threads 4",
        )
        .unwrap();
        assert_eq!(spec.faults.as_deref(), Some("crash=1,straggler=2"));
        assert_eq!(spec.fault_seed, 99);
        assert_eq!(spec.replication, 2);
        assert_eq!(spec.max_retries, 5);
        assert_eq!(spec.threads, Some(4));
        // Defaults: no profiling, no trace export.
        assert!(!spec.profile);
        assert!(spec.trace_out.is_none());
        // Defaults: fault-free, no replication, 3 attempts.
        let spec = parse_run("").unwrap();
        assert!(spec.faults.is_none());
        assert_eq!(spec.replication, 0);
        assert_eq!(spec.max_retries, 3);
        // Default: let the engine pick its thread count.
        assert!(spec.threads.is_none());
    }

    #[test]
    fn parse_args_observability_flags() {
        let spec = parse_run("--profile --trace trace.json").unwrap();
        assert!(spec.profile);
        assert_eq!(spec.trace_out, Some(PathBuf::from("trace.json")));
        // --trace requires a path.
        let e = parse_run("--trace").unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        let parse = |line| parse_args(argv(line));
        assert!(parse("--nodes x").is_err());
        let e = parse("--nodes 0").unwrap_err();
        assert!(e.to_string().contains("positive integer"), "{e}");
        assert!(parse("--arg noequals").is_err());
        assert!(parse("--bogus").is_err());
        // Chaos flags validate eagerly.
        let e = parse("--faults meteor=1").unwrap_err();
        assert!(e.to_string().contains("unknown fault kind"), "{e}");
        assert!(parse("--fault-seed x").is_err());
        assert!(parse("--replication -1").is_err());
        let e = parse("--max-retries 0").unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
        let e = parse("--threads 0").unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
        assert!(parse("--threads x").is_err());
        // Missing required flags.
        assert!(parse("").is_err());
        let e = parse("--input-config a --workflow b --data c").unwrap_err();
        assert!(e.to_string().contains("--out"), "{e}");
    }

    #[test]
    fn parse_args_checkpoint_flags() {
        // Defaults: no checkpointing.
        let spec = parse_run("").unwrap();
        assert!(spec.checkpoint.is_none());
        assert!(!spec.resume);
        // --checkpoint writes; --resume reads and writes.
        let spec = parse_run("--checkpoint run1").unwrap();
        assert_eq!(spec.checkpoint, Some(PathBuf::from("run1")));
        assert!(!spec.resume);
        let spec = parse_run("--resume run1").unwrap();
        assert_eq!(spec.checkpoint, Some(PathBuf::from("run1")));
        assert!(spec.resume);
        // Naming the same dir twice is fine; different dirs conflict.
        let spec = parse_run("--checkpoint run1 --resume run1").unwrap();
        assert!(spec.resume);
        let e = parse_run("--checkpoint run1 --resume run2").unwrap_err();
        assert!(e.to_string().contains("different directories"), "{e}");
        let e = parse_run("--resume run2 --checkpoint run1").unwrap_err();
        assert!(e.to_string().contains("different directories"), "{e}");
        // Both flags need a value.
        assert!(parse_run("--checkpoint").is_err());
        assert!(parse_run("--resume").is_err());
    }

    #[test]
    fn parse_args_toggle_flags_default_off() {
        let spec = parse_run("").unwrap();
        assert!(!spec.no_fuse, "fusion is on by default");
        assert!(!spec.adaptive, "the literal knobs are the default");
        assert!(parse_run("--no-fuse").unwrap().no_fuse);
        assert!(parse_run("--adaptive").unwrap().adaptive);
        assert!(!parse_run("--adaptive --no-adaptive").unwrap().adaptive);
    }

    #[test]
    fn submit_parses_the_job_flags_run_does() {
        let job_flags = "--input-config /x/in.xml --workflow /x/wf.xml --data /x/d.bin \
                         --out /x/parts --nodes 8 --records 500 --arg b=2 --arg a=1 \
                         --threads 2 --no-fuse --adaptive";
        let run = parse_args(argv(job_flags)).unwrap();
        let submit = parse_submit_args(argv("--socket s --detach").chain(argv(job_flags))).unwrap();
        assert!(submit.detach && !submit.shutdown);
        // One handler, one conversion: the submitted job is the run's.
        assert_eq!(submit.job, run.job());
        assert_eq!(submit.job.nodes, 8);
        assert_eq!(submit.job.records, Some(500));
        assert_eq!(submit.job.threads, Some(2));
        assert_eq!(
            submit.job.args,
            vec![("a".into(), "1".into()), ("b".into(), "2".into())],
            "arguments travel sorted"
        );
        // Submit-only and run-only flags stay with their subcommand.
        assert!(parse_run("--detach").is_err());
        let parse = |line| parse_submit_args(argv(line));
        let e = parse("--socket s").unwrap_err();
        assert!(e.to_string().contains("--input-config is required"), "{e}");
        assert!(parse("--socket s --shutdown").unwrap().shutdown);
        assert!(parse("--socket s --profile").is_err());
        assert!(parse("--threads 0").is_err());
    }

    #[test]
    fn parse_plan_args_happy_path() {
        let spec = parse_plan_args(argv(
            "--workflow wf.xml --input-config in.xml --nodes 8 --arg num_partitions=16 \
             --no-fuse --explain",
        ))
        .unwrap();
        assert_eq!(spec.workflow, PathBuf::from("wf.xml"));
        assert_eq!(spec.input_configs, vec![PathBuf::from("in.xml")]);
        assert_eq!(spec.nodes, 8);
        assert_eq!(spec.args["num_partitions"], "16");
        assert!(spec.no_fuse);
        assert!(spec.explain);
        // Defaults.
        let spec = parse_plan_args(argv("--workflow w")).unwrap();
        assert_eq!(spec.nodes, 4);
        assert!(!spec.no_fuse);
        assert!(!spec.explain);
    }

    #[test]
    fn parse_plan_args_rejects_bad_input() {
        let parse = |line| parse_plan_args(argv(line));
        let e = parse("").unwrap_err();
        assert!(e.to_string().contains("--workflow"), "{e}");
        assert!(parse("--workflow w --nodes 0").is_err());
        assert!(parse("--workflow w --arg noequals").is_err());
        assert!(parse("--workflow w --bogus").is_err());
    }

    #[test]
    fn run_plan_explains_fusion_on_the_blast_example() {
        let spec = fig8_plan();
        let fused = run_plan(&spec).unwrap();
        assert_eq!((fused.logical_jobs, fused.stages), (2, 1));
        assert!(fused.fused);
        assert!(fused.output.contains("L0+L1"), "{}", fused.output);
        assert!(
            fused.output.contains("streams '/user/sort_output'"),
            "{}",
            fused.output
        );
        let unfused = run_plan(&PlanSpec {
            no_fuse: true,
            ..spec.clone()
        })
        .unwrap();
        assert_eq!((unfused.logical_jobs, unfused.stages), (2, 2));
        assert!(!unfused.fused);
        assert!(unfused.output.contains("--no-fuse"), "{}", unfused.output);
        // The one-line summary without --explain still counts stages.
        let summary = run_plan(&PlanSpec {
            explain: false,
            ..spec
        })
        .unwrap();
        assert!(
            summary
                .output
                .contains("2 logical job(s) -> 1 physical stage(s)"),
            "{}",
            summary.output
        );
    }

    #[test]
    fn parse_check_args_happy_path() {
        let spec = parse_check_args(argv(
            "--workflow wf.xml --input-config a.xml --input-config b.xml --nodes 8 \
             --arg num_partitions=16 --format json",
        ))
        .unwrap();
        assert_eq!(spec.workflow, PathBuf::from("wf.xml"));
        assert_eq!(spec.input_configs.len(), 2);
        assert_eq!(spec.nodes, Some(8));
        assert!(spec.replication.is_none());
        assert_eq!(spec.args["num_partitions"], "16");
        assert!(spec.json);
    }

    #[test]
    fn parse_check_args_rejects_bad_input() {
        let parse = |line| parse_check_args(argv(line));
        // --workflow is the only required flag.
        let e = parse("").unwrap_err();
        assert!(e.to_string().contains("--workflow"), "{e}");
        assert!(parse("--workflow w --format yaml").is_err());
        assert!(parse("--workflow w --nodes x").is_err());
        assert!(parse("--workflow w --arg noequals").is_err());
        assert!(parse("--workflow w --bogus").is_err());
    }

    #[test]
    fn parse_check_args_bounds_flags() {
        let parse = |line| parse_check_args(argv(line));
        let spec = parse(
            "--workflow wf.xml --bounds --records 1000 --distinct-keys 7 --skew-ratio 2.5 \
             --deny-warnings",
        )
        .unwrap();
        assert!(spec.bounds);
        assert!(spec.deny_warnings);
        assert_eq!(spec.records, Some(1000));
        assert_eq!(spec.distinct_keys, Some(7));
        assert_eq!(spec.skew_ratio, Some(2.5));
        // Defaults: bounds analysis and warning promotion are opt-in.
        let spec = parse("--workflow w").unwrap();
        assert!(!spec.bounds);
        assert!(!spec.deny_warnings);
        assert!(spec.skew_ratio.is_none());
        assert!(spec.distinct_keys.is_none());
        // Ratios below 1 or non-numeric are rejected.
        assert!(parse("--workflow w --skew-ratio 0.5").is_err());
        assert!(parse("--workflow w --skew-ratio x").is_err());
        assert!(parse("--workflow w --distinct-keys x").is_err());
    }

    #[test]
    fn run_check_bounds_prints_the_stage_table_on_fig8() {
        let spec = CheckSpec {
            bounds: true,
            ..fig8_check()
        };
        let report = run_check(&spec).unwrap();
        assert_eq!(report.errors, 0, "{}", report.output);
        // The per-stage table shows the fused stage with exact counts.
        assert!(report.output.contains("max-load"), "{}", report.output);
        assert!(report.output.contains("sort+distr"), "{}", report.output);
        assert!(report.output.contains("1000"), "{}", report.output);
    }

    #[test]
    fn run_check_deny_warnings_promotes_to_errors() {
        let base = fig8_check();
        // Fig 8 is warnings-only (W004 + W006): exit would be 0.
        let report = run_check(&base).unwrap();
        assert_eq!(report.errors, 0, "{}", report.output);
        assert!(report.warnings > 0, "{}", report.output);
        // --deny-warnings flips the same findings to error severity.
        let strict = CheckSpec {
            deny_warnings: true,
            ..base
        };
        let report = run_check(&strict).unwrap();
        assert_eq!(report.warnings, 0, "{}", report.output);
        assert!(report.errors > 0, "{}", report.output);
        assert!(report.output.contains("error[W0"), "{}", report.output);
    }

    #[test]
    fn run_plan_explain_appends_the_bounds_table() {
        let spec = PlanSpec {
            records: Some(640),
            ..fig8_plan()
        };
        let report = run_plan(&spec).unwrap();
        assert!(report.output.contains("static bounds"), "{}", report.output);
        assert!(report.output.contains("max-load"), "{}", report.output);
        assert!(report.output.contains("640"), "{}", report.output);
        // Without --records the table still prints, with ? for unknowns.
        let report = run_plan(&PlanSpec {
            records: None,
            ..spec
        })
        .unwrap();
        assert!(report.output.contains("[0, ?]"), "{}", report.output);
    }

    #[test]
    fn run_check_reports_errors_without_reading_data() {
        let dir = std::env::temp_dir().join(format!("papar-check-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wf = dir.join("wf.xml");
        std::fs::write(
            &wf,
            r#"<workflow id="w" name="n">
  <operators>
    <operator id="s" operator="Sort">
      <param name="inputPath" type="String" value="$missing"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="k"/>
    </operator>
  </operators>
</workflow>"#,
        )
        .unwrap();
        let spec = CheckSpec {
            workflow: wf,
            ..Default::default()
        };
        let report = run_check(&spec).unwrap();
        assert!(report.errors > 0);
        assert!(report.output.contains("P001"), "{}", report.output);
        // JSON mode round-trips through the parser.
        let json_spec = CheckSpec { json: true, ..spec };
        let report = run_check(&json_spec).unwrap();
        assert!(papar_check::json::from_json(&report.output).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_files_are_reported_with_paths() {
        let spec = RunSpec {
            input_config: "/nonexistent/in.xml".into(),
            workflow: "/nonexistent/wf.xml".into(),
            data: "/nonexistent/d".into(),
            out_dir: std::env::temp_dir(),
            nodes: 2,
            args: HashMap::new(),
            records: None,
            ..Default::default()
        };
        let e = run(&spec).unwrap_err();
        assert!(e.to_string().contains("/nonexistent/in.xml"), "{e}");
    }
}
