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
//! binary; `main.rs` is one dispatch table over the `parse_*`/`run*`
//! pairs here. Each subcommand's flags are the rows of one table, which
//! its parser and its `--help` both read, so the two cannot drift.
//!
//! The pipeline itself lives in [`papar_serve::job`], once: [`run`] is
//! load → compile → fresh cluster (+ fault plan, replication, retries,
//! checkpoint salt) → run → trace/profile → emit → [`RunSummary`] over
//! those stage functions, `papar serve` wraps the same calls in its
//! caches, and [`run_plan`] reuses compile's argument defaulting and its
//! decision → lower → verify tail; a run's summary lines and a served
//! job's come from [`job::render_summary`]. What stays here is what a
//! front-end owns: the spec types, the flag tables, and the rest of its
//! output.

use papar_config::{InputConfig, WorkflowConfig};
use papar_core::exec::{CheckpointCfg, ExecOptions, WorkflowReport};
use papar_mr::ChaosSpec;
use papar_serve::cache::CachedPlan;
use papar_serve::{job, JobSpec};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

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
    /// pre-pass over the input prices the sort's reducer ladder against
    /// the literal reducer count, and a rung that is no heavier and
    /// cheaper replaces it. Output bytes are identical either way (the
    /// reducer count is output-neutral there); `--no-adaptive` names the
    /// default explicitly.
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
    /// Per-job lines: `(job id, simulated time, shuffled bytes, the
    /// shuffle's lower bound)` (see `JobStats::shuffle_lo`).
    pub jobs: Vec<(String, std::time::Duration, u64, u64)>,
    /// Faults that fired during the run.
    pub faults_injected: u32,
    /// Rendered fault/recovery log lines, in order.
    pub recovery_log: Vec<String>,
    /// Rendered per-phase breakdown table (present with `--profile`).
    pub profile: Option<String>,
    /// The Chrome trace-event file written (present with `--trace`).
    pub trace_file: Option<PathBuf>,
    /// Rendered adaptive-planner rationale (present with `--adaptive`).
    pub rationale: Option<String>,
    /// Lines for stderr: the static analysis's warnings, then any corrupt
    /// or torn checkpoint data found (and recomputed) while resuming.
    pub warnings: Vec<String>,
    /// The summary as `papar run` prints it on stdout.
    pub output: String,
}

/// Why a subcommand stopped short of success. `main.rs` gives each kind
/// its stream and exit code.
#[derive(Debug)]
pub enum CliError {
    /// `-h` or `--help` was given: the help text (stdout, exit 0).
    Help(String),
    /// The command line is wrong (stderr, exit 2).
    Usage(String),
    /// The command ran and failed (stderr, exit 1; `check` exits 2).
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (CliError::Help(text) | CliError::Usage(text) | CliError::Failed(text)) = self;
        f.write_str(text)
    }
}

impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError::Failed(msg.into())
}

/// One flag of a subcommand. Its parser arm, its synopsis word and its
/// option-list line all derive from this row.
struct Flag<S> {
    name: &'static str,
    /// How the flag's value is shown; empty for a switch, which takes none.
    metavar: &'static str,
    /// The option-list line; empty keeps the flag to the synopsis.
    help: &'static str,
    /// Stores the value (empty for a switch), refusing what the flag
    /// does not accept.
    set: fn(&mut S, Value) -> Result<(), String>,
    /// Whether the flag must be given, asked of the parsed spec.
    needed: fn(&S) -> bool,
}

/// An optional flag.
const fn flag<S>(
    name: &'static str,
    metavar: &'static str,
    help: &'static str,
    set: fn(&mut S, Value) -> Result<(), String>,
) -> Flag<S> {
    Flag {
        name,
        metavar,
        help,
        set,
        needed: |_| false,
    }
}

/// `flag`, made one that must always be given.
const fn required<S>(flag: Flag<S>) -> Flag<S> {
    Flag {
        needed: |_| true,
        ..flag
    }
}

/// A flag's value, with the flag's name for the messages that refuse it.
struct Value {
    flag: &'static str,
    text: String,
}

impl Value {
    /// The value as an integer that may be zero.
    fn count<T: std::str::FromStr>(self) -> Result<T, String> {
        let Value { flag, text } = self;
        text.parse()
            .map_err(|_| format!("{flag} wants a non-negative integer, got '{text}'"))
    }

    /// The value as an integer that is at least one.
    fn positive<T: std::str::FromStr + Default + PartialEq>(self) -> Result<T, String> {
        let Value { flag, text } = self;
        match text.parse::<T>() {
            Ok(n) if n != T::default() => Ok(n),
            _ => Err(format!("{flag} wants a positive integer, got '{text}'")),
        }
    }

    /// The value as one `key=value` workflow argument, into `args`.
    /// Workflow arguments bind exactly once; a repeated key is refused
    /// naming both values, so a typo'd sweep (`--arg num_partitions=4 ...
    /// --arg num_partitions=8`) is an error, not a surprise binding.
    fn insert_arg(self, args: &mut HashMap<String, String>) -> Result<(), String> {
        let Value { flag, text } = self;
        let (k, v) = text
            .split_once('=')
            .ok_or_else(|| format!("{flag} wants key=value, got '{text}'"))?;
        if let Some(prev) = args.get(k) {
            return Err(format!(
                "{flag} '{k}' given twice: '{prev}' then '{v}' (each workflow argument \
                 binds exactly once)"
            ));
        }
        args.insert(k.to_string(), v.to_string());
        Ok(())
    }
}

/// A subcommand's grammar: its flag rows and the one paragraph of prose
/// its `--help` carries. The parser and the rest of `--help` derive from
/// the rows.
struct Command<S: 'static> {
    /// How the synopsis names the subcommand.
    name: &'static str,
    /// The spec with every default in place.
    init: fn() -> S,
    /// The rows in synopsis order: the subcommand's own and any shared
    /// slice.
    flags: &'static [&'static [Flag<S>]],
    /// The one positional operand (`papar status`'s job id), as a row
    /// named by its metavar.
    operand: Option<Flag<S>>,
    about: &'static str,
}

impl<S> Command<S> {
    fn rows(&self) -> impl Iterator<Item = &Flag<S>> {
        self.flags.iter().flat_map(|rows| rows.iter())
    }

    /// Parse a command line against the rows. `-h` or `--help` where a
    /// flag may stand asks for the help text; anything else amiss is a
    /// usage error. An empty value does not give a required flag.
    fn parse(&self, mut argv: impl Iterator<Item = String>) -> Result<S, CliError> {
        let usage = |msg: String| CliError::Usage(format!("{msg}\n{}", self.help()));
        let mut spec = (self.init)();
        let mut given = Vec::new();
        while let Some(token) = argv.next() {
            if token == "-h" || token == "--help" {
                return Err(CliError::Help(self.help()));
            }
            let Some(flag) = self.rows().find(|f| f.name == token) else {
                match &self.operand {
                    Some(op) => (op.set)(
                        &mut spec,
                        Value {
                            flag: op.name,
                            text: token,
                        },
                    )
                    .map_err(usage)?,
                    None => return Err(usage(format!("unknown flag '{token}'"))),
                }
                continue;
            };
            let text = match flag.metavar {
                "" => String::new(),
                _ => (argv.next())
                    .ok_or_else(|| CliError::Usage(format!("{} needs a value", flag.name)))?,
            };
            if !text.is_empty() {
                given.push(flag.name);
            }
            let value = Value {
                flag: flag.name,
                text,
            };
            (flag.set)(&mut spec, value).map_err(CliError::Usage)?;
        }
        let missing = self
            .rows()
            .find(|f| (f.needed)(&spec) && !given.contains(&f.name));
        match missing {
            Some(flag) => Err(usage(format!("{} is required", flag.name))),
            None => Ok(spec),
        }
    }

    /// `--help`: the synopsis, the prose, then the flags that have a help
    /// line.
    fn help(&self) -> String {
        // The synopsis brackets every flag the default spec does not need.
        let defaults = (self.init)();
        let word = |f: &Flag<S>| format!("{} {}", f.name, f.metavar).trim_end().to_string();
        let operand = self.operand.as_ref().map(|op| format!("[{}]", op.name));
        let synopsis = self.rows().map(|f| match (f.needed)(&defaults) {
            true => word(f),
            false => format!("[{}]", word(f)),
        });
        let lead = format!("usage: papar {}", self.name);
        let indent = lead.len() + 1;
        let synopsis = fill(lead, indent, operand.into_iter().chain(synopsis));
        let mut help = format!("{synopsis}\n\n{}\n", self.about);
        for f in self.rows().filter(|f| !f.help.is_empty()) {
            let _ = write!(help, "\n  {:<19} {}", word(f), f.help);
        }
        help.trim_end().to_string()
    }
}

/// `lead`, then `words` space-separated and wrapped within 80 columns;
/// continuation lines start at column `indent`.
fn fill(mut out: String, indent: usize, words: impl IntoIterator<Item = String>) -> String {
    let mut column = out.len();
    for word in words {
        if column > indent && column + 1 + word.len() > 80 {
            out.push('\n');
            column = 0;
        }
        let pad = if column == 0 { indent } else { 1 };
        let _ = write!(out, "{:pad$}{word}", "");
        column += pad + word.len();
    }
    out
}

/// What `papar run` and `papar submit` parse into: the job rows they
/// share fill `job`, and `papar submit`'s own rows fill `submit`.
#[derive(Default)]
struct JobArgs {
    job: RunSpec,
    submit: SubmitSpec,
}

/// `flag`, one of a job's four paths: required unless the command line
/// asks the daemon to shut down instead of running a job.
const fn job_path(flag: Flag<JobArgs>) -> Flag<JobArgs> {
    Flag {
        needed: |a| !a.submit.shutdown,
        ..flag
    }
}

/// The job rows `papar run` and `papar submit` share. Node and thread
/// counts are held to the `u32` the wire protocol carries, so a count
/// `papar submit` would have to refuse is refused by `papar run` too.
#[rustfmt::skip]
const JOB_FLAGS: &[Flag<JobArgs>] = &[
    job_path(flag("--input-config", "<xml>", "",
        |a, v| { a.job.input_config = v.text.into(); Ok(()) })),
    job_path(flag("--workflow", "<xml>", "",
        |a, v| { a.job.workflow = v.text.into(); Ok(()) })),
    job_path(flag("--data", "<file>", "", |a, v| { a.job.data = v.text.into(); Ok(()) })),
    job_path(flag("--out", "<dir>", "", |a, v| { a.job.out_dir = v.text.into(); Ok(()) })),
    flag("--nodes", "N", "simulated cluster size (default 4)",
        |a, v| { a.job.nodes = v.positive::<u32>()? as usize; Ok(()) }),
    flag("--records", "N", "records to read from a binary input (default: all)",
        |a, v| { a.job.records = Some(v.count()?); Ok(()) }),
    flag("--arg", "key=value", "bind a workflow argument (once per key)",
        |a, v| v.insert_arg(&mut a.job.args)),
    flag("--threads", "N", "OS threads (default: PAPAR_THREADS or all cores)",
        |a, v| { a.job.threads = Some(v.positive::<u32>()? as usize); Ok(()) }),
    flag("--no-fuse", "", "run each logical job as its own MR job",
        |a, _| { a.job.no_fuse = true; Ok(()) }),
    flag("--adaptive", "", "let the cost-based planner choose the sort's reducer count",
        |a, _| { a.job.adaptive = true; Ok(()) }),
    flag("--no-adaptive", "", "keep the configured knobs (the default)",
        |a, _| { a.job.adaptive = false; Ok(()) }),
];

/// `papar run`: the job rows, then what only a one-shot run takes.
#[rustfmt::skip]
const RUN: Command<JobArgs> = Command {
    name: "[run]",
    init: || JobArgs { job: RunSpec { nodes: 4, ..Default::default() }, ..Default::default() },
    flags: &[JOB_FLAGS, &[
        // Validated now, so a typo is heard before any data is read.
        flag("--faults", "SPEC", "inject faults, e.g. crash=1,drop=2,corrupt=1,straggler=1",
            |a, v| { ChaosSpec::parse(&v.text).map_err(|e| e.to_string())?;
                     a.job.faults = Some(v.text); Ok(()) }),
        flag("--fault-seed", "N", "seed for fault placement (default 0)",
            |a, v| { a.job.fault_seed = v.count()?; Ok(()) }),
        flag("--replication", "N", "replicas per fragment (default 0)",
            |a, v| { a.job.replication = v.count()?; Ok(()) }),
        flag("--max-retries", "N", "executions per task before aborting (default 3)",
            |a, v| { a.job.max_retries = v.positive()?; Ok(()) }),
        flag("--profile", "", "print a per-phase virtual-time breakdown",
            |a, _| { a.job.profile = true; Ok(()) }),
        flag("--trace", "<file>", "write a Chrome trace-event JSON span tree",
            |a, v| { a.job.trace_out = Some(v.text.into()); Ok(()) }),
        flag("--checkpoint", "<dir>", "publish each completed stage durably into <dir>",
            |a, v| a.job.checkpoint_dir(v, false)),
        flag("--resume", "<dir>", "restore <dir>'s completed stages, re-run the rest",
            |a, v| a.job.checkpoint_dir(v, true)),
    ]],
    operand: None,
    about: "\
Runs the PaPar partitioning workflow described by the two configuration
documents over the data file, on an N-node simulated cluster, and writes
one file per partition into the output directory. The partition bytes do
not depend on --threads, --no-fuse or --adaptive: threads change only the
wall-clock time, fusion only job counts and shuffle traffic, and the
adaptive planner (a sampling pre-pass, reducer counts priced by the cost
model, the rationale printed) chooses the sort's reducer count only where
it is output-neutral. Faults are seeded; crashes need --replication 1 or
more to recover, and then the partitions equal a fault-free run's. A
resumed run equals a cold one: --resume refuses with error[P020] when the
plan, input, seed or configuration changed, and recomputes corrupt or
torn checkpoint data after quarantining it (*.quarantine). The other
subcommands are check, plan, serve, submit and status; each prints its
own help.",
};

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

    /// `--checkpoint` and `--resume` name the one run directory;
    /// `--resume` also reads it.
    fn checkpoint_dir(&mut self, v: Value, resume: bool) -> Result<(), String> {
        let dir = PathBuf::from(v.text);
        if self.checkpoint.as_ref().is_some_and(|d| *d != dir) {
            return Err("--checkpoint and --resume name different directories".to_string());
        }
        self.checkpoint = Some(dir);
        self.resume |= resume;
        Ok(())
    }
}

/// Parse command-line arguments into a [`RunSpec`].
pub fn parse_args<I: Iterator<Item = String>>(argv: I) -> Result<RunSpec, CliError> {
    Ok(RUN.parse(argv)?.job)
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
        None => announced_thread_budget()?,
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

    let mut cluster = job::new_cluster(
        spec.nodes,
        threads,
        spec.replication,
        spec.max_retries.max(1),
    )
    .map_err(fail)?;
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

    let mut output = format!("read {records_in} records\n");
    job::render_summary(&mut output, &report);
    // Render/export the span tree before the partitions are written, so a
    // disk-full failure below still leaves the trace on disk for debugging.
    let mut profile = None;
    let mut trace_file = None;
    if let Some(trace) = &report.trace {
        if spec.profile {
            let rendered = render_profile(trace, &compiled, &report, spec.nodes, records_in);
            let _ = writeln!(output, "{rendered}");
            profile = Some(rendered);
        }
        if let Some(path) = &spec.trace_out {
            std::fs::write(path, papar_trace::to_chrome_json(trace))
                .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
            let _ = writeln!(
                output,
                "trace written to {} (open in chrome://tracing or Perfetto)",
                path.display()
            );
            trace_file = Some(path.clone());
        }
    }

    let files = job::emit(&compiled, &cluster, &spec.out_dir).map_err(fail)?;
    let _ = write!(output, "wrote {} partitions:", files.len());
    for f in &files {
        let _ = write!(output, "\n  {}", f.display());
    }

    let mut warnings = compiled.warnings.clone();
    warnings.extend(report.checkpoint_events.iter().cloned());
    Ok(RunSummary {
        records_in,
        files,
        jobs: report
            .jobs
            .iter()
            .map(|j| {
                let bytes = j.exchange.remote_bytes;
                (j.name.clone(), j.sim_time(), bytes, j.shuffle_lo)
            })
            .collect(),
        faults_injected: report.faults_injected(),
        recovery_log: (report.recovery_events.iter())
            .map(|e| e.to_string())
            .collect(),
        profile,
        trace_file,
        rationale: report.rationale.as_ref().map(|r| r.render()),
        warnings,
        output,
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
    // Path arguments bind to placeholders, as `papar plan` binds them:
    // the analysis never reads data, and its one binding pass yields the
    // plan `--bounds` interprets.
    let workflow = WorkflowConfig::parse_str_unchecked(&workflow_xml).ok();
    let mut args = spec.args.clone();
    if let Some(wf) = &workflow {
        job::default_path_args(wf, &mut args, PLAN_INPUT, PLAN_OUTPUT);
    }
    let ctx = papar_check::CheckContext {
        args,
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

    let mut bounds_table = None;
    if spec.bounds && !analysis.has_errors() {
        let (Some(wf), Some(plan)) = (&workflow, &analysis.plan) else {
            return Err(fail(
                "--bounds needs the workflow to bind; pass the missing --arg values",
            ));
        };
        let nodes = spec.nodes.unwrap_or(4);
        let phys = papar_core::physplan::lower(plan, nodes, None, true);
        let report = papar_check::analyze_bounds(
            wf,
            plan,
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

/// `papar check`.
#[rustfmt::skip]
const CHECK: Command<CheckSpec> = Command {
    name: "check",
    init: CheckSpec::default,
    flags: &[&[
        required(flag("--workflow", "<xml>", "", |a, v| { a.workflow = v.text.into(); Ok(()) })),
        flag("--input-config", "<xml>", "",
            |a, v| { a.input_configs.push(v.text.into()); Ok(()) }),
        flag("--nodes", "N", "", |a, v| { a.nodes = Some(v.positive()?); Ok(()) }),
        flag("--replication", "N", "", |a, v| { a.replication = Some(v.count()?); Ok(()) }),
        flag("--records", "N", "", |a, v| { a.records = Some(v.count()?); Ok(()) }),
        flag("--arg", "key=value", "", |a, v| v.insert_arg(&mut a.args)),
        flag("--format", "text|json", "",
            |a, v| match v.text.as_str() {
                "text" | "json" => { a.json = v.text == "json"; Ok(()) }
                other => Err(format!("{} wants 'text' or 'json', got '{other}'", v.flag)),
            }),
        flag("--bounds", "", "propagate interval bounds through every stage",
            |a, _| { a.bounds = true; Ok(()) }),
        flag("--distinct-keys", "N", "bound on any input field's distinct values",
            |a, v| { a.distinct_keys = Some(v.count()?); Ok(()) }),
        flag("--skew-ratio", "R", "W008 threshold over the fair share (default 4.0)",
            |a, v| match v.text.parse::<f64>() {
                Ok(r) if r.is_finite() && r >= 1.0 => { a.skew_ratio = Some(r); Ok(()) }
                Ok(_) => Err(format!("{} wants a number >= 1, got '{}'", v.flag, v.text)),
                Err(_) => Err(format!("{} wants a number, got '{}'", v.flag, v.text)),
            }),
        flag("--deny-warnings", "", "promote warnings to errors",
            |a, _| { a.deny_warnings = true; Ok(()) }),
    ]],
    operand: None,
    about: "\
Statically analyzes the workflow without reading any data: dataflow over
$variable references, schema inference through every operator, distribution
legality, and determinism lints. Arguments left unbound are analyzed
symbolically; the conventional path arguments bind to placeholders, as in
`papar plan`. --bounds interprets the physical plan over intervals: a
per-stage table of record/byte/distinct-key/max-load bounds, and the
findings P021 (reducers that can never receive a key; needs
--distinct-keys), W007, W008 (a stage whose worst-case partition load
exceeds --skew-ratio times the fair share) and W009. --records N makes
source counts exact; unhinted sources stay [0, ?]. Exit code 0 when clean
or warnings only, 1 when any error-severity diagnostic is found (any
diagnostic with --deny-warnings), 2 on usage errors or when a document
cannot be read.",
};

/// Parse `papar check` arguments into a [`CheckSpec`].
pub fn parse_check_args<I: Iterator<Item = String>>(argv: I) -> Result<CheckSpec, CliError> {
    CHECK.parse(argv)
}

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
    /// the `--explain` bound columns exact instead of `[0, ?]`, and bounds
    /// the binary region read from [`PlanSpec::data`].
    pub records: Option<u64>,
    /// Run the adaptive planner and print its rationale (`--adaptive`).
    /// With [`PlanSpec::data`] set, the real sampling pre-pass feeds it;
    /// without data it keeps the literal plan.
    pub adaptive: bool,
    /// Input data file to sample for `--adaptive` (`--data`); loaded with
    /// the first `--input-config` into one block per node, as `papar run`
    /// loads it.
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
    let mut cfg_texts = Vec::new();
    let mut input_cfgs = Vec::new();
    for p in &spec.input_configs {
        let text = job::read_text(p).map_err(fail)?;
        input_cfgs.push(
            InputConfig::parse_str(&text).map_err(|e| fail(format!("{}: {e}", p.display())))?,
        );
        cfg_texts.push(text);
    }
    let mut args = spec.args.clone();
    job::default_path_args(&workflow, &mut args, PLAN_INPUT, PLAN_OUTPUT);
    let ctx = papar_check::CheckContext {
        args,
        ..Default::default()
    };
    let label = spec.workflow.display().to_string();
    let (plan, _warnings) = job::bind(&label, &workflow, &input_cfgs, &ctx).map_err(fail)?;

    // Adaptive planning samples the data file when one is given. It is
    // loaded as `papar run` loads it (the first input config, `--records`,
    // one block per node), so both sample the same fragments and print
    // the same rationale. The rationale prints after the plan and the
    // bound table reflects the chosen reducer counts.
    let options = ExecOptions {
        fuse: !spec.no_fuse,
        adaptive: spec.adaptive,
        ..ExecOptions::default()
    };
    let sample = match (&spec.data, spec.input_configs.first(), cfg_texts.first()) {
        (Some(data), Some(cfg_path), Some(cfg_text)) if spec.adaptive => {
            let request = JobSpec {
                input_config: cfg_path.display().to_string(),
                data: data.display().to_string(),
                nodes: u32::try_from(spec.nodes).unwrap_or(u32::MAX),
                records: spec.records,
                ..JobSpec::default()
            };
            Some(job::load(&request, cfg_text, 1).map_err(fail)?)
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

/// `papar plan`.
#[rustfmt::skip]
const PLAN: Command<PlanSpec> = Command {
    name: "plan",
    init: PlanSpec::default,
    flags: &[&[
        required(flag("--workflow", "<xml>", "", |a, v| { a.workflow = v.text.into(); Ok(()) })),
        flag("--input-config", "<xml>", "",
            |a, v| { a.input_configs.push(v.text.into()); Ok(()) }),
        flag("--nodes", "N", "", |a, v| { a.nodes = v.positive()?; Ok(()) }),
        flag("--arg", "key=value", "", |a, v| v.insert_arg(&mut a.args)),
        flag("--no-fuse", "", "show the unfused plan", |a, _| { a.no_fuse = true; Ok(()) }),
        flag("--explain", "", "print the full logical-to-physical mapping",
            |a, _| { a.explain = true; Ok(()) }),
        flag("--records", "N", "make the bound table's source counts exact; bound the --data read",
            |a, v| { a.records = Some(v.count()?); Ok(()) }),
        flag("--adaptive", "", "choose the sort's reducer count and print the rationale",
            |a, _| { a.adaptive = true; Ok(()) }),
        flag("--no-adaptive", "", "keep the configured knobs (the default)",
            |a, _| { a.adaptive = false; Ok(()) }),
        flag("--data", "<file>", "sample this file for --adaptive",
            |a, v| { a.data = Some(v.text.into()); Ok(()) }),
    ]],
    operand: None,
    about: "\
Binds the workflow and lowers it to the physical plan `papar run` would
execute, without reading any data. --explain prints every logical job and
every physical stage with its fusion and streaming annotations, followed
by the static bound table (record/pair/max-load intervals per stage).
--adaptive prints the planner's rationale: every reducer count considered,
every rejection and its reason, and the winner's predicted cost. --data
is loaded as `papar run` loads it (the first --input-config, --records,
one block per node), so both print the same rationale; without --data it
keeps the literal plan. Conventional path arguments (input_path, input_file,
output_path) default to placeholders. The workflow binds through the
analysis `papar check` runs, so plan refuses what `papar run` refuses, with
the same diagnostics. Exit code 0 on success, 1 when binding or
physical-plan verification fails, 2 on usage errors.",
};

/// Parse `papar plan` arguments into a [`PlanSpec`].
pub fn parse_plan_args<I: Iterator<Item = String>>(argv: I) -> Result<PlanSpec, CliError> {
    PLAN.parse(argv)
}

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

/// `papar serve`.
#[rustfmt::skip]
const SERVE: Command<ServeSpec> = Command {
    name: "serve",
    init: ServeSpec::default,
    flags: &[&[
        required(flag("--socket", "<path|tcp:HOST:PORT>", "(tcp:127.0.0.1:0 picks a free port)",
            |a, v| { a.socket = v.text; Ok(()) })),
        flag("--queue", "N", "admission limit on pending jobs (default 32)",
            |a, v| { a.queue_capacity = v.positive()?; Ok(()) }),
        flag("--plan-cache", "N", "compiled plans kept resident (default 16)",
            |a, v| { a.plan_cache = v.positive()?; Ok(()) }),
        flag("--data-cache", "N", "decoded input files kept resident (default 8)",
            |a, v| { a.data_cache = v.positive()?; Ok(()) }),
    ]],
    operand: None,
    about: "\
Runs the resident partitioning daemon: compiled plans and decoded input
files stay cached between requests (LRU, keyed by the plan fingerprint),
and jobs execute one at a time on a resident cluster — output bytes are
identical to one-shot `papar run`. Submit work with `papar submit`, follow
it with `papar status`. Submits beyond the queue limit are refused with a
typed queue-full error. SIGTERM/SIGINT (or a shutdown request from `papar
submit`) drains the queue and exits cleanly.",
};

/// Parse `papar serve` arguments into a [`ServeSpec`].
pub fn parse_serve_args<I: Iterator<Item = String>>(argv: I) -> Result<ServeSpec, CliError> {
    SERVE.parse(argv)
}

/// The default engine thread budget ([`papar_mr::default_thread_budget`]),
/// announced with its source on stderr the first time this process
/// resolves it.
fn announced_thread_budget() -> Result<usize, CliError> {
    static ANNOUNCE: std::sync::Once = std::sync::Once::new();
    let (threads, source) = papar_mr::default_thread_budget().map_err(|e| fail(e.to_string()))?;
    ANNOUNCE.call_once(|| eprintln!("papar: engine thread budget: {threads} ({source})"));
    Ok(threads)
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
    announced_thread_budget()?;
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

/// `papar submit`: its own rows, then the job rows `papar run` takes.
#[rustfmt::skip]
const SUBMIT: Command<JobArgs> = Command {
    name: "submit",
    init: RUN.init,
    flags: &[&[
        required(flag("--socket", "<path|tcp:HOST:PORT>", "",
            |a, v| { a.submit.socket = v.text; Ok(()) })),
        flag("--detach", "", "", |a, _| { a.submit.detach = true; Ok(()) }),
        flag("--shutdown", "", "", |a, _| { a.submit.shutdown = true; Ok(()) }),
    ], JOB_FLAGS],
    operand: None,
    about: "\
Submits one partitioning job to a `papar serve` daemon. Without --detach,
blocks until the job completes and prints the same summary `papar run`
would (plus cache verdicts and the profile table); with --detach, prints
the job id immediately. --shutdown, which needs no job, asks the daemon to
drain and exit. Paths are resolved against this command's working
directory. Exit code 0 on success, 1 when the job fails or the daemon
refuses it, 2 on usage errors.",
};

/// Parse `papar submit` arguments into a [`SubmitSpec`].
pub fn parse_submit_args<I: Iterator<Item = String>>(argv: I) -> Result<SubmitSpec, CliError> {
    let JobArgs { mut job, submit } = SUBMIT.parse(argv)?;
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
    Ok(SubmitSpec {
        job: job.job(),
        ..submit
    })
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

/// `papar status`: the socket, and the job id as its one operand.
#[rustfmt::skip]
const STATUS: Command<StatusSpec> = Command {
    name: "status",
    init: StatusSpec::default,
    flags: &[&[
        required(flag("--socket", "<path|tcp:HOST:PORT>", "",
            |a, v| { a.socket = v.text; Ok(()) })),
    ]],
    operand: Some(flag("<job-id>", "", "", |a, v| {
        let id = v.text.parse().map_err(|_| format!("expected a job id, got '{}'", v.text))?;
        match a.job.replace(id) {
            Some(_) => Err("more than one job id given".to_string()),
            None => Ok(()),
        }
    })),
    about: "\
With a job id: prints the job's state — queue position while queued, or
the completed job's summary, cache verdicts, and per-phase profile table.
Without one: pings the daemon and prints its lifetime counters (jobs,
plan/data cache hits). Exit code 0 on success, 1 when the job failed or
the daemon is unreachable, 2 on usage errors.",
};

/// Parse `papar status` arguments into a [`StatusSpec`].
pub fn parse_status_args<I: Iterator<Item = String>>(argv: I) -> Result<StatusSpec, CliError> {
    STATUS.parse(argv)
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
    fn parse_check_args_refuses_zero_nodes() {
        // A 0-node cluster has no partitions to check; `run` and `plan`
        // refuse it the same way.
        let e = parse_check_args(argv("--workflow w --nodes 0")).unwrap_err();
        assert_eq!(e.to_string(), "--nodes wants a positive integer, got '0'");
        let spec = parse_check_args(argv("--workflow w --nodes 1")).unwrap();
        assert_eq!(spec.nodes, Some(1));
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
