//! The run pipeline, written once: the stage functions every front-end
//! calls, and the daemon's executor over them.
//!
//! PaPar's contract is one path — two XML documents in, a generated
//! sequence of MR jobs out — so the path exists here exactly once, as
//! four stages:
//!
//! * [`load`]: input-config text + data file (only the `--records`
//!   region of a binary file is read) → one shared [`Dataset`] fragment
//!   per node, the nodes' blocks concurrently, each as rows: a binary
//!   block is read straight into them, a text block's lines encoded into
//!   them;
//! * [`compile`]: both document texts + the job's arguments + record
//!   count and replication → [`bind`] (one `papar check` analysis, whose
//!   binder also yields the plan; any error refuses) → adaptive decision
//!   over the *borrowed* fragments → lower → physical-plan verification →
//!   fingerprint. Its result is the [`CachedPlan`], which carries the
//!   lowered plan for the front ends (the fingerprint, the profile's
//!   bound table); `WorkflowRunner::run` lowers once more itself, from
//!   the same `fuse` flag;
//! * [`run`]: compiled plan + cluster + input → runner (with the
//!   decision and an optional checkpoint) → place the fragments → run,
//!   returning the typed [`CoreError`] so a front-end can map individual
//!   failures;
//! * [`emit`]: the output fragments, borrowed where they live → codec →
//!   `partition_{i:04}.{bin,txt}`, the partitions concurrently.
//!
//! Records are decoded at most once and never deep-copied between stages;
//! rows stay bytes from the file to the partition file wherever no
//! operator needs their values. Load
//! and emit spend the job's thread budget like the engine's phases do, on
//! [`papar_mr::run_slots`]: one task per block or partition, results in
//! slot order, so their bytes (and their first error) do not depend on
//! the thread count.
//! `papar run` (`crates/cli`) calls the stages in that order on a fresh
//! [`new_cluster`], adding its own fault plan and checkpoint salt;
//! [`execute`] makes the same calls with the data LRU around `load` (its
//! fragments shared with the cluster on every hit), the plan LRU around
//! `compile`, and the resident cluster instead of a fresh one; `papar
//! plan` reuses [`default_path_args`], [`bind`] and [`lower_verified`],
//! so it refuses what a run refuses. A served job's partition files are
//! therefore byte-identical to `papar run`'s by construction;
//! `crates/cli/tests/end_to_end.rs` and the CI `serve` job check it. Both front ends print the summary lines of
//! [`render_summary`]; only their cache verdicts, stderr lines, profile
//! and trace lines stay their own.

use crate::cache::{CachedPlan, DataCache, DataKey, PlanCache};
use crate::protocol::JobSpec;
use crate::queue::JobOutcome;
use papar_config::input::InputFormat;
use papar_config::{InputConfig, WorkflowConfig};
use papar_core::adaptive::PlanDecision;
use papar_core::error::CoreError;
use papar_core::exec::{
    plan_fingerprint_with, CheckpointCfg, ExecOptions, WorkflowReport, WorkflowRunner,
};
use papar_core::physplan::{self, PhysicalPlan};
use papar_core::plan::WorkflowPlan;
use papar_mr::{Cluster, RetryPolicy};
use papar_record::batch::{block_sizes, Batch, Dataset, Rows};
use papar_record::{codec, wire, Record, Schema};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Everything the worker thread keeps alive between jobs.
pub struct Resources {
    /// The resident cluster; rebuilt only when a request asks for a
    /// different node count, [`Cluster::reset`] otherwise.
    pub cluster: Option<Cluster>,
    /// Compiled plans by fingerprint.
    pub plans: PlanCache,
    /// Decoded input files.
    pub data: DataCache,
    /// The validated startup thread budget, used when a job does not
    /// override `--threads`. Pinning it per job keeps one request's
    /// override from leaking into the next on the reused cluster.
    pub default_threads: usize,
}

impl Resources {
    /// Fresh resources with the given cache capacities.
    pub fn new(plan_cap: usize, data_cap: usize, default_threads: usize) -> Resources {
        Resources {
            cluster: None,
            plans: PlanCache::new(plan_cap),
            data: DataCache::new(data_cap),
            default_threads: default_threads.max(1),
        }
    }
}

/// Read a configuration document, naming the path on failure.
pub fn read_text(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Read an input data file per its configuration. Binary files may carry
/// payload beyond the record region: `records` bounds the region
/// explicitly; otherwise it is the longest whole-record prefix after
/// `start_position` (the paper's "treat every 16 bytes as an entry"
/// reading of Figure 4). Only the header and the region are read.
pub fn load_records(
    cfg: &InputConfig,
    schema: &Schema,
    path: &Path,
    records: Option<usize>,
) -> Result<Vec<Record>, String> {
    match cfg.format {
        InputFormat::Binary => {
            let input = BinaryInput::open(cfg, schema, path, records)?;
            let mut bytes = Vec::with_capacity((input.start + input.region) as usize);
            (&input.file)
                .take(input.start + input.region)
                .read_to_end(&mut bytes)
                .map_err(|e| cannot_read(path, e))?;
            codec::binary::read(cfg, schema, &bytes).map_err(|e| e.to_string())
        }
        InputFormat::Text => {
            codec::text::read(cfg, schema, &read_text(path)?).map_err(|e| e.to_string())
        }
    }
}

fn cannot_read(path: &Path, e: std::io::Error) -> String {
    format!("cannot read {}: {e}", path.display())
}

/// An open binary input and where its records lie.
struct BinaryInput {
    file: File,
    /// Bytes per record.
    width: usize,
    /// Byte offset of the first record (`start_position`).
    start: u64,
    /// Bytes of whole records to read after `start`.
    region: u64,
}

impl BinaryInput {
    /// Open `path` and size its record region from the file's length: the
    /// `records` bound when given (refused when the file is shorter, or
    /// the bound wraps), else every whole record after the header.
    fn open(
        cfg: &InputConfig,
        schema: &Schema,
        path: &Path,
        records: Option<usize>,
    ) -> Result<BinaryInput, String> {
        let width = match schema.binary_record_width() {
            Some(0) => return Err("binary schema has no fields".to_string()),
            Some(w) => w,
            None => return Err("binary schema has variable-width fields".to_string()),
        };
        let file = File::open(path).map_err(|e| cannot_read(path, e))?;
        let len = file.metadata().map_err(|e| cannot_read(path, e))?.len();
        let start = cfg.start_position;
        if len < start {
            return Err(format!(
                "{} is shorter than start_position {start}",
                path.display()
            ));
        }
        let available = len - start;
        let region = match records {
            // `n` arrives from outside (`--records`, a submitted spec): the
            // product must not wrap into a small region.
            Some(n) => match (n as u64)
                .checked_mul(width as u64)
                .filter(|need| *need <= available)
            {
                Some(need) => need,
                None => {
                    return Err(format!(
                        "--records {n} wants {} bytes after the header, file has {available}",
                        n as u128 * width as u128
                    ))
                }
            },
            None => available / width as u64 * width as u64,
        };
        Ok(BinaryInput {
            file,
            width,
            start,
            region,
        })
    }
}

/// Stage 1 — load: the job's data file, per its input-config document,
/// as one fragment per node, in ordinal order — the layout the cluster
/// stores, so [`run`] places them (and the daemon caches them) without
/// copying a record. The fragments are [`Rows`], never decoded: each
/// node's block of a binary record region is read straight into its own
/// exact-size buffer, and each node's block of a text input's lines is
/// encoded straight into its rows. The blocks load concurrently on up to
/// `threads` OS threads; a malformed file fails with the error a
/// whole-file read reports.
pub fn load(spec: &JobSpec, cfg_text: &str, threads: usize) -> Result<Vec<Arc<Dataset>>, String> {
    let cfg =
        InputConfig::parse_str(cfg_text).map_err(|e| format!("{}: {e}", spec.input_config))?;
    let schema = Arc::new(Schema::from_input_config(&cfg));
    let nodes = spec.nodes as usize;
    let path = Path::new(&spec.data);
    let blocks = match cfg.format {
        InputFormat::Binary => {
            let input = BinaryInput::open(&cfg, &schema, path, spec.records.map(|n| n as usize))?;
            let rows = (input.region / input.width as u64) as usize;
            let mut at = input.start;
            let spans: Vec<(u64, usize)> = block_sizes(rows, nodes)
                .map(|size| {
                    let span = (at, size * input.width);
                    at += span.1 as u64;
                    span
                })
                .collect();
            let read_block = |i: usize| -> Result<Batch, String> {
                let (offset, len) = spans[i];
                let mut bytes = vec![0; len];
                input
                    .file
                    .read_exact_at(&mut bytes, offset)
                    .map_err(|e| cannot_read(path, e))?;
                let rows = Rows::new(schema.clone(), bytes).map_err(|e| e.to_string())?;
                Ok(Batch::Rows(rows))
            };
            papar_mr::run_slots(spans.len(), threads, read_block)
        }
        InputFormat::Text => {
            let text = read_text(path)?;
            let on_threads = |blocks: usize, encode: &codec::DecodeBlock<'_>| {
                papar_mr::run_slots(blocks, threads, encode)
            };
            codec::text::read_rows_on(&cfg, &schema, &text, nodes, on_threads)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|rows| Ok::<_, String>(Batch::Rows(rows)))
                .collect()
        }
    };
    blocks
        .into_iter()
        .map(|batch| Ok(Arc::new(Dataset::new(schema.clone(), batch?))))
        .collect()
}

/// Records across a loaded input's fragments.
pub fn record_count(input: &[Arc<Dataset>]) -> usize {
    input.iter().map(|f| f.batch.record_count()).sum()
}

/// The engine options a job's toggles select. The thread budget and
/// whether to capture a span tree are the front-end's to decide.
pub fn exec_options(spec: &JobSpec, threads: Option<usize>, trace: bool) -> ExecOptions {
    ExecOptions {
        threads,
        trace,
        fuse: !spec.no_fuse,
        adaptive: spec.adaptive,
        ..ExecOptions::default()
    }
}

/// Bind the conventional path arguments a workflow declares but the
/// caller left unbound: `input_path`/`input_file` to `input`,
/// `output_path` to `output`. A run passes the data file and the output
/// directory; `papar plan`/`papar check`, which never read data, pass
/// placeholders.
pub fn default_path_args(
    workflow: &WorkflowConfig,
    args: &mut HashMap<String, String>,
    input: &str,
    output: &str,
) {
    for (name, value) in [
        ("input_path", input),
        ("input_file", input),
        ("output_path", output),
    ] {
        if workflow.argument(name).is_some() && !args.contains_key(name) {
            args.insert(name.to_string(), value.to_string());
        }
    }
}

/// The tail of compilation, shared with `papar plan`: with
/// [`ExecOptions::adaptive`], sample the external input's fragments in
/// ordinal order (when there is an input to sample) and let the
/// cost-based planner choose the sort's reducer count; lower with the
/// `fuse` flag; and pass the physical plan through the same gate as the
/// logical one.
pub fn lower_verified(
    plan: &WorkflowPlan,
    nodes: usize,
    options: &ExecOptions,
    sample: Option<&[Arc<Dataset>]>,
) -> Result<(PhysicalPlan, Option<PlanDecision>), String> {
    let decision = if options.adaptive {
        let stats = match sample {
            Some(frags) => papar_core::stats::collect_for_plan(
                plan,
                |name| {
                    (plan.external_inputs.iter().any(|(n, _)| n == name))
                        .then(|| frags.iter().map(|f| &f.batch))
                },
                options.sample_stride,
            )
            .map_err(|e| e.to_string())?,
            None => None,
        };
        Some(papar_core::adaptive::choose(
            plan,
            nodes,
            options,
            stats.as_ref(),
        ))
    } else {
        None
    };
    let phys = physplan::lower(plan, nodes, None, options.fuse);
    let divergences = papar_check::verify_physical_plan(plan, &phys, nodes, None);
    if !divergences.is_empty() {
        return Err(format!(
            "physical-plan verification failed:\n{}",
            papar_check::render_text(&divergences)
        ));
    }
    Ok((phys, decision))
}

/// The plan a launch runs, from one [`papar_check::analyze`] pass, with
/// the warnings that ride along; or the refusal it prints: every
/// error-severity diagnostic, else one `P001` per argument left without
/// a value. `papar run`, `papar plan` and served jobs all refuse through
/// here.
pub fn bind(
    label: &str,
    workflow: &WorkflowConfig,
    inputs: &[InputConfig],
    ctx: &papar_check::CheckContext,
) -> Result<(WorkflowPlan, Vec<papar_check::Diagnostic>), String> {
    let analysis = papar_check::analyze(workflow, inputs, ctx);
    // `papar check` reports the errors, but analyzes past a missing value.
    let hint = if analysis.has_errors() {
        "`papar check` re-runs this analysis standalone"
    } else {
        "pass each missing value with --arg"
    };
    analysis.into_plan().map_err(|refusal| {
        let rendered: String = refusal.iter().map(|d| format!("  {d}\n")).collect();
        format!("{label} rejected by static analysis:\n{rendered}({hint})")
    })
}

/// Stage 2 — compile: parse both documents, derive the effective
/// arguments, [`bind`] (refusing while any error stands; warnings ride
/// along on the result), decide, lower, verify, fingerprint. `input` is
/// only borrowed: its record count feeds the analysis and, with
/// `--adaptive`, the sampling pre-pass walks its fragments in place.
pub fn compile(
    spec: &JobSpec,
    cfg_text: &str,
    wf_text: &str,
    replication: usize,
    input: &[Arc<Dataset>],
    options: &ExecOptions,
) -> Result<CachedPlan, String> {
    let nodes = spec.nodes as usize;
    let input_cfg =
        InputConfig::parse_str(cfg_text).map_err(|e| format!("{}: {e}", spec.input_config))?;
    let workflow =
        WorkflowConfig::parse_str(wf_text).map_err(|e| format!("{}: {e}", spec.workflow))?;

    let mut args: HashMap<String, String> = spec.args.iter().cloned().collect();
    default_path_args(&workflow, &mut args, &spec.data, &spec.out_dir);

    let ctx = papar_check::CheckContext {
        args,
        nodes: Some(nodes),
        replication: Some(replication),
        records: Some(record_count(input)),
        ..Default::default()
    };
    let (plan, warnings) = bind(
        &spec.workflow,
        &workflow,
        std::slice::from_ref(&input_cfg),
        &ctx,
    )?;
    let warnings: Vec<String> = warnings.iter().map(|d| d.to_string()).collect();
    if plan.external_inputs.len() != 1 {
        return Err(format!(
            "the workflow expects {} external inputs; a job provides exactly one (--data)",
            plan.external_inputs.len()
        ));
    }
    let input_name = plan.external_inputs[0].0.clone();

    // The decision travels with the compiled plan, and its rationale —
    // input-statistics fingerprint included — is folded into the plan
    // fingerprint.
    let (phys, decision) = lower_verified(&plan, nodes, options, Some(input))?;
    let fingerprint = plan_fingerprint_with(
        &plan,
        &phys,
        nodes,
        options,
        decision.as_ref().map(|d| &d.rationale),
    );
    Ok(CachedPlan {
        num_jobs: plan.jobs.len(),
        plan,
        phys,
        schema: Arc::new(Schema::from_input_config(&input_cfg)),
        input_cfg,
        warnings,
        input_name,
        fingerprint,
        decision,
    })
}

/// A fresh simulated cluster of `threads` OS threads with the recovery
/// knobs set.
pub fn new_cluster(
    nodes: usize,
    threads: usize,
    replication: usize,
    max_attempts: u32,
) -> Result<Cluster, String> {
    Ok(Cluster::try_with_threads(nodes, threads)
        .map_err(|e| e.to_string())?
        .with_replication(replication)
        .with_retry(RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }))
}

/// Stage 3 — run: a runner over the compiled plan (carrying its
/// adaptive decision, and the checkpoint when one is asked for), the
/// `input` fragments placed on the cluster as they are (shared, not
/// copied), then the workflow itself.
pub fn run(
    compiled: &CachedPlan,
    options: ExecOptions,
    checkpoint: Option<CheckpointCfg>,
    cluster: &mut Cluster,
    input: Vec<Arc<Dataset>>,
) -> Result<WorkflowReport, CoreError> {
    let mut runner = WorkflowRunner::with_options(compiled.plan.clone(), options);
    if let Some(d) = compiled.decision.clone() {
        runner = runner.with_decision(d);
    }
    if let Some(c) = checkpoint {
        runner = runner.with_checkpoint(c.dir, c.resume, c.extra);
    }
    runner.place_input(cluster, &compiled.input_name, input)?;
    runner.run(cluster)
}

/// Stage 4 — emit: write each output partition into `out_dir` (created
/// if missing) in the input's on-disk format, encoding the resident
/// fragments in place, the partitions concurrently on the cluster's
/// thread budget. Returns the files, in partition order; a failure
/// reports the lowest failing partition.
pub fn emit(
    compiled: &CachedPlan,
    cluster: &Cluster,
    out_dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let partitions = cluster
        .fragments(&compiled.plan.output_path)
        .map_err(|e| e.to_string())?;
    papar_mr::run_slots(partitions.len(), cluster.threads(), |i| {
        write_partition(&compiled.input_cfg, partitions[i], out_dir, i)
    })
    .into_iter()
    .collect()
}

/// Encode partition `i` and write it as `out_dir/partition_{i:04}.*`.
/// Binary rows are written as they lie, after a zero header; text rows
/// are written field by field, strings copied.
fn write_partition(
    cfg: &InputConfig,
    part: &Dataset,
    out_dir: &Path,
    i: usize,
) -> Result<PathBuf, String> {
    let ext = match cfg.format {
        InputFormat::Binary => "bin",
        InputFormat::Text => "txt",
    };
    let path = out_dir.join(format!("partition_{i:04}.{ext}"));
    let cannot_write = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    match (cfg.format, &part.batch) {
        (InputFormat::Binary, Batch::Rows(rows)) => {
            let mut file = File::create(&path).map_err(cannot_write)?;
            file.write_all(&vec![0; cfg.start_position as usize])
                .and_then(|()| file.write_all(rows.as_bytes()))
                .map_err(cannot_write)?;
            return Ok(path);
        }
        (InputFormat::Text, Batch::Rows(rows)) => {
            let text = codec::text::write_rows(cfg, rows).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(cannot_write)?;
            return Ok(path);
        }
        _ => {}
    }
    // Workflows end flat ("the same format of input"); a packed final
    // fragment, or rows of a variable-width schema bound for a binary
    // file (which refuses them), decode into a temporary.
    let decoded: Vec<Record>;
    let records = match &part.batch {
        Batch::Flat(records) => records,
        Batch::Packed(groups) => {
            decoded = groups.iter().flat_map(|g| g.members.to_records()).collect();
            &decoded
        }
        Batch::Rows(rows) => {
            decoded = rows.to_records();
            &decoded
        }
    };
    let bytes = match cfg.format {
        InputFormat::Binary => {
            codec::binary::write(cfg, &part.schema, records, None).map_err(|e| e.to_string())?
        }
        InputFormat::Text => codec::text::write(cfg, &part.schema, records)
            .map_err(|e| e.to_string())?
            .into_bytes(),
    };
    std::fs::write(&path, bytes).map_err(cannot_write)?;
    Ok(path)
}

/// Append the summary lines `papar run` and a served job's detail share,
/// all read from the report: the adaptive rationale, each engine note as its
/// `Display` renders it, the stages a resumed run restored, one `job
/// '<id>': <t> simulated, <N> bytes shuffled` line per physical job with
/// its `shuffle_lo` line, the total simulated time, and the fault and
/// recovery accounting when there is any. (A served job never resumes
/// and runs fault-free, so it prints neither.)
pub fn render_summary(out: &mut String, report: &WorkflowReport) {
    if let Some(rationale) = &report.rationale {
        out.push_str(&rationale.render());
    }
    for note in &report.notes {
        let _ = writeln!(out, "{note}");
    }
    if report.stages_resumed > 0 {
        let _ = writeln!(
            out,
            "resumed from checkpoint: {} stage(s) restored, not re-executed",
            report.stages_resumed
        );
    }
    for stats in &report.jobs {
        let _ = writeln!(
            out,
            "job '{}': {:?} simulated, {} bytes shuffled",
            stats.name,
            stats.sim_time(),
            stats.exchange.remote_bytes
        );
        let _ = writeln!(
            out,
            "  shuffle_lo: {} bytes (the records sent off-node + segment headers)",
            stats.shuffle_lo
        );
    }
    let _ = writeln!(
        out,
        "total simulated partitioning time: {:?}",
        report.total_sim_time()
    );
    let recovery = report.total_recovery();
    if report.faults_injected() > 0 || !recovery.is_zero() {
        let _ = writeln!(
            out,
            "recovery: {} fault(s) injected, {} task(s) re-executed ({:?} redone compute, {:?} \
             backoff, {} B replica/restore/retransmit traffic)",
            report.faults_injected(),
            recovery.tasks_retried,
            recovery.reexec_task_time,
            recovery.backoff_time,
            recovery.total_bytes(),
        );
        for event in &report.recovery_events {
            let _ = writeln!(out, "  {event}");
        }
    }
}

/// Hash of the raw request: everything that decides what planning would
/// produce *and* what the static-analysis gate would say. The effective
/// arguments (with the conventional `input_path`/`output_path`
/// defaults) are a pure function of the workflow text, the given args,
/// and the data/out paths — all hashed here — so a spec-hash hit is
/// safe to serve without re-deriving them. The data file's size and
/// mtime are included because the gate's record-count checks read the
/// data; a changed file must re-plan.
fn spec_hash(spec: &JobSpec, cfg_text: &str, wf_text: &str, len: u64, mtime_ns: u128) -> u64 {
    let mut canon = String::new();
    let _ = writeln!(canon, "input_config:\n{cfg_text}");
    let _ = writeln!(canon, "workflow:\n{wf_text}");
    let _ = writeln!(canon, "data={} len={len} mtime={mtime_ns}", spec.data);
    let _ = writeln!(canon, "out={}", spec.out_dir);
    let _ = writeln!(canon, "nodes={}", spec.nodes);
    let mut args: Vec<&(String, String)> = spec.args.iter().collect();
    args.sort();
    for (k, v) in args {
        let _ = writeln!(canon, "arg {k}={v}");
    }
    let _ = writeln!(canon, "records={:?}", spec.records);
    let _ = writeln!(canon, "fuse={}", !spec.no_fuse);
    let _ = writeln!(canon, "adaptive={}", spec.adaptive);
    wire::checksum(canon.as_bytes())
}

/// Run one job on the resident state: the four stages with the caches
/// around the first two. Returns the rendered outcome or the failure
/// message; never panics — any error travels back to the client as the
/// job's `Failed` detail.
pub fn execute(spec: &JobSpec, res: &mut Resources) -> Result<JobOutcome, String> {
    let started = Instant::now();
    if spec.nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    let nodes = spec.nodes as usize;
    let cfg_text = read_text(&spec.input_config)?;
    let wf_text = read_text(&spec.workflow)?;
    let meta =
        std::fs::metadata(&spec.data).map_err(|e| format!("cannot stat {}: {e}", spec.data))?;
    let mtime_ns = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);

    // Thread budget resolution happens here, not in ExecOptions::default,
    // so a request without an override cannot inherit the previous
    // request's setting from the reused cluster.
    let threads = spec
        .threads
        .map(|t| t as usize)
        .unwrap_or(res.default_threads)
        .max(1);
    let options = exec_options(spec, Some(threads), true);

    // Load: resident when the same file (same size/mtime/bound/config)
    // was decoded and split for this many nodes before.
    let key = DataKey {
        path: spec.data.clone(),
        len: meta.len(),
        mtime_ns,
        records: spec.records,
        config_hash: wire::checksum(cfg_text.as_bytes()),
        nodes: spec.nodes,
    };
    let (input, data_cache_hit) = match res.data.get(&key) {
        Some(input) => (input, true),
        None => {
            let input = load(spec, &cfg_text, threads)?;
            res.data.insert(key, input.clone());
            (input, false)
        }
    };
    let records_in = record_count(&input);

    // Compile: resident on a repeated request.
    let shash = spec_hash(spec, &cfg_text, &wf_text, meta.len(), mtime_ns);
    let (compiled, plan_cache_hit) = match res.plans.get_by_spec(shash) {
        Some(compiled) => (compiled, true),
        None => {
            let compiled = Arc::new(compile(spec, &cfg_text, &wf_text, 0, &input, &options)?);
            res.plans.insert(shash, compiled.clone());
            (compiled, false)
        }
    };

    // Cluster: reuse unless the node count changed; reset wipes data,
    // traces, and fault state but keeps the thread budget.
    let cluster = match &mut res.cluster {
        Some(cluster) if cluster.num_nodes() == nodes => {
            cluster.reset();
            cluster
        }
        slot => slot.insert(new_cluster(nodes, threads, 0, 3)?),
    };

    // The cluster shares the cached fragments; a request copies no input
    // record.
    let report = run(&compiled, options, None, cluster, input).map_err(|e| e.to_string())?;
    let files = emit(&compiled, cluster, Path::new(&spec.out_dir))?;

    // The summary `papar run` prints, between the cache verdicts and the
    // profile table from this request's span tree.
    let mut detail = String::new();
    for w in &compiled.warnings {
        let _ = writeln!(detail, "{w}");
    }
    let _ = writeln!(detail, "read {records_in} records from {}", spec.data);
    let _ = writeln!(
        detail,
        "plan {:#018x}: cache {}",
        compiled.fingerprint,
        if plan_cache_hit { "hit" } else { "miss" }
    );
    let _ = writeln!(
        detail,
        "data {}: cache {}",
        spec.data,
        if data_cache_hit { "hit" } else { "miss" }
    );
    render_summary(&mut detail, &report);
    let _ = writeln!(detail, "wrote {} partitions:", files.len());
    for f in &files {
        let _ = writeln!(detail, "  {}", f.display());
    }
    if let Some(trace) = &report.trace {
        detail.push_str(&papar_trace::render_profile(trace));
    }

    Ok(JobOutcome {
        detail,
        plan_fingerprint: compiled.fingerprint,
        plan_cache_hit,
        data_cache_hit,
        wall_ms: started.elapsed().as_millis() as u64,
        sim_ns: report.total_sim_time().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDTH: usize = 16;
    const START: usize = 32;

    fn binary_cfg() -> (InputConfig, Schema) {
        let cfg =
            InputConfig::parse_str(include_str!("../../../examples/configs/blast_db.xml")).unwrap();
        let schema = Schema::from_input_config(&cfg);
        (cfg, schema)
    }

    /// A 32-byte header, `n` records `[i, i+1, i+2, i+3]`, then `tail`.
    fn write_db(tag: &str, n: usize, tail: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("papar-load-{tag}-{}.db", std::process::id()));
        let mut bytes = vec![0xAB; START];
        for i in 0..n as i32 {
            for v in i..i + 4 {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        bytes.extend_from_slice(tail);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn bounded_read_decodes_exactly_n_records_before_a_trailing_payload() {
        let (cfg, schema) = binary_cfg();
        // Sequence payload behind the index, not a whole number of records.
        let path = write_db("trailing", 10, &[0x5A; 1003]);
        for n in [0, 3, 10] {
            let got = load_records(&cfg, &schema, &path, Some(n)).unwrap();
            assert_eq!(got.len(), n);
            for (i, r) in got.iter().enumerate() {
                assert_eq!(r.value(0).unwrap().as_i64(), Some(i as i64));
            }
        }
        // The bound may reach into the payload: it is read as records.
        let got = load_records(&cfg, &schema, &path, Some(12)).unwrap();
        assert_eq!(got.len(), 12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bounded_read_of_a_short_file_keeps_the_message() {
        let (cfg, schema) = binary_cfg();
        let path = write_db("short", 4, &[1, 2, 3]);
        let available = 4 * WIDTH + 3;
        let err = load_records(&cfg, &schema, &path, Some(5)).unwrap_err();
        assert_eq!(
            err,
            format!(
                "--records 5 wants {} bytes after the header, file has {available}",
                5 * WIDTH
            )
        );
        let header_only =
            std::env::temp_dir().join(format!("papar-load-header-{}.db", std::process::id()));
        std::fs::write(&header_only, [0u8; START - 1]).unwrap();
        let err = load_records(&cfg, &schema, &header_only, Some(1)).unwrap_err();
        assert_eq!(
            err,
            format!(
                "{} is shorter than start_position {START}",
                header_only.display()
            )
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&header_only);
    }

    #[test]
    fn unbounded_read_decodes_the_whole_record_prefix() {
        let (cfg, schema) = binary_cfg();
        let path = write_db("unbounded", 7, &[9; WIDTH + 5]);
        let got = load_records(&cfg, &schema, &path, None).unwrap();
        assert_eq!(got.len(), 8, "7 records plus one whole record of payload");
        assert_eq!(got[6].value(3).unwrap().as_i64(), Some(9));
        let _ = std::fs::remove_file(&path);
    }
}
