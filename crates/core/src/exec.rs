//! The workflow executor: launches planned jobs one by one on the
//! simulated cluster (paper Section III-D, "the jobs are launched one by
//! one following the order defined in the workflow configuration file").

use papar_mr::engine::{FnReducer, HashPartitioner, IdentityPartitioner, KeyedMapper, MapInput};
use papar_mr::engine::{Mapper, PairKey, Reducer};
use papar_mr::fault::RecoveryAction;
use papar_mr::sampler::{self, IntCuts, RangePartitioner};
use papar_mr::stats::{JobStats, NetModel, RecoveryStats};
use papar_mr::{run_slots, Emit, EntryRef, MrError, Pairs, TaskCtx};
use papar_mr::{CheckpointSession, Cluster, Entry, MapReduceJob, Partitioner};
use papar_record::batch::{Batch, Dataset, Rows};
use papar_record::packed::{pack_onto, PackedRecord};
use papar_record::view::ENTRY_REC;
use papar_record::wire;
use papar_record::{Record, Schema, Value};
use papar_trace::{
    duration_ns, Collector, Counters, JobTrace, PhaseKind, PhaseTrace, WorkflowTrace,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::iter::StepBy;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::{CoreError, Result};
use crate::operator::{AddOnKind, BoundAddOn, CustomJobCtx, FormatOp};
use crate::physplan::{explain, PhysicalStage, StageKind};
use crate::plan::{DatasetMeta, Format, JobKind, JobPlan, WorkflowPlan};
use crate::policy::{DistrPolicy, SplitPolicy};

/// How the sort operator picks its reduce-key ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Sample every node's local data and combine (the paper's method,
    /// following TopCluster-style distributed sampling).
    Distributed,
    /// Sample only the first fragment — the naive strawman the ablation
    /// experiment contrasts against; skewed inputs overload reducers.
    FirstFragmentOnly,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Reducers per job when the configuration does not override
    /// (`None` → one reducer per cluster node).
    pub default_reducers: Option<usize>,
    /// Reduce-range sampling mode.
    pub sampling: SamplingMode,
    /// CSC-compress packed entries on the wire (paper Section III-D "Data
    /// Compression").
    pub compression: bool,
    /// Sampling stride (1 in `stride` keys).
    pub sample_stride: usize,
    /// OS threads the engine may use per phase (`None` keeps the cluster's
    /// own setting: `PAPAR_THREADS` or the host's available parallelism).
    /// Output bytes are identical for every value; only wall-clock changes.
    pub threads: Option<usize>,
    /// Collect a [`WorkflowTrace`] (spans, counters, skew histograms) while
    /// running. Off by default: the engine then talks to a no-op sink and
    /// pays nothing for observability.
    pub trace: bool,
    /// Apply the physical-plan fusion rewrites (sort→distribute,
    /// group→split, dead-intermediate elimination) before executing. On
    /// by default; `--no-fuse` clears it. Output bytes are identical
    /// either way — only job counts and shuffle traffic change.
    pub fuse: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            default_reducers: None,
            sampling: SamplingMode::Distributed,
            compression: false,
            sample_stride: sampler::DEFAULT_SAMPLE_STRIDE,
            threads: None,
            trace: false,
            fuse: true,
        }
    }
}

/// Where a run persists (and resumes from) its per-stage progress.
#[derive(Debug, Clone)]
pub struct CheckpointCfg {
    /// The checkpoint run directory.
    pub dir: PathBuf,
    /// Resume from the directory's manifest instead of starting fresh.
    pub resume: bool,
    /// Caller-supplied fingerprint salt: anything outside the runner's
    /// view that changes output bytes (fault spec and seed, replication,
    /// retry budget) must be folded in here so `--resume` refuses when it
    /// changed.
    pub extra: u64,
}

/// Everything a workflow run produced besides the output datasets.
#[derive(Debug, Clone, Default)]
pub struct WorkflowReport {
    /// Per-job stats in launch order.
    pub jobs: Vec<JobStats>,
    /// Time spent in the pre-job sampling passes.
    pub sample_time: Duration,
    /// Every injected fault and recovery action, in order (empty on a
    /// fault-free run without replication).
    pub recovery_events: Vec<RecoveryAction>,
    /// The workflow's span tree, when [`ExecOptions::trace`] was set (or a
    /// tracer was installed on the cluster directly).
    pub trace: Option<WorkflowTrace>,
    /// Stages restored from a checkpoint instead of executed (0 unless
    /// the run resumed).
    pub stages_resumed: usize,
    /// Corrupt or torn checkpoint data found while resuming, already
    /// quarantined; the affected stages were recomputed.
    pub checkpoint_events: Vec<String>,
    /// Typed engine notes (collapsed reducer counts) — things worth
    /// telling the user that are not errors.
    pub notes: Vec<RunNote>,
}

/// A typed note the engine attaches to a run's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunNote {
    /// A sort's sample held fewer distinct keys than requested reducers:
    /// the duplicate quantile boundaries were collapsed and the job ran
    /// with the achievable reducer count instead of silently empty
    /// reducers.
    ReducersCollapsed {
        /// The sort job.
        job: String,
        /// Reducers the configuration asked for.
        requested: usize,
        /// Reducers the sampled key domain can actually fill.
        achievable: usize,
        /// Cluster nodes. Reducer `r` runs on node `r % nodes`, so when
        /// `achievable < nodes` the nodes from `achievable` on reduce
        /// nothing, and when `nodes` does not divide `achievable` the
        /// busiest node reduces more than its fair share.
        nodes: usize,
    },
}

impl std::fmt::Display for RunNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunNote::ReducersCollapsed {
                job,
                requested,
                achievable,
                nodes,
            } => {
                write!(
                    f,
                    "note: job '{job}' asked for {requested} reducers but the sampled key \
                     domain fills only {achievable}; collapsed to {achievable} (duplicate \
                     range boundaries would have left {} reducer(s) provably empty)",
                    requested - achievable
                )?;
                match nodes.saturating_sub(*achievable) {
                    0 => match uneven_reducers(*achievable, *nodes) {
                        Some(shape) => write!(f, "; on {nodes} nodes, {shape}"),
                        None => Ok(()),
                    },
                    1 => write!(f, "; on {nodes} nodes, node {achievable} reduces nothing"),
                    _ => write!(
                        f,
                        "; on {nodes} nodes, nodes {achievable}..={} reduce nothing",
                        nodes - 1
                    ),
                }
            }
        }
    }
}

/// How `reducers` key ranges load `nodes` nodes when the node count does
/// not divide them — reducer `r` runs on node `r % nodes`, and a keyed
/// stage's time follows its busiest node — in the words W010 and the
/// collapse note share; `None` when every node reduces as many ranges.
pub fn uneven_reducers(reducers: usize, nodes: usize) -> Option<String> {
    if nodes == 0 || reducers.is_multiple_of(nodes) {
        return None;
    }
    let busiest = reducers.div_ceil(nodes);
    Some(format!(
        "the busiest node reduces {busiest} of {reducers} ranges, {:.2}x its fair share",
        (busiest * nodes) as f64 / reducers as f64
    ))
}

impl WorkflowReport {
    /// Total simulated partitioning time: sampling plus every job's
    /// `max(map) + comm + max(reduce)` makespan.
    pub fn total_sim_time(&self) -> Duration {
        self.sample_time + self.jobs.iter().map(JobStats::sim_time).sum::<Duration>()
    }

    /// Total bytes shuffled between distinct nodes.
    pub fn total_shuffled_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.exchange.remote_bytes).sum()
    }

    /// Workflow-wide recovery accounting (every job's merged).
    pub fn total_recovery(&self) -> RecoveryStats {
        let mut total = RecoveryStats::default();
        for j in &self.jobs {
            total.merge(&j.recovery);
        }
        total
    }

    /// Number of faults that fired across the run.
    pub fn faults_injected(&self) -> u32 {
        self.jobs.iter().map(|j| j.recovery.faults_injected).sum()
    }
}

/// Canonical text of everything *plan-side* that decides a run's output
/// bytes: the lowered physical plan (operators, fusion decisions, reducer
/// counts), every job's full kind (keys, policies, partition counts,
/// thresholds), the cluster size and the byte-affecting execution
/// options. The thread count is deliberately absent — output bytes are
/// identical at every count.
///
/// This is the prefix of the checkpoint resume fingerprint (which appends
/// input content hashes and the caller's fault/seed salt); hashed alone it
/// is the *plan fingerprint* a resident `papar serve` daemon keys its
/// plan cache by, so "same fingerprint" means "same partitioning plan,
/// whatever data arrives".
pub fn plan_canon_with(
    plan: &WorkflowPlan,
    phys: &crate::physplan::PhysicalPlan,
    nodes: usize,
    options: &ExecOptions,
) -> String {
    use std::fmt::Write as _;
    let mut canon = explain(plan, phys);
    // `explain` names jobs and datasets but not operator parameters;
    // the Debug form of each job's kind pins keys, policies, partition
    // counts, and thresholds too. Custom-operator parameters live in a
    // HashMap whose Debug order varies per process, so they are
    // re-sorted before hashing.
    for job in &plan.jobs {
        match &job.kind {
            JobKind::Custom { op_name, params } => {
                let sorted: BTreeMap<&String, &String> = params.iter().collect();
                let _ = writeln!(canon, "job '{}' kind=Custom {op_name} {sorted:?}", job.id);
            }
            kind => {
                let _ = writeln!(canon, "job '{}' kind={kind:?}", job.id);
            }
        }
    }
    let _ = writeln!(canon, "nodes={nodes}");
    let _ = writeln!(
        canon,
        "sampling={:?} compression={} stride={} reducers={:?} fuse={}",
        options.sampling,
        options.compression,
        options.sample_stride,
        options.default_reducers,
        options.fuse
    );
    canon
}

/// FNV-1a hash of [`plan_canon_with`] — the plan-cache key for `papar
/// serve`.
pub fn plan_fingerprint_with(
    plan: &WorkflowPlan,
    phys: &crate::physplan::PhysicalPlan,
    nodes: usize,
    options: &ExecOptions,
) -> u64 {
    wire::checksum(plan_canon_with(plan, phys, nodes, options).as_bytes())
}

/// Runs a [`WorkflowPlan`] on a cluster.
pub struct WorkflowRunner {
    plan: WorkflowPlan,
    options: ExecOptions,
    checkpoint: Option<CheckpointCfg>,
    /// FNV-1a of each scattered input's encoded bytes, keyed by dataset
    /// name (idempotent under re-scatter, order-independent). Feeds the
    /// resume fingerprint; a Mutex because `scatter_input` takes `&self`.
    input_hashes: Mutex<BTreeMap<String, u64>>,
}

impl WorkflowRunner {
    /// Runner with default options.
    pub fn new(plan: WorkflowPlan) -> Self {
        Self::with_options(plan, ExecOptions::default())
    }

    /// Runner with explicit options.
    pub fn with_options(plan: WorkflowPlan, options: ExecOptions) -> Self {
        WorkflowRunner {
            plan,
            options,
            checkpoint: None,
            input_hashes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Persist per-stage progress into (or resume it from) a checkpoint
    /// run directory. See [`CheckpointCfg`] for what `extra` must cover.
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>, resume: bool, extra: u64) -> Self {
        self.checkpoint = Some(CheckpointCfg {
            dir: dir.into(),
            resume,
            extra,
        });
        self
    }

    /// The plan being run.
    pub fn plan(&self) -> &WorkflowPlan {
        &self.plan
    }

    /// Scatter an external input across the cluster, checking it against
    /// the plan's expectations: split by move into one fragment per node,
    /// then [`WorkflowRunner::place_input`].
    pub fn scatter_input(&self, cluster: &mut Cluster, name: &str, data: Dataset) -> Result<()> {
        let fragments = papar_mr::cluster::split_dataset(data, cluster.num_nodes());
        self.place_input(cluster, name, fragments.into_iter().map(Arc::new).collect())
    }

    /// Place an external input that is already split into fragments
    /// (global ordinal order, one per node for a scattered input) after
    /// checking it against the plan's expectations. The cluster shares
    /// the given `Arc`s, so a resident copy of the input (the daemon's
    /// data cache) is placed without copying a record.
    pub fn place_input(
        &self,
        cluster: &mut Cluster,
        name: &str,
        fragments: Vec<Arc<Dataset>>,
    ) -> Result<()> {
        let meta = self
            .plan
            .external_inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m)
            .ok_or_else(|| {
                CoreError::exec(format!(
                    "'{name}' is not an external input of workflow '{}' (expected one of {:?})",
                    self.plan.id,
                    self.plan
                        .external_inputs
                        .iter()
                        .map(|(n, _)| n)
                        .collect::<Vec<_>>()
                ))
            })?;
        if fragments
            .iter()
            .any(|f| f.schema.as_ref() != meta.schema.as_ref())
        {
            return Err(CoreError::exec(format!(
                "input '{name}' schema does not match the declared format"
            )));
        }
        // A checkpointed run fingerprints its input *content* — the wire
        // bytes of the whole input, however it is split — so a resume
        // against different data refuses instead of producing a mix of
        // old and new bytes.
        if self.checkpoint.is_some() {
            let batches: Vec<&Batch> = fragments.iter().map(|f| &f.batch).collect();
            let hash =
                wire::concat_checksum(&batches, &meta.schema).map_err(papar_mr::MrError::from)?;
            self.input_hashes
                .lock()
                .expect("input hash lock poisoned")
                .insert(name.to_string(), hash);
        }
        cluster.place(name, fragments)?;
        Ok(())
    }

    /// Lower the plan against a cluster: the physical stages [`run`]
    /// would execute on it, honoring [`ExecOptions::fuse`],
    /// [`ExecOptions::default_reducers`], and the cluster size (the
    /// group→split gate depends on the effective reducer count).
    ///
    /// [`run`]: WorkflowRunner::run
    pub fn physical_plan(&self, cluster: &Cluster) -> crate::physplan::PhysicalPlan {
        crate::physplan::lower(
            &self.plan,
            cluster.num_nodes(),
            self.options.default_reducers,
            self.options.fuse,
        )
    }

    /// Execute the plan's physical stages in order. Afterwards the stores
    /// hold only the workflow output; fetch the final partitions with
    /// `cluster.collect(&runner.plan().output_path)`. Every other dataset
    /// — external inputs and declared intermediates alike — leaves every
    /// store, primaries and replicas, at the map barrier of the last job
    /// that reads it (the end of its stage for map-only stages, and the
    /// end of its own stage for a dataset nothing reads). The report
    /// carries one [`JobStats`] per *physical* stage — a fused stage is
    /// one MapReduce job, so fused runs report fewer jobs (its trace span
    /// records the logical jobs it covers); what a caller wants to know
    /// about an intermediate it reads from there, or from the trace.
    pub fn run(&self, cluster: &mut Cluster) -> Result<WorkflowReport> {
        if let Some(threads) = self.options.threads {
            cluster.set_threads(threads);
        }
        if self.options.trace && !cluster.tracing() {
            cluster.set_tracer(Box::new(Collector::new()));
        }
        // A job with no outputs cannot run (`JobPlan::output` would
        // panic); reject the whole plan with a typed error up front.
        for job in &self.plan.jobs {
            if job.outputs.is_empty() {
                return Err(CoreError::plan(format!(
                    "job '{}' declares no output datasets",
                    job.id
                )));
            }
        }
        let phys = self.physical_plan(cluster);
        let mut report = WorkflowReport::default();
        let mut session: Option<CheckpointSession> = match &self.checkpoint {
            Some(cfg) => {
                let fp = self.fingerprint(cluster, &phys, cfg.extra);
                let s = if cfg.resume {
                    CheckpointSession::resume(&cfg.dir, fp)?
                } else {
                    CheckpointSession::create(&cfg.dir, fp)?
                }
                .with_threads(cluster.threads());
                report.checkpoint_events = s
                    .corruption_events()
                    .iter()
                    .map(|e| e.to_string())
                    .collect();
                Some(s)
            }
            None => None,
        };
        let net = *cluster.net();
        // Debug-mode bounds verifier: interpret the physical plan over the
        // *exact* scattered source counts, then assert after every stage
        // that each observed counter lies inside its static interval. Any
        // escape is an unsound transfer function — a framework bug worth a
        // hard failure, which is why this is an assert and not a warning.
        #[cfg(debug_assertions)]
        let static_bounds = self.static_bounds(cluster, &phys);
        let mut scatter_charge_dropped = false;
        let last_reads = self.last_readers(&phys);
        for (sidx, stage) in phys.stages.iter().enumerate() {
            let release = last_reads[sidx].as_slice();
            if let Some(s) = session.as_ref().filter(|s| s.is_complete(sidx)) {
                self.restore_stage(cluster, s, sidx, stage, &net)?;
                report.jobs.push(s.completed()[sidx].stats.clone());
                report.stages_resumed += 1;
            } else {
                if report.stages_resumed > 0 && !scatter_charge_dropped {
                    // The resumed run re-scattered the input, charging its
                    // replica placement to the pending recovery ledger
                    // again — but the skipped first stage's replayed stats
                    // already carry that charge from the original run.
                    // Drop the duplicate so a resumed report matches a
                    // cold one.
                    let _ = cluster.take_recovery();
                    scatter_charge_dropped = true;
                }
                let stats = match &stage.kind {
                    StageKind::Single(j) => self.run_single(
                        cluster,
                        &self.plan.jobs[*j],
                        release,
                        &mut report.sample_time,
                        &mut report.notes,
                    )?,
                    StageKind::FusedSortDistribute { sort, distribute } => self
                        .run_fused_sort_distribute(
                            cluster,
                            &stage.id,
                            *sort,
                            *distribute,
                            release,
                            &mut report.sample_time,
                            &mut report.notes,
                        )?,
                    StageKind::FusedGroupSplit { group, split } => {
                        self.run_fused_group_split(cluster, &stage.id, *group, *split, release)?
                    }
                };
                // A fused stage ran as one engine job: its span records
                // the logical jobs it covers, and each elided job's
                // fault-schedule slot is reserved so later jobs keep the
                // same index with and without fusion. Faults addressed to
                // an elided slot never fire (there is no task to crash);
                // recovery transparency keeps the output byte-identical.
                let covers = self.covers(stage);
                if !covers.is_empty() && cluster.tracing() {
                    cluster.annotate_last_job_trace(covers);
                }
                for _ in 1..stage.logical.len() {
                    let _ = cluster.next_job_index();
                }
                if let Some(s) = &mut session {
                    persist_stage(cluster, s, sidx, stage, &self.plan, &stats, &net)?;
                }
                report.jobs.push(stats);
            }
            #[cfg(debug_assertions)]
            {
                self.verify_stage_outputs(cluster, stage);
                self.verify_stage_bounds(
                    cluster,
                    stage,
                    &static_bounds.stages[sidx],
                    report.jobs.last().expect("stats just pushed"),
                );
            }
            // Engine jobs released their last-read inputs at the map
            // barrier; map-only split and custom stages release them here,
            // and so does the stage that writes a dataset nothing reads,
            // once it is checkpointed and verified. A restored stage drops
            // them too, so resumed and cold runs hold the same stores.
            for name in release {
                cluster.release(name);
            }
        }
        report.recovery_events = cluster.drain_events();
        report.trace = cluster.take_trace();
        Ok(report)
    }

    /// Per physical stage, the datasets it is the last reader of: every
    /// dataset but the workflow output — external inputs and
    /// intermediates alike, read by any job kind, custom operators
    /// included. A dataset nothing reads counts as read by the stage that
    /// writes it.
    fn last_readers(&self, phys: &crate::physplan::PhysicalPlan) -> Vec<Vec<String>> {
        let jobs = &self.plan.jobs;
        let any_job = |stage: &PhysicalStage, f: &dyn Fn(&JobPlan) -> bool| {
            stage.logical.iter().any(|&j| f(&jobs[j]))
        };
        let inputs = self.plan.external_inputs.iter().map(|(name, _)| name);
        let outputs = jobs
            .iter()
            .flat_map(|job| job.outputs.iter().map(|(name, _)| name));
        let mut seen = std::collections::BTreeSet::new();
        let mut last = vec![Vec::new(); phys.stages.len()];
        for name in inputs.chain(outputs) {
            if *name == self.plan.output_path || !seen.insert(name) {
                continue;
            }
            let reads = |job: &JobPlan| job.inputs.contains(name);
            let writes = |job: &JobPlan| job.outputs.iter().any(|(out, _)| out == name);
            let reader = (phys.stages.iter())
                .rposition(|stage| any_job(stage, &reads))
                .or_else(|| phys.stages.iter().position(|stage| any_job(stage, &writes)));
            if let Some(sidx) = reader {
                last[sidx].push(name.clone());
            }
        }
        last
    }

    /// The run's resumability fingerprint: FNV-1a over a canonical text
    /// of everything that decides output *bytes* — the lowered physical
    /// plan (operators, fusion, reducer counts), the cluster size, the
    /// byte-affecting options, every scattered input's content hash, and
    /// the caller's salt (fault spec/seed, replication, retry budget).
    /// The thread count is deliberately absent: output bytes are
    /// identical at every count, so a checkpoint taken at `--threads 4`
    /// resumes at `--threads 1`.
    fn fingerprint(
        &self,
        cluster: &Cluster,
        phys: &crate::physplan::PhysicalPlan,
        extra: u64,
    ) -> u64 {
        use std::fmt::Write as _;
        let mut canon = plan_canon_with(&self.plan, phys, cluster.num_nodes(), &self.options);
        for (name, h) in self
            .input_hashes
            .lock()
            .expect("input hash lock poisoned")
            .iter()
        {
            let _ = writeln!(canon, "input '{name}'={h:#018x}");
        }
        let _ = writeln!(canon, "extra={extra:#018x}");
        wire::checksum(canon.as_bytes())
    }

    /// Re-populate the cluster from a committed stage instead of running
    /// it: every fragment decodes back onto its original node and
    /// ordinal (replicas placed, nothing charged), and the stage's
    /// fault-schedule slots are burned so later jobs keep their indices.
    fn restore_stage(
        &self,
        cluster: &mut Cluster,
        session: &CheckpointSession,
        sidx: usize,
        stage: &PhysicalStage,
        net: &NetModel,
    ) -> Result<()> {
        let rec = &session.completed()[sidx];
        let mut bytes = 0u64;
        for f in &rec.fragments {
            let payload = f.payload.as_ref().ok_or_else(|| {
                CoreError::exec(format!(
                    "checkpoint fragment '{}' has no verified payload",
                    f.file
                ))
            })?;
            let ds = decode_fragment_payload(payload)?;
            cluster.restore_fragment(f.node as usize, &f.dataset, f.ordinal, ds)?;
            bytes += f.len;
        }
        for _ in 0..stage.logical.len() {
            let _ = cluster.next_job_index();
        }
        if cluster.tracing() {
            let messages = rec.fragments.len() as u64;
            let det_ns = duration_ns(net.transfer_time(messages, bytes));
            let counters = Counters {
                restored_bytes: bytes,
                messages,
                records_out: rec.stats.records_out,
                ..Counters::default()
            };
            let covers = self.covers(stage);
            cluster.record_job_trace(JobTrace {
                name: rec.stats.name.clone(),
                phases: vec![PhaseTrace::solo(
                    PhaseKind::Restore,
                    Duration::ZERO,
                    det_ns,
                    counters,
                )],
                skew: None,
                covers,
                assembly: None,
            });
        }
        Ok(())
    }

    /// The logical jobs a fused stage covers, by id; none for an unfused
    /// stage.
    fn covers(&self, stage: &PhysicalStage) -> Vec<String> {
        if stage.logical.len() < 2 {
            return Vec::new();
        }
        (stage.logical.iter())
            .map(|&i| self.plan.jobs[i].id.clone())
            .collect()
    }

    /// Execute one unfused logical job; `release` names the inputs it is
    /// the last reader of.
    fn run_single(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        release: &[String],
        sample_time: &mut Duration,
        notes: &mut Vec<RunNote>,
    ) -> Result<JobStats> {
        match &job.kind {
            JobKind::Sort { .. } => self.run_sort_into(
                cluster,
                job,
                &job.id,
                job.output(),
                release,
                sample_time,
                notes,
            ),
            JobKind::Group { .. } => self.run_keyed(
                cluster,
                job,
                &HashPartitioner,
                self.reducers_for(job, cluster),
                &OrderedReducer::new(job)?,
                &job.id,
                job.output(),
                &job.outputs[..1],
                release,
            ),
            JobKind::Split { .. } => self.run_split(cluster, job),
            JobKind::Distribute { .. } => self.run_distribute(cluster, job, release),
            JobKind::Custom { op_name, params } => self.run_custom(cluster, job, op_name, params),
        }
    }

    /// Debug-mode runtime verifier: after a stage commits, assert that
    /// every record it wrote conforms to the plan's compiled output
    /// metadata — the metadata the binder inferred statically, the same
    /// binding `papar check` reports from. A fused stage is checked on its
    /// *final* outputs only; the elided intermediate was never written.
    /// Compiled out of release builds.
    #[cfg(debug_assertions)]
    fn verify_stage_outputs(&self, cluster: &Cluster, stage: &PhysicalStage) {
        let last = *stage.logical.last().expect("stages cover >= 1 job");
        self.verify_job_outputs(cluster, &self.plan.jobs[last]);
    }

    #[cfg(debug_assertions)]
    fn verify_job_outputs(&self, cluster: &Cluster, job: &JobPlan) {
        // Custom operators own their output contract; nothing to assert.
        if matches!(job.kind, JobKind::Custom { .. }) {
            return;
        }
        for (name, meta) in &job.outputs {
            for node in 0..cluster.num_nodes() {
                let Some(frags) = cluster.node(node).get(name) else {
                    continue;
                };
                for f in frags {
                    verify_batch_conforms(&f.data.batch, meta, &job.id, name);
                }
            }
        }
    }

    /// Interpret the physical plan over the exact record counts of the
    /// scattered inputs (callers scatter before [`WorkflowRunner::run`]),
    /// giving the tightest intervals the bounds domain can express for
    /// this launch.
    #[cfg(debug_assertions)]
    fn static_bounds(
        &self,
        cluster: &Cluster,
        phys: &crate::physplan::PhysicalPlan,
    ) -> crate::bounds::WorkflowBounds {
        use crate::bounds::{BoundsOptions, SourceBounds};
        let mut opts = BoundsOptions {
            num_nodes: cluster.num_nodes(),
            default_reducers: self.options.default_reducers,
            sources: BTreeMap::new(),
        };
        for (name, _) in &self.plan.external_inputs {
            let total: u64 = (0..cluster.num_nodes())
                .map(|n| cluster.node(n).record_count(name) as u64)
                .sum();
            opts.sources
                .insert(name.clone(), SourceBounds::exact(total));
        }
        crate::bounds::compute(&self.plan, phys, &opts)
    }

    /// Assert every observed counter of a finished (or restored) stage
    /// lies inside its static interval: the job's stats, the materialized
    /// outputs' record totals, the largest output fragment against the
    /// max-load bound, and — for distribute stages — each partition's
    /// entry count against its per-partition interval. Custom stages
    /// interpret to ⊤ everywhere, so they pass vacuously.
    #[cfg(debug_assertions)]
    fn verify_stage_bounds(
        &self,
        cluster: &Cluster,
        stage: &PhysicalStage,
        bounds: &crate::bounds::StageBounds,
        stats: &JobStats,
    ) {
        debug_assert_eq!(stage.id, bounds.id, "stage/bounds zip skewed");
        if let Err(violation) = stats.counters_within(
            (bounds.records_in.lo, bounds.records_in.hi),
            (bounds.pairs.lo, bounds.pairs.hi),
            (bounds.records_out.lo, bounds.records_out.hi),
            bounds.shuffle_bytes.hi,
        ) {
            panic!("stage '{}': {violation}", stage.id);
        }
        for (name, db) in &bounds.outputs {
            let mut records = 0u64;
            let mut max_fragment = 0u64;
            let mut per_ordinal: BTreeMap<u32, u64> = BTreeMap::new();
            for node in 0..cluster.num_nodes() {
                let Some(frags) = cluster.node(node).get(name) else {
                    continue;
                };
                for f in frags {
                    let rc = f.data.batch.record_count() as u64;
                    records += rc;
                    max_fragment = max_fragment.max(rc);
                    *per_ordinal.entry(f.ordinal).or_default() += f.data.batch.entry_count() as u64;
                }
            }
            assert!(
                db.records.contains(records),
                "stage '{}': dataset '{name}' holds {records} record(s), outside its \
                 static bound {}",
                stage.id,
                db.records
            );
            // The max-load bound is the shuffle histogram's ceiling; each
            // reducer writes at most one fragment per output, so fragment
            // sizes are under it. Map-only stages (reducers == 0) never
            // shuffle and carry no load bound.
            if bounds.reducers > 0 {
                assert!(
                    max_fragment <= bounds.max_load.hi,
                    "stage '{}': dataset '{name}' has a {max_fragment}-record fragment, \
                     above the static max-load bound {}",
                    stage.id,
                    bounds.max_load
                );
            }
            // A distribute stage writes one fragment per partition, keyed
            // by ordinal; the output layout must match the per-partition
            // entry intervals (only the final output carries the layout).
            if let Some(p) = &bounds.partitions {
                for (ordinal, entries) in &per_ordinal {
                    let Some(interval) = p.per_partition.get(*ordinal as usize) else {
                        continue;
                    };
                    assert!(
                        interval.contains(*entries),
                        "stage '{}': partition {ordinal} of '{name}' holds {entries} \
                         entr(y/ies), outside its static bound {interval}",
                        stage.id
                    );
                }
            }
        }
    }

    fn reducers_for(&self, job: &JobPlan, cluster: &Cluster) -> usize {
        job.num_reducers
            .or(self.options.default_reducers)
            .unwrap_or_else(|| cluster.num_nodes())
            .max(1)
    }

    /// The sort job body, parameterized over the engine job's name and
    /// output dataset so the fused sort→distribute stage can run the same
    /// sort under the stage's id into a streamed temporary.
    #[allow(clippy::too_many_arguments)]
    fn run_sort_into(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        job_name: &str,
        output_name: &str,
        release: &[String],
        sample_time: &mut Duration,
        notes: &mut Vec<RunNote>,
    ) -> Result<JobStats> {
        let (key_idx, descending, ..) = keyed_kind(job)?;
        let mut num_reducers = self.reducers_for(job, cluster);

        // Pre-job sampling pass (paper: "sampled when reading the input").
        let t0 = Instant::now();
        let mut per_node: Vec<Vec<Value>> = Vec::new();
        'nodes: for node in 0..cluster.num_nodes() {
            let mut sample = Vec::new();
            for name in &job.inputs {
                if let Some(frags) = cluster.node(node).get(name) {
                    for f in frags {
                        sample_keys(
                            &f.data.batch,
                            key_idx,
                            self.options.sample_stride,
                            &mut sample,
                        )?;
                    }
                }
            }
            per_node.push(sample);
            if self.options.sampling == SamplingMode::FirstFragmentOnly
                && !per_node[node].is_empty()
            {
                break 'nodes;
            }
        }
        let boundaries = sampler::boundaries_from_samples(&per_node, num_reducers)?;
        // Fewer distinct sampled keys than reducers: the deduplicated
        // boundary list describes all the ranges the key domain can
        // fill. Collapse to that count (and say so) instead of running
        // provably empty reducers. An empty boundary list from an empty
        // sample keeps the configured count — there is nothing to place.
        let achievable = boundaries.len() + 1;
        if !boundaries.is_empty() && achievable < num_reducers {
            notes.push(RunNote::ReducersCollapsed {
                job: job_name.to_string(),
                requested: num_reducers,
                achievable,
                nodes: cluster.num_nodes(),
            });
            num_reducers = achievable;
        }
        let range = RangePartitioner::new(boundaries);
        let sample_elapsed = t0.elapsed();
        *sample_time += sample_elapsed;
        if cluster.tracing() {
            // The pre-job sampling pass is a phase of its own: the
            // collector attaches it to the sort job it precedes.
            let sampled: u64 = per_node.iter().map(|s| s.len() as u64).sum();
            let det_ns = cluster.cost_model().compute_ns(sampled, 0, 0);
            let counters = Counters {
                records_in: sampled,
                ..Counters::default()
            };
            cluster.record_sample_trace(PhaseTrace::solo(
                PhaseKind::Sample,
                sample_elapsed,
                det_ns,
                counters,
            ));
        }

        let partitioner = SortPartitioner {
            range,
            descending,
            num_reducers,
        };
        self.run_keyed(
            cluster,
            job,
            &partitioner,
            num_reducers,
            &OrderedReducer::new(job)?,
            job_name,
            output_name,
            &job.outputs[..1],
            release,
        )
    }

    /// Run sort or group job `job` as a keyed MapReduce job — the one
    /// shape sort, group and the fused group→split stage share. Each entry
    /// is keyed by the job's key field (read from the entry, never sent),
    /// sent by `partitioner` to one of `num_reducers` reducers, sorted by
    /// key on the reduce side in the job's direction and reduced by
    /// `reducer`. The engine job `name` writes `output` with the schema of
    /// `outputs[0]`; a fused reducer also writes `outputs[1..]`.
    #[allow(clippy::too_many_arguments)]
    fn run_keyed(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        partitioner: &dyn Partitioner,
        num_reducers: usize,
        reducer: &dyn Reducer,
        name: &str,
        output: &str,
        outputs: &[(String, DatasetMeta)],
        release: &[String],
    ) -> Result<JobStats> {
        let (key_field, descending, ..) = keyed_kind(job)?;
        let mapper = KeyedMapper { key_field };
        let mr_job = MapReduceJob {
            name: name.to_string(),
            inputs: job.inputs.clone(),
            output: output.to_string(),
            num_reducers,
            map_output_schema: job.input_meta.schema.clone(),
            output_schema: outputs[0].1.schema.clone(),
            mapper: &mapper,
            partitioner,
            reducer,
            sort_by_key: true,
            descending,
            compress_key: self.compress_key(&job.input_meta),
            release,
        };
        let extra: Vec<(String, Arc<Schema>)> = (outputs[1..].iter())
            .map(|(name, meta)| (name.clone(), meta.schema.clone()))
            .collect();
        Ok(cluster.run_job_multi(&mr_job, &extra)?)
    }

    /// Split is a map-only local job: every node routes its local entries
    /// to the per-condition outputs and applies the output format
    /// operators; no shuffle happens (paper Figure 11 keeps split data on
    /// its reducers until the distribute job moves it). Each node writes
    /// one fragment per output, at its own ordinal.
    fn run_split(&self, cluster: &mut Cluster, job: &JobPlan) -> Result<JobStats> {
        let outputs: Vec<(String, Arc<papar_record::Schema>)> = (job.outputs.iter())
            .map(|(name, meta)| (name.clone(), meta.schema.clone()))
            .collect();
        let split = SplitRouter::new(job)?;
        let route = |ctx: &TaskCtx, inputs: &[MapInput]| {
            let mut outs = split.empty_outputs();
            for mi in inputs {
                for entry in EntryRef::all(&mi.data.batch) {
                    split.route(entry.to_entry(), &mut outs)?;
                }
            }
            Ok(vec![(ctx.node as u32, outs)])
        };
        Ok(cluster.run_local(&job.id, &job.inputs, &outputs, route)?)
    }

    fn run_distribute(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        release: &[String],
    ) -> Result<JobStats> {
        let (policy, num_partitions, projection) = distribute_kind(job)?;
        // Global offsets per (input, fragment ordinal) so the index-routed
        // policies (cyclic/block) see the global entry order; the paper's
        // Figure 9 distributes the *globally* sorted sequence round-robin.
        let mut offsets: HashMap<(String, u32), u64> = HashMap::new();
        let mut total: u64 = 0;
        for name in &job.inputs {
            let mut frags: Vec<(u32, u64)> = Vec::new();
            for node in 0..cluster.num_nodes() {
                if let Some(fs) = cluster.node(node).get(name) {
                    for f in fs {
                        frags.push((f.ordinal, f.data.batch.entry_count() as u64));
                    }
                }
            }
            frags.sort_by_key(|&(ord, _)| ord);
            for (ord, count) in frags {
                offsets.insert((name.clone(), ord), total);
                total += count;
            }
        }

        // The map side ships each entry projected onto the output format,
        // so the shuffle carries only the fields a partition keeps.
        let shipped = match &projection {
            Some(proj) => project_schema(&job.input_meta.schema, proj),
            None => job.input_meta.schema.clone(),
        };
        // A distribute may read a flat and a packed split output; the
        // packed one decides. A projection that drops the key column
        // leaves nothing to factor.
        let compress_key = (job.input_metas.iter())
            .find_map(|m| self.compress_key(m))
            .and_then(|k| match &projection {
                Some(proj) => proj.iter().position(|&i| i == k),
                None => Some(k),
            });
        let mapper = DistributeMapper {
            offsets,
            policy,
            total: total as usize,
            num_partitions,
            projection,
        };
        let out_format = job.outputs[0].1.format;
        let out_schema = &job.outputs[0].1.schema;
        // A flat output is the shipped records as rows, gathered from the
        // inbox without a decode — unless a compressed group holds them.
        let rows_out = (out_format == Format::Flat
            && compress_key.is_none()
            && same_layout(&shipped, out_schema))
        .then(|| out_schema.clone());
        let reducer = FnReducer(move |_ctx: &TaskCtx, pairs: Pairs<'_>| {
            if let Some(schema) = &rows_out {
                return Ok(vec![gather_rows(&pairs, schema)?]);
            }
            let mut batch = empty_batch(out_format, pairs.record_count(), pairs.len());
            // One reused slot: a record entry decodes with no allocation
            // of its own.
            let mut slot = Vec::with_capacity(1);
            for view in pairs.entries() {
                let view = view?;
                let entry = if view.tag() != ENTRY_REC {
                    Entry::Packed(view.decode_group()?)
                } else {
                    view.decode_into(&mut slot)?;
                    let record = slot
                        .pop()
                        .ok_or_else(|| MrError::msg("empty record entry"))?;
                    Entry::Rec(record)
                };
                place(&mut batch, entry, None)?;
            }
            Ok(vec![batch])
        });
        let mr_job = MapReduceJob {
            name: job.id.clone(),
            inputs: job.inputs.clone(),
            output: job.output().to_string(),
            num_reducers: num_partitions,
            map_output_schema: shipped,
            output_schema: job.outputs[0].1.schema.clone(),
            mapper: &mapper,
            // Unused: the mapper names each entry's partition.
            partitioner: &IdentityPartitioner,
            reducer: &reducer,
            sort_by_key: false,
            descending: false,
            compress_key,
            release,
        };
        Ok(cluster.run_job(&mr_job)?)
    }

    fn run_custom(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        op_name: &str,
        params: &HashMap<String, String>,
    ) -> Result<JobStats> {
        let op = self
            .plan
            .registry
            .custom(op_name)
            .ok_or_else(|| {
                CoreError::exec(format!(
                    "custom operator '{op_name}' vanished from registry"
                ))
            })?
            .clone();
        let ctx = CustomJobCtx {
            id: job.id.clone(),
            params: params.clone(),
            inputs: job.inputs.clone(),
            output: job.output().to_string(),
            input_schema: job.input_meta.schema.clone(),
            num_reducers: self.reducers_for(job, cluster),
        };
        // An operator that drives the engine (`run_job`, `run_local`) has
        // taken its fault slot and recorded its trace; one that does not
        // still occupies a slot, so later jobs keep their indices.
        let first = cluster.jobs_launched();
        let stats = op.run(cluster, &ctx)?;
        if cluster.jobs_launched() == first {
            let _ = cluster.next_job_index();
        }
        Ok(stats)
    }

    /// The sort→distribute pair as one MapReduce job — the paper's
    /// `L_m^{km}` stride-permutation composition made executable.
    ///
    /// The stage runs the sort verbatim (sampling pass, range
    /// partitioner, one sort shuffle) but into a streamed temporary
    /// instead of the materialized sort output. The distribute that
    /// followed is then pure bookkeeping: its cyclic/block policies route
    /// by *global index*, and the sorted temp fragments' prefix sums give
    /// every entry's exact global rank, so the driver assembles the
    /// partitions directly from the sorted runs — the distribute's whole
    /// shuffle is gone. The assembly walks entries in exactly the order
    /// the unfused offsets pre-pass enumerates them and the unfused
    /// reducer orders them (by run base, then within each fragment), so
    /// the committed bytes are identical to the two-job plan. Like the
    /// unfused pre-pass, the driver-side walk is not charged to the
    /// virtual clock; its wall time is on the stage's trace.
    #[allow(clippy::too_many_arguments)]
    fn run_fused_sort_distribute(
        &self,
        cluster: &mut Cluster,
        stage_id: &str,
        sort_idx: usize,
        dist_idx: usize,
        release: &[String],
        sample_time: &mut Duration,
        notes: &mut Vec<RunNote>,
    ) -> Result<JobStats> {
        let sjob = &self.plan.jobs[sort_idx];
        // The streamed intermediate: fragment r carries exactly the bytes
        // unfused sort fragment r would, but under a name no workflow
        // dataset can collide with, and it never outlives the stage.
        let temp = format!("__fused:{}", sjob.output());
        let stats =
            self.run_sort_into(cluster, sjob, stage_id, &temp, release, sample_time, notes)?;
        let t0 = Instant::now();
        self.assemble_distribute(cluster, &self.plan.jobs[dist_idx], &temp)?;
        if cluster.tracing() {
            cluster.annotate_last_job_assembly(t0.elapsed());
        }
        Ok(stats)
    }

    /// Driver-side half of the fused sort→distribute stage: apply the
    /// index-routed distribute permutation over the sorted runs, which
    /// are moved out of the cluster (the temp never outlives the stage).
    fn assemble_distribute(&self, cluster: &mut Cluster, djob: &JobPlan, temp: &str) -> Result<()> {
        let (policy, num_partitions, projection) = distribute_kind(djob)?;
        // Take the sorted fragments in global (ordinal) order — the same
        // enumeration the unfused offsets pre-pass performs.
        let frags = cluster.take(temp)?;
        let total: usize = frags.iter().map(|d| d.batch.entry_count()).sum();
        let part_of = |g: usize| policy.partition_of_index(g, total, num_partitions);
        let out_format = djob.outputs[0].1.format;
        let out_schema = &djob.outputs[0].1.schema;
        // Appending in ascending global rank reproduces the unfused
        // reducer's global order within each partition. A flat,
        // unprojected output of sorted rows is routed as rows.
        let rows: Option<Vec<&Rows>> = (frags.iter())
            .map(|d| match &d.batch {
                Batch::Rows(rows) if rows.schema() == out_schema => Some(rows),
                _ => None,
            })
            .collect();
        let routed = match rows {
            Some(rows)
                if out_format == Format::Flat && projection.is_none() && !rows.is_empty() =>
            {
                let indices = |p| policy.indices_of(p, total, num_partitions);
                Some(match out_schema.binary_record_width() {
                    Some(width) => {
                        let threads = (cluster.threads())
                            .min((total * width).div_ceil(ASSEMBLY_BYTES_PER_THREAD));
                        stride_partitions(
                            &rows,
                            out_schema,
                            width,
                            num_partitions,
                            threads,
                            indices,
                        )?
                    }
                    None => route_rows(&rows, out_schema, num_partitions, part_of)?,
                })
            }
            _ => None,
        };
        let batches = match routed {
            Some(batches) => batches,
            None => route_entries(frags, out_format, num_partitions, part_of)?,
        };
        let n = cluster.num_nodes();
        for (p, mut batch) in batches.into_iter().enumerate() {
            if let Some(proj) = &projection {
                project_batch(&mut batch, proj)?;
            }
            // The unfused distribute's reducer p runs on node p % n and
            // commits fragment ordinal p; mirror exactly (empty
            // partitions included, so every partition materializes).
            cluster.put_fragment(
                p % n,
                djob.output(),
                p as u32,
                Dataset::new(out_schema.clone(), batch),
            )?;
        }
        Ok(())
    }

    /// The group→split pair as one MapReduce job: the split's routing
    /// predicates run reduce-side, right after the group's add-ons and
    /// format operator, and the engine commits one fragment per split
    /// destination through [`Cluster::run_job_multi`]. The grouped
    /// intermediate is never written. Byte-identity holds because the
    /// lowering gate pinned the group's reducer count to the cluster
    /// size: fused reducer `r` sees exactly the pairs unfused group
    /// fragment `r` held, and commits at the same ordinal on the same
    /// node the unfused map-only split would.
    fn run_fused_group_split(
        &self,
        cluster: &mut Cluster,
        stage_id: &str,
        group_idx: usize,
        split_idx: usize,
        release: &[String],
    ) -> Result<JobStats> {
        let gjob = &self.plan.jobs[group_idx];
        let sjob = &self.plan.jobs[split_idx];
        let group = OrderedReducer::new(gjob)?;
        let split = SplitRouter::new(sjob)?;
        // When the split routes on a count add-on, a run's destination is
        // known from its length alone, and a flat destination can take
        // the run as rows: each member's bytes with the counts appended.
        let grouped = &gjob.outputs[0].1.schema;
        let counted = group.counts.is_some()
            && split.key_idx >= gjob.input_meta.schema.len()
            && (sjob.outputs.iter())
                .all(|(_, m)| m.format == Format::Packed || m.schema == *grouped);
        let reducer = FusedGroupSplitReducer {
            group,
            split,
            counted,
        };
        self.run_keyed(
            cluster,
            gjob,
            &HashPartitioner,
            self.reducers_for(gjob, cluster),
            &reducer,
            stage_id,
            &sjob.outputs[0].0,
            &sjob.outputs,
            release,
        )
    }

    /// The wire-compression key for a job: enabled only when the option is
    /// set and the input is packed (flat entries have nothing to factor).
    fn compress_key(&self, input_meta: &DatasetMeta) -> Option<usize> {
        if self.options.compression && input_meta.format == Format::Packed {
            input_meta.packed_key
        } else {
            None
        }
    }
}

/// Durably publish an executed stage's final outputs: every fragment of
/// the stage's last logical job (the only outputs downstream stages read
/// — a fused stage's elided intermediate was never written) is encoded
/// (concurrently, on the cluster's thread budget), staged in (dataset,
/// node, ordinal) order, and committed write-ahead. When tracing, a
/// `ckpt` phase with the bytes written lands on the stage's job span.
fn persist_stage(
    cluster: &mut Cluster,
    session: &mut CheckpointSession,
    sidx: usize,
    stage: &PhysicalStage,
    plan: &WorkflowPlan,
    stats: &JobStats,
    net: &NetModel,
) -> Result<()> {
    let last = *stage.logical.last().expect("stages cover >= 1 job");
    let job = &plan.jobs[last];
    let mut staged = Vec::new();
    for (name, _) in &job.outputs {
        for node in 0..cluster.num_nodes() {
            for f in cluster.node(node).get(name).unwrap_or_default() {
                staged.push((name, node as u32, f.ordinal, &f.data));
            }
        }
    }
    let payloads = papar_mr::run_slots(staged.len(), cluster.threads(), |i| {
        encode_fragment_payload(staged[i].3)
    });
    let fragments = staged.len() as u64;
    for ((name, node, ordinal, _), payload) in staged.into_iter().zip(payloads) {
        session.stage_fragment(name, node, ordinal, payload?);
    }
    let written = session.commit_stage(sidx as u32, &stage.id, stats)?;
    if cluster.tracing() {
        // The +1 message is the manifest commit append.
        let det_ns = duration_ns(net.transfer_time(fragments + 1, written));
        cluster.append_phase_to_last_job(PhaseTrace::solo(
            PhaseKind::Checkpoint,
            Duration::ZERO,
            det_ns,
            Counters {
                checkpoint_bytes: written,
                messages: fragments + 1,
                records_out: stats.records_out,
                ..Counters::default()
            },
        ));
    }
    Ok(())
}

/// Checkpoint fragment payload: the dataset's schema (so the decoder is
/// self-contained) followed by its wire-encoded batch.
fn encode_fragment_payload(ds: &Dataset) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    let fields = ds.schema.fields();
    buf.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for f in fields {
        buf.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(f.name.as_bytes());
        buf.push(field_type_tag(f.ty));
    }
    wire::encode_batch(&ds.batch, &ds.schema, &mut buf).map_err(papar_mr::MrError::from)?;
    Ok(buf)
}

fn decode_fragment_payload(payload: &[u8]) -> Result<Dataset> {
    use papar_config::input::FieldType;
    let codec = |e: papar_record::CodecError| CoreError::from(papar_mr::MrError::from(e));
    let mut r = wire::Reader::new(payload);
    let nfields = r.read_u32().map_err(codec)? as usize;
    // A field is a length-prefixed name and a type tag: at least 5 bytes.
    wire::check_count(&r, nfields, 5, "checkpoint schema field").map_err(codec)?;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let len = r.read_u32().map_err(codec)? as usize;
        let name = String::from_utf8(r.read_bytes(len).map_err(codec)?.to_vec())
            .map_err(|_| CoreError::exec("checkpoint schema field name is not UTF-8"))?;
        let ty = match r.read_u8().map_err(codec)? {
            0 => FieldType::Integer,
            1 => FieldType::Long,
            2 => FieldType::Double,
            3 => FieldType::Str,
            t => {
                return Err(CoreError::exec(format!(
                    "unknown checkpoint field type tag {t}"
                )))
            }
        };
        fields.push((name, ty));
    }
    let schema = Arc::new(Schema::new(fields));
    let batch = wire::decode_batch(&mut r, &schema).map_err(codec)?;
    Ok(Dataset::new(schema, batch))
}

fn field_type_tag(ty: papar_config::input::FieldType) -> u8 {
    use papar_config::input::FieldType;
    match ty {
        FieldType::Integer => 0,
        FieldType::Long => 1,
        FieldType::Double => 2,
        FieldType::Str => 3,
    }
}

/// Distribute's map task: the stride permutation applied to entry
/// indices. Entry `local` of fragment `f` has global index `g = b_f +
/// local` (`b_f` from the offsets pre-pass), and the policy names
/// its partition from `g` or from its routing vertex. The mapper pushes it
/// straight to that partition, with no key, in a run based at `b_f`:
/// fragments cover disjoint index ranges and each is read in ascending
/// order, so a reducer that orders its runs by base holds its entries in
/// global order, whatever the fragments' layout across nodes. The entry is
/// routed on all of its fields and ships projected onto the output format.
/// Under an index-routed policy, a fragment of fixed-width rows goes as
/// one batch when it can ([`Emit::push_rows_to`]).
struct DistributeMapper {
    offsets: HashMap<(String, u32), u64>,
    policy: DistrPolicy,
    /// Entries across every input.
    total: usize,
    num_partitions: usize,
    /// The fields the output format keeps, when it drops some.
    projection: Option<Vec<usize>>,
}

impl Mapper for DistributeMapper {
    fn map(&self, _: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> papar_mr::Result<()> {
        for mi in inputs {
            let base = fragment_base(&self.offsets, &mi.name, mi.ordinal)?;
            out.set_base(base);
            let by_index = |local: usize| {
                (self.policy).partition_of_index(
                    base as usize + local,
                    self.total,
                    self.num_partitions,
                )
            };
            if let (DistrPolicy::Cyclic | DistrPolicy::Block, Batch::Rows(rows)) =
                (self.policy, &mi.data.batch)
            {
                if out.push_rows_to(rows, by_index)? {
                    continue;
                }
            }
            for (local, entry) in EntryRef::all(&mi.data.batch).enumerate() {
                let part = match self.policy {
                    DistrPolicy::Cyclic | DistrPolicy::Block => by_index(local),
                    DistrPolicy::GraphVertexCut => {
                        let routing = match entry {
                            // A whole low-degree group travels to the
                            // partition its in-vertex hashes to.
                            EntryRef::Packed(p) => Cow::Borrowed(&p.key),
                            // High-degree in-edges spread by source
                            // vertex (field 0 of an edge record).
                            EntryRef::Rec(_) | EntryRef::Row(_) => entry.key(0)?,
                        };
                        (self.policy).partition_of_value(&routing, self.num_partitions)
                    }
                };
                out.push_to(part, entry)?;
            }
        }
        Ok(())
    }

    fn key(&self) -> PairKey {
        PairKey::None
    }

    fn projection(&self) -> Option<&[usize]> {
        self.projection.as_deref()
    }
}

/// Range partitioner with optional reducer-order flip for descending sorts:
/// reducer 0 must hold the *largest* range so the concatenated outputs read
/// in descending order.
struct SortPartitioner {
    range: RangePartitioner,
    descending: bool,
    num_reducers: usize,
}

impl Partitioner for SortPartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> papar_mr::Result<usize> {
        debug_assert_eq!(num_reducers, self.num_reducers);
        let r = self.range.reducer_for(key, num_reducers)?;
        Ok(if self.descending {
            num_reducers - 1 - r
        } else {
            r
        })
    }

    fn int_cuts(&self) -> Option<IntCuts<'_>> {
        (self.range.int_cuts()).map(|cuts| cuts.reversed(self.descending))
    }
}

/// Reduce task of sort and group: pairs arrive key-sorted; add-ons apply
/// per key-run, then the output format operator.
struct OrderedReducer<'a> {
    addons: &'a [BoundAddOn],
    key_idx: usize,
    /// Pack the output by `key_idx`: by the job's `pack` format operator,
    /// or because its declared output format is packed.
    packs: bool,
    /// The output schema, when the output is the input's rows unchanged
    /// (a flat input of the output's schema, which has a field, and
    /// nothing to apply): the reducer gathers them from the inbox.
    rows: Option<Arc<Schema>>,
    /// The output schema: a packed output's members are rows of it.
    schema: Arc<Schema>,
    /// How many `long` fields the add-ons append, when every add-on is a
    /// count over a flat input: a key-run's rows are then its records'
    /// bytes, each with the run length appended that many times, and no
    /// record decodes.
    counts: Option<usize>,
}

// The reduce side speaks the engine's error type; core errors cross into
// it as messages, exactly as they did from the closures these replace.
impl<'a> OrderedReducer<'a> {
    /// The reducer of a sort or group job: it gathers rows when there is
    /// nothing to apply — no add-on, no packing.
    fn new(job: &'a JobPlan) -> Result<Self> {
        let (key_idx, _, addons, output_format) = keyed_kind(job)?;
        let (input, out) = (&job.input_meta, &job.outputs[0].1);
        let packs = output_format == FormatOp::Pack || out.format == Format::Packed;
        let unchanged = addons.is_empty() && !packs && input.format == Format::Flat;
        let rows = (unchanged && input.schema == out.schema && !out.schema.is_empty())
            .then(|| out.schema.clone());
        // A count appends a `long` field (`AddOnKind::result_type`).
        let counts = (input.format == Format::Flat
            && addons.iter().all(|a| a.kind == AddOnKind::Count))
        .then_some(addons.len());
        Ok(OrderedReducer {
            addons,
            key_idx,
            packs,
            rows,
            schema: out.schema.clone(),
            counts,
        })
    }

    /// One key-run's reduce output, in order: its records, with the
    /// add-ons applied, reach `emit` at once, unless the output packs;
    /// then its rows pack onto `groups` (built in `buf`), and a group
    /// reaches `emit` once no later run can extend it.
    fn reduce_run(
        &self,
        run: Pairs<'_>,
        groups: &mut Vec<PackedRecord>,
        buf: &mut Vec<u8>,
        emit: &mut impl FnMut(Entry) -> papar_mr::Result<()>,
    ) -> papar_mr::Result<()> {
        if !self.packs {
            let records = self.decode_run(run)?;
            return records.into_iter().try_for_each(|r| emit(Entry::Rec(r)));
        }
        buf.clear();
        self.run_rows(run, buf)?;
        // One exact-size member buffer per group.
        let members = Rows::new(self.schema.clone(), buf.to_vec())?;
        pack_onto(groups, members, self.key_idx).map_err(CoreError::from)?;
        let done = groups.len().saturating_sub(1);
        groups
            .drain(..done)
            .try_for_each(|g| emit(Entry::Packed(g)))
    }

    /// The whole reduce output, one entry at a time, in order.
    fn reduce_each(
        &self,
        pairs: Pairs<'_>,
        mut emit: impl FnMut(Entry) -> papar_mr::Result<()>,
    ) -> papar_mr::Result<()> {
        let (mut groups, mut buf) = (Vec::new(), Vec::new());
        for run in pairs.runs() {
            self.reduce_run(run?, &mut groups, &mut buf, &mut emit)?;
        }
        groups.into_iter().try_for_each(|g| emit(Entry::Packed(g)))
    }

    /// One key-run's records, sized exactly, with the add-ons applied.
    fn decode_run(&self, run: Pairs<'_>) -> papar_mr::Result<Vec<Record>> {
        let mut records = Vec::with_capacity(run.record_count());
        run.decode_into(&mut records)?;
        for addon in self.addons {
            addon.apply_to_group(&mut records)?;
        }
        Ok(records)
    }

    /// Append one key-run's records, with the add-ons applied, to `out`
    /// as rows of the output schema: with only counts, each record's
    /// bytes and the encoded run length, decoding nothing; otherwise the
    /// decoded records, encoded once.
    fn run_rows(&self, run: Pairs<'_>, out: &mut Vec<u8>) -> papar_mr::Result<()> {
        let Some(counts) = self.counts else {
            for record in self.decode_run(run)? {
                wire::encode_record(&record, &self.schema, out)?;
            }
            return Ok(());
        };
        // A `long` field's wire bytes.
        let count = (run.record_count() as i64).to_le_bytes();
        run.for_each_record(|record| {
            out.extend_from_slice(record);
            (0..counts).for_each(|_| out.extend_from_slice(&count));
        })
    }

    /// The whole reduce output as one batch.
    fn reduce_batch(&self, pairs: Pairs<'_>) -> papar_mr::Result<Batch> {
        if let Some(schema) = &self.rows {
            return gather_rows(&pairs, schema);
        }
        let format = if self.packs {
            Format::Packed
        } else {
            Format::Flat
        };
        let mut out = empty_batch(format, pairs.record_count(), 0);
        self.reduce_each(pairs, |entry| place(&mut out, entry, None))?;
        Ok(out)
    }
}

impl Reducer for OrderedReducer<'_> {
    fn reduce(&self, _ctx: &TaskCtx, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        Ok(vec![self.reduce_batch(pairs)?])
    }
}

/// A split job's routing: the destination a key routes to, and how an
/// entry lands there. The map-only split and the fused group→split stage
/// both route through it, so the two cannot diverge.
struct SplitRouter<'a> {
    policy: &'a SplitPolicy,
    /// The split key field.
    key_idx: usize,
    /// The destinations, in order.
    outputs: &'a [(String, DatasetMeta)],
    /// The split job's id, for error messages.
    job_id: &'a str,
}

impl<'a> SplitRouter<'a> {
    /// The routing of split job `job`.
    fn new(job: &'a JobPlan) -> Result<Self> {
        let JobKind::Split { key_idx, policy } = &job.kind else {
            return Err(CoreError::plan(format!("job '{}' is not a split", job.id)));
        };
        Ok(SplitRouter {
            policy,
            key_idx: *key_idx,
            outputs: &job.outputs,
            job_id: &job.id,
        })
    }

    /// One empty batch per destination, in its format.
    fn empty_outputs(&self) -> Vec<Batch> {
        (self.outputs.iter())
            .map(|(_, m)| empty_batch(m.format, 0, 0))
            .collect()
    }

    /// The destination a split key routes to.
    fn dest(&self, key: &Value) -> papar_mr::Result<usize> {
        self.policy.route(key).ok_or_else(|| {
            MrError::msg(format!(
                "split key {key} matches no condition of job '{}'",
                self.job_id
            ))
        })
    }

    /// Move one entry into the destination its split key routes to; a
    /// lone record bound for a packed destination becomes a singleton
    /// group keyed by the split key.
    fn route(&self, entry: Entry, outs: &mut [Batch]) -> papar_mr::Result<()> {
        let dest = self.dest(&*entry.as_ref().key(self.key_idx)?)?;
        let schema = &self.outputs[dest].1.schema;
        place(&mut outs[dest], entry, Some((self.key_idx, schema)))
    }
}

/// Reduce task of the fused group→split stage: the group's reduce logic
/// (add-ons per key-run, format operator) followed by the split's routing
/// predicates, emitting one batch per split destination.
struct FusedGroupSplitReducer<'a> {
    group: OrderedReducer<'a>,
    split: SplitRouter<'a>,
    /// Every add-on is a count ([`OrderedReducer::counts`]) and the split
    /// routes on one of them: a key-run then routes by its length (see
    /// [`FusedGroupSplitReducer::reduce_counted`]).
    counted: bool,
}

impl FusedGroupSplitReducer<'_> {
    /// The reduce of a split on a count add-on. Every record of a key-run
    /// gets the same counts — the run's length — so the run routes whole,
    /// and its rows are its members' wire bytes, each with the encoded
    /// counts appended: no record is decoded. A flat destination takes its
    /// runs as one buffer of rows; a packed destination takes each run as
    /// a group with its own member buffer, its key decoded once.
    fn reduce_counted(&self, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        let mut outs = self.split.empty_outputs();
        let mut rows: Vec<Vec<u8>> = vec![Vec::new(); outs.len()];
        let (mut groups, mut buf) = (Vec::new(), Vec::new());
        for run in pairs.runs() {
            let run = run?;
            let dest = self.split.dest(&Value::Long(run.record_count() as i64))?;
            if self.split.outputs[dest].1.format == Format::Flat {
                self.group.run_rows(run, &mut rows[dest])?;
                continue;
            }
            let route = &mut |e| self.split.route(e, &mut outs);
            self.group.reduce_run(run, &mut groups, &mut buf, route)?;
        }
        for group in groups {
            self.split.route(Entry::Packed(group), &mut outs)?;
        }
        for ((out, bytes), (_, meta)) in outs.iter_mut().zip(rows).zip(self.split.outputs) {
            if meta.format == Format::Flat {
                *out = Batch::Rows(Rows::new(meta.schema.clone(), bytes)?);
            }
        }
        Ok(outs)
    }
}

impl Reducer for FusedGroupSplitReducer<'_> {
    fn reduce(&self, _ctx: &TaskCtx, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        if self.counted {
            return self.reduce_counted(pairs);
        }
        let mut outs = self.split.empty_outputs();
        // Exactly what the unfused group reducer committed to the
        // intermediate dataset, each entry routed the way the unfused
        // split routes it.
        self.group
            .reduce_each(pairs, |entry| self.split.route(entry, &mut outs))?;
        Ok(outs)
    }
}

/// The global-offset base of one fragment, as the distribute driver's
/// pre-pass recorded it. A miss means the store changed between the
/// pre-pass and the map phase — a typed error instead of the panic this
/// lookup used to be.
fn fragment_base(offsets: &HashMap<(String, u32), u64>, name: &str, ordinal: u32) -> Result<u64> {
    offsets
        .get(&(name.to_string(), ordinal))
        .copied()
        .ok_or_else(|| CoreError::MissingFragmentOffset {
            dataset: name.to_string(),
            ordinal,
        })
}

/// A distribute job's policy, its partition count, and the field indices
/// projecting its output records onto the declared output schema (`None`:
/// records pass through unchanged, because no output format was declared
/// or it keeps every field in place). Shared by the unfused distribute job
/// and the fused stage's driver-side assembly so the two can never
/// diverge.
pub(crate) fn distribute_kind(job: &JobPlan) -> Result<(DistrPolicy, usize, Option<Vec<usize>>)> {
    let JobKind::Distribute {
        policy,
        num_partitions,
        final_schema,
    } = &job.kind
    else {
        return Err(CoreError::plan(format!(
            "job '{}' is not a distribute",
            job.id
        )));
    };
    let Some(out) = final_schema else {
        return Ok((*policy, *num_partitions, None));
    };
    let mut idxs = Vec::with_capacity(out.len());
    for f in out.fields() {
        idxs.push(job.input_meta.schema.require(&f.name).map_err(|e| {
            CoreError::plan(format!(
                "output format field '{}' missing from data: {e}",
                f.name
            ))
        })?);
    }
    let identity =
        idxs.len() == job.input_meta.schema.len() && idxs.iter().enumerate().all(|(i, &f)| i == f);
    Ok((*policy, *num_partitions, (!identity).then_some(idxs)))
}

/// A sort's or a group's key field, direction (a group's is ascending),
/// add-ons and output format operator.
pub(crate) fn keyed_kind(job: &JobPlan) -> Result<(usize, bool, &[BoundAddOn], FormatOp)> {
    match &job.kind {
        JobKind::Sort {
            key_idx,
            descending,
            addons,
            output_format,
        } => Ok((*key_idx, *descending, addons, *output_format)),
        JobKind::Group {
            key_idx,
            addons,
            output_format,
        } => Ok((*key_idx, false, addons, *output_format)),
        _ => Err(CoreError::plan(format!("job '{}' is not keyed", job.id))),
    }
}

/// Sample every `stride`-th entry key of a batch, as [`EntryRef::key`]
/// reads it: a packed group's is its first member's, which equals the
/// group key for key-field grouping. Cloning only the sampled keys keeps
/// the sampling pass O(n/stride) in allocations.
fn sample_keys(batch: &Batch, key_idx: usize, stride: usize, out: &mut Vec<Value>) -> Result<()> {
    for entry in EntryRef::all(batch).step_by(stride.max(1)) {
        out.push(entry.key(key_idx)?.into_owned());
    }
    Ok(())
}

/// Decompose a batch into shuffle entries, by move; rows decode.
fn batch_entries(batch: Batch) -> impl Iterator<Item = Entry> {
    let (records, groups) = match batch {
        Batch::Flat(records) => (records, Vec::new()),
        Batch::Rows(rows) => (rows.to_records(), Vec::new()),
        Batch::Packed(groups) => (Vec::new(), groups),
    };
    records
        .into_iter()
        .map(Entry::Rec)
        .chain(groups.into_iter().map(Entry::Packed))
}

/// Whether records of `input` are laid out like records of `out`: the
/// same field types in the same order, at least one of them.
fn same_layout(input: &Schema, out: &Schema) -> bool {
    let types = input.fields().iter().map(|f| f.ty);
    types.eq(out.fields().iter().map(|f| f.ty)) && !out.is_empty()
}

/// `schema`'s fields `proj` names, in that order.
pub(crate) fn project_schema(schema: &Schema, proj: &[usize]) -> Arc<Schema> {
    let fields = proj.iter().map(|&i| &schema.fields()[i]);
    Arc::new(Schema::new(
        fields.map(|f| (f.name.clone(), f.ty)).collect(),
    ))
}

/// A reducer's flat records as rows of `schema`, copied from the inbox in
/// reduce order. No record is decoded.
fn gather_rows(pairs: &Pairs<'_>, schema: &Arc<Schema>) -> papar_mr::Result<Batch> {
    let mut bytes = Vec::new();
    pairs.gather_rows(&mut bytes)?;
    Ok(Batch::Rows(Rows::new(schema.clone(), bytes)?))
}

/// The fused assembly over rows: every sorted fragment's rows routed by
/// global rank into exact-size partition buffers, by byte copy.
fn route_rows(
    frags: &[&Rows],
    schema: &Arc<Schema>,
    num_partitions: usize,
    part_of: impl Fn(usize) -> usize,
) -> Result<Vec<Batch>> {
    let all = || frags.iter().flat_map(|rows| rows.iter());
    let mut sizes = vec![0usize; num_partitions];
    for (g, row) in all().enumerate() {
        sizes[part_of(g)] += row.as_bytes().len();
    }
    let mut parts: Vec<Vec<u8>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (g, row) in all().enumerate() {
        parts[part_of(g)].extend_from_slice(row.as_bytes());
    }
    parts
        .into_iter()
        .map(|bytes| Ok(Batch::Rows(Rows::new(schema.clone(), bytes)?)))
        .collect()
}

/// Row bytes that pay for one more assembly thread: below about this much,
/// starting threads costs more than it saves. On a 2-core host, 500 Fig 8
/// rows took 50–98 µs on two threads and 14–21 µs on one; 500,000 rows
/// took 6.4–8.9 ms on one and 3.8–5.1 ms on two.
const ASSEMBLY_BYTES_PER_THREAD: usize = 1 << 20;

/// The fused assembly over fixed-width rows: partition `p` copies the rows
/// of global ranks `indices(p)` by stride over the sorted fragments into
/// an exact-size buffer, the partitions filling in parallel on `threads`
/// threads. A policy with no index ranges routes nothing here.
fn stride_partitions(
    frags: &[&Rows],
    schema: &Arc<Schema>,
    width: usize,
    num_partitions: usize,
    threads: usize,
    indices: impl Fn(usize) -> Option<StepBy<Range<usize>>> + Sync,
) -> Result<Vec<Batch>> {
    let parts = run_slots(num_partitions, threads, |p| {
        let ranks =
            indices(p).ok_or_else(|| CoreError::exec("a value-routed policy has no ranks"))?;
        let mut bytes = Vec::with_capacity(ranks.len() * width);
        let mut ranks = ranks.peekable();
        let mut base = 0;
        for rows in frags {
            let (src, end) = (rows.as_bytes(), base + rows.len());
            while let Some(g) = ranks.next_if(|&g| g < end) {
                bytes.extend_from_slice(&src[(g - base) * width..][..width]);
            }
            base = end;
        }
        Ok(Batch::Rows(Rows::new(schema.clone(), bytes)?))
    });
    parts.into_iter().collect()
}

/// The fused assembly over decoded entries: each moved once, by global
/// rank, into its exact-size partition.
fn route_entries(
    frags: Vec<Dataset>,
    out_format: Format,
    num_partitions: usize,
    part_of: impl Fn(usize) -> usize,
) -> Result<Vec<Batch>> {
    let mut sizes = vec![(0usize, 0usize); num_partitions];
    let all = frags.iter().flat_map(|d| EntryRef::all(&d.batch));
    for (g, entry) in all.enumerate() {
        let (records, entries) = &mut sizes[part_of(g)];
        *records += entry.record_count();
        *entries += 1;
    }
    let mut parts: Vec<Batch> = (sizes.into_iter())
        .map(|(records, entries)| empty_batch(out_format, records, entries))
        .collect();
    let entries = frags.into_iter().flat_map(|d| batch_entries(d.batch));
    for (g, entry) in entries.enumerate() {
        place(&mut parts[part_of(g)], entry, None)?;
    }
    Ok(parts)
}

/// Why a distribute into a packed output refuses a flat entry.
const FLAT_IN_PACKED: &str = "distribute cannot keep flat entries in a packed output";

/// An empty output batch of `format`, with room for `records` flat
/// records or `entries` packed groups, whichever the format holds.
fn empty_batch(format: Format, records: usize, entries: usize) -> Batch {
    match format {
        Format::Flat => Batch::Flat(Vec::with_capacity(records)),
        Format::Packed => Batch::Packed(Vec::with_capacity(entries)),
    }
}

/// Move one entry into an output batch: the one place an operator's
/// entry lands in an output of either format. A flat output takes a
/// record, or a packed group's members in order, decoded. A packed output
/// takes a group; a lone record becomes a singleton group of one row of
/// `wrap`'s schema, keyed by its field `wrap`'s index (split), and without
/// one it is refused with [`FLAT_IN_PACKED`] (distribute). Rows are built
/// from bytes, never placed into.
fn place(
    out: &mut Batch,
    entry: Entry,
    wrap: Option<(usize, &Arc<Schema>)>,
) -> papar_mr::Result<()> {
    match (out, entry) {
        (Batch::Flat(records), Entry::Rec(r)) => records.push(r),
        (Batch::Flat(records), Entry::Packed(p)) => {
            records.extend(p.members.iter().map(|row| row.to_record()))
        }
        (Batch::Packed(groups), Entry::Packed(p)) => groups.push(p),
        (Batch::Packed(groups), Entry::Rec(r)) => {
            let (key_idx, schema) = wrap.ok_or_else(|| MrError::msg(FLAT_IN_PACKED))?;
            let key = r.require(key_idx)?.clone();
            let members = Rows::from_records(schema.clone(), std::slice::from_ref(&r))?;
            groups.push(PackedRecord { key, members });
        }
        (Batch::Rows(_), _) => return Err(MrError::msg("an entry cannot be placed into rows")),
    }
    Ok(())
}

/// Assert every record of a committed batch against the job's declared
/// output metadata: format, arity, per-field value types, and (for packed
/// batches) the group key. Integer-family values (`Int`/`Long`) conform to
/// either integer-family field type because add-ons widen on overflow-prone
/// aggregates (e.g. `sum` over `integer` produces `Long`).
#[cfg(debug_assertions)]
fn verify_batch_conforms(batch: &Batch, meta: &DatasetMeta, job_id: &str, dataset: &str) {
    use papar_config::input::FieldType;

    let declared_format = match meta.format {
        Format::Flat => matches!(batch, Batch::Flat(_) | Batch::Rows(_)),
        Format::Packed => matches!(batch, Batch::Packed(_)),
    };
    debug_assert!(
        declared_format,
        "job '{job_id}' dataset '{dataset}': batch format does not match the \
         declared {:?}",
        meta.format
    );

    let fields = meta.schema.fields();
    let check_record = |r: &Record| {
        debug_assert_eq!(
            r.values().len(),
            fields.len(),
            "job '{job_id}' dataset '{dataset}': record arity {} does not match \
             schema arity {}",
            r.values().len(),
            fields.len()
        );
        for (field, value) in fields.iter().zip(r.values()) {
            let ok = matches!(
                (&field.ty, value),
                (
                    FieldType::Integer | FieldType::Long,
                    Value::Int(_) | Value::Long(_)
                ) | (FieldType::Double, Value::Double(_))
                    | (FieldType::Str, Value::Str(_))
            );
            debug_assert!(
                ok,
                "job '{job_id}' dataset '{dataset}': field '{}' declared {:?} but \
                 holds {value:?}",
                field.name, field.ty
            );
        }
    };
    match batch {
        Batch::Flat(records) => records.iter().for_each(check_record),
        Batch::Rows(rows) => rows.iter().for_each(|row| check_record(&row.to_record())),
        Batch::Packed(groups) => {
            for g in groups {
                g.members
                    .iter()
                    .for_each(|row| check_record(&row.to_record()));
                if let Some(k) = meta.packed_key {
                    if let Some(first) = g.members.iter().next() {
                        debug_assert_eq!(
                            first.field(k).ok().as_ref(),
                            Some(&g.key),
                            "job '{job_id}' dataset '{dataset}': packed group key \
                             {:?} disagrees with member field #{k}",
                            g.key
                        );
                    }
                }
            }
        }
    }
}

/// Project every record onto the given field indices, in place; rows
/// decode first, and a group's members are projected as their bytes. Only
/// the fused sort→distribute assembly projects so: an unfused distribute
/// ships its entries projected.
fn project_batch(batch: &mut Batch, proj: &[usize]) -> Result<()> {
    let project = |r: &mut Record| *r = proj.iter().map(|&i| r.values()[i].clone()).collect();
    match batch {
        Batch::Rows(rows) => {
            let mut records = rows.to_records();
            records.iter_mut().for_each(project);
            *batch = Batch::Flat(records);
        }
        Batch::Flat(records) => records.iter_mut().for_each(project),
        Batch::Packed(groups) => {
            for g in groups {
                let mut bytes = Vec::new();
                for row in g.members.iter() {
                    wire::project_record(row.as_bytes(), row.schema(), proj, &mut bytes);
                }
                let schema = project_schema(g.members.schema(), proj);
                g.members = Rows::new(schema, bytes).map_err(MrError::from)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;
    use papar_record::rec;
    use proptest::prelude::*;

    /// A collapse the node count does not divide names the busiest node
    /// as W010 does; one it divides adds nothing, and one below the node
    /// count names the idle nodes.
    #[test]
    fn a_collapse_the_nodes_do_not_divide_names_the_busiest_node() {
        let note = |achievable, nodes| {
            RunNote::ReducersCollapsed {
                job: "sort".into(),
                requested: 8,
                achievable,
                nodes,
            }
            .to_string()
        };
        let head = "note: job 'sort' asked for 8 reducers but the sampled key domain \
                    fills only 6; collapsed to 6 (duplicate range boundaries would have \
                    left 2 reducer(s) provably empty)";
        assert_eq!(
            note(6, 4),
            format!(
                "{head}; on 4 nodes, the busiest node reduces 2 of 6 ranges, 1.33x its \
                 fair share"
            )
        );
        assert!(note(4, 4).ends_with("provably empty)"), "{}", note(4, 4));
        assert!(note(6, 3).ends_with("provably empty)"), "{}", note(6, 3));
        assert!(
            note(6, 8).ends_with("nodes 6..=7 reduce nothing"),
            "{}",
            note(6, 8)
        );
    }

    #[test]
    fn a_fragment_payload_refuses_a_field_count_the_bytes_cannot_hold() {
        let err = decode_fragment_payload(&[0, 0xff, 0xff, 0xff, 0xff]).unwrap_err();
        assert!(
            err.to_string().contains("checkpoint schema field count"),
            "{err}"
        );
    }

    /// A fixed-width fragment (rows) and a string one (records): both are
    /// published as the same wire bytes and restored as rows.
    fn payloads() -> Vec<(Dataset, Vec<u8>)> {
        let ints = Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Double),
        ]));
        let flat = Batch::Flat(vec![rec![1, 0.5], rec![-7, 2.0]]);
        let mut bytes = Vec::new();
        wire::encode_batch(&flat, &ints, &mut bytes).unwrap();
        let rows = wire::decode_batch(&mut wire::Reader::new(&bytes), &ints).unwrap();
        let text = Arc::new(Schema::new(vec![
            ("v", FieldType::Str),
            ("n", FieldType::Long),
        ]));
        let records = Batch::Flat(vec![rec!["a vertex id", 3i64], rec!["", -1i64]]);
        [Dataset::new(ints, rows), Dataset::new(text, records)]
            .into_iter()
            .map(|ds| {
                let payload = encode_fragment_payload(&ds).unwrap();
                (ds, payload)
            })
            .collect()
    }

    #[test]
    fn fragment_payloads_round_trip_rows_and_records() {
        // Both come back as rows, equal to what was published.
        for (ds, payload) in payloads() {
            let back = decode_fragment_payload(&payload).unwrap();
            assert_eq!(back, ds);
            assert!(matches!(back.batch, Batch::Rows(_)), "{back:?}");
            assert_eq!(encode_fragment_payload(&back).unwrap(), payload);
        }
    }

    /// Each placement policy, stated once in [`place`].
    #[test]
    fn place_wraps_refuses_and_unpacks_by_output_format() -> Result<()> {
        let schema = Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Integer),
        ]));
        let wrap = Some((1, &schema));
        let group = |k: i32, records: &[Record]| -> Result<PackedRecord> {
            let members = Rows::from_records(schema.clone(), records)?;
            Ok(PackedRecord::new(Value::Int(k), members, 0)?)
        };
        let five = group(5, &[rec![5, 1], rec![5, 2]])?;
        // A split wraps a lone record as a group of one row, keyed by the
        // split key.
        let mut split = empty_batch(Format::Packed, 0, 0);
        place(&mut split, Entry::Rec(rec![4, 9]), wrap)?;
        place(&mut split, Entry::Packed(five.clone()), wrap)?;
        let single = PackedRecord::new(
            Value::Int(9),
            Rows::from_records(schema.clone(), &[rec![4, 9]])?,
            1,
        )?;
        assert_eq!(split, Batch::Packed(vec![single, five.clone()]));
        // A distribute refuses it.
        let refused = place(&mut split, Entry::Rec(rec![4, 9]), None);
        assert!(matches!(refused, Err(e) if e.to_string().contains(FLAT_IN_PACKED)));
        // A flat output takes records and a group's members, in order.
        let mut flat = empty_batch(Format::Flat, 0, 0);
        place(&mut flat, Entry::Rec(rec![4, 9]), None)?;
        place(&mut flat, Entry::Packed(five), wrap)?;
        assert_eq!(flat, Batch::Flat(vec![rec![4, 9], rec![5, 1], rec![5, 2]]));
        // Rows are never placed into.
        let mut rows = Batch::Rows(Rows::new(schema.clone(), Vec::new())?);
        assert!(place(&mut rows, Entry::Rec(rec![4, 9]), wrap).is_err());
        Ok(())
    }

    /// The parallel stride assembly fills each partition with exactly the
    /// rows, in order, that the sequential walk routes to it: cyclic and
    /// block, over fragments empty and not, with fewer and more partitions
    /// than rows, at every thread count.
    #[test]
    fn stride_assembly_routes_what_the_walk_routes() -> Result<()> {
        let schema = Arc::new(Schema::new(vec![("k", FieldType::Long)]));
        let mut next = 0i64;
        let frags = [0, 7, 0, 9, 7]
            .map(|len| {
                let records: Vec<Record> = (next..next + len).map(|k| rec![k * 5]).collect();
                next += len;
                Rows::from_records(schema.clone(), &records)
            })
            .into_iter()
            .collect::<papar_record::Result<Vec<Rows>>>()?;
        let frags: Vec<&Rows> = frags.iter().collect();
        let total = 23;
        for policy in [DistrPolicy::Cyclic, DistrPolicy::Block] {
            for parts in [1, 3, 8, 30] {
                let part_of = |g| policy.partition_of_index(g, total, parts);
                let walked = route_rows(&frags, &schema, parts, part_of)?;
                for threads in [1, 2, 3] {
                    let indices = |p| policy.indices_of(p, total, parts);
                    let strided = stride_partitions(&frags, &schema, 8, parts, threads, indices)?;
                    assert_eq!(
                        strided, walked,
                        "{policy:?} into {parts} on {threads} threads"
                    );
                }
            }
        }
        Ok(())
    }

    /// The sort sampler reads the same keys from rows, records and
    /// groups.
    #[test]
    fn key_sampling_does_not_depend_on_the_batch_form() -> Result<()> {
        let schema = Arc::new(Schema::new(vec![
            ("k", FieldType::Integer),
            ("v", FieldType::Long),
        ]));
        let records: Vec<Record> = (0..20).map(|i| rec![(i * 7) % 20, i as i64]).collect();
        let mut bytes = Vec::new();
        wire::encode_batch(&Batch::Flat(records.clone()), &schema, &mut bytes)?;
        let rows = wire::decode_batch(&mut wire::Reader::new(&bytes), &schema)?;
        assert!(matches!(rows, Batch::Rows(_)));
        let mut groups = Vec::new();
        pack_onto(
            &mut groups,
            Rows::from_records(schema.clone(), &records)?,
            0,
        )?;
        let forms = [rows, Batch::Flat(records), Batch::Packed(groups)];
        for stride in [1, 3] {
            let expected: Vec<Value> = (0..20)
                .step_by(stride)
                .map(|i| Value::Int((i * 7) % 20))
                .collect();
            for batch in &forms {
                let mut sampled = Vec::new();
                sample_keys(batch, 0, stride, &mut sampled)?;
                assert_eq!(sampled, expected, "{batch:?}");
            }
        }
        Ok(())
    }

    proptest! {
        /// A sort's partitioner routes an integer key by its cuts to the
        /// reducer `reducer_for` routes it to as a `Value`, or to the same
        /// error, ascending and descending: over sampled boundaries (so
        /// collapsed or empty ones) of `int` or `long` keys around ±2^53
        /// and the ends of `i64`, keys equal to a boundary included.
        #[test]
        fn sort_routing_by_integer_cuts_matches_reducer_for(
            long in any::<bool>(),
            descending in any::<bool>(),
            sample in prop::collection::vec(
                prop_oneof![
                    -3i64..3,
                    Just(i64::MIN),
                    Just(i64::MAX),
                    (1i64 << 53) - 2..(1i64 << 53) + 3,
                ],
                0..24,
            ),
            requested in 1usize..9,
            short in 0usize..2,
        ) {
            let value = |k: i64| match long {
                true => Value::Long(k),
                false => Value::Int(k.clamp(i32::MIN.into(), i32::MAX.into()) as i32),
            };
            let sample: Vec<Value> = sample.into_iter().map(value).collect();
            let boundaries =
                sampler::boundaries_from_samples(std::slice::from_ref(&sample), requested)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let num_reducers = (boundaries.len() + 1 - short).max(1);
            let p = SortPartitioner {
                range: RangePartitioner::new(boundaries),
                descending,
                num_reducers,
            };
            let cuts = p.int_cuts();
            prop_assert!(cuts.is_some());
            let probes = sample.into_iter().chain([-4, 0, 4, i64::MIN, i64::MAX].map(value));
            for key in probes {
                let got = cuts.zip(key.as_i64()).map(|(c, k)| c.reducer_for(k, num_reducers));
                let want = p.reducer_for(&key, num_reducers);
                prop_assert_eq!(format!("{got:?}"), format!("{:?}", Some(want)), "{:?}", key);
            }
        }

        /// Arbitrary bytes, every truncation and every single corrupted
        /// byte of a checkpoint fragment payload decode to a dataset or a
        /// typed error: never a panic or an abort.
        #[test]
        fn fragment_payloads_decode_totally(
            bytes in prop::collection::vec(any::<u8>(), 0..128),
            flip in (any::<usize>(), 1u8..255),
        ) {
            let _ = decode_fragment_payload(&bytes);
            for (_, payload) in payloads() {
                for cut in 0..payload.len() {
                    prop_assert!(decode_fragment_payload(&payload[..cut]).is_err());
                }
                let mut bad = payload.clone();
                let at = flip.0 % bad.len();
                bad[at] ^= flip.1;
                let _ = decode_fragment_payload(&bad);
            }
        }
    }
}
