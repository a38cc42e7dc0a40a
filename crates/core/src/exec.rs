//! The workflow executor: launches planned jobs one by one on the
//! simulated cluster (paper Section III-D, "the jobs are launched one by
//! one following the order defined in the workflow configuration file").

use papar_mr::fault::RecoveryAction;
use papar_mr::sampler;
use papar_mr::stats::{JobStats, NetModel, RecoveryStats};
use papar_mr::{CheckpointSession, Cluster};
use papar_record::batch::{Batch, Dataset};
use papar_record::wire;
#[cfg(debug_assertions)]
use papar_record::{Record, Value};
use papar_trace::{
    duration_ns, Collector, Counters, JobTrace, PhaseKind, PhaseTrace, WorkflowTrace,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::{CoreError, Result};
use crate::physplan::{explain, PhysicalStage, StageKind};
#[cfg(debug_assertions)]
use crate::plan::{DatasetMeta, Format};
use crate::plan::{JobKind, JobPlan, WorkflowPlan};
use crate::stage::{run_custom, run_distribute, run_group, run_group_split};
use crate::stage::{run_sort, run_sort_distribute, run_split, StageCtx};

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
    /// Reduce-range sampling mode.
    pub sampling: SamplingMode,
    /// CSC-compress packed entries on the wire (paper Section III-D "Data
    /// Compression").
    pub compression: bool,
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
            sampling: SamplingMode::Distributed,
            compression: false,
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
    /// One entry per physical stage, in launch order: a fused stage is one
    /// entry whether it ran as one engine job or as its two.
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
    // `reducers=None` and `stride` stand where the deleted reducer-count
    // and sample-stride options were written, so fingerprints, and the
    // checkpoints keyed by them, carry over from builds that had them.
    let _ = writeln!(
        canon,
        "sampling={:?} compression={} stride={} reducers=None fuse={}",
        options.sampling,
        options.compression,
        sampler::SAMPLE_STRIDE,
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
    /// would execute on it, honoring [`ExecOptions::fuse`] and the
    /// cluster size (the group→split gate depends on the reducer count).
    ///
    /// [`run`]: WorkflowRunner::run
    pub fn physical_plan(&self, cluster: &Cluster) -> crate::physplan::PhysicalPlan {
        crate::physplan::lower(&self.plan, cluster.num_nodes(), self.options.fuse)
    }

    /// Execute the plan's physical stages in order. Afterwards the stores
    /// hold only the workflow output; fetch the final partitions with
    /// `cluster.collect(&runner.plan().output_path)`. Every other dataset
    /// — external inputs and declared intermediates alike — leaves every
    /// store, primaries and replicas, at the map barrier of the last job
    /// that reads it (the end of its stage for map-only stages, and the
    /// end of its own stage for a dataset nothing reads). The report
    /// carries one [`JobStats`] and the trace one span per *physical*
    /// stage, so fused runs report fewer jobs (a fused stage's span records
    /// the logical jobs it covers, and one that ran its two jobs reports
    /// them as one, [`JobStats::then`]); what a caller wants to know about
    /// an intermediate it reads from there, or from the trace.
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
                let first_job = cluster.jobs_launched();
                let cx = &mut StageCtx {
                    cluster: &mut *cluster,
                    name: &stage.id,
                    release,
                    options: &self.options,
                    report: &mut report,
                };
                let jobs = &self.plan.jobs;
                let stats = match &stage.kind {
                    StageKind::Single(j) => {
                        let job = &jobs[*j];
                        match &job.kind {
                            JobKind::Sort { .. } => run_sort(cx, job, job.output()),
                            JobKind::Group { .. } => run_group(cx, job),
                            JobKind::Split { .. } => run_split(cx, job),
                            JobKind::Distribute { .. } => run_distribute(cx, job),
                            JobKind::Custom { op_name, params } => {
                                run_custom(cx, &self.plan.registry, job, op_name, params)
                            }
                        }
                    }
                    StageKind::FusedSortDistribute { sort, distribute } => {
                        run_sort_distribute(cx, &jobs[*sort], &jobs[*distribute])
                    }
                    StageKind::FusedGroupSplit { group, split } => {
                        run_group_split(cx, &jobs[*group], &jobs[*split])
                    }
                }?;
                // A fused stage's span records the logical jobs it covers.
                // Every logical job holds one fault-schedule slot, so later
                // jobs keep the same index with and without fusion: the
                // stage's engine jobs took theirs, and the slots of the jobs
                // it ran no engine job for are reserved here. Faults
                // addressed to such a slot never fire (there is no task to
                // crash); recovery transparency keeps the output
                // byte-identical.
                let covers = self.covers(stage);
                if !covers.is_empty() && cluster.tracing() {
                    cluster.annotate_last_job_trace(covers);
                }
                let launched = cluster.jobs_launched() - first_job;
                for _ in launched..stage.logical.len() {
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
                fused_path: None,
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
/// self-contained) followed by its wire-encoded batch
/// ([`wire::encode_dataset`]).
fn encode_fragment_payload(ds: &Dataset) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    wire::encode_dataset(ds, &mut buf).map_err(papar_mr::MrError::from)?;
    Ok(buf)
}

fn decode_fragment_payload(payload: &[u8]) -> Result<Dataset> {
    let mut r = wire::Reader::new(payload);
    Ok(wire::decode_dataset(&mut r).map_err(papar_mr::MrError::from)?)
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

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;
    use papar_record::{rec, Schema};
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

    proptest! {
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
