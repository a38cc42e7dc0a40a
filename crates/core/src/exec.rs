//! The workflow executor: launches planned jobs one by one on the
//! simulated cluster (paper Section III-D, "the jobs are launched one by
//! one following the order defined in the workflow configuration file").

use papar_mr::engine::{FnMapper, FnReducer, HashPartitioner, MapInput, Reducer};
use papar_mr::fault::RecoveryAction;
use papar_mr::sampler::{self, RangePartitioner};
use papar_mr::stats::{job_trace_from_stats, JobStats, NetModel, RecoveryStats};
use papar_mr::{CheckpointSession, Cluster, Entry, MapReduceJob, Partitioner, TaskPhase};
use papar_mr::{Emit, EntryRef, Mapper, MrError, Pairs, TaskCtx};
use papar_record::batch::{Batch, Dataset, Rows};
use papar_record::packed::{pack_onto, PackedRecord};
use papar_record::view::ENTRY_REC;
use papar_record::wire;
use papar_record::{Record, Schema, Value};
use papar_trace::{
    duration_ns, Collector, Counters, JobTrace, PhaseKind, PhaseTrace, TaskTrace, WorkflowTrace,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::{CoreError, Result};
use crate::operator::{BoundAddOn, CustomJobCtx, FormatOp};
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
    /// Let the cost-based planner override the literal knobs above
    /// (reducer counts, sampling stride, boundary placement, per-rewrite
    /// fusion) from sampled key statistics. Off by default (`--adaptive`
    /// sets it); when on, the literal values become *defaults the
    /// planner may override* and the decision record travels with the
    /// run (see [`crate::adaptive`]).
    pub adaptive: bool,
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
            adaptive: false,
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
    /// Typed engine notes (collapsed reducer counts, post-run re-balance
    /// hints) — things worth telling the user that are not errors.
    pub notes: Vec<RunNote>,
    /// The adaptive planner's decision record, when the run was adaptive
    /// (injected via [`WorkflowRunner::with_decision`] or computed by the
    /// runner itself under [`ExecOptions::adaptive`]).
    pub rationale: Option<crate::adaptive::PlanRationale>,
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
    },
    /// The observed shuffle skew contradicts the adaptive prediction:
    /// the statistics are stale or the sample missed a hot key, and a
    /// re-run with fresh stats may re-balance.
    RebalanceHint {
        /// The keyed job whose skew histogram escaped the prediction.
        job: String,
        /// Predicted busiest-reducer records.
        predicted: u64,
        /// Observed busiest-reducer records.
        observed: u64,
    },
}

impl std::fmt::Display for RunNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunNote::ReducersCollapsed {
                job,
                requested,
                achievable,
            } => write!(
                f,
                "note: job '{job}' asked for {requested} reducers but the sampled key \
                 domain fills only {achievable}; collapsed to {achievable} (duplicate \
                 range boundaries would have left {} reducer(s) provably empty)",
                requested - achievable
            ),
            RunNote::RebalanceHint {
                job,
                predicted,
                observed,
            } => write!(
                f,
                "re-balance hint: job '{job}' observed a busiest reducer of {observed} \
                 record(s) vs {predicted} predicted; the key statistics look stale — \
                 re-run with --adaptive to re-sample and re-balance"
            ),
        }
    }
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
/// thresholds), the cluster size, and the byte-affecting execution
/// options. The thread count is deliberately absent — output bytes are
/// identical at every count.
///
/// This is the prefix of the checkpoint resume fingerprint (which appends
/// input content hashes and the caller's fault/seed salt); hashed alone it
/// is the *plan fingerprint* a resident `papar serve` daemon keys its
/// plan cache by, so "same fingerprint" means "same partitioning plan,
/// whatever data arrives".
pub fn plan_canon(
    plan: &WorkflowPlan,
    phys: &crate::physplan::PhysicalPlan,
    nodes: usize,
    options: &ExecOptions,
) -> String {
    plan_canon_with(plan, phys, nodes, options, None)
}

/// [`plan_canon`] plus the adaptive decision record, when one is active.
/// The rationale canon pins the chosen knobs *and* the key-statistics
/// fingerprint they were derived from, so an adaptive plan's fingerprint
/// changes whenever the input's key distribution does — which is what
/// keeps `papar serve`'s plan cache and checkpoint resume honest.
pub fn plan_canon_with(
    plan: &WorkflowPlan,
    phys: &crate::physplan::PhysicalPlan,
    nodes: usize,
    options: &ExecOptions,
    rationale: Option<&crate::adaptive::PlanRationale>,
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
    if let Some(r) = rationale {
        canon.push_str(&r.canon());
    }
    canon
}

/// FNV-1a hash of [`plan_canon`] — the plan-cache key for `papar serve`.
pub fn plan_fingerprint(
    plan: &WorkflowPlan,
    phys: &crate::physplan::PhysicalPlan,
    nodes: usize,
    options: &ExecOptions,
) -> u64 {
    wire::checksum(plan_canon(plan, phys, nodes, options).as_bytes())
}

/// FNV-1a hash of [`plan_canon_with`] — the fingerprint of an adaptive
/// plan together with its decision record.
pub fn plan_fingerprint_with(
    plan: &WorkflowPlan,
    phys: &crate::physplan::PhysicalPlan,
    nodes: usize,
    options: &ExecOptions,
    rationale: Option<&crate::adaptive::PlanRationale>,
) -> u64 {
    wire::checksum(plan_canon_with(plan, phys, nodes, options, rationale).as_bytes())
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
    /// The adaptive planner's decision, when one is active: injected by
    /// the caller (CLI/serve compute it before the run so they can show
    /// the rationale up front) or filled in by [`run`] itself from the
    /// scattered input when [`ExecOptions::adaptive`] is set. A
    /// `OnceLock` because `run` takes `&self`.
    ///
    /// [`run`]: WorkflowRunner::run
    decision: std::sync::OnceLock<crate::adaptive::PlanDecision>,
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
            decision: std::sync::OnceLock::new(),
        }
    }

    /// Inject a pre-computed adaptive decision (the planner ran against
    /// the same input data this runner will scatter). The runner applies
    /// the decision's knobs verbatim; with none injected and
    /// [`ExecOptions::adaptive`] set, [`run`] computes one itself from
    /// the scattered input.
    ///
    /// [`run`]: WorkflowRunner::run
    pub fn with_decision(self, decision: crate::adaptive::PlanDecision) -> Self {
        let _ = self.decision.set(decision);
        self
    }

    /// The active adaptive decision, if any.
    pub fn decision(&self) -> Option<&crate::adaptive::PlanDecision> {
        self.decision.get()
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
        let toggles = match self.decision.get() {
            Some(d) => d.knobs().fuse,
            None => crate::physplan::FuseToggles::from_flag(self.options.fuse),
        };
        crate::physplan::lower_with(
            &self.plan,
            cluster.num_nodes(),
            self.options.default_reducers,
            toggles,
        )
    }

    /// Compute the adaptive decision from the scattered input, when
    /// [`ExecOptions::adaptive`] is set and none was injected. The stats
    /// walk visits fragments in global ordinal order — the original
    /// record order — so the runner and a pre-run CLI/serve planner
    /// derive identical statistics and identical decisions.
    fn ensure_decision(&self, cluster: &Cluster) -> Result<()> {
        if !self.options.adaptive || self.decision.get().is_some() {
            return Ok(());
        }
        let stats = crate::stats::collect_for_plan(
            &self.plan,
            |name| {
                let frags = cluster.fragments(name).unwrap_or_default();
                Some(frags.into_iter().map(|d| &d.batch))
            },
            self.options.sample_stride,
        )?;
        let decision = crate::adaptive::choose(
            &self.plan,
            cluster.num_nodes(),
            &self.options,
            stats.as_ref(),
        );
        let _ = self.decision.set(decision);
        Ok(())
    }

    /// The effective sampling stride (decision override, else the
    /// configured literal).
    fn effective_stride(&self) -> usize {
        match self.decision.get() {
            Some(d) => d.knobs().sample_stride.max(1),
            None => self.options.sample_stride.max(1),
        }
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
        self.ensure_decision(cluster)?;
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
            if let Some(s) = &session {
                if s.is_complete(sidx) {
                    self.restore_stage(cluster, s, sidx, stage, &net)?;
                    report.jobs.push(s.completed()[sidx].stats.clone());
                    report.stages_resumed += 1;
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
                    // Skipping the stage that last reads a dataset drops
                    // it too, so resumed and cold runs hold the same stores.
                    for name in release {
                        cluster.release(name);
                    }
                    continue;
                }
            }
            if report.stages_resumed > 0 && !scatter_charge_dropped {
                // The resumed run re-scattered the input, charging its
                // replica placement to the pending recovery ledger again
                // — but the skipped first stage's replayed stats already
                // carry that charge from the original run. Drop the
                // duplicate so a resumed report matches a cold one.
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
                        stage,
                        *sort,
                        *distribute,
                        release,
                        &mut report.sample_time,
                        &mut report.notes,
                    )?,
                StageKind::FusedGroupSplit { group, split } => {
                    self.run_fused_group_split(cluster, stage, *group, *split, release)?
                }
            };
            if let Some(s) = &mut session {
                persist_stage(cluster, s, sidx, stage, &self.plan, &stats, &net)?;
            }
            report.jobs.push(stats);
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
            // once it is checkpointed and verified.
            for name in release {
                cluster.release(name);
            }
        }
        report.recovery_events = cluster.drain_events();
        report.trace = cluster.take_trace();
        if let Some(d) = self.decision.get() {
            report.rationale = Some(d.rationale.clone());
            // Post-run re-balance hint: when the observed skew histogram
            // contradicts the prediction by more than 2x, the statistics
            // were stale (or the stride missed a hot key).
            let predicted = d.rationale.predicted.max_load;
            if predicted > 0 {
                if let Some(trace) = &report.trace {
                    let job = &d.rationale.stats_job;
                    let fused_prefix = format!("{job}+");
                    for jt in &trace.jobs {
                        if jt.name != *job && !jt.name.starts_with(&fused_prefix) {
                            continue;
                        }
                        if let Some(skew) = &jt.skew {
                            let observed = skew.records.iter().copied().max().unwrap_or(0);
                            if observed > predicted.saturating_mul(2) {
                                report.notes.push(RunNote::RebalanceHint {
                                    job: job.clone(),
                                    predicted,
                                    observed,
                                });
                            }
                        }
                    }
                }
            }
        }
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
        let mut canon = plan_canon_with(
            &self.plan,
            phys,
            cluster.num_nodes(),
            &self.options,
            self.decision.get().map(|d| &d.rationale),
        );
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
            cluster.restore_fragment(f.node as usize, &f.dataset, f.ordinal, ds);
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
            let covers = if stage.logical.len() > 1 {
                stage
                    .logical
                    .iter()
                    .map(|&i| self.plan.jobs[i].id.clone())
                    .collect()
            } else {
                Vec::new()
            };
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
            });
        }
        Ok(())
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
            JobKind::Sort {
                key_idx,
                descending,
                addons,
                output_format,
            } => self.run_sort_into(
                cluster,
                job,
                *key_idx,
                *descending,
                addons,
                *output_format,
                sample_time,
                notes,
                &job.id,
                job.output(),
                release,
            ),
            JobKind::Group {
                key_idx,
                addons,
                output_format,
            } => self.run_group(cluster, job, *key_idx, addons, *output_format, release),
            JobKind::Split { key_idx, policy } => self.run_split(cluster, job, *key_idx, policy),
            JobKind::Distribute {
                policy,
                num_partitions,
                final_schema,
            } => self.run_distribute(
                cluster,
                job,
                *policy,
                *num_partitions,
                final_schema,
                release,
            ),
            JobKind::Custom { op_name, params } => self.run_custom(cluster, job, op_name, params),
        }
    }

    /// Debug-mode runtime verifier: after a stage commits, assert that
    /// every record it wrote conforms to the plan's compiled output
    /// metadata — the same metadata `papar check`'s analyzer cross-checks
    /// statically via `verify_plan`. A fused stage is checked on its
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
            reducer_overrides: self
                .decision
                .get()
                .map(|d| d.knobs().sort_reducers.clone())
                .unwrap_or_default(),
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
        self.decision
            .get()
            .and_then(|d| d.reducer_override(&job.id))
            .or(job.num_reducers)
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
        key_idx: usize,
        descending: bool,
        addons: &[BoundAddOn],
        output_format: FormatOp,
        sample_time: &mut Duration,
        notes: &mut Vec<RunNote>,
        job_name: &str,
        output_name: &str,
        release: &[String],
    ) -> Result<JobStats> {
        let mut num_reducers = self.reducers_for(job, cluster);

        // Pre-job sampling pass (paper: "sampled when reading the input").
        let t0 = Instant::now();
        let mut per_node: Vec<Vec<Value>> = Vec::new();
        'nodes: for node in 0..cluster.num_nodes() {
            let mut sample = Vec::new();
            for name in &job.inputs {
                if let Some(frags) = cluster.node(node).get(name) {
                    for f in frags {
                        sample_keys(&f.data.batch, key_idx, self.effective_stride(), &mut sample)?;
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
        // Boundary placement: sampled quantiles by default; the adaptive
        // planner may have chosen cyclic (equi-width) striping instead.
        let boundary_mode = self
            .decision
            .get()
            .map(|d| d.knobs().boundary_mode)
            .unwrap_or(crate::adaptive::BoundaryMode::Range);
        let boundaries = match boundary_mode {
            crate::adaptive::BoundaryMode::Cyclic => {
                let lo = per_node.iter().flatten().min();
                let hi = per_node.iter().flatten().max();
                match (lo, hi) {
                    (Some(lo), Some(hi)) => {
                        crate::adaptive::cyclic_boundaries(lo, hi, num_reducers).unwrap_or(
                            // Non-numeric key: the planner never chooses
                            // cyclic here, but a hand-built decision
                            // falls back to sampled quantiles.
                            sampler::boundaries_from_samples(&per_node, num_reducers)?,
                        )
                    }
                    _ => Vec::new(),
                }
            }
            crate::adaptive::BoundaryMode::Range => {
                sampler::boundaries_from_samples(&per_node, num_reducers)?
            }
        };
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
        let mapper = KeyedMapper { key_idx };
        let reducer = OrderedReducer::new(job, addons, key_idx, output_format);
        let mr_job = MapReduceJob {
            name: job_name.to_string(),
            inputs: job.inputs.clone(),
            output: output_name.to_string(),
            num_reducers,
            map_output_schema: job.input_meta.schema.clone(),
            output_schema: job.outputs[0].1.schema.clone(),
            mapper: &mapper,
            partitioner: &partitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending,
            compress_key: self.compress_key(&job.input_meta),
            release,
        };
        Ok(cluster.run_job(&mr_job)?)
    }

    fn run_group(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        key_idx: usize,
        addons: &[BoundAddOn],
        output_format: FormatOp,
        release: &[String],
    ) -> Result<JobStats> {
        let num_reducers = self.reducers_for(job, cluster);
        let mapper = KeyedMapper { key_idx };
        let reducer = OrderedReducer::new(job, addons, key_idx, output_format);
        let mr_job = MapReduceJob {
            name: job.id.clone(),
            inputs: job.inputs.clone(),
            output: job.output().to_string(),
            num_reducers,
            map_output_schema: job.input_meta.schema.clone(),
            output_schema: job.outputs[0].1.schema.clone(),
            mapper: &mapper,
            partitioner: &HashPartitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: self.compress_key(&job.input_meta),
            release,
        };
        Ok(cluster.run_job(&mr_job)?)
    }

    /// Split is a map-only local job: every node routes its local entries
    /// to the per-condition outputs and applies the output format
    /// operators; no shuffle happens (paper Figure 11 keeps split data on
    /// its reducers until the distribute job moves it).
    fn run_split(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        key_idx: usize,
        policy: &SplitPolicy,
    ) -> Result<JobStats> {
        let n = cluster.num_nodes();
        // Split counts as a workflow job for fault schedules, even though
        // it never enters the MapReduce engine.
        let job_idx = cluster.next_job_index();
        let retry = cluster.retry_policy();
        let tracing = cluster.tracing();
        let cost = cluster.cost_model();
        let mut tasks: Vec<TaskTrace> = Vec::new();
        let mut stats = JobStats {
            name: job.id.clone(),
            map_time_by_node: vec![Duration::ZERO; n],
            reduce_time_by_node: vec![Duration::ZERO; n],
            ..Default::default()
        };
        for node in 0..n {
            let mut attempt = 1u32;
            let mut cpu = Duration::ZERO;
            let mut backoff_total = Duration::ZERO;
            let mut crashes = 0u64;
            let (node_in, node_out) = loop {
                let t0 = Instant::now();
                let mut records_in = 0u64;
                // Route local entries.
                let mut routed: Vec<Vec<Entry>> = (0..policy.arity()).map(|_| Vec::new()).collect();
                for name in &job.inputs {
                    let frags: Vec<std::sync::Arc<Dataset>> = cluster
                        .node(node)
                        .get(name)
                        .map(|fs| {
                            fs.into_iter()
                                .map(|f| std::sync::Arc::clone(&f.data))
                                .collect()
                        })
                        .unwrap_or_default();
                    for frag in frags {
                        records_in += frag.batch.record_count() as u64;
                        for entry in EntryRef::all(&frag.batch) {
                            let key = entry_key(entry, key_idx)?;
                            let dest = policy.route(&key).ok_or_else(|| {
                                CoreError::exec(format!(
                                    "split key {key} matches no condition of job '{}'",
                                    job.id
                                ))
                            })?;
                            routed[dest].push(entry.to_entry());
                        }
                    }
                }
                // Buffer the per-output batches; nothing commits unless
                // the task survives its crash boundary.
                let mut outputs = Vec::with_capacity(job.outputs.len());
                let mut records_out = 0u64;
                for (dest, entries) in routed.into_iter().enumerate() {
                    let (out_name, out_meta) = &job.outputs[dest];
                    let batch = entries_to_batch(entries, out_meta.format, key_idx)?;
                    records_out += batch.record_count() as u64;
                    outputs.push((
                        out_name.clone(),
                        Dataset::new(out_meta.schema.clone(), batch),
                    ));
                }
                let elapsed = t0.elapsed();
                cpu += elapsed;
                stats.map_time_by_node[node] += elapsed;
                if cluster.take_crash_fault(job_idx, &job.id, TaskPhase::Map, node)? {
                    cluster.note_lost_compute(elapsed);
                    crashes += 1;
                    if attempt >= retry.max_attempts {
                        return Err(papar_mr::MrError::TaskAborted {
                            job: job.id.clone(),
                            node,
                            phase: TaskPhase::Map,
                            attempts: attempt,
                            source: Box::new(papar_mr::MrError::RetriesExhausted {
                                attempts: attempt,
                                stats: Box::new(RecoveryStats {
                                    faults_injected: crashes as u32,
                                    tasks_retried: attempt - 1,
                                    reexec_task_time: cpu,
                                    backoff_time: backoff_total,
                                    ..Default::default()
                                }),
                            }),
                        }
                        .into());
                    }
                    let backoff = retry.backoff_for(attempt);
                    stats.map_time_by_node[node] += backoff;
                    backoff_total += backoff;
                    cluster.note_retry(&job.id, node, TaskPhase::Map, attempt + 1, backoff);
                    attempt += 1;
                    continue;
                }
                stats.records_in += records_in;
                stats.records_out += records_out;
                for (out_name, ds) in outputs {
                    cluster.put_fragment(node, &out_name, node as u32, ds)?;
                }
                break (records_in, records_out);
            };
            if tracing {
                let counters = Counters {
                    records_in: node_in,
                    records_out: node_out,
                    retries: (attempt - 1) as u64,
                    crashes,
                    backoff_ns: duration_ns(backoff_total),
                    ..Counters::default()
                };
                let det_ns = (attempt as u64)
                    .saturating_mul(cost.compute_ns(node_in, 0, 0))
                    .saturating_add(counters.backoff_ns);
                tasks.push(TaskTrace {
                    node,
                    virt: stats.map_time_by_node[node],
                    cpu,
                    det_ns,
                    counters,
                });
            }
        }
        // Split bypasses the MapReduce engine, so it charges its own
        // replication (checkpoint) traffic here.
        let recovery = cluster.take_recovery();
        let net = *cluster.net();
        stats.absorb_recovery(recovery, &net);
        if tracing {
            // Map-only: the barrier over per-node tasks *is* the makespan,
            // plus a shuffle span when replication moved bytes.
            let mut phases = vec![PhaseTrace::barrier(PhaseKind::Map, tasks)];
            let rec = &stats.recovery;
            if stats.comm_time > Duration::ZERO || rec.replication_bytes > 0 {
                let counters = Counters {
                    replication_bytes: rec.replication_bytes,
                    messages: rec.replication_messages,
                    ..Counters::default()
                };
                let det_ns =
                    duration_ns(net.transfer_time(rec.replication_messages, rec.replication_bytes));
                phases.push(PhaseTrace::solo(
                    PhaseKind::Shuffle,
                    stats.comm_time,
                    det_ns,
                    counters,
                ));
            }
            cluster.record_job_trace(JobTrace {
                name: job.id.clone(),
                phases,
                skew: None,
                covers: Vec::new(),
            });
        }
        Ok(stats)
    }

    fn run_distribute(
        &self,
        cluster: &mut Cluster,
        job: &JobPlan,
        policy: DistrPolicy,
        num_partitions: usize,
        final_schema: &Option<std::sync::Arc<papar_record::Schema>>,
        release: &[String],
    ) -> Result<JobStats> {
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

        // Projection of output records onto the declared output schema.
        let projection = distribute_projection(job, final_schema)?;

        let policy_total = total as usize;
        let mapper = FnMapper(
            move |_ctx: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
                for mi in inputs {
                    let base = fragment_base(&offsets, &mi.name, mi.ordinal)
                        .map_err(papar_mr::MrError::from)?;
                    for (local, entry) in EntryRef::all(&mi.data.batch).enumerate() {
                        let g = base as usize + local;
                        let part = match policy {
                            DistrPolicy::Cyclic | DistrPolicy::Block => {
                                policy.partition_of_index(g, policy_total, num_partitions)
                            }
                            DistrPolicy::GraphVertexCut => {
                                let routing = match entry {
                                    // A whole low-degree group travels to the
                                    // partition its in-vertex hashes to.
                                    EntryRef::Packed(p) => Cow::Borrowed(&p.key),
                                    // High-degree in-edges spread by source
                                    // vertex (field 0 of an edge record).
                                    EntryRef::Rec(_) | EntryRef::Row(_) => entry_key(entry, 0)?,
                                };
                                policy.partition_of_value(&routing, num_partitions)
                            }
                        };
                        // Key embeds both the route and the global order; see
                        // EmbeddedOrderPartitioner.
                        let key = (g as i64) * num_partitions as i64 + part as i64;
                        out.push(&Value::Long(key), entry)?;
                    }
                }
                Ok(())
            },
        );
        let out_format = job.outputs[0].1.format;
        // A flat, unprojected output of flat fixed-width inputs is their
        // rows, gathered from the inbox without a decode.
        let rows_out = (out_format == Format::Flat && projection.is_none())
            .then(|| rows_schema(&job.input_metas, &job.outputs[0].1.schema))
            .flatten();
        let reducer = FnReducer(move |_ctx: &TaskCtx, pairs: Pairs<'_>| {
            if let Some(schema) = &rows_out {
                return Ok(vec![gather_rows(&pairs, schema)?]);
            }
            let mut batch = match out_format {
                Format::Flat => {
                    let mut records = Vec::with_capacity(pairs.record_count());
                    pairs.decode_into(&mut records)?;
                    Batch::Flat(records)
                }
                Format::Packed => {
                    let mut groups = Vec::with_capacity(pairs.len());
                    for pair in pairs.iter() {
                        let (_, entry) = pair?;
                        if entry.tag() == ENTRY_REC {
                            return Err(MrError::msg(FLAT_IN_PACKED));
                        }
                        groups.push(entry.decode_group()?);
                    }
                    Batch::Packed(groups)
                }
            };
            if let Some(proj) = &projection {
                project_batch(&mut batch, proj);
            }
            Ok(vec![batch])
        });
        let mr_job = MapReduceJob {
            name: job.id.clone(),
            inputs: job.inputs.clone(),
            output: job.output().to_string(),
            num_reducers: num_partitions,
            map_output_schema: job.input_meta.schema.clone(),
            output_schema: job.outputs[0].1.schema.clone(),
            mapper: &mapper,
            partitioner: &EmbeddedOrderPartitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: self.compress_key_any(&job.input_metas),
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
        // Custom jobs also occupy a fault-schedule slot; whether they
        // check for crashes is up to the operator implementation.
        let _ = cluster.next_job_index();
        let stats = op.run(cluster, &ctx)?;
        // The bundled custom operators run outside the MapReduce engine,
        // so nothing traced them; derive a coarse per-phase trace from the
        // stats they report. (An operator that drives `run_job` itself is
        // traced by the engine and must not be re-derived here.)
        if cluster.tracing() {
            let net = *cluster.net();
            let cost = cluster.cost_model();
            cluster.record_job_trace(job_trace_from_stats(&stats, &net, &cost));
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
    /// `g * P + part` reduce keys sort them, so the committed bytes are
    /// identical to the two-job plan. Like the unfused pre-pass, the
    /// driver-side walk is not charged to the virtual clock.
    #[allow(clippy::too_many_arguments)]
    fn run_fused_sort_distribute(
        &self,
        cluster: &mut Cluster,
        stage: &PhysicalStage,
        sort_idx: usize,
        dist_idx: usize,
        release: &[String],
        sample_time: &mut Duration,
        notes: &mut Vec<RunNote>,
    ) -> Result<JobStats> {
        let sjob = &self.plan.jobs[sort_idx];
        let djob = &self.plan.jobs[dist_idx];
        let JobKind::Sort {
            key_idx,
            descending,
            addons,
            output_format,
        } = &sjob.kind
        else {
            return Err(CoreError::plan(format!(
                "stage '{}' expected a sort job at position {sort_idx}",
                stage.id
            )));
        };
        let JobKind::Distribute {
            policy,
            num_partitions,
            final_schema,
        } = &djob.kind
        else {
            return Err(CoreError::plan(format!(
                "stage '{}' expected a distribute job at position {dist_idx}",
                stage.id
            )));
        };
        // The streamed intermediate: fragment r carries exactly the bytes
        // unfused sort fragment r would, but under a name no workflow
        // dataset can collide with, and it never outlives the stage.
        let temp = format!("__fused:{}", sjob.output());
        let stats = self.run_sort_into(
            cluster,
            sjob,
            *key_idx,
            *descending,
            addons,
            *output_format,
            sample_time,
            notes,
            &stage.id,
            &temp,
            release,
        )?;
        if cluster.tracing() {
            cluster.annotate_last_job_trace(vec![sjob.id.clone(), djob.id.clone()]);
        }
        // Reserve the elided distribute's fault-schedule slot so jobs after
        // this stage keep the same index with and without fusion. Faults
        // addressed to the elided slot never fire (there is no task to
        // crash); recovery transparency keeps the output byte-identical.
        let _ = cluster.next_job_index();
        self.assemble_distribute(cluster, djob, &temp, *policy, *num_partitions, final_schema)?;
        Ok(stats)
    }

    /// Driver-side half of the fused sort→distribute stage: apply the
    /// index-routed distribute permutation over the sorted runs, which
    /// are moved out of the cluster (the temp never outlives the stage).
    fn assemble_distribute(
        &self,
        cluster: &mut Cluster,
        djob: &JobPlan,
        temp: &str,
        policy: DistrPolicy,
        num_partitions: usize,
        final_schema: &Option<Arc<papar_record::Schema>>,
    ) -> Result<()> {
        let projection = distribute_projection(djob, final_schema)?;
        // Take the sorted fragments in global (ordinal) order — the same
        // enumeration the unfused offsets pre-pass performs.
        let frags = cluster.take(temp)?;
        let total: usize = frags.iter().map(|d| d.batch.entry_count()).sum();
        let part_of = |g: usize| policy.partition_of_index(g, total, num_partitions);
        let out_format = djob.outputs[0].1.format;
        let out_schema = &djob.outputs[0].1.schema;
        // Appending in ascending global rank reproduces the unfused
        // reducer's ascending `g * P + part` key order within each
        // partition. A flat, unprojected output of sorted rows is routed
        // as rows.
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
                Some(route_rows(&rows, out_schema, num_partitions, part_of)?)
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
                project_batch(&mut batch, proj);
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
        stage: &PhysicalStage,
        group_idx: usize,
        split_idx: usize,
        release: &[String],
    ) -> Result<JobStats> {
        let gjob = &self.plan.jobs[group_idx];
        let sjob = &self.plan.jobs[split_idx];
        let JobKind::Group {
            key_idx,
            addons,
            output_format,
        } = &gjob.kind
        else {
            return Err(CoreError::plan(format!(
                "stage '{}' expected a group job at position {group_idx}",
                stage.id
            )));
        };
        let JobKind::Split {
            key_idx: split_key_idx,
            policy,
        } = &sjob.kind
        else {
            return Err(CoreError::plan(format!(
                "stage '{}' expected a split job at position {split_idx}",
                stage.id
            )));
        };
        let num_reducers = self.reducers_for(gjob, cluster);
        let group_key = *key_idx;
        let mapper = KeyedMapper { key_idx: group_key };
        let reducer = FusedGroupSplitReducer {
            group: OrderedReducer {
                addons,
                key_idx: group_key,
                packs: packs_output(gjob.outputs[0].1.format, *output_format),
                rows: None,
            },
            split_key_idx: *split_key_idx,
            policy,
            out_formats: sjob.outputs.iter().map(|(_, m)| m.format).collect(),
            job_id: &sjob.id,
        };
        let extra: Vec<(String, std::sync::Arc<papar_record::Schema>)> = sjob.outputs[1..]
            .iter()
            .map(|(name, meta)| (name.clone(), meta.schema.clone()))
            .collect();
        let mr_job = MapReduceJob {
            name: stage.id.clone(),
            inputs: gjob.inputs.clone(),
            output: sjob.outputs[0].0.clone(),
            num_reducers,
            map_output_schema: gjob.input_meta.schema.clone(),
            output_schema: sjob.outputs[0].1.schema.clone(),
            mapper: &mapper,
            partitioner: &HashPartitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: self.compress_key(&gjob.input_meta),
            release,
        };
        let stats = cluster.run_job_multi(&mr_job, &extra)?;
        if cluster.tracing() {
            cluster.annotate_last_job_trace(vec![gjob.id.clone(), sjob.id.clone()]);
        }
        // Reserve the elided split's fault-schedule slot (see the fused
        // sort→distribute path for why).
        let _ = cluster.next_job_index();
        Ok(stats)
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

    /// Compression key across several inputs (a distribute job may read a
    /// flat and a packed split output; the packed one decides).
    fn compress_key_any(&self, metas: &[DatasetMeta]) -> Option<usize> {
        metas.iter().find_map(|m| self.compress_key(m))
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

/// Distribute's partitioner: the mapper embeds the target partition in the
/// reduce key as `g * P + partition` (g = global entry index), so the key
/// both routes (`key % P`) and orders (`key / P` restores the global order
/// inside every partition, independent of how fragments were laid out
/// across nodes). A key that is no integer, or is negative, names no
/// partition and errors; it used to be clamped onto reducer 0.
struct EmbeddedOrderPartitioner;

impl Partitioner for EmbeddedOrderPartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> papar_mr::Result<usize> {
        let k = key
            .as_i64()
            .ok_or_else(|| MrError::NonIntegerReducerKey { key: key.clone() })?;
        if k < 0 {
            return Err(MrError::PartitionOutOfRange {
                id: k,
                num_reducers,
            });
        }
        Ok((k as u64 % num_reducers as u64) as usize)
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
}

/// Reduce task of sort and group: pairs arrive key-sorted; add-ons apply
/// per key-run, then the output format operator.
struct OrderedReducer<'a> {
    addons: &'a [BoundAddOn],
    key_idx: usize,
    /// Pack the output by `key_idx` (see [`packs_output`]).
    packs: bool,
    /// The output schema, when the output is the input's rows unchanged
    /// (see [`rows_schema`]): the reducer gathers them from the inbox.
    rows: Option<Arc<Schema>>,
}

// The reduce side speaks the engine's error type; core errors cross into
// it as messages, exactly as they did from the closures these replace.
impl<'a> OrderedReducer<'a> {
    /// The reducer of a sort or group job: it gathers rows when there is
    /// nothing to apply — no add-on, no packing.
    fn new(
        job: &JobPlan,
        addons: &'a [BoundAddOn],
        key_idx: usize,
        output_format: FormatOp,
    ) -> Self {
        let out = &job.outputs[0].1;
        let packs = packs_output(out.format, output_format);
        let rows = if addons.is_empty() && !packs {
            rows_schema(std::slice::from_ref(&job.input_meta), &out.schema)
        } else {
            None
        };
        OrderedReducer {
            addons,
            key_idx,
            packs,
            rows,
        }
    }

    /// The reduce output, one entry at a time, in order: a packed group
    /// reaches `emit` once no later run can extend it, a flat record at
    /// once. Every record is decoded exactly once, into the vector of its
    /// key-run.
    fn reduce_each(
        &self,
        pairs: Pairs<'_>,
        mut emit: impl FnMut(Entry) -> papar_mr::Result<()>,
    ) -> papar_mr::Result<()> {
        let mut groups: Vec<PackedRecord> = Vec::new();
        for run in pairs.runs() {
            let records = self.decode_run(run?)?;
            if self.packs {
                pack_onto(&mut groups, records, self.key_idx).map_err(CoreError::from)?;
                let done = groups.len().saturating_sub(1);
                for group in groups.drain(..done) {
                    emit(Entry::Packed(group))?;
                }
            } else {
                for record in records {
                    emit(Entry::Rec(record))?;
                }
            }
        }
        for group in groups {
            emit(Entry::Packed(group))?;
        }
        Ok(())
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

    /// The whole reduce output as one batch.
    fn reduce_batch(&self, pairs: Pairs<'_>) -> papar_mr::Result<Batch> {
        if let Some(schema) = &self.rows {
            return gather_rows(&pairs, schema);
        }
        if self.packs {
            let mut groups = Vec::new();
            for run in pairs.runs() {
                pack_onto(&mut groups, self.decode_run(run?)?, self.key_idx)
                    .map_err(CoreError::from)?;
            }
            return Ok(Batch::Packed(groups));
        }
        // Flat: decode straight into one exact-size vector.
        let mut records = Vec::with_capacity(pairs.record_count());
        if self.addons.is_empty() {
            pairs.decode_into(&mut records)?;
        } else {
            for run in pairs.runs() {
                let start = records.len();
                run?.decode_into(&mut records)?;
                for addon in self.addons {
                    addon.apply_to_group(&mut records[start..])?;
                }
            }
        }
        Ok(Batch::Flat(records))
    }
}

impl Reducer for OrderedReducer<'_> {
    fn reduce(&self, _ctx: &TaskCtx, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        Ok(vec![self.reduce_batch(pairs)?])
    }
}

/// Reduce task of the fused group→split stage: the group's reduce logic
/// (add-ons per key-run, format operator) followed by the split's routing
/// predicates, emitting one batch per split destination.
struct FusedGroupSplitReducer<'a> {
    group: OrderedReducer<'a>,
    split_key_idx: usize,
    policy: &'a SplitPolicy,
    /// Output format per split destination, in destination order.
    out_formats: Vec<Format>,
    /// The split job's id, for error messages matching the unfused path.
    job_id: &'a str,
}

impl FusedGroupSplitReducer<'_> {
    /// Route one grouped entry exactly as the unfused split routes it,
    /// moving it into its destination batch.
    fn route(&self, entry: Entry, outs: &mut [Batch]) -> papar_mr::Result<()> {
        let key = entry_key(entry.as_ref(), self.split_key_idx).map_err(MrError::from)?;
        let dest = self.policy.route(&key).ok_or_else(|| {
            MrError::msg(format!(
                "split key {key} matches no condition of job '{}'",
                self.job_id
            ))
        })?;
        match (&mut outs[dest], entry) {
            (Batch::Flat(records), Entry::Rec(r)) => records.push(r),
            (Batch::Flat(records), Entry::Packed(mut p)) => records.append(&mut p.records),
            (Batch::Packed(groups), Entry::Packed(p)) => groups.push(p),
            (Batch::Packed(groups), Entry::Rec(r)) => {
                let key = r.require(self.split_key_idx).map_err(CoreError::from)?;
                groups.push(PackedRecord {
                    key: key.clone(),
                    records: vec![r],
                });
            }
            // `reduce` builds every destination flat or packed.
            (Batch::Rows(_), _) => return Err(MrError::msg("a split destination holds rows")),
        }
        Ok(())
    }
}

impl Reducer for FusedGroupSplitReducer<'_> {
    fn reduce(&self, _ctx: &TaskCtx, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        let mut outs: Vec<Batch> = self
            .out_formats
            .iter()
            .map(|format| match format {
                Format::Flat => Batch::Flat(Vec::new()),
                Format::Packed => Batch::Packed(Vec::new()),
            })
            .collect();
        // Exactly what the unfused group reducer committed to the
        // intermediate dataset, each entry routed the way the unfused
        // split routes it.
        self.group
            .reduce_each(pairs, |entry| self.route(entry, &mut outs))?;
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

/// Field indices projecting distribute output records onto the declared
/// output schema (`None`: records pass through unchanged, because no
/// output format was declared or it keeps every field in place). Shared by
/// the unfused distribute job and the fused stage's driver-side assembly
/// so the two can never diverge.
fn distribute_projection(
    job: &JobPlan,
    final_schema: &Option<std::sync::Arc<papar_record::Schema>>,
) -> Result<Option<Vec<usize>>> {
    let Some(out) = final_schema else {
        return Ok(None);
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
    Ok((!identity).then_some(idxs))
}

/// Why a distribute into a packed output refuses a flat entry.
const FLAT_IN_PACKED: &str = "distribute cannot keep flat entries in a packed output";

/// Sample every `stride`-th entry key of a batch (flat: the record field;
/// packed: the field of the first member, which equals the group key for
/// key-field grouping). Cloning only the sampled keys keeps the sampling
/// pass O(n/stride) in allocations.
fn sample_keys(batch: &Batch, key_idx: usize, stride: usize, out: &mut Vec<Value>) -> Result<()> {
    let stride = stride.max(1);
    match batch {
        Batch::Flat(records) => {
            for r in records.iter().step_by(stride) {
                out.push(r.require(key_idx).map_err(CoreError::from)?.clone());
            }
        }
        Batch::Packed(groups) => {
            for g in groups.iter().step_by(stride) {
                let first = g
                    .records
                    .first()
                    .ok_or_else(|| CoreError::exec("packed group with no members"))?;
                out.push(first.require(key_idx).map_err(CoreError::from)?.clone());
            }
        }
        Batch::Rows(rows) => {
            for row in rows.iter().step_by(stride) {
                out.push(row.field(key_idx).map_err(CoreError::from)?);
            }
        }
    }
    Ok(())
}

/// Map task of sort and group (the fused group→split stage included):
/// every input entry, keyed by its `key_idx` field, both borrowed from the
/// input fragment.
struct KeyedMapper {
    key_idx: usize,
}

impl Mapper for KeyedMapper {
    fn map(&self, _: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> papar_mr::Result<()> {
        for mi in inputs {
            for entry in EntryRef::all(&mi.data.batch) {
                let key = entry_key(entry, self.key_idx)?;
                out.push(&key, entry)?;
            }
        }
        Ok(())
    }
}

/// Whether a sort/group's reduce output is packed: by its `pack` format
/// operator, or because its declared output format is.
fn packs_output(out_format: Format, format_op: FormatOp) -> bool {
    format_op == FormatOp::Pack || out_format == Format::Packed
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

/// The routing key of one entry (a packed group's: its first member's),
/// borrowed from a record, read from a row.
fn entry_key(entry: EntryRef<'_>, key_idx: usize) -> Result<Cow<'_, Value>> {
    let rec = match entry {
        EntryRef::Rec(r) => r,
        EntryRef::Row(row) => return Ok(Cow::Owned(row.field(key_idx)?)),
        EntryRef::Packed(p) => p
            .records
            .first()
            .ok_or_else(|| CoreError::exec("packed group with no members"))?,
    };
    Ok(Cow::Borrowed(rec.require(key_idx)?))
}

/// The schema of a job's output when it is its inputs' rows unchanged:
/// every input flat (records or rows, never groups) and of one fixed-width
/// schema, equal to the output's.
fn rows_schema(inputs: &[DatasetMeta], out: &Arc<Schema>) -> Option<Arc<Schema>> {
    let fixed = matches!(out.binary_record_width(), Some(w) if w > 0);
    let same = (inputs.iter()).all(|m| m.format == Format::Flat && m.schema == *out);
    (fixed && same).then(|| out.clone())
}

/// A reducer's pairs as rows of `schema`, copied from the inbox in reduce
/// order.
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
    let total: usize = frags.iter().map(|rows| rows.len()).sum();
    let mut sizes = vec![0usize; num_partitions];
    for g in 0..total {
        sizes[part_of(g)] += 1;
    }
    let width = frags.first().map_or(0, |rows| rows.width());
    let mut parts: Vec<Vec<u8>> = (sizes.into_iter())
        .map(|rows| Vec::with_capacity(rows * width))
        .collect();
    let all = frags.iter().flat_map(|rows| rows.iter());
    for (g, row) in all.enumerate() {
        parts[part_of(g)].extend_from_slice(row.as_bytes());
    }
    parts
        .into_iter()
        .map(|bytes| Ok(Batch::Rows(Rows::new(schema.clone(), bytes)?)))
        .collect()
}

/// The fused assembly over decoded entries: each moved once, by global
/// rank, into its exact-size partition (records of a flat output, groups
/// of a packed one).
fn route_entries(
    frags: Vec<Dataset>,
    out_format: Format,
    num_partitions: usize,
    part_of: impl Fn(usize) -> usize,
) -> Result<Vec<Batch>> {
    let mut sizes = vec![0usize; num_partitions];
    let all = frags.iter().flat_map(|d| EntryRef::all(&d.batch));
    for (g, entry) in all.enumerate() {
        sizes[part_of(g)] += match out_format {
            Format::Flat => entry.record_count(),
            Format::Packed => 1,
        };
    }
    let entries = frags.into_iter().flat_map(|d| batch_entries(d.batch));
    Ok(match out_format {
        Format::Flat => {
            let mut parts: Vec<Vec<Record>> = sizes.into_iter().map(Vec::with_capacity).collect();
            for (g, entry) in entries.enumerate() {
                let part = &mut parts[part_of(g)];
                match entry {
                    Entry::Rec(r) => part.push(r),
                    Entry::Packed(pk) => part.extend(pk.records),
                }
            }
            parts.into_iter().map(Batch::Flat).collect()
        }
        Format::Packed => {
            let mut parts: Vec<Vec<PackedRecord>> =
                sizes.into_iter().map(Vec::with_capacity).collect();
            for (g, entry) in entries.enumerate() {
                match entry {
                    Entry::Packed(pk) => parts[part_of(g)].push(pk),
                    Entry::Rec(_) => return Err(CoreError::exec(FLAT_IN_PACKED)),
                }
            }
            parts.into_iter().map(Batch::Packed).collect()
        }
    })
}

/// Rebuild a batch from entries under a target format.
fn entries_to_batch(entries: Vec<Entry>, format: Format, key_idx: usize) -> Result<Batch> {
    match format {
        Format::Flat => {
            let mut records = Vec::new();
            for e in entries {
                match e {
                    Entry::Rec(r) => records.push(r),
                    Entry::Packed(p) => records.extend(p.records),
                }
            }
            Ok(Batch::Flat(records))
        }
        Format::Packed => {
            let mut groups = Vec::new();
            for e in entries {
                match e {
                    Entry::Packed(p) => groups.push(p),
                    Entry::Rec(r) => {
                        let key = r.require(key_idx).map_err(CoreError::from)?.clone();
                        groups.push(PackedRecord {
                            key,
                            records: vec![r],
                        });
                    }
                }
            }
            Ok(Batch::Packed(groups))
        }
    }
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
                g.records.iter().for_each(check_record);
                if let Some(k) = meta.packed_key {
                    if let Some(first) = g.records.first() {
                        debug_assert_eq!(
                            first.values().get(k),
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
/// decode first.
fn project_batch(batch: &mut Batch, proj: &[usize]) {
    let project = |r: &mut Record| *r = proj.iter().map(|&i| r.values()[i].clone()).collect();
    match batch {
        Batch::Rows(rows) => {
            let mut records = rows.to_records();
            records.iter_mut().for_each(project);
            *batch = Batch::Flat(records);
        }
        Batch::Flat(records) => records.iter_mut().for_each(project),
        Batch::Packed(groups) => groups
            .iter_mut()
            .flat_map(|g| g.records.iter_mut())
            .for_each(project),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;
    use papar_record::rec;
    use proptest::prelude::*;

    #[test]
    fn a_fragment_payload_refuses_a_field_count_the_bytes_cannot_hold() {
        let err = decode_fragment_payload(&[0, 0xff, 0xff, 0xff, 0xff]).unwrap_err();
        assert!(
            err.to_string().contains("checkpoint schema field count"),
            "{err}"
        );
    }

    /// A fixed-width fragment (rows) and a string one (records).
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
        for (ds, payload) in payloads() {
            let back = decode_fragment_payload(&payload).unwrap();
            assert_eq!(back, ds);
            assert_eq!(
                std::mem::discriminant(&back.batch),
                std::mem::discriminant(&ds.batch)
            );
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

    #[test]
    fn embedded_order_routes_by_the_key_modulo_the_partitions() {
        for (key, want) in [(Value::Long(7), 3), (Value::Int(8), 0), (Value::Long(0), 0)] {
            assert_eq!(EmbeddedOrderPartitioner.reducer_for(&key, 4), Ok(want));
        }
    }

    #[test]
    fn embedded_order_refuses_a_non_integer_key() {
        for key in [Value::from("3"), Value::Double(1.0)] {
            assert_eq!(
                EmbeddedOrderPartitioner.reducer_for(&key, 4),
                Err(MrError::NonIntegerReducerKey { key: key.clone() })
            );
        }
    }

    #[test]
    fn embedded_order_refuses_a_negative_key() {
        assert_eq!(
            EmbeddedOrderPartitioner.reducer_for(&Value::Long(-5), 4),
            Err(MrError::PartitionOutOfRange {
                id: -5,
                num_reducers: 4
            })
        );
    }
}
