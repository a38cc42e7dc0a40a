//! The simulated cluster: nodes, dataset placement, and the all-to-all
//! exchange primitive.

use papar_record::batch::{block_sizes, Batch, Dataset};
use papar_record::{wire, Schema};
use papar_trace::{CostModel, FusedPath, JobTrace, NoopSink, PhaseTrace, TraceSink, WorkflowTrace};
use std::sync::Arc;

use crate::fault::{ExchangeFaultKind, Fault, FaultPlan, RecoveryAction, RetryPolicy};
use crate::stats::{ExchangeStats, NetModel, RecoveryStats};
use crate::store::{DataStore, Fragment};
use crate::{MrError, Result, TaskPhase};

/// `N` simulated compute nodes with private storage and a modeled
/// interconnect.
///
/// Node tasks within a phase execute concurrently on up to
/// [`Cluster::threads`] OS threads under a virtual clock (see the crate
/// docs); the cluster's job is data placement, the exchange primitive, and
/// accounting.
///
/// A cluster can also be configured for chaos: a replication factor (each
/// materialized fragment gets `r` replicas on the following nodes), a
/// [`FaultPlan`] of scheduled failures, and a [`RetryPolicy`] governing how
/// failed tasks re-execute. Recovery costs accumulate in an internal
/// [`RecoveryStats`] drained into the next job's stats, and every injected
/// fault plus the action taken is appended to an event log (see
/// [`Cluster::drain_events`]).
pub struct Cluster {
    nodes: Vec<DataStore>,
    net: NetModel,
    /// Replicas kept per fragment beyond the primary.
    replication: usize,
    retry: RetryPolicy,
    fault_plan: Option<FaultPlan>,
    /// Jobs launched so far; fault schedules address jobs by this index.
    jobs_run: usize,
    /// Recovery accounting since the last drain (scatter-time replication
    /// lands on the first job that runs afterwards).
    pending_recovery: RecoveryStats,
    events: Vec<RecoveryAction>,
    /// OS threads the engine may use per phase (node tasks run concurrently
    /// up to this budget; leftover threads parallelize reduce-side sorts).
    threads: usize,
    /// `hints[from][to]`: the previous map phase's outbox sizes, used to
    /// pre-size the next phase's shuffle buffers.
    shuffle_hints: Vec<Vec<usize>>,
    /// Where the engine reports spans. Defaults to the disabled
    /// [`NoopSink`]; `Send + Sync` because phase workers share
    /// `&Cluster`, though all sink calls happen on the driver thread.
    tracer: Box<dyn TraceSink>,
    /// Cost model behind the trace's deterministic clock.
    cost: CostModel,
}

impl Cluster {
    /// A cluster of `num_nodes` nodes with the default (InfiniBand) network
    /// model.
    ///
    /// Panics when `num_nodes` is zero; use [`Cluster::try_new`] to get an
    /// error instead.
    pub fn new(num_nodes: usize) -> Self {
        Self::with_net(num_nodes, NetModel::default())
    }

    /// A cluster with an explicit network model.
    ///
    /// Panics when `num_nodes` is zero; use [`Cluster::try_with_net`] to
    /// get an error instead.
    pub fn with_net(num_nodes: usize, net: NetModel) -> Self {
        Self::try_with_net(num_nodes, net).expect("a cluster needs at least one node")
    }

    /// Fallible constructor with the default network model.
    pub fn try_new(num_nodes: usize) -> Result<Self> {
        Self::try_with_net(num_nodes, NetModel::default())
    }

    /// Fallible constructor with an explicit network model; rejects
    /// zero-node clusters and a malformed `PAPAR_THREADS` budget
    /// ([`MrError::BadThreadBudget`]) instead of panicking, so callers
    /// validating external input (e.g. a CLI `--nodes` flag or a daemon's
    /// startup environment) can report the error.
    pub fn try_with_net(num_nodes: usize, net: NetModel) -> Result<Self> {
        let mut cluster = Self::try_with_threads(num_nodes, 1)?;
        cluster.threads = default_thread_budget()?.0;
        cluster.net = net;
        Ok(cluster)
    }

    /// Fallible constructor with the default network model and an explicit
    /// thread budget ([`Cluster::set_threads`]). It reads no
    /// `PAPAR_THREADS`: a caller that already holds a budget (a
    /// `--threads` flag) is not refused for a malformed environment.
    pub fn try_with_threads(num_nodes: usize, threads: usize) -> Result<Self> {
        if num_nodes == 0 {
            return Err(MrError::msg("a cluster needs at least one node"));
        }
        Ok(Cluster {
            nodes: (0..num_nodes).map(|_| DataStore::new()).collect(),
            net: NetModel::default(),
            replication: 0,
            retry: RetryPolicy::default(),
            fault_plan: None,
            jobs_run: 0,
            pending_recovery: RecoveryStats::default(),
            events: Vec::new(),
            threads: threads.max(1),
            shuffle_hints: Vec::new(),
            tracer: Box::new(NoopSink),
            cost: CostModel::default(),
        })
    }

    /// Install a trace sink (builder form). See [`Cluster::set_tracer`].
    pub fn with_tracer(mut self, tracer: Box<dyn TraceSink>) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Install a trace sink. The engine reports one [`JobTrace`] per
    /// finished job to it; install a [`papar_trace::Collector`] and
    /// call [`Cluster::take_trace`] afterwards to obtain the assembled
    /// [`WorkflowTrace`]. The default [`NoopSink`] reports itself
    /// disabled, which makes the engine skip all trace bookkeeping.
    pub fn set_tracer(&mut self, tracer: Box<dyn TraceSink>) {
        self.tracer = tracer;
    }

    /// Whether the installed sink wants trace records.
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Finish the installed sink and take its assembled trace (`None`
    /// for non-collecting sinks).
    pub fn take_trace(&mut self) -> Option<WorkflowTrace> {
        self.tracer.finish()
    }

    /// The cost model behind the trace's deterministic clock.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Report a finished job's trace to the installed sink. Called by
    /// the engine at the job boundary; a runner reports its own only for
    /// a stage it restores from a checkpoint instead of running.
    pub fn record_job_trace(&mut self, job: JobTrace) {
        self.tracer.record_job(job);
    }

    /// Report a pre-job sampling pass to the installed sink; it becomes
    /// the `sample` phase of the next recorded job.
    pub fn record_sample_trace(&mut self, sample: PhaseTrace) {
        self.tracer.record_sample(sample);
    }

    /// Annotate the most recently recorded job trace with the logical
    /// workflow jobs it covers. Fused physical stages call this right
    /// after the engine records the stage's job, so `--profile` and
    /// `--trace` can show which operators a single fused span stands
    /// for.
    pub fn annotate_last_job_trace(&mut self, covers: Vec<String>) {
        self.tracer.annotate_last_job(covers);
    }

    /// Record on the last job's trace how the fused sort→distribute stage
    /// it ran placed its partitions.
    pub fn annotate_last_job_path(&mut self, path: FusedPath) {
        self.tracer.annotate_last_job_path(path);
    }

    /// Trace the two jobs run last as one job named `name`
    /// ([`TraceSink::join_last_jobs`]).
    pub fn join_last_job_traces(&mut self, name: &str) {
        self.tracer.join_last_jobs(name.to_string());
    }

    /// Set the engine's OS-thread budget (builder form). See
    /// [`Cluster::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Set how many OS threads the engine may use per phase. `1` runs node
    /// tasks sequentially (the pre-parallel behavior); higher counts run up
    /// to that many node tasks concurrently and hand leftover threads to
    /// the reduce-side sort. Output bytes and recovery accounting are
    /// identical for every value; only wall-clock time changes. Clamped to
    /// at least 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The engine's OS-thread budget (defaults to the `PAPAR_THREADS`
    /// environment variable, else the host's available parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Keep `r` replicas of every materialized fragment on the `r` nodes
    /// after its primary (wrapping). `r = 0` (the default) disables
    /// checkpointing: a node crash then loses data unrecoverably.
    pub fn with_replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Install a fault schedule for this run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Override the task retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The task retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Take the recovery log accumulated so far (injected faults and the
    /// recovery actions they triggered, in order).
    pub fn drain_events(&mut self) -> Vec<RecoveryAction> {
        std::mem::take(&mut self.events)
    }

    /// Drain the recovery accounting accumulated since the last drain.
    /// [`Cluster::run_job`] and [`Cluster::run_local`] call this at every
    /// job boundary.
    pub fn take_recovery(&mut self) -> RecoveryStats {
        std::mem::take(&mut self.pending_recovery)
    }

    /// Return the cluster to its post-construction state for the next
    /// resident run: every node's fragments and replicas are dropped, the
    /// job counter, recovery ledger, event log, shuffle hints and fault
    /// plan are cleared, and the trace sink reverts to the disabled
    /// [`NoopSink`]. The thread budget, network model, replication
    /// factor and retry policy are *kept* — they are deployment
    /// configuration, not run state. This is what lets a long-running
    /// `papar serve` daemon reuse one cluster across requests instead of
    /// paying construction per job.
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.wipe();
        }
        self.fault_plan = None;
        self.jobs_run = 0;
        self.pending_recovery = RecoveryStats::default();
        self.events.clear();
        self.shuffle_hints.clear();
        self.tracer = Box::new(NoopSink);
    }

    /// Number of simulated nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The interconnect model.
    pub fn net(&self) -> &NetModel {
        &self.net
    }

    /// Immutable view of one node's store.
    pub fn node(&self, id: usize) -> &DataStore {
        &self.nodes[id]
    }

    /// Split a dataset into contiguous blocks, one per node — how an input
    /// file's splits land on the mappers (`InputFormat.getSplits`): a
    /// [`split_dataset`] by move, then [`Cluster::place`].
    pub fn scatter(&mut self, name: &str, dataset: Dataset) -> Result<()> {
        let fragments = split_dataset(dataset, self.num_nodes());
        self.place(name, fragments.into_iter().map(Arc::new).collect())
    }

    /// Place shared fragments: `fragments[i]` goes to node `i % N` with
    /// ordinal `i`, replicated like [`Cluster::put_fragment`]. The stores
    /// hold the given `Arc`s, so a caller that keeps its own handles (the
    /// daemon's data cache) shares the records instead of copying them.
    pub fn place(&mut self, name: &str, fragments: Vec<Arc<Dataset>>) -> Result<()> {
        let n = self.num_nodes();
        for (i, frag) in fragments.into_iter().enumerate() {
            self.put_shared(i % n, name, i as u32, frag)?;
        }
        Ok(())
    }

    /// Materialize a fragment on `node` and replicate it per the cluster's
    /// replication factor: copy `i` lands on node `(node + i) % N`, and each
    /// copy's wire size is charged as checkpoint traffic. This is how job
    /// outputs, scattered inputs and map-only job outputs enter a store.
    /// Errors when the fragment cannot be wire-encoded (its replication
    /// traffic would otherwise be unaccountable).
    pub fn put_fragment(
        &mut self,
        node: usize,
        name: &str,
        ordinal: u32,
        data: Dataset,
    ) -> Result<()> {
        self.put_shared(node, name, ordinal, Arc::new(data))
    }

    /// [`Cluster::put_fragment`] for data already behind an `Arc`.
    fn put_shared(
        &mut self,
        node: usize,
        name: &str,
        ordinal: u32,
        data: Arc<Dataset>,
    ) -> Result<()> {
        self.nodes[node].put_arc(name, ordinal, Arc::clone(&data));
        self.replicate_fragment(node, name, ordinal, &data)
    }

    /// Materialize a fragment from a checkpoint on `--resume`: placed and
    /// replicated exactly like [`Cluster::put_fragment`], but the replica
    /// copies charge *nothing* to the recovery accounting — the bytes were
    /// already paid for (and reported) by the run that wrote the
    /// checkpoint, and a resumed run's stats must match a cold run's.
    /// A node the cluster does not have is a typed error, not a panic:
    /// the node comes from the manifest.
    pub fn restore_fragment(
        &mut self,
        node: usize,
        name: &str,
        ordinal: u32,
        data: Dataset,
    ) -> Result<()> {
        let n = self.num_nodes();
        if node >= n {
            return Err(MrError::NodeOutOfRange { node, nodes: n });
        }
        let arc = Arc::new(data);
        self.nodes[node].put_arc(name, ordinal, Arc::clone(&arc));
        if self.replication == 0 || n < 2 {
            return Ok(());
        }
        for i in 1..=self.replication.min(n - 1) {
            let target = (node + i) % n;
            self.nodes[target].put_replica(name, ordinal, Arc::clone(&arc));
        }
        Ok(())
    }

    /// Append an extra phase (checkpoint publication, resume restore) to
    /// the most recently recorded job trace.
    pub fn append_phase_to_last_job(&mut self, phase: PhaseTrace) {
        self.tracer.append_phase_last_job(phase);
    }

    /// Place the replicas of an already-stored fragment.
    fn replicate_fragment(
        &mut self,
        primary: usize,
        name: &str,
        ordinal: u32,
        data: &Arc<Dataset>,
    ) -> Result<()> {
        let n = self.num_nodes();
        if self.replication == 0 || n < 2 {
            return Ok(());
        }
        let bytes = fragment_bytes(data)?;
        for i in 1..=self.replication.min(n - 1) {
            let target = (primary + i) % n;
            self.nodes[target].put_replica(name, ordinal, Arc::clone(data));
            self.pending_recovery.replication_bytes += bytes;
            self.pending_recovery.replication_messages += 1;
        }
        Ok(())
    }

    /// Borrow every fragment of a dataset across all nodes, in global
    /// ordinal order. For a job output this is reducer order — i.e. the
    /// output partitions in partition order — read where they live.
    pub fn fragments(&self, name: &str) -> Result<Vec<&Dataset>> {
        let mut frags: Vec<&Fragment> = Vec::new();
        let mut found = false;
        for node in &self.nodes {
            if let Some(local) = node.get(name) {
                found = true;
                frags.extend(local);
            }
        }
        if !found {
            return Err(MrError::DatasetNotFound {
                name: name.to_string(),
            });
        }
        frags.sort_by_key(|f| f.ordinal);
        Ok(frags.into_iter().map(|f| f.data.as_ref()).collect())
    }

    /// [`Cluster::fragments`], cloned out of the stores.
    pub fn collect(&self, name: &str) -> Result<Vec<Dataset>> {
        Ok(self.fragments(name)?.into_iter().cloned().collect())
    }

    /// Gather and concatenate a dataset into one flat-ordered `Dataset`:
    /// packed when every fragment is, decoded flat records otherwise.
    pub fn collect_concat(&self, name: &str) -> Result<Dataset> {
        let frags = self.collect(name)?;
        let schema: Arc<Schema> = frags
            .first()
            .map(|d| d.schema.clone())
            .ok_or_else(|| MrError::msg(format!("dataset '{name}' has no fragments")))?;
        // Preserve the format: concatenating packed fragments keeps groups.
        let all_packed = frags.iter().all(|d| matches!(d.batch, Batch::Packed(_)));
        if all_packed {
            let mut groups = Vec::new();
            for f in frags {
                groups.extend(f.batch.into_packed().map_err(MrError::from)?);
            }
            Ok(Dataset::new(schema, Batch::Packed(groups)))
        } else {
            let mut records = Vec::new();
            for f in frags {
                records.extend(f.batch.flatten());
            }
            Ok(Dataset::new(schema, Batch::Flat(records)))
        }
    }

    /// Remove a dataset from every node, primaries and the replicas held
    /// for them. Handles held outside the cluster (a daemon's data cache)
    /// keep their records alive; the cluster only drops its own.
    pub fn release(&mut self, name: &str) {
        for node in &mut self.nodes {
            node.remove(name);
        }
    }

    /// All-to-all exchange of byte buffers: `outboxes[from][to]` is the
    /// buffer node `from` sends to node `to`. Returns the inboxes (for each
    /// receiver, the `(sender, buffer)` list in sender order) plus the
    /// exchange accounting. Self-sends are delivered but cost nothing, like
    /// MR-MPI's in-memory rank-local aggregation.
    pub fn exchange(&self, outboxes: Vec<Vec<Vec<u8>>>) -> Result<(Inboxes, ExchangeStats)> {
        let n = self.num_nodes();
        if outboxes.len() != n || outboxes.iter().any(|row| row.len() != n) {
            return Err(MrError::msg(format!(
                "exchange wants an {n}x{n} outbox matrix, got {}x{:?}",
                outboxes.len(),
                outboxes.first().map(Vec::len)
            )));
        }
        let mut stats = ExchangeStats {
            sent_by_node: vec![0; n],
            recv_by_node: vec![0; n],
            ..Default::default()
        };
        let mut inboxes: Vec<Vec<(usize, Vec<u8>)>> = (0..n).map(|_| Vec::new()).collect();
        for (from, row) in outboxes.into_iter().enumerate() {
            for (to, buf) in row.into_iter().enumerate() {
                if from != to && !buf.is_empty() {
                    stats.remote_bytes += buf.len() as u64;
                    stats.remote_messages += 1;
                    stats.sent_by_node[from] += buf.len() as u64;
                    stats.recv_by_node[to] += buf.len() as u64;
                }
                if !buf.is_empty() {
                    inboxes[to].push((from, buf));
                }
            }
        }
        Ok((inboxes, stats))
    }

    // ---- Fault injection and recovery. Every engine job reserves a job
    // index, so fault schedules address jobs by workflow position; a
    // runner reserves the slots of jobs it elides or restores. ----

    /// Reserve the next job index (what fault schedules address).
    pub fn next_job_index(&mut self) -> usize {
        let idx = self.jobs_run;
        self.jobs_run += 1;
        idx
    }

    /// Job indices reserved so far: the index the next job takes.
    pub fn jobs_launched(&self) -> usize {
        self.jobs_run
    }

    /// The compute slowdown of `node` under the installed fault plan.
    pub fn straggler_factor(&self, node: usize) -> f64 {
        self.fault_plan
            .as_ref()
            .map(|p| p.straggler_factor(node))
            .unwrap_or(1.0)
    }

    /// Pre-draw every crash scheduled for `(job_idx, phase)` as per-node
    /// counts — the parallel engine consumes faults at the phase barrier so
    /// worker threads never need `&mut` access to the plan.
    pub(crate) fn take_phase_crashes(&mut self, job_idx: usize, phase: TaskPhase) -> Vec<u32> {
        let n = self.num_nodes();
        match self.fault_plan.as_mut() {
            Some(plan) => plan.take_crashes(job_idx, phase, n),
            None => vec![0; n],
        }
    }

    /// The previous map phase's outbox sizes (`hints[from][to]`), used to
    /// pre-size shuffle buffers; empty before the first job.
    pub(crate) fn shuffle_hints(&self) -> &[Vec<usize>] {
        &self.shuffle_hints
    }

    /// Record a map phase's outbox sizes as the pre-sizing hint for the
    /// next one.
    pub(crate) fn set_shuffle_hints(&mut self, hints: Vec<Vec<usize>>) {
        self.shuffle_hints = hints;
    }

    /// Fold a worker thread's locally-accumulated recovery accounting and
    /// event log into the cluster's. The engine calls this at the phase
    /// barrier in node order, so the merged log matches sequential
    /// execution.
    pub(crate) fn absorb_worker_recovery(
        &mut self,
        recovery: RecoveryStats,
        events: Vec<RecoveryAction>,
    ) {
        self.pending_recovery.merge(&recovery);
        self.events.extend(events);
    }

    /// What restoring a crashed `node` from replicas moves — its
    /// primaries from other nodes' replica areas, its replica holdings
    /// from their surviving primaries — computed without touching any
    /// store.
    ///
    /// A successful restore puts back exactly the `Arc`s the node already
    /// holds (primaries from other nodes' replica areas, replica holdings
    /// from their surviving primaries), so when recovery succeeds the store
    /// contents afterwards equal the contents before the crash — worker
    /// threads can therefore simulate the crash against `&self` and only
    /// the accounting `(fragments, bytes)` needs to reach the barrier.
    /// Returns [`MrError::DataLoss`] when some primary has no live replica.
    pub(crate) fn plan_crash_restore(&self, node: usize) -> Result<(usize, u64)> {
        let mut fragments = 0usize;
        let mut bytes = 0u64;
        for (name, ordinal) in self.nodes[node].fragment_ids() {
            let source = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != node)
                .find_map(|(_, other)| other.replica(&name, ordinal));
            let arc = source.ok_or_else(|| MrError::DataLoss {
                dataset: name.clone(),
                node,
                detail: format!(
                    "fragment {ordinal} has no replica; run with a replication factor >= 1"
                ),
            })?;
            bytes += fragment_bytes(&arc)?;
            fragments += 1;
        }
        for (name, ordinal) in self.nodes[node].replica_ids() {
            let source = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != node)
                .find_map(|(_, other)| other.primary(&name, ordinal));
            if let Some(arc) = source {
                bytes += fragment_bytes(&arc)?;
                fragments += 1;
            }
        }
        Ok((fragments, bytes))
    }

    /// [`Cluster::exchange`] plus injection of this job's scheduled
    /// drop/corrupt faults. Each faulted transfer is checked the way a real
    /// receiver would notice it — a checksum mismatch on a corrupted copy, a
    /// timeout on a dropped one — then the sender retransmits its (held)
    /// buffer, so receivers always end up with pristine bytes and only the
    /// accounting changes. Faults addressing empty or local transfers are
    /// no-ops.
    pub(crate) fn exchange_with_faults(
        &mut self,
        job_idx: usize,
        job_name: &str,
        outboxes: Vec<Vec<Vec<u8>>>,
    ) -> Result<(Inboxes, ExchangeStats)> {
        let fired = match self.fault_plan.as_mut() {
            Some(plan) => plan.take_exchange_faults(job_idx),
            None => Vec::new(),
        };
        let (inboxes, stats) = self.exchange(outboxes)?;
        for (from, to, kind) in fired {
            if from == to || to >= inboxes.len() {
                continue;
            }
            let Some(buf) = inboxes[to]
                .iter()
                .find(|(sender, _)| *sender == from)
                .map(|(_, b)| b)
            else {
                continue;
            };
            self.pending_recovery.faults_injected += 1;
            self.events.push(RecoveryAction::FaultInjected {
                job: job_name.to_string(),
                fault: match kind {
                    ExchangeFaultKind::Drop => Fault::ExchangeDrop {
                        from,
                        to,
                        job: job_idx,
                    },
                    ExchangeFaultKind::Corrupt => Fault::ExchangeCorrupt {
                        from,
                        to,
                        job: job_idx,
                    },
                },
            });
            if kind == ExchangeFaultKind::Corrupt {
                // The receiver really verifies: flip a payload byte and
                // check the sender's checksum exposes it.
                let sent_sum = wire::checksum(buf);
                let mut damaged = buf.clone();
                let mid = damaged.len() / 2;
                damaged[mid] ^= 0xFF;
                if wire::checksum(&damaged) == sent_sum {
                    return Err(MrError::msg(
                        "transfer checksum failed to expose injected corruption",
                    ));
                }
            }
            // Drop: the receiver times out on the missing message. Either
            // way the sender retransmits the held buffer.
            self.pending_recovery.retransmit_bytes += buf.len() as u64;
            self.pending_recovery.retransmit_messages += 1;
            self.events.push(RecoveryAction::Retransmitted {
                job: job_name.to_string(),
                from,
                to,
                bytes: buf.len() as u64,
            });
        }
        Ok((inboxes, stats))
    }
}

/// Wire size of a fragment — what replication and restore transfers cost;
/// for rows, arithmetic.
/// An unencodable fragment is an error, not zero bytes: `unwrap_or(0)`
/// here used to under-report replication traffic in `JobStats` and the
/// trace counters instead of failing.
fn fragment_bytes(data: &Dataset) -> Result<u64> {
    Ok(wire::encoded_size(&data.batch, &data.schema)? as u64)
}

/// The default engine thread budget and where it came from: the
/// `PAPAR_THREADS` environment variable when set to a positive integer
/// (how CI pins both extremes of the determinism matrix), else the host's
/// available parallelism. A set but malformed or zero value is a typed
/// [`MrError::BadThreadBudget`] — silently falling back to host
/// parallelism would mis-size a resident daemon's every request with no
/// signal. The front ends announce the budget and its source, so the
/// sizing is never a mystery; the engine itself prints nothing.
///
/// A long-running daemon validates `PAPAR_THREADS` through it once at
/// startup, before accepting any request.
pub fn default_thread_budget() -> Result<(usize, &'static str)> {
    match std::env::var("PAPAR_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(t) if t >= 1 => Ok((t, "PAPAR_THREADS")),
            _ => Err(MrError::BadThreadBudget { value: v }),
        },
        Err(_) => Ok((
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            "host parallelism",
        )),
    }
}

/// Per-receiver `(sender, buffer)` lists produced by [`Cluster::exchange`].
pub type Inboxes = Vec<Inbox>;

/// One receiver's `(sender, buffer)` list, senders ascending.
pub type Inbox = Vec<(usize, Vec<u8>)>;

/// Split a dataset into `n` contiguous fragments (flat batches by records
/// and packed batches by groups, by move; rows by row, copied), in block
/// order — what [`Cluster::scatter`] places, one fragment per node.
pub fn split_dataset(dataset: Dataset, n: usize) -> Vec<Dataset> {
    let schema = dataset.schema;
    match dataset.batch {
        Batch::Rows(rows) => rows
            .split(n)
            .into_iter()
            .map(|part| Dataset::new(schema.clone(), Batch::Rows(part)))
            .collect(),
        Batch::Flat(records) => split_evenly(records, n)
            .into_iter()
            .map(|chunk| Dataset::new(schema.clone(), Batch::Flat(chunk)))
            .collect(),
        Batch::Packed(groups) => split_evenly(groups, n)
            .into_iter()
            .map(|chunk| Dataset::new(schema.clone(), Batch::Packed(chunk)))
            .collect(),
    }
}

/// Split a vector into `n` contiguous chunks of near-equal length
/// ([`block_sizes`]: the earlier chunks take the remainder, like HDFS
/// block assignment).
pub fn split_evenly<T>(mut items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let mut out = Vec::with_capacity(n.max(1));
    // Take chunks from the back to avoid repeated shifting, then reverse.
    let mut sizes: Vec<usize> = block_sizes(items.len(), n).collect();
    sizes.reverse();
    for sz in sizes {
        let tail = items.split_off(items.len() - sz);
        out.push(tail);
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;
    use papar_record::rec;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![("a", FieldType::Integer)]))
    }

    fn flat(vals: std::ops::Range<i32>) -> Dataset {
        Dataset::new(schema(), Batch::Flat(vals.map(|v| rec![v]).collect()))
    }

    #[test]
    fn restoring_onto_a_node_the_cluster_lacks_is_a_typed_error() {
        let mut c = Cluster::new(3);
        let ds = Dataset::new(
            Arc::new(Schema::new(vec![("a", FieldType::Integer)])),
            Batch::empty(),
        );
        assert_eq!(
            c.restore_fragment(3, "d", 0, ds.clone()),
            Err(MrError::NodeOutOfRange { node: 3, nodes: 3 })
        );
        assert!(!c.node(0).contains("d"));
        c.restore_fragment(2, "d", 0, ds).unwrap();
        assert!(c.node(2).contains("d"));
    }

    #[test]
    fn split_evenly_covers_and_orders() {
        let chunks = split_evenly((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(chunks, vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]);
        let empty = split_evenly(Vec::<i32>::new(), 4);
        assert_eq!(empty.len(), 4);
        assert!(empty.iter().all(Vec::is_empty));
        let more_nodes = split_evenly(vec![1, 2], 5);
        assert_eq!(more_nodes.iter().filter(|c| !c.is_empty()).count(), 2);
    }

    #[test]
    fn scatter_collect_roundtrip() {
        let mut c = Cluster::new(4);
        c.scatter("in", flat(0..10)).unwrap();
        let back = c.collect_concat("in").unwrap();
        assert_eq!(back.batch.record_count(), 10);
        let flat_records = back.batch.into_flat().unwrap();
        let vals: Vec<i32> = flat_records
            .iter()
            .map(|r| match r.value(0).unwrap() {
                papar_record::Value::Int(v) => *v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn place_round_robin_shares_the_given_fragments() {
        let mut c = Cluster::new(2);
        let frags: Vec<Arc<Dataset>> = (0..5).map(|i| Arc::new(flat(i..i + 1))).collect();
        c.place("p", frags.clone()).unwrap();
        assert_eq!(c.node(0).get("p").unwrap().len(), 3); // ordinals 0, 2, 4
        assert_eq!(c.node(1).get("p").unwrap().len(), 2); // ordinals 1, 3
        assert!(frags.iter().all(|f| Arc::strong_count(f) == 2));
        let collected = c.collect("p").unwrap();
        assert_eq!(collected.len(), 5);
    }

    #[test]
    fn fragments_borrow_in_ordinal_order_across_nodes() {
        let mut c = Cluster::new(3);
        let frags: Vec<Arc<Dataset>> = (0..7).map(|i| Arc::new(flat(i..i + 1))).collect();
        c.place("p", frags.clone()).unwrap();
        let got = c.fragments("p").unwrap();
        assert_eq!(got.len(), 7);
        for (f, want) in got.iter().zip(&frags) {
            assert!(std::ptr::eq(*f, want.as_ref()), "borrowed, not copied");
        }
        let cloned: Vec<Dataset> = got.into_iter().cloned().collect();
        assert_eq!(c.collect("p").unwrap(), cloned);
    }

    #[test]
    fn missing_dataset_is_a_typed_error() {
        let c = Cluster::new(2);
        let missing = MrError::DatasetNotFound {
            name: "ghost".into(),
        };
        assert_eq!(c.fragments("ghost").unwrap_err(), missing);
        assert_eq!(c.collect("ghost").unwrap_err(), missing);
        assert_eq!(
            missing.to_string(),
            "mapreduce error: dataset 'ghost' not found on any node"
        );
    }

    #[test]
    fn exchange_accounts_remote_bytes_only() {
        let c = Cluster::new(2);
        let outboxes = vec![
            vec![vec![1, 2, 3], vec![4, 5]], // node 0: to self (3B), to 1 (2B)
            vec![vec![], vec![9; 10]],       // node 1: nothing to 0, self 10B
        ];
        let (inboxes, stats) = c.exchange(outboxes).unwrap();
        assert_eq!(stats.remote_bytes, 2);
        assert_eq!(stats.remote_messages, 1);
        assert_eq!(stats.sent_by_node, vec![2, 0]);
        assert_eq!(stats.recv_by_node, vec![0, 2]);
        assert_eq!(inboxes[0].len(), 1); // self-send delivered
        assert_eq!(inboxes[1].len(), 2);
    }

    #[test]
    fn exchange_rejects_malformed_matrix() {
        let c = Cluster::new(2);
        assert!(c.exchange(vec![vec![vec![]]]).is_err());
        assert!(c.exchange(vec![vec![vec![]], vec![vec![]]]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_panics() {
        let _ = Cluster::new(0);
    }

    #[test]
    fn packed_scatter_splits_groups() {
        let schema = schema();
        let packed = Batch::Flat(vec![rec![1], rec![1], rec![2], rec![3]])
            .pack_by(&schema, 0)
            .unwrap();
        let mut c = Cluster::new(2);
        c.scatter("g", Dataset::new(schema, packed)).unwrap();
        let back = c.collect_concat("g").unwrap();
        assert_eq!(back.batch.entry_count(), 3);
        assert_eq!(back.batch.record_count(), 4);
    }
}
