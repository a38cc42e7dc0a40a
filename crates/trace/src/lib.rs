//! Structured observability for the simulated cluster: spans, counters,
//! and trace export.
//!
//! Every workflow run decomposes into a tree of **spans** — workflow →
//! job → phase (sample/map/shuffle/reduce) → per-node task — each
//! carrying byte/record counters and *two* clocks:
//!
//! * the **virtual clock** (`virt`): the measured per-phase times the
//!   engine already charges to the simulated makespan. These are real
//!   measurements, so they vary run to run and are used for the human
//!   `--profile` breakdown (whose phases sum exactly to the reported
//!   makespan).
//! * the **deterministic clock** (`det_ns`): a modeled time computed
//!   *only* from deterministic quantities — record/pair/byte counters
//!   and the [α–β network model] — via [`CostModel`]. Exported traces
//!   (`--trace out.json`, Chrome trace-event format) are stamped with
//!   this clock, so the emitted JSON is byte-identical across runs and
//!   thread counts, the same discipline that keeps partitions
//!   byte-identical.
//!
//! Collection goes through the [`TraceSink`] trait. The default
//! [`NoopSink`] reports itself disabled and the engine skips all
//! bookkeeping, so tracing is near-zero-cost when off (the bench crate
//! asserts this); [`Collector`] assembles a [`WorkflowTrace`].
//!
//! [α–β network model]: CostModel

mod chrome;
mod cost;
mod profile;
mod sink;

pub use chrome::to_chrome_json;
pub use cost::{duration_ns, CostModel};
pub use profile::{
    render_bounds_check, render_prediction_check, render_profile, Prediction, StaticBound,
};
pub use sink::{Collector, JobTrace, NoopSink, PhaseTrace, TaskTrace, TraceSink};

use std::time::Duration;

/// The phase a span belongs to, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// The pre-job key-sampling pass of a sort operator.
    Sample,
    /// The map side of an engine job (or the whole of a map-only job).
    Map,
    /// The all-to-all exchange, including recovery traffic.
    Shuffle,
    /// The reduce side of an engine job.
    Reduce,
    /// Durable publication of a completed stage's output fragments to a
    /// checkpoint run directory.
    Checkpoint,
    /// Re-population of the cluster store from a checkpoint on
    /// `--resume` (the stage itself is skipped).
    Restore,
}

impl PhaseKind {
    /// Stable lowercase name used in rendered output and trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Sample => "sample",
            PhaseKind::Map => "map",
            PhaseKind::Shuffle => "shuffle",
            PhaseKind::Reduce => "reduce",
            PhaseKind::Checkpoint => "ckpt",
            PhaseKind::Restore => "restore",
        }
    }
}

/// What a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole workflow run (root span).
    Workflow,
    /// One MapReduce (or map-only) job.
    Job,
    /// One BSP phase of a job.
    Phase(PhaseKind),
    /// One node's task within a phase.
    Task {
        /// The simulated node the task ran on.
        node: usize,
    },
}

/// Deterministic event counters carried by every span. All counts are
/// exact (not sampled) and sum up the tree: a phase's counters are the
/// sum of its tasks', a job's the sum of its phases'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Records entering map tasks.
    pub records_in: u64,
    /// Records leaving reduce tasks.
    pub records_out: u64,
    /// Key-value pairs emitted (map side) or decoded (reduce side).
    pub pairs: u64,
    /// Bytes moved between distinct nodes by the shuffle.
    pub shuffle_bytes: u64,
    /// The least the shuffle could have moved: the record bytes of every
    /// record sent to another node, plus one 8-byte header per non-empty
    /// remote (sender, reducer) segment.
    pub shuffle_lo: u64,
    /// Remote shuffle transfers.
    pub messages: u64,
    /// Transfer frames the receivers checksum-verified (every remote
    /// frame plus every retransmission).
    pub frames_checksummed: u64,
    /// Task re-executions after injected crashes.
    pub retries: u64,
    /// Injected faults that fired in this span.
    pub crashes: u64,
    /// Bytes re-fetched from replicas to restore crashed stores.
    pub restore_bytes: u64,
    /// Replica-restore transfers.
    pub restore_messages: u64,
    /// Bytes retransmitted after drops, corruption, or reducer crashes.
    pub retransmit_bytes: u64,
    /// Retransmission transfers.
    pub retransmit_messages: u64,
    /// Bytes moved to place fragment replicas (checkpoint traffic).
    pub replication_bytes: u64,
    /// Bytes written durably to a checkpoint run directory.
    pub checkpoint_bytes: u64,
    /// Bytes read back from a checkpoint on `--resume`.
    pub restored_bytes: u64,
    /// Virtual nanoseconds spent in retry backoff.
    pub backoff_ns: u64,
    /// Bytes the reduce sort stage *moves*: 32-byte index entries per pair
    /// plus tie re-decodes. Analytic (a function of the data, not the
    /// allocator), so identical at every thread count.
    pub staged_bytes: u64,
    /// Heap allocations needed to stage the reduce sort's elements —
    /// analytic like `staged_bytes`.
    pub staged_allocs: u64,
    /// Wire bytes materialized into owned records on the reduce side
    /// (every pair is decoded exactly once).
    pub materialized_bytes: u64,
    /// Pairs that landed in a key-prefix tie run (≥ 2 members sharing a
    /// `(reducer, prefix)`), the runs the reduce sort re-checks.
    pub tie_pairs: u64,
}

impl Counters {
    /// Fold another span's counters into this one.
    pub fn add(&mut self, o: &Counters) {
        self.records_in += o.records_in;
        self.records_out += o.records_out;
        self.pairs += o.pairs;
        self.shuffle_bytes += o.shuffle_bytes;
        self.shuffle_lo += o.shuffle_lo;
        self.messages += o.messages;
        self.frames_checksummed += o.frames_checksummed;
        self.retries += o.retries;
        self.crashes += o.crashes;
        self.restore_bytes += o.restore_bytes;
        self.restore_messages += o.restore_messages;
        self.retransmit_bytes += o.retransmit_bytes;
        self.retransmit_messages += o.retransmit_messages;
        self.replication_bytes += o.replication_bytes;
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.restored_bytes += o.restored_bytes;
        self.backoff_ns += o.backoff_ns;
        self.staged_bytes += o.staged_bytes;
        self.staged_allocs += o.staged_allocs;
        self.materialized_bytes += o.materialized_bytes;
        self.tie_pairs += o.tie_pairs;
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

/// Per-reducer record/byte distribution of a job's shuffle — the skew
/// picture behind the paper's load-balance claims.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkewHistogram {
    /// Records routed to each reducer.
    pub records: Vec<u64>,
    /// Encoded bytes routed to each reducer.
    pub bytes: Vec<u64>,
}

impl SkewHistogram {
    /// An all-zero histogram over `num_reducers` reducers.
    pub fn new(num_reducers: usize) -> Self {
        SkewHistogram {
            records: vec![0; num_reducers],
            bytes: vec![0; num_reducers],
        }
    }

    /// Zero every bucket, keeping the reducer count (retry attempts
    /// restart their accounting).
    pub fn reset(&mut self) {
        self.records.iter_mut().for_each(|c| *c = 0);
        self.bytes.iter_mut().for_each(|c| *c = 0);
    }

    /// Sum another node's histogram into this one (bucket-wise).
    pub fn merge(&mut self, o: &SkewHistogram) {
        if self.records.len() < o.records.len() {
            self.records.resize(o.records.len(), 0);
            self.bytes.resize(o.bytes.len(), 0);
        }
        for (a, b) in self.records.iter_mut().zip(&o.records) {
            *a += b;
        }
        for (a, b) in self.bytes.iter_mut().zip(&o.bytes) {
            *a += b;
        }
    }

    /// Record-count imbalance: busiest reducer over the mean (1.0 =
    /// perfectly balanced; 0.0 when empty).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.records.iter().sum();
        let max = self.records.iter().copied().max().unwrap_or(0);
        if total == 0 || self.records.is_empty() {
            return 0.0;
        }
        max as f64 * self.records.len() as f64 / total as f64
    }
}

/// One flattened span of a [`WorkflowTrace`] (see
/// [`WorkflowTrace::spans`]): parent links by id, the deterministic
/// clock already laid out as absolute start offsets.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the trace (root is 0).
    pub id: u64,
    /// Parent span id (`None` for the root).
    pub parent: Option<u64>,
    /// Human-readable name.
    pub name: String,
    /// What the span describes.
    pub kind: SpanKind,
    /// Deterministic start offset from workflow start, in modeled ns.
    pub det_start_ns: u64,
    /// Deterministic duration in modeled ns.
    pub det_dur_ns: u64,
    /// Measured virtual-clock duration.
    pub virt: Duration,
    /// Measured on-CPU time (thread CPU clock, unscaled).
    pub cpu: Duration,
    /// Event counters.
    pub counters: Counters,
    /// Per-reducer skew (job spans only).
    pub skew: Option<SkewHistogram>,
    /// Logical workflow jobs this span stands for, when the physical
    /// plan fused them into one stage (job spans only; empty otherwise).
    pub covers: Vec<String>,
}

/// The assembled trace of one workflow run.
#[derive(Debug, Clone, Default)]
pub struct WorkflowTrace {
    /// Per-job traces in launch order.
    pub jobs: Vec<JobTrace>,
}

impl WorkflowTrace {
    /// Total measured virtual time — equals the workflow's reported
    /// makespan (phase times sum to job makespans, jobs run back to
    /// back).
    pub fn total_virt(&self) -> Duration {
        self.jobs.iter().map(JobTrace::virt).sum()
    }

    /// Total deterministic (modeled) time.
    pub fn total_det_ns(&self) -> u64 {
        self.jobs
            .iter()
            .map(JobTrace::det_ns)
            .fold(0, u64::saturating_add)
    }

    /// Workflow-level counter totals.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for j in &self.jobs {
            c.add(&j.counters());
        }
        c
    }

    /// Number of simulated nodes that ran tasks (max task node + 1).
    pub fn num_nodes(&self) -> usize {
        self.jobs
            .iter()
            .flat_map(|j| &j.phases)
            .flat_map(|p| &p.tasks)
            .map(|t| t.node + 1)
            .max()
            .unwrap_or(0)
    }

    /// Flatten the trace into spans with ids, parent links, and absolute
    /// deterministic start offsets. Jobs lay out back to back on the
    /// deterministic clock; phases back to back within their job; tasks
    /// start at their phase's start (they run concurrently).
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        let mut next_id = 0u64;
        let mut alloc = || {
            let id = next_id;
            next_id += 1;
            id
        };
        let root = alloc();
        out.push(Span {
            id: root,
            parent: None,
            name: "workflow".to_string(),
            kind: SpanKind::Workflow,
            det_start_ns: 0,
            det_dur_ns: self.total_det_ns(),
            virt: self.total_virt(),
            cpu: self.jobs.iter().map(JobTrace::cpu).sum(),
            counters: self.counters(),
            skew: None,
            covers: Vec::new(),
        });
        let mut clock = 0u64;
        for job in &self.jobs {
            let jid = alloc();
            out.push(Span {
                id: jid,
                parent: Some(root),
                name: job.name.clone(),
                kind: SpanKind::Job,
                det_start_ns: clock,
                det_dur_ns: job.det_ns(),
                virt: job.virt(),
                cpu: job.cpu(),
                counters: job.counters(),
                skew: job.skew.clone(),
                covers: job.covers.clone(),
            });
            for phase in &job.phases {
                let pid = alloc();
                out.push(Span {
                    id: pid,
                    parent: Some(jid),
                    name: phase.kind.name().to_string(),
                    kind: SpanKind::Phase(phase.kind),
                    det_start_ns: clock,
                    det_dur_ns: phase.det_ns,
                    virt: phase.virt,
                    cpu: phase.cpu,
                    counters: phase.counters,
                    skew: None,
                    covers: Vec::new(),
                });
                for task in &phase.tasks {
                    let tid = alloc();
                    out.push(Span {
                        id: tid,
                        parent: Some(pid),
                        name: format!("{}@n{}", phase.kind.name(), task.node),
                        kind: SpanKind::Task { node: task.node },
                        det_start_ns: clock,
                        det_dur_ns: task.det_ns,
                        virt: task.virt,
                        cpu: task.cpu,
                        counters: task.counters,
                        skew: None,
                        covers: Vec::new(),
                    });
                }
                clock = clock.saturating_add(phase.det_ns);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(node: usize, det: u64) -> TaskTrace {
        TaskTrace {
            node,
            virt: Duration::from_millis(det),
            cpu: Duration::from_millis(det / 2),
            det_ns: det,
            counters: Counters {
                records_in: det,
                ..Counters::default()
            },
            ..TaskTrace::default()
        }
    }

    fn two_job_trace() -> WorkflowTrace {
        let mk_job = |name: &str| JobTrace {
            name: name.to_string(),
            phases: vec![
                PhaseTrace::barrier(PhaseKind::Map, vec![task(0, 10), task(1, 30)]),
                PhaseTrace::solo(
                    PhaseKind::Shuffle,
                    Duration::from_millis(5),
                    5,
                    Counters {
                        shuffle_bytes: 100,
                        ..Counters::default()
                    },
                ),
                PhaseTrace::barrier(PhaseKind::Reduce, vec![task(0, 20), task(1, 15)]),
            ],
            skew: Some(SkewHistogram {
                records: vec![3, 1],
                bytes: vec![30, 10],
            }),
            covers: Vec::new(),
        };
        WorkflowTrace {
            jobs: vec![mk_job("a"), mk_job("b")],
        }
    }

    #[test]
    fn barrier_phase_takes_max_and_sums_counters() {
        let p = PhaseTrace::barrier(PhaseKind::Map, vec![task(0, 10), task(1, 30)]);
        assert_eq!(p.det_ns, 30);
        assert_eq!(p.virt, Duration::from_millis(30));
        assert_eq!(p.cpu, Duration::from_millis(5 + 15));
        assert_eq!(p.counters.records_in, 40);
        assert_eq!(p.tasks.len(), 2);
    }

    #[test]
    fn spans_form_a_tree_on_a_monotone_clock() {
        let t = two_job_trace();
        let spans = t.spans();
        // 1 workflow + 2 jobs * (1 job + 3 phases + 4 tasks).
        assert_eq!(spans.len(), 1 + 2 * 8);
        assert_eq!(spans[0].parent, None);
        for s in &spans[1..] {
            let p = s.parent.expect("non-root spans have parents");
            let parent = spans.iter().find(|x| x.id == p).expect("parent exists");
            assert!(parent.det_start_ns <= s.det_start_ns);
            assert!(
                parent.det_start_ns + parent.det_dur_ns >= s.det_start_ns + s.det_dur_ns,
                "span {} must nest within its parent",
                s.id
            );
        }
        // Job b starts where job a ends: 30 + 5 + 20.
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.det_start_ns, 55);
        assert_eq!(t.total_det_ns(), 110);
        assert_eq!(t.num_nodes(), 2);
    }

    #[test]
    fn skew_histogram_merges_and_measures_imbalance() {
        let mut a = SkewHistogram::new(2);
        a.records = vec![3, 1];
        a.bytes = vec![30, 10];
        let b = SkewHistogram {
            records: vec![1, 3],
            bytes: vec![10, 30],
        };
        a.merge(&b);
        assert_eq!(a.records, vec![4, 4]);
        assert!((a.imbalance() - 1.0).abs() < 1e-12);
        a.records = vec![8, 0];
        assert!((a.imbalance() - 2.0).abs() < 1e-12);
        a.reset();
        assert_eq!(a.records, vec![0, 0]);
        assert_eq!(SkewHistogram::new(0).imbalance(), 0.0);
    }

    #[test]
    fn counters_add_covers_every_field() {
        let one = Counters {
            records_in: 1,
            records_out: 1,
            pairs: 1,
            shuffle_bytes: 1,
            shuffle_lo: 1,
            messages: 1,
            frames_checksummed: 1,
            retries: 1,
            crashes: 1,
            restore_bytes: 1,
            restore_messages: 1,
            retransmit_bytes: 1,
            retransmit_messages: 1,
            replication_bytes: 1,
            checkpoint_bytes: 1,
            restored_bytes: 1,
            backoff_ns: 1,
            staged_bytes: 1,
            staged_allocs: 1,
            materialized_bytes: 1,
            tie_pairs: 1,
        };
        let mut sum = Counters::default();
        assert!(sum.is_zero());
        sum.add(&one);
        sum.add(&one);
        assert_eq!(sum.records_in, 2);
        assert_eq!(sum.shuffle_lo, 2);
        assert_eq!(sum.backoff_ns, 2);
        assert_eq!(sum.replication_bytes, 2);
        assert_eq!(sum.checkpoint_bytes, 2);
        assert_eq!(sum.restored_bytes, 2);
        assert_eq!(sum.staged_bytes, 2);
        assert_eq!(sum.staged_allocs, 2);
        assert_eq!(sum.materialized_bytes, 2);
        assert_eq!(sum.tie_pairs, 2);
        assert!(!sum.is_zero());
    }
}
