//! Trace assembly: per-task/phase/job records and the sink the engine
//! reports them through.

use std::time::Duration;

use crate::{Counters, PhaseKind, SkewHistogram, WorkflowTrace};

/// One node's task within a phase.
#[derive(Debug, Clone, Default)]
pub struct TaskTrace {
    /// The simulated node the task ran on.
    pub node: usize,
    /// Measured virtual time charged to the phase (includes retries,
    /// backoff, and straggler scaling).
    pub virt: Duration,
    /// Measured on-CPU time (thread CPU clock, before straggler
    /// scaling).
    pub cpu: Duration,
    /// Deterministic modeled duration.
    pub det_ns: u64,
    /// Deterministic counters.
    pub counters: Counters,
    /// A reduce task's `cpu` in its surviving attempt, as `[scan, sort,
    /// reduce]`: the inbox scan, the pair order (tie fix-up included) and
    /// the reducers; zero for other tasks, and in no deterministic export.
    pub reduce_split: [Duration; 3],
}

/// One BSP phase of a job.
#[derive(Debug, Clone)]
pub struct PhaseTrace {
    /// Which phase.
    pub kind: PhaseKind,
    /// Virtual time of the phase: the slowest task (tasks join at a
    /// barrier), or the modeled communication time for the shuffle.
    pub virt: Duration,
    /// Sum of the tasks' measured CPU time.
    pub cpu: Duration,
    /// Deterministic duration: slowest task on the modeled clock, or
    /// the modeled transfer time for the shuffle.
    pub det_ns: u64,
    /// Sum of the tasks' counters (plus phase-level traffic for the
    /// shuffle).
    pub counters: Counters,
    /// Per-node tasks, in node order; empty for sample/shuffle phases.
    pub tasks: Vec<TaskTrace>,
}

impl PhaseTrace {
    /// A compute phase closed by a barrier: virtual and deterministic
    /// time are the slowest task's, CPU and counters sum.
    pub fn barrier(kind: PhaseKind, tasks: Vec<TaskTrace>) -> Self {
        let virt = tasks.iter().map(|t| t.virt).max().unwrap_or_default();
        let det_ns = tasks.iter().map(|t| t.det_ns).max().unwrap_or(0);
        let cpu = tasks.iter().map(|t| t.cpu).sum();
        let mut counters = Counters::default();
        for t in &tasks {
            counters.add(&t.counters);
        }
        PhaseTrace {
            kind,
            virt,
            cpu,
            det_ns,
            counters,
            tasks,
        }
    }

    /// A phase with no per-node tasks (shuffle, sample): explicit times
    /// and counters.
    pub fn solo(kind: PhaseKind, virt: Duration, det_ns: u64, counters: Counters) -> Self {
        PhaseTrace {
            kind,
            virt,
            cpu: Duration::ZERO,
            det_ns,
            counters,
            tasks: Vec::new(),
        }
    }
}

/// One job's trace: its phases in execution order plus the per-reducer
/// skew its shuffle produced.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Job name (the workflow operator id).
    pub name: String,
    /// Phases in order (sample? map shuffle reduce, or a subset for
    /// jobs that bypass parts of the engine).
    pub phases: Vec<PhaseTrace>,
    /// Per-reducer record/byte distribution of the shuffle, when the
    /// job had one.
    pub skew: Option<SkewHistogram>,
    /// Logical workflow jobs this trace covers, when the physical stage
    /// fused more than one (empty for ordinary one-job stages). Keeps
    /// `--profile`/`--trace` truthful under fusion: a `sort+distr` span
    /// says it stands for both operators.
    pub covers: Vec<String>,
}

impl JobTrace {
    /// The job's virtual makespan: phases are joined by barriers, so
    /// their times sum.
    pub fn virt(&self) -> Duration {
        self.phases.iter().map(|p| p.virt).sum()
    }

    /// The job's deterministic makespan.
    pub fn det_ns(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.det_ns)
            .fold(0, u64::saturating_add)
    }

    /// Total measured CPU time across the job's tasks.
    pub fn cpu(&self) -> Duration {
        self.phases.iter().map(|p| p.cpu).sum()
    }

    /// Counter totals across the job's phases.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for p in &self.phases {
            c.add(&p.counters);
        }
        c
    }
}

/// Where the engine reports trace records. Implementations must be
/// `Send + Sync` because the cluster (which owns the sink) is shared by
/// reference with phase workers; all sink *calls* happen on the driver
/// thread at phase barriers, in deterministic order.
pub trait TraceSink: Send + Sync {
    /// Whether collection is on. The engine checks this once per job
    /// and skips all bookkeeping when false.
    fn enabled(&self) -> bool {
        false
    }

    /// Report a completed job (called after recovery accounting is
    /// final, so phase times sum to the job's reported makespan).
    fn record_job(&mut self, _job: JobTrace) {}

    /// Report a pre-job sampling pass; it becomes the `sample` phase of
    /// the next recorded job.
    fn record_sample(&mut self, _sample: PhaseTrace) {}

    /// Annotate the most recently recorded job with the logical jobs it
    /// covers (fused stages call this right after the engine records the
    /// job). No-op for sinks that do not collect.
    fn annotate_last_job(&mut self, _covers: Vec<String>) {}

    /// Append an extra phase (checkpoint publication, resume restore) to
    /// the most recently recorded job. No-op for sinks that do not
    /// collect.
    fn append_phase_last_job(&mut self, _phase: PhaseTrace) {}

    /// Consume everything recorded and produce the assembled trace;
    /// `None` for sinks that do not collect.
    fn finish(&mut self) -> Option<WorkflowTrace> {
        None
    }

    /// Discard anything recorded so far without producing a trace — the
    /// per-request handoff for resident engines (`papar serve`): a sink
    /// that stays installed across requests is reset at each request
    /// boundary so one request's spans can never bleed into the next
    /// report. No-op for sinks that do not collect.
    fn reset(&mut self) {}
}

/// The default sink: disabled, records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {}

/// A sink that assembles the full [`WorkflowTrace`].
#[derive(Debug, Default)]
pub struct Collector {
    jobs: Vec<JobTrace>,
    /// A sampling pass waiting to be attached to the next job.
    pending_sample: Option<PhaseTrace>,
}

impl Collector {
    /// An empty, enabled collector.
    pub fn new() -> Self {
        Collector::default()
    }
}

impl TraceSink for Collector {
    fn enabled(&self) -> bool {
        true
    }

    fn record_job(&mut self, mut job: JobTrace) {
        if let Some(sample) = self.pending_sample.take() {
            job.phases.insert(0, sample);
        }
        self.jobs.push(job);
    }

    fn record_sample(&mut self, sample: PhaseTrace) {
        self.pending_sample = Some(sample);
    }

    fn annotate_last_job(&mut self, covers: Vec<String>) {
        if let Some(job) = self.jobs.last_mut() {
            job.covers = covers;
        }
    }

    fn append_phase_last_job(&mut self, phase: PhaseTrace) {
        if let Some(job) = self.jobs.last_mut() {
            job.phases.push(phase);
        }
    }

    fn finish(&mut self) -> Option<WorkflowTrace> {
        let mut jobs = std::mem::take(&mut self.jobs);
        // A sampling pass with no job after it (failed run) still shows
        // up rather than vanishing.
        if let Some(sample) = self.pending_sample.take() {
            jobs.push(JobTrace {
                name: "(sample)".to_string(),
                phases: vec![sample],
                skew: None,
                covers: Vec::new(),
            });
        }
        Some(WorkflowTrace { jobs })
    }

    fn reset(&mut self) {
        self.jobs.clear();
        self.pending_sample = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_and_empty() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        s.record_job(JobTrace {
            name: "x".into(),
            phases: Vec::new(),
            skew: None,
            covers: Vec::new(),
        });
        s.annotate_last_job(vec!["a".into()]);
        assert!(s.finish().is_none());
    }

    #[test]
    fn collector_reset_discards_partial_request_state() {
        let mut c = Collector::new();
        c.record_sample(PhaseTrace::solo(
            PhaseKind::Sample,
            Duration::from_millis(1),
            1_000_000,
            Counters::default(),
        ));
        c.record_job(JobTrace {
            name: "req1".into(),
            phases: Vec::new(),
            skew: None,
            covers: Vec::new(),
        });
        // Request boundary: the previous request's spans must not bleed
        // into the next report.
        c.reset();
        let trace = c.finish().expect("collector always yields a trace");
        assert!(trace.jobs.is_empty(), "{:?}", trace.jobs);
    }

    #[test]
    fn collector_prepends_pending_sample_to_next_job() {
        let mut c = Collector::new();
        assert!(c.enabled());
        c.record_sample(PhaseTrace::solo(
            PhaseKind::Sample,
            Duration::from_millis(2),
            2_000_000,
            Counters::default(),
        ));
        c.record_job(JobTrace {
            name: "sort".into(),
            phases: vec![PhaseTrace::barrier(PhaseKind::Map, vec![])],
            skew: None,
            covers: Vec::new(),
        });
        c.record_job(JobTrace {
            name: "distr".into(),
            phases: Vec::new(),
            skew: None,
            covers: Vec::new(),
        });
        c.annotate_last_job(vec!["sort".into(), "distr".into()]);
        let t = c.finish().unwrap();
        assert_eq!(t.jobs.len(), 2);
        assert_eq!(t.jobs[0].phases[0].kind, PhaseKind::Sample);
        assert_eq!(t.jobs[0].virt(), Duration::from_millis(2));
        assert!(t.jobs[1].phases.is_empty());
        assert!(t.jobs[0].covers.is_empty());
        assert_eq!(
            t.jobs[1].covers,
            vec!["sort".to_string(), "distr".to_string()]
        );
    }

    #[test]
    fn orphan_sample_survives_as_its_own_job() {
        let mut c = Collector::new();
        c.record_sample(PhaseTrace::solo(
            PhaseKind::Sample,
            Duration::ZERO,
            7,
            Counters::default(),
        ));
        let t = c.finish().unwrap();
        assert_eq!(t.jobs.len(), 1);
        assert_eq!(t.jobs[0].name, "(sample)");
        assert_eq!(t.total_det_ns(), 7);
    }
}
