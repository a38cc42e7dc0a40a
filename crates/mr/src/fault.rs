//! Deterministic fault injection and the recovery policy.
//!
//! The simulated cluster can run under a [`FaultPlan`]: a finite schedule of
//! faults — node crashes at task boundaries, dropped or corrupted exchange
//! transfers, and stragglers — injected at well-defined points of
//! [`Cluster::run_job`](crate::Cluster::run_job). Plans are either built
//! explicitly (tests pin exact faults) or *realized* from a [`ChaosSpec`]
//! with a seed, in which case the same seed always yields the same schedule:
//! fault placement uses a private SplitMix64 stream, never the system RNG or
//! the clock.
//!
//! Recovery is classic MapReduce: only the failed task re-executes, lost
//! fragments are re-fetched from replicas (see
//! [`Cluster::with_replication`](crate::Cluster::with_replication)), and
//! lost shuffle transfers are retransmitted after checksum or timeout
//! detection. All recovery work is charged to the virtual clock and
//! reported in [`RecoveryStats`](crate::stats::RecoveryStats); for any plan
//! recovery survives, the final partitions are byte-identical to the
//! fault-free run.

use std::fmt;
use std::time::Duration;

use crate::{MrError, Result, TaskPhase};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Node `node` dies at the end of its `phase` task of the `job`-th
    /// MapReduce job (0-based launch order): the task's uncommitted output
    /// and the node's entire store are lost. The node reboots immediately;
    /// recovery restores its fragments from replicas and re-executes the
    /// task.
    NodeCrash {
        /// The crashing node.
        node: usize,
        /// 0-based index of the job (in `run_job` launch order).
        job: usize,
        /// Which task boundary the crash hits.
        phase: TaskPhase,
    },
    /// The shuffle transfer `from → to` of job `job` is lost in flight; the
    /// receiver times out on the missing message and the sender retransmits.
    ExchangeDrop {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// 0-based job index.
        job: usize,
    },
    /// The shuffle transfer `from → to` of job `job` arrives with flipped
    /// bytes; the per-transfer checksum exposes the damage and the sender
    /// retransmits.
    ExchangeCorrupt {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// 0-based job index.
        job: usize,
    },
    /// Node `node` computes `slowdown`× slower for the whole run (a
    /// persistent straggler, not a one-shot event).
    Straggler {
        /// The slow node.
        node: usize,
        /// Compute-time multiplier, > 1.
        slowdown: f64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NodeCrash { node, job, phase } => {
                write!(
                    f,
                    "crash of node {node} at the {phase} boundary of job {job}"
                )
            }
            Fault::ExchangeDrop { from, to, job } => {
                write!(f, "dropped transfer {from} -> {to} in job {job}")
            }
            Fault::ExchangeCorrupt { from, to, job } => {
                write!(f, "corrupted transfer {from} -> {to} in job {job}")
            }
            Fault::Straggler { node, slowdown } => {
                write!(f, "straggler node {node} ({slowdown:.2}x slower)")
            }
        }
    }
}

/// The two ways an exchange transfer can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeFaultKind {
    /// The message never arrives (detected by timeout).
    Drop,
    /// The message arrives damaged (detected by checksum mismatch).
    Corrupt,
}

/// A finite, ordered schedule of faults consumed as the run hits their
/// injection points. One-shot faults (crashes, exchange faults) are removed
/// when they fire; stragglers persist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The seed this plan was realized from (0 for hand-built plans).
    pub seed: u64,
    pending: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with an explicit fault list (tests pin exact scenarios).
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan {
            seed: 0,
            pending: faults,
        }
    }

    /// True when no fault remains to fire.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The faults still scheduled, in order.
    pub fn pending(&self) -> &[Fault] {
        &self.pending
    }

    /// Drain every crash scheduled for `(job, phase)` into per-node counts.
    ///
    /// The engine pre-draws crashes at the phase barrier so worker threads
    /// never touch the shared plan: a node with count `c` crashes on its
    /// first `c` attempts. Each drawn crash leaves the plan, so it fires
    /// once. Crashes addressing nodes outside `0..num_nodes` stay pending
    /// (they could never fire in this phase).
    pub fn take_crashes(&mut self, job: usize, phase: TaskPhase, num_nodes: usize) -> Vec<u32> {
        let mut counts = vec![0u32; num_nodes];
        self.pending.retain(|f| match f {
            Fault::NodeCrash {
                node,
                job: j,
                phase: p,
            } if *j == job && *p == phase && *node < num_nodes => {
                counts[*node] += 1;
                false
            }
            _ => true,
        });
        counts
    }

    /// Consume every pending exchange fault of job `job`, in schedule order.
    pub fn take_exchange_faults(&mut self, job: usize) -> Vec<(usize, usize, ExchangeFaultKind)> {
        let mut fired = Vec::new();
        self.pending.retain(|f| match f {
            Fault::ExchangeDrop { from, to, job: j } if *j == job => {
                fired.push((*from, *to, ExchangeFaultKind::Drop));
                false
            }
            Fault::ExchangeCorrupt { from, to, job: j } if *j == job => {
                fired.push((*from, *to, ExchangeFaultKind::Corrupt));
                false
            }
            _ => true,
        });
        fired
    }

    /// Combined slowdown factor of `node` (1.0 when it is healthy).
    /// Stragglers are persistent, so this never consumes anything.
    pub fn straggler_factor(&self, node: usize) -> f64 {
        self.pending
            .iter()
            .filter_map(|f| match f {
                Fault::Straggler { node: n, slowdown } if *n == node => Some(*slowdown),
                _ => None,
            })
            .product()
    }

    /// True when job `job` still has exchange faults scheduled.
    pub fn has_exchange_faults(&self, job: usize) -> bool {
        self.pending.iter().any(|f| {
            matches!(f,
                Fault::ExchangeDrop { job: j, .. } | Fault::ExchangeCorrupt { job: j, .. }
                if *j == job)
        })
    }
}

/// How many faults of each kind to inject; realized into a concrete
/// [`FaultPlan`] with a seed. This is what the CLI `--faults` flag parses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Node crashes at task boundaries.
    pub crashes: u32,
    /// Dropped exchange transfers.
    pub drops: u32,
    /// Corrupted exchange transfers.
    pub corrupts: u32,
    /// Persistent stragglers.
    pub stragglers: u32,
}

impl ChaosSpec {
    /// Parse a `kind=count` list, e.g. `"crash=1,drop=2,corrupt=1,straggler=1"`.
    ///
    /// Each kind may appear at most once: `crash=1,crash=2` used to sum
    /// silently into three crashes, which is never what either entry
    /// meant, so repeats now fail with
    /// [`MrError::DuplicateFaultKind`].
    pub fn parse(spec: &str) -> Result<Self> {
        let mut out = ChaosSpec::default();
        let mut seen = [false; 4];
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, count) = part.split_once('=').ok_or_else(|| {
                MrError::msg(format!(
                    "fault spec entry '{part}' is not kind=count (e.g. crash=1)"
                ))
            })?;
            let count: u32 = count.trim().parse().map_err(|_| {
                MrError::msg(format!("fault spec entry '{part}' has a non-numeric count"))
            })?;
            let kind = kind.trim();
            let slot = match kind {
                "crash" => {
                    out.crashes = count;
                    0
                }
                "drop" => {
                    out.drops = count;
                    1
                }
                "corrupt" => {
                    out.corrupts = count;
                    2
                }
                "straggler" => {
                    out.stragglers = count;
                    3
                }
                other => {
                    return Err(MrError::msg(format!(
                        "unknown fault kind '{other}' (want crash, drop, corrupt or straggler)"
                    )))
                }
            };
            if seen[slot] {
                return Err(MrError::DuplicateFaultKind {
                    kind: kind.to_string(),
                });
            }
            seen[slot] = true;
        }
        Ok(out)
    }

    /// Realize the spec into a concrete schedule. The same
    /// `(seed, num_nodes, num_jobs)` always yields the same plan. Exchange
    /// faults need at least two nodes (a one-node cluster has no remote
    /// transfers) and are skipped otherwise.
    pub fn realize(&self, seed: u64, num_nodes: usize, num_jobs: usize) -> FaultPlan {
        let nodes = num_nodes.max(1) as u64;
        let jobs = num_jobs.max(1) as u64;
        let mut rng = DetRng::new(seed);
        let mut pending = Vec::new();
        for _ in 0..self.crashes {
            pending.push(Fault::NodeCrash {
                node: rng.below(nodes) as usize,
                job: rng.below(jobs) as usize,
                phase: if rng.next_u64() & 1 == 0 {
                    TaskPhase::Map
                } else {
                    TaskPhase::Reduce
                },
            });
        }
        if nodes >= 2 {
            for _ in 0..self.drops {
                let (from, to) = rng.distinct_pair(nodes);
                pending.push(Fault::ExchangeDrop {
                    from,
                    to,
                    job: rng.below(jobs) as usize,
                });
            }
            for _ in 0..self.corrupts {
                let (from, to) = rng.distinct_pair(nodes);
                pending.push(Fault::ExchangeCorrupt {
                    from,
                    to,
                    job: rng.below(jobs) as usize,
                });
            }
        }
        for _ in 0..self.stragglers {
            pending.push(Fault::Straggler {
                node: rng.below(nodes) as usize,
                slowdown: 1.5 + rng.unit_f64() * 2.5,
            });
        }
        FaultPlan { seed, pending }
    }
}

/// How failed tasks are retried: up to `max_attempts` executions per task,
/// with exponential backoff charged to the virtual clock between attempts
/// (`backoff_base * 2^(attempt-1)` after the `attempt`-th failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per task (>= 1); the job aborts with
    /// [`MrError::TaskAborted`] when a task exhausts them.
    pub max_attempts: u32,
    /// Virtual wait before the first retry; doubles per further retry.
    pub backoff_base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// The virtual wait after the `failed_attempts`-th failed execution.
    pub fn backoff_for(&self, failed_attempts: u32) -> Duration {
        let shift = failed_attempts.saturating_sub(1).min(16);
        self.backoff_base.saturating_mul(1u32 << shift)
    }
}

/// One entry of the recovery log: what was injected and what the cluster
/// did about it, in order. Workflow reports surface this list.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// A scheduled fault fired during `job`.
    FaultInjected {
        /// Name of the job running when the fault fired.
        job: String,
        /// The fault.
        fault: Fault,
    },
    /// A crashed node's lost fragments were re-fetched from replicas.
    FragmentsRestored {
        /// Job during which the restore happened.
        job: String,
        /// The rebooted node.
        node: usize,
        /// Fragments copied back.
        fragments: usize,
        /// Bytes moved over the interconnect to restore them.
        bytes: u64,
    },
    /// A task is being re-executed after a crash.
    TaskRetried {
        /// Job name.
        job: String,
        /// Node re-running the task.
        node: usize,
        /// Which phase's task.
        phase: TaskPhase,
        /// The upcoming execution number (2 = first retry).
        attempt: u32,
        /// Virtual backoff waited before this retry.
        backoff: Duration,
    },
    /// A single dropped/corrupted exchange transfer was retransmitted.
    Retransmitted {
        /// Job name.
        job: String,
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Payload size.
        bytes: u64,
    },
    /// A crashed reducer's whole inbox was re-fetched from the mappers.
    InboxRefetched {
        /// Job name.
        job: String,
        /// The reducer node.
        node: usize,
        /// Bytes resent by remote mappers.
        bytes: u64,
        /// Number of resent transfers.
        messages: u64,
    },
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::FaultInjected { job, fault } => {
                write!(f, "[{job}] injected: {fault}")
            }
            RecoveryAction::FragmentsRestored {
                job,
                node,
                fragments,
                bytes,
            } => write!(
                f,
                "[{job}] restored {fragments} fragment(s) onto node {node} from replicas ({bytes} B)"
            ),
            RecoveryAction::TaskRetried {
                job,
                node,
                phase,
                attempt,
                backoff,
            } => write!(
                f,
                "[{job}] retrying {phase} task on node {node} (attempt {attempt}, waited {backoff:?})"
            ),
            RecoveryAction::Retransmitted {
                job,
                from,
                to,
                bytes,
            } => write!(f, "[{job}] retransmitted {from} -> {to} ({bytes} B)"),
            RecoveryAction::InboxRefetched {
                job,
                node,
                bytes,
                messages,
            } => write!(
                f,
                "[{job}] re-fetched node {node}'s inbox ({messages} transfer(s), {bytes} B)"
            ),
        }
    }
}

/// A tiny deterministic SplitMix64 stream. Fault placement must never touch
/// the system RNG or the clock, or seeded plans would stop being
/// reproducible.
#[derive(Debug, Clone)]
pub(crate) struct DetRng(u64);

impl DetRng {
    pub(crate) fn new(seed: u64) -> Self {
        DetRng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (n > 0).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Two distinct node ids out of `nodes` (>= 2).
    fn distinct_pair(&mut self, nodes: u64) -> (usize, usize) {
        let from = self.below(nodes);
        let to = (from + 1 + self.below(nodes - 1)) % nodes;
        (from as usize, to as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        let spec = ChaosSpec::parse("crash=2, drop=1,corrupt=3,straggler=1").unwrap();
        assert_eq!(
            spec,
            ChaosSpec {
                crashes: 2,
                drops: 1,
                corrupts: 3,
                stragglers: 1
            }
        );
        assert_eq!(ChaosSpec::parse("").unwrap(), ChaosSpec::default());
        assert!(ChaosSpec::parse("crash")
            .unwrap_err()
            .to_string()
            .contains("kind=count"));
        assert!(ChaosSpec::parse("crash=x")
            .unwrap_err()
            .to_string()
            .contains("non-numeric"));
        assert!(ChaosSpec::parse("meteor=1")
            .unwrap_err()
            .to_string()
            .contains("unknown fault kind"));
    }

    #[test]
    fn duplicate_fault_kinds_are_rejected_not_summed() {
        let err = ChaosSpec::parse("crash=1,crash=2").unwrap_err();
        assert!(
            matches!(&err, MrError::DuplicateFaultKind { kind } if kind == "crash"),
            "expected DuplicateFaultKind, got {err:?}"
        );
        assert!(err.to_string().contains("more than once"), "{err}");
        // Whitespace around the kind does not disguise the repeat, and
        // every kind is policed, not just crashes.
        for spec in [
            "drop=1, drop=1",
            "corrupt=0,corrupt=0",
            "straggler=2,crash=1,straggler=1",
            "crash=1,  crash =2",
        ] {
            assert!(
                matches!(
                    ChaosSpec::parse(spec),
                    Err(MrError::DuplicateFaultKind { .. })
                ),
                "spec {spec:?} should be rejected"
            );
        }
        // Distinct kinds still parse fine in any order.
        let ok = ChaosSpec::parse("straggler=1,crash=2").unwrap();
        assert_eq!(ok.crashes, 2);
        assert_eq!(ok.stragglers, 1);
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = ChaosSpec::parse("crash=3,drop=2,corrupt=2,straggler=2").unwrap();
        let a = spec.realize(42, 4, 3);
        let b = spec.realize(42, 4, 3);
        assert_eq!(a, b);
        let c = spec.realize(43, 4, 3);
        assert_ne!(a, c, "a different seed should move at least one fault");
        assert_eq!(a.pending().len(), 9);
    }

    #[test]
    fn realize_bounds_targets() {
        let spec = ChaosSpec::parse("crash=50,drop=50,corrupt=50,straggler=50").unwrap();
        let plan = spec.realize(7, 3, 2);
        for f in plan.pending() {
            match f {
                Fault::NodeCrash { node, job, .. } => {
                    assert!(*node < 3 && *job < 2);
                }
                Fault::ExchangeDrop { from, to, job }
                | Fault::ExchangeCorrupt { from, to, job } => {
                    assert!(*from < 3 && *to < 3 && from != to && *job < 2);
                }
                Fault::Straggler { node, slowdown } => {
                    assert!(*node < 3 && *slowdown > 1.0 && *slowdown <= 4.0);
                }
            }
        }
    }

    #[test]
    fn single_node_clusters_get_no_exchange_faults() {
        let spec = ChaosSpec::parse("drop=5,corrupt=5").unwrap();
        assert!(spec.realize(1, 1, 2).is_empty());
    }

    #[test]
    fn crashes_fire_once() {
        let mut plan = FaultPlan::new(vec![Fault::NodeCrash {
            node: 1,
            job: 0,
            phase: TaskPhase::Map,
        }]);
        // Matched by phase and job: neither draw takes the map crash.
        assert_eq!(plan.take_crashes(0, TaskPhase::Reduce, 2), vec![0, 0]);
        assert_eq!(plan.take_crashes(1, TaskPhase::Map, 2), vec![0, 0]);
        assert!(!plan.is_empty());
        // Matched by node: node 1 crashes, node 0 does not.
        assert_eq!(plan.take_crashes(0, TaskPhase::Map, 2), vec![0, 1]);
        assert_eq!(
            plan.take_crashes(0, TaskPhase::Map, 2),
            vec![0, 0],
            "one-shot"
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn take_crashes_counts_per_node_and_leaves_the_rest() {
        let mut plan = FaultPlan::new(vec![
            Fault::NodeCrash {
                node: 1,
                job: 0,
                phase: TaskPhase::Map,
            },
            Fault::NodeCrash {
                node: 1,
                job: 0,
                phase: TaskPhase::Map,
            },
            Fault::NodeCrash {
                node: 0,
                job: 0,
                phase: TaskPhase::Reduce,
            },
            Fault::NodeCrash {
                node: 2,
                job: 1,
                phase: TaskPhase::Map,
            },
            // Addresses a node the cluster does not have: must stay pending.
            Fault::NodeCrash {
                node: 9,
                job: 0,
                phase: TaskPhase::Map,
            },
        ]);
        assert_eq!(plan.take_crashes(0, TaskPhase::Map, 3), vec![0, 2, 0]);
        assert_eq!(plan.take_crashes(0, TaskPhase::Map, 3), vec![0, 0, 0]);
        assert_eq!(plan.take_crashes(0, TaskPhase::Reduce, 3), vec![1, 0, 0]);
        assert_eq!(plan.take_crashes(1, TaskPhase::Map, 3), vec![0, 0, 1]);
        assert_eq!(plan.pending().len(), 1, "out-of-range crash stays");
    }

    #[test]
    fn exchange_faults_drain_per_job() {
        let mut plan = FaultPlan::new(vec![
            Fault::ExchangeDrop {
                from: 0,
                to: 1,
                job: 1,
            },
            Fault::ExchangeCorrupt {
                from: 1,
                to: 0,
                job: 0,
            },
        ]);
        assert!(plan.has_exchange_faults(0));
        let fired = plan.take_exchange_faults(0);
        assert_eq!(fired, vec![(1, 0, ExchangeFaultKind::Corrupt)]);
        assert!(!plan.has_exchange_faults(0));
        assert!(plan.has_exchange_faults(1));
    }

    #[test]
    fn stragglers_persist_and_compound() {
        let plan = FaultPlan::new(vec![
            Fault::Straggler {
                node: 0,
                slowdown: 2.0,
            },
            Fault::Straggler {
                node: 0,
                slowdown: 1.5,
            },
            Fault::Straggler {
                node: 2,
                slowdown: 3.0,
            },
        ]);
        assert!((plan.straggler_factor(0) - 3.0).abs() < 1e-12);
        assert!((plan.straggler_factor(1) - 1.0).abs() < 1e-12);
        assert!((plan.straggler_factor(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_base: Duration::from_millis(10),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(40));
        // Deep attempt counts must not overflow the shift.
        assert_eq!(p.backoff_for(u32::MAX), p.backoff_for(17));
    }
}
