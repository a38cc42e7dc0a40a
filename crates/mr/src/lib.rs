//! A simulated message-passing cluster and MapReduce engine — the MR-MPI
//! substitute the PaPar framework executes on.
//!
//! The paper runs PaPar on MR-MPI (MapReduce over MPI) on a 16-node
//! InfiniBand cluster. This crate reproduces the *structure* of that stack
//! on a single machine:
//!
//! * [`cluster::Cluster`] — `N` simulated nodes, each with a private
//!   [`store::DataStore`] of named datasets (the stand-in for HDFS paths),
//!   plus an all-to-all [`cluster::Cluster::exchange`] primitive that moves
//!   serialized byte buffers between nodes (the `MPI_Isend`/`Irecv`/`Wait`
//!   analog) while accounting every byte.
//! * [`engine`] — MapReduce jobs: a map phase over each node's local data,
//!   a shuffle keyed by a user partitioner, and a reduce phase, with
//!   deterministic ordering guarantees.
//! * [`sampler`] — distributed key sampling for balanced reduce ranges
//!   (paper Section III-D, "Data Sampling").
//! * [`stats`] — per-job timing under a *virtual clock*: node tasks execute
//!   sequentially and each node is charged its measured compute time; the
//!   job's simulated makespan is `max(map) + comm + max(reduce)` (BSP
//!   barriers, like MapReduce), with communication time from a configurable
//!   [`stats::NetModel`].
//! * [`fault`] — seeded deterministic fault injection (node crashes,
//!   dropped/corrupted transfers, stragglers) and task-level recovery:
//!   failed tasks re-execute under a [`fault::RetryPolicy`], lost fragments
//!   are re-fetched from replicas, and every recovered run produces
//!   partitions byte-identical to the fault-free run.
//!
//! ## Threads and the virtual clock
//!
//! Node tasks within a phase run concurrently on scoped OS threads (the
//! [`cluster::Cluster::with_threads`] knob, default
//! `std::thread::available_parallelism()` or the `PAPAR_THREADS` env var),
//! joining at the BSP barriers, so wall-clock time tracks per-node work
//! instead of total work. The *virtual* clock is unchanged: each node is
//! still charged its own measured compute time and the makespan still
//! composes as `max(map) + comm + max(reduce)`. Output bytes, fault
//! schedules and recovery byte/message accounting are identical for every
//! thread count — faults are pre-drawn per `(job, phase, node, attempt)` at
//! the phase barrier and per-node results land in pre-allocated slots. Task
//! compute is measured on the per-thread CPU clock (see [`mod@self`]'s
//! private `timer` module), so charged durations exclude scheduler
//! out-time and stay close to the dedicated-node times the makespan model
//! assumes even when threads exceed physical cores; residual cache and
//! memory-bandwidth contention remains as measurement noise.

pub mod checkpoint;
pub mod cluster;
pub mod engine;
pub mod fault;
mod pairs;
pub mod sampler;
pub mod stats;
pub mod store;
mod timer;

pub use checkpoint::{CheckpointSession, StageRecord};
pub use cluster::{default_thread_budget, Cluster};
pub use engine::{
    run_slots, Emit, Entry, EntryRef, MapInput, MapReduceJob, Mapper, Partitioner, Reducer, TaskCtx,
};
pub use fault::{ChaosSpec, Fault, FaultPlan, RecoveryAction, RetryPolicy};
pub use pairs::{Pairs, Runs};
pub use sampler::RangePartitioner;
pub use stats::{JobStats, NetModel, RecoveryStats};

/// The phase of a MapReduce task, used in fault injection and error
/// context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskPhase {
    Map,
    Reduce,
}

impl std::fmt::Display for TaskPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskPhase::Map => write!(f, "map"),
            TaskPhase::Reduce => write!(f, "reduce"),
        }
    }
}

/// Error type for cluster operations. Structured variants keep the
/// failing job/node/task context so the exec layer can report *which*
/// task died instead of a flattened message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// Free-form engine or cluster error.
    Msg(String),
    /// Wire/codec failure; the codec error is retained as the
    /// [`std::error::Error::source`].
    Codec(papar_record::CodecError),
    /// A task kept failing until its retry budget was exhausted; the last
    /// attempt's error is retained as the source.
    TaskAborted {
        job: String,
        node: usize,
        phase: TaskPhase,
        attempts: u32,
        source: Box<MrError>,
    },
    /// No node holds a fragment of the named dataset.
    DatasetNotFound {
        /// The dataset asked for.
        name: String,
    },
    /// A dataset fragment was lost (node crash) and no live replica could
    /// restore it.
    DataLoss {
        dataset: String,
        node: usize,
        detail: String,
    },
    /// A shuffle counter exceeded its field: a `reducer` or `seq` past the
    /// wire format's u32, a job with more reducers than the reduce sort
    /// key's 24-bit field, or a `pair index` past its 38-bit field. Before
    /// this variant the encoder truncated silently, corrupting shuffles
    /// past 2^32 pairs per mapper.
    WireOverflow {
        /// Which counter overflowed.
        field: &'static str,
        /// The offending value.
        value: usize,
        /// The largest value the field holds.
        max: u64,
    },
    /// A partitioner assigned a key to a reducer outside
    /// `0..num_reducers`. Before this variant the engine silently
    /// clamped the id to the last reducer, so a buggy distribute policy
    /// skewed the output instead of failing.
    PartitionOutOfRange {
        /// The out-of-range reducer id the partitioner produced (as the
        /// raw key value for identity-style partitioners, so negative
        /// ids report faithfully).
        id: i64,
        /// The job's reducer count.
        num_reducers: usize,
    },
    /// A partitioner whose key is or embeds the reducer id (identity for
    /// distribute jobs, embedded order for the workflow's distribute) got
    /// a key that is no integer, so it names no reducer. Before this
    /// variant such a key silently went to reducer 0.
    NonIntegerReducerKey {
        /// The offending key.
        key: papar_record::Value,
    },
    /// The same fault kind appeared more than once in a `--faults` spec.
    /// Before this variant the counts silently summed, so
    /// `crash=1,crash=2` injected three crashes — neither entry's intent
    /// survives that merge, so the spec is rejected instead.
    DuplicateFaultKind {
        /// The repeated kind (`crash`, `drop`, `corrupt` or `straggler`).
        kind: String,
    },
    /// A task's retry budget ran out while injected faults kept firing.
    /// Carried as the `source` of [`MrError::TaskAborted`] so the abort
    /// reports what recovery was attempted — not just that it failed.
    RetriesExhausted {
        /// Executions performed (original plus retries).
        attempts: u32,
        /// The worker's recovery accounting at the moment it gave up.
        stats: Box<crate::stats::RecoveryStats>,
    },
    /// A checkpoint file or manifest failed its FNV-1a verification (or
    /// was torn mid-write); the offending data was renamed aside and the
    /// affected stages will be recomputed.
    CheckpointCorrupt {
        /// Path of the quarantined file.
        path: String,
        /// What the verifier saw.
        detail: String,
    },
    /// A checkpoint's plan/input/config fingerprint does not match this
    /// run, so `--resume` refuses rather than producing wrong bytes.
    ResumeMismatch {
        /// Fingerprint of the current run.
        expected: u64,
        /// Fingerprint stored in the checkpoint manifest.
        found: u64,
    },
    /// The `PAPAR_THREADS` environment variable is set but is not a
    /// positive integer. Before this variant the value was silently
    /// ignored in favor of the host's parallelism — tolerable for one
    /// `papar run`, but a resident daemon would mis-size every request
    /// forever with no signal — so the budget is rejected at startup.
    BadThreadBudget {
        /// The offending `PAPAR_THREADS` value, verbatim.
        value: String,
    },
}

impl MrError {
    /// Free-form error constructor (the pre-enum `MrError(msg)` shape).
    pub fn msg(m: impl Into<String>) -> Self {
        MrError::Msg(m.into())
    }
}

impl std::fmt::Display for MrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrError::Msg(m) => write!(f, "mapreduce error: {m}"),
            MrError::Codec(e) => write!(f, "mapreduce error: {e}"),
            MrError::TaskAborted {
                job,
                node,
                phase,
                attempts,
                source,
            } => write!(
                f,
                "job '{job}': {phase} task on node {node} aborted after {attempts} attempt(s): {source}"
            ),
            MrError::DatasetNotFound { name } => {
                write!(f, "mapreduce error: dataset '{name}' not found on any node")
            }
            MrError::DataLoss {
                dataset,
                node,
                detail,
            } => write!(
                f,
                "dataset '{dataset}' lost on node {node} with no live replica: {detail}"
            ),
            MrError::WireOverflow { field, value, max } => write!(
                f,
                "shuffle {field} {value} exceeds the format's maximum {max}"
            ),
            MrError::PartitionOutOfRange { id, num_reducers } => write!(
                f,
                "partitioner assigned reducer {id}, outside 0..{num_reducers}"
            ),
            MrError::NonIntegerReducerKey { key } => write!(
                f,
                "partitioner wants an integer reducer id in the key, got {key:?}"
            ),
            MrError::DuplicateFaultKind { kind } => write!(
                f,
                "fault kind '{kind}' appears more than once in the spec; \
                 give each kind a single count"
            ),
            MrError::RetriesExhausted { attempts, stats } => write!(
                f,
                "retry budget exhausted after {attempts} attempt(s): {} fault(s) fired, \
                 {} task retr{} ({:?} re-executed, {:?} backoff), {} B restored from replicas",
                stats.faults_injected,
                stats.tasks_retried,
                if stats.tasks_retried == 1 { "y" } else { "ies" },
                stats.reexec_task_time,
                stats.backoff_time,
                stats.restore_bytes,
            ),
            MrError::CheckpointCorrupt { path, detail } => write!(
                f,
                "checkpoint '{path}' is corrupt and was quarantined: {detail}"
            ),
            MrError::ResumeMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this run's \
                 fingerprint {expected:#018x} (plan, input, seed or config changed); \
                 refusing to resume"
            ),
            MrError::BadThreadBudget { value } => write!(
                f,
                "PAPAR_THREADS wants a positive integer, got '{value}'; \
                 unset it to use the host's parallelism"
            ),
        }
    }
}

impl std::error::Error for MrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrError::Codec(e) => Some(e),
            MrError::TaskAborted { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<papar_record::CodecError> for MrError {
    fn from(e: papar_record::CodecError) -> Self {
        MrError::Codec(e)
    }
}

/// Result alias for cluster operations.
pub type Result<T> = std::result::Result<T, MrError>;

#[cfg(test)]
mod error_tests {
    use super::{MrError, TaskPhase};
    use std::error::Error;

    #[test]
    fn source_chains_through_task_aborted() {
        let codec = papar_record::CodecError("truncated frame".into());
        let e = MrError::TaskAborted {
            job: "sort".into(),
            node: 3,
            phase: TaskPhase::Reduce,
            attempts: 2,
            source: Box::new(MrError::Codec(codec.clone())),
        };
        assert!(e.to_string().contains("reduce task on node 3"));
        let src = e.source().expect("task abort chains its cause");
        assert!(src.to_string().contains("truncated frame"));
        let inner = src.source().expect("codec error is the root cause");
        assert_eq!(inner.to_string(), codec.to_string());
    }

    #[test]
    fn msg_display_matches_legacy_format() {
        assert_eq!(MrError::msg("boom").to_string(), "mapreduce error: boom");
    }

    #[test]
    fn retries_exhausted_reports_the_recovery_ledger() {
        let stats = crate::stats::RecoveryStats {
            faults_injected: 3,
            tasks_retried: 2,
            restore_bytes: 512,
            ..Default::default()
        };
        let e = MrError::TaskAborted {
            job: "distr".into(),
            node: 1,
            phase: TaskPhase::Map,
            attempts: 3,
            source: Box::new(MrError::RetriesExhausted {
                attempts: 3,
                stats: Box::new(stats),
            }),
        };
        let msg = e.to_string();
        assert!(msg.contains("aborted after 3 attempt(s)"), "{msg}");
        assert!(msg.contains("3 fault(s) fired"), "{msg}");
        assert!(msg.contains("2 task retries"), "{msg}");
        assert!(msg.contains("512 B restored"), "{msg}");
    }

    #[test]
    fn checkpoint_errors_name_the_path_and_fingerprints() {
        let e = MrError::CheckpointCorrupt {
            path: "/run/frag-0000.bin".into(),
            detail: "frame checksum mismatch".into(),
        };
        assert!(e.to_string().contains("quarantined"));
        assert!(e.to_string().contains("/run/frag-0000.bin"));
        let e = MrError::ResumeMismatch {
            expected: 0xAB,
            found: 0xCD,
        };
        assert!(e.to_string().contains("0x00000000000000cd"));
        assert!(e.to_string().contains("refusing to resume"));
    }
}
