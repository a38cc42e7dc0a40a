//! `papar serve`: the resident partitioning daemon.
//!
//! A one-shot `papar run` pays the whole pipeline — parse the XML
//! documents, bind and verify the plan, read and decode the input file —
//! for every invocation, even when a workload submits the *same*
//! workflow over the *same* data dozens of times (parameter sweeps, the
//! paper's figure reproductions, downstream services partitioning on
//! demand). This crate keeps all of that resident:
//!
//! * a daemon ([`server::Server`]) listens on a Unix or TCP socket and
//!   speaks a hand-rolled length-prefixed frame protocol
//!   ([`protocol`]) built on the same `[len][fnv1a][payload]` frames
//!   and FNV-1a checksums the engine's wire format already uses — the
//!   repo stays dependency-free;
//! * compiled [`papar_core::plan::WorkflowPlan`]s (and their lowered
//!   physical plans) live in an LRU cache keyed by the *plan
//!   fingerprint* ([`papar_core::exec::plan_fingerprint_with`]), decoded
//!   input files in a second LRU keyed by path + size + mtime
//!   ([`cache`]);
//! * requests run through the same stage functions as `papar run`
//!   ([`job`]: load, compile, run, emit — this crate is their one home,
//!   and `crates/cli` calls them too) on one resident
//!   [`papar_mr::Cluster`] that is [`papar_mr::Cluster::reset`] between
//!   jobs — same code, same output bytes as `papar run`;
//! * concurrent clients enqueue into a bounded FIFO job queue
//!   ([`queue`]) with per-job ids and `queued/running/done/failed`
//!   states; at capacity, admission control answers a typed
//!   [`ServeError::QueueFull`] instead of blocking or dropping;
//! * each request captures a `papar-trace` span tree, so
//!   `papar status <job-id>` can return the completed job's stats and
//!   profile table (or its live queue position).
//!
//! The client half ([`client::Client`]) backs `papar submit` /
//! `papar status` and is what the tests drive.

pub mod cache;
pub mod client;
pub mod job;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::Client;
pub use protocol::{Endpoint, JobReport, JobSpec, JobStateKind, Request, Response};
pub use server::{ServeOptions, Server};

/// Everything that can go wrong between a client and the daemon. Typed,
/// so callers can branch on admission control and protocol faults
/// without parsing message strings; the daemon itself never panics and
/// never silently drops a request — every failure travels back as one
/// of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The job queue is at capacity; the submit was refused at
    /// admission. Resubmit after a job drains.
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// `status`/`wait` named a job id this daemon has never issued.
    UnknownJob {
        /// The id the client asked about.
        id: u64,
    },
    /// A frame failed to decode: short header, oversized length,
    /// truncated payload, checksum mismatch, or an unknown message tag.
    BadFrame {
        /// What exactly was wrong.
        detail: String,
    },
    /// The daemon is shutting down and no longer admits work.
    ShuttingDown,
    /// Socket-level failure (connect, read, write, bind).
    Io {
        /// Rendered `std::io::Error`.
        detail: String,
    },
    /// The request was well-formed but unservable (bad spec fields,
    /// startup misconfiguration such as a malformed `PAPAR_THREADS`).
    Rejected {
        /// What was wrong with the request.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => write!(
                f,
                "job queue is full ({capacity} jobs); retry after one drains"
            ),
            ServeError::UnknownJob { id } => write!(f, "no such job: {id}"),
            ServeError::BadFrame { detail } => write!(f, "bad frame: {detail}"),
            ServeError::ShuttingDown => write!(f, "daemon is shutting down"),
            ServeError::Io { detail } => write!(f, "socket error: {detail}"),
            ServeError::Rejected { detail } => write!(f, "request rejected: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io {
            detail: e.to_string(),
        }
    }
}
