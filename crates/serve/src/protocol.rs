//! The daemon's frame protocol.
//!
//! Every message travels as one wire frame — the engine's own
//! `[len u32 LE][fnv1a u64 LE][payload]` layout
//! ([`papar_record::wire::encode_frame`]) — so the daemon reuses the
//! checksum and framing code the checkpoint manifests already trust,
//! and a corrupt or truncated message is *detected*, not mis-parsed.
//! The payload is a tag byte followed by the message's fields in the
//! wire crate's little-endian primitives; strings are length-prefixed
//! UTF-8. Decoding never panics: every malformed input comes back as
//! [`ServeError::BadFrame`].
//!
//! The protocol is strictly request/response over a byte stream (Unix
//! socket or TCP): the client writes one [`Request`] frame, the daemon
//! answers with one [`Response`] frame, repeat. No pipelining, no
//! interleaving — boring on purpose.

use crate::ServeError;
use papar_record::wire::{self, Reader};
use std::io::{Read, Write};

/// Protocol revision; bumped on any incompatible message change. The
/// daemon answers `Ping` with its version so mismatched clients fail
/// loudly at handshake rather than mysteriously mid-stream.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a single frame's payload. Requests and responses are
/// metadata (paths, tables), never bulk data — anything larger is a
/// corrupt length field, and honoring it would let one bad frame make
/// the daemon allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Where the daemon listens / the client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket at this filesystem path.
    Unix(std::path::PathBuf),
    /// A TCP listen/connect address, e.g. `127.0.0.1:7117`.
    Tcp(String),
}

impl Endpoint {
    /// Parse a `--socket` argument: `tcp:HOST:PORT` selects TCP,
    /// anything else is a Unix socket path.
    pub fn parse(s: &str) -> Endpoint {
        match s.strip_prefix("tcp:") {
            Some(addr) => Endpoint::Tcp(addr.to_string()),
            None => Endpoint::Unix(std::path::PathBuf::from(s)),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Everything a `papar submit` carries. Paths are sent as the client
/// resolved them (absolute for a remote daemon — the daemon reads them
/// from *its* filesystem).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobSpec {
    /// Path to the InputData configuration document.
    pub input_config: String,
    /// Path to the Workflow configuration document.
    pub workflow: String,
    /// Path to the input data file.
    pub data: String,
    /// Directory for the partition files.
    pub out_dir: String,
    /// Simulated cluster size.
    pub nodes: u32,
    /// Launch-time workflow arguments, duplicate-free (the CLI rejects
    /// duplicates before they get here), in the order given.
    pub args: Vec<(String, String)>,
    /// Read exactly this many records from a binary input (the
    /// `--records` flag).
    pub records: Option<u64>,
    /// Engine thread override for this job; `None` uses the daemon's
    /// validated startup budget. Never changes output bytes.
    pub threads: Option<u32>,
    /// Disable physical-plan fusion (`--no-fuse`).
    pub no_fuse: bool,
    /// Run the cost-based adaptive planner (`--adaptive`). Folded into
    /// the spec hash AND — via the decision's rationale — the plan
    /// fingerprint, so a data-file change re-plans instead of reusing a
    /// cached plan derived from stale statistics.
    pub adaptive: bool,
}

/// A job's lifecycle state, as reported to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStateKind {
    /// Waiting in the FIFO queue at this position (0 = next to run).
    Queued {
        /// Jobs ahead of this one.
        position: u32,
    },
    /// Currently executing on the resident cluster.
    Running,
    /// Finished; the report's detail holds the rendered summary.
    Done,
    /// Failed; the report's detail holds the error.
    Failed,
}

/// Whether a job's plan / dataset came out of the resident caches.
/// `Pending` until the job actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Not known yet (job still queued or running).
    Pending,
    /// Served from the resident cache.
    Hit,
    /// Compiled / loaded fresh and inserted.
    Miss,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheOutcome::Pending => write!(f, "pending"),
            CacheOutcome::Hit => write!(f, "hit"),
            CacheOutcome::Miss => write!(f, "miss"),
        }
    }
}

/// What `papar status <job-id>` (and a blocking `wait`) returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The daemon-issued job id.
    pub id: u64,
    /// Lifecycle state (with queue position while queued).
    pub state: JobStateKind,
    /// Rendered human-readable body: the run summary plus the profile
    /// table once done, the error once failed, empty before that.
    pub detail: String,
    /// The plan fingerprint ([`papar_core::exec::plan_fingerprint`])
    /// the job's plan-cache entry is keyed by; 0 until planned.
    pub plan_fingerprint: u64,
    /// Did the compiled plan come from the resident cache?
    pub plan_cache: CacheOutcome,
    /// Did the decoded input come from the resident cache?
    pub data_cache: CacheOutcome,
    /// Wall-clock milliseconds the job spent executing (0 until done).
    pub wall_ms: u64,
    /// Total simulated partitioning time in nanoseconds (0 until done).
    pub sim_ns: u64,
}

/// Daemon-wide counters, answered to `Ping`. The bench harness and CI
/// read these to prove work was actually elided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonStats {
    /// Jobs that reached `Done`.
    pub jobs_done: u64,
    /// Jobs that reached `Failed`.
    pub jobs_failed: u64,
    /// Compiled plans currently resident.
    pub plans_cached: u64,
    /// Plan-cache hits (plans *not* recompiled).
    pub plan_hits: u64,
    /// Plan-cache misses (plans compiled fresh).
    pub plan_misses: u64,
    /// Dataset-cache hits (input files *not* re-read).
    pub data_hits: u64,
    /// Dataset-cache misses.
    pub data_misses: u64,
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Health check; answered with `Pong` + [`DaemonStats`].
    Ping,
    /// Enqueue a job; answered with `Submitted` or `Err(QueueFull)`.
    Submit(JobSpec),
    /// One-shot state query; answered with `Job` or `Err(UnknownJob)`.
    Status {
        /// The job to report on.
        id: u64,
    },
    /// Block until the job leaves the queue/running states, then answer
    /// with its final `Job` report.
    Wait {
        /// The job to wait for.
        id: u64,
    },
    /// Drain the queue and exit; answered with `ShuttingDown`.
    Shutdown,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to `Ping`.
    Pong {
        /// The daemon's [`PROTOCOL_VERSION`].
        version: u8,
        /// Lifetime counters.
        stats: DaemonStats,
    },
    /// The job was admitted.
    Submitted {
        /// Daemon-issued id, for `status`/`wait`.
        id: u64,
        /// Jobs ahead of it at admission time.
        position: u32,
    },
    /// Answer to `Status`/`Wait`.
    Job(JobReport),
    /// Shutdown acknowledged; the daemon exits once the queue drains.
    ShuttingDown,
    /// The request failed; the typed reason.
    Err(ServeError),
}

// ---------------------------------------------------------------------
// Payload primitives. The wire crate's Reader supplies the fallible
// read side; the put_* helpers mirror its little-endian layout.
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(n) => {
            put_u8(out, 1);
            put_u64(out, n);
        }
        None => put_u8(out, 0),
    }
}

fn bad(detail: impl Into<String>) -> ServeError {
    ServeError::BadFrame {
        detail: detail.into(),
    }
}

fn get_u8(r: &mut Reader<'_>) -> Result<u8, ServeError> {
    r.read_u8().map_err(|e| bad(e.to_string()))
}

fn get_u32(r: &mut Reader<'_>) -> Result<u32, ServeError> {
    r.read_u32().map_err(|e| bad(e.to_string()))
}

fn get_u64(r: &mut Reader<'_>) -> Result<u64, ServeError> {
    r.read_u64().map_err(|e| bad(e.to_string()))
}

fn get_str(r: &mut Reader<'_>) -> Result<String, ServeError> {
    let len = get_u32(r)? as usize;
    if len > r.remaining() {
        return Err(bad(format!(
            "string length {len} exceeds the {} bytes left in the frame",
            r.remaining()
        )));
    }
    let bytes = r.read_bytes(len).map_err(|e| bad(e.to_string()))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad("string field is not UTF-8"))
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, ServeError> {
    match get_u8(r)? {
        0 => Ok(None),
        1 => Ok(Some(get_u64(r)?)),
        n => Err(bad(format!("option flag must be 0 or 1, got {n}"))),
    }
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, ServeError> {
    match get_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        n => Err(bad(format!("bool must be 0 or 1, got {n}"))),
    }
}

// ---------------------------------------------------------------------
// Message encodings.
// ---------------------------------------------------------------------

impl JobSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.input_config);
        put_str(out, &self.workflow);
        put_str(out, &self.data);
        put_str(out, &self.out_dir);
        put_u32(out, self.nodes);
        put_u32(out, self.args.len() as u32);
        for (k, v) in &self.args {
            put_str(out, k);
            put_str(out, v);
        }
        put_opt_u64(out, self.records);
        put_opt_u64(out, self.threads.map(u64::from));
        put_u8(out, self.no_fuse as u8);
        // Wire compatibility: new fields append last.
        put_u8(out, self.adaptive as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<JobSpec, ServeError> {
        let input_config = get_str(r)?;
        let workflow = get_str(r)?;
        let data = get_str(r)?;
        let out_dir = get_str(r)?;
        let nodes = get_u32(r)?;
        let n_args = get_u32(r)? as usize;
        // Each arg costs >= 8 bytes on the wire; a count that cannot fit
        // in the frame is a corrupt field, not a huge allocation.
        if n_args * 8 > r.remaining() {
            return Err(bad(format!(
                "arg count {n_args} exceeds the {} bytes left in the frame",
                r.remaining()
            )));
        }
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            let k = get_str(r)?;
            let v = get_str(r)?;
            args.push((k, v));
        }
        let records = get_opt_u64(r)?;
        let threads = match get_opt_u64(r)? {
            Some(t) => Some(
                u32::try_from(t).map_err(|_| bad(format!("thread override {t} out of range")))?,
            ),
            None => None,
        };
        let no_fuse = get_bool(r)?;
        let adaptive = get_bool(r)?;
        Ok(JobSpec {
            input_config,
            workflow,
            data,
            out_dir,
            nodes,
            args,
            records,
            threads,
            no_fuse,
            adaptive,
        })
    }
}

impl JobStateKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JobStateKind::Queued { position } => {
                put_u8(out, 0);
                put_u32(out, *position);
            }
            JobStateKind::Running => put_u8(out, 1),
            JobStateKind::Done => put_u8(out, 2),
            JobStateKind::Failed => put_u8(out, 3),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<JobStateKind, ServeError> {
        match get_u8(r)? {
            0 => Ok(JobStateKind::Queued {
                position: get_u32(r)?,
            }),
            1 => Ok(JobStateKind::Running),
            2 => Ok(JobStateKind::Done),
            3 => Ok(JobStateKind::Failed),
            n => Err(bad(format!("unknown job state tag {n}"))),
        }
    }
}

impl CacheOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(
            out,
            match self {
                CacheOutcome::Pending => 0,
                CacheOutcome::Hit => 1,
                CacheOutcome::Miss => 2,
            },
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<CacheOutcome, ServeError> {
        match get_u8(r)? {
            0 => Ok(CacheOutcome::Pending),
            1 => Ok(CacheOutcome::Hit),
            2 => Ok(CacheOutcome::Miss),
            n => Err(bad(format!("unknown cache outcome tag {n}"))),
        }
    }
}

impl JobReport {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        self.state.encode(out);
        put_str(out, &self.detail);
        put_u64(out, self.plan_fingerprint);
        self.plan_cache.encode(out);
        self.data_cache.encode(out);
        put_u64(out, self.wall_ms);
        put_u64(out, self.sim_ns);
    }

    fn decode(r: &mut Reader<'_>) -> Result<JobReport, ServeError> {
        Ok(JobReport {
            id: get_u64(r)?,
            state: JobStateKind::decode(r)?,
            detail: get_str(r)?,
            plan_fingerprint: get_u64(r)?,
            plan_cache: CacheOutcome::decode(r)?,
            data_cache: CacheOutcome::decode(r)?,
            wall_ms: get_u64(r)?,
            sim_ns: get_u64(r)?,
        })
    }
}

impl DaemonStats {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.jobs_done,
            self.jobs_failed,
            self.plans_cached,
            self.plan_hits,
            self.plan_misses,
            self.data_hits,
            self.data_misses,
        ] {
            put_u64(out, v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<DaemonStats, ServeError> {
        Ok(DaemonStats {
            jobs_done: get_u64(r)?,
            jobs_failed: get_u64(r)?,
            plans_cached: get_u64(r)?,
            plan_hits: get_u64(r)?,
            plan_misses: get_u64(r)?,
            data_hits: get_u64(r)?,
            data_misses: get_u64(r)?,
        })
    }
}

impl ServeError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeError::QueueFull { capacity } => {
                put_u8(out, 1);
                put_u64(out, *capacity as u64);
            }
            ServeError::UnknownJob { id } => {
                put_u8(out, 2);
                put_u64(out, *id);
            }
            ServeError::BadFrame { detail } => {
                put_u8(out, 3);
                put_str(out, detail);
            }
            ServeError::ShuttingDown => put_u8(out, 4),
            ServeError::Io { detail } => {
                put_u8(out, 5);
                put_str(out, detail);
            }
            ServeError::Rejected { detail } => {
                put_u8(out, 6);
                put_str(out, detail);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<ServeError, ServeError> {
        match get_u8(r)? {
            1 => Ok(ServeError::QueueFull {
                capacity: get_u64(r)? as usize,
            }),
            2 => Ok(ServeError::UnknownJob { id: get_u64(r)? }),
            3 => Ok(ServeError::BadFrame {
                detail: get_str(r)?,
            }),
            4 => Ok(ServeError::ShuttingDown),
            5 => Ok(ServeError::Io {
                detail: get_str(r)?,
            }),
            6 => Ok(ServeError::Rejected {
                detail: get_str(r)?,
            }),
            n => Err(bad(format!("unknown error tag {n}"))),
        }
    }
}

impl Request {
    /// Serialize into a frame payload (tag + fields, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => put_u8(&mut out, 1),
            Request::Submit(spec) => {
                put_u8(&mut out, 2);
                spec.encode(&mut out);
            }
            Request::Status { id } => {
                put_u8(&mut out, 3);
                put_u64(&mut out, *id);
            }
            Request::Wait { id } => {
                put_u8(&mut out, 4);
                put_u64(&mut out, *id);
            }
            Request::Shutdown => put_u8(&mut out, 5),
        }
        out
    }

    /// Parse a frame payload. Trailing garbage after a well-formed
    /// message is a framing bug on the peer and is rejected.
    pub fn decode(payload: &[u8]) -> Result<Request, ServeError> {
        let mut r = Reader::new(payload);
        let req = match get_u8(&mut r)? {
            1 => Request::Ping,
            2 => Request::Submit(JobSpec::decode(&mut r)?),
            3 => Request::Status {
                id: get_u64(&mut r)?,
            },
            4 => Request::Wait {
                id: get_u64(&mut r)?,
            },
            5 => Request::Shutdown,
            n => return Err(bad(format!("unknown request tag {n}"))),
        };
        if r.remaining() != 0 {
            return Err(bad(format!(
                "{} trailing bytes after request",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

impl Response {
    /// Serialize into a frame payload (tag + fields, no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong { version, stats } => {
                put_u8(&mut out, 1);
                put_u8(&mut out, *version);
                stats.encode(&mut out);
            }
            Response::Submitted { id, position } => {
                put_u8(&mut out, 2);
                put_u64(&mut out, *id);
                put_u32(&mut out, *position);
            }
            Response::Job(report) => {
                put_u8(&mut out, 3);
                report.encode(&mut out);
            }
            Response::ShuttingDown => put_u8(&mut out, 4),
            Response::Err(e) => {
                put_u8(&mut out, 5);
                e.encode(&mut out);
            }
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ServeError> {
        let mut r = Reader::new(payload);
        let resp = match get_u8(&mut r)? {
            1 => Response::Pong {
                version: get_u8(&mut r)?,
                stats: DaemonStats::decode(&mut r)?,
            },
            2 => Response::Submitted {
                id: get_u64(&mut r)?,
                position: get_u32(&mut r)?,
            },
            3 => Response::Job(JobReport::decode(&mut r)?),
            4 => Response::ShuttingDown,
            5 => Response::Err(ServeError::decode(&mut r)?),
            n => return Err(bad(format!("unknown response tag {n}"))),
        };
        if r.remaining() != 0 {
            return Err(bad(format!(
                "{} trailing bytes after response",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Stream framing.
// ---------------------------------------------------------------------

/// Write one `[len][checksum][payload]` frame to the stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    wire::encode_frame(payload, &mut frame).map_err(|e| ServeError::BadFrame {
        detail: e.to_string(),
    })?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame from the stream and return its verified payload.
/// `Ok(None)` is a clean end-of-stream (the peer closed between
/// frames); EOF *inside* a frame, an oversized length, or a checksum
/// mismatch is a [`ServeError::BadFrame`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    let mut header = [0u8; 12];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(bad(format!(
                    "stream closed {filled} bytes into a 12-byte frame header"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let expect = u64::from_le_bytes(header[4..12].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(bad(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            bad(format!("stream closed inside a {len}-byte frame payload"))
        } else {
            e.into()
        });
    }
    let got = wire::checksum(&payload);
    if got != expect {
        return Err(bad(format!(
            "frame checksum mismatch: header says {expect:#018x}, payload hashes to {got:#018x}"
        )));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            input_config: "cfg.xml".into(),
            workflow: "wf.xml".into(),
            data: "/data/env_nr.db".into(),
            out_dir: "/tmp/out".into(),
            nodes: 8,
            args: vec![("num_partitions".into(), "16".into())],
            records: Some(500),
            threads: Some(4),
            no_fuse: false,
            adaptive: true,
        }
    }

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Ping,
            Request::Submit(spec()),
            Request::Status { id: 7 },
            Request::Wait { id: u64::MAX },
            Request::Shutdown,
        ] {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::Pong {
                version: PROTOCOL_VERSION,
                stats: DaemonStats {
                    jobs_done: 3,
                    plan_hits: 2,
                    ..Default::default()
                },
            },
            Response::Submitted { id: 1, position: 0 },
            Response::Job(JobReport {
                id: 1,
                state: JobStateKind::Queued { position: 2 },
                detail: String::new(),
                plan_fingerprint: 0xDEAD_BEEF,
                plan_cache: CacheOutcome::Pending,
                data_cache: CacheOutcome::Pending,
                wall_ms: 0,
                sim_ns: 0,
            }),
            Response::ShuttingDown,
            Response::Err(ServeError::QueueFull { capacity: 4 }),
            Response::Err(ServeError::ShuttingDown),
            Response::Err(ServeError::Rejected {
                detail: "nope".into(),
            }),
        ] {
            let payload = resp.encode();
            assert_eq!(Response::decode(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(ServeError::BadFrame { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_a_typed_error() {
        let payload = Request::Submit(spec()).encode();
        let mut frame = Vec::new();
        wire::encode_frame(&payload, &mut frame).unwrap();
        for cut in [0, 3, 11, 12, frame.len() - 1] {
            let mut cursor = std::io::Cursor::new(&frame[..cut]);
            match read_frame(&mut cursor) {
                Ok(None) if cut == 0 => {}
                Err(ServeError::BadFrame { .. }) => {}
                other => panic!("cut at {cut}: expected BadFrame, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_payload_fails_the_checksum() {
        let payload = Request::Status { id: 9 }.encode();
        let mut frame = Vec::new();
        wire::encode_frame(&payload, &mut frame).unwrap();
        *frame.last_mut().unwrap() ^= 0x40;
        let mut cursor = std::io::Cursor::new(frame);
        match read_frame(&mut cursor) {
            Err(ServeError::BadFrame { detail }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_refused_without_allocating() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        let mut cursor = std::io::Cursor::new(frame);
        match read_frame(&mut cursor) {
            Err(ServeError::BadFrame { detail }) => assert!(detail.contains("limit"), "{detail}"),
            other => panic!("expected length rejection, got {other:?}"),
        }
    }
}
