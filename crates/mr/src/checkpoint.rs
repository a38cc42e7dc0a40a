//! Crash-consistent workflow checkpointing: a durable run directory that
//! `papar run --checkpoint <dir>` writes and `--resume <dir>` recovers
//! from, byte-identically to an uninterrupted run.
//!
//! ## Run-directory layout
//!
//! ```text
//! <dir>/
//!   MANIFEST                                   write-ahead commit log
//!   frag-<stage>-<dshash>-<node>-<ord>.bin     one published fragment
//!   *.quarantine                               corrupt data renamed aside
//! ```
//!
//! The MANIFEST is a sequence of [`papar_record::wire::encode_frame`]
//! frames — the same `[len u32][fnv1a u64][payload]` framing shuffle
//! transfers use — so a torn tail (the process was killed mid-append) is
//! detected by the frame checksum and the intact prefix stays usable.
//! Frame payloads:
//!
//! * tag 1, **header**: format version and the run's plan/input/config
//!   fingerprint. Resume refuses a manifest whose fingerprint differs.
//! * tag 2, **stage commit**: the stage index and id, the stage's
//!   [`JobStats`], and one entry per published fragment (dataset, node,
//!   ordinal, file name, payload FNV-1a, payload length).
//!
//! ## Commit protocol
//!
//! A stage's fragments are published write-ahead, concurrently on the
//! session's thread budget: each task hashes its payload once, writes the
//! frame header and the payload to a `.tmp` file, fsyncs it and renames it
//! into place. Once every rename is done the directory is fsynced, once;
//! only then is the stage-commit record appended to the MANIFEST and
//! fsynced. A crash at any point leaves either a manifest without the
//! commit (the stage re-executes; orphan fragment files are overwritten)
//! or a complete committed stage — never a half-trusted one. The entries
//! of a commit record keep staging order whatever the thread count, so
//! fragment files and manifest bytes do not depend on it.
//!
//! ## Verify-on-load and quarantine
//!
//! [`CheckpointSession::resume`] re-reads and re-checksums every committed
//! fragment before the run starts. The first corrupt or missing file
//! quarantines the evidence (renamed to `*.quarantine`), truncates the
//! committed prefix to the stages before it, and rewrites the MANIFEST to
//! that intact prefix — the affected stages recompute from the nearest
//! intact upstream stage instead of silently reusing bad bytes. Each
//! quarantine is surfaced as a typed [`MrError::CheckpointCorrupt`] in
//! [`CheckpointSession::corruption_events`].

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use papar_record::wire::{self, Reader};

use crate::engine::run_slots;
use crate::stats::{ExchangeStats, HotPathStats, JobStats, RecoveryStats};
use crate::{MrError, Result};

/// Name of the write-ahead commit log inside a checkpoint directory.
pub const MANIFEST: &str = "MANIFEST";

const VERSION: u32 = 2;
const TAG_HEADER: u8 = 1;
const TAG_STAGE: u8 = 2;

/// One fragment published by a committed stage.
#[derive(Debug, Clone)]
pub struct FragmentEntry {
    /// Workflow dataset the fragment belongs to.
    pub dataset: String,
    /// Node the fragment lives on (primary placement).
    pub node: u32,
    /// Fragment ordinal within the dataset.
    pub ordinal: u32,
    /// File name inside the checkpoint directory.
    pub file: String,
    /// FNV-1a of the payload, as stored in the manifest.
    pub checksum: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// The verified payload, loaded by [`CheckpointSession::resume`];
    /// `None` on the writing side.
    pub payload: Option<Vec<u8>>,
}

/// One committed stage, as recorded in the manifest.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Position of the stage in the physical plan.
    pub index: u32,
    /// The stage's id (diagnostic only; the fingerprint already pins the
    /// plan).
    pub stage_id: String,
    /// The stats the stage reported when it first ran, replayed into the
    /// resumed run's report so totals match a cold run.
    pub stats: JobStats,
    /// Published fragments, in publication order.
    pub fragments: Vec<FragmentEntry>,
}

/// A checkpoint run directory, open for writing (`create`) or validated
/// for reuse (`resume`).
#[derive(Debug)]
pub struct CheckpointSession {
    dir: PathBuf,
    fingerprint: u64,
    completed: Vec<StageRecord>,
    /// Fragments staged for the next [`commit_stage`] call.
    ///
    /// [`commit_stage`]: CheckpointSession::commit_stage
    pending: Vec<(String, u32, u32, Vec<u8>)>,
    corruption: Vec<MrError>,
    /// OS threads publishing a stage's fragments may use.
    threads: usize,
}

fn io_err(path: &Path, what: &str, e: std::io::Error) -> MrError {
    MrError::msg(format!("checkpoint {what} '{}': {e}", path.display()))
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_duration(buf: &mut Vec<u8>, d: Duration) {
    put_u64(buf, d.as_nanos().min(u64::MAX as u128) as u64);
}

fn read_str(r: &mut Reader<'_>) -> Result<String> {
    let len = r.read_u32()? as usize;
    let bytes = r.read_bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| MrError::msg("manifest string is not UTF-8"))
}

fn read_duration(r: &mut Reader<'_>) -> Result<Duration> {
    Ok(Duration::from_nanos(r.read_u64()?))
}

fn put_u64_vec(buf: &mut Vec<u8>, v: &[u64]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        put_u64(buf, x);
    }
}

fn read_u64_vec(r: &mut Reader<'_>) -> Result<Vec<u64>> {
    let n = r.read_u32()? as usize;
    wire::check_count(r, n, 8, "manifest vector")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.read_u64()?);
    }
    Ok(out)
}

fn put_duration_vec(buf: &mut Vec<u8>, v: &[Duration]) {
    put_u32(buf, v.len() as u32);
    for &d in v {
        put_duration(buf, d);
    }
}

fn read_duration_vec(r: &mut Reader<'_>) -> Result<Vec<Duration>> {
    let n = r.read_u32()? as usize;
    wire::check_count(r, n, 8, "manifest vector")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_duration(r)?);
    }
    Ok(out)
}

/// Serialize a stage's [`JobStats`] into a manifest payload. Durations are
/// stored as u64 nanoseconds; the replayed stats of a resumed run thus
/// reproduce the original run's report exactly (to the nanosecond).
fn encode_stats(stats: &JobStats, buf: &mut Vec<u8>) {
    put_str(buf, &stats.name);
    put_duration_vec(buf, &stats.map_time_by_node);
    put_duration_vec(buf, &stats.reduce_time_by_node);
    put_u64(buf, stats.exchange.remote_bytes);
    put_u64(buf, stats.exchange.remote_messages);
    put_u64_vec(buf, &stats.exchange.sent_by_node);
    put_u64_vec(buf, &stats.exchange.recv_by_node);
    put_duration(buf, stats.comm_time);
    put_u64(buf, stats.records_in);
    put_u64(buf, stats.pairs_shuffled);
    put_u64(buf, stats.records_out);
    let rec = &stats.recovery;
    put_u32(buf, rec.faults_injected);
    put_u32(buf, rec.tasks_retried);
    put_duration(buf, rec.reexec_task_time);
    put_duration(buf, rec.backoff_time);
    put_u64(buf, rec.replication_bytes);
    put_u64(buf, rec.replication_messages);
    put_u64(buf, rec.restore_bytes);
    put_u64(buf, rec.restore_messages);
    put_u64(buf, rec.retransmit_bytes);
    put_u64(buf, rec.retransmit_messages);
    put_duration(buf, rec.comm_time);
    put_u64(buf, stats.hot.staged_bytes);
    put_u64(buf, stats.hot.staged_allocs);
    put_u64(buf, stats.hot.materialized_bytes);
    put_u64(buf, stats.hot.tie_pairs);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<JobStats> {
    Ok(JobStats {
        name: read_str(r)?,
        map_time_by_node: read_duration_vec(r)?,
        reduce_time_by_node: read_duration_vec(r)?,
        exchange: ExchangeStats {
            remote_bytes: r.read_u64()?,
            remote_messages: r.read_u64()?,
            sent_by_node: read_u64_vec(r)?,
            recv_by_node: read_u64_vec(r)?,
        },
        comm_time: read_duration(r)?,
        records_in: r.read_u64()?,
        pairs_shuffled: r.read_u64()?,
        records_out: r.read_u64()?,
        recovery: RecoveryStats {
            faults_injected: r.read_u32()?,
            tasks_retried: r.read_u32()?,
            reexec_task_time: read_duration(r)?,
            backoff_time: read_duration(r)?,
            replication_bytes: r.read_u64()?,
            replication_messages: r.read_u64()?,
            restore_bytes: r.read_u64()?,
            restore_messages: r.read_u64()?,
            retransmit_bytes: r.read_u64()?,
            retransmit_messages: r.read_u64()?,
            comm_time: read_duration(r)?,
        },
        hot: HotPathStats {
            staged_bytes: r.read_u64()?,
            staged_allocs: r.read_u64()?,
            materialized_bytes: r.read_u64()?,
            tie_pairs: r.read_u64()?,
        },
    })
}

/// Dataset names contain `/`; fragment files flatten them to an FNV-1a
/// hash so every (stage, dataset, node, ordinal) gets a distinct flat
/// file name.
fn fragment_file(stage: u32, dataset: &str, node: u32, ordinal: u32) -> String {
    format!(
        "frag-{stage:04}-{:016x}-{node:04}-{ordinal:04}.bin",
        wire::checksum(dataset.as_bytes())
    )
}

fn fsync_dir(dir: &Path) -> Result<()> {
    // Durability of a rename needs the directory entry flushed too.
    let d = File::open(dir).map_err(|e| io_err(dir, "open dir", e))?;
    d.sync_all().map_err(|e| io_err(dir, "fsync dir", e))
}

/// Write `parts` back to back to a `.tmp` file, fsync it, and rename it
/// to `path`. The rename is durable once the directory is fsynced.
fn write_renamed(path: &Path, parts: &[&[u8]]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, "create", e))?;
    for part in parts {
        f.write_all(part).map_err(|e| io_err(&tmp, "write", e))?;
    }
    f.sync_all().map_err(|e| io_err(&tmp, "fsync", e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, "rename into", e))
}

fn write_durable(path: &Path, bytes: &[u8]) -> Result<()> {
    write_renamed(path, &[bytes])?;
    fsync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// Publish one staged fragment of stage `stage` into `dir`: its payload is
/// hashed once, for the frame header and the manifest entry alike, and
/// written after the header without being copied into a frame.
fn publish_fragment(
    dir: &Path,
    stage: u32,
    (dataset, node, ordinal, payload): &(String, u32, u32, Vec<u8>),
) -> Result<FragmentEntry> {
    let file = fragment_file(stage, dataset, *node, *ordinal);
    let checksum = wire::checksum(payload);
    let header = wire::frame_header(payload.len(), checksum)?;
    write_renamed(&dir.join(&file), &[&header, payload])?;
    Ok(FragmentEntry {
        dataset: dataset.clone(),
        node: *node,
        ordinal: *ordinal,
        file,
        checksum,
        len: payload.len() as u64,
        payload: None,
    })
}

impl CheckpointSession {
    /// Start a fresh checkpoint: create the directory, drop any stale
    /// manifest or fragment files from a previous run, and durably write
    /// the header frame.
    pub fn create(dir: &Path, fingerprint: u64) -> Result<Self> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, "create dir", e))?;
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name == MANIFEST || name.starts_with("frag-") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let mut buf = Vec::new();
        let mut payload = vec![TAG_HEADER];
        put_u32(&mut payload, VERSION);
        put_u64(&mut payload, fingerprint);
        wire::encode_frame(&payload, &mut buf)?;
        write_durable(&dir.join(MANIFEST), &buf)?;
        Ok(CheckpointSession {
            dir: dir.to_path_buf(),
            fingerprint,
            completed: Vec::new(),
            pending: Vec::new(),
            corruption: Vec::new(),
            threads: 1,
        })
    }

    /// Open an existing checkpoint for resumption: parse the manifest up
    /// to its last intact frame, refuse on a fingerprint mismatch, then
    /// verify every committed fragment's checksum. Corrupt or missing
    /// data is quarantined and the committed prefix truncated (the run
    /// recomputes from there); each incident lands in
    /// [`corruption_events`](CheckpointSession::corruption_events).
    pub fn resume(dir: &Path, fingerprint: u64) -> Result<Self> {
        let manifest_path = dir.join(MANIFEST);
        let bytes = fs::read(&manifest_path).map_err(|e| io_err(&manifest_path, "read", e))?;
        let mut r = Reader::new(&bytes);
        let found = read_header(&mut r)?;
        if found != fingerprint {
            return Err(MrError::ResumeMismatch {
                expected: fingerprint,
                found,
            });
        }

        // Stage-commit frames: stop at the first torn or corrupt frame —
        // everything after a bad frame is untrustworthy by construction.
        let mut completed: Vec<StageRecord> = Vec::new();
        let mut corruption: Vec<MrError> = Vec::new();
        let mut tail_torn = false;
        while r.remaining() > 0 {
            let payload = match wire::decode_frame(&mut r) {
                Ok(p) => p,
                Err(e) => {
                    corruption.push(MrError::CheckpointCorrupt {
                        path: manifest_path.display().to_string(),
                        detail: format!("manifest tail discarded: {e}"),
                    });
                    tail_torn = true;
                    break;
                }
            };
            match decode_stage_record(payload) {
                Ok(rec) if rec.index as usize == completed.len() => completed.push(rec),
                Ok(rec) => {
                    corruption.push(MrError::CheckpointCorrupt {
                        path: manifest_path.display().to_string(),
                        detail: format!(
                            "stage commit out of order: expected index {}, found {}",
                            completed.len(),
                            rec.index
                        ),
                    });
                    tail_torn = true;
                    break;
                }
                Err(e) => {
                    corruption.push(MrError::CheckpointCorrupt {
                        path: manifest_path.display().to_string(),
                        detail: format!("undecodable stage commit: {e}"),
                    });
                    tail_torn = true;
                    break;
                }
            }
        }

        // Verify-on-load: re-read and re-checksum every committed
        // fragment in stage order. The first failure quarantines the
        // file and invalidates its stage and everything downstream.
        'verify: for s in 0..completed.len() {
            for f in 0..completed[s].fragments.len() {
                let entry = &completed[s].fragments[f];
                let path = dir.join(&entry.file);
                let payload = match verify_fragment(&path, entry) {
                    Ok(p) => p,
                    Err(e) => {
                        quarantine(&path);
                        corruption.push(e);
                        completed.truncate(s);
                        tail_torn = true;
                        break 'verify;
                    }
                };
                completed[s].fragments[f].payload = Some(payload);
            }
        }

        let session = CheckpointSession {
            dir: dir.to_path_buf(),
            fingerprint,
            completed,
            pending: Vec::new(),
            corruption,
            threads: 1,
        };
        if tail_torn {
            // Rewrite the manifest to the intact prefix so the commits
            // this resumed run appends land right after it.
            session.rewrite_manifest()?;
        }
        Ok(session)
    }

    /// Publish each stage's fragments on up to `threads` OS threads (1,
    /// the default, publishes them one after another). The files and the
    /// manifest are the same at every count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The fingerprint the checkpoint in `dir` was created with: what
    /// [`resume`](CheckpointSession::resume) must be given to reopen it.
    pub fn fingerprint_of(dir: &Path) -> Result<u64> {
        let path = dir.join(MANIFEST);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, "read", e))?;
        read_header(&mut Reader::new(&bytes))
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fingerprint this session was opened with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Committed stages, in plan order (a contiguous, verified prefix).
    pub fn completed(&self) -> &[StageRecord] {
        &self.completed
    }

    /// Whether the stage at `index` is committed and verified.
    pub fn is_complete(&self, index: usize) -> bool {
        index < self.completed.len()
    }

    /// Corruption incidents observed while loading (empty on a clean
    /// resume). Each describes a quarantined file or discarded manifest
    /// tail; the affected stages recompute.
    pub fn corruption_events(&self) -> &[MrError] {
        &self.corruption
    }

    /// Stage a fragment payload for the next [`commit_stage`] call.
    ///
    /// [`commit_stage`]: CheckpointSession::commit_stage
    pub fn stage_fragment(&mut self, dataset: &str, node: u32, ordinal: u32, payload: Vec<u8>) {
        self.pending
            .push((dataset.to_string(), node, ordinal, payload));
    }

    /// Durably publish the staged fragments and append the stage-commit
    /// record: the fragments are framed, written to temp files, fsynced
    /// and renamed into place (concurrently, see
    /// [`with_threads`](CheckpointSession::with_threads)), the directory
    /// fsynced once, and only then the commit appended to the manifest and
    /// fsynced. Returns the bytes written (fragment files plus manifest
    /// record). A failure reports the first failing fragment in staging
    /// order. A kill at any point leaves the previous commit as the
    /// recoverable frontier.
    pub fn commit_stage(&mut self, index: u32, stage_id: &str, stats: &JobStats) -> Result<u64> {
        let pending = std::mem::take(&mut self.pending);
        let fragments = run_slots(pending.len(), self.threads, |i| {
            publish_fragment(&self.dir, index, &pending[i])
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        drop(pending);
        fsync_dir(&self.dir)?;
        let mut bytes_written: u64 = (fragments.iter())
            .map(|f| (wire::FRAME_HEADER_LEN as u64) + f.len)
            .sum();

        // Test hook: hold the window between fragment publication and the
        // manifest commit open so an external kill harness can SIGKILL the
        // process inside it deterministically.
        if let Ok(ms) = std::env::var("PAPAR_CHECKPOINT_STALL_MS") {
            if let Ok(ms) = ms.parse::<u64>() {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }

        let record = StageRecord {
            index,
            stage_id: stage_id.to_string(),
            stats: stats.clone(),
            fragments,
        };
        let mut framed = Vec::new();
        wire::encode_frame(&encode_stage_record(&record), &mut framed)?;
        bytes_written += framed.len() as u64;
        let manifest_path = self.dir.join(MANIFEST);
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&manifest_path)
            .map_err(|e| io_err(&manifest_path, "open for append", e))?;
        f.write_all(&framed)
            .map_err(|e| io_err(&manifest_path, "append to", e))?;
        f.sync_all()
            .map_err(|e| io_err(&manifest_path, "fsync", e))?;
        self.completed.push(record);
        Ok(bytes_written)
    }

    /// Rewrite the manifest to exactly the current committed prefix
    /// (header + intact stage commits), atomically.
    fn rewrite_manifest(&self) -> Result<()> {
        let mut buf = Vec::new();
        let mut payload = vec![TAG_HEADER];
        put_u32(&mut payload, VERSION);
        put_u64(&mut payload, self.fingerprint);
        wire::encode_frame(&payload, &mut buf)?;
        for rec in &self.completed {
            wire::encode_frame(&encode_stage_record(rec), &mut buf)?;
        }
        write_durable(&self.dir.join(MANIFEST), &buf)
    }
}

/// The manifest's header frame: its fingerprint, once the frame and the
/// format version check out. Anything wrong here means no stage can be
/// trusted.
fn read_header(r: &mut Reader<'_>) -> Result<u64> {
    let header = wire::decode_frame(r)
        .map_err(|e| MrError::msg(format!("checkpoint manifest header unreadable: {e}")))?;
    let mut hr = Reader::new(header);
    if hr.read_u8().ok() != Some(TAG_HEADER) {
        return Err(MrError::msg(
            "checkpoint manifest does not start with a header record",
        ));
    }
    let version = hr.read_u32().map_err(MrError::Codec)?;
    if version != VERSION {
        return Err(MrError::msg(format!(
            "checkpoint format version {version} is not supported (expected {VERSION})"
        )));
    }
    hr.read_u64().map_err(MrError::Codec)
}

/// Rename a corrupt file aside as evidence instead of deleting it.
fn quarantine(path: &Path) {
    let mut q = path.as_os_str().to_owned();
    q.push(".quarantine");
    let _ = fs::rename(path, PathBuf::from(q));
}

/// Read one fragment file and verify its frame and manifest checksums.
fn verify_fragment(path: &Path, entry: &FragmentEntry) -> Result<Vec<u8>> {
    let corrupt = |detail: String| MrError::CheckpointCorrupt {
        path: path.display().to_string(),
        detail,
    };
    let bytes = fs::read(path).map_err(|e| corrupt(format!("unreadable: {e}")))?;
    let mut r = Reader::new(&bytes);
    let payload = wire::decode_frame(&mut r).map_err(|e| corrupt(e.to_string()))?;
    if payload.len() as u64 != entry.len {
        return Err(corrupt(format!(
            "length {} does not match the manifest's {}",
            payload.len(),
            entry.len
        )));
    }
    let got = wire::checksum(payload);
    if got != entry.checksum {
        return Err(corrupt(format!(
            "payload checksum {got:#018x} does not match the manifest's {:#018x}",
            entry.checksum
        )));
    }
    if r.remaining() > 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the frame",
            r.remaining()
        )));
    }
    Ok(payload.to_vec())
}

fn encode_stage_record(rec: &StageRecord) -> Vec<u8> {
    let mut buf = vec![TAG_STAGE];
    put_u32(&mut buf, rec.index);
    put_str(&mut buf, &rec.stage_id);
    encode_stats(&rec.stats, &mut buf);
    put_u32(&mut buf, rec.fragments.len() as u32);
    for f in &rec.fragments {
        put_str(&mut buf, &f.dataset);
        put_u32(&mut buf, f.node);
        put_u32(&mut buf, f.ordinal);
        put_str(&mut buf, &f.file);
        put_u64(&mut buf, f.checksum);
        put_u64(&mut buf, f.len);
    }
    buf
}

fn decode_stage_record(payload: &[u8]) -> Result<StageRecord> {
    let mut r = Reader::new(payload);
    if r.read_u8()? != TAG_STAGE {
        return Err(MrError::msg("expected a stage-commit record"));
    }
    let index = r.read_u32()?;
    let stage_id = read_str(&mut r)?;
    let stats = decode_stats(&mut r)?;
    let n = r.read_u32()? as usize;
    // An entry is two length-prefixed strings, node, ordinal, checksum
    // and length: at least 32 bytes.
    wire::check_count(&r, n, 32, "manifest fragment")?;
    let mut fragments = Vec::with_capacity(n);
    for _ in 0..n {
        fragments.push(FragmentEntry {
            dataset: read_str(&mut r)?,
            node: r.read_u32()?,
            ordinal: r.read_u32()?,
            file: read_str(&mut r)?,
            checksum: r.read_u64()?,
            len: r.read_u64()?,
            payload: None,
        });
    }
    Ok(StageRecord {
        index,
        stage_id,
        stats,
        fragments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("papar-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_stats(name: &str) -> JobStats {
        JobStats {
            name: name.into(),
            map_time_by_node: vec![Duration::from_nanos(7), Duration::from_nanos(9)],
            reduce_time_by_node: vec![Duration::from_nanos(3)],
            comm_time: Duration::from_nanos(11),
            records_in: 100,
            pairs_shuffled: 90,
            records_out: 80,
            exchange: ExchangeStats {
                remote_bytes: 4096,
                remote_messages: 6,
                sent_by_node: vec![2048, 2048],
                recv_by_node: vec![1024, 3072],
            },
            recovery: RecoveryStats {
                faults_injected: 1,
                tasks_retried: 1,
                restore_bytes: 256,
                restore_messages: 2,
                ..Default::default()
            },
            hot: HotPathStats {
                staged_bytes: 512,
                staged_allocs: 12,
                materialized_bytes: 400,
                tie_pairs: 3,
            },
        }
    }

    fn assert_stats_eq(a: &JobStats, b: &JobStats) {
        // JobStats has no PartialEq; its Debug output covers every field.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn stats_roundtrip_through_manifest_encoding() {
        let stats = sample_stats("sort");
        let mut buf = Vec::new();
        encode_stats(&stats, &mut buf);
        let back = decode_stats(&mut Reader::new(&buf)).unwrap();
        assert_stats_eq(&stats, &back);
    }

    /// Five bytes whose count claims 2^32 - 256 items.
    const FIVE: [u8; 5] = [0, 0xff, 0xff, 0xff, 0xff];

    #[test]
    fn manifest_vectors_refuse_a_count_the_bytes_cannot_hold() {
        for r in [&FIVE[..], &FIVE[1..]] {
            let err = read_u64_vec(&mut Reader::new(r)).unwrap_err();
            assert!(err.to_string().contains("manifest vector count"), "{err}");
            let err = read_duration_vec(&mut Reader::new(r)).unwrap_err();
            assert!(err.to_string().contains("manifest vector count"), "{err}");
        }
    }

    #[test]
    fn a_stage_record_refuses_a_fragment_count_the_bytes_cannot_hold() {
        assert!(decode_stage_record(&FIVE).is_err());
        // A well-formed record whose fragment count is patched to 2^32 - 1.
        let rec = StageRecord {
            index: 0,
            stage_id: "s".into(),
            stats: sample_stats("s"),
            fragments: Vec::new(),
        };
        let mut bytes = encode_stage_record(&rec);
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_stage_record(&bytes).unwrap_err();
        assert!(err.to_string().contains("manifest fragment count"), "{err}");
    }

    fn stage_record(fragments: u32) -> StageRecord {
        StageRecord {
            index: 3,
            stage_id: "sort+distr".into(),
            stats: sample_stats("sort+distr"),
            fragments: (0..fragments)
                .map(|i| FragmentEntry {
                    dataset: format!("/out/{i}"),
                    node: i % 4,
                    ordinal: i,
                    file: fragment_file(3, "/out", i % 4, i),
                    checksum: u64::from(i) * 0x9e37,
                    len: u64::from(i) + 16,
                    payload: None,
                })
                .collect(),
        }
    }

    proptest! {
        /// Arbitrary bytes through the stage-record decoder: a record or a
        /// typed error, never a panic or an abort.
        #[test]
        fn stage_records_decode_arbitrary_bytes_totally(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
            tagged in any::<bool>(),
        ) {
            let mut input = bytes;
            if tagged {
                input.insert(0, TAG_STAGE);
            }
            let _ = decode_stage_record(&input);
        }

        /// A valid record round-trips; every truncation of it and every
        /// single-byte corruption decode to a value or a typed error.
        #[test]
        fn stage_records_survive_truncation_and_corruption(
            fragments in 0u32..5,
            flip in (any::<usize>(), 1u8..255),
        ) {
            let rec = stage_record(fragments);
            let bytes = encode_stage_record(&rec);
            let back = decode_stage_record(&bytes).unwrap();
            prop_assert_eq!(
                format!("{:?}", back.fragments),
                format!("{:?}", rec.fragments)
            );
            for cut in 0..bytes.len() {
                prop_assert!(decode_stage_record(&bytes[..cut]).is_err());
            }
            let mut bad = bytes.clone();
            let at = flip.0 % bad.len();
            bad[at] ^= flip.1;
            let _ = decode_stage_record(&bad);
        }
    }

    #[test]
    fn commit_then_resume_replays_the_committed_prefix() {
        let dir = tmpdir("roundtrip");
        let mut s = CheckpointSession::create(&dir, 0xFEED).unwrap();
        s.stage_fragment("/tmp/sorted", 0, 0, b"alpha".to_vec());
        s.stage_fragment("/tmp/sorted", 1, 1, b"bravo".to_vec());
        let wrote = s.commit_stage(0, "sort", &sample_stats("sort")).unwrap();
        assert!(wrote > 0);
        s.stage_fragment("/tmp/out", 0, 0, b"charlie".to_vec());
        s.commit_stage(1, "distr", &sample_stats("distr")).unwrap();

        let r = CheckpointSession::resume(&dir, 0xFEED).unwrap();
        assert!(r.corruption_events().is_empty());
        assert_eq!(r.completed().len(), 2);
        assert!(r.is_complete(0) && r.is_complete(1) && !r.is_complete(2));
        let st = &r.completed()[0];
        assert_eq!(st.stage_id, "sort");
        assert_eq!(st.fragments.len(), 2);
        assert_eq!(st.fragments[0].payload.as_deref(), Some(&b"alpha"[..]));
        assert_eq!(st.fragments[1].payload.as_deref(), Some(&b"bravo"[..]));
        assert_stats_eq(&st.stats, &sample_stats("sort"));
        assert_eq!(
            r.completed()[1].fragments[0].payload.as_deref(),
            Some(&b"charlie"[..])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_refusal() {
        let dir = tmpdir("mismatch");
        CheckpointSession::create(&dir, 0xAA).unwrap();
        assert_eq!(CheckpointSession::fingerprint_of(&dir).unwrap(), 0xAA);
        let err = CheckpointSession::resume(&dir, 0xBB).unwrap_err();
        assert_eq!(
            err,
            MrError::ResumeMismatch {
                expected: 0xBB,
                found: 0xAA
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fragment_is_quarantined_and_its_stage_recomputes() {
        let dir = tmpdir("corrupt");
        let mut s = CheckpointSession::create(&dir, 1).unwrap();
        s.stage_fragment("/a", 0, 0, b"stage zero".to_vec());
        s.commit_stage(0, "s0", &sample_stats("s0")).unwrap();
        s.stage_fragment("/b", 0, 0, b"stage one".to_vec());
        s.commit_stage(1, "s1", &sample_stats("s1")).unwrap();

        // Flip one payload byte of stage 1's fragment on disk.
        let file = s.completed()[1].fragments[0].file.clone();
        let path = dir.join(&file);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let r = CheckpointSession::resume(&dir, 1).unwrap();
        // Stage 0 survives; stage 1 is invalidated, its file quarantined.
        assert_eq!(r.completed().len(), 1);
        assert!(!path.exists(), "corrupt file should be renamed aside");
        assert!(dir.join(format!("{file}.quarantine")).exists());
        let events = r.corruption_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], MrError::CheckpointCorrupt { .. }));
        assert!(
            events[0].to_string().contains("quarantined"),
            "{}",
            events[0]
        );

        // The rewritten manifest resumes cleanly with only stage 0.
        let r2 = CheckpointSession::resume(&dir, 1).unwrap();
        assert!(r2.corruption_events().is_empty());
        assert_eq!(r2.completed().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_tail_keeps_the_intact_prefix() {
        let dir = tmpdir("torn");
        let mut s = CheckpointSession::create(&dir, 2).unwrap();
        s.stage_fragment("/a", 0, 0, b"committed".to_vec());
        s.commit_stage(0, "s0", &sample_stats("s0")).unwrap();
        s.stage_fragment("/b", 0, 0, b"torn".to_vec());
        s.commit_stage(1, "s1", &sample_stats("s1")).unwrap();

        // Simulate a kill mid-append: truncate the last commit halfway.
        let path = dir.join(MANIFEST);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        let r = CheckpointSession::resume(&dir, 2).unwrap();
        assert_eq!(r.completed().len(), 1);
        assert_eq!(r.corruption_events().len(), 1);
        assert!(r.corruption_events()[0]
            .to_string()
            .contains("manifest tail discarded"));
        // And the rewrite made the next resume clean.
        let r2 = CheckpointSession::resume(&dir, 2).unwrap();
        assert!(r2.corruption_events().is_empty());
        assert_eq!(r2.completed().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_wipes_stale_state_from_a_previous_run() {
        let dir = tmpdir("wipe");
        let mut s = CheckpointSession::create(&dir, 3).unwrap();
        s.stage_fragment("/a", 0, 0, b"old".to_vec());
        s.commit_stage(0, "s0", &sample_stats("s0")).unwrap();
        // A fresh --checkpoint run over the same dir starts from nothing.
        let s2 = CheckpointSession::create(&dir, 4).unwrap();
        assert!(s2.completed().is_empty());
        let r = CheckpointSession::resume(&dir, 4).unwrap();
        assert!(r.completed().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_fragment_file_invalidates_its_stage() {
        let dir = tmpdir("missing");
        let mut s = CheckpointSession::create(&dir, 5).unwrap();
        s.stage_fragment("/a", 0, 0, b"here today".to_vec());
        s.commit_stage(0, "s0", &sample_stats("s0")).unwrap();
        let file = s.completed()[0].fragments[0].file.clone();
        fs::remove_file(dir.join(&file)).unwrap();
        let r = CheckpointSession::resume(&dir, 5).unwrap();
        assert!(r.completed().is_empty());
        assert_eq!(r.corruption_events().len(), 1);
        assert!(r.corruption_events()[0].to_string().contains("unreadable"));
        let _ = fs::remove_dir_all(&dir);
    }
}
