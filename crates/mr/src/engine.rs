//! The MapReduce engine: map over node-local data, shuffle by reduce key,
//! reduce per reducer, under the virtual clock.
//!
//! The execution follows the paper's Figures 9 and 11 exactly:
//!
//! 1. every node runs one **mapper** over its local fragments of the input
//!    dataset(s) and pushes `(reduce-key, entry)` pairs into an [`Emit`],
//!    borrowing both from the fragments;
//! 2. [`Emit::push`] asks the **partitioner** for the pair's reducer (range-
//!    sampled for sort, identity for distribute, hashed for group) and
//!    encodes the pair straight into the outbox row bound for that
//!    reducer's node — map output is bytes from the moment it exists, like
//!    MR-MPI's `KeyValue::add`; the rows are then shuffled all-to-all;
//! 3. every node runs the **reducer** for each reducer id it owns
//!    (`reducer % num_nodes`), handing it a [`Pairs`] view of its sorted
//!    pairs, borrowed over the inbox, and writes its output fragment under
//!    the job's output name with the reducer id as the fragment ordinal.
//!
//! A job may name inputs it is the last reader of ([`MapReduceJob::release`]):
//! once every map task has committed, those datasets leave every store,
//! primaries and replicas, before the shuffle, so they are not resident
//! through the reduce phase.
//!
//! Determinism: each pair carries its emitting mapper id and emission index,
//! and the engine sorts each reducer's pairs by `(key, mapper, seq)` (or
//! `(mapper, seq)` when key-sorting is off), so results are independent of
//! arrival order — the property behind the paper's "same partitions"
//! correctness claim.
//!
//! Within a phase, node tasks execute concurrently on scoped OS threads up
//! to the cluster's [`Cluster::threads`] budget, joining at the existing
//! BSP barriers (map → shuffle → reduce). Determinism survives threading
//! because nothing a worker does depends on scheduling: fault decisions are
//! pre-drawn per `(job, phase, node, attempt)` at the phase barrier,
//! straggler factors are read up front, every worker only reads `&Cluster`
//! and writes its own pre-allocated result slot, and all cluster mutation
//! (stats, recovery log, output commits) happens on the driver thread in
//! node order after the join.

use papar_record::batch::{Batch, Dataset, RowRef};
use papar_record::packed::PackedRecord;
use papar_record::prefix;
use papar_record::value::INLINE_STR_CAP;
use papar_record::view::{EntryView, ENTRY_PACKED, ENTRY_PACKED_CSC, ENTRY_REC};
use papar_record::wire::{self, Reader};
use papar_record::{Record, Schema, Value};
use papar_trace::{
    duration_ns, CostModel, Counters, JobTrace, PhaseKind, PhaseTrace, SkewHistogram, TaskTrace,
};
use std::sync::Arc;

use std::time::Duration;

use crate::cluster::Cluster;
use crate::fault::{Fault, RecoveryAction, RetryPolicy};
use crate::pairs::{PairLoc, Pairs, IDX_BITS, IDX_MASK};
use crate::stats::{HotPathStats, JobStats, NetModel, RecoveryStats};
use crate::timer::TaskTimer;
use crate::{MrError, Result, TaskPhase};

/// One shuffled unit: either a flat record or a whole packed group (the
/// hybrid-cut shuffles packed low-degree groups as single entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A flat record.
    Rec(Record),
    /// A packed group.
    Packed(PackedRecord),
}

impl Entry {
    /// Number of flat records this entry represents.
    pub fn record_count(&self) -> usize {
        self.as_ref().record_count()
    }

    /// Borrow this entry as an [`EntryRef`].
    pub fn as_ref(&self) -> EntryRef<'_> {
        match self {
            Entry::Rec(r) => EntryRef::Rec(r),
            Entry::Packed(p) => EntryRef::Packed(p),
        }
    }
}

/// An [`Entry`] borrowed from where it lives — usually a map task's
/// input fragment — so emitting it encodes the bytes without a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryRef<'a> {
    /// A flat record.
    Rec(&'a Record),
    /// A packed group.
    Packed(&'a PackedRecord),
    /// A flat record kept as its row bytes; emitting it copies them.
    Row(RowRef<'a>),
}

impl<'a> EntryRef<'a> {
    /// Every entry of a batch, borrowed, in batch order: records, groups,
    /// or rows.
    pub fn all(batch: &'a Batch) -> impl Iterator<Item = EntryRef<'a>> {
        /// One form's iterator, matched once per entry.
        enum All<R, P, W> {
            Flat(R),
            Packed(P),
            Rows(W),
        }
        let mut all = match batch {
            Batch::Flat(records) => All::Flat(records.iter()),
            Batch::Packed(groups) => All::Packed(groups.iter()),
            Batch::Rows(rows) => All::Rows(rows.iter()),
        };
        std::iter::from_fn(move || match &mut all {
            All::Flat(records) => records.next().map(EntryRef::Rec),
            All::Packed(groups) => groups.next().map(EntryRef::Packed),
            All::Rows(rows) => rows.next().map(EntryRef::Row),
        })
    }

    /// Number of flat records this entry represents.
    pub fn record_count(self) -> usize {
        match self {
            EntryRef::Rec(_) | EntryRef::Row(_) => 1,
            EntryRef::Packed(p) => p.records.len(),
        }
    }

    /// An owned copy of the entry; a row decodes.
    pub fn to_entry(self) -> Entry {
        match self {
            EntryRef::Rec(r) => Entry::Rec(r.clone()),
            EntryRef::Packed(p) => Entry::Packed(p.clone()),
            EntryRef::Row(row) => Entry::Rec(row.to_record()),
        }
    }
}

/// Execution context handed to mappers and reducers.
#[derive(Debug, Clone)]
pub struct TaskCtx {
    /// The node this task runs on.
    pub node: usize,
    /// Cluster size.
    pub num_nodes: usize,
    /// Number of reducers of the running job.
    pub num_reducers: usize,
    /// For reduce tasks, the reducer id; `None` in map tasks.
    pub reducer: Option<usize>,
}

/// One local input fragment handed to a mapper.
#[derive(Debug, Clone)]
pub struct MapInput {
    /// Dataset name this fragment belongs to.
    pub name: String,
    /// Global fragment ordinal (scatter chunk or producing reducer id) —
    /// what distribute mappers use to compute global entry offsets.
    pub ordinal: u32,
    /// The records (shared with the node's store; reading is free).
    pub data: Arc<Dataset>,
}

/// A map task: local fragments in, `(reduce-key, entry)` pairs emitted.
///
/// `Sync` because one task object is shared by all node workers of a phase
/// (tasks are stateless transforms; per-node state lives in the inputs).
pub trait Mapper: Sync {
    /// Push this node's local input fragments as keyed entries into `out`,
    /// in emission order (the order is part of the reduce-side total
    /// order). Keys and entries are borrowed, typically from `inputs`;
    /// the emitter encodes them at once. `inputs` holds the node's
    /// fragments in (dataset, ordinal) order; nodes without local
    /// fragments get an empty slice.
    fn map(&self, ctx: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> Result<()>;
}

/// A map task's sink: each pushed pair is routed by the job's partitioner
/// and wire-encoded into the outbox row of the node owning its reducer.
pub struct Emit<'a> {
    partitioner: &'a dyn Partitioner,
    num_reducers: usize,
    schema: &'a Schema,
    compress_key: Option<usize>,
    /// Outbox row: one buffer per destination node.
    row: &'a mut [Vec<u8>],
    /// Per-reducer records/bytes, when tracing.
    skew: Option<&'a mut SkewHistogram>,
    /// Pairs pushed so far; the next pair's `seq`.
    pairs: usize,
    /// The last row schema found equal to `schema`: rows of it encode as
    /// their bytes after one pointer comparison.
    row_schema: Option<Arc<Schema>>,
}

impl Emit<'_> {
    /// Route `(key, entry)` to its reducer and encode it into the outbox:
    /// `reducer` and `seq` (the push index) headers, the key, the entry.
    pub fn push(&mut self, key: &Value, entry: EntryRef<'_>) -> Result<()> {
        let reducer = self.partitioner.reducer_for(key, self.num_reducers)?;
        if reducer >= self.num_reducers {
            // Defensive re-check for third-party partitioners that
            // return in-band instead of erroring.
            return Err(MrError::PartitionOutOfRange {
                id: reducer as i64,
                num_reducers: self.num_reducers,
            });
        }
        let nodes = self.row.len();
        let buf = &mut self.row[reducer % nodes];
        let len_before = buf.len();
        buf.extend_from_slice(&wire_u32("reducer", reducer)?.to_le_bytes());
        buf.extend_from_slice(&wire_u32("seq", self.pairs)?.to_le_bytes());
        wire::encode_value(key, buf);
        match entry {
            EntryRef::Row(row) if row_follows(&mut self.row_schema, row, self.schema) => {
                buf.push(ENTRY_REC);
                buf.extend_from_slice(row.as_bytes());
            }
            _ => encode_entry(entry, self.schema, self.compress_key, buf)?,
        }
        if let Some(sk) = self.skew.as_deref_mut() {
            sk.records[reducer] += entry.record_count() as u64;
            sk.bytes[reducer] += (buf.len() - len_before) as u64;
        }
        self.pairs += 1;
        Ok(())
    }
}

/// Assignment of reduce keys to reducers (`Sync`: shared across node
/// workers, like [`Mapper`]).
pub trait Partitioner: Sync {
    /// The reducer (in `0..num_reducers`) that handles `key`, or
    /// [`MrError::PartitionOutOfRange`] when the key maps outside the
    /// job's reducer range (a buggy or mis-bound policy must fail
    /// loudly, not silently skew the last reducer).
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> Result<usize>;
}

/// A reduce task: a reducer's pairs in deterministic order in, one batch
/// per output dataset out (`Sync`: shared across node workers, like
/// [`Mapper`]).
pub trait Reducer: Sync {
    /// Produce one reducer's output fragments: slot 0 goes to the job's
    /// primary output, slot `j + 1` to the j-th extra output of
    /// [`Cluster::run_job_multi`] (a fused group→split stage routes its
    /// groups to the split's destinations this way). `pairs` borrows the
    /// node's inbox; each entry decodes once, where the reducer puts it.
    fn reduce(&self, ctx: &TaskCtx, pairs: Pairs<'_>) -> Result<Vec<Batch>>;
}

/// Blanket adapters so plain closures can serve as map/reduce tasks.
pub struct FnMapper<F>(pub F);

impl<F> Mapper for FnMapper<F>
where
    F: Fn(&TaskCtx, &[MapInput], &mut Emit<'_>) -> Result<()> + Sync,
{
    fn map(&self, ctx: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> Result<()> {
        (self.0)(ctx, inputs, out)
    }
}

/// Closure adapter for reducers.
pub struct FnReducer<F>(pub F);

impl<F> Reducer for FnReducer<F>
where
    F: Fn(&TaskCtx, Pairs<'_>) -> Result<Vec<Batch>> + Sync,
{
    fn reduce(&self, ctx: &TaskCtx, pairs: Pairs<'_>) -> Result<Vec<Batch>> {
        (self.0)(ctx, pairs)
    }
}

/// Hash partitioner (group-by-key jobs).
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> Result<usize> {
        Ok((key.stable_hash() % num_reducers as u64) as usize)
    }
}

/// Identity partitioner: the key *is* the reducer id (distribute jobs set
/// the temporary reduce-key to the target partition, paper Figure 9 step 4).
/// A key outside `0..num_reducers` is a policy bug and errors; it used to
/// be silently clamped onto the edge reducers, skewing the output. So is a
/// key that is no integer at all ([`MrError::NonIntegerReducerKey`]); it
/// used to land on reducer 0.
pub struct IdentityPartitioner;

impl Partitioner for IdentityPartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> Result<usize> {
        let id = key
            .as_i64()
            .ok_or_else(|| MrError::NonIntegerReducerKey { key: key.clone() })?;
        if id < 0 || id as u64 >= num_reducers as u64 {
            return Err(MrError::PartitionOutOfRange { id, num_reducers });
        }
        Ok(id as usize)
    }
}

/// A MapReduce job description.
pub struct MapReduceJob<'a> {
    /// Job name (the workflow operator id), used in stats.
    pub name: String,
    /// Input dataset names (usually one; the hybrid-cut distribute job
    /// reads both split outputs).
    pub inputs: Vec<String>,
    /// Output dataset name.
    pub output: String,
    /// Number of reducers (= output fragments).
    pub num_reducers: usize,
    /// Schema of the entries mappers emit (map may extend the input schema
    /// via add-ons before the shuffle).
    pub map_output_schema: Arc<Schema>,
    /// Schema of the reducer output (usually the same).
    pub output_schema: Arc<Schema>,
    /// The map task.
    pub mapper: &'a dyn Mapper,
    /// Reduce-key to reducer assignment.
    pub partitioner: &'a dyn Partitioner,
    /// The reduce task.
    pub reducer: &'a dyn Reducer,
    /// Sort each reducer's pairs by key before reducing (sort/group jobs);
    /// otherwise pairs arrive in `(mapper, seq)` order (distribute jobs).
    pub sort_by_key: bool,
    /// Reverse the key order in the reduce-side sort (Table I's descending
    /// sort flag). Only meaningful with `sort_by_key`.
    pub descending: bool,
    /// CSC-compress packed entries on the wire, factoring the key column at
    /// this index out of group members (paper Section III-D); `None` sends
    /// packed groups uncompressed.
    pub compress_key: Option<usize>,
    /// Inputs this job is the last reader of: removed from every store,
    /// primaries and replicas, once the map barrier commits and before
    /// the shuffle. A reduce-phase crash therefore no longer restores
    /// (or charges) them — nothing reads them again.
    pub release: &'a [String],
}

/// Whether `row` is laid out by `schema`. A match is remembered in `seen`,
/// so the next row of that schema costs one pointer comparison instead of
/// a `Schema ==` over field names.
fn row_follows(seen: &mut Option<Arc<Schema>>, row: RowRef<'_>, schema: &Schema) -> bool {
    let row_schema = row.schema();
    if seen.as_ref().is_some_and(|s| Arc::ptr_eq(s, row_schema)) {
        return true;
    }
    let follows = std::ptr::eq(row_schema.as_ref(), schema) || row_schema.as_ref() == schema;
    if follows {
        *seen = Some(Arc::clone(row_schema));
    }
    follows
}

/// Encode one entry into the outbox; a row of another schema decodes and
/// encodes like a record.
fn encode_entry(
    entry: EntryRef<'_>,
    schema: &Schema,
    compress_key: Option<usize>,
    buf: &mut Vec<u8>,
) -> Result<()> {
    match entry {
        EntryRef::Rec(r) => {
            buf.push(ENTRY_REC);
            wire::encode_record(r, schema, buf)?;
        }
        EntryRef::Row(row) => {
            buf.push(ENTRY_REC);
            wire::encode_record(&row.to_record(), schema, buf)?;
        }
        EntryRef::Packed(p) => match compress_key {
            Some(key_idx) => {
                buf.push(ENTRY_PACKED_CSC);
                wire::encode_value(&p.key, buf);
                buf.extend_from_slice(&(p.records.len() as u32).to_le_bytes());
                for (fi, field) in schema.fields().iter().enumerate() {
                    if fi == key_idx {
                        continue;
                    }
                    for rec in &p.records {
                        let v = rec.require(fi).map_err(MrError::from)?;
                        wire::encode_field(v, field.ty, buf)?;
                    }
                }
            }
            None => {
                buf.push(ENTRY_PACKED);
                wire::encode_value(&p.key, buf);
                buf.extend_from_slice(&(p.records.len() as u32).to_le_bytes());
                for rec in &p.records {
                    wire::encode_record(rec, schema, buf)?;
                }
            }
        },
    }
    Ok(())
}

/// Checked narrowing for the shuffle wire format's u32 counters — a mapper
/// emitting past `u32::MAX` pairs must fail loudly, not wrap.
fn wire_u32(field: &'static str, value: usize) -> Result<u32> {
    u32::try_from(value).map_err(|_| MrError::WireOverflow {
        field,
        value,
        max: u32::MAX.into(),
    })
}

// ---------------------------------------------------------------------------
// The reduce path: borrowed views + packed 128-bit sort keys.
//
// Each reducer sees its pairs in the total order `(reducer, key?, mapper,
// seq)` — key order reversed when descending, key omitted when
// `!sort_by_key`. `(mapper, seq)` is unique per pair, so any correct sort,
// stable or not, sequential or parallel, produces the same permutation.
//
// The reduce task scans each inbox buffer once, records a 16-byte
// [`PairLoc`] locating the pair's bytes, and packs the sort order into a
// single `u128`:
//
// ```text
//   bit 127..104   reducer id              (24 bits)
//   bit 103..38    key prefix `packed66`   (66 bits; 0 when !sort_by_key,
//                                           bitwise-NOT'd when descending)
//   bit  37..0     scan index              (38 bits)
// ```
//
// Inboxes are built sender-ascending and each sender's pairs arrive in
// emission order, so the scan index ascends exactly like `(mapper, seq)` —
// unsigned `u128` comparison therefore equals the order above *except*
// where two pairs share a reducer and an inexact key prefix; those tie runs
// are re-sorted from decoded keys afterwards (see [`fixup_prefix_ties`]).
// Jobs with ≥ 2^24 reducers and inboxes with ≥ 2^38 pairs do not fit and
// fail with [`MrError::WireOverflow`].
// ---------------------------------------------------------------------------

/// Width of the reducer-id field of the packed sort key.
const REDUCER_BITS: u32 = 24;
/// Mask of a 66-bit `packed66` key prefix (before shifting into position).
const KEY66_MASK: u128 = (1 << 66) - 1;

fn pack_pair(reducer: u32, key66: u128, idx: usize) -> u128 {
    ((reducer as u128) << (66 + IDX_BITS)) | (key66 << IDX_BITS) | idx as u128
}

/// Heap allocations needed to own one decoded `Value`: only strings too
/// long to be stored in place allocate.
fn value_allocs(v: &Value) -> u64 {
    v.as_str().is_some_and(|s| s.len() > INLINE_STR_CAP) as u64
}

/// Count the pairs in a reduce inbox with an allocation-free skip scan so
/// decode buffers can be pre-sized exactly before the first attempt.
/// `None` when the bytes are malformed — the decode pass will surface the
/// error with full context.
fn count_inbox_pairs(
    inbox: &[(usize, Vec<u8>)],
    schema: &Schema,
    compress_key: Option<usize>,
) -> Option<usize> {
    let mut count = 0usize;
    for (_, buf) in inbox {
        let mut r = Reader::new(buf);
        while r.remaining() > 0 {
            r.read_bytes(8).ok()?; // reducer + seq
            wire::skip_value(&mut r).ok()?;
            EntryView::parse(&mut r, schema, compress_key).ok()?;
            count += 1;
        }
    }
    Some(count)
}

/// Re-sort runs of pairs whose packed keys tie on an *inexact* prefix.
///
/// A tie on `(reducer, key66)` means `Value::cmp` is `Equal` only when both
/// prefixes are exact (see `papar_record::prefix`); runs where every member
/// is exact are already correctly ordered (equal keys, ascending scan index)
/// and are skipped without decoding. Otherwise the run's keys are decoded
/// and stably re-sorted by the true key order — stability keeps truly-equal
/// keys in ascending scan order, preserving the total reduce order.
///
/// `any_inexact` is whether the inbox scan saw an inexact prefix at all.
/// When it did not, every run is all-exact, so the runs are only counted
/// into `tie_pairs` and no member's key is parsed again.
fn fixup_prefix_ties(
    descending: bool,
    any_inexact: bool,
    inbox: &[(usize, Vec<u8>)],
    locs: &[PairLoc],
    packed: &mut [u128],
    hot: &mut HotPathStats,
) -> Result<()> {
    let key_bytes = |p: u128| {
        let loc = &locs[(p & IDX_MASK) as usize];
        &loc.tail(inbox)[..loc.key_len as usize]
    };
    let mut i = 0;
    while i < packed.len() {
        let run_key = packed[i] >> IDX_BITS;
        let mut j = i + 1;
        while j < packed.len() && packed[j] >> IDX_BITS == run_key {
            j += 1;
        }
        if j - i >= 2 {
            hot.tie_pairs += (j - i) as u64;
            let all_exact = !any_inexact
                || packed[i..j].iter().try_fold(true, |acc, &p| {
                    let kp = prefix::from_wire(&mut Reader::new(key_bytes(p)))?;
                    Ok::<_, MrError>(acc && kp.exact)
                })?;
            if !all_exact {
                let mut keyed: Vec<(Value, u128)> = Vec::with_capacity(j - i);
                for &p in &packed[i..j] {
                    let bytes = key_bytes(p);
                    let key = wire::decode_value(&mut Reader::new(bytes))?;
                    hot.staged_bytes +=
                        bytes.len() as u64 + std::mem::size_of::<(Value, u128)>() as u64;
                    hot.staged_allocs += value_allocs(&key);
                    keyed.push((key, p));
                }
                // Stable sort: members arrive in ascending scan order, so
                // truly-equal keys keep that order after the re-sort.
                keyed.sort_by(|a, b| {
                    let ord = a.0.cmp(&b.0);
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                for (k, (_, p)) in keyed.into_iter().enumerate() {
                    packed[i + k] = p;
                }
            }
        }
        i = j;
    }
    Ok(())
}

/// What one reduce attempt hands back.
struct ReduceAttempt {
    outputs: Vec<(u32, Vec<Batch>)>,
    records_out: u64,
    pair_count: u64,
    hot: HotPathStats,
}

/// Everything a phase worker needs besides `&Cluster`: per-job constants
/// and the fault state pre-drawn at the phase barrier, so tasks never
/// touch `&mut Cluster`.
struct PhaseCtx<'a> {
    job: &'a MapReduceJob<'a>,
    job_idx: usize,
    n: usize,
    retry: RetryPolicy,
    /// Pre-drawn crash counts: node `i` crashes on its first `crashes[i]`
    /// attempts, matching the sequential engine's consumption order.
    crashes: Vec<u32>,
    /// Straggler slowdown factor per node (persistent, read up front).
    stragglers: &'a [f64],
    /// The whole phase's OS-thread budget.
    threads: usize,
    /// Whether the cluster's trace sink wants task spans; when false
    /// the tasks skip all trace bookkeeping.
    tracing: bool,
    /// Cost model behind the trace's deterministic clock.
    cost: CostModel,
    /// Network model, for modeling recovery traffic on that clock.
    net: NetModel,
    /// Extra output datasets (name, schema) beyond `job.output`, in
    /// reducer slot order; empty for single-output jobs.
    extra_outputs: &'a [(String, Arc<Schema>)],
}

/// What one node's map task hands back at the barrier.
struct MapOutcome {
    /// Outbox row: encoded pairs destined to each node.
    row: Vec<Vec<u8>>,
    /// Compute of the successful attempt (what a reduce-side crash
    /// re-charges to regenerate the node's self-send).
    compute: Duration,
    /// Total virtual map time, including retried attempts and backoff.
    phase_time: Duration,
    records_in: u64,
    pairs: u64,
    /// Locally-accumulated recovery accounting, merged in node order.
    recovery: RecoveryStats,
    events: Vec<RecoveryAction>,
    /// The task's span, when tracing.
    trace: Option<TaskTrace>,
    /// Per-reducer records/bytes this mapper routed, when tracing.
    skew: Option<SkewHistogram>,
}

/// What one node's reduce task hands back at the barrier.
struct ReduceOutcome {
    /// Output batches per owned reducer id, one batch per output slot
    /// (primary first, then the job's extra outputs); committed by the
    /// driver thread in node order so replication accounting stays
    /// deterministic.
    outputs: Vec<(u32, Vec<Batch>)>,
    phase_time: Duration,
    records_out: u64,
    recovery: RecoveryStats,
    events: Vec<RecoveryAction>,
    /// Hot-path counters from the successful attempt.
    hot: HotPathStats,
    /// The task's span, when tracing.
    trace: Option<TaskTrace>,
}

/// Run `task(i)` for every `i` in `0..n` on up to `threads` OS threads,
/// returning the results in index order: one pre-allocated slot per item.
///
/// The one parallel helper of the workspace: the engine's map and reduce
/// phases and the driver's load, checkpoint publish and emit all run on
/// it. The items are split into contiguous chunks, one scoped worker per
/// chunk, so slot assignment never depends on completion order and a
/// caller that folds the results in index order (first error included)
/// gets the same answer at every thread count; with one thread (or one
/// item) the tasks run inline. A worker panic propagates to the caller
/// like a sequential panic would.
pub fn run_slots<T, F>(n: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers <= 1 {
        return (0..n).map(&task).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(workers);
    let scope_result = crossbeam::thread::scope(|s| {
        for (ci, part) in slots.chunks_mut(chunk).enumerate() {
            let task = &task;
            s.spawn(move |_| {
                for (off, slot) in part.iter_mut().enumerate() {
                    *slot = Some(task(ci * chunk + off));
                }
            });
        }
    });
    if let Err(payload) = scope_result {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("a worker filled every slot"))
        .collect()
}

/// Invoke the job's reducer and check it produced exactly one batch per
/// output slot — a mismatch is a reducer bug and must fail the task, not
/// silently drop or misroute a dataset.
fn reduce_slots(
    job: &MapReduceJob<'_>,
    ctx: &TaskCtx,
    pairs: Pairs<'_>,
    slots: usize,
) -> Result<Vec<Batch>> {
    let batches = job.reducer.reduce(ctx, pairs)?;
    if batches.len() != slots {
        return Err(MrError::msg(format!(
            "job '{}': reducer produced {} batch(es) for {} output slot(s)",
            job.name,
            batches.len(),
            slots
        )));
    }
    Ok(batches)
}

impl Cluster {
    /// Run one MapReduce job under the virtual clock and return its stats.
    ///
    /// The output dataset is written fragment-per-reducer with the reducer
    /// id as ordinal; collect it with [`Cluster::collect`] to obtain the
    /// partitions in partition order.
    /// When a fault plan is installed, the run is *chaos-aware*: scheduled
    /// node crashes fire at task boundaries (the task's work is lost and
    /// the task re-executes under the retry policy, with backoff, the lost
    /// compute and the replica-restore traffic charged to the virtual
    /// clock), scheduled drop/corrupt faults hit the shuffle (detected by
    /// timeout/checksum, then retransmitted), and stragglers scale a node's
    /// measured compute time. Recovery never changes the output: recovered
    /// runs are byte-identical to fault-free ones, for every thread count.
    pub fn run_job(&mut self, job: &MapReduceJob<'_>) -> Result<JobStats> {
        self.run_job_multi(job, &[])
    }

    /// Like [`Cluster::run_job`], but the reducer writes one batch per
    /// output dataset from [`Reducer::reduce`]: slot 0 commits to
    /// `job.output` with `job.output_schema`, slot `j + 1` to
    /// `extra_outputs[j]`. Every output dataset gets one fragment per
    /// reducer (ordinal = reducer id), exactly like the primary output of
    /// a plain job.
    pub fn run_job_multi(
        &mut self,
        job: &MapReduceJob<'_>,
        extra_outputs: &[(String, Arc<Schema>)],
    ) -> Result<JobStats> {
        if job.num_reducers == 0 {
            return Err(MrError::msg(format!(
                "job '{}' has zero reducers",
                job.name
            )));
        }
        if job.num_reducers >= 1 << REDUCER_BITS {
            return Err(MrError::WireOverflow {
                field: "reducer",
                value: job.num_reducers,
                max: (1 << REDUCER_BITS) - 1,
            });
        }
        let job_idx = self.next_job_index();
        let n = self.num_nodes();
        let threads = self.threads();
        let retry = self.retry_policy();
        let tracing = self.tracing();
        let cost = self.cost_model();
        let net_model = *self.net();
        let stragglers: Vec<f64> = (0..n).map(|i| self.straggler_factor(i)).collect();
        let mut stats = JobStats {
            name: job.name.clone(),
            map_time_by_node: vec![Duration::ZERO; n],
            reduce_time_by_node: vec![Duration::ZERO; n],
            ..Default::default()
        };

        // ---- Map phase: all node tasks concurrently, each timed
        // individually, results in per-node slots. ----
        let map_pc = PhaseCtx {
            job,
            job_idx,
            n,
            retry,
            crashes: self.take_phase_crashes(job_idx, TaskPhase::Map),
            stragglers: &stragglers,
            threads,
            tracing,
            cost,
            net: net_model,
            extra_outputs,
        };
        let this: &Cluster = &*self;
        let map_results = run_slots(n, threads, |node| this.map_task(&map_pc, node));

        // Successful-attempt compute per node, kept apart from retry
        // charges: a reduce-side crash re-runs the node's map task to
        // regenerate its self-send data, at this cost.
        let mut map_compute: Vec<Duration> = vec![Duration::ZERO; n];
        let mut outboxes: Vec<Vec<Vec<u8>>> = Vec::with_capacity(n);
        let mut map_tasks: Vec<TaskTrace> = Vec::new();
        let mut job_skew: Option<SkewHistogram> = None;
        let mut first_err: Option<MrError> = None;
        for (node, res) in map_results.into_iter().enumerate() {
            match res {
                Ok(o) if first_err.is_none() => {
                    stats.map_time_by_node[node] += o.phase_time;
                    map_compute[node] = o.compute;
                    stats.records_in += o.records_in;
                    stats.pairs_shuffled += o.pairs;
                    self.absorb_worker_recovery(o.recovery, o.events);
                    if let Some(t) = o.trace {
                        map_tasks.push(t);
                    }
                    if let Some(s) = o.skew {
                        match job_skew.as_mut() {
                            Some(merged) => merged.merge(&s),
                            None => job_skew = Some(s),
                        }
                    }
                    outboxes.push(o.row);
                }
                Ok(_) => {}
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Remember the outbox sizes: the next map phase pre-sizes its
        // shuffle buffers from them instead of growing from empty.
        self.set_shuffle_hints(
            outboxes
                .iter()
                .map(|row| row.iter().map(Vec::len).collect())
                .collect(),
        );
        // Every map task has committed: inputs with no later reader leave
        // the stores now, so they are not resident through the reduce.
        for name in job.release {
            self.release(name);
        }

        // ---- Shuffle. ----
        let (inboxes, exchange) = self.exchange_with_faults(job_idx, &job.name, outboxes)?;
        stats.comm_time = exchange.comm_time(self.net());
        stats.exchange = exchange;

        // ---- Reduce phase: same slot discipline; outputs commit on the
        // driver thread at the barrier, in node order. ----
        let reduce_pc = PhaseCtx {
            job,
            job_idx,
            n,
            retry,
            crashes: self.take_phase_crashes(job_idx, TaskPhase::Reduce),
            stragglers: &stragglers,
            threads,
            tracing,
            cost,
            net: net_model,
            extra_outputs,
        };
        let this: &Cluster = &*self;
        let reduce_results = run_slots(n, threads, |node| {
            this.reduce_task(&reduce_pc, node, &inboxes[node], map_compute[node])
        });

        let mut reduce_tasks: Vec<TaskTrace> = Vec::new();
        let mut first_err: Option<MrError> = None;
        for (node, res) in reduce_results.into_iter().enumerate() {
            match res {
                Ok(o) if first_err.is_none() => {
                    stats.reduce_time_by_node[node] += o.phase_time;
                    stats.records_out += o.records_out;
                    stats.hot.merge(&o.hot);
                    self.absorb_worker_recovery(o.recovery, o.events);
                    if let Some(t) = o.trace {
                        reduce_tasks.push(t);
                    }
                    for (rid, batches) in o.outputs {
                        for (slot, batch) in batches.into_iter().enumerate() {
                            let (name, schema) = if slot == 0 {
                                (job.output.as_str(), &job.output_schema)
                            } else {
                                let (n, s) = &extra_outputs[slot - 1];
                                (n.as_str(), s)
                            };
                            self.put_fragment(
                                node,
                                name,
                                rid,
                                Dataset::new(schema.clone(), batch),
                            )?;
                        }
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }

        // Recovery traffic (replication, restores, retransmits) joins the
        // job's modeled communication time; compute-side recovery is already
        // inside the per-node phase times.
        let recovery = self.take_recovery();
        let net = *self.net();
        stats.absorb_recovery(recovery, &net);

        if tracing {
            // Emitted only now, after recovery absorption, so the
            // shuffle span's virtual time is the *final* comm time and
            // the three phases sum exactly to the job's makespan.
            let trace = job_trace(&stats, &net_model, map_tasks, reduce_tasks, job_skew);
            self.record_job_trace(trace);
        }
        Ok(stats)
    }

    /// One node's map task: read local fragments, map, partition and encode
    /// into the outbox row, retrying under pre-drawn crash faults. Runs on
    /// a worker thread with only `&self`.
    fn map_task(&self, pc: &PhaseCtx<'_>, node: usize) -> Result<MapOutcome> {
        let job = pc.job;
        let hints = self.shuffle_hints().get(node);
        let mut out = MapOutcome {
            row: (0..pc.n)
                .map(|to| Vec::with_capacity(hints.and_then(|h| h.get(to)).copied().unwrap_or(0)))
                .collect(),
            compute: Duration::ZERO,
            phase_time: Duration::ZERO,
            records_in: 0,
            pairs: 0,
            recovery: RecoveryStats::default(),
            events: Vec::new(),
            trace: None,
            skew: None,
        };
        let mut crashes_left = pc.crashes[node];
        let mut attempt: u32 = 1;
        // Raw (unscaled) on-CPU time across attempts, for the trace.
        let mut cpu = Duration::ZERO;
        let mut skew = pc.tracing.then(|| SkewHistogram::new(job.num_reducers));
        loop {
            let t0 = TaskTimer::start();
            // Retries reuse the row buffers (cleared, capacity kept).
            for buf in &mut out.row {
                buf.clear();
            }
            if let Some(sk) = skew.as_mut() {
                sk.reset();
            }
            let mut inputs: Vec<MapInput> = Vec::new();
            let mut records_in: u64 = 0;
            for name in &job.inputs {
                if let Some(frags) = self.node(node).get(name) {
                    for f in frags {
                        records_in += f.data.batch.record_count() as u64;
                        inputs.push(MapInput {
                            name: name.clone(),
                            ordinal: f.ordinal,
                            data: Arc::clone(&f.data),
                        });
                    }
                }
            }
            let ctx = TaskCtx {
                node,
                num_nodes: pc.n,
                num_reducers: job.num_reducers,
                reducer: None,
            };
            let mut emit = Emit {
                partitioner: job.partitioner,
                num_reducers: job.num_reducers,
                schema: &job.map_output_schema,
                compress_key: job.compress_key,
                row: &mut out.row,
                skew: skew.as_mut(),
                pairs: 0,
                row_schema: None,
            };
            job.mapper.map(&ctx, &inputs, &mut emit)?;
            let pair_count = emit.pairs as u64;
            let raw = t0.elapsed();
            cpu += raw;
            let elapsed = scale_compute(raw, pc.stragglers[node]);
            out.phase_time += elapsed;

            if crashes_left > 0 {
                // The node died before committing its map output: the
                // attempt's compute is lost (charged above, and counted as
                // re-execution overhead). The replica restore is simulated
                // read-only — it would put back the very `Arc`s the store
                // holds — so only its accounting reaches the barrier.
                crashes_left -= 1;
                self.simulate_crash(pc, TaskPhase::Map, node, &mut out.recovery, &mut out.events)?;
                out.recovery.reexec_task_time += elapsed;
                if attempt >= pc.retry.max_attempts {
                    return Err(MrError::TaskAborted {
                        job: job.name.clone(),
                        node,
                        phase: TaskPhase::Map,
                        attempts: attempt,
                        source: Box::new(MrError::RetriesExhausted {
                            attempts: attempt,
                            stats: Box::new(out.recovery.clone()),
                        }),
                    });
                }
                let backoff = pc.retry.backoff_for(attempt);
                out.phase_time += backoff;
                out.recovery.tasks_retried += 1;
                out.recovery.backoff_time += backoff;
                out.events.push(RecoveryAction::TaskRetried {
                    job: job.name.clone(),
                    node,
                    phase: TaskPhase::Map,
                    attempt: attempt + 1,
                    backoff,
                });
                attempt += 1;
                continue;
            }

            out.compute = elapsed;
            out.records_in = records_in;
            out.pairs = pair_count;
            if pc.tracing {
                let encoded: u64 = out.row.iter().map(|b| b.len() as u64).sum();
                let counters = Counters {
                    records_in,
                    pairs: pair_count,
                    retries: out.recovery.tasks_retried as u64,
                    crashes: out.recovery.faults_injected as u64,
                    restore_bytes: out.recovery.restore_bytes,
                    restore_messages: out.recovery.restore_messages,
                    backoff_ns: duration_ns(out.recovery.backoff_time),
                    ..Counters::default()
                };
                out.trace = Some(TaskTrace {
                    node,
                    virt: out.phase_time,
                    cpu,
                    det_ns: task_det_ns(pc, attempt, records_in, pair_count, encoded, &counters),
                    counters,
                });
                out.skew = skew.take();
            }
            return Ok(out);
        }
    }

    /// One node's reduce task: decode its inbox, sort, reduce per owned
    /// reducer id, retrying under pre-drawn crash faults. Runs on a worker
    /// thread with only `&self`; outputs are committed by the driver.
    fn reduce_task(
        &self,
        pc: &PhaseCtx<'_>,
        node: usize,
        inbox: &[(usize, Vec<u8>)],
        map_compute: Duration,
    ) -> Result<ReduceOutcome> {
        let job = pc.job;
        let mut out = ReduceOutcome {
            outputs: Vec::new(),
            phase_time: Duration::ZERO,
            records_out: 0,
            recovery: RecoveryStats::default(),
            events: Vec::new(),
            hot: HotPathStats::default(),
            trace: None,
        };
        // Threads left over beyond one per node parallelize this node's
        // sort — the node's core budget, like papar-sort's contract wants.
        let sort_threads = (pc.threads / pc.n).max(1);
        let mut crashes_left = pc.crashes[node];
        let mut attempt: u32 = 1;
        // Raw (unscaled) on-CPU time across attempts, for the trace.
        let mut cpu = Duration::ZERO;
        // The exchange builds inboxes sender-ascending; the scan index
        // stands in for `(mapper, seq)` only because of that.
        debug_assert!(inbox.windows(2).all(|w| w[0].0 < w[1].0));
        // Sort buffers survive retry attempts (cleared, capacity kept) and
        // are pre-sized to the exact pair count by an allocation-free skip
        // scan, so the first attempt never grows from empty.
        let mut locs: Vec<PairLoc> = Vec::new();
        let mut packed: Vec<u128> = Vec::new();
        if let Some(count) = count_inbox_pairs(inbox, &job.map_output_schema, job.compress_key) {
            locs.reserve_exact(count);
            packed.reserve_exact(count);
        }
        loop {
            let t0 = TaskTimer::start();
            // Outputs are buffered and only committed if the task survives
            // its boundary — a crashed attempt leaves nothing.
            let ReduceAttempt {
                outputs,
                records_out,
                pair_count,
                hot,
            } = self.reduce_attempt(pc, node, inbox, &mut locs, &mut packed, sort_threads)?;
            let raw = t0.elapsed();
            cpu += raw;
            let elapsed = scale_compute(raw, pc.stragglers[node]);
            out.phase_time += elapsed;

            if crashes_left > 0 {
                // Crash mid-shuffle: the reduce attempt's work and the
                // node's in-memory inbox are gone. Remote mappers held
                // their send buffers and retransmit them; the node's own
                // map output is regenerated by re-running its map task
                // (same deterministic bytes, so the retry below reuses
                // `inbox` while the clock pays for the re-fetch).
                crashes_left -= 1;
                self.simulate_crash(
                    pc,
                    TaskPhase::Reduce,
                    node,
                    &mut out.recovery,
                    &mut out.events,
                )?;
                out.recovery.reexec_task_time += elapsed;
                let (rbytes, rmsgs) = inbox
                    .iter()
                    .filter(|(from, _)| *from != node)
                    .fold((0u64, 0u64), |(b, m), (_, buf)| {
                        (b + buf.len() as u64, m + 1)
                    });
                if rmsgs > 0 {
                    out.recovery.retransmit_bytes += rbytes;
                    out.recovery.retransmit_messages += rmsgs;
                    out.events.push(RecoveryAction::InboxRefetched {
                        job: job.name.clone(),
                        node,
                        bytes: rbytes,
                        messages: rmsgs,
                    });
                }
                if inbox.iter().any(|(from, _)| *from == node) {
                    // Re-running the local map task costs its compute.
                    out.phase_time += map_compute;
                    out.recovery.reexec_task_time += map_compute;
                }
                if attempt >= pc.retry.max_attempts {
                    return Err(MrError::TaskAborted {
                        job: job.name.clone(),
                        node,
                        phase: TaskPhase::Reduce,
                        attempts: attempt,
                        source: Box::new(MrError::RetriesExhausted {
                            attempts: attempt,
                            stats: Box::new(out.recovery.clone()),
                        }),
                    });
                }
                let backoff = pc.retry.backoff_for(attempt);
                out.phase_time += backoff;
                out.recovery.tasks_retried += 1;
                out.recovery.backoff_time += backoff;
                out.events.push(RecoveryAction::TaskRetried {
                    job: job.name.clone(),
                    node,
                    phase: TaskPhase::Reduce,
                    attempt: attempt + 1,
                    backoff,
                });
                attempt += 1;
                continue;
            }

            out.records_out = records_out;
            out.outputs = outputs;
            out.hot = hot;
            if pc.tracing {
                let inbox_bytes: u64 = inbox.iter().map(|(_, b)| b.len() as u64).sum();
                let counters = Counters {
                    records_out,
                    pairs: pair_count,
                    retries: out.recovery.tasks_retried as u64,
                    crashes: out.recovery.faults_injected as u64,
                    restore_bytes: out.recovery.restore_bytes,
                    restore_messages: out.recovery.restore_messages,
                    retransmit_bytes: out.recovery.retransmit_bytes,
                    retransmit_messages: out.recovery.retransmit_messages,
                    backoff_ns: duration_ns(out.recovery.backoff_time),
                    staged_bytes: out.hot.staged_bytes,
                    staged_allocs: out.hot.staged_allocs,
                    materialized_bytes: out.hot.materialized_bytes,
                    tie_pairs: out.hot.tie_pairs,
                    ..Counters::default()
                };
                out.trace = Some(TaskTrace {
                    node,
                    virt: out.phase_time,
                    cpu,
                    det_ns: task_det_ns(
                        pc,
                        attempt,
                        records_out,
                        pair_count,
                        inbox_bytes,
                        &counters,
                    ),
                    counters,
                });
            }
            return Ok(out);
        }
    }

    /// One reduce attempt: scan the inbox once into a 16-byte location
    /// index plus packed 128-bit sort keys, sort *those*, fix up inexact
    /// prefix ties, then hand each reducer its span of the sorted order
    /// as a borrowed [`Pairs`], from which it decodes each pair exactly
    /// once, straight into its output.
    fn reduce_attempt(
        &self,
        pc: &PhaseCtx<'_>,
        node: usize,
        inbox: &[(usize, Vec<u8>)],
        locs: &mut Vec<PairLoc>,
        packed: &mut Vec<u128>,
        sort_threads: usize,
    ) -> Result<ReduceAttempt> {
        let job = pc.job;
        let n = pc.n;
        let schema: &Schema = &job.map_output_schema;
        let mut hot = HotPathStats::default();
        locs.clear();
        packed.clear();
        // Flat records per owned reducer (slot `rid / n`): every reducer
        // can size its output exactly before it decodes.
        let mut records_by_slot = vec![0usize; job.num_reducers.div_ceil(n)];
        let mut any_inexact = false;
        for (bi, (_from, buf)) in inbox.iter().enumerate() {
            let mut r = Reader::new(buf);
            while r.remaining() > 0 {
                let reducer = r.read_u32().map_err(MrError::from)?;
                if reducer as usize >= job.num_reducers {
                    return Err(MrError::PartitionOutOfRange {
                        id: reducer.into(),
                        num_reducers: job.num_reducers,
                    });
                }
                // `seq` is never read: senders ascend and each sender's
                // pairs arrive in emission order, so the scan index already
                // orders like `(mapper, seq)`.
                r.read_bytes(4).map_err(MrError::from)?;
                let key_off = r.position();
                let key66 = if job.sort_by_key {
                    let kp = prefix::from_wire(&mut r)?;
                    any_inexact |= !kp.exact;
                    if job.descending {
                        // Inverting the 66-bit field reverses strict prefix
                        // order but preserves prefix equality, so tie runs
                        // are detected identically.
                        kp.packed66() ^ KEY66_MASK
                    } else {
                        kp.packed66()
                    }
                } else {
                    wire::skip_value(&mut r)?;
                    0
                };
                let key_len = wire_u32("key length", r.position() - key_off)?;
                let entry = EntryView::parse(&mut r, schema, job.compress_key)?;
                records_by_slot[reducer as usize / n] += entry.record_count();
                // The pair's bytes, which its reducer decodes exactly once.
                hot.materialized_bytes += (r.position() - key_off) as u64;
                let idx = locs.len();
                if idx > IDX_MASK as usize {
                    return Err(MrError::WireOverflow {
                        field: "pair index",
                        value: idx,
                        max: IDX_MASK as u64,
                    });
                }
                locs.push(PairLoc {
                    buf: bi as u32,
                    key_len,
                    key_off: key_off as u64,
                });
                packed.push(pack_pair(reducer, key66, idx));
            }
        }
        // What sorting moves: one PairLoc + one packed key per pair.
        hot.staged_bytes =
            (locs.len() * (std::mem::size_of::<PairLoc>() + std::mem::size_of::<u128>())) as u64;
        papar_sort::packed::par_sort_packed(packed, sort_threads);
        if job.sort_by_key {
            fixup_prefix_ties(job.descending, any_inexact, inbox, locs, packed, &mut hot)?;
        }
        // Hand every owned reducer its span of the sorted order.
        let slots = 1 + pc.extra_outputs.len();
        let reduce = |rid: usize, pairs: Pairs<'_>| {
            let ctx = TaskCtx {
                node,
                num_nodes: n,
                num_reducers: job.num_reducers,
                reducer: Some(rid),
            };
            reduce_slots(job, &ctx, pairs, slots)
        };
        let mut outputs: Vec<(u32, Vec<Batch>)> = Vec::new();
        let mut records_out: u64 = 0;
        let mut handled: Vec<bool> = vec![false; job.num_reducers];
        let mut i = 0usize;
        while i < packed.len() {
            let rid = (packed[i] >> (66 + IDX_BITS)) as usize;
            let mut j = i + 1;
            while j < packed.len() && (packed[j] >> (66 + IDX_BITS)) as usize == rid {
                j += 1;
            }
            let pairs = Pairs::new(
                inbox,
                locs,
                &packed[i..j],
                schema,
                job.compress_key,
                records_by_slot[rid / n],
            );
            let batches = reduce(rid, pairs)?;
            records_out += batches.iter().map(|b| b.record_count() as u64).sum::<u64>();
            handled[rid] = true;
            outputs.push((rid as u32, batches));
            i = j;
        }
        // Reducers that received nothing still own an (empty) output
        // fragment, so a distribute job always materializes every partition.
        for rid in (node..job.num_reducers).step_by(n) {
            if !handled[rid] {
                let pairs = Pairs::empty(schema, job.compress_key);
                outputs.push((rid as u32, reduce(rid, pairs)?));
            }
        }
        Ok(ReduceAttempt {
            outputs,
            records_out,
            pair_count: locs.len() as u64,
            hot,
        })
    }

    /// Simulate a node crash at a task boundary without mutating a store:
    /// account the fault and the replica restore into the worker's local
    /// recovery delta and event log, or fail with [`MrError::DataLoss`]
    /// when a fragment is unrecoverable — exactly like the mutating
    /// sequential path did (see [`Cluster::plan_crash_restore`]).
    fn simulate_crash(
        &self,
        pc: &PhaseCtx<'_>,
        phase: TaskPhase,
        node: usize,
        recovery: &mut RecoveryStats,
        events: &mut Vec<RecoveryAction>,
    ) -> Result<()> {
        recovery.faults_injected += 1;
        events.push(RecoveryAction::FaultInjected {
            job: pc.job.name.clone(),
            fault: Fault::NodeCrash {
                node,
                job: pc.job_idx,
                phase,
            },
        });
        let (fragments, bytes) = self.plan_crash_restore(node)?;
        recovery.restore_bytes += bytes;
        recovery.restore_messages += fragments as u64;
        events.push(RecoveryAction::FragmentsRestored {
            job: pc.job.name.clone(),
            node,
            fragments,
            bytes,
        });
        Ok(())
    }
}

/// Apply a straggler's slowdown to a measured compute time.
fn scale_compute(elapsed: Duration, factor: f64) -> Duration {
    if factor > 1.0 {
        elapsed.mul_f64(factor)
    } else {
        elapsed
    }
}

/// A task's duration on the trace's deterministic clock: every executed
/// attempt pays the modeled compute for the task's work counters, plus
/// the (deterministic) backoff waits and the modeled time of the task's
/// replica-restore and retransmission traffic.
fn task_det_ns(
    pc: &PhaseCtx<'_>,
    attempts: u32,
    records: u64,
    pairs: u64,
    bytes: u64,
    c: &Counters,
) -> u64 {
    u64::from(attempts)
        .saturating_mul(pc.cost.compute_ns(records, pairs, bytes))
        .saturating_add(c.backoff_ns)
        .saturating_add(duration_ns(
            pc.net.transfer_time(c.restore_messages, c.restore_bytes),
        ))
        .saturating_add(duration_ns(
            pc.net
                .transfer_time(c.retransmit_messages, c.retransmit_bytes),
        ))
}

/// Assemble a finished engine job's trace. The map/reduce phases close
/// over their per-node task spans (barrier semantics: slowest task's
/// time); the shuffle phase carries the exchange volume plus the
/// *exchange-level* share of the job's recovery traffic — the job total
/// minus what the reduce tasks already booked as inbox re-fetches, so
/// counters sum without double-counting up the span tree.
fn job_trace(
    stats: &JobStats,
    net: &NetModel,
    map_tasks: Vec<TaskTrace>,
    reduce_tasks: Vec<TaskTrace>,
    skew: Option<SkewHistogram>,
) -> JobTrace {
    let rec = &stats.recovery;
    let task_retrans_bytes: u64 = reduce_tasks
        .iter()
        .map(|t| t.counters.retransmit_bytes)
        .sum();
    let task_retrans_msgs: u64 = reduce_tasks
        .iter()
        .map(|t| t.counters.retransmit_messages)
        .sum();
    let ex_retrans_bytes = rec.retransmit_bytes.saturating_sub(task_retrans_bytes);
    let ex_retrans_msgs = rec.retransmit_messages.saturating_sub(task_retrans_msgs);
    let counters = Counters {
        shuffle_bytes: stats.exchange.remote_bytes,
        messages: stats.exchange.remote_messages,
        frames_checksummed: stats.exchange.remote_messages + rec.retransmit_messages,
        retransmit_bytes: ex_retrans_bytes,
        retransmit_messages: ex_retrans_msgs,
        replication_bytes: rec.replication_bytes,
        ..Counters::default()
    };
    let det = duration_ns(stats.exchange.comm_time(net))
        .saturating_add(duration_ns(
            net.transfer_time(ex_retrans_msgs, ex_retrans_bytes),
        ))
        .saturating_add(duration_ns(
            net.transfer_time(rec.replication_messages, rec.replication_bytes),
        ));
    JobTrace {
        name: stats.name.clone(),
        phases: vec![
            PhaseTrace::barrier(PhaseKind::Map, map_tasks),
            PhaseTrace::solo(PhaseKind::Shuffle, stats.comm_time, det, counters),
            PhaseTrace::barrier(PhaseKind::Reduce, reduce_tasks),
        ],
        skew,
        covers: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::input::FieldType;
    use papar_record::batch::Rows;
    use proptest::prelude::*;

    /// The outbox row a map task leaves after pushing `entries` in order.
    fn emitted<'e>(schema: &Schema, entries: impl Iterator<Item = EntryRef<'e>>) -> Vec<Vec<u8>> {
        let mut row = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut emit = Emit {
            partitioner: &HashPartitioner,
            num_reducers: 5,
            schema,
            compress_key: None,
            row: &mut row,
            skew: None,
            pairs: 0,
            row_schema: None,
        };
        for (i, entry) in entries.enumerate() {
            emit.push(&Value::Long(i as i64 * 7919), entry).unwrap();
        }
        row
    }

    const TYPES: [FieldType; 3] = [FieldType::Integer, FieldType::Long, FieldType::Double];

    proptest! {
        /// A row emits exactly the bytes its decoded record does: under its
        /// own schema, under an equal schema behind another pointer, and
        /// under another schema (where it decodes and encodes).
        #[test]
        fn rows_and_records_emit_the_same_outbox_bytes(
            types in prop::collection::vec(0usize..3, 1..7),
            cells in prop::collection::vec((any::<i32>(), any::<i64>(), any::<f64>()), 0..24),
        ) {
            let fields: Vec<_> = (types.iter().enumerate())
                .map(|(i, &t)| (format!("f{i}"), TYPES[t]))
                .collect();
            let schema = Arc::new(Schema::new(fields.clone()));
            let records: Vec<Record> = cells
                .iter()
                .map(|&(a, b, c)| {
                    Record::new(
                        (types.iter())
                            .map(|&t| match TYPES[t] {
                                FieldType::Integer => Value::Int(a),
                                FieldType::Long => Value::Long(b),
                                _ => Value::Double(c),
                            })
                            .collect(),
                    )
                })
                .collect();
            let mut bytes = Vec::new();
            for r in &records {
                wire::encode_record(r, &schema, &mut bytes).unwrap();
            }
            let rows = Batch::Rows(Rows::new(schema.clone(), bytes).unwrap());
            let flat = Batch::Flat(records);
            let want = emitted(&schema, EntryRef::all(&flat));
            prop_assert_eq!(emitted(&schema, EntryRef::all(&rows)), want.clone());
            let equal = Schema::new(fields.clone());
            prop_assert_eq!(emitted(&equal, EntryRef::all(&rows)), want.clone());
            let renamed = Schema::new(
                (fields.into_iter())
                    .map(|(name, ty)| (format!("{name}_"), ty))
                    .collect(),
            );
            prop_assert_eq!(
                emitted(&renamed, EntryRef::all(&rows)),
                emitted(&renamed, EntryRef::all(&flat))
            );
        }
    }
}
