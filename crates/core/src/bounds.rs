//! Static interval bounds over physical plans (abstract interpretation).
//!
//! Every PaPar operator is a *permutation* of its input multiset (sort,
//! group, distribute) or a *partition* of it (split), so record counts —
//! and everything derived from them — can be bounded before any data is
//! read. This module propagates an interval abstract domain through a
//! lowered [`PhysicalPlan`]:
//!
//! * **records** `[lo, hi]` — member records of a dataset / phase counter;
//! * **entries** `[lo, hi]` — shuffle units (flat records or packed
//!   groups), what the index-routed distribute policies actually route;
//! * **bytes** `[lo, hi]` — wire-encoded size ([`papar_record::wire`]);
//! * **distinct** `[lo, hi]` — distinct values of any single field;
//! * per-stage **max-load** `[lo, hi]` — member records on the busiest
//!   reducer, with the pigeonhole `ceil(records.lo / R)` as the floor and
//!   the routing policy deciding the ceiling (index-routed policies slice
//!   evenly; value-routed ones admit everything on one reducer).
//!
//! `u64::MAX` is the ⊤ sentinel: an unbounded `hi` absorbs arithmetic and
//! renders as `?`. Soundness contract (enforced at runtime by the
//! executor's debug-mode verifier and by `tests/bounds_soundness.rs`):
//! every counter the engine observes lies inside its static interval for
//! *every* launch admitted by the source bounds. Transfer functions may
//! be arbitrarily imprecise (custom operators are ⊤ everywhere) but never
//! exclude a reachable value.
//!
//! A fused stage is not interpreted on its own: its bounds are composed
//! from its two jobs' (the engine job is the first one's; the outputs and
//! partition layout are the second's), so the fused and unfused plans are
//! priced by the same transfer functions. A fused sort→distribute's data
//! choose its path at run time, so its counters are the hull of its two
//! jobs run in sequence (the fallback: pairs and shuffle bytes add) and
//! of the distribute priced over the sort's input (the rank shuffle).
//! DESIGN.md §13 documents the domain and the soundness argument.

use std::collections::BTreeMap;

use papar_config::input::FieldType;
use papar_record::Schema;

use crate::physplan::{PhysicalPlan, StageKind};
use crate::plan::{DatasetMeta, Format, JobKind, JobPlan, WorkflowPlan};
use crate::policy::DistrPolicy;

/// The ⊤ sentinel for an unbounded interval endpoint.
pub const UNBOUNDED: u64 = u64::MAX;

/// A closed interval `[lo, hi]` over `u64`, with `hi == UNBOUNDED` meaning
/// "no upper bound". Arithmetic saturates and ⊤ absorbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound (`UNBOUNDED` = ⊤).
    pub hi: u64,
}

impl Interval {
    /// The exact singleton `[n, n]`.
    pub fn exact(n: u64) -> Self {
        Interval { lo: n, hi: n }
    }

    /// `[lo, hi]`; callers must keep `lo <= hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Interval { lo, hi }
    }

    /// The unknown interval `[0, ⊤]`.
    pub fn top() -> Self {
        Interval {
            lo: 0,
            hi: UNBOUNDED,
        }
    }

    /// The exact zero `[0, 0]`.
    pub fn zero() -> Self {
        Interval::exact(0)
    }

    /// True when the upper bound is finite.
    pub fn is_bounded(&self) -> bool {
        self.hi != UNBOUNDED
    }

    /// True when the interval is a singleton.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// True when `v` lies inside the interval.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval sum; ⊤ absorbs, everything saturates.
    pub fn add(&self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: if self.hi == UNBOUNDED || o.hi == UNBOUNDED {
                UNBOUNDED
            } else {
                self.hi.saturating_add(o.hi)
            },
        }
    }

    /// Multiply both ends by a constant; ⊤ absorbs.
    pub fn mul(&self, k: u64) -> Interval {
        Interval {
            lo: self.lo.saturating_mul(k),
            hi: if self.hi == UNBOUNDED {
                UNBOUNDED
            } else {
                self.hi.saturating_mul(k)
            },
        }
    }

    /// Cap the upper bound at `cap` (meet with `[0, cap]` on the high
    /// side), keeping `lo` consistent.
    pub fn cap_hi(&self, cap: u64) -> Interval {
        let hi = self.hi.min(cap);
        Interval {
            lo: self.lo.min(hi),
            hi,
        }
    }

    /// The least interval holding both: what either of two paths counts.
    pub fn hull(&self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Apply a monotone nondecreasing map to both endpoints (the image of
    /// an interval under a monotone map is an interval).
    pub fn map_monotone(&self, f: impl Fn(u64) -> u64) -> Interval {
        Interval {
            lo: f(self.lo),
            hi: if self.hi == UNBOUNDED {
                UNBOUNDED
            } else {
                f(self.hi)
            },
        }
    }
}

impl std::fmt::Display for Interval {
    /// `1000` when exact, `[2, 8]` when bounded, `[0, ?]` at ⊤.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            write!(f, "{}", self.lo)
        } else if self.is_bounded() {
            write!(f, "[{}, {}]", self.lo, self.hi)
        } else {
            write!(f, "[{}, ?]", self.lo)
        }
    }
}

/// Declared bounds of one external input dataset.
#[derive(Debug, Clone, Copy)]
pub struct SourceBounds {
    /// Member records of the scattered dataset.
    pub records: Interval,
    /// Distinct values of any single field (⊤ when no hint; the pass
    /// meets it with the record count anyway).
    pub distinct: Interval,
}

impl SourceBounds {
    /// An exact record count with no distinct-key hint.
    pub fn exact(records: u64) -> Self {
        SourceBounds {
            records: Interval::exact(records),
            distinct: Interval::top(),
        }
    }
}

/// Inputs to the interpretation.
#[derive(Debug, Clone, Default)]
pub struct BoundsOptions {
    /// Cluster size the plan was lowered for.
    pub num_nodes: usize,
    /// Per-dataset source bounds; datasets without an entry start at ⊤.
    pub sources: BTreeMap<String, SourceBounds>,
}

/// Bounds of one dataset as materialized in the cluster store.
#[derive(Debug, Clone, Copy)]
pub struct DatasetBounds {
    /// Member records across all fragments.
    pub records: Interval,
    /// Entries (flat records, or packed groups) across all fragments.
    pub entries: Interval,
    /// Total `wire::encode_batch` bytes across all fragments.
    pub bytes: Interval,
    /// Distinct values of any single field.
    pub distinct: Interval,
    /// The most fragments the dataset can be stored as
    /// ([`UNBOUNDED`] when unknown).
    pub fragments: u64,
    /// The split this dataset is a branch of, when it is one.
    pub branch: Option<Branch>,
}

/// A split's branch: every record of the split's input lands on exactly
/// one of its branches (an unmatched key is a runtime error, not a drop),
/// so branches read together hold at most the split's records, and all of
/// them exactly its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Branch {
    /// The split job's index in the plan.
    pub split: usize,
    /// How many branches the split has.
    pub of: usize,
    /// The records the split routes.
    pub records: Interval,
}

impl DatasetBounds {
    fn top() -> Self {
        DatasetBounds {
            records: Interval::top(),
            entries: Interval::top(),
            bytes: Interval::top(),
            distinct: Interval::top(),
            fragments: UNBOUNDED,
            branch: None,
        }
    }
}

/// Per-partition bounds of a distribute stage's output layout.
#[derive(Debug, Clone)]
pub struct PartitionBounds {
    /// Entries dealt over the partitions.
    pub entries: Interval,
    /// Entry-count interval of each output partition, in partition order.
    pub per_partition: Vec<Interval>,
    /// How many partitions are provably empty (`hi == 0`) for every
    /// launch the source bounds admit.
    pub provably_empty: usize,
    /// Worst-case busiest-partition records over the fair share
    /// (`max_load.hi * partitions / records.hi`), when both are bounded
    /// and nonzero.
    pub imbalance_hi: Option<f64>,
}

/// Static bounds of one physical stage, in the units the engine counts.
#[derive(Debug, Clone)]
pub struct StageBounds {
    /// Stage id (`sort`, `sort+distr`, ...).
    pub id: String,
    /// Reducer count of the stage's engine job (0 for map-only split
    /// stages, which never shuffle).
    pub reducers: usize,
    /// `JobStats::records_in`.
    pub records_in: Interval,
    /// `JobStats::records_out`.
    pub records_out: Interval,
    /// `JobStats::pairs_shuffled`.
    pub pairs: Interval,
    /// `ExchangeStats::remote_bytes` of the shuffle.
    pub shuffle_bytes: Interval,
    /// Member records on the busiest reducer (the skew histogram's max).
    pub max_load: Interval,
    /// `(dataset, bounds)` for every output this stage materializes.
    pub outputs: Vec<(String, DatasetBounds)>,
    /// Present on stages whose final step is an index- or value-routed
    /// distribute (single or fused).
    pub partitions: Option<PartitionBounds>,
}

/// The whole interpretation: per-stage bounds plus dataflow facts.
#[derive(Debug, Clone)]
pub struct WorkflowBounds {
    /// One entry per physical stage, in launch order.
    pub stages: Vec<StageBounds>,
    /// Final per-dataset bounds (sources and every materialized output).
    pub datasets: BTreeMap<String, DatasetBounds>,
}

impl WorkflowBounds {
    /// Bounds of the stage with the given id, if any.
    pub fn stage(&self, id: &str) -> Option<&StageBounds> {
        self.stages.iter().find(|s| s.id == id)
    }
}

/// Wire width of one *untagged* record under `schema`
/// ([`papar_record::wire::encode_record`]): `(min, max)`, `max == None`
/// when a `Str` field makes it unbounded.
fn record_width(schema: &Schema) -> (u64, Option<u64>) {
    let mut lo = 0u64;
    let mut hi = Some(0u64);
    for f in schema.fields() {
        let (l, h) = match f.ty {
            FieldType::Integer => (4, Some(4)),
            FieldType::Long | FieldType::Double => (8, Some(8)),
            // A Str field always writes its length varint: one byte for
            // the empty string, more for longer ones, so no upper bound.
            FieldType::Str => (1, None),
        };
        lo += l;
        hi = match (hi, h) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
    }
    (lo, hi)
}

/// Wire width of one *tagged* value of field type `ty`
/// ([`papar_record::wire::encode_value`]).
fn value_width(ty: FieldType) -> (u64, Option<u64>) {
    match ty {
        FieldType::Integer => (5, Some(5)),
        FieldType::Long | FieldType::Double => (9, Some(9)),
        FieldType::Str => (2, None),
    }
}

/// `ceil(n / k)` with `k >= 1`, as the pigeonhole floor and the
/// even-slice ceiling both need it.
fn div_ceil(n: u64, k: u64) -> u64 {
    if k == 0 {
        n
    } else {
        n.div_ceil(k)
    }
}

/// The entry interval a dataset of `meta`'s format holds for `records`
/// member records, given a distinct-key bound: flat entries are records;
/// packed entries are key groups, at most one per distinct key.
fn entries_of(meta: &DatasetMeta, records: Interval, distinct: Interval) -> Interval {
    match meta.format {
        Format::Flat => records,
        Format::Packed => Interval {
            lo: u64::from(records.lo > 0),
            hi: records.hi.min(distinct.hi),
        },
    }
}

/// Bytes interval of a materialized dataset: per-record content plus
/// packed-group and batch framing overhead. `frag_hi` bounds the fragment
/// count (each fragment pays the 5-byte batch header).
fn bytes_of(meta: &DatasetMeta, records: Interval, entries: Interval, frag_hi: u64) -> Interval {
    let (w_lo, w_hi) = record_width(&meta.schema);
    let lo = records.lo.saturating_mul(w_lo);
    let hi = match w_hi {
        None => UNBOUNDED,
        Some(w) => {
            if records.hi == UNBOUNDED {
                UNBOUNDED
            } else {
                let mut h = records.hi.saturating_mul(w).saturating_add(
                    // 1-byte batch tag + 4-byte count per fragment.
                    frag_hi.saturating_mul(5),
                );
                if meta.format == Format::Packed {
                    let key_w = meta
                        .packed_key
                        .and_then(|k| meta.schema.fields().get(k))
                        .map(|f| value_width(f.ty).1)
                        .unwrap_or(None);
                    match (key_w, entries.hi == UNBOUNDED) {
                        // Tagged group key + 4-byte member count per group.
                        (Some(kw), false) => {
                            h = h.saturating_add(entries.hi.saturating_mul(kw + 4))
                        }
                        _ => return Interval { lo, hi: UNBOUNDED },
                    }
                }
                h
            }
        }
    };
    Interval { lo, hi }
}

/// Distinct-value bound of an output holding `records` member records
/// whose values come from inputs with a combined distinct bound: field
/// values are preserved (and add-on aggregates take at most one value per
/// key group), so the union bound meets the record count.
fn distinct_of(records: Interval, in_distinct: Interval) -> Interval {
    Interval {
        lo: u64::from(records.lo > 0),
        hi: records.hi.min(in_distinct.hi),
    }
}

/// Entry count of partition `p` (0-based) when `e` entries are routed by
/// global index under `policy` over `m` partitions. Monotone
/// nondecreasing in `e` for both policies, which is what lets the
/// interval transfer go endpoint-wise.
fn indexed_partition_count(policy: DistrPolicy, e: u64, p: u64, m: u64) -> u64 {
    match policy {
        // Partition p holds indices p, p+m, p+2m, ...
        DistrPolicy::Cyclic => {
            if e > p {
                div_ceil(e - p, m)
            } else {
                0
            }
        }
        // Contiguous chunks; the first e % m chunks take the remainder.
        DistrPolicy::Block => {
            let base = e / m;
            let extra = e % m;
            base + u64::from(p < extra)
        }
        DistrPolicy::GraphVertexCut => unreachable!("value-routed policy has no index form"),
    }
}

/// Upper bound on one shuffle's `remote_bytes`. A pair carries no key of
/// its own — a sort or group key is a field of the entry, and distribute
/// sends none — and no tag: flat entries are a record as it ships (a
/// distribute's projected onto its output format), packed entries the
/// group key, a count and the members. Each (sender, reducer) segment pays
/// an 8-byte header once, so segment headers cost at most 8 B per pair and
/// per each of the `segments` (nodes × reducers) segments. Each run pays a
/// 13-byte header; a run holds a pair, and a segment opens a run only at a
/// fragment boundary (a new base, or a new entry tag, which a fragment
/// never changes), so runs number at most the pairs and `fragments ×
/// reducers`. Compression (CSC) only shrinks, so it is ignored.
fn shuffle_hi(
    job: &JobPlan,
    records: Interval,
    pairs: Interval,
    fragments: u64,
    reducers: usize,
    segments: u64,
) -> u64 {
    if records.hi == UNBOUNDED || pairs.hi == UNBOUNDED {
        return UNBOUNDED;
    }
    // A distribute that drops fields ships its records projected.
    let projected = match &job.kind {
        JobKind::Distribute { .. } => crate::stage::distribute_kind(job).ok().and_then(|k| k.2),
        _ => None,
    };
    let shipped = projected.map(|proj| crate::stage::project_schema(&job.input_meta.schema, &proj));
    let mut rec_w = 0u64;
    let mut packed_key_w = 0u64;
    let mut any_packed = false;
    for meta in &job.input_metas {
        match record_width(shipped.as_deref().unwrap_or(&meta.schema)).1 {
            Some(w) => rec_w = rec_w.max(w),
            None => return UNBOUNDED,
        }
        if meta.format == Format::Packed {
            any_packed = true;
            let kwp = meta
                .packed_key
                .and_then(|k| meta.schema.fields().get(k))
                .and_then(|f| value_width(f.ty).1);
            match kwp {
                Some(w) => packed_key_w = packed_key_w.max(w),
                None => return UNBOUNDED,
            }
        }
    }
    let per_pair = if any_packed { packed_key_w + 4 } else { 0 };
    let runs = fragments.saturating_mul(reducers as u64);
    pairs
        .hi
        .saturating_mul(per_pair)
        .saturating_add(records.hi.saturating_mul(rec_w))
        .saturating_add(pairs.hi.min(segments).saturating_mul(8))
        .saturating_add(pairs.hi.min(runs).saturating_mul(13))
}

/// The most (sender, reducer) segments one shuffle can carry.
fn segments(opts: &BoundsOptions, reducers: usize) -> u64 {
    (opts.num_nodes.max(1) as u64).saturating_mul(reducers as u64)
}

/// Sum the bounds of a job's input datasets (⊤ for anything unknown).
/// Branches of one split are summed apart, then bounded jointly
/// ([`Branch`]): records, entries and distinct values at most the split's
/// records, and records at least its records when the job reads every
/// branch.
fn sum_inputs(env: &BTreeMap<String, DatasetBounds>, job: &JobPlan) -> DatasetBounds {
    let zero = DatasetBounds {
        records: Interval::zero(),
        entries: Interval::zero(),
        bytes: Interval::zero(),
        distinct: Interval::zero(),
        fragments: 0,
        branch: None,
    };
    let mut acc = zero;
    // Per split read: its branch, the branches read and their sums.
    let mut splits: Vec<(Branch, usize, DatasetBounds)> = Vec::new();
    for name in &job.inputs {
        let b = env.get(name).copied().unwrap_or_else(DatasetBounds::top);
        let part = match b.branch {
            Some(branch) => {
                let at = (splits.iter().position(|(s, ..)| s.split == branch.split))
                    .unwrap_or_else(|| {
                        splits.push((branch, 0, zero));
                        splits.len() - 1
                    });
                splits[at].1 += 1;
                &mut splits[at].2
            }
            None => &mut acc,
        };
        part.records = part.records.add(b.records);
        part.entries = part.entries.add(b.entries);
        part.bytes = part.bytes.add(b.bytes);
        // Distinct values of a union: at most the sum of the parts.
        part.distinct = part.distinct.add(b.distinct);
        part.fragments = part.fragments.saturating_add(b.fragments);
    }
    for (branch, read, part) in splits {
        let n = branch.records;
        let mut records = part.records.cap_hi(n.hi);
        if read == branch.of {
            records.lo = records.lo.max(n.lo);
        }
        acc.records = acc.records.add(records);
        acc.entries = acc.entries.add(part.entries.cap_hi(n.hi));
        acc.bytes = acc.bytes.add(part.bytes);
        acc.distinct = acc.distinct.add(part.distinct.cap_hi(n.hi));
        acc.fragments = acc.fragments.saturating_add(part.fragments);
    }
    acc
}

/// The keyed-shuffle max-load interval: pigeonhole floor, and everything
/// on one reducer as the ceiling (a single hot key is always admissible
/// under a value-routed partitioner).
fn keyed_max_load(records: Interval, reducers: usize) -> Interval {
    Interval {
        lo: div_ceil(records.lo, reducers as u64),
        hi: records.hi,
    }
}

/// Interpret `plan`/`phys` under `opts`.
pub fn compute(plan: &WorkflowPlan, phys: &PhysicalPlan, opts: &BoundsOptions) -> WorkflowBounds {
    let nodes = opts.num_nodes.max(1) as u64;
    let mut env: BTreeMap<String, DatasetBounds> = BTreeMap::new();
    for (name, meta) in &plan.external_inputs {
        let src = opts.sources.get(name);
        let records = src.map(|s| s.records).unwrap_or_else(Interval::top);
        let distinct = distinct_of(
            records,
            src.map(|s| s.distinct).unwrap_or_else(Interval::top),
        );
        let entries = entries_of(meta, records, distinct);
        // Scatter splits each input into at most one chunk per node.
        let bytes = bytes_of(meta, records, entries, nodes);
        env.insert(
            name.clone(),
            DatasetBounds {
                records,
                entries,
                bytes,
                distinct,
                fragments: nodes,
                branch: None,
            },
        );
    }

    let mut stages = Vec::with_capacity(phys.stages.len());
    for stage in &phys.stages {
        let id = stage.id.clone();
        let mut sb = match stage.kind {
            StageKind::Single(j) => single_stage(&plan.jobs[j], id, &env, opts),
            StageKind::FusedSortDistribute { sort, distribute } => {
                let (sort, distribute) = (&plan.jobs[sort], &plan.jobs[distribute]);
                let fallback = in_sequence(sort, distribute, id, &env, opts);
                either(fallback, rank_shuffle(sort, distribute, &env, opts))
            }
            StageKind::FusedGroupSplit { group, split } => {
                fused_stage(&plan.jobs[group], &plan.jobs[split], id, &env, opts)
            }
        };
        // A split stage's records out are its input's, each on one branch.
        let split =
            (stage.logical.iter()).find(|&&j| matches!(plan.jobs[j].kind, JobKind::Split { .. }));
        if let Some(&split) = split {
            let (of, records) = (sb.outputs.len(), sb.records_out);
            for (_, b) in &mut sb.outputs {
                b.branch = Some(Branch { split, of, records });
            }
        }
        for (name, b) in &sb.outputs {
            env.insert(name.clone(), *b);
        }
        stages.push(sb);
    }

    WorkflowBounds {
        stages,
        datasets: env,
    }
}

/// Bounds of one unfused stage.
fn single_stage(
    job: &JobPlan,
    id: String,
    env: &BTreeMap<String, DatasetBounds>,
    opts: &BoundsOptions,
) -> StageBounds {
    let input = sum_inputs(env, job);
    let n = input.records;
    match &job.kind {
        JobKind::Sort { .. } | JobKind::Group { .. } => {
            let reducers = job.reducers(opts.num_nodes);
            let meta = &job.outputs[0].1;
            let distinct = distinct_of(n, input.distinct);
            let entries = entries_of(meta, n, distinct);
            let bytes = bytes_of(meta, n, entries, reducers as u64);
            StageBounds {
                id,
                reducers,
                records_in: n,
                records_out: n,
                pairs: input.entries,
                shuffle_bytes: Interval {
                    lo: 0,
                    hi: shuffle_hi(
                        job,
                        n,
                        input.entries,
                        input.fragments,
                        reducers,
                        segments(opts, reducers),
                    ),
                },
                max_load: keyed_max_load(n, reducers),
                outputs: vec![(
                    job.output().to_string(),
                    DatasetBounds {
                        records: n,
                        entries,
                        bytes,
                        distinct,
                        fragments: reducers as u64,
                        branch: None,
                    },
                )],
                partitions: None,
            }
        }
        JobKind::Split { .. } => {
            // Map-only and local: no shuffle, no reducers; every input
            // record lands on exactly one branch (an unmatched key is a
            // runtime error, not a drop).
            let distinct = distinct_of(n, input.distinct);
            let outputs = job
                .outputs
                .iter()
                .map(|(name, meta)| {
                    let records = Interval { lo: 0, hi: n.hi };
                    let d = distinct_of(records, distinct);
                    let entries = entries_of(meta, records, d);
                    let bytes = bytes_of(meta, records, entries, opts.num_nodes.max(1) as u64);
                    (
                        name.clone(),
                        DatasetBounds {
                            records,
                            entries,
                            bytes,
                            distinct: d,
                            fragments: opts.num_nodes.max(1) as u64,
                            branch: None,
                        },
                    )
                })
                .collect();
            StageBounds {
                id,
                reducers: 0,
                records_in: n,
                records_out: n,
                pairs: Interval::zero(),
                shuffle_bytes: Interval::zero(),
                max_load: Interval::zero(),
                outputs,
                partitions: None,
            }
        }
        JobKind::Distribute {
            policy,
            num_partitions,
            ..
        } => distribute_stage(job, id, *policy, *num_partitions, &input, opts),
        JobKind::Custom { .. } => {
            // A custom operator owns its counters; nothing is provable.
            StageBounds {
                id,
                reducers: job.reducers(opts.num_nodes),
                records_in: Interval::top(),
                records_out: Interval::top(),
                pairs: Interval::top(),
                shuffle_bytes: Interval::top(),
                max_load: Interval::top(),
                outputs: job
                    .outputs
                    .iter()
                    .map(|(name, _)| (name.clone(), DatasetBounds::top()))
                    .collect(),
                partitions: None,
            }
        }
    }
}

/// Bounds of a distribute stage (the engine runs it with one reducer per
/// partition, so reducer loads and partition loads coincide).
fn distribute_stage(
    job: &JobPlan,
    id: String,
    policy: DistrPolicy,
    num_partitions: usize,
    input: &DatasetBounds,
    opts: &BoundsOptions,
) -> StageBounds {
    let m = num_partitions.max(1) as u64;
    let n = input.records;
    let e = input.entries;
    let all_flat = job
        .input_metas
        .iter()
        .all(|meta| meta.format == Format::Flat);

    let per_partition: Vec<Interval> = (0..m)
        .map(|p| match policy {
            DistrPolicy::Cyclic | DistrPolicy::Block => {
                e.map_monotone(|v| indexed_partition_count(policy, v, p, m))
            }
            DistrPolicy::GraphVertexCut => Interval { lo: 0, hi: e.hi },
        })
        .collect();
    let provably_empty = per_partition.iter().filter(|i| i.hi == 0).count();

    let max_load = match policy {
        // Index-routed over flat entries: entries are records, sliced
        // evenly; with packed groups a single group caps only entries,
        // so member records fall back to the whole input.
        DistrPolicy::Cyclic | DistrPolicy::Block if all_flat => Interval {
            lo: div_ceil(n.lo, m),
            hi: if n.hi == UNBOUNDED {
                UNBOUNDED
            } else {
                div_ceil(n.hi, m)
            },
        },
        _ => keyed_max_load(n, m as usize),
    };
    // Only meaningful once the fair share reaches one record: below m
    // records the ceiling alone inflates the ratio, and the real finding
    // there is emptiness (W007), not skew.
    let imbalance_hi = if n.hi != UNBOUNDED && n.hi >= m && max_load.hi != UNBOUNDED {
        Some(max_load.hi as f64 * m as f64 / n.hi as f64)
    } else {
        None
    };

    let meta = &job.outputs[0].1;
    let distinct = distinct_of(n, input.distinct);
    let entries = entries_of(meta, n, distinct);
    let bytes = bytes_of(meta, n, entries, m);
    StageBounds {
        id,
        reducers: m as usize,
        records_in: n,
        records_out: n,
        pairs: e,
        shuffle_bytes: Interval {
            lo: 0,
            // Each of the m reducers gets at most one segment per node.
            hi: shuffle_hi(
                job,
                n,
                e,
                input.fragments,
                m as usize,
                segments(opts, m as usize),
            ),
        },
        max_load,
        outputs: vec![(
            job.output().to_string(),
            DatasetBounds {
                records: n,
                entries,
                bytes,
                distinct,
                fragments: m,
                branch: None,
            },
        )],
        partitions: Some(PartitionBounds {
            entries: e,
            per_partition,
            provably_empty,
            imbalance_hi,
        }),
    }
}

/// Bounds of a pair's two jobs: the second reads the first's output from
/// a scratch environment, so the pair's intermediate never becomes a
/// dataset of the pass.
fn pair(
    first: &JobPlan,
    second: &JobPlan,
    id: String,
    env: &BTreeMap<String, DatasetBounds>,
    opts: &BoundsOptions,
) -> (StageBounds, StageBounds) {
    let a = single_stage(first, id, env, opts);
    let mut scratch = env.clone();
    scratch.extend(a.outputs.iter().cloned());
    let b = single_stage(second, String::new(), &scratch, opts);
    (a, b)
}

/// Bounds of a fused group→split stage, composed from its two jobs' own:
/// the engine job is the group's (its reducers, inputs, pairs, shuffle and
/// load), and the outputs are the split's. This is exact: a fused group
/// runs one reducer per node, so the split's per-node fragments are its
/// per-reducer ones.
fn fused_stage(
    first: &JobPlan,
    second: &JobPlan,
    id: String,
    env: &BTreeMap<String, DatasetBounds>,
    opts: &BoundsOptions,
) -> StageBounds {
    let (engine, layout) = pair(first, second, id, env, opts);
    StageBounds {
        outputs: layout.outputs,
        partitions: layout.partitions,
        ..engine
    }
}

/// Bounds of a fused sort→distribute stage that runs its two jobs one
/// after the other: the pairs and shuffle bytes of both rounds add, a
/// reducer of either is the busiest, records in are the sort's, and the
/// outputs and partitions are the distribute's. The reducer count stays
/// the sort's, which the reducer lints read.
fn in_sequence(
    sort: &JobPlan,
    distribute: &JobPlan,
    id: String,
    env: &BTreeMap<String, DatasetBounds>,
    opts: &BoundsOptions,
) -> StageBounds {
    let (a, b) = pair(sort, distribute, id, env, opts);
    StageBounds {
        pairs: a.pairs.add(b.pairs),
        shuffle_bytes: a.shuffle_bytes.add(b.shuffle_bytes),
        max_load: a.max_load.hull(b.max_load),
        records_out: b.records_out,
        outputs: b.outputs,
        partitions: b.partitions,
        ..a
    }
}

/// Bounds of a fused sort→distribute stage's rank shuffle: the distribute
/// run straight over the sort's input — one reducer per partition, the
/// input's fragments as senders.
fn rank_shuffle(
    sort: &JobPlan,
    distribute: &JobPlan,
    env: &BTreeMap<String, DatasetBounds>,
    opts: &BoundsOptions,
) -> StageBounds {
    let mut scratch = env.clone();
    scratch.insert(sort.output().to_string(), sum_inputs(env, sort));
    single_stage(distribute, String::new(), &scratch, opts)
}

/// A stage that takes one of two paths: its counters are the hull of both
/// paths' (the reducer count, the outputs and the partition layout are
/// the first's).
fn either(a: StageBounds, b: StageBounds) -> StageBounds {
    StageBounds {
        records_in: a.records_in.hull(b.records_in),
        records_out: a.records_out.hull(b.records_out),
        pairs: a.pairs.hull(b.pairs),
        shuffle_bytes: a.shuffle_bytes.hull(b.shuffle_bytes),
        max_load: a.max_load.hull(b.max_load),
        ..a
    }
}

/// Render the per-stage bound table `papar check --bounds` and `papar
/// plan --explain` print (fixed-width, one row per stage).
pub fn render_table(bounds: &WorkflowBounds) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>14} {:>14} {:>14} {:>14} {:>18}\n",
        "stage", "reducers", "records-in", "records-out", "pairs", "max-load", "out-bytes"
    ));
    for s in &bounds.stages {
        let out_bytes = s
            .outputs
            .iter()
            .fold(Interval::zero(), |acc, (_, b)| acc.add(b.bytes));
        out.push_str(&format!(
            "{:<16} {:>8} {:>14} {:>14} {:>14} {:>14} {:>18}\n",
            s.id,
            s.reducers,
            s.records_in.to_string(),
            s.records_out.to_string(),
            s.pairs.to_string(),
            s.max_load.to_string(),
            out_bytes.to_string(),
        ));
        if let Some(p) = &s.partitions {
            if p.provably_empty > 0 {
                out.push_str(&format!(
                    "{:<16} {} of {} partition(s) provably empty\n",
                    "",
                    p.provably_empty,
                    p.per_partition.len()
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arithmetic_saturates_and_absorbs_top() {
        let a = Interval::new(2, 8);
        let b = Interval::exact(5);
        assert_eq!(a.add(b), Interval::new(7, 13));
        assert_eq!(a.add(Interval::top()).hi, UNBOUNDED);
        assert_eq!(Interval::top().mul(3).hi, UNBOUNDED);
        assert!(a.contains(2) && a.contains(8) && !a.contains(9));
        assert_eq!(Interval::new(3, 9).cap_hi(4), Interval::new(3, 4));
        assert_eq!(Interval::new(6, 9).cap_hi(4), Interval::new(4, 4));
        assert_eq!(Interval::exact(7).to_string(), "7");
        assert_eq!(Interval::new(1, 2).to_string(), "[1, 2]");
        assert_eq!(Interval::top().to_string(), "[0, ?]");
    }

    #[test]
    fn indexed_partition_counts_match_the_policies() {
        // 10 entries cyclic over 4: partitions get 3,3,2,2.
        let got: Vec<u64> = (0..4)
            .map(|p| indexed_partition_count(DistrPolicy::Cyclic, 10, p, 4))
            .collect();
        assert_eq!(got, vec![3, 3, 2, 2]);
        // 10 entries block over 4: 3,3,2,2 as well (remainder first).
        let got: Vec<u64> = (0..4)
            .map(|p| indexed_partition_count(DistrPolicy::Block, 10, p, 4))
            .collect();
        assert_eq!(got, vec![3, 3, 2, 2]);
        // Fewer entries than partitions: trailing partitions are empty.
        for policy in [DistrPolicy::Cyclic, DistrPolicy::Block] {
            let got: Vec<u64> = (0..6)
                .map(|p| indexed_partition_count(policy, 3, p, 6))
                .collect();
            assert_eq!(got, vec![1, 1, 1, 0, 0, 0], "{policy:?}");
        }
    }

    #[test]
    fn indexed_partition_counts_are_monotone_in_entry_count() {
        for policy in [DistrPolicy::Cyclic, DistrPolicy::Block] {
            for m in 1..6u64 {
                for p in 0..m {
                    let mut last = 0;
                    for e in 0..40u64 {
                        let c = indexed_partition_count(policy, e, p, m);
                        assert!(c >= last, "{policy:?} m={m} p={p} e={e}");
                        last = c;
                    }
                }
            }
        }
    }

    #[test]
    fn record_width_handles_strings() {
        let fixed = Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Long),
            ("c", FieldType::Double),
        ]);
        assert_eq!(record_width(&fixed), (20, Some(20)));
        let stringy = Schema::new(vec![("a", FieldType::Str), ("b", FieldType::Integer)]);
        assert_eq!(record_width(&stringy), (5, None));
        // The tagged form: the tag byte and the empty string's length.
        assert_eq!(value_width(FieldType::Str), (2, None));
    }

    /// A distribute whose output format keeps two of the blast records'
    /// four ints ships 8-byte records, and `shuffle_hi` prices each pair at
    /// that width, not at the 16 bytes of the record it reads.
    #[test]
    fn a_projecting_distribute_is_priced_at_its_projected_width() -> crate::Result<()> {
        let record = |id: &str, fields: &[&str]| {
            let values: String = (fields.iter())
                .map(|f| format!(r#"<value name="{f}" type="integer"/>"#))
                .collect();
            format!(
                r#"<input id="{id}" name="{id}"><input_format>binary</input_format>
                   <element>{values}</element></input>"#
            )
        };
        let blast = record(
            "blast_db",
            &["seq_start", "seq_size", "desc_start", "desc_size"],
        );
        let pair = record("seq_span", &["seq_start", "seq_size"]);
        let workflow = r#"
            <workflow id="w" name="w">
              <arguments>
                <param name="input_path" type="hdfs" format="blast_db"/>
                <param name="output_path" type="hdfs" format="seq_span"/>
              </arguments>
              <operators>
                <operator id="distr" operator="Distribute">
                  <param name="inputPath" type="String" value="$input_path"/>
                  <param name="outputPath" type="String" value="$output_path"/>
                  <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
                  <param name="numPartitions" type="integer" value="2"/>
                </operator>
              </operators>
            </workflow>"#;
        let planner = crate::plan::Planner::from_xml(workflow, &[&blast, &pair])?;
        let args = [("input_path", "/in"), ("output_path", "/out")];
        let args = args.map(|(k, v)| (k.to_string(), v.to_string())).into();
        let plan = planner.bind(&args)?;
        let nodes = 4;
        let mut opts = BoundsOptions {
            num_nodes: nodes,
            ..BoundsOptions::default()
        };
        opts.sources.insert("/in".into(), SourceBounds::exact(100));
        let phys = crate::physplan::lower(&plan, nodes, true);
        let bounds = compute(&plan, &phys, &opts);
        // 100 records of 8 bytes; at most 4 × 2 segments of 8 bytes and
        // 4 fragments × 2 reducers runs of 13.
        assert_eq!(bounds.stages[0].shuffle_bytes.hi, 100 * 8 + 8 * 8 + 8 * 13);
        Ok(())
    }

    #[test]
    fn keyed_max_load_uses_pigeonhole_floor() {
        let ml = keyed_max_load(Interval::exact(10), 4);
        assert_eq!(ml, Interval::new(3, 10));
        assert_eq!(keyed_max_load(Interval::zero(), 4), Interval::zero());
        assert_eq!(keyed_max_load(Interval::top(), 4).hi, UNBOUNDED);
    }
}
