//! The stage executors: one function per physical stage kind, each run
//! by [`crate::exec::WorkflowRunner::run`] on one [`StageCtx`], and the
//! mappers, partitioners, reducers and routers they wire into engine jobs.

use papar_config::input::FieldType;
use papar_mr::engine::{int_key, FnReducer, HashPartitioner, IdentityPartitioner, KeyedMapper};
use papar_mr::engine::{MapInput, Mapper, PairKey, Reducer};
use papar_mr::sampler::{self, IntCuts, RangePartitioner};
use papar_mr::stats::JobStats;
use papar_mr::{run_slots, Emit, EntryRef, MrError, Pairs, TaskCtx};
use papar_mr::{Cluster, Entry, MapReduceJob, Partitioner};
use papar_record::batch::{Batch, Rows};
use papar_record::packed::{pack_onto, PackedRecord};
use papar_record::view::{KeyField, ENTRY_REC};
use papar_record::wire;
use papar_record::{Record, Schema, Value};
use papar_trace::{duration_ns, Counters, FusedPath, PhaseKind, PhaseTrace};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{CoreError, Result};
use crate::exec::{ExecOptions, RunNote, SamplingMode, WorkflowReport};
use crate::operator::{AddOnKind, BoundAddOn, CustomJobCtx, FormatOp, OperatorRegistry};
use crate::plan::{DatasetMeta, Format, JobKind, JobPlan};
use crate::policy::{DistrPolicy, SplitPolicy};

/// What a stage executor runs with: the cluster, the stage's name (its
/// engine job's), the datasets the stage is the last reader of, the run's
/// options, and the report its sampling time and notes land in.
pub(crate) struct StageCtx<'a> {
    pub(crate) cluster: &'a mut Cluster,
    pub(crate) name: &'a str,
    pub(crate) release: &'a [String],
    pub(crate) options: &'a ExecOptions,
    pub(crate) report: &'a mut WorkflowReport,
}

impl StageCtx<'_> {
    /// This context under engine job name `name`: one round of a stage
    /// that runs as two jobs.
    fn round<'b>(&'b mut self, name: &'b str) -> StageCtx<'b> {
        StageCtx {
            cluster: &mut *self.cluster,
            name,
            release: self.release,
            options: self.options,
            report: &mut *self.report,
        }
    }
}

/// A sort job into `output`: the sampling pass, then a range-partitioned
/// keyed job.
pub(crate) fn run_sort(cx: &mut StageCtx<'_>, job: &JobPlan, output: &str) -> Result<JobStats> {
    run_sort_after(cx, job, output, Duration::ZERO)
}

/// [`run_sort`], its sampling pass charged `spent` more: what a key
/// histogram spent before the fused sort→distribute stage fell back to
/// the sort and the distribute.
fn run_sort_after(
    cx: &mut StageCtx<'_>,
    job: &JobPlan,
    output: &str,
    spent: Duration,
) -> Result<JobStats> {
    let (key_idx, descending, ..) = keyed_kind(job)?;
    let cluster = &mut *cx.cluster;
    let mut num_reducers = job.reducers(cluster.num_nodes());

    // Pre-job sampling pass (paper: "sampled when reading the input").
    let t0 = Instant::now();
    let mut per_node: Vec<Vec<Value>> = Vec::new();
    'nodes: for node in 0..cluster.num_nodes() {
        let mut sample = Vec::new();
        for name in &job.inputs {
            if let Some(frags) = cluster.node(node).get(name) {
                for f in frags {
                    sample_keys(&f.data.batch, key_idx, sampler::SAMPLE_STRIDE, &mut sample)?;
                }
            }
        }
        per_node.push(sample);
        if cx.options.sampling == SamplingMode::FirstFragmentOnly && !per_node[node].is_empty() {
            break 'nodes;
        }
    }
    let boundaries = sampler::boundaries_from_samples(&per_node, num_reducers)?;
    // Fewer distinct sampled keys than reducers: the deduplicated
    // boundary list describes all the ranges the key domain can
    // fill. Collapse to that count (and say so) instead of running
    // provably empty reducers. An empty boundary list from an empty
    // sample keeps the configured count — there is nothing to place.
    let achievable = boundaries.len() + 1;
    if !boundaries.is_empty() && achievable < num_reducers {
        cx.report.notes.push(RunNote::ReducersCollapsed {
            job: cx.name.to_string(),
            requested: num_reducers,
            achievable,
            nodes: cluster.num_nodes(),
        });
        num_reducers = achievable;
    }
    let range = RangePartitioner::new(boundaries);
    let sample_elapsed = t0.elapsed() + spent;
    cx.report.sample_time += sample_elapsed;
    if cluster.tracing() {
        // The pre-job sampling pass is a phase of its own: the
        // collector attaches it to the sort job it precedes.
        let sampled: u64 = per_node.iter().map(|s| s.len() as u64).sum();
        let det_ns = cluster.cost_model().compute_ns(sampled, 0, 0);
        let counters = Counters {
            records_in: sampled,
            ..Counters::default()
        };
        cluster.record_sample_trace(PhaseTrace::solo(
            PhaseKind::Sample,
            sample_elapsed,
            det_ns,
            counters,
        ));
    }

    let partitioner = SortPartitioner {
        range,
        descending,
        num_reducers,
    };
    let reducer = OrderedReducer::new(job)?;
    let outputs = &job.outputs[..1];
    run_keyed(
        cx,
        job,
        &partitioner,
        num_reducers,
        &reducer,
        output,
        outputs,
    )
}

/// A group job: a hash-partitioned keyed job.
pub(crate) fn run_group(cx: &mut StageCtx<'_>, job: &JobPlan) -> Result<JobStats> {
    let reducers = job.reducers(cx.cluster.num_nodes());
    let reducer = OrderedReducer::new(job)?;
    let outputs = &job.outputs[..1];
    run_keyed(
        cx,
        job,
        &HashPartitioner,
        reducers,
        &reducer,
        job.output(),
        outputs,
    )
}

/// Run sort or group job `job` as a keyed MapReduce job — the one
/// shape sort, group and the fused group→split stage share. Each entry
/// is keyed by the job's key field (read from the entry, never sent),
/// sent by `partitioner` to one of `num_reducers` reducers, sorted by
/// key on the reduce side in the job's direction and reduced by
/// `reducer`. The stage's engine job writes `output` with the schema of
/// `outputs[0]`; a fused reducer also writes `outputs[1..]`.
fn run_keyed(
    cx: &mut StageCtx<'_>,
    job: &JobPlan,
    partitioner: &dyn Partitioner,
    num_reducers: usize,
    reducer: &dyn Reducer,
    output: &str,
    outputs: &[(String, DatasetMeta)],
) -> Result<JobStats> {
    let (key_field, descending, ..) = keyed_kind(job)?;
    let mapper = KeyedMapper { key_field };
    let mr_job = MapReduceJob {
        name: cx.name.to_string(),
        inputs: job.inputs.clone(),
        output: output.to_string(),
        num_reducers,
        map_output_schema: job.input_meta.schema.clone(),
        output_schema: outputs[0].1.schema.clone(),
        mapper: &mapper,
        partitioner,
        reducer,
        sort_by_key: true,
        descending,
        compress_key: compress_key(cx.options, &job.input_meta),
        release: cx.release,
    };
    let extra: Vec<(String, Arc<Schema>)> = (outputs[1..].iter())
        .map(|(name, meta)| (name.clone(), meta.schema.clone()))
        .collect();
    Ok(cx.cluster.run_job_multi(&mr_job, &extra)?)
}

/// Split is a map-only local job: every node routes its local entries
/// to the per-condition outputs and applies the output format
/// operators; no shuffle happens (paper Figure 11 keeps split data on
/// its reducers until the distribute job moves it). Each node writes
/// one fragment per output, at its own ordinal.
pub(crate) fn run_split(cx: &mut StageCtx<'_>, job: &JobPlan) -> Result<JobStats> {
    let outputs: Vec<(String, Arc<papar_record::Schema>)> = (job.outputs.iter())
        .map(|(name, meta)| (name.clone(), meta.schema.clone()))
        .collect();
    let split = SplitRouter::new(job)?;
    let route = |ctx: &TaskCtx, inputs: &[MapInput]| {
        let mut outs = split.empty_outputs();
        for mi in inputs {
            for entry in EntryRef::all(&mi.data.batch) {
                split.route(entry.to_entry(), &mut outs)?;
            }
        }
        Ok(vec![(ctx.node as u32, outs)])
    };
    Ok(cx
        .cluster
        .run_local(cx.name, &job.inputs, &outputs, route)?)
}

/// A distribute job: every entry shipped to the partition its policy
/// names ([`DistributeMapper`]), each partition reduced in global order.
pub(crate) fn run_distribute(cx: &mut StageCtx<'_>, job: &JobPlan) -> Result<JobStats> {
    let cluster = &mut *cx.cluster;
    let (policy, num_partitions, projection) = distribute_kind(job)?;
    // Global offsets per (input, fragment ordinal) so the index-routed
    // policies (cyclic/block) see the global entry order; the paper's
    // Figure 9 distributes the *globally* sorted sequence round-robin.
    let mut offsets: HashMap<(String, u32), u64> = HashMap::new();
    let mut total: u64 = 0;
    for name in &job.inputs {
        let mut frags: Vec<(u32, u64)> = Vec::new();
        for node in 0..cluster.num_nodes() {
            if let Some(fs) = cluster.node(node).get(name) {
                for f in fs {
                    frags.push((f.ordinal, f.data.batch.entry_count() as u64));
                }
            }
        }
        frags.sort_by_key(|&(ord, _)| ord);
        for (ord, count) in frags {
            offsets.insert((name.clone(), ord), total);
            total += count;
        }
    }

    // The map side ships each entry projected onto the output format,
    // so the shuffle carries only the fields a partition keeps.
    let shipped = shipped(job, &projection);
    // A distribute may read a flat and a packed split output; the
    // packed one decides. A projection that drops the key column
    // leaves nothing to factor.
    let compress_key = (job.input_metas.iter())
        .find_map(|m| compress_key(cx.options, m))
        .and_then(|k| match &projection {
            Some(proj) => proj.iter().position(|&i| i == k),
            None => Some(k),
        });
    let mapper = DistributeMapper {
        offsets,
        policy,
        total: total as usize,
        num_partitions,
        projection,
    };
    let out_format = job.outputs[0].1.format;
    let out_schema = &job.outputs[0].1.schema;
    // A flat output is the shipped records as rows, gathered from the
    // inbox without a decode — unless a compressed group holds them.
    let rows_out =
        (out_format == Format::Flat && compress_key.is_none() && same_layout(&shipped, out_schema))
            .then(|| out_schema.clone());
    let reducer = FnReducer(move |_ctx: &TaskCtx, pairs: Pairs<'_>| {
        if let Some(schema) = &rows_out {
            return Ok(vec![gather_rows(&pairs, schema)?]);
        }
        let mut batch = empty_batch(out_format, pairs.record_count(), pairs.len());
        // One reused slot: a record entry decodes with no allocation
        // of its own.
        let mut slot = Vec::with_capacity(1);
        for view in pairs.entries() {
            let view = view?;
            let entry = if view.tag() != ENTRY_REC {
                Entry::Packed(view.decode_group()?)
            } else {
                view.decode_into(&mut slot)?;
                let record = slot
                    .pop()
                    .ok_or_else(|| MrError::msg("empty record entry"))?;
                Entry::Rec(record)
            };
            place(&mut batch, entry, None)?;
        }
        Ok(vec![batch])
    });
    let mr_job = MapReduceJob {
        name: cx.name.to_string(),
        inputs: job.inputs.clone(),
        output: job.output().to_string(),
        num_reducers: num_partitions,
        map_output_schema: shipped,
        output_schema: job.outputs[0].1.schema.clone(),
        mapper: &mapper,
        // Unused: the mapper names each entry's partition.
        partitioner: &IdentityPartitioner,
        reducer: &reducer,
        sort_by_key: false,
        descending: false,
        compress_key,
        release: cx.release,
    };
    Ok(cluster.run_job(&mr_job)?)
}

/// A custom operator's job, run by the operator itself.
pub(crate) fn run_custom(
    cx: &mut StageCtx<'_>,
    registry: &OperatorRegistry,
    job: &JobPlan,
    op_name: &str,
    params: &HashMap<String, String>,
) -> Result<JobStats> {
    let cluster = &mut *cx.cluster;
    let op = registry
        .custom(op_name)
        .ok_or_else(|| {
            CoreError::exec(format!(
                "custom operator '{op_name}' vanished from registry"
            ))
        })?
        .clone();
    let ctx = CustomJobCtx {
        id: job.id.clone(),
        params: params.clone(),
        inputs: job.inputs.clone(),
        output: job.output().to_string(),
        input_schema: job.input_meta.schema.clone(),
        num_reducers: job.reducers(cluster.num_nodes()),
    };
    // An operator that drives the engine (`run_job`, `run_local`) takes
    // its fault slot and records its trace; the runner reserves the slot
    // of one that does not.
    op.run(cluster, &ctx)
}

/// The sort→distribute pair as one stage — the paper's `L_m^{km}`
/// stride-permutation composition made executable. The cyclic and block
/// policies route by *global rank*, and composed with the sort, a rank is
/// a function of the row's key and its place among equal keys. For an
/// `int` or `long` key whose span is at most a partition's share of the
/// rows, the ranks are known at map time: a key histogram
/// ([`rank_histograms`]) gives every node the rank of its first row of
/// each key, and the stage runs as one shuffle straight to the partitions
/// ([`run_rank_shuffle`]). Otherwise it runs the two jobs `--no-fuse`
/// runs, under their own names, so their faults and recovery log are
/// `--no-fuse`'s — the sort into its declared output, then the
/// distribute, which releases it — and reports and traces them as one
/// stage ([`JobStats::then`]); both shuffles are charged. Either way each
/// partition holds, in order, the rows the two-job plan commits to it.
pub(crate) fn run_sort_distribute(
    cx: &mut StageCtx<'_>,
    sjob: &JobPlan,
    djob: &JobPlan,
) -> Result<JobStats> {
    let (spent, why) = match rank_shuffle_refusal(sjob, djob)? {
        Some(why) => (Duration::ZERO, why),
        None => match rank_histograms(cx, sjob, djob)? {
            Ok(mapper) => return run_rank_shuffle(cx, sjob, djob, &mapper),
            Err(refusal) => refusal,
        },
    };
    let sort = run_sort_after(&mut cx.round(&sjob.id), sjob, sjob.output(), spent)?;
    let distribute = run_distribute(&mut cx.round(&djob.id), djob)?;
    if cx.cluster.tracing() {
        cx.cluster.join_last_job_traces(cx.name);
        (cx.cluster).annotate_last_job_path(FusedPath::SortThenDistribute(why));
    }
    Ok(JobStats {
        name: cx.name.to_string(),
        ..sort.then(distribute)
    })
}

/// Why a fused sort→distribute stage cannot shuffle by global rank
/// whatever its data, or `None` when its data decide: its fragments must
/// be flat and its key span at most a partition's share of its rows
/// ([`rank_histograms`]). `papar plan --explain` prints it.
pub(crate) fn rank_shuffle_refusal(sjob: &JobPlan, djob: &JobPlan) -> Result<Option<String>> {
    let (key_idx, ..) = keyed_kind(sjob)?;
    let (policy, _, projection) = distribute_kind(djob)?;
    let (input, out) = (&sjob.input_meta, &djob.outputs[0].1);
    let key = (input.schema.fields().get(key_idx))
        .ok_or_else(|| CoreError::plan(format!("job '{}' sorts by a missing field", sjob.id)))?;
    let why = if !matches!(key.ty, FieldType::Integer | FieldType::Long) {
        format!("the sort key '{}' is not an int or a long", key.name)
    } else if input.schema.binary_record_width().is_none() {
        "the sort's input records are not fixed-width".to_string()
    } else if OrderedReducer::new(sjob)?.rows.is_none() {
        "the sort changes its records (add-ons or packing)".to_string()
    } else if policy == DistrPolicy::GraphVertexCut {
        "the distribute routes by value".to_string()
    } else if projection.as_ref().is_some_and(|p| !p.contains(&key_idx)) {
        format!("the output format drops the sort key '{}'", key.name)
    } else if out.format != Format::Flat || !same_layout(&shipped(djob, &projection), &out.schema) {
        "the partitions are not the distribute's rows".to_string()
    } else {
        return Ok(None);
    };
    Ok(Some(why))
}

/// The key histogram that replaces the sort's sampling pass on the rank
/// shuffle, charged as the stage's `sample` phase: every node finds the
/// range of the keys of its fragments of the sort's input, then counts
/// them (two passes, each on the thread budget, each node timed), the
/// counts are all-gathered (priced by the network model), and each node
/// learns the global rank of its first row of each key it holds: the rows
/// of all smaller keys (larger, when descending), then the rows of that
/// key on earlier nodes. That is the order the sort's reducers produce —
/// `(key, sender node, emission index)` — so a node's rows of one key take
/// consecutive ranks in emission order. `Err` with the time the pass spent
/// and why, when the stage cannot take it: a packed fragment, rows of
/// another layout, no rows at all, or a key span (the greatest key less
/// the least, plus one) above a partition's share of the rows. Within
/// that share every partition's reducer takes the counting order (each
/// reducer's span is at most the histogram's, and each holds at least
/// that many pairs), and the histograms hold at most one key per `P` rows.
fn rank_histograms(
    cx: &mut StageCtx<'_>,
    sjob: &JobPlan,
    djob: &JobPlan,
) -> Result<std::result::Result<RankMapper, (Duration, String)>> {
    let t0 = Instant::now();
    let refuse = |why: &str| Ok(Err((t0.elapsed(), why.to_string())));
    let (key_idx, descending, ..) = keyed_kind(sjob)?;
    let schema = &sjob.input_meta.schema;
    let field = KeyField::new(schema, key_idx).map_err(CoreError::from)?;
    let (Some(at), Some(width)) = (field.offset(), schema.binary_record_width()) else {
        return refuse("the sort's input records are not fixed-width");
    };
    let key = IntKey {
        idx: key_idx,
        at,
        width,
        long: field.ty() == FieldType::Long,
    };
    let cluster = &*cx.cluster;
    let n = cluster.num_nodes();
    let mut frags: Vec<Vec<&Batch>> = vec![Vec::new(); n];
    for (node, frags) in frags.iter_mut().enumerate() {
        for name in &sjob.inputs {
            for f in cluster.node(node).get(name).into_iter().flatten() {
                match &f.data.batch {
                    Batch::Rows(r) if !same_layout(r.schema(), schema) => {
                        return refuse(OTHER_FRAGMENT)
                    }
                    Batch::Packed(_) => return refuse(OTHER_FRAGMENT),
                    batch => frags.push(batch),
                }
            }
        }
    }
    let node_rows: Vec<usize> = (frags.iter())
        .map(|f| f.iter().map(|b| b.entry_count()).sum())
        .collect();
    let total: usize = node_rows.iter().sum();
    let (policy, num_partitions, projection) = distribute_kind(djob)?;
    // The histogram spans at most a partition's share of the rows.
    let too_wide = |(lo, hi): (i64, i64)| {
        lo <= hi && (u128::from(hi.abs_diff(lo)) + 1) * num_partitions as u128 > total as u128
    };
    let wide = format!("its keys span more than its {total} rows over {num_partitions} partitions");
    // Every `SAMPLE_STRIDE`-th key first: keys already too far apart
    // refuse the stage for a fraction of a pass.
    let sampled = (frags.iter().flatten()).try_fold(NO_KEYS, |range, b| {
        Some(widen(range, key.range(b, sampler::SAMPLE_STRIDE)?))
    });
    match sampled {
        None => return refuse(NOT_INTEGER),
        Some(range) if too_wide(range) => return refuse(&wide),
        Some(_) => {}
    }
    let threads = (cluster.threads()).min((total * width).div_ceil(BYTES_PER_THREAD));
    // First pass, per node: its least and greatest key (`None` for a key
    // that is no integer; `lo > hi` for a node without rows).
    let ranges = run_slots(n, threads, |node| {
        let timer = Instant::now();
        let range = (frags[node].iter()).try_fold(NO_KEYS, |range, batch| {
            Some(widen(range, key.range(batch, 1)?))
        });
        (range, timer.elapsed())
    });
    let mut busiest = ranges.iter().map(|r| r.1).max().unwrap_or_default();
    let Some(ranges) = ranges.into_iter().map(|r| r.0).collect::<Option<Vec<_>>>() else {
        return refuse(NOT_INTEGER);
    };
    let (lo, hi) = ranges.iter().copied().fold(NO_KEYS, widen);
    if lo > hi {
        return refuse("its input has no rows");
    }
    if too_wide((lo, hi)) {
        return refuse(&wide);
    }
    // Second pass, per node: a count per key of its own range.
    let counted = run_slots(n, threads, |node| {
        let timer = Instant::now();
        let (nlo, nhi) = ranges[node];
        if nlo > nhi {
            return ((0, Vec::new()), timer.elapsed());
        }
        let mut counts = vec![0u64; nhi.abs_diff(nlo) as usize + 1];
        for batch in &frags[node] {
            key.each(batch, |k| {
                let slot = k.and_then(|k| counts.get_mut(k.abs_diff(nlo) as usize));
                slot.map(|c| *c += 1).is_some()
            });
        }
        ((nlo, counts), timer.elapsed())
    });
    busiest += counted.iter().map(|c| c.1).max().unwrap_or_default();
    let mut hists: Vec<(i64, Vec<u64>)> = counted.into_iter().map(|c| c.0).collect();
    let merging = Instant::now();
    // Rows per key, then the rank of each key's first row.
    let mut first = vec![0u64; hi.abs_diff(lo) as usize + 1];
    for (nlo, counts) in &hists {
        let at = nlo.abs_diff(lo) as usize;
        (first[at..].iter_mut().zip(counts)).for_each(|(f, c)| *f += c);
    }
    let mut below = 0;
    let mut place = |f: &mut u64| (*f, below) = (below, below + *f);
    match descending {
        false => first.iter_mut().for_each(&mut place),
        true => first.iter_mut().rev().for_each(&mut place),
    }
    // Node by node, each key's count becomes the rank of its first row
    // there.
    for (nlo, counts) in &mut hists {
        let at = nlo.abs_diff(lo) as usize;
        for (f, c) in first[at..].iter_mut().zip(counts.iter_mut()) {
            (*c, *f) = (*f, *f + *c);
        }
    }
    let keys = first.len();
    // Each node receives every other node's histogram.
    let gathered: u64 = hists.iter().map(|(_, c)| 8 * c.len() as u64).sum();
    let gather = (cluster.net()).transfer_time(n.saturating_sub(1) as u64, gathered);
    let virt = busiest + merging.elapsed() + gather;
    cx.report.sample_time += virt;
    if cluster.tracing() {
        let busiest_rows = node_rows.iter().copied().max().unwrap_or(0) as u64;
        let det_ns = (cluster.cost_model().compute_ns(busiest_rows, 0, 0))
            .saturating_add(duration_ns(gather));
        let counters = Counters {
            records_in: total as u64,
            ..Counters::default()
        };
        let sample = PhaseTrace::solo(PhaseKind::Sample, virt, det_ns, counters);
        cx.cluster.record_sample_trace(sample);
    }
    Ok(Ok(RankMapper {
        firsts: hists,
        key,
        keys,
        key_field: projection
            .as_ref()
            .map_or(Some(key_idx), |p| p.iter().position(|&i| i == key_idx))
            .ok_or_else(|| CoreError::plan("the output format drops the sort key"))?,
        policy,
        total,
        num_partitions,
        projection,
    }))
}

/// Why the rank shuffle refuses a fragment it cannot read keys from.
const OTHER_FRAGMENT: &str = "a fragment of its input is packed or of another layout";

/// Why the rank shuffle refuses a record whose key is no integer.
const NOT_INTEGER: &str = "a record's sort key is no integer";

/// The rank shuffle's one job: [`RankMapper`] sends each row to its
/// partition, and partition `p` is reducer `p` — on node `p mod n`,
/// committed at ordinal `p`, as the unfused distribute's reducer `p` is.
/// The reducers sort by the key: the `(key, scan index)` order puts a
/// partition's rows in rank order, since ranks ascend with the key (in the
/// sort's direction) and, among equal keys, with the sender node and the
/// emission order the scan index follows. Each partition is gathered as
/// rows; the sorted dataset is never stored.
fn run_rank_shuffle(
    cx: &mut StageCtx<'_>,
    sjob: &JobPlan,
    djob: &JobPlan,
    mapper: &RankMapper,
) -> Result<JobStats> {
    let (_, descending, ..) = keyed_kind(sjob)?;
    let out_schema = djob.outputs[0].1.schema.clone();
    let reducer =
        FnReducer(|_: &TaskCtx, pairs: Pairs<'_>| Ok(vec![gather_rows(&pairs, &out_schema)?]));
    let mr_job = MapReduceJob {
        name: cx.name.to_string(),
        inputs: sjob.inputs.clone(),
        output: djob.output().to_string(),
        num_reducers: mapper.num_partitions,
        map_output_schema: shipped(djob, &mapper.projection),
        output_schema: out_schema.clone(),
        mapper,
        // Unused: the mapper names each row's partition.
        partitioner: &IdentityPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending,
        compress_key: None,
        release: cx.release,
    };
    let stats = cx.cluster.run_job(&mr_job)?;
    if cx.cluster.tracing() {
        (cx.cluster).annotate_last_job_path(FusedPath::RankShuffle { keys: mapper.keys });
    }
    Ok(stats)
}

/// The rank shuffle's map task: row `i` of a node's fragments, in
/// emission order, takes the next rank of its key on that node, and goes
/// to the partition the policy names for that rank — a fragment of rows
/// as one batch ([`Emit::push_rows_to`]), records, and rows that ship
/// projected, one at a time. Its pairs keep the sort key, which orders
/// each partition.
struct RankMapper {
    /// Per node: its least key, and the rank of its first row of each key
    /// from there on.
    firsts: Vec<(i64, Vec<u64>)>,
    /// Where the sort key lies in an input entry.
    key: IntKey,
    /// The keys the histogram spans.
    keys: usize,
    /// The key's field in a shipped entry.
    key_field: usize,
    policy: DistrPolicy,
    /// Rows across the input.
    total: usize,
    num_partitions: usize,
    /// The fields the output format keeps, when it drops some.
    projection: Option<Vec<usize>>,
}

impl RankMapper {
    /// The partition of the next row of key `key` on a node whose next
    /// ranks, from its least key `lo`, are `next`: out of range for a key
    /// outside the histogram, which the emitter refuses.
    fn partition(&self, lo: i64, next: &mut [u64], key: Option<i64>) -> usize {
        let slot = key
            .and_then(|k| k.checked_sub(lo))
            .and_then(|at| next.get_mut(at as usize));
        let Some(rank) = slot else {
            return self.num_partitions;
        };
        *rank += 1;
        (self.policy).partition_of_index(*rank as usize - 1, self.total, self.num_partitions)
    }
}

impl Mapper for RankMapper {
    fn map(&self, ctx: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> papar_mr::Result<()> {
        let (lo, firsts) = &self.firsts[ctx.node];
        // Each key's next rank, and what it was when the fragment began.
        let (mut next, mut begun) = (firsts.clone(), firsts.clone());
        for mi in inputs {
            let Batch::Rows(rows) = &mi.data.batch else {
                for entry in EntryRef::all(&mi.data.batch) {
                    let key = entry.key(self.key.idx)?.as_i64();
                    out.push_to(self.partition(*lo, &mut next, key), entry)?;
                }
                continue;
            };
            begun.copy_from_slice(&next);
            // Row `i`'s partition. Rows come in order, once per pass of
            // the stride path, each pass from the fragment's first ranks.
            let mut partition_of = |i: usize| {
                if i == 0 {
                    next.copy_from_slice(&begun);
                }
                let row = rows.as_bytes().get(i * self.key.width..);
                let key = self.key.read(row.unwrap_or_default());
                self.partition(*lo, &mut next, Some(key))
            };
            if !out.push_rows_to(rows, &mut partition_of)? {
                for (i, row) in rows.iter().enumerate() {
                    out.push_to(partition_of(i), EntryRef::Row(row))?;
                }
            }
        }
        Ok(())
    }

    fn key(&self) -> PairKey {
        PairKey::Field(self.key_field)
    }

    fn projection(&self) -> Option<&[usize]> {
        self.projection.as_deref()
    }
}

/// Where a fused sort's `int` or `long` key lies in its input's entries:
/// field `idx` of a record, byte `at` of a `width`-byte row.
#[derive(Clone, Copy)]
struct IntKey {
    idx: usize,
    at: usize,
    width: usize,
    long: bool,
}

/// The key range of no keys: `lo > hi`.
const NO_KEYS: (i64, i64) = (i64::MAX, i64::MIN);

/// The least key range holding two.
fn widen((lo, hi): (i64, i64), (l, h): (i64, i64)) -> (i64, i64) {
    (lo.min(l), hi.max(h))
}

impl IntKey {
    /// The key of a `width`-byte row.
    fn read(&self, row: &[u8]) -> i64 {
        int_key(row.get(self.at..).unwrap_or_default(), self.long)
    }

    /// The least and greatest key of every `stride`-th entry of a flat
    /// fragment ([`NO_KEYS`] when it has none), or `None` when a record's
    /// key is no integer or the fragment is packed.
    fn range(&self, batch: &Batch, stride: usize) -> Option<(i64, i64)> {
        match batch {
            Batch::Rows(rows) => Some(
                (rows.as_bytes().chunks_exact(self.width).step_by(stride))
                    .map(|row| self.read(row))
                    .fold(NO_KEYS, |range, k| widen(range, (k, k))),
            ),
            Batch::Flat(records) => records
                .iter()
                .step_by(stride)
                .try_fold(NO_KEYS, |range, r| {
                    let k = r.values().get(self.idx)?.as_i64()?;
                    Some(widen(range, (k, k)))
                }),
            Batch::Packed(_) => None,
        }
    }

    /// Hand each entry's key of a flat fragment, in order, to `each` until
    /// it returns `false` (then so does this): `None` for a record whose
    /// key is no integer. A packed fragment has no key per row.
    fn each(&self, batch: &Batch, mut each: impl FnMut(Option<i64>) -> bool) -> bool {
        match batch {
            Batch::Rows(rows) => {
                (rows.as_bytes().chunks_exact(self.width)).all(|row| each(Some(self.read(row))))
            }
            Batch::Flat(records) => {
                (records.iter()).all(|r| each(r.values().get(self.idx).and_then(Value::as_i64)))
            }
            Batch::Packed(_) => false,
        }
    }
}

/// The group→split pair as one MapReduce job: the split's routing
/// predicates run reduce-side, right after the group's add-ons and
/// format operator, and the engine commits one fragment per split
/// destination through [`Cluster::run_job_multi`]. The grouped
/// intermediate is never written. Byte-identity holds because the
/// lowering gate pinned the group's reducer count to the cluster
/// size: fused reducer `r` sees exactly the pairs unfused group
/// fragment `r` held, and commits at the same ordinal on the same
/// node the unfused map-only split would.
pub(crate) fn run_group_split(
    cx: &mut StageCtx<'_>,
    gjob: &JobPlan,
    sjob: &JobPlan,
) -> Result<JobStats> {
    let group = OrderedReducer::new(gjob)?;
    let split = SplitRouter::new(sjob)?;
    // When the split routes on a count add-on, a run's destination is
    // known from its length alone, and a flat destination can take
    // the run as rows: each member's bytes with the counts appended.
    let grouped = &gjob.outputs[0].1.schema;
    let counted = group.counts.is_some()
        && split.key_idx >= gjob.input_meta.schema.len()
        && (sjob.outputs.iter()).all(|(_, m)| m.format == Format::Packed || m.schema == *grouped);
    let reducer = FusedGroupSplitReducer {
        group,
        split,
        counted,
    };
    let reducers = gjob.reducers(cx.cluster.num_nodes());
    let output = &sjob.outputs[0].0;
    run_keyed(
        cx,
        gjob,
        &HashPartitioner,
        reducers,
        &reducer,
        output,
        &sjob.outputs,
    )
}

/// The wire-compression key for a job: enabled only when the option is
/// set and the input is packed (flat entries have nothing to factor).
fn compress_key(options: &ExecOptions, input_meta: &DatasetMeta) -> Option<usize> {
    if options.compression && input_meta.format == Format::Packed {
        input_meta.packed_key
    } else {
        None
    }
}

/// Distribute's map task: the stride permutation applied to entry
/// indices. Entry `local` of fragment `f` has global index `g = b_f +
/// local` (`b_f` from the offsets pre-pass), and the policy names
/// its partition from `g` or from its routing vertex. The mapper pushes it
/// straight to that partition, with no key, in a run based at `b_f`:
/// fragments cover disjoint index ranges and each is read in ascending
/// order, so a reducer that orders its runs by base holds its entries in
/// global order, whatever the fragments' layout across nodes. The entry is
/// routed on all of its fields and ships projected onto the output format.
/// Under an index-routed policy, a fragment of fixed-width rows goes as
/// one batch when it can ([`Emit::push_rows_to`]).
struct DistributeMapper {
    offsets: HashMap<(String, u32), u64>,
    policy: DistrPolicy,
    /// Entries across every input.
    total: usize,
    num_partitions: usize,
    /// The fields the output format keeps, when it drops some.
    projection: Option<Vec<usize>>,
}

impl Mapper for DistributeMapper {
    fn map(&self, _: &TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>) -> papar_mr::Result<()> {
        for mi in inputs {
            let base = fragment_base(&self.offsets, &mi.name, mi.ordinal)?;
            out.set_base(base);
            let by_index = |local: usize| {
                (self.policy).partition_of_index(
                    base as usize + local,
                    self.total,
                    self.num_partitions,
                )
            };
            if let (DistrPolicy::Cyclic | DistrPolicy::Block, Batch::Rows(rows)) =
                (self.policy, &mi.data.batch)
            {
                if out.push_rows_to(rows, by_index)? {
                    continue;
                }
            }
            for (local, entry) in EntryRef::all(&mi.data.batch).enumerate() {
                let part = match self.policy {
                    DistrPolicy::Cyclic | DistrPolicy::Block => by_index(local),
                    DistrPolicy::GraphVertexCut => {
                        let routing = match entry {
                            // A whole low-degree group travels to the
                            // partition its in-vertex hashes to.
                            EntryRef::Packed(p) => Cow::Borrowed(&p.key),
                            // High-degree in-edges spread by source
                            // vertex (field 0 of an edge record).
                            EntryRef::Rec(_) | EntryRef::Row(_) => entry.key(0)?,
                        };
                        (self.policy).partition_of_value(&routing, self.num_partitions)
                    }
                };
                out.push_to(part, entry)?;
            }
        }
        Ok(())
    }

    fn key(&self) -> PairKey {
        PairKey::None
    }

    fn projection(&self) -> Option<&[usize]> {
        self.projection.as_deref()
    }
}

/// Range partitioner with optional reducer-order flip for descending sorts:
/// reducer 0 must hold the *largest* range so the concatenated outputs read
/// in descending order.
struct SortPartitioner {
    range: RangePartitioner,
    descending: bool,
    num_reducers: usize,
}

impl Partitioner for SortPartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> papar_mr::Result<usize> {
        debug_assert_eq!(num_reducers, self.num_reducers);
        let r = self.range.reducer_for(key, num_reducers)?;
        Ok(if self.descending {
            num_reducers - 1 - r
        } else {
            r
        })
    }

    fn int_cuts(&self) -> Option<IntCuts<'_>> {
        (self.range.int_cuts()).map(|cuts| cuts.reversed(self.descending))
    }
}

/// Reduce task of sort and group: pairs arrive key-sorted; add-ons apply
/// per key-run, then the output format operator.
struct OrderedReducer<'a> {
    addons: &'a [BoundAddOn],
    key_idx: usize,
    /// Pack the output by `key_idx`: by the job's `pack` format operator,
    /// or because its declared output format is packed.
    packs: bool,
    /// The output schema, when the output is the input's rows unchanged
    /// (a flat input of the output's schema, which has a field, and
    /// nothing to apply): the reducer gathers them from the inbox.
    rows: Option<Arc<Schema>>,
    /// The output schema: a packed output's members are rows of it.
    schema: Arc<Schema>,
    /// How many `long` fields the add-ons append, when every add-on is a
    /// count over a flat input: a key-run's rows are then its records'
    /// bytes, each with the run length appended that many times, and no
    /// record decodes.
    counts: Option<usize>,
}

// The reduce side speaks the engine's error type; core errors cross into
// it as messages, exactly as they did from the closures these replace.
impl<'a> OrderedReducer<'a> {
    /// The reducer of a sort or group job: it gathers rows when there is
    /// nothing to apply — no add-on, no packing.
    fn new(job: &'a JobPlan) -> Result<Self> {
        let (key_idx, _, addons, output_format) = keyed_kind(job)?;
        let (input, out) = (&job.input_meta, &job.outputs[0].1);
        let packs = output_format == FormatOp::Pack || out.format == Format::Packed;
        let unchanged = addons.is_empty() && !packs && input.format == Format::Flat;
        let rows = (unchanged && input.schema == out.schema && !out.schema.is_empty())
            .then(|| out.schema.clone());
        // A count appends a `long` field (`AddOnKind::result_type`).
        let counts = (input.format == Format::Flat
            && addons.iter().all(|a| a.kind == AddOnKind::Count))
        .then_some(addons.len());
        Ok(OrderedReducer {
            addons,
            key_idx,
            packs,
            rows,
            schema: out.schema.clone(),
            counts,
        })
    }

    /// One key-run's reduce output, in order: its records, with the
    /// add-ons applied, reach `emit` at once, unless the output packs;
    /// then its rows pack onto `groups` (built in `buf`), and a group
    /// reaches `emit` once no later run can extend it.
    fn reduce_run(
        &self,
        run: Pairs<'_>,
        groups: &mut Vec<PackedRecord>,
        buf: &mut Vec<u8>,
        emit: &mut impl FnMut(Entry) -> papar_mr::Result<()>,
    ) -> papar_mr::Result<()> {
        if !self.packs {
            let records = self.decode_run(run)?;
            return records.into_iter().try_for_each(|r| emit(Entry::Rec(r)));
        }
        buf.clear();
        self.run_rows(run, buf)?;
        // One exact-size member buffer per group.
        let members = Rows::new(self.schema.clone(), buf.to_vec())?;
        pack_onto(groups, members, self.key_idx).map_err(CoreError::from)?;
        let done = groups.len().saturating_sub(1);
        groups
            .drain(..done)
            .try_for_each(|g| emit(Entry::Packed(g)))
    }

    /// The whole reduce output, one entry at a time, in order.
    fn reduce_each(
        &self,
        pairs: Pairs<'_>,
        mut emit: impl FnMut(Entry) -> papar_mr::Result<()>,
    ) -> papar_mr::Result<()> {
        let (mut groups, mut buf) = (Vec::new(), Vec::new());
        for run in pairs.runs() {
            self.reduce_run(run?, &mut groups, &mut buf, &mut emit)?;
        }
        groups.into_iter().try_for_each(|g| emit(Entry::Packed(g)))
    }

    /// One key-run's records, sized exactly, with the add-ons applied.
    fn decode_run(&self, run: Pairs<'_>) -> papar_mr::Result<Vec<Record>> {
        let mut records = Vec::with_capacity(run.record_count());
        run.decode_into(&mut records)?;
        for addon in self.addons {
            addon.apply_to_group(&mut records)?;
        }
        Ok(records)
    }

    /// Append one key-run's records, with the add-ons applied, to `out`
    /// as rows of the output schema: with only counts, each record's
    /// bytes and the encoded run length, decoding nothing; otherwise the
    /// decoded records, encoded once.
    fn run_rows(&self, run: Pairs<'_>, out: &mut Vec<u8>) -> papar_mr::Result<()> {
        let Some(counts) = self.counts else {
            for record in self.decode_run(run)? {
                wire::encode_record(&record, &self.schema, out)?;
            }
            return Ok(());
        };
        // A `long` field's wire bytes.
        let count = (run.record_count() as i64).to_le_bytes();
        run.for_each_record(|record| {
            out.extend_from_slice(record);
            (0..counts).for_each(|_| out.extend_from_slice(&count));
        })
    }

    /// The whole reduce output as one batch.
    fn reduce_batch(&self, pairs: Pairs<'_>) -> papar_mr::Result<Batch> {
        if let Some(schema) = &self.rows {
            return gather_rows(&pairs, schema);
        }
        let format = if self.packs {
            Format::Packed
        } else {
            Format::Flat
        };
        let mut out = empty_batch(format, pairs.record_count(), 0);
        self.reduce_each(pairs, |entry| place(&mut out, entry, None))?;
        Ok(out)
    }
}

impl Reducer for OrderedReducer<'_> {
    fn reduce(&self, _ctx: &TaskCtx, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        Ok(vec![self.reduce_batch(pairs)?])
    }
}

/// A split job's routing: the destination a key routes to, and how an
/// entry lands there. The map-only split and the fused group→split stage
/// both route through it, so the two cannot diverge.
struct SplitRouter<'a> {
    policy: &'a SplitPolicy,
    /// The split key field.
    key_idx: usize,
    /// The destinations, in order.
    outputs: &'a [(String, DatasetMeta)],
    /// The split job's id, for error messages.
    job_id: &'a str,
}

impl<'a> SplitRouter<'a> {
    /// The routing of split job `job`.
    fn new(job: &'a JobPlan) -> Result<Self> {
        let JobKind::Split { key_idx, policy } = &job.kind else {
            return Err(CoreError::plan(format!("job '{}' is not a split", job.id)));
        };
        Ok(SplitRouter {
            policy,
            key_idx: *key_idx,
            outputs: &job.outputs,
            job_id: &job.id,
        })
    }

    /// One empty batch per destination, in its format.
    fn empty_outputs(&self) -> Vec<Batch> {
        (self.outputs.iter())
            .map(|(_, m)| empty_batch(m.format, 0, 0))
            .collect()
    }

    /// The destination a split key routes to.
    fn dest(&self, key: &Value) -> papar_mr::Result<usize> {
        self.policy.route(key).ok_or_else(|| {
            MrError::msg(format!(
                "split key {key} matches no condition of job '{}'",
                self.job_id
            ))
        })
    }

    /// Move one entry into the destination its split key routes to; a
    /// lone record bound for a packed destination becomes a singleton
    /// group keyed by the split key.
    fn route(&self, entry: Entry, outs: &mut [Batch]) -> papar_mr::Result<()> {
        let dest = self.dest(&*entry.as_ref().key(self.key_idx)?)?;
        let schema = &self.outputs[dest].1.schema;
        place(&mut outs[dest], entry, Some((self.key_idx, schema)))
    }
}

/// Reduce task of the fused group→split stage: the group's reduce logic
/// (add-ons per key-run, format operator) followed by the split's routing
/// predicates, emitting one batch per split destination.
struct FusedGroupSplitReducer<'a> {
    group: OrderedReducer<'a>,
    split: SplitRouter<'a>,
    /// Every add-on is a count ([`OrderedReducer::counts`]) and the split
    /// routes on one of them: a key-run then routes by its length (see
    /// [`FusedGroupSplitReducer::reduce_counted`]).
    counted: bool,
}

impl FusedGroupSplitReducer<'_> {
    /// The reduce of a split on a count add-on. Every record of a key-run
    /// gets the same counts — the run's length — so the run routes whole,
    /// and its rows are its members' wire bytes, each with the encoded
    /// counts appended: no record is decoded. A flat destination takes its
    /// runs as one buffer of rows; a packed destination takes each run as
    /// a group with its own member buffer, its key decoded once.
    fn reduce_counted(&self, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        let mut outs = self.split.empty_outputs();
        let mut rows: Vec<Vec<u8>> = vec![Vec::new(); outs.len()];
        let (mut groups, mut buf) = (Vec::new(), Vec::new());
        for run in pairs.runs() {
            let run = run?;
            let dest = self.split.dest(&Value::Long(run.record_count() as i64))?;
            if self.split.outputs[dest].1.format == Format::Flat {
                self.group.run_rows(run, &mut rows[dest])?;
                continue;
            }
            let route = &mut |e| self.split.route(e, &mut outs);
            self.group.reduce_run(run, &mut groups, &mut buf, route)?;
        }
        for group in groups {
            self.split.route(Entry::Packed(group), &mut outs)?;
        }
        for ((out, bytes), (_, meta)) in outs.iter_mut().zip(rows).zip(self.split.outputs) {
            if meta.format == Format::Flat {
                *out = Batch::Rows(Rows::new(meta.schema.clone(), bytes)?);
            }
        }
        Ok(outs)
    }
}

impl Reducer for FusedGroupSplitReducer<'_> {
    fn reduce(&self, _ctx: &TaskCtx, pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
        if self.counted {
            return self.reduce_counted(pairs);
        }
        let mut outs = self.split.empty_outputs();
        // Exactly what the unfused group reducer committed to the
        // intermediate dataset, each entry routed the way the unfused
        // split routes it.
        self.group
            .reduce_each(pairs, |entry| self.split.route(entry, &mut outs))?;
        Ok(outs)
    }
}

/// The global-offset base of one fragment, as the distribute driver's
/// pre-pass recorded it. A miss means the store changed between the
/// pre-pass and the map phase — a typed error instead of the panic this
/// lookup used to be.
fn fragment_base(offsets: &HashMap<(String, u32), u64>, name: &str, ordinal: u32) -> Result<u64> {
    offsets
        .get(&(name.to_string(), ordinal))
        .copied()
        .ok_or_else(|| CoreError::MissingFragmentOffset {
            dataset: name.to_string(),
            ordinal,
        })
}

/// A distribute job's policy, its partition count, and the field indices
/// projecting its output records onto the declared output schema (`None`:
/// records pass through unchanged, because no output format was declared
/// or it keeps every field in place). Shared by the distribute job and the
/// rank shuffle so the two can never diverge.
pub(crate) fn distribute_kind(job: &JobPlan) -> Result<(DistrPolicy, usize, Option<Vec<usize>>)> {
    let JobKind::Distribute {
        policy,
        num_partitions,
        final_schema,
    } = &job.kind
    else {
        return Err(CoreError::plan(format!(
            "job '{}' is not a distribute",
            job.id
        )));
    };
    let Some(out) = final_schema else {
        return Ok((*policy, *num_partitions, None));
    };
    let mut idxs = Vec::with_capacity(out.len());
    for f in out.fields() {
        idxs.push(job.input_meta.schema.require(&f.name).map_err(|e| {
            CoreError::plan(format!(
                "output format field '{}' missing from data: {e}",
                f.name
            ))
        })?);
    }
    let identity =
        idxs.len() == job.input_meta.schema.len() && idxs.iter().enumerate().all(|(i, &f)| i == f);
    Ok((*policy, *num_partitions, (!identity).then_some(idxs)))
}

/// A sort's or a group's key field, direction (a group's is ascending),
/// add-ons and output format operator.
pub(crate) fn keyed_kind(job: &JobPlan) -> Result<(usize, bool, &[BoundAddOn], FormatOp)> {
    match &job.kind {
        JobKind::Sort {
            key_idx,
            descending,
            addons,
            output_format,
        } => Ok((*key_idx, *descending, addons, *output_format)),
        JobKind::Group {
            key_idx,
            addons,
            output_format,
        } => Ok((*key_idx, false, addons, *output_format)),
        _ => Err(CoreError::plan(format!("job '{}' is not keyed", job.id))),
    }
}

/// Sample every `stride`-th entry key of a batch, as [`EntryRef::key`]
/// reads it: a packed group's is its first member's, which equals the
/// group key for key-field grouping. Cloning only the sampled keys keeps
/// the sampling pass O(n/stride) in allocations.
fn sample_keys(batch: &Batch, key_idx: usize, stride: usize, out: &mut Vec<Value>) -> Result<()> {
    for entry in EntryRef::all(batch).step_by(stride.max(1)) {
        out.push(entry.key(key_idx)?.into_owned());
    }
    Ok(())
}

/// Whether records of `input` are laid out like records of `out`: the
/// same field types in the same order, at least one of them.
fn same_layout(input: &Schema, out: &Schema) -> bool {
    let types = input.fields().iter().map(|f| f.ty);
    types.eq(out.fields().iter().map(|f| f.ty)) && !out.is_empty()
}

/// What a distribute ships: its input records, projected onto its output
/// format when that drops fields.
fn shipped(djob: &JobPlan, projection: &Option<Vec<usize>>) -> Arc<Schema> {
    match projection {
        Some(proj) => project_schema(&djob.input_meta.schema, proj),
        None => djob.input_meta.schema.clone(),
    }
}

/// `schema`'s fields `proj` names, in that order.
pub(crate) fn project_schema(schema: &Schema, proj: &[usize]) -> Arc<Schema> {
    let fields = proj.iter().map(|&i| &schema.fields()[i]);
    Arc::new(Schema::new(
        fields.map(|f| (f.name.clone(), f.ty)).collect(),
    ))
}

/// A reducer's flat records as rows of `schema`, copied from the inbox in
/// reduce order. No record is decoded.
fn gather_rows(pairs: &Pairs<'_>, schema: &Arc<Schema>) -> papar_mr::Result<Batch> {
    let mut bytes = Vec::new();
    pairs.gather_rows(&mut bytes)?;
    Ok(Batch::Rows(Rows::new(schema.clone(), bytes)?))
}

/// Row bytes that pay for one more thread of the key histogram's passes:
/// below about this much, starting threads costs more than it saves. On a
/// 2-core host a key histogram over 60,000 rows on 16 nodes spent
/// 160–330 µs starting two threads.
const BYTES_PER_THREAD: usize = 1 << 20;

/// Why a distribute into a packed output refuses a flat entry.
const FLAT_IN_PACKED: &str = "distribute cannot keep flat entries in a packed output";

/// An empty output batch of `format`, with room for `records` flat
/// records or `entries` packed groups, whichever the format holds.
fn empty_batch(format: Format, records: usize, entries: usize) -> Batch {
    match format {
        Format::Flat => Batch::Flat(Vec::with_capacity(records)),
        Format::Packed => Batch::Packed(Vec::with_capacity(entries)),
    }
}

/// Move one entry into an output batch: the one place an operator's
/// entry lands in an output of either format. A flat output takes a
/// record, or a packed group's members in order, decoded. A packed output
/// takes a group; a lone record becomes a singleton group of one row of
/// `wrap`'s schema, keyed by its field `wrap`'s index (split), and without
/// one it is refused with [`FLAT_IN_PACKED`] (distribute). Rows are built
/// from bytes, never placed into.
fn place(
    out: &mut Batch,
    entry: Entry,
    wrap: Option<(usize, &Arc<Schema>)>,
) -> papar_mr::Result<()> {
    match (out, entry) {
        (Batch::Flat(records), Entry::Rec(r)) => records.push(r),
        (Batch::Flat(records), Entry::Packed(p)) => {
            records.extend(p.members.iter().map(|row| row.to_record()))
        }
        (Batch::Packed(groups), Entry::Packed(p)) => groups.push(p),
        (Batch::Packed(groups), Entry::Rec(r)) => {
            let (key_idx, schema) = wrap.ok_or_else(|| MrError::msg(FLAT_IN_PACKED))?;
            let key = r.require(key_idx)?.clone();
            let members = Rows::from_records(schema.clone(), std::slice::from_ref(&r))?;
            groups.push(PackedRecord { key, members });
        }
        (Batch::Rows(_), _) => return Err(MrError::msg("an entry cannot be placed into rows")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_record::rec;
    use proptest::prelude::*;

    /// Each placement policy, stated once in [`place`].
    #[test]
    fn place_wraps_refuses_and_unpacks_by_output_format() -> Result<()> {
        let schema = Arc::new(Schema::new(vec![
            ("a", FieldType::Integer),
            ("b", FieldType::Integer),
        ]));
        let wrap = Some((1, &schema));
        let group = |k: i32, records: &[Record]| -> Result<PackedRecord> {
            let members = Rows::from_records(schema.clone(), records)?;
            Ok(PackedRecord::new(Value::Int(k), members, 0)?)
        };
        let five = group(5, &[rec![5, 1], rec![5, 2]])?;
        // A split wraps a lone record as a group of one row, keyed by the
        // split key.
        let mut split = empty_batch(Format::Packed, 0, 0);
        place(&mut split, Entry::Rec(rec![4, 9]), wrap)?;
        place(&mut split, Entry::Packed(five.clone()), wrap)?;
        let single = PackedRecord::new(
            Value::Int(9),
            Rows::from_records(schema.clone(), &[rec![4, 9]])?,
            1,
        )?;
        assert_eq!(split, Batch::Packed(vec![single, five.clone()]));
        // A distribute refuses it.
        let refused = place(&mut split, Entry::Rec(rec![4, 9]), None);
        assert!(matches!(refused, Err(e) if e.to_string().contains(FLAT_IN_PACKED)));
        // A flat output takes records and a group's members, in order.
        let mut flat = empty_batch(Format::Flat, 0, 0);
        place(&mut flat, Entry::Rec(rec![4, 9]), None)?;
        place(&mut flat, Entry::Packed(five), wrap)?;
        assert_eq!(flat, Batch::Flat(vec![rec![4, 9], rec![5, 1], rec![5, 2]]));
        // Rows are never placed into.
        let mut rows = Batch::Rows(Rows::new(schema.clone(), Vec::new())?);
        assert!(place(&mut rows, Entry::Rec(rec![4, 9]), wrap).is_err());
        Ok(())
    }

    /// The sort sampler reads the same keys from rows, records and
    /// groups.
    #[test]
    fn key_sampling_does_not_depend_on_the_batch_form() -> Result<()> {
        let schema = Arc::new(Schema::new(vec![
            ("k", FieldType::Integer),
            ("v", FieldType::Long),
        ]));
        let records: Vec<Record> = (0..20).map(|i| rec![(i * 7) % 20, i as i64]).collect();
        let mut bytes = Vec::new();
        wire::encode_batch(&Batch::Flat(records.clone()), &schema, &mut bytes)?;
        let rows = wire::decode_batch(&mut wire::Reader::new(&bytes), &schema)?;
        assert!(matches!(rows, Batch::Rows(_)));
        let mut groups = Vec::new();
        pack_onto(
            &mut groups,
            Rows::from_records(schema.clone(), &records)?,
            0,
        )?;
        let forms = [rows, Batch::Flat(records), Batch::Packed(groups)];
        for stride in [1, 3] {
            let expected: Vec<Value> = (0..20)
                .step_by(stride)
                .map(|i| Value::Int((i * 7) % 20))
                .collect();
            for batch in &forms {
                let mut sampled = Vec::new();
                sample_keys(batch, 0, stride, &mut sampled)?;
                assert_eq!(sampled, expected, "{batch:?}");
            }
        }
        Ok(())
    }

    proptest! {
        /// A sort's partitioner routes an integer key by its cuts to the
        /// reducer `reducer_for` routes it to as a `Value`, or to the same
        /// error, ascending and descending: over sampled boundaries (so
        /// collapsed or empty ones) of `int` or `long` keys around ±2^53
        /// and the ends of `i64`, keys equal to a boundary included.
        #[test]
        fn sort_routing_by_integer_cuts_matches_reducer_for(
            long in any::<bool>(),
            descending in any::<bool>(),
            sample in prop::collection::vec(
                prop_oneof![
                    -3i64..3,
                    Just(i64::MIN),
                    Just(i64::MAX),
                    (1i64 << 53) - 2..(1i64 << 53) + 3,
                ],
                0..24,
            ),
            requested in 1usize..9,
            short in 0usize..2,
        ) {
            let value = |k: i64| match long {
                true => Value::Long(k),
                false => Value::Int(k.clamp(i32::MIN.into(), i32::MAX.into()) as i32),
            };
            let sample: Vec<Value> = sample.into_iter().map(value).collect();
            let boundaries =
                sampler::boundaries_from_samples(std::slice::from_ref(&sample), requested)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let num_reducers = (boundaries.len() + 1 - short).max(1);
            let p = SortPartitioner {
                range: RangePartitioner::new(boundaries),
                descending,
                num_reducers,
            };
            let cuts = p.int_cuts();
            prop_assert!(cuts.is_some());
            let probes = sample.into_iter().chain([-4, 0, 4, i64::MIN, i64::MAX].map(value));
            for key in probes {
                let got = cuts.zip(key.as_i64()).map(|(c, k)| c.reducer_for(k, num_reducers));
                let want = p.reducer_for(&key, num_reducers);
                prop_assert_eq!(format!("{got:?}"), format!("{:?}", Some(want)), "{:?}", key);
            }
        }
    }
}
