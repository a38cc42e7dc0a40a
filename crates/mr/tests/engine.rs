//! End-to-end tests of the MapReduce engine on the simulated cluster.

use papar_config::input::FieldType;
use papar_mr::engine::{FnMapper, FnReducer, HashPartitioner, IdentityPartitioner};
use papar_mr::sampler::RangePartitioner;
use papar_mr::{
    Cluster, Emit, Entry, EntryRef, MapInput, MapReduceJob, Mapper, MrError, Pairs, Partitioner,
};
use papar_record::batch::{Batch, Dataset};
use papar_record::{rec, Record, Schema, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

fn int_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![("k", FieldType::Integer)]))
}

fn pair_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        ("src", FieldType::Integer),
        ("dst", FieldType::Integer),
    ]))
}

fn int_dataset(vals: &[i32]) -> Dataset {
    Dataset::new(
        int_schema(),
        Batch::Flat(vals.iter().map(|&v| rec![v]).collect()),
    )
}

fn collect_ints(cluster: &Cluster, name: &str) -> Vec<Vec<i32>> {
    cluster
        .collect(name)
        .unwrap()
        .into_iter()
        .map(|d| {
            d.batch
                .flatten()
                .iter()
                .map(|r| r.value(0).unwrap().as_i64().unwrap() as i32)
                .collect()
        })
        .collect()
}

/// The identity mapper: emit each record keyed by its first field.
fn key_by_first(
) -> FnMapper<impl Fn(&papar_mr::TaskCtx, &[MapInput], &mut Emit<'_>) -> papar_mr::Result<()>> {
    FnMapper(
        |_ctx: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for MapInput { data: ds, .. } in inputs {
                for r in ds.batch.as_flat().unwrap() {
                    out.push(r.value(0).unwrap(), EntryRef::Rec(r))?;
                }
            }
            Ok(())
        },
    )
}

/// The pass-through reducer: strip keys, keep entries in delivered order.
#[allow(clippy::type_complexity)]
fn strip_keys() -> FnReducer<impl Fn(&papar_mr::TaskCtx, Pairs<'_>) -> papar_mr::Result<Vec<Batch>>>
{
    FnReducer(|_ctx: &papar_mr::TaskCtx, pairs: Pairs<'_>| {
        let mut records = Vec::with_capacity(pairs.record_count());
        pairs.decode_into(&mut records)?;
        Ok(vec![Batch::Flat(records)])
    })
}

/// Every packed entry, decoded into its group, in delivered order.
fn packed_groups(pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
    let mut groups = Vec::with_capacity(pairs.len());
    for pair in pairs.iter() {
        groups.push(pair?.1.decode_group().expect("expected packed entries"));
    }
    Ok(vec![Batch::Packed(groups)])
}

#[test]
fn range_sorted_job_produces_globally_sorted_output() {
    let mut cluster = Cluster::new(4);
    let vals: Vec<i32> = (0..200).map(|i| (i * 37) % 200).collect();
    cluster.scatter("in", int_dataset(&vals)).unwrap();

    let samples: Vec<Vec<Value>> = vec![vals.iter().map(|&v| Value::Int(v)).collect()];
    let part = RangePartitioner::from_samples(&samples, 3).unwrap();
    let mapper = key_by_first();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "sort".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 3,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &part,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    assert_eq!(stats.records_in, 200);
    assert_eq!(stats.records_out, 200);
    assert_eq!(stats.pairs_shuffled, 200);

    let parts = collect_ints(&cluster, "out");
    assert_eq!(parts.len(), 3);
    let concat: Vec<i32> = parts.concat();
    let mut expect = vals.clone();
    expect.sort();
    assert_eq!(
        concat, expect,
        "concatenated reducer outputs must be sorted"
    );
}

/// `Pairs::gather_rows` copies exactly the bytes the records decode from,
/// in reduce order, and refuses an entry that is not one record.
#[test]
fn gathered_rows_are_the_decoded_records_and_groups_are_refused() {
    let mut cluster = Cluster::new(3);
    let vals: Vec<i32> = (0..90).map(|i| (i * 31) % 90).collect();
    cluster.scatter("in", int_dataset(&vals)).unwrap();
    let samples: Vec<Vec<Value>> = vec![vals.iter().map(|&v| Value::Int(v)).collect()];
    let part = RangePartitioner::from_samples(&samples, 4).unwrap();
    let gather = FnReducer(|_ctx: &papar_mr::TaskCtx, pairs: Pairs<'_>| {
        let mut bytes = Vec::new();
        pairs.gather_rows(&mut bytes)?;
        let mut records = Vec::new();
        pairs.decode_into(&mut records)?;
        let rows = papar_record::Rows::new(int_schema(), bytes)?;
        assert_eq!(rows.as_bytes().len(), rows.len() * 4, "exact size");
        assert_eq!(Batch::Rows(rows.clone()), Batch::Flat(records));
        Ok(vec![Batch::Rows(rows)])
    });
    let mapper = key_by_first();
    let mut job = MapReduceJob {
        name: "sort".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 4,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &part,
        reducer: &gather,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    cluster.run_job(&job).unwrap();
    let mut sorted = vals.clone();
    sorted.sort();
    assert_eq!(collect_ints(&cluster, "out").concat(), sorted);

    // Packed groups are not rows.
    let packs = FnMapper(
        |_ctx: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for mi in inputs {
                for g in mi.data.batch.clone().pack_by(0)?.into_packed()? {
                    out.push(&g.key, EntryRef::Packed(&g))?;
                }
            }
            Ok(())
        },
    );
    job.mapper = &packs;
    job.output = "out2".into();
    let err = cluster.run_job(&job).unwrap_err();
    assert!(err.to_string().contains("not one record"), "{err}");
}

#[test]
fn identity_partitioner_routes_to_named_reducer() {
    let mut cluster = Cluster::new(2);
    cluster
        .scatter("in", int_dataset(&[5, 6, 7, 8, 9]))
        .unwrap();

    // Key = target partition (v % 3), like a distribute job's reduce-key.
    let mapper = FnMapper(
        |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for MapInput { data: ds, .. } in inputs {
                for r in ds.batch.as_flat().unwrap() {
                    let v = r.value(0).unwrap().as_i64().unwrap();
                    out.push(&Value::Int((v % 3) as i32), EntryRef::Rec(r))?;
                }
            }
            Ok(())
        },
    );
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "distr".into(),
        inputs: vec!["in".into()],
        output: "parts".into(),
        num_reducers: 3,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &IdentityPartitioner,
        reducer: &reducer,
        sort_by_key: false,
        descending: false,
        compress_key: None,
        release: &[],
    };
    cluster.run_job(&job).unwrap();
    let parts = collect_ints(&cluster, "parts");
    assert_eq!(parts.len(), 3);
    assert_eq!(parts[0], vec![6, 9]);
    assert_eq!(parts[1], vec![7]);
    assert_eq!(parts[2], vec![5, 8]);
}

#[test]
fn hash_grouping_collects_equal_keys_on_one_reducer() {
    let mut cluster = Cluster::new(3);
    let vals: Vec<i32> = (0..90).map(|i| i % 9).collect();
    cluster.scatter("in", int_dataset(&vals)).unwrap();
    let mapper = key_by_first();
    // Reducer asserts all its keys group contiguously after key sorting.
    let reducer = FnReducer(|_: &papar_mr::TaskCtx, pairs: Pairs<'_>| {
        let keys = pairs
            .iter()
            .map(|pair| Ok(pair?.0.to_value()))
            .collect::<papar_mr::Result<Vec<Value>>>()?;
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "engine must deliver key-sorted pairs");
        let mut records = Vec::with_capacity(pairs.record_count());
        pairs.decode_into(&mut records)?;
        Ok(vec![Batch::Flat(records)])
    });
    let job = MapReduceJob {
        name: "group".into(),
        inputs: vec!["in".into()],
        output: "grouped".into(),
        num_reducers: 4,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    cluster.run_job(&job).unwrap();
    // Every key's 10 copies must land in exactly one fragment.
    let parts = collect_ints(&cluster, "grouped");
    for key in 0..9 {
        let holders = parts.iter().filter(|p| p.contains(&key)).count();
        assert_eq!(holders, 1, "key {key} split across reducers");
        let total: usize = parts
            .iter()
            .map(|p| p.iter().filter(|&&v| v == key).count())
            .sum();
        assert_eq!(total, 10);
    }
}

#[test]
fn packed_entries_survive_shuffle_with_and_without_compression() {
    for compress in [None, Some(1)] {
        let mut cluster = Cluster::new(2);
        let rows = vec![rec![2, 1], rec![3, 1], rec![4, 1], rec![1, 2]];
        let packed = Batch::Flat(rows).pack_by(1).unwrap();
        cluster
            .scatter("in", Dataset::new(pair_schema(), packed))
            .unwrap();

        let mapper = FnMapper(
            |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
                for MapInput { data: ds, .. } in inputs {
                    for g in ds.batch.as_packed().unwrap() {
                        out.push(&g.key, EntryRef::Packed(g))?;
                    }
                }
                Ok(())
            },
        );
        let reducer = FnReducer(|_: &papar_mr::TaskCtx, pairs: Pairs<'_>| packed_groups(pairs));
        let job = MapReduceJob {
            name: "shuffle-packed".into(),
            inputs: vec!["in".into()],
            output: "out".into(),
            num_reducers: 2,
            map_output_schema: pair_schema(),
            output_schema: pair_schema(),
            mapper: &mapper,
            partitioner: &HashPartitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: compress,
            release: &[],
        };
        cluster.run_job(&job).unwrap();
        let out = cluster.collect_concat("out").unwrap();
        assert_eq!(out.batch.record_count(), 4, "compress={compress:?}");
        // Every member record still carries its key field after decode.
        for g in out.batch.as_packed().unwrap() {
            for r in &g.records {
                assert_eq!(r.value(1).unwrap(), &g.key);
            }
        }
    }
}

#[test]
fn compression_reduces_shuffled_bytes_on_redundant_groups() {
    // Build one big packed group per node so most traffic is packed data.
    let run = |compress: Option<usize>| -> u64 {
        let mut cluster = Cluster::new(2);
        let mut rows = Vec::new();
        for g in 0..20 {
            for i in 0..20 {
                rows.push(rec![g * 100 + i, g]); // 20 edges into each of 20 vertices
            }
        }
        let packed = Batch::Flat(rows).pack_by(1).unwrap();
        cluster
            .scatter("in", Dataset::new(pair_schema(), packed))
            .unwrap();
        let mapper = FnMapper(
            |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
                for MapInput { data: ds, .. } in inputs {
                    for g in ds.batch.as_packed().unwrap() {
                        out.push(&g.key, EntryRef::Packed(g))?;
                    }
                }
                Ok(())
            },
        );
        let reducer = FnReducer(|_: &papar_mr::TaskCtx, pairs: Pairs<'_>| packed_groups(pairs));
        // Force cross-node traffic: single reducer on node 0.
        let job = MapReduceJob {
            name: "c".into(),
            inputs: vec!["in".into()],
            output: "out".into(),
            num_reducers: 1,
            map_output_schema: pair_schema(),
            output_schema: pair_schema(),
            mapper: &mapper,
            partitioner: &HashPartitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: compress,
            release: &[],
        };
        let stats = cluster.run_job(&job).unwrap();
        stats.exchange.remote_bytes
    };
    let plain = run(None);
    let compressed = run(Some(1));
    assert!(
        compressed < plain,
        "CSC compression should shrink the shuffle: {compressed} >= {plain}"
    );
}

#[test]
fn results_are_deterministic_across_runs_and_node_counts_content() {
    let vals: Vec<i32> = (0..500).map(|i| (i * 131) % 97).collect();
    let run = |nodes: usize| -> Vec<Vec<i32>> {
        let mut cluster = Cluster::new(nodes);
        cluster.scatter("in", int_dataset(&vals)).unwrap();
        let samples: Vec<Vec<Value>> = vec![vals.iter().map(|&v| Value::Int(v)).collect()];
        let part = RangePartitioner::from_samples(&samples, 4).unwrap();
        let mapper = key_by_first();
        let reducer = strip_keys();
        let job = MapReduceJob {
            name: "sort".into(),
            inputs: vec!["in".into()],
            output: "out".into(),
            num_reducers: 4,
            map_output_schema: int_schema(),
            output_schema: int_schema(),
            mapper: &mapper,
            partitioner: &part,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: None,
            release: &[],
        };
        cluster.run_job(&job).unwrap();
        collect_ints(&cluster, "out")
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(
        a, b,
        "same cluster size must reproduce identical partitions"
    );
    // Different node counts keep the same *sorted content* per reducer
    // because the range partitioner fixes reducer ranges.
    let c = run(5);
    assert_eq!(a, c, "reducer ranges are node-count independent");
}

#[test]
fn zero_reducers_is_an_error() {
    let mut cluster = Cluster::new(2);
    cluster.scatter("in", int_dataset(&[1])).unwrap();
    let mapper = key_by_first();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "bad".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 0,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: false,
        descending: false,
        compress_key: None,
        release: &[],
    };
    assert!(cluster.run_job(&job).is_err());
}

#[test]
fn reducers_past_the_sort_key_field_are_an_error() {
    let mut cluster = Cluster::new(2);
    cluster.scatter("in", int_dataset(&[1, 2])).unwrap();
    let mapped = AtomicBool::new(false);
    let inner = key_by_first();
    let mapper = FnMapper(
        |ctx: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            mapped.store(true, AtomicOrdering::SeqCst);
            inner.map(ctx, inputs, out)
        },
    );
    let reducer = strip_keys();
    let mut job = MapReduceJob {
        name: "wide".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 1 << 24,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let err = cluster.run_job(&job).unwrap_err();
    assert!(
        matches!(
            err,
            MrError::WireOverflow {
                field: "reducer",
                value,
                ..
            } if value == 1 << 24
        ),
        "expected WireOverflow, got {err:?}"
    );
    assert!(
        !mapped.load(AtomicOrdering::SeqCst),
        "the limit must be checked before any map task runs"
    );
    // The refused job left nothing behind: the next one runs normally.
    job.num_reducers = 2;
    let stats = cluster.run_job(&job).unwrap();
    assert_eq!(stats.records_out, 2);
    assert_eq!(
        cluster.collect_concat("out").unwrap().batch.record_count(),
        2
    );
}

#[test]
fn out_of_range_partitioner_is_rejected() {
    struct Bad;
    impl papar_mr::Partitioner for Bad {
        fn reducer_for(&self, _: &Value, n: usize) -> papar_mr::Result<usize> {
            // Returns in-band instead of erroring — the engine's
            // defensive check must still reject it.
            Ok(n + 5)
        }
    }
    let mut cluster = Cluster::new(2);
    cluster.scatter("in", int_dataset(&[1, 2])).unwrap();
    let mapper = key_by_first();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "bad".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 2,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &Bad,
        reducer: &reducer,
        sort_by_key: false,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let e = cluster.run_job(&job).unwrap_err();
    assert!(e.to_string().contains("partitioner"), "{e}");
}

#[test]
fn missing_input_dataset_yields_empty_maps() {
    let mut cluster = Cluster::new(2);
    // No scatter at all: mappers see zero fragments and emit nothing; the
    // job still completes with empty stats (mirrors an empty HDFS dir).
    let mapper = key_by_first();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "empty".into(),
        inputs: vec!["ghost".into()],
        output: "out".into(),
        num_reducers: 2,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    assert_eq!(stats.records_in, 0);
    assert_eq!(stats.records_out, 0);
    // Every reducer still materializes an (empty) output fragment, so a
    // distribute job always produces all of its partitions.
    let parts = cluster.collect("out").unwrap();
    assert_eq!(parts.len(), 2);
    assert!(parts.iter().all(|p| p.batch.is_empty()));
}

#[test]
fn multiple_inputs_are_all_mapped() {
    let mut cluster = Cluster::new(2);
    cluster.scatter("a", int_dataset(&[1, 2])).unwrap();
    cluster.scatter("b", int_dataset(&[3])).unwrap();
    let mapper = key_by_first();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "multi".into(),
        inputs: vec!["a".into(), "b".into()],
        output: "out".into(),
        num_reducers: 1,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    assert_eq!(stats.records_in, 3);
    let out = cluster.collect_concat("out").unwrap();
    assert_eq!(out.batch.record_count(), 3);
}

#[test]
fn stats_time_components_are_populated() {
    let mut cluster = Cluster::new(3);
    let vals: Vec<i32> = (0..3000).collect();
    cluster.scatter("in", int_dataset(&vals)).unwrap();
    let mapper = key_by_first();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "t".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 3,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    assert_eq!(stats.map_time_by_node.len(), 3);
    assert!(stats.map_time() > std::time::Duration::ZERO);
    assert!(stats.exchange.remote_bytes > 0);
    assert!(stats.sim_time() >= stats.map_time());
}

#[test]
fn entry_record_count_accessor() {
    assert_eq!(Entry::Rec(rec![1]).record_count(), 1);
    let p = papar_record::PackedRecord {
        key: Value::Int(1),
        records: vec![rec![2, 1], rec![3, 1]],
    };
    assert_eq!(Entry::Packed(p).record_count(), 2);
}

#[test]
fn reducers_outnumbering_nodes_still_produce_all_fragments() {
    let mut cluster = Cluster::new(2);
    let vals: Vec<i32> = (0..40).collect();
    cluster.scatter("in", int_dataset(&vals)).unwrap();
    let mapper = FnMapper(
        |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for MapInput { data: ds, .. } in inputs {
                for r in ds.batch.as_flat().unwrap() {
                    let v = r.value(0).unwrap().as_i64().unwrap();
                    out.push(&Value::Int((v % 8) as i32), EntryRef::Rec(r))?;
                }
            }
            Ok(())
        },
    );
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "wide".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 8,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &IdentityPartitioner,
        reducer: &reducer,
        sort_by_key: false,
        descending: false,
        compress_key: None,
        release: &[],
    };
    cluster.run_job(&job).unwrap();
    let parts = collect_ints(&cluster, "out");
    assert_eq!(parts.len(), 8);
    for (i, p) in parts.iter().enumerate() {
        assert_eq!(p.len(), 5, "fragment {i} wrong: {p:?}");
        assert!(p.iter().all(|v| (v % 8) as usize == i));
    }
}

#[test]
fn per_node_stats_land_in_their_slots_regardless_of_completion_order() {
    // Node 0's mapper does by far the most compute, so with one thread
    // per node it finishes *last*; its time must still land in slot 0 of
    // `map_time_by_node`, not wherever the joining order put it. The
    // load is a CPU spin (not a sleep) because task compute is charged
    // from the per-thread CPU clock.
    let mut cluster = Cluster::new(3).with_threads(3);
    let vals: Vec<i32> = (0..30).collect();
    cluster.scatter("in", int_dataset(&vals)).unwrap();
    let spin_iters = [40_000_000u64, 4_000_000, 50_000];
    let inner = key_by_first();
    let mapper = FnMapper(
        move |ctx: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            let mut x = 1u64;
            for i in 0..spin_iters[ctx.node] {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            inner.map(ctx, inputs, out)
        },
    );
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "slots".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 3,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    assert_eq!(stats.map_time_by_node.len(), 3);
    let t = &stats.map_time_by_node;
    assert!(
        t[0] > t[1] && t[1] > t[2],
        "per-node times must follow the injected sleeps, got {t:?}"
    );
    assert_eq!(stats.records_in, 30);
}

#[test]
fn record_type_is_reexported() {
    // Compile-time check that the public surface exposes what operators
    // need without reaching into private modules.
    let _: Record = rec![1];
}

#[test]
fn distribute_key_out_of_range_errors_instead_of_skewing() {
    // A distribute-style job whose policy emits partition id
    // `num_reducers` must fail with a typed error; the engine used to
    // clamp it onto the last reducer and silently skew the output.
    let mut cluster = Cluster::new(2);
    cluster.scatter("in", int_dataset(&[1, 2, 3, 4])).unwrap();
    let mapper = FnMapper(
        |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for MapInput { data: ds, .. } in inputs {
                for r in ds.batch.as_flat().unwrap() {
                    // Policy bug under test: one-past-the-end partition id.
                    out.push(&Value::Int(3), EntryRef::Rec(r))?;
                }
            }
            Ok(())
        },
    );
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "distribute".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 3,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &IdentityPartitioner,
        reducer: &reducer,
        sort_by_key: false,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let err = cluster.run_job(&job).unwrap_err();
    assert!(
        matches!(
            err,
            papar_mr::MrError::PartitionOutOfRange {
                id: 3,
                num_reducers: 3
            }
        ),
        "expected PartitionOutOfRange, got {err:?}"
    );
}

#[test]
fn distribute_negative_key_errors_instead_of_clamping() {
    let mut cluster = Cluster::new(2);
    cluster.scatter("in", int_dataset(&[1, 2])).unwrap();
    let mapper = FnMapper(
        |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for MapInput { data: ds, .. } in inputs {
                for r in ds.batch.as_flat().unwrap() {
                    out.push(&Value::Int(-1), EntryRef::Rec(r))?;
                }
            }
            Ok(())
        },
    );
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "distribute-neg".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 3,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &IdentityPartitioner,
        reducer: &reducer,
        sort_by_key: false,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let err = cluster.run_job(&job).unwrap_err();
    assert!(
        matches!(
            err,
            papar_mr::MrError::PartitionOutOfRange {
                id: -1,
                num_reducers: 3
            }
        ),
        "expected PartitionOutOfRange, got {err:?}"
    );
}

#[test]
fn identity_partitioner_refuses_a_non_integer_key() {
    for key in [Value::from("3"), Value::Double(1.0)] {
        let mut cluster = Cluster::new(2);
        cluster.scatter("in", int_dataset(&[1, 2])).unwrap();
        let mapper = FnMapper(
            |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
                for MapInput { data: ds, .. } in inputs {
                    for r in ds.batch.as_flat().unwrap() {
                        out.push(&key, EntryRef::Rec(r))?;
                    }
                }
                Ok(())
            },
        );
        let reducer = strip_keys();
        let job = MapReduceJob {
            name: "distribute-str".into(),
            inputs: vec!["in".into()],
            output: "out".into(),
            num_reducers: 3,
            map_output_schema: int_schema(),
            output_schema: int_schema(),
            mapper: &mapper,
            partitioner: &IdentityPartitioner,
            reducer: &reducer,
            sort_by_key: false,
            descending: false,
            compress_key: None,
            release: &[],
        };
        let err = cluster.run_job(&job).unwrap_err();
        assert_eq!(err, MrError::NonIntegerReducerKey { key: key.clone() });
        assert!(
            err.to_string().contains(&format!("{key:?}")),
            "the error names the key: {err}"
        );
        assert!(cluster.collect("out").is_err(), "nothing was committed");
    }
}

#[test]
fn collector_trace_covers_phases_tasks_and_skew() {
    use papar_trace::{Collector, PhaseKind};

    let mut cluster = Cluster::new(4).with_tracer(Box::new(Collector::new()));
    let vals: Vec<i32> = (0..120).map(|i| (i * 13) % 120).collect();
    cluster.scatter("in", int_dataset(&vals)).unwrap();
    let mapper = key_by_first();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "traced-sort".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 3,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    let trace = cluster.take_trace().expect("collector must yield a trace");

    assert_eq!(trace.jobs.len(), 1);
    let jt = &trace.jobs[0];
    assert_eq!(jt.name, "traced-sort");
    let kinds: Vec<PhaseKind> = jt.phases.iter().map(|p| p.kind).collect();
    assert_eq!(
        kinds,
        vec![PhaseKind::Map, PhaseKind::Shuffle, PhaseKind::Reduce]
    );
    // The per-phase virtual times must sum exactly to the makespan the
    // stats report (map barrier + comm + reduce barrier).
    assert_eq!(jt.virt(), stats.sim_time());

    // One task span per node in both compute phases, in slot order.
    let map = &jt.phases[0];
    let reduce = &jt.phases[2];
    assert_eq!(map.tasks.len(), 4);
    assert_eq!(reduce.tasks.len(), 4);
    for (i, t) in map.tasks.iter().enumerate() {
        assert_eq!(t.node, i);
    }
    assert_eq!(map.counters.records_in, 120);
    assert_eq!(map.counters.pairs, 120);
    assert_eq!(reduce.counters.records_out, 120);

    // Skew histogram: one bucket per reducer, records summing to the
    // shuffled pair count.
    let skew = jt.skew.as_ref().expect("traced job must carry skew");
    assert_eq!(skew.records.len(), 3);
    assert_eq!(skew.records.iter().sum::<u64>(), 120);
    assert!(skew.bytes.iter().sum::<u64>() > 0);

    // The Chrome export is non-trivial and mentions every phase.
    let json = papar_trace::to_chrome_json(&trace);
    for needle in ["traced-sort", "\"map\"", "\"shuffle\"", "\"reduce\""] {
        assert!(json.contains(needle), "chrome json missing {needle}");
    }
}

/// Keys biased toward packed-prefix collisions: strings sharing their
/// first 8 bytes, equal numbers across Int/Long/Double (`Int(7)` and
/// `Long(7)`), f64-lossy `Long`s, ±0.0, NaN, and the shape of
/// `key_strategy` in papar-record's property tests.
fn colliding_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i32..3).prop_map(Value::Int),
        (-3i64..3).prop_map(Value::Long),
        (-3i64..3).prop_map(|x| Value::Double(x as f64)),
        Just(Value::Int(7)),
        Just(Value::Long(7)),
        Just(Value::Double(0.0)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(f64::NAN)),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        ((1i64 << 53) - 2..(1i64 << 53) + 2).prop_map(Value::Long),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Double),
        "shared-8[a-b]{0,3}".prop_map(Value::from),
        "(müll|straße|)[a-b]{0,12}".prop_map(Value::from),
        "[ -~]{0,16}".prop_map(Value::from),
        Just(Value::Str("".into())),
    ]
}

/// Delivered pairs as `[id, mapper, seq, run]`, one list per reducer;
/// `run` numbers the reducer's key-equal runs as [`Pairs::runs`] cut them.
type Delivered = Vec<Vec<[i32; 4]>>;

/// Run one keyed job whose mapper tags every entry with its input id,
/// mapper and emission index, and whose reducer returns the entries in
/// the order it received them, each tagged with its run's ordinal. Also
/// returns the job's `HotPathStats::tie_pairs`.
fn run_recording(
    keys: &[Value],
    sort_by_key: bool,
    descending: bool,
    threads: usize,
) -> (Delivered, u64) {
    let schema = Arc::new(Schema::new(vec![
        ("id", FieldType::Integer),
        ("mapper", FieldType::Integer),
        ("seq", FieldType::Integer),
    ]));
    let out_schema = Arc::new(Schema::new(vec![
        ("id", FieldType::Integer),
        ("mapper", FieldType::Integer),
        ("seq", FieldType::Integer),
        ("run", FieldType::Integer),
    ]));
    let mut cluster = Cluster::new(3).with_threads(threads);
    let ids: Vec<i32> = (0..keys.len() as i32).collect();
    cluster.scatter("in", int_dataset(&ids)).unwrap();
    let mapper = FnMapper(
        |ctx: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            let mut seq = 0;
            for MapInput { data: ds, .. } in inputs {
                for r in ds.batch.as_flat().unwrap() {
                    let id = r.value(0).unwrap().as_i64().unwrap() as i32;
                    let tag = rec![id, ctx.node as i32, seq];
                    out.push(&keys[id as usize], EntryRef::Rec(&tag))?;
                    seq += 1;
                }
            }
            Ok(())
        },
    );
    let reducer = FnReducer(|_: &papar_mr::TaskCtx, pairs: Pairs<'_>| {
        let mut records = Vec::with_capacity(pairs.record_count());
        for (ordinal, run) in pairs.runs().enumerate() {
            let start = records.len();
            run?.decode_into(&mut records)?;
            for r in &mut records[start..] {
                r.push(Value::Int(ordinal as i32));
            }
        }
        Ok(vec![Batch::Flat(records)])
    });
    let job = MapReduceJob {
        name: "order".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 3,
        map_output_schema: schema,
        output_schema: out_schema,
        mapper: &mapper,
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key,
        descending,
        compress_key: None,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    let delivered = cluster
        .collect("out")
        .unwrap()
        .into_iter()
        .map(|d| {
            d.batch
                .flatten()
                .iter()
                .map(|r| [0, 1, 2, 3].map(|i| r.value(i).unwrap().as_i64().unwrap() as i32))
                .collect()
        })
        .collect();
    (delivered, stats.hot.tie_pairs)
}

/// The reference reduce order, `(reducer, key?, mapper, seq)`: the
/// comparator the engine's packed sort must agree with.
fn oracle_cmp(
    keys: &[Value],
    sort_by_key: bool,
    descending: bool,
) -> impl Fn(&[i32; 4], &[i32; 4]) -> Ordering + '_ {
    move |a, b| {
        let key_ord = if sort_by_key {
            let ord = keys[a[0] as usize].cmp(&keys[b[0] as usize]);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        } else {
            Ordering::Equal
        };
        key_ord.then(a[1].cmp(&b[1])).then(a[2].cmp(&b[2]))
    }
}

/// What [`run_recording`] must deliver: the pairs it did deliver, each
/// reducer's in the reference order, with the runs numbered afresh
/// wherever a key is not equal to its run's first key.
fn reference_delivery(
    keys: &[Value],
    got: &Delivered,
    sort_by_key: bool,
    descending: bool,
) -> Delivered {
    let mut want: Delivered = vec![Vec::new(); got.len()];
    for t in got.iter().flatten() {
        let rid = HashPartitioner
            .reducer_for(&keys[t[0] as usize], 3)
            .unwrap();
        want[rid].push(*t);
    }
    for group in &mut want {
        group.sort_by(oracle_cmp(keys, sort_by_key, descending));
        let mut first: Option<&Value> = None;
        let mut ordinal = -1;
        for t in group.iter_mut() {
            let key = &keys[t[0] as usize];
            if first != Some(key) {
                first = Some(key);
                ordinal += 1;
            }
            t[3] = ordinal;
        }
    }
    want
}

/// The pairs a keyed job over `keys` puts in prefix-tie runs: every pair
/// that shares its `(reducer, key prefix)` with another.
fn expected_tie_pairs(keys: &[Value]) -> u64 {
    let mut runs: std::collections::HashMap<(usize, u128), u64> = Default::default();
    for key in keys {
        let rid = HashPartitioner.reducer_for(key, 3).unwrap();
        *runs
            .entry((rid, papar_record::prefix::of_value(key).packed66()))
            .or_default() += 1;
    }
    runs.values().filter(|&&n| n >= 2).sum()
}

/// The tie fix-up parses keys again only when the inbox scan saw an
/// inexact prefix. Either way the reducers get the reference order, and
/// `tie_pairs` counts every pair in a prefix-tie run.
#[test]
fn tie_fixup_keeps_the_order_and_the_tie_count_with_and_without_inexact_keys() {
    let exact: Vec<Value> = [1, 2, 1, 3, 1, 2]
        .into_iter()
        .map(Value::Int)
        .chain([Value::Long(7), Value::Int(7), Value::Long(7)])
        .chain(["ab", "b", "ab", "", "b", ""].map(Value::from))
        .collect();
    let inexact: Vec<Value> = [
        "shared-prefix-c",
        "shared-prefix-a",
        "shared-prefix-b",
        "shared-prefix-a",
        "shared-p",
    ]
    .map(Value::from)
    .into_iter()
    .chain(
        [3, 1, 2, 1, 0]
            .into_iter()
            .map(|d| Value::Long((1 << 53) + d)),
    )
    .chain([Value::Int(4), Value::Int(4)])
    .collect();
    for (keys, inexact_keys) in [(&exact, false), (&inexact, true)] {
        assert_eq!(
            keys.iter()
                .any(|k| !papar_record::prefix::of_value(k).exact),
            inexact_keys
        );
        let ties = expected_tie_pairs(keys);
        assert!(ties > 0, "the keys must tie on their prefixes");
        for descending in [false, true] {
            for threads in [1, 4] {
                let (got, tie_pairs) = run_recording(keys, true, descending, threads);
                let want = reference_delivery(keys, &got, true, descending);
                assert_eq!(got, want, "descending={descending} threads={threads}");
                assert_eq!(
                    tie_pairs, ties,
                    "inexact={inexact_keys} descending={descending} threads={threads}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reducer receives its pairs in the reference order — keys that
    /// tie on their packed prefix included — with key sorting on and off,
    /// ascending and descending, at 1 and 4 threads; and `Pairs::runs`
    /// cuts that order wherever a key is not equal to its run's first key,
    /// which prefix ties alone cannot tell.
    #[test]
    fn reducers_receive_pairs_in_reference_order(
        keys in prop::collection::vec(colliding_key(), 0..80),
    ) {
        for sort_by_key in [true, false] {
            for descending in [false, true] {
                for threads in [1, 4] {
                    let (got, _) = run_recording(&keys, sort_by_key, descending, threads);
                    let mut ids: Vec<i32> = got.iter().flatten().map(|t| t[0]).collect();
                    ids.sort_unstable();
                    prop_assert_eq!(ids, (0..keys.len() as i32).collect::<Vec<_>>());
                    let want = reference_delivery(&keys, &got, sort_by_key, descending);
                    prop_assert_eq!(
                        &got, &want,
                        "sort_by_key={} descending={} threads={}", sort_by_key, descending, threads
                    );
                }
            }
        }
    }
}

/// Released at the map barrier, a job's input is gone before any reduce
/// task runs: a reduce-phase crash restores — and charges — only the
/// fragments still live (here another dataset the crashed node holds, as
/// a primary and as a replica), at every thread count.
#[test]
fn reduce_crash_after_release_restores_live_fragments_only() {
    use papar_mr::{Fault, FaultPlan, TaskPhase};
    let input: Vec<i32> = (0..30).collect();
    let other: Vec<i32> = (0..9).collect();
    let restore_bytes = |release: &[String], threads: usize| -> u64 {
        let mut cluster = Cluster::new(3)
            .with_threads(threads)
            .with_replication(1)
            .with_fault_plan(FaultPlan::new(vec![Fault::NodeCrash {
                node: 1,
                job: 0,
                phase: TaskPhase::Reduce,
            }]));
        cluster.scatter("in", int_dataset(&input)).unwrap();
        cluster.scatter("other", int_dataset(&other)).unwrap();
        let mapper = key_by_first();
        let reducer = strip_keys();
        let job = MapReduceJob {
            name: "sort".into(),
            inputs: vec!["in".into()],
            output: "out".into(),
            num_reducers: 3,
            map_output_schema: int_schema(),
            output_schema: int_schema(),
            mapper: &mapper,
            partitioner: &HashPartitioner,
            reducer: &reducer,
            sort_by_key: true,
            descending: false,
            compress_key: None,
            release,
        };
        let stats = cluster.run_job(&job).unwrap();
        assert_eq!(stats.recovery.faults_injected, 1);
        assert_eq!(stats.records_out, 30);
        let holds_input = (0..3).any(|n| {
            let store = cluster.node(n);
            store.contains("in") || store.replica_ids().iter().any(|(name, _)| name == "in")
        });
        assert_eq!(holds_input, release.is_empty());
        stats.recovery.restore_bytes
    };
    // Scatter splits contiguously, one chunk per node; replica copies land
    // on the next node. Node 1 holds chunk 1 and the replica of chunk 0.
    let size = |vals: &[i32]| {
        let ds = int_dataset(vals);
        papar_record::wire::encoded_size(&ds.batch, &ds.schema).unwrap() as u64
    };
    let live = size(&other[3..6]) + size(&other[0..3]);
    let released = size(&input[10..20]) + size(&input[0..10]);
    for threads in [1, 4] {
        assert_eq!(restore_bytes(&["in".to_string()], threads), live);
        assert_eq!(restore_bytes(&[], threads), live + released);
    }
}
