//! End-to-end tests of the MapReduce engine on the simulated cluster.

use papar_config::input::FieldType;
use papar_mr::engine::{FnMapper, FnReducer, HashPartitioner, IdentityPartitioner, KeyedMapper};
use papar_mr::sampler::RangePartitioner;
use papar_mr::{
    Cluster, Emit, Entry, EntryRef, MapInput, MapReduceJob, Mapper, MrError, PairKey, Pairs,
    Partitioner,
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
/// in reduce order — a packed group's members included — and refuses a
/// compressed group, which holds no record bytes.
#[test]
fn gathered_rows_are_the_decoded_records_and_compressed_groups_are_refused() {
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

    // Packed groups gather as their members; compressed ones are refused.
    let packs = FnMapper(
        |_ctx: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for mi in inputs {
                let mut sorted = mi.data.batch.clone().flatten();
                sorted.sort_by(|a, b| a.value(0).cmp(&b.value(0)));
                for g in Batch::Flat(sorted)
                    .pack_by(&int_schema(), 0)?
                    .into_packed()?
                {
                    out.push(&g.key, EntryRef::Packed(&g))?;
                }
            }
            Ok(())
        },
    );
    job.mapper = &packs;
    job.output = "out2".into();
    cluster.run_job(&job).unwrap();
    assert_eq!(collect_ints(&cluster, "out2").concat(), sorted);
    job.output = "out3".into();
    job.compress_key = Some(0);
    let err = cluster.run_job(&job).unwrap_err();
    assert!(err.to_string().contains("compressed group"), "{err}");
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

/// A keyless mapper pushes each entry straight to its reducer, in runs
/// based where its fragment's entries start. Whatever node a fragment
/// lands on, each reducer gets its entries in base order: here the
/// fragments are placed so that node 0 holds the highest bases.
#[test]
fn a_keyless_job_reduces_its_runs_in_base_order() {
    struct ByBase;
    impl Mapper for ByBase {
        fn map(
            &self,
            _: &papar_mr::TaskCtx,
            inputs: &[MapInput],
            out: &mut Emit<'_>,
        ) -> papar_mr::Result<()> {
            for mi in inputs {
                // Fragment f holds the values 10 (5 - f) ..
                out.set_base(10 * (5 - u64::from(mi.ordinal)));
                for (i, entry) in EntryRef::all(&mi.data.batch).enumerate() {
                    out.push_to(i % 2, entry)?;
                }
            }
            Ok(())
        }

        fn key(&self) -> PairKey {
            PairKey::None
        }
    }
    for threads in [1, 4] {
        let mut cluster = Cluster::new(3).with_threads(threads);
        let fragments = (0..6)
            .map(|f| {
                let vals: Vec<i32> = (0..4).map(|i| 10 * (5 - f) + i).collect();
                Arc::new(int_dataset(&vals))
            })
            .collect();
        cluster.place("in", fragments).unwrap();
        let reducer = strip_keys();
        let job = MapReduceJob {
            name: "keyless".into(),
            inputs: vec!["in".into()],
            output: "parts".into(),
            num_reducers: 2,
            map_output_schema: int_schema(),
            output_schema: int_schema(),
            mapper: &ByBase,
            partitioner: &IdentityPartitioner,
            reducer: &reducer,
            sort_by_key: false,
            descending: false,
            compress_key: None,
            release: &[],
        };
        let stats = cluster.run_job(&job).unwrap();
        assert_eq!(stats.hot.tie_pairs, 0);
        let parts = collect_ints(&cluster, "parts");
        let evens: Vec<i32> = (0..6).flat_map(|f| [10 * f, 10 * f + 2]).collect();
        let odds: Vec<i32> = evens.iter().map(|v| v + 1).collect();
        assert_eq!(parts, vec![evens, odds], "{threads} thread(s)");
        // A keyless job has no key to sort by.
        let sorted = MapReduceJob {
            sort_by_key: true,
            ..job
        };
        assert!(matches!(cluster.run_job(&sorted), Err(MrError::Msg(_))));
    }
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
        let packed = Batch::Flat(rows).pack_by(&pair_schema(), 1).unwrap();
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
            for r in g.members.iter() {
                assert_eq!(r.field(1).unwrap(), g.key);
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
        let packed = Batch::Flat(rows).pack_by(&pair_schema(), 1).unwrap();
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
    let members = papar_record::Rows::from_records(pair_schema(), &[rec![2, 1], rec![3, 1]]);
    let p = papar_record::PackedRecord {
        key: Value::Int(1),
        members: members.unwrap(),
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
    /// which prefix ties alone cannot tell. Both ways of cutting runs are
    /// checked: the generated keys (almost always with an inexact prefix,
    /// so pairs are parsed) and their exact-prefix subset (sorted jobs
    /// then cut runs from the packed keys alone).
    #[test]
    fn reducers_receive_pairs_in_reference_order(
        keys in prop::collection::vec(colliding_key(), 0..80),
    ) {
        let exact: Vec<Value> = (keys.iter())
            .filter(|k| papar_record::prefix::of_value(k).exact)
            .cloned()
            .collect();
        for keys in [&keys, &exact] {
            for sort_by_key in [true, false] {
                for descending in [false, true] {
                    for threads in [1, 4] {
                        let (got, _) = run_recording(keys, sort_by_key, descending, threads);
                        let mut ids: Vec<i32> = got.iter().flatten().map(|t| t[0]).collect();
                        ids.sort_unstable();
                        prop_assert_eq!(ids, (0..keys.len() as i32).collect::<Vec<_>>());
                        let want = reference_delivery(keys, &got, sort_by_key, descending);
                        prop_assert_eq!(
                            &got, &want,
                            "sort_by_key={} descending={} threads={}",
                            sort_by_key, descending, threads
                        );
                    }
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

/// A shuffled pair is its tagged key and the record, with no per-pair
/// header or tag; each non-empty (sender, reducer) segment adds one 8-byte
/// header, and, as every node holds one fragment of flat records, one
/// 13-byte run header. `remote_bytes` counts exactly that for what leaves
/// a node, and `shuffle_lo` the records and the segment headers, with one
/// and with two reducers per node, at every thread count.
#[test]
fn remote_bytes_are_the_pairs_plus_one_header_per_segment() {
    let nodes = 3;
    let fragments: Vec<Dataset> = (0..nodes)
        .map(|i| {
            let records = (0..20 + 7 * i as i32)
                .map(|k| rec![(k * 31 + i as i32 * 7) % 23, k])
                .collect();
            Dataset::new(pair_schema(), Batch::Flat(records))
        })
        .collect();
    for reducers in [nodes, 2 * nodes] {
        let mut pair_bytes = 0;
        let mut record_bytes = 0;
        let mut segments = std::collections::BTreeSet::new();
        for (from, frag) in fragments.iter().enumerate() {
            for r in frag.batch.as_flat().unwrap() {
                let key = r.value(0).unwrap();
                let reducer = HashPartitioner.reducer_for(key, reducers).unwrap();
                if reducer % nodes != from {
                    let mut bytes = Vec::new();
                    papar_record::wire::encode_value(key, &mut bytes).unwrap();
                    let key_len = bytes.len();
                    papar_record::wire::encode_record(r, &pair_schema(), &mut bytes).unwrap();
                    pair_bytes += bytes.len() as u64;
                    record_bytes += (bytes.len() - key_len) as u64;
                    segments.insert((from, reducer));
                }
            }
        }
        let want = pair_bytes + (8 + 13) * segments.len() as u64;
        for threads in [1, 4] {
            let mut cluster = Cluster::new(nodes).with_threads(threads);
            let shared = fragments.iter().cloned().map(Arc::new).collect();
            cluster.place("in", shared).unwrap();
            let mapper = key_by_first();
            let reducer = strip_keys();
            let job = MapReduceJob {
                name: "segments".into(),
                inputs: vec!["in".into()],
                output: "out".into(),
                num_reducers: reducers,
                map_output_schema: pair_schema(),
                output_schema: pair_schema(),
                mapper: &mapper,
                partitioner: &HashPartitioner,
                reducer: &reducer,
                sort_by_key: true,
                descending: false,
                compress_key: None,
                release: &[],
            };
            let stats = cluster.run_job(&job).unwrap();
            assert_eq!(
                stats.exchange.remote_bytes, want,
                "{reducers} reducers, {threads} thread(s)"
            );
            assert_eq!(stats.shuffle_lo, record_bytes + 8 * segments.len() as u64);
            let messages = (0..nodes)
                .flat_map(|from| (0..nodes).map(move |to| (from, to)))
                .filter(|&(from, to)| {
                    from != to && segments.iter().any(|&(f, r)| f == from && r % nodes == to)
                })
                .count();
            assert_eq!(stats.exchange.remote_messages, messages as u64);
        }
    }
}

/// A field-keyed pair is its entry: the record, with no key or tag of its
/// own; each non-empty (sender, reducer) segment adds one 8-byte header
/// and one 13-byte run header. `remote_bytes` counts exactly that, and
/// `shuffle_lo` is all of it but the run headers, with one and with two
/// reducers per node, at every thread count.
#[test]
fn field_keyed_remote_bytes_are_the_entries_plus_one_header_per_segment() {
    let nodes = 3;
    let fragments: Vec<Dataset> = (0..nodes)
        .map(|i| {
            let records = (0..20 + 7 * i as i32)
                .map(|k| rec![(k * 31 + i as i32 * 7) % 23, k])
                .collect();
            Dataset::new(pair_schema(), Batch::Flat(records))
        })
        .collect();
    // Two `Int`s.
    let entry_bytes = 8;
    for reducers in [nodes, 2 * nodes] {
        let mut entries = 0;
        let mut segments = std::collections::BTreeSet::new();
        for (from, frag) in fragments.iter().enumerate() {
            for r in frag.batch.as_flat().unwrap() {
                let reducer = HashPartitioner
                    .reducer_for(r.value(0).unwrap(), reducers)
                    .unwrap();
                if reducer % nodes != from {
                    entries += 1;
                    segments.insert((from, reducer));
                }
            }
        }
        let lo = entry_bytes * entries + 8 * segments.len() as u64;
        let want = lo + 13 * segments.len() as u64;
        for threads in [1, 4] {
            let mut cluster = Cluster::new(nodes).with_threads(threads);
            let shared = fragments.iter().cloned().map(Arc::new).collect();
            cluster.place("in", shared).unwrap();
            let reducer = strip_keys();
            let job = MapReduceJob {
                name: "entries".into(),
                inputs: vec!["in".into()],
                output: "out".into(),
                num_reducers: reducers,
                map_output_schema: pair_schema(),
                output_schema: pair_schema(),
                mapper: &KeyedMapper { key_field: 0 },
                partitioner: &HashPartitioner,
                reducer: &reducer,
                sort_by_key: true,
                descending: false,
                compress_key: None,
                release: &[],
            };
            let stats = cluster.run_job(&job).unwrap();
            assert_eq!(
                stats.exchange.remote_bytes, want,
                "{reducers} reducers, {threads} thread(s)"
            );
            assert_eq!(stats.shuffle_lo, lo);
            let records: usize = fragments.iter().map(|f| f.batch.record_count()).sum();
            assert_eq!(stats.records_out, records as u64);
        }
    }
}

/// A job keyed by a field its entries do not have is refused before any
/// map task runs.
#[test]
fn a_key_field_past_the_entries_is_an_error() {
    let mut cluster = Cluster::new(2);
    cluster.scatter("in", int_dataset(&[1, 2])).unwrap();
    let reducer = strip_keys();
    let job = MapReduceJob {
        name: "past".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 2,
        map_output_schema: int_schema(),
        output_schema: int_schema(),
        mapper: &KeyedMapper { key_field: 1 },
        partitioner: &HashPartitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending: false,
        compress_key: None,
        release: &[],
    };
    assert!(matches!(cluster.run_job(&job), Err(MrError::Codec(_))));
}

/// Records of a `Str` key, a `Long` and an `Int`: the keys tie on their
/// packed prefixes, inexactly (strings sharing 8 bytes, `Long`s past
/// 2^53), and exactly.
fn tie_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        ("v", FieldType::Str),
        ("w", FieldType::Long),
        ("n", FieldType::Integer),
    ]))
}

fn tie_records() -> Vec<Record> {
    let strs = [
        "shared-prefix-c",
        "shared-prefix-a",
        "shared-p",
        "shared-prefix-b",
        "a",
        "",
        "abcdefgh",
        "abcdefghz",
    ];
    let longs = [3, 1, 2, 1, 0].map(|d| (1i64 << 53) + d);
    (0..40)
        .map(|i| {
            let w = match i % 3 {
                0 => longs[i % longs.len()],
                1 => -(1 << 53) - (i as i64 % 2),
                _ => i as i64 % 4,
            };
            rec![strs[(i * 7) % strs.len()], w, i as i32]
        })
        .collect()
}

/// The reduce of [`deliver`]: every record in delivered order, with the
/// key `Pairs::iter` gave its entry and the ordinal of its key-run.
fn keys_and_runs(pairs: Pairs<'_>) -> papar_mr::Result<Vec<Batch>> {
    let mut out: Vec<Record> = Vec::with_capacity(pairs.record_count());
    for (ordinal, run) in pairs.runs().enumerate() {
        for pair in run?.iter() {
            let (key, entry) = pair?;
            let start = out.len();
            entry.decode_into(&mut out)?;
            for r in &mut out[start..] {
                r.push(key.to_value());
                r.push(Value::Int(ordinal as i32));
            }
        }
    }
    Ok(vec![Batch::Flat(out)])
}

/// What a keyed job over `input` delivers, keyed by field `key` read from
/// the entries (`field_keyed`) or pushed before each entry, and its
/// stats.
fn deliver(
    input: &Dataset,
    key: usize,
    field_keyed: bool,
    partitioner: &dyn Partitioner,
    descending: bool,
    compress_key: Option<usize>,
    threads: usize,
) -> (Vec<Dataset>, papar_mr::JobStats) {
    let mut cluster = Cluster::new(3).with_threads(threads);
    cluster.scatter("in", input.clone()).unwrap();
    let wire_keyed = FnMapper(
        move |_: &papar_mr::TaskCtx, inputs: &[MapInput], out: &mut Emit<'_>| {
            for MapInput { data, .. } in inputs {
                for entry in EntryRef::all(&data.batch) {
                    let k = entry.key(key)?;
                    out.push(&k, entry)?;
                }
            }
            Ok(())
        },
    );
    let keyed = KeyedMapper { key_field: key };
    let mapper: &dyn Mapper = if field_keyed { &keyed } else { &wire_keyed };
    let schema = &input.schema;
    let mut fields: Vec<(String, FieldType)> = (schema.fields().iter())
        .map(|f| (f.name.clone(), f.ty))
        .collect();
    fields.push(("key".into(), schema.fields()[key].ty));
    fields.push(("run".into(), FieldType::Integer));
    let reducer = FnReducer(|_: &papar_mr::TaskCtx, pairs: Pairs<'_>| keys_and_runs(pairs));
    let job = MapReduceJob {
        name: "keyed".into(),
        inputs: vec!["in".into()],
        output: "out".into(),
        num_reducers: 4,
        map_output_schema: schema.clone(),
        output_schema: Arc::new(Schema::new(fields)),
        mapper,
        partitioner,
        reducer: &reducer,
        sort_by_key: true,
        descending,
        compress_key,
        release: &[],
    };
    let stats = cluster.run_job(&job).unwrap();
    (cluster.collect("out").unwrap(), stats)
}

/// Sort and group jobs deliver the same pairs in the same order, cut into
/// the same runs, with the same keys and prefix-tie counts, whether the
/// key travels before each entry or is read from it: over flat and packed
/// input, uncompressed and CSC-compressed (keyed by the factored column
/// and by another), ascending and descending, with inexact `Long` and
/// `Str` key ties, at 1 and 4 threads. Only the bytes shrink.
#[test]
fn field_keyed_jobs_deliver_what_wire_keyed_jobs_do() {
    let schema = tie_schema();
    let flat = Dataset::new(schema.clone(), Batch::Flat(tie_records()));
    let packed = Dataset::new(
        schema.clone(),
        Batch::Flat(tie_records()).pack_by(&schema, 0).unwrap(),
    );
    let mut tie_pairs = 0;
    for key in [0, 1] {
        let samples: Vec<Vec<Value>> = vec![(tie_records().iter())
            .map(|r| r.value(key).unwrap().clone())
            .collect()];
        let range = RangePartitioner::from_samples(&samples, 4).unwrap();
        let partitioners: [&dyn Partitioner; 2] = [&HashPartitioner, &range];
        for (input, compress) in [(&flat, None), (&packed, None), (&packed, Some(0))] {
            for partitioner in partitioners {
                for descending in [false, true] {
                    for threads in [1, 4] {
                        let run = |field_keyed| {
                            deliver(
                                input,
                                key,
                                field_keyed,
                                partitioner,
                                descending,
                                compress,
                                threads,
                            )
                        };
                        let (want, wire) = run(false);
                        let (got, field) = run(true);
                        let case = format!(
                            "key={key} packed={} compress={compress:?} descending={descending} \
                             threads={threads}",
                            input.batch.as_packed().is_ok()
                        );
                        assert_eq!(got, want, "{case}");
                        assert_eq!(field.pairs_shuffled, wire.pairs_shuffled, "{case}");
                        assert_eq!(field.hot.tie_pairs, wire.hot.tie_pairs, "{case}");
                        tie_pairs += field.hot.tie_pairs;
                        assert!(
                            field.exchange.remote_bytes < wire.exchange.remote_bytes,
                            "{case}"
                        );
                    }
                }
            }
        }
    }
    assert!(tie_pairs > 0, "the keys tie on their prefixes");
}

/// Entries of `(a Int, b Str, c Long)`, projected onto `(b, a)`.
const PROJECTION: [usize; 2] = [1, 0];

/// Routes each entry by its field `c` — which the projection drops — and
/// ships it projected onto [`PROJECTION`].
struct ProjectingMapper;

impl Mapper for ProjectingMapper {
    fn map(
        &self,
        _: &papar_mr::TaskCtx,
        inputs: &[MapInput],
        out: &mut Emit<'_>,
    ) -> papar_mr::Result<()> {
        for mi in inputs {
            for entry in EntryRef::all(&mi.data.batch) {
                let c = entry.key(2)?.as_i64().unwrap();
                out.push_to(c as usize % 2, entry)?;
            }
        }
        Ok(())
    }

    fn key(&self) -> PairKey {
        PairKey::None
    }

    fn projection(&self) -> Option<&[usize]> {
        Some(&PROJECTION)
    }
}

/// A projecting mapper's pushes — a row, a record, a packed group, and a
/// CSC-packed one, whose factored key column moves with the projection —
/// reach the reducer as exactly the projected records, and `shuffle_lo`
/// counts only their bytes (plus one header per remote segment).
#[test]
fn a_projecting_mapper_ships_only_the_projected_fields() {
    use papar_record::batch::Rows;
    use papar_record::wire;
    let wide = Arc::new(Schema::new(vec![
        ("a", FieldType::Integer),
        ("b", FieldType::Str),
        ("c", FieldType::Long),
    ]));
    let shipped = Arc::new(Schema::new(vec![
        ("b", FieldType::Str),
        ("a", FieldType::Integer),
    ]));
    let records = |from: i32| -> Vec<Record> {
        (from..from + 9)
            .map(|i| rec![i % 4, "s".repeat(i as usize % 5), i64::from(i * 7)])
            .collect()
    };
    let nodes = 2;
    // Fragment f lands on node f % 2: each node holds rows, records and
    // packed groups, in that order.
    let fragments: Vec<Dataset> = (0..6)
        .map(|f| {
            let recs = records(10 * f);
            let batch = match f / 2 {
                0 => {
                    let mut bytes = Vec::new();
                    for r in &recs {
                        wire::encode_record(r, &wide, &mut bytes).unwrap();
                    }
                    Batch::Rows(Rows::new(wide.clone(), bytes).unwrap())
                }
                1 => Batch::Flat(recs),
                _ => Batch::Flat(recs).pack_by(&wide, 0).unwrap(),
            };
            Dataset::new(wide.clone(), batch)
        })
        .collect();
    // What each reducer must receive, in (mapper, emission) order, and the
    // projected bytes and segments that leave a node.
    let mut want = vec![Vec::new(); 2];
    let mut remote_bytes = 0u64;
    let mut segments = std::collections::BTreeSet::new();
    for node in 0..nodes {
        for frag in fragments.iter().skip(node).step_by(nodes) {
            for entry in EntryRef::all(&frag.batch) {
                let reducer = entry.key(2).unwrap().as_i64().unwrap() as usize % 2;
                let members = match entry.to_entry() {
                    Entry::Rec(r) => vec![r],
                    Entry::Packed(p) => p.members.to_records(),
                };
                for r in members {
                    let projected: Record =
                        PROJECTION.iter().map(|&i| r.values()[i].clone()).collect();
                    if reducer % nodes != node {
                        let mut bytes = Vec::new();
                        wire::encode_record(&projected, &shipped, &mut bytes).unwrap();
                        remote_bytes += bytes.len() as u64;
                        segments.insert((node, reducer));
                    }
                    want[reducer].push(projected);
                }
            }
        }
    }
    assert!(!segments.is_empty());
    // The packed groups are keyed by `a`: shipped field 1.
    for compress_key in [None, Some(1)] {
        let mut cluster = Cluster::new(nodes);
        cluster
            .place("in", fragments.iter().cloned().map(Arc::new).collect())
            .unwrap();
        let reducer = strip_keys();
        let job = MapReduceJob {
            name: "project".into(),
            inputs: vec!["in".into()],
            output: "out".into(),
            num_reducers: 2,
            map_output_schema: shipped.clone(),
            output_schema: shipped.clone(),
            mapper: &ProjectingMapper,
            partitioner: &IdentityPartitioner,
            reducer: &reducer,
            sort_by_key: false,
            descending: false,
            compress_key,
            release: &[],
        };
        let stats = cluster.run_job(&job).unwrap();
        let got: Vec<Vec<Record>> = (cluster.collect("out").unwrap().into_iter())
            .map(|d| d.batch.flatten())
            .collect();
        assert_eq!(got, want, "compress_key {compress_key:?}");
        assert_eq!(
            stats.shuffle_lo,
            remote_bytes + 8 * segments.len() as u64,
            "compress_key {compress_key:?}"
        );
    }
}

/// A mapper that pushes keys cannot project: a pushed key is routed by
/// the partitioner, which would read it off the unprojected entry. Nor
/// can a projection that names fewer fields than the map output schema
/// has. Both are refused before any map task runs.
#[test]
fn a_projection_needs_a_mapper_without_pushed_keys_of_the_right_width() {
    struct Projects(PairKey, &'static [usize]);
    impl Mapper for Projects {
        fn map(
            &self,
            _: &papar_mr::TaskCtx,
            _: &[MapInput],
            _: &mut Emit<'_>,
        ) -> papar_mr::Result<()> {
            Ok(())
        }
        fn key(&self) -> PairKey {
            self.0
        }
        fn projection(&self) -> Option<&[usize]> {
            Some(self.1)
        }
    }
    for mapper in [
        Projects(PairKey::Pushed, &[1, 0]),
        Projects(PairKey::None, &[1]),
    ] {
        let mut cluster = Cluster::new(2);
        cluster.scatter("in", int_dataset(&[1, 2, 3])).unwrap();
        let reducer = strip_keys();
        let job = MapReduceJob {
            name: "refused".into(),
            inputs: vec!["in".into()],
            output: "out".into(),
            num_reducers: 2,
            map_output_schema: pair_schema(),
            output_schema: pair_schema(),
            mapper: &mapper,
            partitioner: &IdentityPartitioner,
            reducer: &reducer,
            sort_by_key: mapper.0 != PairKey::None,
            descending: false,
            compress_key: None,
            release: &[],
        };
        let err = cluster.run_job(&job).unwrap_err().to_string();
        assert!(err.contains("projects its entries"), "{err}");
    }
}
