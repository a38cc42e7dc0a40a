//! Property-based tests (proptest) over the core data structures and the
//! invariants the paper's claims rest on.

use papar::core::policy::{DistrPolicy, SplitPolicy, StridePermutation};
use papar::record::batch::Batch;
use papar::record::compress;
use papar::record::packed::{pack, unpack};
use papar::record::wire::{self, Reader};
use papar::record::{rec, Record, Rows, Schema, Value};
use papar::sort::packed::{par_sort_packed, PARALLEL_CUTOFF};
use papar_config::input::FieldType;
use papar_mr::sampler::{boundaries_from_samples, RangePartitioner};
use papar_mr::Partitioner;
use proptest::prelude::*;
use std::sync::Arc;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Double),
        "[a-z0-9]{0,12}".prop_map(Value::from),
    ]
}

proptest! {
    /// The explicit permutation-matrix product and the closed-form index
    /// map are the same function — the paper's "formalize as matrix-vector
    /// multiplication" is implemented faithfully.
    #[test]
    fn stride_permutation_matrix_equals_closed_form(n in 1usize..64, m in 1usize..64) {
        let m = (m % n).max(1);
        let p = StridePermutation::new(n, m).unwrap();
        let input: Vec<usize> = (0..n).collect();
        prop_assert_eq!(p.apply(&input).unwrap(), p.apply_matrix(&input).unwrap());
    }

    /// Every stride permutation is a bijection.
    #[test]
    fn stride_permutation_is_bijective(n in 1usize..128, m in 1usize..128) {
        let m = (m % n).max(1);
        let p = StridePermutation::new(n, m).unwrap();
        let mut out = p.apply(&(0..n).collect::<Vec<_>>()).unwrap();
        out.sort_unstable();
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    /// Cyclic and block assignments form a disjoint cover with balanced
    /// sizes (difference at most one).
    #[test]
    fn index_policies_are_balanced_partitions(total in 0usize..500, parts in 1usize..17) {
        for policy in [DistrPolicy::Cyclic, DistrPolicy::Block] {
            let mut counts = vec![0usize; parts];
            for g in 0..total {
                let p = policy.partition_of_index(g, total, parts);
                prop_assert!(p < parts);
                counts[p] += 1;
            }
            let max = counts.iter().max().copied().unwrap_or(0);
            let min = counts.iter().min().copied().unwrap_or(0);
            prop_assert!(max - min <= 1, "{policy:?} unbalanced: {counts:?}");
        }
    }

    /// Block assignment is monotone (contiguous chunks).
    #[test]
    fn block_assignment_is_monotone(total in 1usize..300, parts in 1usize..9) {
        let mut prev = 0;
        for g in 0..total {
            let p = DistrPolicy::Block.partition_of_index(g, total, parts);
            prop_assert!(p >= prev);
            prev = p;
        }
    }

    /// pack then unpack is the identity on any record sequence.
    #[test]
    fn pack_unpack_identity(keys in prop::collection::vec(0i32..6, 0..60)) {
        let schema = Arc::new(Schema::new(vec![
            ("n", FieldType::Integer),
            ("k", FieldType::Integer),
        ]));
        let records: Vec<Record> = keys.iter().enumerate()
            .map(|(i, &k)| rec![i as i32, k])
            .collect();
        let rows = Rows::from_records(schema.clone(), &records).unwrap();
        let packed = pack(rows.clone(), 1).unwrap();
        // Each group's members share its key.
        for g in &packed {
            for r in g.members.iter() {
                prop_assert_eq!(r.field(1).unwrap(), g.key.clone());
            }
        }
        prop_assert_eq!(unpack(packed, &schema).unwrap(), rows);
    }

    /// Wire encoding round-trips arbitrary well-typed batches.
    #[test]
    fn wire_roundtrip(rows in prop::collection::vec((any::<i32>(), "[a-z]{0,8}"), 0..40)) {
        let schema = Schema::new(vec![("n", FieldType::Integer), ("s", FieldType::Str)]);
        let records: Vec<Record> = rows.iter()
            .map(|(n, s)| rec![*n, s.as_str()])
            .collect();
        let batch = Batch::Flat(records);
        let mut buf = Vec::new();
        wire::encode_batch(&batch, &schema, &mut buf).unwrap();
        let got = wire::decode_batch(&mut Reader::new(&buf), &schema).unwrap();
        prop_assert_eq!(got, batch);
    }

    /// CSC compression round-trips and never changes the data.
    #[test]
    fn csc_compression_roundtrip(keys in prop::collection::vec(0i32..5, 1..50)) {
        let schema = Arc::new(Schema::new(vec![
            ("payload", FieldType::Integer),
            ("key", FieldType::Integer),
            ("attr", FieldType::Long),
        ]));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let records: Vec<Record> = sorted.iter().enumerate()
            .map(|(i, &k)| rec![i as i32, k, (k as i64) * 10])
            .collect();
        let packed = Batch::Flat(records).pack_by(&schema, 1).unwrap();
        let mut buf = Vec::new();
        compress::encode_compressed(&packed, &schema, 1, &mut buf).unwrap();
        let got = compress::decode_compressed(&mut Reader::new(&buf), &schema, 1).unwrap();
        prop_assert_eq!(got, packed);
    }

    /// The engine's packed-key sort agrees with the standard library on
    /// arbitrary keys, on both sides of the parallel cutoff and at any
    /// thread count; a narrow key range makes duplicates common.
    #[test]
    fn par_sort_packed_matches_std(
        mut v in prop_oneof![
            prop::collection::vec(
                (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo)),
                0..3 * PARALLEL_CUTOFF,
            ),
            prop::collection::vec((0u64..8).prop_map(u128::from), 0..3 * PARALLEL_CUTOFF),
        ],
        threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sort_packed(&mut v, threads);
        prop_assert_eq!(v, expect);
    }

    /// Sampler boundaries are monotone and the partitioner covers the
    /// reducer range.
    #[test]
    fn sampler_boundaries_monotone(keys in prop::collection::vec(any::<i32>(), 1..400),
                                   reducers in 1usize..9) {
        let samples = vec![keys.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>()];
        let bounds = boundaries_from_samples(&samples, reducers).unwrap();
        for w in bounds.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let part = RangePartitioner::new(bounds);
        for &k in &keys {
            let r = part.reducer_for(&Value::Int(k), reducers).unwrap();
            prop_assert!(r < reducers);
        }
        // Routing respects key order.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut prev = 0;
        for k in sorted {
            let r = part.reducer_for(&Value::Int(k), reducers).unwrap();
            prop_assert!(r >= prev);
            prev = r;
        }
    }

    /// Value's total order is consistent: equality matches Ord, hashing
    /// matches equality across integer widths.
    #[test]
    fn value_order_consistency(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering;
        let ord = a.cmp(&b);
        prop_assert_eq!(ord == Ordering::Equal, a == b);
        prop_assert_eq!(b.cmp(&a), ord.reverse());
        if a == b {
            prop_assert_eq!(a.stable_hash(), b.stable_hash());
        }
    }

    /// Split policies route every key to at most one output, and the
    /// Figure 10 ge/lt pair is exhaustive.
    #[test]
    fn split_policy_ge_lt_is_exhaustive(threshold in -100i64..100, key in -200i64..200) {
        let policy = SplitPolicy::parse(&format!("{{>=, {threshold}}},{{<,{threshold}}}")).unwrap();
        let route = policy.route(&Value::Long(key));
        prop_assert!(route.is_some());
        let expected = if key >= threshold { 0 } else { 1 };
        prop_assert_eq!(route.unwrap(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end C1, property form: for random small databases and any
    /// partition count, the PaPar workflow equals the muBLASTP baseline.
    #[test]
    fn papar_equals_baseline_on_random_indexes(
        sizes in prop::collection::vec(1i32..300, 1..120),
        parts in 1usize..7,
        nodes in 1usize..5,
    ) {
        use mublastp::baseline::{self, BaselinePolicy};
        use mublastp::dbformat::IndexEntry;
        let index: Vec<IndexEntry> = sizes.iter().enumerate().map(|(i, &s)| IndexEntry {
            seq_start: i as i32 * 300,
            seq_size: s,
            desc_start: i as i32 * 40,
            desc_size: 40,
        }).collect();
        let expected = baseline::partition(&index, parts, BaselinePolicy::Cyclic);

        // Run the PaPar workflow.
        use papar::core::plan::Planner;
        use papar::core::exec::WorkflowRunner;
        use papar::mr::Cluster;
        use papar::record::batch::{Batch, Dataset};
        let wf = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/tmp/sorted"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;
        let input_cfg = r#"
<input id="blast_db" name="n">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;
        let planner = Planner::from_xml(wf, &[input_cfg]).unwrap();
        let mut args = std::collections::HashMap::new();
        args.insert("input_path".to_string(), "/in".to_string());
        args.insert("output_path".to_string(), "/out".to_string());
        args.insert("num_partitions".to_string(), parts.to_string());
        let plan = planner.bind(&args).unwrap();
        let runner = WorkflowRunner::new(plan);
        let mut cluster = Cluster::new(nodes);
        let schema = runner.plan().external_inputs[0].1.schema.clone();
        let records = index.iter().map(|e| e.to_record()).collect();
        runner.scatter_input(&mut cluster, "/in", Dataset::new(schema, Batch::Flat(records))).unwrap();
        runner.run(&mut cluster).unwrap();
        let got: Vec<Vec<IndexEntry>> = cluster.collect("/out").unwrap().into_iter().map(|d| {
            d.batch.flatten().iter().map(|r| IndexEntry::from_record(r).unwrap()).collect()
        }).collect();
        prop_assert_eq!(got, expected.partitions);
    }
}
