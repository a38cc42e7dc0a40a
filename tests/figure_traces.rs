//! Worked-example traces: the concrete numbers printed in the paper's
//! figures, checked end-to-end through the public API.

use papar::core::policy::{DistrPolicy, StridePermutation};
use papar::record::{rec, Value};

/// Figure 1: the muBLASTP partitioning method on its four-entry example.
#[test]
fn figure1_sort_and_cyclic_distribution() {
    use mublastp::baseline::{partition, BaselinePolicy};
    use mublastp::dbformat::IndexEntry;
    let index = [
        (0, 94, 0, 74),
        (94, 100, 74, 89),
        (194, 99, 163, 109),
        (293, 91, 272, 107),
    ]
    .map(|(a, b, c, d)| IndexEntry {
        seq_start: a,
        seq_size: b,
        desc_start: c,
        desc_size: d,
    });
    let run = partition(&index, 2, BaselinePolicy::Cyclic);
    // Sorted: {293,91}, {0,94}, {194,99}, {94,100}; partition 0 gets rows
    // 0 and 2 of the sorted order, partition 1 rows 1 and 3 — exactly the
    // two boxes at the bottom of Figure 1.
    let tuples = |p: &[IndexEntry]| -> Vec<(i32, i32, i32, i32)> {
        p.iter()
            .map(|e| (e.seq_start, e.seq_size, e.desc_start, e.desc_size))
            .collect()
    };
    assert_eq!(
        tuples(&run.partitions[0]),
        vec![(293, 91, 272, 107), (194, 99, 163, 109)]
    );
    assert_eq!(
        tuples(&run.partitions[1]),
        vec![(0, 94, 0, 74), (94, 100, 74, 89)]
    );
}

/// Figure 6(a): L_2^4 permutes four entries with stride 2 so the two
/// partitions receive {x0, x2} and {x1, x3}.
#[test]
fn figure6a_cyclic_permutation() {
    let l = StridePermutation::new(4, 2).unwrap();
    assert_eq!(
        l.apply(&["x0", "x1", "x2", "x3"]).unwrap(),
        ["x0", "x2", "x1", "x3"]
    );
    // As a matrix-vector product, identically.
    assert_eq!(
        l.apply_matrix(&["x0", "x1", "x2", "x3"]).unwrap(),
        ["x0", "x2", "x1", "x3"]
    );
    // Partition assignment view.
    let parts: Vec<usize> = (0..4)
        .map(|g| DistrPolicy::Cyclic.partition_of_index(g, 4, 2))
        .collect();
    assert_eq!(parts, vec![0, 1, 0, 1]);
}

/// Figure 6(b): the block policy is the identity permutation L_4^4.
#[test]
fn figure6b_block_permutation() {
    let l = StridePermutation::new(4, 4).unwrap();
    assert_eq!(l.apply(&[10, 20, 30, 40]).unwrap(), [10, 20, 30, 40]);
    let parts: Vec<usize> = (0..4)
        .map(|g| DistrPolicy::Block.partition_of_index(g, 4, 2))
        .collect();
    assert_eq!(parts, vec![0, 0, 1, 1]);
}

/// Figure 9's distribute stage: "the permutation matrix L_3^4 is generated
/// to permute the entries locally. ... the mapper 0 will send the entries
/// 0 and 3 to the partition 0, the entry 1 to the partition 1, and so on."
#[test]
fn figure9_l3_4_mapper_routing() {
    let l = StridePermutation::new(4, 3).unwrap();
    assert_eq!(l.apply(&[0, 1, 2, 3]).unwrap(), [0, 3, 1, 2]);
    let parts: Vec<usize> = (0..4)
        .map(|g| DistrPolicy::Cyclic.partition_of_index(g, 4, 3))
        .collect();
    assert_eq!(parts, vec![0, 1, 2, 0]);
}

/// Figure 11 steps 1-3: grouping the example edges by in-vertex, counting
/// the indegree attribute, and packing yields reducer 0's packed value
/// {1: {2,1,4},{3,1,4},{4,1,4},{5,1,4}} for in-vertex 1.
#[test]
fn figure11_group_count_pack_trace() {
    use papar::core::operator::{AddOnKind, BoundAddOn};
    use papar::record::batch::Batch;

    // In-vertex 1's group after the shuffle.
    let mut group = vec![
        rec!["2", "1"],
        rec!["3", "1"],
        rec!["4", "1"],
        rec!["5", "1"],
    ];
    // Step 2: the count add-on appends indegree 4 to each edge.
    let addon = BoundAddOn {
        kind: AddOnKind::Count,
        field_idx: 1,
        attr: "indegree".into(),
    };
    addon.apply_to_group(&mut group).unwrap();
    assert_eq!(
        group.iter().map(|r| r.display_tuple()).collect::<Vec<_>>(),
        vec!["{2, 1, 4}", "{3, 1, 4}", "{4, 1, 4}", "{5, 1, 4}"]
    );
    // Step 3: pack produces one packed record keyed by the in-vertex.
    let grouped = std::sync::Arc::new(papar::record::Schema::new(vec![
        ("vertex_a", papar_config::input::FieldType::Str),
        ("vertex_b", papar_config::input::FieldType::Str),
        ("indegree", papar_config::input::FieldType::Long),
    ]));
    let packed = Batch::Flat(group.clone())
        .pack_by(&grouped, 1)
        .unwrap()
        .into_packed()
        .unwrap();
    assert_eq!(packed.len(), 1);
    assert_eq!(packed[0].key, Value::Str("1".into()));
    assert_eq!(packed[0].members.to_records(), group);
}

/// Section III-D's compression example: the packed data
/// {{2,1,4},{3,1,4},{4,1,4},{5,1,4}} compresses to the CSC form
/// {0, {2,3,4,5}, {4,4,4,4}} — start pointer 0, out-vertex array, value
/// array — and the value array is not further compressed.
#[test]
fn section3d_csc_compression_example() {
    use papar::record::batch::Batch;
    use papar::record::compress;
    use papar::record::wire::Reader;
    use papar::record::Schema;
    use papar_config::input::FieldType;

    let schema = std::sync::Arc::new(Schema::new(vec![
        ("vertex_a", FieldType::Str),
        ("vertex_b", FieldType::Str),
        ("indegree", FieldType::Long),
    ]));
    let batch = Batch::Flat(vec![
        rec!["2", "1", 4i64],
        rec!["3", "1", 4i64],
        rec!["4", "1", 4i64],
        rec!["5", "1", 4i64],
    ])
    .pack_by(&schema, 1)
    .unwrap();
    let mut buf = Vec::new();
    compress::encode_compressed(&batch, &schema, 1, &mut buf).unwrap();

    // Wire layout: group count (1), start pointers {0, 4} — the paper's
    // leading "0" — then key "1" once, then the out-vertex column
    // {2,3,4,5} and the uncompressed value column {4,4,4,4}.
    let mut r = Reader::new(&buf);
    assert_eq!(r.read_u32().unwrap(), 1); // one group
    assert_eq!(r.read_u32().unwrap(), 0); // start pointer of in-vertex 1
    assert_eq!(r.read_u32().unwrap(), 4); // total member count

    // The redundant key is stored once: the compressed form must be
    // smaller than the plain packed encoding.
    let (compressed, plain) = compress::compression_sizes(&batch, &schema, 1).unwrap();
    assert!(compressed < plain, "{compressed} >= {plain}");

    // And it decodes back to the identical packed batch.
    let got = compress::decode_compressed(&mut Reader::new(&buf), &schema, 1).unwrap();
    assert_eq!(got, batch);
}

/// Table I coverage: every listed operator exists and carries the
/// documented semantics.
#[test]
fn table1_operator_surface() {
    use papar::core::operator::{AddOnKind, FormatOp};
    // Basic operators are planned by name (both spellings).
    for name in [
        "Sort",
        "sort",
        "Group",
        "group",
        "Split",
        "split",
        "Distribute",
        "distribute",
    ] {
        assert!(
            papar::core::operator::OperatorRegistry::is_builtin(name),
            "{name} missing from the basic operator set"
        );
    }
    // Add-ons.
    let g = vec![rec![3, 10], rec![3, 20]];
    assert_eq!(
        AddOnKind::parse("count").unwrap().apply(&g, 0).unwrap(),
        Value::Long(2)
    );
    assert_eq!(
        AddOnKind::parse("max").unwrap().apply(&g, 1).unwrap(),
        Value::Int(20)
    );
    assert_eq!(
        AddOnKind::parse("min").unwrap().apply(&g, 1).unwrap(),
        Value::Int(10)
    );
    assert_eq!(
        AddOnKind::parse("mean").unwrap().apply(&g, 1).unwrap(),
        Value::Double(15.0)
    );
    assert_eq!(
        AddOnKind::parse("sum").unwrap().apply(&g, 1).unwrap(),
        Value::Long(30)
    );
    // Format operators.
    assert_eq!(FormatOp::parse("orig").unwrap(), FormatOp::Orig);
    assert_eq!(FormatOp::parse("pack").unwrap(), FormatOp::Pack);
    assert_eq!(FormatOp::parse("unpack").unwrap(), FormatOp::Unpack);
}
