//! Checkpoint transparency: a run resumed from a durable checkpoint must
//! be byte-identical to an uninterrupted cold run — across thread counts,
//! with fusion on or off, and under injected faults. Corrupt checkpoints
//! are quarantined and the damaged stage recomputed from the nearest
//! intact upstream stage; a checkpoint taken under a different plan,
//! input, or fault configuration is refused with a typed error.

use mublastp::dbgen::DbSpec;
use papar::core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar::core::plan::Planner;
use papar::mr::{Cluster, Fault, FaultPlan, RetryPolicy, TaskPhase};
use papar::record::batch::{Batch, Dataset};
use papar::record::wire;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

const BLAST_INPUT_CFG: &str = r#"
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

/// Paper Figure 8: sort by sequence size, deal round-robin.
const BLAST_WORKFLOW: &str = r#"
<workflow id="blast_partition" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sort_output"/>
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

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("papar-ckpt-det-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn args(partitions: &str) -> HashMap<String, String> {
    [
        ("input_path", "/in"),
        ("output_path", "/out"),
        ("num_partitions", partitions),
    ]
    .iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}

fn options(fuse: bool, threads: usize) -> ExecOptions {
    ExecOptions {
        fuse,
        threads: Some(threads),
        ..ExecOptions::default()
    }
}

fn partition_bytes(cluster: &Cluster, name: &str) -> Vec<Vec<u8>> {
    cluster
        .collect(name)
        .unwrap()
        .into_iter()
        .map(|d| {
            let mut buf = Vec::new();
            wire::encode_batch(&d.batch, &d.schema, &mut buf).unwrap();
            buf
        })
        .collect()
}

/// Run the Figure 8 workflow, optionally against a checkpoint directory.
fn run_blast(
    mut cluster: Cluster,
    options: ExecOptions,
    partitions: &str,
    checkpoint: Option<(&PathBuf, bool)>,
) -> Result<(Vec<Vec<u8>>, WorkflowReport), papar::core::error::CoreError> {
    let planner = Planner::from_xml(BLAST_WORKFLOW, &[BLAST_INPUT_CFG]).unwrap();
    let plan = planner.bind(&args(partitions)).unwrap();
    let mut runner = WorkflowRunner::with_options(plan, options);
    if let Some((dir, resume)) = checkpoint {
        runner = runner.with_checkpoint(dir, resume, 0);
    }
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let db = DbSpec::env_nr_scaled(300, 7).generate();
    runner
        .scatter_input(
            &mut cluster,
            "/in",
            Dataset::new(schema, Batch::Flat(db.index_records())),
        )
        .unwrap();
    let report = runner.run(&mut cluster)?;
    Ok((partition_bytes(&cluster, "/out"), report))
}

/// The deterministic face of a report's stats: byte/record accounting,
/// modeled communication time, and the recovery ledger. Map/reduce wall
/// times are measured on real threads and vary run to run, so they are
/// excluded.
fn det_stats(report: &WorkflowReport) -> String {
    report
        .jobs
        .iter()
        .map(|j| {
            format!(
                "{} {:?} comm={:?} in={} shuf={} out={} {:?}",
                j.name,
                j.exchange,
                j.comm_time,
                j.records_in,
                j.pairs_shuffled,
                j.records_out,
                j.recovery
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn chaos_cluster(nodes: usize, threads: usize) -> Cluster {
    Cluster::try_new(nodes)
        .unwrap()
        .with_threads(threads)
        .with_replication(1)
        .with_fault_plan(FaultPlan::new(vec![
            Fault::NodeCrash {
                node: 1,
                job: 0,
                phase: TaskPhase::Map,
            },
            Fault::ExchangeDrop {
                from: 0,
                to: 2,
                job: 1,
            },
        ]))
        .with_retry(RetryPolicy::default())
}

#[test]
fn resumed_run_is_byte_identical_to_a_cold_run() {
    for fuse in [false, true] {
        let (baseline, cold) = run_blast(Cluster::new(3), options(fuse, 1), "4", None).unwrap();
        let stages = if fuse { 1 } else { 2 };
        // Checkpoint at 1 thread, resume at both thread counts: the
        // fingerprint deliberately excludes the thread count.
        let dir = tmpdir(if fuse { "cold-fused" } else { "cold" });
        let (ckpt_out, ckpt) =
            run_blast(Cluster::new(3), options(fuse, 1), "4", Some((&dir, false))).unwrap();
        assert_eq!(ckpt_out, baseline, "checkpointing changed the output");
        assert_eq!(ckpt.stages_resumed, 0);
        assert_eq!(
            det_stats(&ckpt),
            det_stats(&cold),
            "checkpointing changed the stats (fuse={fuse})"
        );
        for t in [1, 4] {
            let (out, resumed) =
                run_blast(Cluster::new(3), options(fuse, t), "4", Some((&dir, true))).unwrap();
            assert_eq!(out, baseline, "resume diverged (fuse={fuse}, {t} threads)");
            assert_eq!(resumed.stages_resumed, stages, "every stage must restore");
            assert!(resumed.checkpoint_events.is_empty());
            assert_eq!(
                det_stats(&resumed),
                det_stats(&cold),
                "resumed stats diverged from the cold run (fuse={fuse}, {t} threads)"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_stage_is_quarantined_and_recomputed_from_upstream() {
    let (baseline, _) = run_blast(Cluster::new(3), options(false, 1), "4", None).unwrap();
    let dir = tmpdir("corrupt");
    run_blast(Cluster::new(3), options(false, 1), "4", Some((&dir, false))).unwrap();

    // Flip one byte in a fragment of the *last* stage (index 1): the sort
    // stage stays intact and restores; the distribute stage recomputes.
    let victim = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("frag-0001-"))
        })
        .expect("stage 1 published no fragment");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&victim, &bytes).unwrap();

    for t in [1, 4] {
        let (out, resumed) =
            run_blast(Cluster::new(3), options(false, t), "4", Some((&dir, true))).unwrap();
        assert_eq!(out, baseline, "recompute diverged at {t} threads");
        if t == 1 {
            // First resume hits the damage: stage 0 restores, stage 1
            // recomputes, and the incident is reported.
            assert_eq!(resumed.stages_resumed, 1);
            assert!(
                resumed
                    .checkpoint_events
                    .iter()
                    .any(|e| e.contains("quarantined")),
                "corruption must be reported: {:?}",
                resumed.checkpoint_events
            );
            assert!(
                fs::read_dir(&dir)
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .any(|e| { e.path().extension().is_some_and(|x| x == "quarantine") }),
                "the corrupt fragment must be kept aside as evidence"
            );
        } else {
            // The first resume re-published stage 1, so the second one
            // restores everything cleanly.
            assert_eq!(resumed.stages_resumed, 2);
            assert!(resumed.checkpoint_events.is_empty());
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Run the Figure 10 hybrid cut unfused — group (its output packed by
/// in-vertex), split and distribute as three stages — over a small
/// power-law graph on 4 nodes, optionally against a checkpoint directory.
fn run_hybrid(
    threads: usize,
    checkpoint: Option<(&PathBuf, bool)>,
) -> Result<(Vec<Vec<u8>>, WorkflowReport), papar::core::error::CoreError> {
    let input_cfg = include_str!("../examples/configs/graph_edge.xml");
    let planner = Planner::from_xml(
        include_str!("../examples/configs/hybrid_cut.xml"),
        &[input_cfg],
    )
    .unwrap();
    let args = [
        ("input_file", "/g/in"),
        ("output_path", "/g/out"),
        ("num_partitions", "8"),
        ("threshold", "12"),
    ];
    let args = args.iter().map(|(k, v)| (k.to_string(), v.to_string()));
    let plan = planner.bind(&args.collect()).unwrap();
    let mut runner = WorkflowRunner::with_options(plan, options(false, threads));
    if let Some((dir, resume)) = checkpoint {
        runner = runner.with_checkpoint(dir, resume, 0);
    }
    let schema = runner.plan().external_inputs[0].1.schema.clone();
    let graph = powerlyra::gen::chung_lu(400, 4_000, 2.0, 7).unwrap();
    let cfg = papar_config::InputConfig::parse_str(input_cfg).unwrap();
    let text = powerlyra::gen::to_snap_text(&graph);
    let records = papar::record::codec::text::read(&cfg, &schema, &text).unwrap();
    let mut cluster = Cluster::new(4);
    let input = Dataset::new(schema, Batch::Flat(records));
    runner.scatter_input(&mut cluster, "/g/in", input).unwrap();
    let report = runner.run(&mut cluster)?;
    Ok((partition_bytes(&cluster, "/g/out"), report))
}

/// The first stage of an unfused Figure 10 run publishes packed groups.
/// Damage the split stage after it: the resume restores the groups from
/// their payload, re-runs split and distribute over them, and writes the
/// cold run's partitions at 1 and 4 threads.
#[test]
fn a_packed_group_stage_restores_from_its_payload() {
    let (baseline, _) = run_hybrid(1, None).unwrap();
    let dir = tmpdir("hybrid-packed");
    let (out, _) = run_hybrid(1, Some((&dir, false))).unwrap();
    assert_eq!(out, baseline, "checkpointing changed the output");
    let frags = |stage: &str| -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = (fs::read_dir(&dir).unwrap())
            .map(|e| e.unwrap().path())
            .filter(|p| {
                (p.file_name().and_then(|n| n.to_str()))
                    .is_some_and(|n| n.starts_with(stage) && !n.ends_with(".quarantine"))
            })
            .collect();
        paths.sort();
        paths
    };
    // The group stage publishes packed batches: after each payload's
    // schema (a field count, then each field's name and type tag) comes
    // the batch tag, 1 for packed.
    use papar::mr::CheckpointSession;
    let fingerprint = CheckpointSession::fingerprint_of(&dir).unwrap();
    let stages = CheckpointSession::resume(&dir, fingerprint).unwrap();
    let group = &stages.completed()[0];
    assert!(
        !group.fragments.is_empty(),
        "the group stage published nothing"
    );
    for f in &group.fragments {
        let payload = f.payload.as_ref().unwrap();
        let mut r = wire::Reader::new(payload);
        for _ in 0..r.read_u32().unwrap() {
            let name = r.read_u32().unwrap() as usize;
            r.read_bytes(name + 1).unwrap();
        }
        assert_eq!(r.read_u8().unwrap(), 1, "{} is not packed", f.dataset);
    }
    drop(stages);
    let victim = frags("frag-0001-")
        .pop()
        .expect("the split stage published no fragment");
    let mut bytes = fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&victim, &bytes).unwrap();

    for t in [1, 4] {
        let (out, resumed) = run_hybrid(t, Some((&dir, true))).unwrap();
        assert_eq!(out, baseline, "recompute diverged at {t} threads");
        if t == 1 {
            assert_eq!(resumed.stages_resumed, 1, "only the group stage restores");
            assert!(
                (resumed.checkpoint_events.iter()).any(|e| e.contains("quarantined")),
                "corruption must be reported: {:?}",
                resumed.checkpoint_events
            );
        } else {
            assert_eq!(resumed.stages_resumed, 3);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint written in format version 2 holds fragments whose
/// strings carry `u32` lengths. Resuming one is refused with the typed
/// version error before a fragment is read: the fragment files are left
/// as they are, none quarantined, even when each is garbage.
#[test]
fn a_version_2_checkpoint_is_refused_before_a_fragment_is_read() {
    use papar::mr::{checkpoint::MANIFEST, MrError};
    let dir = tmpdir("version-2");
    run_hybrid(1, Some((&dir, false))).unwrap();
    // The header frame: `[len u32][fnv1a u64]`, then its payload: the
    // header tag, the version (u32) and the fingerprint (u64).
    let manifest = dir.join(MANIFEST);
    let mut bytes = fs::read(&manifest).unwrap();
    let payload = wire::FRAME_HEADER_LEN..wire::FRAME_HEADER_LEN + 13;
    let version = payload.start + 1..payload.start + 5;
    assert_eq!(bytes[version.clone()], 3u32.to_le_bytes());
    bytes[version].copy_from_slice(&2u32.to_le_bytes());
    let sum = wire::checksum(&bytes[payload]);
    bytes[4..wire::FRAME_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    fs::write(&manifest, &bytes).unwrap();
    let mut fragments: Vec<PathBuf> = (fs::read_dir(&dir).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n != MANIFEST))
        .collect();
    fragments.sort();
    assert!(!fragments.is_empty(), "the run published no fragment");
    for f in &fragments {
        fs::write(f, b"not a fragment").unwrap();
    }

    let err =
        run_hybrid(1, Some((&dir, true))).expect_err("a version 2 checkpoint must be refused");
    assert!(
        matches!(
            err,
            papar::core::error::CoreError::Mr(MrError::CheckpointVersion {
                found: 2,
                expected: 3
            })
        ),
        "wrong error: {err:?}"
    );
    assert!(err.to_string().contains("refusing to resume"), "{err}");
    let mut after: Vec<PathBuf> = (fs::read_dir(&dir).unwrap())
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n != MANIFEST))
        .collect();
    after.sort();
    assert_eq!(after, fragments, "no fragment was quarantined");
    for f in &fragments {
        assert_eq!(fs::read(f).unwrap(), b"not a fragment");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_is_byte_identical_under_injected_faults() {
    let (fault_free, _) = run_blast(Cluster::new(3), options(true, 1), "4", None).unwrap();
    let dir = tmpdir("faults");
    let (ckpt_out, _) = run_blast(
        chaos_cluster(3, 1),
        options(true, 1),
        "4",
        Some((&dir, false)),
    )
    .unwrap();
    assert_eq!(ckpt_out, fault_free, "recovery must mask the faults");
    for t in [1, 4] {
        let (out, resumed) = run_blast(
            chaos_cluster(3, t),
            options(true, t),
            "4",
            Some((&dir, true)),
        )
        .unwrap();
        assert_eq!(out, fault_free, "faulted resume diverged at {t} threads");
        assert_eq!(resumed.stages_resumed, 1);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_is_refused_with_a_typed_error() {
    let dir = tmpdir("mismatch");
    run_blast(Cluster::new(3), options(true, 1), "4", Some((&dir, false))).unwrap();

    // A different partition count compiles to a different plan, so the
    // fingerprint cannot match.
    let err = run_blast(Cluster::new(3), options(true, 1), "8", Some((&dir, true)))
        .expect_err("resuming under a different plan must be refused");
    assert!(
        matches!(
            err,
            papar::core::error::CoreError::Mr(papar::mr::MrError::ResumeMismatch { .. })
        ),
        "wrong error: {err:?}"
    );
    assert!(err.to_string().contains("refusing to resume"));

    // The refused attempt must not have touched the checkpoint: the
    // original run still resumes.
    let (_, resumed) =
        run_blast(Cluster::new(3), options(true, 1), "4", Some((&dir, true))).unwrap();
    assert_eq!(resumed.stages_resumed, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A checksummed manifest that places a fragment on a node the cluster
/// does not have — here every fragment moved three nodes up, past the
/// cluster's three — is refused with a typed error instead of a panic.
#[test]
fn a_manifest_node_outside_the_cluster_is_refused_with_a_typed_error() {
    use papar::mr::{CheckpointSession, MrError};
    let dir = tmpdir("node-range");
    run_blast(Cluster::new(3), options(true, 1), "4", Some((&dir, false))).unwrap();

    // Re-publish the committed stages, each fragment on node + 3.
    let fingerprint = CheckpointSession::fingerprint_of(&dir).unwrap();
    let stages = CheckpointSession::resume(&dir, fingerprint)
        .unwrap()
        .completed()
        .to_vec();
    let mut session = CheckpointSession::create(&dir, fingerprint).unwrap();
    for stage in &stages {
        for f in &stage.fragments {
            let payload = f.payload.clone().unwrap();
            session.stage_fragment(&f.dataset, f.node + 3, f.ordinal, payload);
        }
        session
            .commit_stage(stage.index, &stage.stage_id, &stage.stats)
            .unwrap();
    }

    let err = run_blast(Cluster::new(3), options(true, 1), "4", Some((&dir, true)))
        .expect_err("a fragment on node 3 of a 3-node cluster must be refused");
    assert!(
        matches!(
            err,
            papar::core::error::CoreError::Mr(MrError::NodeOutOfRange { nodes: 3, .. })
        ),
        "wrong error: {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}
