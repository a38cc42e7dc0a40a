//! End-to-end CLI test: a real muBLASTP database file on disk, real
//! configuration files, partition files written and re-read.

use mublastp::dbgen::DbSpec;
use papar_cli::{run, RunSpec};
use std::collections::HashMap;

const INPUT_CFG: &str = r#"
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

const WORKFLOW: &str = r#"
<workflow id="blast_partition" name="BLAST database partition">
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("papar-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn partitions_a_real_database_file() {
    let dir = temp_dir("blast");
    let input_cfg = dir.join("blast_db.xml");
    let workflow = dir.join("wf.xml");
    let data = dir.join("env_nr.db");
    std::fs::write(&input_cfg, INPUT_CFG).unwrap();
    std::fs::write(&workflow, WORKFLOW).unwrap();

    // A real database file, payloads and all; the CLI reads the index
    // region (the Figure 4 contract).
    let db = DbSpec::env_nr_scaled(500, 9).generate();
    std::fs::write(&data, db.to_bytes()).unwrap();

    let mut args = HashMap::new();
    args.insert("num_partitions".to_string(), "4".to_string());
    let spec = RunSpec {
        input_config: input_cfg,
        workflow,
        data,
        out_dir: dir.join("parts"),
        nodes: 3,
        args,
        // The file carries sequence payload after the index region.
        records: Some(db.len()),
        ..Default::default()
    };
    let summary = run(&spec).unwrap();
    assert_eq!(summary.records_in, 500);
    assert_eq!(summary.files.len(), 4);
    // The sort and the distribute fuse into one physical MR job.
    assert_eq!(summary.jobs.len(), 1);

    // --no-fuse runs the two logical jobs separately and must produce
    // byte-identical partition files with more shuffle traffic.
    let unfused = run(&RunSpec {
        out_dir: dir.join("parts_nofuse"),
        no_fuse: true,
        ..spec.clone()
    })
    .unwrap();
    assert_eq!(unfused.jobs.len(), 2);
    let shuffled =
        |jobs: &[(String, std::time::Duration, u64)]| jobs.iter().map(|(_, _, b)| b).sum::<u64>();
    assert!(
        shuffled(&summary.jobs) < shuffled(&unfused.jobs),
        "fusion must shuffle fewer bytes: {} vs {}",
        shuffled(&summary.jobs),
        shuffled(&unfused.jobs)
    );
    for (f, u) in summary.files.iter().zip(&unfused.files) {
        assert_eq!(
            std::fs::read(f).unwrap(),
            std::fs::read(u).unwrap(),
            "fused and unfused partitions must be byte-identical"
        );
    }

    // The partition files are valid index files that the baseline agrees
    // with.
    let base =
        mublastp::baseline::partition(&db.index, 4, mublastp::baseline::BaselinePolicy::Cyclic);
    let cfg = papar_config::InputConfig::parse_str(INPUT_CFG).unwrap();
    let schema = papar_record::Schema::from_input_config(&cfg);
    for (i, file) in summary.files.iter().enumerate() {
        let bytes = std::fs::read(file).unwrap();
        let records = papar_record::codec::binary::read(&cfg, &schema, &bytes).unwrap();
        let entries: Vec<_> = records
            .iter()
            .map(|r| mublastp::dbformat::IndexEntry::from_record(r).unwrap())
            .collect();
        assert_eq!(entries, base.partitions[i], "partition {i} differs");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn chaos_flags_recover_to_the_same_partition_files() {
    let dir = temp_dir("chaos");
    let input_cfg = dir.join("blast_db.xml");
    let workflow = dir.join("wf.xml");
    let data = dir.join("env_nr.db");
    std::fs::write(&input_cfg, INPUT_CFG).unwrap();
    std::fs::write(&workflow, WORKFLOW).unwrap();
    let db = DbSpec::env_nr_scaled(200, 5).generate();
    std::fs::write(&data, db.to_bytes()).unwrap();

    let mut args = HashMap::new();
    args.insert("num_partitions".to_string(), "4".to_string());
    let base_spec = RunSpec {
        input_config: input_cfg.clone(),
        workflow: workflow.clone(),
        data: data.clone(),
        out_dir: dir.join("healthy"),
        nodes: 3,
        args: args.clone(),
        records: Some(db.len()),
        ..Default::default()
    };
    let healthy = run(&base_spec).unwrap();
    assert_eq!(healthy.faults_injected, 0);

    let chaos_spec = RunSpec {
        out_dir: dir.join("chaos"),
        faults: Some("crash=1,drop=1".to_string()),
        fault_seed: 11,
        replication: 1,
        ..base_spec
    };
    let chaos = run(&chaos_spec).unwrap();
    assert!(chaos.faults_injected > 0, "the plan must fire");
    assert!(!chaos.recovery_log.is_empty());
    for (h, c) in healthy.files.iter().zip(&chaos.files) {
        assert_eq!(
            std::fs::read(h).unwrap(),
            std::fs::read(c).unwrap(),
            "partition files must be byte-identical after recovery"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn rejects_wrong_argument_names() {
    let dir = temp_dir("badargs");
    let input_cfg = dir.join("in.xml");
    let workflow = dir.join("wf.xml");
    let data = dir.join("d.db");
    std::fs::write(&input_cfg, INPUT_CFG).unwrap();
    std::fs::write(&workflow, WORKFLOW).unwrap();
    std::fs::write(&data, DbSpec::env_nr_scaled(10, 1).generate().to_bytes()).unwrap();
    let mut args = HashMap::new();
    args.insert("num_partitions".to_string(), "2".to_string());
    args.insert("bogus".to_string(), "1".to_string());
    let spec = RunSpec {
        input_config: input_cfg,
        workflow,
        data,
        out_dir: dir.join("parts"),
        nodes: 2,
        args,
        records: Some(10),
        ..Default::default()
    };
    let e = run(&spec).unwrap_err();
    assert!(e.to_string().contains("bogus"), "{e}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn run_refuses_workflows_with_check_errors() {
    let dir = temp_dir("checkgate");
    let input_cfg = dir.join("in.xml");
    let workflow = dir.join("wf.xml");
    let data = dir.join("d.db");
    std::fs::write(&input_cfg, INPUT_CFG).unwrap();
    // The sort key is not a field of the blast_db schema: an error the
    // planner would also catch, but the check gate reports it first, with
    // a source span, before the cluster is even created.
    std::fs::write(&workflow, WORKFLOW.replace("seq_size", "seq_sie")).unwrap();
    std::fs::write(&data, DbSpec::env_nr_scaled(10, 1).generate().to_bytes()).unwrap();
    let mut args = HashMap::new();
    args.insert("num_partitions".to_string(), "2".to_string());
    let spec = RunSpec {
        input_config: input_cfg,
        workflow,
        data,
        out_dir: dir.join("parts"),
        nodes: 2,
        args,
        records: Some(10),
        ..Default::default()
    };
    let e = run(&spec).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("static analysis"), "{msg}");
    assert!(msg.contains("P006"), "{msg}");
    assert!(msg.contains("seq_sie"), "{msg}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn text_workflow_writes_text_partitions() {
    let dir = temp_dir("text");
    let input_cfg = dir.join("edges.xml");
    let workflow = dir.join("wf.xml");
    let data = dir.join("edges.txt");
    std::fs::write(
        &input_cfg,
        r#"
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>"#,
    )
    .unwrap();
    std::fs::write(
        &workflow,
        r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="graph_edge"/>
    <param name="num_partitions" type="integer" value="2"/>
  </arguments>
  <operators>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#,
    )
    .unwrap();
    std::fs::write(&data, "1\t2\n2\t3\n3\t1\n4\t1\n").unwrap();
    let spec = RunSpec {
        input_config: input_cfg,
        workflow,
        data,
        out_dir: dir.join("parts"),
        nodes: 2,
        args: HashMap::new(),
        records: None,
        ..Default::default()
    };
    let summary = run(&spec).unwrap();
    assert_eq!(summary.records_in, 4);
    assert_eq!(summary.files.len(), 2);
    let p0 = std::fs::read_to_string(&summary.files[0]).unwrap();
    let p1 = std::fs::read_to_string(&summary.files[1]).unwrap();
    // Round-robin over the 4 edges.
    assert_eq!(p0, "1\t2\n3\t1\n");
    assert_eq!(p1, "2\t3\n4\t1\n");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn trace_export_is_valid_and_identical_across_thread_counts() {
    let dir = temp_dir("trace");
    let input_cfg = dir.join("blast_db.xml");
    let workflow = dir.join("wf.xml");
    let data = dir.join("env_nr.db");
    std::fs::write(&input_cfg, INPUT_CFG).unwrap();
    std::fs::write(&workflow, WORKFLOW).unwrap();
    let db = DbSpec::env_nr_scaled(300, 7).generate();
    std::fs::write(&data, db.to_bytes()).unwrap();

    let mut args = HashMap::new();
    args.insert("num_partitions".to_string(), "4".to_string());
    let base = RunSpec {
        input_config: input_cfg,
        workflow,
        data,
        out_dir: dir.join("p1"),
        nodes: 3,
        args,
        records: Some(db.len()),
        profile: true,
        trace_out: Some(dir.join("t1.json")),
        threads: Some(1),
        // Inject faults so the recovery counters appear in the trace too.
        faults: Some("crash=1,drop=1".to_string()),
        fault_seed: 11,
        replication: 1,
        ..Default::default()
    };
    let s1 = run(&base).unwrap();
    let s4 = run(&RunSpec {
        out_dir: dir.join("p4"),
        trace_out: Some(dir.join("t4.json")),
        threads: Some(4),
        ..base.clone()
    })
    .unwrap();

    // The profile table is present and reports the workflow total.
    let profile = s1.profile.as_deref().expect("--profile must render");
    for needle in ["sort", "distr", "map", "shuffle", "reduce", "total"] {
        assert!(
            profile.contains(needle),
            "profile missing {needle}:\n{profile}"
        );
    }

    // The bound-vs-observed table rides along: every traced counter sits
    // inside its static interval, even with faults injected (stats come
    // from the successful attempt only).
    for needle in ["static bounds vs observed", "records_in", "max_load"] {
        assert!(
            profile.contains(needle),
            "profile missing {needle}:\n{profile}"
        );
    }
    assert!(
        !profile.contains("ESCAPED"),
        "observed counter escaped its static bound:\n{profile}"
    );

    // The Chrome export is structurally sane JSON...
    let t1 = std::fs::read_to_string(s1.trace_file.as_ref().unwrap()).unwrap();
    assert!(t1.starts_with("{\"traceEvents\":["));
    assert!(t1.trim_end().ends_with('}'));
    for needle in [
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "\"cat\":\"job\"",
        "\"cat\":\"phase\"",
        "\"cat\":\"task\"",
        "\"skew_records\"",
        "\"crashes\"",
    ] {
        assert!(t1.contains(needle), "trace missing {needle}");
    }
    // ...and byte-identical regardless of how many OS threads ran it.
    let t4 = std::fs::read_to_string(s4.trace_file.as_ref().unwrap()).unwrap();
    assert_eq!(t1, t4, "trace export must not depend on --threads");
    std::fs::remove_dir_all(dir).ok();
}

/// The identity the CI `serve` job checks with shell `cmp`, as a test:
/// `papar run` and a daemon job on fresh resources go through the same
/// stage functions, so for Fig 8 (binary) and Fig 10 (text), at 1 and 4
/// engine threads, literal and adaptive, they must write the same bytes
/// and report the same shuffle traffic.
#[test]
fn run_and_a_served_job_write_the_same_files() {
    use papar_serve::job::{self, Resources};
    use papar_serve::JobSpec;

    let dir = temp_dir("identity");
    let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let blast = dir.join("env_nr.db");
    let db = DbSpec::env_nr_scaled(600, 13).generate();
    std::fs::write(&blast, db.to_bytes()).unwrap();
    // A small power-law-ish edge list: vertex 0 is a hub above the
    // threshold, the rest stay below it.
    let edges = dir.join("edges.txt");
    let text: String = (0..400u32)
        .map(|i| {
            format!(
                "{}\t{}\n",
                (i * 7 + 3) % 41,
                if i % 3 == 0 { 0 } else { i % 37 }
            )
        })
        .collect();
    std::fs::write(&edges, text).unwrap();

    let shuffled = |detail: &str| -> Vec<String> {
        detail
            .lines()
            .filter(|l| l.starts_with("job '"))
            .map(|l| l.rsplit(", ").next().unwrap().to_string())
            .collect()
    };
    let workloads = [
        (
            "fig8",
            "blast_db.xml",
            "blast_partition.xml",
            &blast,
            Some(db.len()),
            vec![("num_partitions", "8")],
        ),
        (
            "fig10",
            "graph_edge.xml",
            "hybrid_cut.xml",
            &edges,
            None,
            vec![("num_partitions", "8"), ("threshold", "5")],
        ),
    ];
    for (tag, cfg, wf, data, records, args) in workloads {
        for threads in [1usize, 4] {
            for adaptive in [false, true] {
                let cell = format!("{tag}-t{threads}-a{adaptive}");
                let spec = RunSpec {
                    input_config: format!("{configs}/{cfg}").into(),
                    workflow: format!("{configs}/{wf}").into(),
                    data: data.clone(),
                    out_dir: dir.join(format!("{cell}-run")),
                    nodes: 4,
                    args: args
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                    records,
                    threads: Some(threads),
                    adaptive,
                    ..Default::default()
                };
                let summary = run(&spec).unwrap_or_else(|e| panic!("{cell}: {e}"));

                let mut sorted: Vec<(String, String)> = spec.args.clone().into_iter().collect();
                sorted.sort();
                let served_dir = dir.join(format!("{cell}-served"));
                let outcome = job::execute(
                    &JobSpec {
                        input_config: spec.input_config.display().to_string(),
                        workflow: spec.workflow.display().to_string(),
                        data: spec.data.display().to_string(),
                        out_dir: served_dir.display().to_string(),
                        nodes: 4,
                        args: sorted,
                        records: records.map(|n| n as u64),
                        threads: Some(threads as u32),
                        adaptive,
                        ..Default::default()
                    },
                    &mut Resources::new(4, 4, 1),
                )
                .unwrap_or_else(|e| panic!("{cell} served: {e}"));

                assert_eq!(summary.files.len(), 8, "{cell}");
                for f in &summary.files {
                    let served = served_dir.join(f.file_name().unwrap());
                    assert_eq!(
                        std::fs::read(f).unwrap(),
                        std::fs::read(&served).unwrap(),
                        "{cell}: {} differs between run and serve",
                        served.display()
                    );
                }
                assert_eq!(std::fs::read_dir(&served_dir).unwrap().count(), 8, "{cell}");
                let run_lines: Vec<String> = summary
                    .jobs
                    .iter()
                    .map(|(_, _, bytes)| format!("{bytes} bytes shuffled"))
                    .collect();
                assert_eq!(run_lines, shuffled(&outcome.detail), "{cell}");
                // Both front-ends print the one rationale the compile
                // stage produced.
                match &summary.rationale {
                    Some(r) => assert!(outcome.detail.contains(r.as_str()), "{cell}"),
                    None => assert!(!adaptive, "{cell}: --adaptive must explain itself"),
                }
            }
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Every file under `dir` whose name passes `keep`, by name.
fn files_in(
    dir: &std::path::Path,
    keep: impl Fn(&str) -> bool,
) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| keep(&e.file_name().to_string_lossy()))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// The driver stages spend the thread budget too — load decodes the
/// nodes' blocks, checkpoint publish encodes and writes fragments, emit
/// writes partitions, all concurrently — and none of it may show in the
/// bytes. Fig 8 fused, Fig 8 `--no-fuse --checkpoint` and Fig 10 with a
/// checkpoint, at 1, 2, 4 and 7 threads: the same partition files, the
/// same checkpoint fragment files, and the same manifest fragment
/// entries (measured durations aside). Each run names the same `--out`
/// and checkpoint directory: both are part of what a checkpoint records.
#[test]
fn driver_stages_write_the_same_bytes_at_every_thread_count() {
    use papar_mr::CheckpointSession;

    let dir = temp_dir("driver-threads");
    let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let blast = dir.join("env_nr.db");
    let db = DbSpec::env_nr_scaled(2_000, 17).generate();
    std::fs::write(&blast, db.to_bytes()).unwrap();
    // Enough edges that every node's block starts past the text reader's
    // first record-offset note.
    let edges = dir.join("edges.txt");
    let text: String = (0..3_000u32)
        .map(|i| format!("v{}\tv{}\n", (i * 7 + 3) % 211, (i * i) % 97 % (1 + i % 13)))
        .collect();
    std::fs::write(&edges, text).unwrap();

    let (out, ckpt) = (dir.join("out"), dir.join("ckpt"));
    let fig8 = (
        "blast_db.xml",
        "blast_partition.xml",
        &blast,
        Some(db.len()),
    );
    let fig10 = ("graph_edge.xml", "hybrid_cut.xml", &edges, None);
    let parts = [("num_partitions", "8")];
    let hybrid = [("num_partitions", "8"), ("threshold", "5")];
    let cases = [
        ("fig8", fig8, &parts[..], false, false),
        ("fig8-durable", fig8, &parts[..], true, true),
        ("fig10", fig10, &hybrid[..], false, true),
    ];
    for (tag, (cfg, wf, data, records), args, no_fuse, checkpoint) in cases {
        let mut seen = None;
        for threads in [1usize, 2, 4, 7] {
            let _ = std::fs::remove_dir_all(&out);
            let _ = std::fs::remove_dir_all(&ckpt);
            let spec = RunSpec {
                input_config: format!("{configs}/{cfg}").into(),
                workflow: format!("{configs}/{wf}").into(),
                data: data.clone(),
                out_dir: out.clone(),
                nodes: 4,
                args: (args.iter())
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                records,
                threads: Some(threads),
                no_fuse,
                checkpoint: checkpoint.then(|| ckpt.clone()),
                ..Default::default()
            };
            let summary = run(&spec).unwrap_or_else(|e| panic!("{tag} t{threads}: {e}"));
            assert_eq!(summary.files.len(), 8, "{tag} t{threads}");
            let parts = files_in(&out, |_| true);
            let (fragments, entries) = if checkpoint {
                let fp = CheckpointSession::fingerprint_of(&ckpt).unwrap();
                let session = CheckpointSession::resume(&ckpt, fp).unwrap();
                assert!(session.corruption_events().is_empty(), "{tag} t{threads}");
                let entries: Vec<_> = (session.completed().iter())
                    .flat_map(|stage| &stage.fragments)
                    .map(|f| {
                        let (dataset, file) = (f.dataset.clone(), f.file.clone());
                        (dataset, f.node, f.ordinal, file, f.checksum, f.len)
                    })
                    .collect();
                assert!(!entries.is_empty(), "{tag} t{threads}");
                (files_in(&ckpt, |name| name.starts_with("frag-")), entries)
            } else {
                Default::default()
            };
            let got = (parts, fragments, entries);
            match &seen {
                None => seen = Some(got),
                Some(want) => {
                    assert!(
                        got.0 == want.0,
                        "{tag}: partitions differ at {threads} threads"
                    );
                    assert!(
                        got.1 == want.1,
                        "{tag}: fragment files differ at {threads} threads"
                    );
                    assert_eq!(
                        got.2, want.2,
                        "{tag}: manifest entries at {threads} threads"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(dir).ok();
}
