//! The fused sort→distribute stage as one shuffle by global rank: table
//! rows of Figure 8, each run fused and `--no-fuse`, whose partition files
//! must be byte-identical, and each naming the path its fused run took
//! from the `--profile` footnote the trace renders — the rank shuffle when
//! the sort key is an `int` or `long` whose span times the partition count
//! is at most the row count, otherwise the sort, then the distribute, which
//! shuffle and recover exactly as `--no-fuse` does.

use mublastp::dbgen::DbSpec;
use papar_cli::{run, RunSpec};
use papar_core::exec::{ExecOptions, WorkflowRunner};
use papar_core::plan::Planner;
use papar_mr::Cluster;
use papar_record::batch::{Batch, Dataset, Rows};
use papar_record::Record;
use std::collections::HashMap;
use std::path::PathBuf;

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

/// Fixed-width records keyed by a `double`.
const SCORED_CFG: &str = r#"
<input id="scored" name="scored records">
  <input_format>binary</input_format>
  <start_position>0</start_position>
  <element>
    <value name="id" type="integer"/>
    <value name="score" type="double"/>
    <value name="pad" type="integer"/>
  </element>
</input>"#;

/// Figure 8 over `format`, sorted by `key` in direction `flag` (`-1`
/// ascending, `1` descending), distributed by `policy`, its output in
/// `out_format`.
fn workflow(format: &str, out_format: &str, key: &str, flag: &str, policy: &str) -> String {
    format!(
        r#"
<workflow id="blast_partition" name="BLAST database partition">
  <arguments>
    <param name="input_path" type="hdfs" format="{format}"/>
    <param name="output_path" type="hdfs" format="{out_format}"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="{key}"/>
      <param name="flag" type="String" value="{flag}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="{policy}"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#
    )
}

/// The footnote of a rank-shuffled fused stage.
const RANK: &str = "└ fused path: one shuffle by global rank";
/// The footnote of a fused stage that ran the sort, then the distribute.
const FALLBACK: &str = "└ fused path: the sort, then the distribute:";

/// Sequences of the Figure 8 database: at least its 8 partitions × the
/// ≈3,000-key span of its sequence lengths, so it takes the rank shuffle.
const SEQUENCES: usize = 30_000;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("papar-rank-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One Figure 8 run's partition files, its profile, and what its summary
/// says it shuffled and recovered.
struct Ran {
    files: Vec<Vec<u8>>,
    profile: String,
    faults: u32,
    resumed: bool,
    /// Per stage: its name, simulated time and bytes shuffled.
    jobs: Vec<(String, std::time::Duration, u64)>,
    /// Bytes shuffled and `shuffle_lo`, summed over the stages.
    shuffled: (u64, u64),
    recovery_log: Vec<String>,
}

/// The files shared by one table: the input configuration, the data file
/// and its record count.
struct Fixture {
    dir: PathBuf,
    cfg: PathBuf,
    data: PathBuf,
    records: usize,
}

impl Fixture {
    fn run(&self, wf: &str, tag: &str, nodes: usize, spec: RunSpec) -> Ran {
        let workflow = self.dir.join(format!("{tag}.xml"));
        std::fs::write(&workflow, wf).unwrap();
        let summary = run(&RunSpec {
            input_config: self.cfg.clone(),
            workflow,
            data: self.data.clone(),
            nodes,
            args: HashMap::from([("num_partitions".to_string(), "8".to_string())]),
            records: Some(self.records),
            profile: true,
            ..spec
        })
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
        Ran {
            files: (summary.files.iter())
                .map(|f| std::fs::read(f).unwrap())
                .collect(),
            profile: summary.profile.unwrap_or_default(),
            faults: summary.faults_injected,
            resumed: summary.output.contains("resumed from checkpoint"),
            jobs: (summary.jobs.iter())
                .map(|(name, sim, bytes, _)| (name.clone(), *sim, *bytes))
                .collect(),
            shuffled: (summary.jobs.iter()).fold((0, 0), |(b, lo), j| (b + j.2, lo + j.3)),
            recovery_log: summary.recovery_log,
        }
    }
}

fn fig8(tag: &str, sequences: usize) -> Fixture {
    let dir = temp_dir(tag);
    let (cfg, data) = (dir.join("blast_db.xml"), dir.join("env_nr.db"));
    std::fs::write(&cfg, INPUT_CFG).unwrap();
    let db = DbSpec::env_nr_scaled(sequences, 13).generate();
    std::fs::write(&data, db.to_bytes()).unwrap();
    Fixture {
        dir,
        cfg,
        data,
        records: sequences,
    }
}

/// Nodes {4, 7, 16} × cyclic and block × ascending and descending: the
/// fused run at threads {1, 4}, clean and under `crash=2` with one
/// replica, writes what `--no-fuse` writes, and every one of them took the
/// rank shuffle.
#[test]
fn the_rank_shuffle_writes_what_no_fuse_writes() {
    let fx = fig8("table", SEQUENCES);
    let mut faults = 0;
    for nodes in [4, 7, 16] {
        for policy in ["roundRobin", "block"] {
            for flag in ["-1", "1"] {
                let wf = workflow("blast_db", "blast_db", "seq_size", flag, policy);
                let tag = format!("n{nodes}-{policy}-{flag}");
                let out = |name: &str| fx.dir.join(format!("{tag}-{name}"));
                let unfused = RunSpec {
                    out_dir: out("nofuse"),
                    threads: Some(1),
                    no_fuse: true,
                    ..Default::default()
                };
                let want = fx.run(&wf, &tag, nodes, unfused);
                assert!(!want.profile.contains("fused path"), "{tag}");
                for threads in [1, 4] {
                    for crash in [false, true] {
                        let spec = RunSpec {
                            out_dir: out(&format!("t{threads}-{crash}")),
                            threads: Some(threads),
                            faults: crash.then(|| "crash=2".to_string()),
                            fault_seed: 3,
                            replication: usize::from(crash),
                            ..Default::default()
                        };
                        let got = fx.run(&wf, &tag, nodes, spec);
                        let cell = format!("{tag} at {threads} threads, crash {crash}");
                        assert!(got.profile.contains(RANK), "{cell}:\n{}", got.profile);
                        assert!(got.files == want.files, "{cell}: partitions differ");
                        faults += got.faults;
                    }
                }
            }
        }
    }
    assert!(faults > 0, "the crash plans must fire");
    std::fs::remove_dir_all(&fx.dir).ok();
}

/// A checkpoint the rank shuffle wrote resumes to the same partitions,
/// restoring the stage instead of shuffling again.
#[test]
fn a_rank_shuffled_checkpoint_resumes_to_the_same_partitions() {
    let fx = fig8("resume", SEQUENCES);
    let wf = workflow("blast_db", "blast_db", "seq_size", "-1", "roundRobin");
    let unfused = RunSpec {
        out_dir: fx.dir.join("nofuse"),
        no_fuse: true,
        ..Default::default()
    };
    let want = fx.run(&wf, "wf", 4, unfused);
    let (out, ckpt) = (fx.dir.join("parts"), fx.dir.join("ckpt"));
    let checkpointed = RunSpec {
        out_dir: out.clone(),
        threads: Some(1),
        checkpoint: Some(ckpt.clone()),
        ..Default::default()
    };
    let first = fx.run(&wf, "wf", 4, checkpointed.clone());
    assert!(first.profile.contains(RANK), "{}", first.profile);
    std::fs::remove_dir_all(&out).unwrap();
    let resumed = RunSpec {
        threads: Some(4),
        resume: true,
        ..checkpointed
    };
    let second = fx.run(&wf, "wf", 4, resumed);
    assert!(second.resumed && !second.profile.contains("fused path"));
    assert!(first.files == want.files && second.files == want.files);
    std::fs::remove_dir_all(&fx.dir).ok();
}

/// The fused run of `wf` at threads {1, 4}, clean and under `crash=2`
/// with one replica, against `--no-fuse` under the same faults: each took
/// the sort, then the distribute, and wrote, shuffled (bytes and
/// `shuffle_lo`, summed) and recovered exactly what `--no-fuse` did.
fn falls_back_to_what_no_fuse_does(fx: &Fixture, wf: &str, tag: &str) {
    for threads in [1, 4] {
        for crash in [false, true] {
            let cell = format!("{tag} at {threads} threads, crash {crash}");
            let spec = |fused: bool| RunSpec {
                out_dir: fx.dir.join(format!("{tag}-t{threads}-{crash}-{fused}")),
                threads: Some(threads),
                faults: crash.then(|| "crash=2".to_string()),
                fault_seed: 3,
                replication: usize::from(crash),
                no_fuse: !fused,
                ..Default::default()
            };
            let want = fx.run(wf, tag, 4, spec(false));
            let got = fx.run(wf, tag, 4, spec(true));
            assert!(got.profile.contains(FALLBACK), "{cell}:\n{}", got.profile);
            assert!(got.files == want.files, "{cell}: partitions differ");
            assert_eq!(got.shuffled, want.shuffled, "{cell}");
            assert_eq!(got.recovery_log, want.recovery_log, "{cell}");
            assert_eq!(got.faults, want.faults, "{cell}");
            assert!(!crash || got.faults > 0, "{cell}: the crash plan must fire");
        }
    }
}

/// Keys the rank shuffle refuses run the sort, then the distribute, as
/// `--no-fuse` does: a key whose span passes the row count (`seq_start`,
/// a file offset), and databases too small for 8 partitions of their
/// sequence lengths' span, one of them a few thousand sequences short.
#[test]
fn a_key_span_above_the_row_count_sorts_then_distributes() {
    for (sequences, key) in [
        (SEQUENCES, "seq_start"),
        (500, "seq_size"),
        (20_000, "seq_size"),
    ] {
        let fx = fig8(&format!("span-{sequences}"), sequences);
        let wf = workflow("blast_db", "blast_db", key, "-1", "roundRobin");
        falls_back_to_what_no_fuse_does(&fx, &wf, key);
        std::fs::remove_dir_all(&fx.dir).ok();
    }
}

/// A `double` sort key runs the sort, then the distribute.
#[test]
fn a_double_key_sorts_then_distributes() {
    let dir = temp_dir("double");
    let (cfg, data) = (dir.join("scored.xml"), dir.join("scored.bin"));
    std::fs::write(&cfg, SCORED_CFG).unwrap();
    let records = 3_000;
    let mut bytes = Vec::new();
    for i in 0..records as i32 {
        bytes.extend_from_slice(&i.to_le_bytes());
        bytes.extend_from_slice(&f64::from(i * 7919 % 101).to_le_bytes());
        bytes.extend_from_slice(&0i32.to_le_bytes());
    }
    std::fs::write(&data, bytes).unwrap();
    let fx = Fixture {
        dir,
        cfg,
        data,
        records,
    };
    let wf = workflow("scored", "scored", "score", "-1", "roundRobin");
    falls_back_to_what_no_fuse_does(&fx, &wf, "score");
    std::fs::remove_dir_all(&fx.dir).ok();
}

/// A checkpoint the fallback wrote resumes to the same partitions and
/// reports the checkpointed run's stats: its stage's name, simulated time
/// and bytes shuffled.
#[test]
fn a_fallback_checkpoint_resumes_with_the_cold_runs_stats() {
    let fx = fig8("fallback-resume", 500);
    let wf = workflow("blast_db", "blast_db", "seq_size", "-1", "roundRobin");
    let (out, ckpt) = (fx.dir.join("parts"), fx.dir.join("ckpt"));
    let checkpointed = RunSpec {
        out_dir: out.clone(),
        threads: Some(1),
        checkpoint: Some(ckpt),
        ..Default::default()
    };
    let cold = fx.run(&wf, "wf", 4, checkpointed.clone());
    assert!(cold.profile.contains(FALLBACK), "{}", cold.profile);
    assert_eq!(cold.jobs.len(), 1, "one stage");
    std::fs::remove_dir_all(&out).unwrap();
    let resumed = RunSpec {
        threads: Some(4),
        resume: true,
        ..checkpointed
    };
    let warm = fx.run(&wf, "wf", 4, resumed);
    assert!(warm.resumed && !warm.profile.contains("fused path"));
    assert!(warm.files == cold.files, "partitions differ");
    assert_eq!(warm.jobs, cold.jobs);
    std::fs::remove_dir_all(&fx.dir).ok();
}

/// An output format that keeps the sort key ships each row projected and
/// still takes the rank shuffle; one that drops the key runs the sort,
/// then the distribute. Both write what `--no-fuse` writes.
#[test]
fn an_output_format_that_keeps_the_key_still_ranks() {
    const SIZED: &str = r#"
<input id="sized" name="sizes and descriptions">
  <input_format>binary</input_format>
  <start_position>0</start_position>
  <element>
    <value name="desc_start" type="integer"/>
    <value name="seq_size" type="integer"/>
  </element>
</input>"#;
    const PLACED: &str = r#"
<input id="placed" name="offsets">
  <input_format>binary</input_format>
  <start_position>0</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="desc_start" type="integer"/>
  </element>
</input>"#;
    // 5 partitions of a ≈3,000-key span.
    let db = DbSpec::env_nr_scaled(16_000, 5).generate();
    let cfgs = [INPUT_CFG, SIZED, PLACED];
    for (out_format, want_path) in [("sized", RANK), ("placed", FALLBACK)] {
        let wf = workflow("blast_db", out_format, "seq_size", "1", "block");
        let run = |fuse: bool| -> (Vec<Vec<u8>>, String) {
            let planner = Planner::from_xml(&wf, &cfgs).unwrap();
            let args = HashMap::from([
                ("input_path".to_string(), "/in".to_string()),
                ("output_path".to_string(), "/out".to_string()),
                ("num_partitions".to_string(), "5".to_string()),
            ]);
            let plan = planner.bind(&args).unwrap();
            let (input, meta) = plan.external_inputs[0].clone();
            let records: Vec<Record> = db.index_records();
            let rows = Rows::from_records(meta.schema.clone(), &records).unwrap();
            let options = ExecOptions {
                fuse,
                trace: true,
                threads: Some(2),
                ..ExecOptions::default()
            };
            let runner = WorkflowRunner::with_options(plan, options);
            let mut cluster = Cluster::new(3);
            let data = Dataset::new(meta.schema, Batch::Rows(rows));
            runner.scatter_input(&mut cluster, &input, data).unwrap();
            let report = runner.run(&mut cluster).unwrap();
            let parts = cluster.collect(&runner.plan().output_path).unwrap();
            // The partitions hold the output format's two fields.
            assert!(parts.iter().all(|d| d.schema.len() == 2), "{out_format}");
            let bytes = (parts.iter())
                .map(|d| {
                    let mut out = Vec::new();
                    papar_record::wire::encode_batch(&d.batch, &d.schema, &mut out).unwrap();
                    out
                })
                .collect();
            (bytes, papar_trace::render_profile(&report.trace.unwrap()))
        };
        let (want, _) = run(false);
        let (got, profile) = run(true);
        assert!(profile.contains(want_path), "{out_format}:\n{profile}");
        assert!(got == want, "{out_format}: partitions differ");
    }
}
