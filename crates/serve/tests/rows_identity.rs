//! Rows and records are one dataset: a Figure 8 job run from `job::load`'s
//! rows and from the same records placed as `Batch::Flat` writes the same
//! partition files, the same fault-free trace export and the same
//! checkpoint fragment files — fused, `--no-fuse` and `--no-fuse
//! --checkpoint`, at one thread and at four (the gathers run on worker
//! threads). Every run's partitions also equal the first run's, so the
//! fused assembly and the unfused distribute check each other.

use mublastp::dbgen::DbSpec;
use papar_core::exec::CheckpointCfg;
use papar_record::batch::{Batch, Dataset};
use papar_serve::job;
use papar_serve::JobSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn configs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/configs")
}

/// Every file under `dir` whose name starts with `prefix`, by name.
fn files(dir: &Path, prefix: &str) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// What one run leaves behind: partitions, trace export, fragment files.
type Outputs = (BTreeMap<String, Vec<u8>>, String, BTreeMap<String, Vec<u8>>);

/// Run `spec` over `input`, writing under `dir/tag`.
fn run(spec: &JobSpec, input: Vec<Arc<Dataset>>, dir: &Path, tag: &str, ckpt: bool) -> Outputs {
    let cfg_text = job::read_text(&spec.input_config).unwrap();
    let wf_text = job::read_text(&spec.workflow).unwrap();
    let options = job::exec_options(spec, spec.threads.map(|t| t as usize), true);
    let compiled = job::compile(spec, &cfg_text, &wf_text, 0, &input, &options).unwrap();
    let mut cluster = job::new_cluster(4, 0, 3).unwrap();
    let ckpt_dir = dir.join(format!("{tag}-ckpt"));
    let checkpoint = ckpt.then(|| CheckpointCfg {
        dir: ckpt_dir.clone(),
        resume: false,
        extra: 0,
    });
    let report = job::run(&compiled, options, checkpoint, &mut cluster, input).unwrap();
    let out = dir.join(format!("{tag}-out"));
    assert_eq!(job::emit(&compiled, &cluster, &out).unwrap().len(), 8);
    let trace = papar_trace::to_chrome_json(report.trace.as_ref().unwrap());
    let fragments = if ckpt {
        files(&ckpt_dir, "frag-")
    } else {
        BTreeMap::new()
    };
    (files(&out, "partition_"), trace, fragments)
}

#[test]
fn rows_and_records_write_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("papar-rows-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("env_nr.db");
    let db = DbSpec::env_nr_scaled(3_000, 23).generate();
    std::fs::write(&data, db.to_bytes()).unwrap();

    let mut golden = None;
    for (mode, no_fuse, ckpt) in [
        ("fused", false, false),
        ("no-fuse", true, false),
        ("durable", true, true),
    ] {
        for threads in [1u32, 4] {
            let spec = JobSpec {
                input_config: configs().join("blast_db.xml").display().to_string(),
                workflow: configs().join("blast_partition.xml").display().to_string(),
                data: data.display().to_string(),
                out_dir: dir.join("out").display().to_string(),
                nodes: 4,
                args: vec![("num_partitions".into(), "8".into())],
                records: Some(db.len() as u64),
                threads: Some(threads),
                no_fuse,
                ..JobSpec::default()
            };
            let cfg_text = job::read_text(&spec.input_config).unwrap();
            let rows = job::load(&spec, &cfg_text, threads as usize).unwrap();
            assert!(rows.iter().all(|f| matches!(f.batch, Batch::Rows(_))));
            let records: Vec<Arc<Dataset>> = (rows.iter())
                .map(|f| {
                    let flat = Batch::Flat(f.batch.clone().flatten());
                    Arc::new(Dataset::new(f.schema.clone(), flat))
                })
                .collect();
            let tag = format!("{mode}-t{threads}");
            let from_rows = run(&spec, rows, &dir, &format!("{tag}-rows"), ckpt);
            let from_records = run(&spec, records, &dir, &format!("{tag}-records"), ckpt);
            assert_eq!(from_rows.0.len(), 8, "{tag}");
            let golden = golden.get_or_insert_with(|| from_rows.0.clone());
            assert!(from_rows.0 == *golden, "{tag}: partitions differ from rows");
            assert!(
                from_records.0 == *golden,
                "{tag}: partitions differ from records"
            );
            assert_eq!(from_rows.1, from_records.1, "{tag}: trace exports differ");
            assert_eq!(!from_rows.2.is_empty(), ckpt, "{tag}");
            assert!(
                from_rows.2 == from_records.2,
                "{tag}: fragment files differ"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
