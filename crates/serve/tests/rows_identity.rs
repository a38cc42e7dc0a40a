//! Rows and records are one dataset: a Figure 8 or Figure 10 job run from
//! `job::load`'s rows and from the same records placed as `Batch::Flat`
//! writes the same partition files, the same fault-free trace export and
//! the same checkpoint fragment files — fused, `--no-fuse` and `--no-fuse
//! --checkpoint`, at one thread and at four (the gathers run on worker
//! threads). Every run's partitions also equal the figure's first run's,
//! and Figure 10 shuffles the same bytes fused or not, so the fused stages
//! and the unfused jobs check each other.

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

/// What one run leaves behind: partitions, trace export, fragment files,
/// and the bytes its jobs shuffled.
type Outputs = (
    BTreeMap<String, Vec<u8>>,
    String,
    BTreeMap<String, Vec<u8>>,
    u64,
);

/// Run `spec` over `input`, writing under `dir/tag`.
fn run(spec: &JobSpec, input: Vec<Arc<Dataset>>, dir: &Path, tag: &str, ckpt: bool) -> Outputs {
    let cfg_text = job::read_text(&spec.input_config).unwrap();
    let wf_text = job::read_text(&spec.workflow).unwrap();
    let options = job::exec_options(spec, spec.threads.map(|t| t as usize), true);
    let compiled = job::compile(spec, &cfg_text, &wf_text, 0, &input, &options).unwrap();
    let mut cluster = job::new_cluster(4, 1, 0, 3).unwrap();
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
    let shuffled = report.total_shuffled_bytes();
    (files(&out, "partition_"), trace, fragments, shuffled)
}

/// Figure 10's input: a text edge list of `edges` edges with `String`
/// vertex ids, one vertex per 8 edges, in-vertices skewed toward low ids
/// so both sides of the degree threshold are populated.
fn edge_list(path: &Path, edges: usize) {
    let vertices = (edges / 8).max(1) as u64;
    let mut text = String::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..edges {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let src = (x >> 33) % vertices;
        let u = (x >> 11) & 0xffff;
        let dst = u * u * vertices / (1 << 32);
        text.push_str(&format!("v{src}\tv{dst}\n"));
    }
    std::fs::write(path, text).unwrap();
}

/// The two figures' jobs over their generated inputs in `dir`.
fn figures(dir: &Path) -> Vec<(&'static str, JobSpec)> {
    let db_path = dir.join("env_nr.db");
    let db = DbSpec::env_nr_scaled(3_000, 23).generate();
    std::fs::write(&db_path, db.to_bytes()).unwrap();
    let edges_path = dir.join("edges.txt");
    edge_list(&edges_path, 6_000);
    let spec = |cfg: &str, wf: &str, data: &Path| JobSpec {
        input_config: configs().join(cfg).display().to_string(),
        workflow: configs().join(wf).display().to_string(),
        data: data.display().to_string(),
        out_dir: dir.join("out").display().to_string(),
        nodes: 4,
        args: vec![("num_partitions".into(), "8".into())],
        ..JobSpec::default()
    };
    let fig8 = JobSpec {
        records: Some(db.len() as u64),
        ..spec("blast_db.xml", "blast_partition.xml", &db_path)
    };
    let mut fig10 = spec("graph_edge.xml", "hybrid_cut.xml", &edges_path);
    fig10.args.push(("threshold".into(), "25".into()));
    vec![("fig8", fig8), ("fig10", fig10)]
}

#[test]
fn rows_and_records_write_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("papar-rows-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for (fig, base) in figures(&dir) {
        let mut golden = None;
        // Shuffled bytes by `no_fuse`.
        let mut shuffled = BTreeMap::new();
        for (mode, no_fuse, ckpt) in [
            ("fused", false, false),
            ("no-fuse", true, false),
            ("durable", true, true),
        ] {
            for threads in [1u32, 4] {
                let spec = JobSpec {
                    threads: Some(threads),
                    no_fuse,
                    ..base.clone()
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
                let tag = format!("{fig}-{mode}-t{threads}");
                let from_rows = run(&spec, rows, &dir, &format!("{tag}-rows"), ckpt);
                let from_records = run(&spec, records, &dir, &format!("{tag}-records"), ckpt);
                assert_eq!(from_rows.0.len(), 8, "{tag}");
                let golden = golden.get_or_insert_with(|| from_rows.0.clone());
                assert!(from_rows.0 == *golden, "{tag}: partitions differ from rows");
                assert!(
                    from_records.0 == *golden,
                    "{tag}: partitions differ from records"
                );
                let bytes = *shuffled.entry(no_fuse).or_insert(from_rows.3);
                assert_eq!((from_rows.3, from_records.3), (bytes, bytes), "{tag}");
                assert_eq!(from_rows.1, from_records.1, "{tag}: trace exports differ");
                assert_eq!(!from_rows.2.is_empty(), ckpt, "{tag}");
                assert!(
                    from_rows.2 == from_records.2,
                    "{tag}: fragment files differ"
                );
            }
        }
        // Figure 10's fusion elides the map-only split, which shuffles
        // nothing: fused or not, the same records (counts appended) cross
        // the same two shuffles.
        if fig == "fig10" {
            assert_eq!(shuffled[&false], shuffled[&true], "fig10 shuffled bytes");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
