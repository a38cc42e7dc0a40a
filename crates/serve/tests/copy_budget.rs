//! Copy budget: a counting global allocator pins what each pipeline
//! stage allocates on the paper's Figure 8 and Figure 10 jobs, so a
//! per-record deep copy that creeps back into a seam (a whole-file read,
//! a clone of the cached input, a collect-then-clone before encoding, a
//! map task cloning what it only reads) fails this deterministic test
//! instead of hiding in a noisy benchmark row.
//!
//! Per-record costs are slopes between two input sizes, so constant
//! per-job allocations (plan clones, paths, traces) cancel out. The
//! allocator is process-wide, so every measurement runs inside the one
//! test below, never beside another.

use mublastp::dbgen::DbSpec;
use papar_core::exec::CheckpointCfg;
use papar_record::wire;
use papar_serve::job::{self, Resources};
use papar_serve::JobSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every allocation (and every reallocation, as one block plus
/// its growth in bytes) made by any thread of this test binary.
struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks and bytes allocated while `f` ran.
#[derive(Debug, Clone, Copy)]
struct Usage {
    blocks: u64,
    bytes: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let (blocks, bytes) = (BLOCKS.load(Relaxed), BYTES.load(Relaxed));
    let out = f();
    let usage = Usage {
        blocks: BLOCKS.load(Relaxed) - blocks,
        bytes: BYTES.load(Relaxed) - bytes,
    };
    (out, usage)
}

/// What one input size costs, stage by stage.
#[derive(Debug)]
struct Budget {
    file_len: u64,
    /// Bytes of the loaded records as rows.
    row_bytes: u64,
    load: Usage,
    run: Usage,
    emit: Usage,
    warm_execute: Usage,
}

fn configs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/configs")
}

/// Figure 8 over `sequences` generated sequences, `--records`-bounded.
fn fig8(dir: &Path, sequences: usize) -> JobSpec {
    let data = dir.join(format!("env_nr_{sequences}.db"));
    let bytes = DbSpec::env_nr_scaled(sequences, 5).generate().to_bytes();
    std::fs::write(&data, &bytes).unwrap();
    JobSpec {
        input_config: configs().join("blast_db.xml").display().to_string(),
        workflow: configs().join("blast_partition.xml").display().to_string(),
        data: data.display().to_string(),
        out_dir: dir
            .join(format!("out_fig8_{sequences}"))
            .display()
            .to_string(),
        nodes: 4,
        args: vec![("num_partitions".into(), "8".into())],
        records: Some(sequences as u64),
        threads: Some(1),
        ..JobSpec::default()
    }
}

/// Figure 10 over a text edge list of `edges` edges with `String` vertex
/// ids: one vertex per 8 edges, in-vertices skewed toward low ids so
/// both sides of the degree threshold are populated.
fn fig10(dir: &Path, edges: usize) -> JobSpec {
    let data = dir.join(format!("edges_{edges}.txt"));
    let vertices = (edges / 8).max(1) as u64;
    let mut text = String::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..edges {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let src = (x >> 33) % vertices;
        let u = (x >> 11) & 0xffff;
        let dst = u * u * vertices / (1 << 32);
        text.push_str(&format!("v{src}\tv{dst}\n"));
    }
    std::fs::write(&data, text).unwrap();
    JobSpec {
        input_config: configs().join("graph_edge.xml").display().to_string(),
        workflow: configs().join("hybrid_cut.xml").display().to_string(),
        data: data.display().to_string(),
        out_dir: dir.join(format!("out_fig10_{edges}")).display().to_string(),
        nodes: 4,
        args: vec![
            ("num_partitions".into(), "8".into()),
            ("threshold".into(), "25".into()),
        ],
        threads: Some(1),
        ..JobSpec::default()
    }
}

/// Threads for load and emit: their per-record costs must not depend on
/// running concurrently.
const DRIVER_THREADS: usize = 2;

/// One job's stages over `records` input records, once through the
/// stages and twice through the daemon's executor. Load and emit run at
/// [`DRIVER_THREADS`], the engine at one thread.
fn budget(spec: &JobSpec, records: usize) -> Budget {
    let cfg_text = job::read_text(&spec.input_config).unwrap();
    let wf_text = job::read_text(&spec.workflow).unwrap();
    let options = job::exec_options(spec, Some(1), false);

    let (input, load) = measure(|| job::load(spec, &cfg_text, DRIVER_THREADS).unwrap());
    assert_eq!(job::record_count(&input), records);
    // A batch encodes as a 5-byte header and its records' row bytes.
    let row_bytes = (input.iter())
        .map(|f| wire::encoded_size(&f.batch, &f.schema).unwrap() as u64 - 5)
        .sum();
    let compiled = job::compile(spec, &cfg_text, &wf_text, 0, &input, &options).unwrap();
    let mut cluster = job::new_cluster(4, 1, 0, 3).unwrap();
    let (_, run) = measure(|| job::run(&compiled, options, None, &mut cluster, input).unwrap());
    let out = Path::new(&spec.out_dir);
    cluster.set_threads(DRIVER_THREADS);
    let (files, emit) = measure(|| job::emit(&compiled, &cluster, out).unwrap());
    assert_eq!(files.len(), 8);
    drop(cluster);

    let mut res = Resources::new(4, 4, 1);
    let cold = job::execute(spec, &mut res).unwrap();
    assert!(!cold.data_cache_hit);
    let (warm, warm_execute) = measure(|| job::execute(spec, &mut res).unwrap());
    assert!(warm.data_cache_hit && warm.plan_cache_hit);

    Budget {
        file_len: std::fs::metadata(&spec.data).unwrap().len(),
        row_bytes,
        load,
        run,
        emit,
        warm_execute,
    }
}

/// What `run` allocates for one `--no-fuse --checkpoint` job: both
/// stages materialised and published to a fresh checkpoint directory.
fn durable_run(spec: &JobSpec, records: usize) -> Usage {
    let spec = JobSpec {
        no_fuse: true,
        ..spec.clone()
    };
    let cfg_text = job::read_text(&spec.input_config).unwrap();
    let wf_text = job::read_text(&spec.workflow).unwrap();
    let options = job::exec_options(&spec, Some(1), false);
    let input = job::load(&spec, &cfg_text, 1).unwrap();
    assert_eq!(job::record_count(&input), records);
    let compiled = job::compile(&spec, &cfg_text, &wf_text, 0, &input, &options).unwrap();
    let mut cluster = job::new_cluster(4, 1, 0, 3).unwrap();
    let checkpoint = CheckpointCfg {
        dir: PathBuf::from(format!("{}-ckpt", spec.out_dir)),
        resume: false,
        extra: 0,
    };
    let (report, run) =
        measure(|| job::run(&compiled, options, Some(checkpoint), &mut cluster, input).unwrap());
    assert_eq!(report.jobs.len(), 2, "--no-fuse runs both stages");
    run
}

/// Allocations per extra input record between two budgets.
fn slope(small: Usage, large: Usage, records: f64) -> f64 {
    (large.blocks as f64 - small.blocks as f64) / records
}

/// Bytes allocated per extra input record between two budgets.
fn byte_slope(small: Usage, large: Usage, records: f64) -> f64 {
    (large.bytes as f64 - small.bytes as f64) / records
}

/// The Figure 8 `run` byte slope measured on this test's database: the
/// sort reducers gather each record's 16 row bytes from the inbox, the
/// fused assembly copies them once into their partition, plus the
/// shuffle's outbox, inbox and sort buffers (a pair is its 16-byte row:
/// the key is read from it, its tag travels once per run). No record is
/// decoded.
const BLAST_RUN_BYTES: f64 = 87.4;

/// The Figure 10 `run` byte slope measured on this test's edge list (two
/// engine jobs: the shuffle buffers; the fused group→split's edges
/// appended as rows with their count — the high-degree ones into one
/// buffer per destination, each low-degree group into its own member
/// rows, none decoded; the distribute's edges, which arrive already
/// projected onto the output format — no `indegree` — and are gathered as
/// rows, none decoded). A distribute that ships the count again, or a
/// low-degree group decoded into records, fails it.
const HYBRID_RUN_BYTES: f64 = 174.0;

/// The Figure 10 `run` block slope: one member buffer per low-degree
/// packed group, its rows copied from the inbox, not decoded.
const HYBRID_RUN_BLOCKS: f64 = 0.128;

/// The Figure 8 `--no-fuse --checkpoint` `run` byte slope measured on
/// this test's database: the two unfused jobs' row gathers and shuffle
/// buffers, the materialised sort output, and one checkpoint payload per
/// published fragment, written after its frame header without a copy. A
/// distribute pair is its row: no order key, no tag.
const DURABLE_RUN_BYTES: f64 = 178.9;

/// One decoded record, in place.
const RECORD_BYTES: f64 = std::mem::size_of::<papar_record::Record>() as f64;

#[test]
fn pipeline_seams_copy_no_record() {
    let dir = std::env::temp_dir().join(format!("papar-copy-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Warm up once so one-time initialization (thread-budget announce,
    // lazy statics) lands on no measured size.
    budget(&fig8(&dir, 500), 500);
    let small = budget(&fig8(&dir, 2_000), 2_000);
    let large = budget(&fig8(&dir, 20_000), 20_000);
    let hybrid_small = budget(&fig10(&dir, 2_000), 2_000);
    let hybrid_large = budget(&fig10(&dir, 20_000), 20_000);
    let durable_small = durable_run(&fig8(&dir, 2_000), 2_000);
    let durable_large = durable_run(&fig8(&dir, 20_000), 20_000);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("fig8 2k: {small:?}\nfig8 20k: {large:?}");
    eprintln!("fig10 2k: {hybrid_small:?}\nfig10 20k: {hybrid_large:?}");

    // Emit encodes the resident fragments in place: its allocations are
    // per partition, not per record. Binary rows are written as they lie;
    // each of the eight text buffers doubles about log2(10) more times at
    // ten times the edges.
    for (fig, small, large, slack) in [
        ("fig8", &small, &large, 16),
        ("fig10", &hybrid_small, &hybrid_large, 32),
    ] {
        assert!(
            small.emit.blocks.abs_diff(large.emit.blocks) <= slack,
            "{fig} emit allocates per record: {} blocks at 2k, {} at 20k",
            small.emit.blocks,
            large.emit.blocks
        );
        // Rows and in-place records: load allocates per file, not per
        // record.
        assert!(
            small.load.blocks.abs_diff(large.load.blocks) <= 16,
            "{fig} load allocates per record: {} blocks at 2k, {} at 20k",
            small.load.blocks,
            large.load.blocks
        );
    }

    // Load holds one copy of the input. A Figure 8 record is 16 bytes on
    // disk, read straight into its node's rows and never decoded; a
    // Figure 10 edge is a line, read whole and encoded into its row (the
    // two ids with their lengths), never decoded — not a 72-byte record.
    let extra = (20_000 - 2_000) as f64;
    let line = (hybrid_large.file_len - hybrid_small.file_len) as f64 / extra;
    let row = (hybrid_large.row_bytes - hybrid_small.row_bytes) as f64 / extra;
    assert!(row < RECORD_BYTES, "an edge row is {row:.1} bytes");
    for (fig, small, large, per_record) in [
        ("fig8", &small, &large, 16.0),
        ("fig10", &hybrid_small, &hybrid_large, line + row),
    ] {
        let load_bytes = byte_slope(small.load, large.load, extra);
        eprintln!("{fig} load: {load_bytes:.1} bytes per record");
        assert!(
            load_bytes <= per_record * 1.02,
            "{fig} load allocates {load_bytes:.1} bytes per record, budget {per_record:.1}"
        );
    }

    // Binary emit writes each partition's rows where they lie: its bytes
    // do not grow with the input (the paths grow by a digit).
    assert!(
        small.emit.bytes.abs_diff(large.emit.bytes) <= 256,
        "fig8 emit allocates per record: {} bytes at 2k, {} at 20k",
        small.emit.bytes,
        large.emit.bytes
    );

    // A `--records`-bounded load reads only the index region, never the
    // sequence payload behind it.
    for b in [&small, &large] {
        assert!(
            b.load.bytes < b.file_len,
            "load allocated {} bytes for a {}-byte file",
            b.load.bytes,
            b.file_len
        );
    }

    // Map tasks copy the rows they borrow straight into the outbox,
    // reducers gather each row once, straight into their output, the
    // identity projection is skipped and the fused assembly copies each
    // row once into an exact-size partition: no block is allocated per
    // record, and bytes are pinned at the measured slope plus 2 %.
    let run = slope(small.run, large.run, extra);
    let run_bytes = byte_slope(small.run, large.run, extra);
    eprintln!("fig8 run: {run:.3} blocks, {run_bytes:.1} bytes per record");
    assert!(run <= 0.05, "run allocates {run:.3} blocks per record");
    assert!(
        run_bytes <= BLAST_RUN_BYTES * 1.02,
        "run allocates {run_bytes:.1} bytes per record"
    );

    // Figure 10 (text, short string vertex ids, group→split→distribute)
    // still allocates per low-degree group, for its member rows; blocks
    // and bytes pinned at the measured slopes plus 2 %.
    let hybrid = slope(hybrid_small.run, hybrid_large.run, extra);
    let hybrid_bytes = byte_slope(hybrid_small.run, hybrid_large.run, extra);
    eprintln!("fig10 run: {hybrid:.3} blocks, {hybrid_bytes:.1} bytes per record");
    assert!(
        hybrid <= HYBRID_RUN_BLOCKS * 1.02,
        "hybrid run allocates {hybrid:.3} blocks per record"
    );
    assert!(
        hybrid_bytes <= HYBRID_RUN_BYTES * 1.02,
        "hybrid run allocates {hybrid_bytes:.1} bytes per record"
    );

    // A checkpointed run publishes each fragment's payload as encoded:
    // hashed once, written after its frame header, never copied into a
    // frame (a copy is one more payload per record, ≈ 16 bytes per stage).
    let durable_bytes = byte_slope(durable_small, durable_large, extra);
    eprintln!("fig8 --no-fuse --checkpoint run: {durable_bytes:.1} bytes per record");
    assert!(
        durable_bytes <= DURABLE_RUN_BYTES * 1.02,
        "durable run allocates {durable_bytes:.1} bytes per record"
    );

    // A warm served request shares the cached input: per record it
    // allocates what `run` does and nothing more.
    let warm = slope(small.warm_execute, large.warm_execute, extra);
    assert!(
        warm <= run + 0.05,
        "warm execute allocates {warm:.3} blocks per record against run's {run:.3}"
    );
}
