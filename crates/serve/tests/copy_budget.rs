//! Copy budget: a counting global allocator pins what each pipeline
//! stage allocates on the paper's Figure 8 job, so a per-record deep copy
//! that creeps back into a seam (a whole-file read, a clone of the
//! cached input, a collect-then-clone before encoding) fails this
//! deterministic test instead of hiding in a noisy benchmark row.
//!
//! Per-record costs are slopes between two input sizes, so constant
//! per-job allocations (plan clones, paths, traces) cancel out.

use mublastp::dbgen::DbSpec;
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
    load: Usage,
    run: Usage,
    emit: Usage,
    warm_execute: Usage,
}

fn configs() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/configs")
}

/// Figure 8 over `sequences` generated sequences, `--records`-bounded,
/// once through the stages and twice through the daemon's executor.
fn budget(dir: &Path, sequences: usize) -> Budget {
    let data = dir.join(format!("env_nr_{sequences}.db"));
    let bytes = DbSpec::env_nr_scaled(sequences, 5).generate().to_bytes();
    std::fs::write(&data, &bytes).unwrap();
    drop(bytes);
    let spec = JobSpec {
        input_config: configs().join("blast_db.xml").display().to_string(),
        workflow: configs().join("blast_partition.xml").display().to_string(),
        data: data.display().to_string(),
        out_dir: dir.join(format!("out_{sequences}")).display().to_string(),
        nodes: 4,
        args: vec![("num_partitions".into(), "8".into())],
        records: Some(sequences as u64),
        threads: Some(1),
        ..JobSpec::default()
    };
    let cfg_text = job::read_text(&spec.input_config).unwrap();
    let wf_text = job::read_text(&spec.workflow).unwrap();
    let options = job::exec_options(&spec, Some(1), false);

    let (input, load) = measure(|| job::load(&spec, &cfg_text).unwrap());
    assert_eq!(job::record_count(&input), sequences);
    let compiled = job::compile(&spec, &cfg_text, &wf_text, 0, &input, &options).unwrap();
    let mut cluster = job::new_cluster(4, 0, 3).unwrap();
    let (_, run) = measure(|| job::run(&compiled, options, None, &mut cluster, input).unwrap());
    let out = Path::new(&spec.out_dir);
    let (files, emit) = measure(|| job::emit(&compiled, &cluster, out).unwrap());
    assert_eq!(files.len(), 8);
    drop(cluster);

    let mut res = Resources::new(4, 4, 1);
    let cold = job::execute(&spec, &mut res).unwrap();
    assert!(!cold.data_cache_hit);
    let (warm, warm_execute) = measure(|| job::execute(&spec, &mut res).unwrap());
    assert!(warm.data_cache_hit && warm.plan_cache_hit);

    Budget {
        file_len: std::fs::metadata(&data).unwrap().len(),
        load,
        run,
        emit,
        warm_execute,
    }
}

/// Allocations per extra input record between two budgets.
fn slope(small: Usage, large: Usage, records: f64) -> f64 {
    (large.blocks as f64 - small.blocks as f64) / records
}

#[test]
fn pipeline_seams_copy_no_record() {
    let dir = std::env::temp_dir().join(format!("papar-copy-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Warm up once so one-time initialization (thread-budget announce,
    // lazy statics) lands on no measured size.
    budget(&dir, 500);
    let small = budget(&dir, 2_000);
    let large = budget(&dir, 20_000);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("2k: {small:?}\n20k: {large:?}");
    let extra = (20_000 - 2_000) as f64;

    // Emit encodes the resident fragments in place: its allocations are
    // per partition, not per record.
    assert!(
        small.emit.blocks.abs_diff(large.emit.blocks) <= 16,
        "emit allocates per record: {} blocks at 2k, {} at 20k",
        small.emit.blocks,
        large.emit.blocks
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

    // The engine's own per-record allocations (map-side keyed copy,
    // reduce-side decode); no seam around it adds a record copy.
    let run = slope(small.run, large.run, extra);
    assert!(run <= 3.1, "run allocates {run:.3} blocks per record");

    // A warm served request shares the cached input: per record it
    // allocates what `run` does and nothing more.
    let warm = slope(small.warm_execute, large.warm_execute, extra);
    assert!(
        warm <= run + 0.05,
        "warm execute allocates {warm:.3} blocks per record against run's {run:.3}"
    );
}
