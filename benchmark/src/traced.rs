//! The traced pass: per-layer numbers for one workload.
//!
//! The harness runs the job in-process, mirroring `papar_cli::run` call
//! for call, and records a span around each call into a layer's public
//! function. Tracing *inside* the program stays off (`ExecOptions.trace =
//! false`) except for the one measurement of what it costs. Beside the
//! mirrored job the pass times a few layer calls standalone on the
//! workload's own data (*kernels*) and drives spawned probes for the
//! layers that only show across a process or socket boundary (spawn
//! overhead, checkpoint publish, the daemon).
//!
//! `benchmark/README.md` lists every function of the program this file
//! calls; a refactor that changes one of those signatures changes this
//! file too.

use crate::e2e::{run_cli_job, Daemon, JobSample};
use crate::fixture::{dir_bytes, Input, Scale, Workload, NODES, PARTITIONS, THREADS};
use crate::span::{self_seconds_by_name, Recorder, Span};
use crate::stats::{max, median, tail};
use papar_config::input::InputFormat;
use papar_config::{InputConfig, WorkflowConfig};
use papar_core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar_core::physplan::{self, FuseToggles};
use papar_core::plan::Planner;
use papar_mr::{CheckpointSession, Cluster, JobStats, RetryPolicy};
use papar_record::batch::{Batch, Dataset};
use papar_record::{codec, wire, Record, Schema};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What the pass produced: one value per per-layer metric, and how many
/// jobs it ran and verified along the way.
#[derive(Debug, Default)]
pub struct TracedOutcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl TracedOutcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn note(&mut self, what: &str, sample: &JobSample) {
        self.attempted += 1;
        if let Some(why) = &sample.failure {
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// How one mirrored job drives the engine.
struct MirrorOpts {
    threads: usize,
    trace: bool,
    fuse: bool,
    checkpoint: Option<PathBuf>,
}

/// Counts taken at the span boundaries of one mirrored job.
#[derive(Debug, Default, Clone)]
struct JobCounts {
    read_bytes: u64,
    decoded_bytes: u64,
    records_in: u64,
    records_out: u64,
    write_bytes: u64,
    physical_jobs: u64,
    map_busy_s: f64,
    reduce_busy_s: f64,
    sample_s: f64,
    reduce_skew: f64,
    pairs_shuffled: u64,
    shuffled_bytes: u64,
    staged_bytes: u64,
    materialized_bytes: u64,
    comm_model_s: f64,
    sim_makespan_s: f64,
}

fn engine_counts(counts: &mut JobCounts, report: &WorkflowReport) {
    let jobs: &[JobStats] = &report.jobs;
    let busy = |per_node: fn(&JobStats) -> &Vec<std::time::Duration>| -> Vec<f64> {
        (0..NODES)
            .map(|n| {
                jobs.iter()
                    .filter_map(|j| per_node(j).get(n))
                    .map(|d| d.as_secs_f64())
                    .sum()
            })
            .collect()
    };
    let map = busy(|j| &j.map_time_by_node);
    let reduce = busy(|j| &j.reduce_time_by_node);
    counts.map_busy_s = map.iter().sum();
    counts.reduce_busy_s = reduce.iter().sum();
    let mean = counts.reduce_busy_s / NODES as f64;
    counts.reduce_skew = if mean > 0.0 { max(&reduce) / mean } else { 1.0 };
    counts.sample_s = report.sample_time.as_secs_f64();
    counts.pairs_shuffled = jobs.iter().map(|j| j.pairs_shuffled).sum();
    counts.shuffled_bytes = report.total_shuffled_bytes();
    counts.staged_bytes = jobs.iter().map(|j| j.hot.staged_bytes).sum();
    counts.materialized_bytes = jobs.iter().map(|j| j.hot.materialized_bytes).sum();
    counts.comm_model_s = jobs.iter().map(|j| j.comm_time.as_secs_f64()).sum();
    counts.sim_makespan_s = report.total_sim_time().as_secs_f64();
}

/// One job, in-process, as `papar_cli::run` performs it — same calls, same
/// order, same ownership (what `run` moves, this moves; what it clones,
/// this clones) — with a span around each call. Everything the job
/// allocated is dropped inside `cli.teardown`, so the `job` span's self
/// time is only what no span explains.
fn mirror_job(
    rec: &mut Recorder,
    label: &str,
    input: &Input,
    out_dir: &Path,
    opts: &MirrorOpts,
) -> Result<JobCounts, String> {
    let _ = std::fs::remove_dir_all(out_dir);
    if let Some(dir) = &opts.checkpoint {
        let _ = std::fs::remove_dir_all(dir);
    }
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut counts = JobCounts::default();
    rec.set_job(label);
    let job = rec.begin("job");

    let s = rec.begin("config.parse");
    let cfg_text = std::fs::read_to_string(&input.input_config).map_err(|e| err(&e))?;
    let input_cfg = InputConfig::parse_str(&cfg_text).map_err(|e| err(&e))?;
    let wf_text = std::fs::read_to_string(&input.workflow).map_err(|e| err(&e))?;
    let workflow = WorkflowConfig::parse_str(&wf_text).map_err(|e| err(&e))?;
    rec.end(s);

    let mut args: HashMap<String, String> = input.args.iter().cloned().collect();
    for name in ["input_path", "input_file"] {
        if workflow.argument(name).is_some() {
            args.insert(name.to_string(), input.data.display().to_string());
        }
    }
    if workflow.argument("output_path").is_some() {
        args.insert("output_path".to_string(), out_dir.display().to_string());
    }
    let schema = Arc::new(Schema::from_input_config(&input_cfg));

    // `papar_serve::job::load_records`, opened up so that the file read and
    // the decode are separate spans.
    let records: Vec<Record> = match input_cfg.format {
        InputFormat::Binary => {
            let s = rec.begin("cli.read");
            let bytes = std::fs::read(&input.data).map_err(|e| err(&e))?;
            rec.end(s);
            let width = schema
                .binary_record_width()
                .ok_or("binary schema has variable-width fields")?;
            let start = input_cfg.start_position as usize;
            let region = match input.records {
                Some(n) => n * width,
                None => (bytes.len().saturating_sub(start)) / width * width,
            };
            let useful = bytes
                .get(..start + region)
                .ok_or("data file is shorter than its record region")?;
            counts.read_bytes = bytes.len() as u64;
            counts.decoded_bytes = useful.len() as u64;
            let s = rec.begin("record.decode");
            let records = codec::binary::read(&input_cfg, &schema, useful).map_err(|e| err(&e))?;
            rec.end(s);
            // Freeing the file buffer is part of what reading it whole costs.
            rec.span("cli.read", || drop(bytes));
            records
        }
        InputFormat::Text => {
            let s = rec.begin("cli.read");
            let text = std::fs::read_to_string(&input.data).map_err(|e| err(&e))?;
            rec.end(s);
            counts.read_bytes = text.len() as u64;
            counts.decoded_bytes = text.len() as u64;
            let s = rec.begin("record.decode");
            let records = codec::text::read(&input_cfg, &schema, &text).map_err(|e| err(&e))?;
            rec.end(s);
            rec.span("cli.read", || drop(text));
            records
        }
    };
    counts.records_in = records.len() as u64;

    let s = rec.begin("check.analyze");
    let ctx = papar_check::CheckContext {
        args: args.clone(),
        nodes: Some(NODES),
        replication: Some(0),
        records: Some(records.len()),
        ..Default::default()
    };
    let analysis = papar_check::analyze(&workflow, std::slice::from_ref(&input_cfg), &ctx);
    rec.end(s);
    if analysis.has_errors() {
        return Err(format!(
            "rejected by static analysis: {}",
            papar_check::render_text(&analysis.diagnostics)
        ));
    }

    let s = rec.begin("core.plan");
    let plan = Planner::new(workflow, vec![input_cfg.clone()])
        .bind(&args)
        .map_err(|e| err(&e))?;
    rec.end(s);
    let s = rec.begin("check.analyze");
    let divergences = papar_check::verify_plan(&analysis, &plan);
    rec.end(s);
    if !divergences.is_empty() {
        return Err(papar_check::render_text(&divergences));
    }
    let input_name = match plan.external_inputs.as_slice() {
        [(name, _)] => name.clone(),
        other => return Err(format!("{} external inputs, expected one", other.len())),
    };

    let exec_options = ExecOptions {
        threads: Some(opts.threads),
        trace: opts.trace,
        fuse: opts.fuse,
        ..ExecOptions::default()
    };
    let s = rec.begin("core.plan");
    let phys = physplan::lower_with(&plan, NODES, None, FuseToggles::from_flag(opts.fuse));
    rec.end(s);
    counts.physical_jobs = phys.stages.len() as u64;
    let s = rec.begin("check.analyze");
    let divergences = papar_check::verify_physical_plan(&plan, &phys, NODES, None);
    rec.end(s);
    if !divergences.is_empty() {
        return Err(papar_check::render_text(&divergences));
    }

    let mut runner = WorkflowRunner::with_options(plan, exec_options);
    if let Some(dir) = &opts.checkpoint {
        // The salt `papar run` derives from its (default) fault flags.
        let salt = format!(
            "faults={:?} seed={} replication={} max_retries={}",
            None::<String>, 0, 0, 3
        );
        runner = runner.with_checkpoint(dir, false, wire::checksum(salt.as_bytes()));
    }
    let s = rec.begin("mr.scatter");
    let mut cluster = Cluster::try_new(NODES)
        .map_err(|e| err(&e))?
        .with_replication(0)
        .with_retry(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        });
    runner
        .scatter_input(
            &mut cluster,
            &input_name,
            Dataset::new(schema.clone(), Batch::Flat(records)),
        )
        .map_err(|e| err(&e))?;
    rec.end(s);

    let s = rec.begin("core.run");
    let report = runner.run(&mut cluster).map_err(|e| err(&e))?;
    rec.end(s);
    engine_counts(&mut counts, &report);

    let s = rec.begin("cli.write");
    std::fs::create_dir_all(out_dir).map_err(|e| err(&e))?;
    rec.end(s);
    let s = rec.begin("mr.collect");
    let partitions = cluster
        .collect(&runner.plan().output_path)
        .map_err(|e| err(&e))?;
    rec.end(s);
    for (i, part) in partitions.iter().enumerate() {
        let s = rec.begin("record.encode");
        let records = part.batch.clone().flatten();
        let (name, bytes) = match input_cfg.format {
            InputFormat::Binary => (
                format!("partition_{i:04}.bin"),
                codec::binary::write(&input_cfg, &part.schema, &records, None)
                    .map_err(|e| err(&e))?,
            ),
            InputFormat::Text => (
                format!("partition_{i:04}.txt"),
                codec::text::write(&input_cfg, &part.schema, &records)
                    .map_err(|e| err(&e))?
                    .into_bytes(),
            ),
        };
        rec.end(s);
        counts.records_out += records.len() as u64;
        counts.write_bytes += bytes.len() as u64;
        let s = rec.begin("cli.write");
        std::fs::write(out_dir.join(name), &bytes).map_err(|e| err(&e))?;
        rec.end(s);
        rec.span("record.encode", || drop((records, bytes)));
    }

    rec.span("cli.teardown", || {
        drop(partitions);
        drop(report);
        drop(cluster);
        drop(runner);
        drop(analysis);
    });
    rec.end(job);
    input.verify(out_dir)?;
    Ok(counts)
}

/// Per-name self seconds of one mirrored job, plus the `job` span's total.
struct JobTimes {
    by_name: BTreeMap<String, f64>,
    job_s: f64,
}

impl JobTimes {
    /// Self time of all spans of this name in the job, seconds.
    fn self_s(&self, span: &str) -> f64 {
        self.by_name.get(span).copied().unwrap_or(0.0)
    }
}

fn job_times(spans: &[Span], label: &str) -> JobTimes {
    let job_s = spans
        .iter()
        .find(|s| s.job == label && s.name == "job")
        .map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
    JobTimes {
        by_name: self_seconds_by_name(spans, label),
        job_s,
    }
}

/// Median over `reps` runs of `measure`, which returns its own seconds so
/// each run can prepare fresh inputs off the clock.
fn median_of(reps: usize, mut measure: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let samples = (0..reps)
        .map(|_| measure())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&samples))
}

const KERNEL_REPS: usize = 3;

/// Run the traced pass for one workload. `dir` is the workload's scratch
/// directory; spans go to `rec`.
pub fn traced_pass(
    workload: Workload,
    input: &Input,
    scale: &Scale,
    papar: &Path,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<TracedOutcome, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut out = TracedOutcome::default();
    let name = workload.name();
    let out_dir = dir.join("out");
    let ckpt_dir = dir.join("ckpt");
    let durable = workload == Workload::BlastDurable;
    let opts = |threads: usize, trace: bool| MirrorOpts {
        threads,
        trace,
        fuse: !durable,
        checkpoint: durable.then(|| ckpt_dir.clone()),
    };
    let mirror = |rec: &mut Recorder, label: String, o: MirrorOpts, out: &mut TracedOutcome| {
        out.attempted += 1;
        match mirror_job(rec, &label, input, &out_dir, &o) {
            Ok(counts) => Some((job_times(rec.spans(), &label), counts)),
            Err(e) => {
                rec.close_open();
                out.failures.push(format!("{label}: {e}"));
                None
            }
        }
    };

    // ---- The mirrored job: one warm-up, then the measured iterations. The
    // two side measurements — the same job on one engine thread, and with
    // the program's own tracing on — take turns with them, so a slow phase
    // of the host lands on all three alike.
    mirror(
        rec,
        format!("{name}#warmup"),
        opts(THREADS, false),
        &mut out,
    );
    let side_iters = scale.traced_iters.min(3);
    let (mut runs, mut one_thread, mut traced_on) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..scale.traced_iters {
        runs.extend(mirror(
            rec,
            format!("{name}#{i}"),
            opts(THREADS, false),
            &mut out,
        ));
        if i < side_iters {
            one_thread.extend(mirror(
                rec,
                format!("{name}#t1-{i}"),
                opts(1, false),
                &mut out,
            ));
            traced_on.extend(mirror(
                rec,
                format!("{name}#trace-{i}"),
                opts(THREADS, true),
                &mut out,
            ));
        }
    }
    if runs.is_empty() || one_thread.is_empty() || traced_on.is_empty() {
        return Err(format!(
            "traced iterations of {name} failed: {:?}",
            out.failures
        ));
    }
    // Counts repeat exactly across iterations; the last is as good as any.
    let counts: JobCounts = runs[runs.len() - 1].1.clone();
    let median_by = |runs: &[(JobTimes, JobCounts)], f: &dyn Fn(&JobTimes, &JobCounts) -> f64| {
        median(&runs.iter().map(|(t, c)| f(t, c)).collect::<Vec<_>>())
    };
    let layer = |span: &str| median_by(&runs, &|t, _| t.self_s(span));
    let job_wall_s = median_by(&runs, &|t, _| t.job_s);

    out.set("config.parse_s", layer("config.parse"));
    out.set("cli.read_s", layer("cli.read"));
    out.set("cli.read_bytes", counts.read_bytes as f64);
    out.set(
        "cli.read_useful_ratio",
        counts.decoded_bytes as f64 / counts.read_bytes.max(1) as f64,
    );
    out.set("record.decode_s", layer("record.decode"));
    out.set(
        "record.decode_ns_per_rec",
        layer("record.decode") * 1e9 / counts.records_in.max(1) as f64,
    );
    out.set("check.analyze_s", layer("check.analyze"));
    out.set("core.plan_s", layer("core.plan"));
    out.set("mr.scatter_s", layer("mr.scatter"));
    let run_s = layer("core.run");
    out.set("core.run_s", run_s);
    out.set("core.jobs", counts.physical_jobs as f64);
    out.set("mr.map_busy_s", median_by(&runs, &|_, c| c.map_busy_s));
    out.set(
        "mr.reduce_busy_s",
        median_by(&runs, &|_, c| c.reduce_busy_s),
    );
    out.set("mr.sample_s", median_by(&runs, &|_, c| c.sample_s));
    out.set("mr.reduce_skew", median_by(&runs, &|_, c| c.reduce_skew));
    out.set("mr.pairs_shuffled", counts.pairs_shuffled as f64);
    out.set("mr.shuffled_bytes", counts.shuffled_bytes as f64);
    out.set("mr.staged_bytes", counts.staged_bytes as f64);
    out.set("mr.materialized_bytes", counts.materialized_bytes as f64);
    out.set("mr.comm_model_s", counts.comm_model_s);
    out.set("mr.collect_s", layer("mr.collect"));
    out.set("record.encode_s", layer("record.encode"));
    out.set(
        "record.encode_ns_per_rec",
        layer("record.encode") * 1e9 / counts.records_out.max(1) as f64,
    );
    out.set("cli.write_s", layer("cli.write"));
    out.set("cli.write_bytes", counts.write_bytes as f64);
    out.set("cli.teardown_s", layer("cli.teardown"));
    out.set("job.wall_s", job_wall_s);
    out.set(
        "job.unexplained_share",
        median_by(&runs, &|t, _| {
            t.self_s("job") / t.job_s.max(f64::MIN_POSITIVE)
        }),
    );

    // One engine thread: the single-threaded baseline, the simulated
    // makespan (paper Fig 13's y-axis), and the executor time the engine's
    // own timers do not see.
    let run_t1_s = median_by(&one_thread, &|t, _| t.self_s("core.run"));
    out.set("core.run_t1_s", run_t1_s);
    out.set(
        "core.thread_speedup",
        run_t1_s / run_s.max(f64::MIN_POSITIVE),
    );
    out.set(
        "core.run_glue_s",
        median_by(&one_thread, &|t, c| {
            t.self_s("core.run") - c.map_busy_s - c.reduce_busy_s - c.sample_s
        }),
    );
    out.set(
        "mr.sim_makespan_s",
        median_by(&one_thread, &|_, c| c.sim_makespan_s),
    );
    // What the program's own tracing costs (`--profile` / `--trace`).
    out.set(
        "trace.overhead_s",
        median_by(&traced_on, &|t, _| t.self_s("core.run")) - run_s,
    );

    kernels(input, &dir.join("kernel-ckpt"), rec, name, &mut out)?;
    spawned_probes(workload, input, scale, papar, dir, job_wall_s, &mut out)?;
    serve_probe(input, scale, papar, dir, &mut out)?;
    Ok(out)
}

/// Layer calls timed standalone on the workload's own decoded input.
fn kernels(
    input: &Input,
    ckpt_dir: &Path,
    rec: &mut Recorder,
    name: &str,
    out: &mut TracedOutcome,
) -> Result<(), String> {
    let (cfg, schema) = crate::fixture::load_config(&input.input_config)?;
    let records = papar_serve::job::load_records(&cfg, &schema, &input.data, input.records)?;
    let n = records.len().max(1) as f64;
    rec.set_job(format!("{name}#kernels"));
    let all = rec.begin("kernels");

    // The reduce-side sort kernel over keys packed the way the engine packs
    // them: key in the high half, scan index in the low half. Field 1 is
    // the sort/group key of both inputs (seq_size, vertex_b).
    let keys: Vec<u128> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let key = r.value(1).map_or(0, |v| match v.as_i64() {
                Some(k) => k as u64,
                None => v.stable_hash(),
            });
            (u128::from(key) << 64) | i as u128
        })
        .collect();
    let sort_s = median_of(KERNEL_REPS, || {
        let mut v = keys.clone();
        let s = rec.begin("sort.packed");
        papar_sort::packed::sort_packed(&mut v);
        rec.end(s);
        black_box(&v);
        Ok(rec.spans()[s].duration_ns() as f64 / 1e9)
    })?;
    out.set("sort.packed_ns_per_key", sort_s * 1e9 / n);
    drop(keys);

    let batch = Batch::Flat(records);
    let mut encoded = Vec::new();
    let encode_s = median_of(KERNEL_REPS, || {
        encoded = Vec::new();
        let s = rec.begin("record.wire_encode");
        wire::encode_batch(black_box(&batch), &schema, &mut encoded).map_err(|e| e.to_string())?;
        rec.end(s);
        Ok(rec.spans()[s].duration_ns() as f64 / 1e9)
    })?;
    out.set("record.wire_encode_ns_per_rec", encode_s * 1e9 / n);
    let decode_s = median_of(KERNEL_REPS, || {
        let s = rec.begin("record.wire_decode");
        let back = wire::decode_batch(&mut wire::Reader::new(black_box(&encoded)), &schema)
            .map_err(|e| e.to_string())?;
        rec.end(s);
        black_box(&back);
        Ok(rec.spans()[s].duration_ns() as f64 / 1e9)
    })?;
    out.set("record.wire_decode_ns_per_rec", decode_s * 1e9 / n);
    drop(batch);

    // An all-to-all of the encoded batch cut into NODES x NODES buffers.
    let cluster = Cluster::try_new(NODES).map_err(|e| e.to_string())?;
    let piece = encoded.len().div_ceil(NODES * NODES).max(1);
    let exchange_s = median_of(KERNEL_REPS, || {
        let mut pieces = encoded.chunks(piece).map(<[u8]>::to_vec);
        let outboxes: Vec<Vec<Vec<u8>>> = (0..NODES)
            .map(|_| {
                (0..NODES)
                    .map(|_| pieces.next().unwrap_or_default())
                    .collect()
            })
            .collect();
        let s = rec.begin("mr.exchange");
        let delivered = cluster.exchange(outboxes).map_err(|e| e.to_string())?;
        rec.end(s);
        black_box(&delivered);
        Ok(rec.spans()[s].duration_ns() as f64 / 1e9)
    })?;
    out.set("mr.exchange_s", exchange_s);

    // One durable stage commit of the encoded batch as PARTITIONS fragments.
    let piece = encoded.len().div_ceil(PARTITIONS).max(1);
    let commit_s = median_of(KERNEL_REPS, || {
        let _ = std::fs::remove_dir_all(ckpt_dir);
        let payloads: Vec<Vec<u8>> = encoded.chunks(piece).map(<[u8]>::to_vec).collect();
        let s = rec.begin("mr.checkpoint_commit");
        let mut session = CheckpointSession::create(ckpt_dir, 0).map_err(|e| e.to_string())?;
        for (i, payload) in payloads.into_iter().enumerate() {
            session.stage_fragment("kernel", (i % NODES) as u32, i as u32, payload);
        }
        session
            .commit_stage(0, "kernel", &JobStats::default())
            .map_err(|e| e.to_string())?;
        rec.end(s);
        Ok(rec.spans()[s].duration_ns() as f64 / 1e9)
    })?;
    out.set("mr.checkpoint_commit_s", commit_s);
    let _ = std::fs::remove_dir_all(ckpt_dir);
    rec.end(all);
    Ok(())
}

/// Fresh `papar run` children: the gap between the two passes, CPU per
/// job, and what `--checkpoint` / `--resume` cost on this input.
fn spawned_probes(
    workload: Workload,
    input: &Input,
    scale: &Scale,
    papar: &Path,
    dir: &Path,
    job_wall_s: f64,
    out: &mut TracedOutcome,
) -> Result<(), String> {
    let out_dir = dir.join("probe-out");
    let ckpt_dir = dir.join("probe-ckpt");
    let no_fuse = vec!["--no-fuse".to_string()];
    let with_ckpt = Workload::BlastDurable.run_flags(&ckpt_dir);
    let base_flags = workload.run_flags(&ckpt_dir);
    let base_is_ckpt = base_flags == with_ckpt;

    // Interleaved, so a slow phase of the host lands on every configuration.
    // The durable workload's own jobs *are* the checkpointed configuration.
    let mut configs: Vec<(&[String], Vec<JobSample>)> =
        vec![(&no_fuse, Vec::new()), (&with_ckpt, Vec::new())];
    if !base_is_ckpt {
        configs.push((&base_flags, Vec::new()));
    }
    for _ in 0..scale.probe_jobs {
        for (flags, samples) in &mut configs {
            if flags.iter().any(|f| f == "--checkpoint") {
                // A fresh run directory; the last one stays for `--resume`.
                let _ = std::fs::remove_dir_all(&ckpt_dir);
            }
            let sample = run_cli_job(papar, input, &out_dir, flags);
            out.note("probe", &sample);
            if sample.failure.is_none() {
                samples.push(sample);
            }
        }
    }
    let mut samples = configs.into_iter().map(|(_, s)| s);
    let plain = samples.next().unwrap_or_default();
    let durable = samples.next().unwrap_or_default();
    let base = samples.next().unwrap_or_else(|| durable.clone());
    if base.is_empty() || plain.is_empty() || durable.is_empty() {
        return Err(format!("spawned probes failed: {:?}", out.failures));
    }
    let walls = |s: &[JobSample]| s.iter().map(|j| j.wall_s).collect::<Vec<_>>();
    out.set(
        "cli.cpu_s",
        median(&base.iter().map(|j| j.cpu_s).collect::<Vec<_>>()),
    );
    out.set("cli.wall_tail_s", tail(&walls(&base)).1);
    out.set("cli.spawn_overhead_s", median(&walls(&base)) - job_wall_s);
    out.set(
        "mr.checkpoint_overhead_s",
        median(&walls(&durable)) - median(&walls(&plain)),
    );
    out.set("mr.checkpoint_bytes", dir_bytes(&ckpt_dir) as f64);

    // `--resume` on the completed run directory: the read side of the
    // files the last durable job published.
    let resume_flags = vec![
        "--no-fuse".to_string(),
        "--resume".to_string(),
        ckpt_dir.display().to_string(),
    ];
    let mut resumes = Vec::new();
    for _ in 0..scale.probe_jobs.min(3) {
        let sample = run_cli_job(papar, input, &out_dir, &resume_flags);
        out.note("resume probe", &sample);
        if sample.failure.is_none() {
            resumes.push(sample.wall_s);
        }
    }
    if resumes.is_empty() {
        return Err(format!("resume probes failed: {:?}", out.failures));
    }
    out.set("core.resume_s", median(&resumes));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    Ok(())
}

/// The served path on this input: cold first requests of fresh daemons,
/// warm requests of the last one, and the daemon's executor without the
/// socket.
fn serve_probe(
    input: &Input,
    scale: &Scale,
    papar: &Path,
    dir: &Path,
    out: &mut TracedOutcome,
) -> Result<(), String> {
    let out_dir = dir.join("serve-out");
    let socket = dir.join("probe.sock");
    let mut cold = Vec::new();
    let mut resident = None;
    for _ in 0..scale.probe_jobs {
        if let Some(previous) = resident.take() {
            Daemon::shutdown(previous)?;
        }
        let daemon = Daemon::start(papar, &socket)?;
        let (sample, detail) = daemon.request(input, &out_dir);
        out.note("cold request", &sample);
        if sample.failure.is_none() && !detail.warm {
            cold.push(sample.wall_s);
        }
        resident = Some(daemon);
    }
    let daemon = resident.ok_or("no daemon was started")?;
    let before = daemon.ping()?;
    let (mut warm, mut execute, mut connect) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..scale.probe_jobs {
        let (sample, detail) = daemon.request(input, &out_dir);
        out.note("warm request", &sample);
        if sample.failure.is_none() {
            warm.push(sample.wall_s);
            execute.push(detail.execute_s);
            connect.push(detail.connect_s);
        }
    }
    let after = daemon.ping()?;
    daemon.shutdown()?;
    if cold.is_empty() || warm.is_empty() {
        return Err(format!("serve probes failed: {:?}", out.failures));
    }
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    out.set("serve.execute_s", median(&execute));
    out.set("serve.overhead_s", median(&warm) - median(&execute));
    out.set("serve.connect_s", median(&connect));
    out.set(
        "serve.plan_hit_ratio",
        ratio(
            after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses,
        ),
    );
    out.set(
        "serve.data_hit_ratio",
        ratio(
            after.data_hits - before.data_hits,
            after.data_misses - before.data_misses,
        ),
    );
    out.set("serve.cold_wall_s", median(&cold));
    out.set("serve.warm_over_cold", median(&warm) / median(&cold));
    out.set("serve.wall_tail_s", tail(&warm).1);

    // The daemon's executor called directly on warm resources: what a
    // request costs with no socket, queue or reply around it.
    let spec = Daemon::job_spec(input, &out_dir);
    let mut resources = papar_serve::job::Resources::new(16, 8, THREADS);
    papar_serve::job::execute(&spec, &mut resources)?;
    let direct_s = median_of(KERNEL_REPS, || {
        let _ = std::fs::remove_dir_all(&out_dir);
        let t0 = Instant::now();
        papar_serve::job::execute(&spec, &mut resources)?;
        let secs = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        if let Err(e) = input.verify(&out_dir) {
            out.failures.push(format!("direct execute: {e}"));
        }
        Ok(secs)
    })?;
    out.set("serve.execute_direct_s", direct_s);
    let _ = std::fs::remove_dir_all(&out_dir);
    Ok(())
}
