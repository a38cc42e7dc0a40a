//! Resident-daemon serving: cold vs warm request latency through a real
//! in-process `papar-serve` daemon on a loopback socket.
//!
//! The first submission of a workflow pays the whole one-shot pipeline —
//! parse the XML documents, run the static-analysis gate, bind/verify/
//! lower the plan, read and decode the input file. Every identical
//! resubmission should pay none of it: the daemon's plan cache (keyed by
//! the plan fingerprint) and data cache (keyed by path + size + mtime)
//! elide that work, and only the engine run remains. This experiment
//! measures that gap end-to-end — client socket to client socket — and
//! asserts the cached path stays byte-identical to the cold one. Besides
//! the console table the experiment writes `BENCH_serve.json`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use papar_serve::protocol::{CacheOutcome, DaemonStats, Endpoint, JobSpec, JobStateKind};
use papar_serve::{Client, ServeOptions, Server};

use crate::datasets::Scale;
use crate::measure;
use crate::report::{fmt_dur, fmt_ratio, Table};
use crate::workflows::{blast_workflow, BLAST_INPUT_CFG};

/// Nodes in the simulated cluster.
pub const NODES: u32 = 4;

/// Partitions produced by each run.
pub const PARTITIONS: usize = 8;

/// Where the machine-readable results land, relative to the working
/// directory.
pub const JSON_PATH: &str = "BENCH_serve.json";

/// The measured serving profile.
#[derive(Debug, Clone)]
pub struct ServingRun {
    /// Mean end-to-end latency of a cache-cold submission (each sample
    /// taken as the first request of a freshly started daemon).
    pub cold: Duration,
    /// Mean end-to-end latency of the warm resubmissions.
    pub warm: Duration,
    /// Samples per phase (the paper's five-run protocol).
    pub warm_runs: usize,
    /// Plan compilations elided by the fingerprint cache.
    pub plans_elided: u64,
    /// Input decodes elided by the data cache.
    pub loads_elided: u64,
    /// Jobs the daemon completed.
    pub jobs_done: u64,
    /// Whether warm partitions matched the cold ones byte-for-byte.
    pub identical: bool,
}

impl ServingRun {
    /// How much faster a warm request is served.
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(f64::EPSILON)
    }
}

fn fixture(scale: &Scale) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("papar-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("blast_db.xml"), BLAST_INPUT_CFG).unwrap();
    std::fs::write(dir.join("wf.xml"), blast_workflow("roundRobin")).unwrap();
    let sequences = (scale.env_nr_sequences / 4).max(1000);
    let db = mublastp::dbgen::DbSpec::env_nr_scaled(sequences, 4242).generate();
    std::fs::write(dir.join("env_nr.db"), db.to_bytes()).unwrap();
    dir
}

fn spec(dir: &Path) -> JobSpec {
    JobSpec {
        input_config: dir.join("blast_db.xml").display().to_string(),
        workflow: dir.join("wf.xml").display().to_string(),
        data: dir.join("env_nr.db").display().to_string(),
        out_dir: dir.join("out").display().to_string(),
        nodes: NODES,
        args: vec![("num_partitions".into(), PARTITIONS.to_string())],
        records: None,
        threads: Some(1),
        no_fuse: false,
        adaptive: false,
    }
}

fn partition_bytes(dir: &Path) -> Vec<Vec<u8>> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    names.sort();
    names.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

/// Submit the spec and wait for it; returns the end-to-end latency and
/// the cache outcomes the daemon reported.
fn timed_submit(client: &mut Client, spec: &JobSpec) -> (Duration, CacheOutcome, CacheOutcome) {
    let t0 = Instant::now();
    let (id, _) = client.submit(spec.clone()).expect("submit");
    let report = client.wait(id).expect("wait");
    let elapsed = t0.elapsed();
    assert_eq!(
        report.state,
        JobStateKind::Done,
        "job failed: {}",
        report.detail
    );
    (elapsed, report.plan_cache, report.data_cache)
}

fn start_daemon() -> (Client, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeOptions {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        ..ServeOptions::default()
    })
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (Client::connect(&endpoint).expect("connect"), handle)
}

/// Run the cold/warm measurement. Each cold sample is the first request
/// of a freshly started daemon (empty caches); the warm samples are
/// resubmissions to the last of them.
pub fn serving_run(scale: &Scale) -> (ServingRun, DaemonStats) {
    let dir = fixture(scale);
    let job = spec(&dir);

    let mut reference: Vec<Vec<u8>> = Vec::new();
    let mut survivor: Option<(Client, std::thread::JoinHandle<()>)> = None;
    let cold = measure::avg_of(|| {
        if let Some((mut client, handle)) = survivor.take() {
            client.shutdown().expect("shutdown");
            handle.join().expect("daemon exits cleanly");
        }
        let (mut client, handle) = start_daemon();
        let (t, plan, data) = timed_submit(&mut client, &job);
        assert_eq!(plan, CacheOutcome::Miss, "first submit must compile");
        assert_eq!(data, CacheOutcome::Miss, "first submit must read the file");
        reference = partition_bytes(&dir.join("out"));
        survivor = Some((client, handle));
        t
    });
    assert_eq!(reference.len(), PARTITIONS);

    let (mut client, handle) = survivor.take().expect("a surviving daemon");
    let warm = measure::avg_of(|| {
        let (t, plan, data) = timed_submit(&mut client, &job);
        assert_eq!(plan, CacheOutcome::Hit, "resubmit must skip planning");
        assert_eq!(data, CacheOutcome::Hit, "resubmit must skip the read");
        t
    });
    let identical = partition_bytes(&dir.join("out")) == reference;

    let stats = client.ping().expect("ping");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits cleanly");

    (
        ServingRun {
            cold,
            warm,
            warm_runs: measure::RUNS,
            plans_elided: stats.plan_hits,
            loads_elided: stats.data_hits,
            jobs_done: stats.jobs_done,
            identical,
        },
        stats,
    )
}

/// Serialize the measurement as the `BENCH_serve.json` document.
pub fn to_json(run: &ServingRun, stats: &DaemonStats) -> String {
    format!(
        "{{\n  \"experiment\": \"resident-daemon-serving\",\n  \
         \"nodes\": {NODES},\n  \"partitions\": {PARTITIONS},\n  \
         \"cold_ms\": {:.3},\n  \"warm_ms\": {:.3},\n  \
         \"warm_runs\": {},\n  \"speedup\": {:.3},\n  \
         \"plans_elided\": {},\n  \"loads_elided\": {},\n  \
         \"plans_resident\": {},\n  \"jobs_done\": {},\n  \
         \"jobs_failed\": {},\n  \"identical\": {}\n}}\n",
        run.cold.as_secs_f64() * 1e3,
        run.warm.as_secs_f64() * 1e3,
        run.warm_runs,
        run.speedup(),
        run.plans_elided,
        run.loads_elided,
        stats.plans_cached,
        run.jobs_done,
        stats.jobs_failed,
        run.identical,
    )
}

/// Render the serving table and write [`JSON_PATH`]. Fails the bench if
/// a warm request misses either cache or the cached path changes the
/// output bytes.
pub fn run(scale: &Scale) -> Table {
    let (r, stats) = serving_run(scale);
    let mut t = Table::new(
        "papar serve: cold vs warm request latency (fig. 8 workflow)",
        &["request", "latency", "plan", "data"],
    );
    t.row(vec![
        "cold (first submit)".to_string(),
        fmt_dur(r.cold),
        "compiled".to_string(),
        "read from disk".to_string(),
    ]);
    t.row(vec![
        format!("warm (mean of {})", r.warm_runs),
        fmt_dur(r.warm),
        "cache hit".to_string(),
        "cache hit".to_string(),
    ]);
    assert!(r.identical, "warm requests changed the output bytes");
    assert_eq!(
        r.jobs_done,
        1 + r.warm_runs as u64,
        "every submit must complete"
    );
    assert!(
        r.plans_elided >= r.warm_runs as u64,
        "every warm submit must skip planning"
    );
    t.note(format!(
        "cold/warm latency ratio {}; {} plan compilations and {} input decodes \
         elided on the resident daemon (all byte-identical to the cold run)",
        fmt_ratio(r.speedup()),
        r.plans_elided,
        r.loads_elided,
    ));
    t.note(format!(
        "each phase is client-measured end to end (socket to socket, queue \
         included) and averaged over {} samples; every cold sample is the \
         first request of a fresh daemon",
        measure::RUNS
    ));
    match std::fs::write(JSON_PATH, to_json(&r, &stats)) {
        Ok(()) => t.note(format!("machine-readable results written to {JSON_PATH}")),
        Err(e) => t.note(format!("could not write {JSON_PATH}: {e}")),
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_requests_hit_both_caches_and_stay_identical() {
        let (r, stats) = serving_run(&Scale::quick());
        assert!(r.identical);
        assert_eq!(r.jobs_done, 1 + r.warm_runs as u64);
        assert!(r.plans_elided >= r.warm_runs as u64, "{stats:?}");
        assert!(r.loads_elided >= r.warm_runs as u64, "{stats:?}");
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let run = ServingRun {
            cold: Duration::from_millis(80),
            warm: Duration::from_millis(20),
            warm_runs: 5,
            plans_elided: 5,
            loads_elided: 5,
            jobs_done: 6,
            identical: true,
        };
        let stats = DaemonStats::default();
        let json = to_json(&run, &stats);
        assert!(json.contains("\"resident-daemon-serving\""));
        assert!(json.contains("\"speedup\": 4.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
