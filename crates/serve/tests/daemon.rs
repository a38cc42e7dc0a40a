//! End-to-end daemon tests, in process: a real `Server` on a loopback
//! TCP socket, real clients on real sockets, real workloads through the
//! real engine. Verifies the acceptance properties the protocol/queue
//! unit tests cannot: byte-identity of served partitions with a
//! fresh-state run across thread counts, the plan/data caches actually
//! eliding work on a repeated submit, typed errors over the wire, and a
//! clean drain on shutdown.

use mublastp::dbgen::DbSpec;
use papar_serve::job::{self, Resources};
use papar_serve::protocol::{CacheOutcome, JobSpec, JobStateKind};
use papar_serve::{Client, Endpoint, ServeError, ServeOptions, Server};
use std::path::{Path, PathBuf};

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

/// A scratch dir with the configs and a generated 400-record database.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("papar-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("blast_db.xml"), INPUT_CFG).unwrap();
    std::fs::write(dir.join("wf.xml"), WORKFLOW).unwrap();
    let db = DbSpec::env_nr_scaled(400, 11).generate();
    std::fs::write(dir.join("env_nr.db"), db.to_bytes()).unwrap();
    dir
}

fn spec(dir: &Path, out: &str, threads: Option<u32>) -> JobSpec {
    JobSpec {
        input_config: dir.join("blast_db.xml").display().to_string(),
        workflow: dir.join("wf.xml").display().to_string(),
        data: dir.join("env_nr.db").display().to_string(),
        out_dir: dir.join(out).display().to_string(),
        nodes: 3,
        args: vec![("num_partitions".into(), "4".into())],
        records: Some(400),
        threads,
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
    assert_eq!(names.len(), 4, "expected 4 partitions in {}", dir.display());
    names.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

/// Start a daemon on a fresh loopback port; returns its endpoint and
/// the thread running it.
fn start(opts_queue: usize) -> (Endpoint, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeOptions {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        queue_capacity: opts_queue,
        ..ServeOptions::default()
    })
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (endpoint, handle)
}

#[test]
fn served_jobs_match_fresh_state_execution_across_threads_and_hit_caches() {
    let dir = fixture("bytes");

    // The reference: the same pipeline on throwaway resources (exactly
    // what one-shot `papar run` does — the CI `serve` job additionally
    // `cmp`s against the real binary).
    let mut fresh = Resources::new(4, 4, 1);
    job::execute(&spec(&dir, "oneshot", Some(1)), &mut fresh).expect("fresh run");
    let reference = partition_bytes(&dir.join("oneshot"));

    let (endpoint, server) = start(8);
    let mut client = Client::connect(&endpoint).unwrap();

    // Cold submit, then warm resubmits across thread counts: all byte-
    // identical, and the warm ones must report plan+data cache hits.
    let outs = [
        ("t1-cold", Some(1)),
        ("t1-warm", Some(1)),
        ("t4-warm", Some(4)),
    ];
    for (i, (out, threads)) in outs.iter().enumerate() {
        let (id, _) = client.submit(spec(&dir, out, *threads)).unwrap();
        let report = client.wait(id).unwrap();
        assert_eq!(
            report.state,
            JobStateKind::Done,
            "job {out}: {}",
            report.detail
        );
        assert_eq!(partition_bytes(&dir.join(out)), reference, "{out} diverged");
        assert_ne!(report.plan_fingerprint, 0);
        if i == 0 {
            assert_eq!(report.plan_cache, CacheOutcome::Miss);
            assert_eq!(report.data_cache, CacheOutcome::Miss);
        } else {
            // Same spec (out dir differs → same data, different plan
            // args): data must hit. Plan hits only for identical specs,
            // checked below with a true resubmit.
            assert_eq!(report.data_cache, CacheOutcome::Hit, "{out}");
        }
        assert!(report.detail.contains("cache"), "{}", report.detail);
    }

    // A true resubmit (identical spec, same out dir) elides planning:
    // `papar status` must say so, and the daemon counters must agree.
    let (id, _) = client.submit(spec(&dir, "t1-warm", Some(1))).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, JobStateKind::Done, "{}", report.detail);
    assert_eq!(report.plan_cache, CacheOutcome::Hit);
    assert!(
        report.detail.contains("cache hit"),
        "status detail must surface the hit:\n{}",
        report.detail
    );
    let stats = client.ping().unwrap();
    assert_eq!(stats.jobs_done, 4);
    assert!(stats.plan_hits >= 1, "{stats:?}");
    assert!(stats.data_hits >= 3, "{stats:?}");
    assert!(stats.plans_cached >= 1, "{stats:?}");

    // Status for a job the daemon never issued: typed, not a hangup.
    assert_eq!(
        client.status(10_000).unwrap_err(),
        ServeError::UnknownJob { id: 10_000 }
    );

    // Clean shutdown via the protocol; the server thread must return.
    client.shutdown().unwrap();
    server.join().expect("server thread exits cleanly");
    // And the daemon refuses connections afterwards.
    assert!(
        Client::connect(&endpoint).is_err() || {
            // The listener may linger a beat; a request must fail either way.
            Client::connect(&endpoint)
                .and_then(|mut c| c.ping())
                .is_err()
        }
    );
}

#[test]
fn failed_jobs_report_typed_failure_not_a_dead_daemon() {
    let dir = fixture("fail");
    let (endpoint, server) = start(4);
    let mut client = Client::connect(&endpoint).unwrap();

    // Data file that does not exist: the job fails, the daemon lives.
    let mut bad = spec(&dir, "nope", Some(1));
    bad.data = dir.join("missing.db").display().to_string();
    let (id, _) = client.submit(bad).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, JobStateKind::Failed);
    assert!(report.detail.contains("missing.db"), "{}", report.detail);

    // The daemon still serves: a good job right after succeeds.
    let (id, _) = client.submit(spec(&dir, "after", Some(1))).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, JobStateKind::Done, "{}", report.detail);
    let stats = client.ping().unwrap();
    assert_eq!((stats.jobs_done, stats.jobs_failed), (1, 1));

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A served job binds through the same analysis as `papar run`: an
/// argument with no value fails the job with the run's coded line, at the
/// argument's declaration, and the daemon serves on.
#[test]
fn a_missing_argument_value_fails_the_job_with_a_coded_error() {
    let dir = fixture("missing-arg");
    let (endpoint, server) = start(4);
    let mut client = Client::connect(&endpoint).unwrap();

    let mut bad = spec(&dir, "unbound", Some(1));
    bad.args.clear();
    let (id, _) = client.submit(bad).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, JobStateKind::Failed, "{}", report.detail);
    let off = WORKFLOW.find(r#"<param name="num_partitions""#).unwrap();
    let line = WORKFLOW[..off].matches('\n').count() + 1;
    let col = off - WORKFLOW[..off].rfind('\n').map_or(0, |p| p + 1) + 1;
    let expected = format!(
        "error[P001]: workflow:{line}:{col}: argument 'num_partitions' has no value \
         (pass it at launch or set a default)"
    );
    assert!(
        report.detail.lines().any(|l| l.trim_start() == expected),
        "{}",
        report.detail
    );
    assert!(!dir.join("unbound").exists(), "nothing may be partitioned");

    let (id, _) = client.submit(spec(&dir, "after", Some(1))).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, JobStateKind::Done, "{}", report.detail);

    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A record count whose byte bound overflows `usize` arrives in a
/// well-formed frame; it must fail that one job with the loader's typed
/// message — not wrap to a one-record read, not take the worker down.
#[test]
fn overflowing_record_count_fails_the_job_and_the_daemon_serves_on() {
    let dir = fixture("records-overflow");
    let (endpoint, server) = start(4);
    let mut client = Client::connect(&endpoint).unwrap();

    let mut bad = spec(&dir, "wrapped", Some(1));
    bad.records = Some((1 << 60) + 1);
    let (id, _) = client.submit(bad).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, JobStateKind::Failed, "{}", report.detail);
    assert!(
        report.detail.contains("bytes after the header"),
        "{}",
        report.detail
    );
    assert!(!dir.join("wrapped").exists(), "nothing may be partitioned");

    let (id, _) = client.submit(spec(&dir, "after", Some(1))).unwrap();
    let report = client.wait(id).unwrap();
    assert_eq!(report.state, JobStateKind::Done, "{}", report.detail);
    assert_eq!(partition_bytes(&dir.join("after")).len(), 4);

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn malformed_frames_get_a_typed_answer_then_a_hangup() {
    use std::io::{Read, Write};
    let (endpoint, server) = start(4);
    let addr = match &endpoint {
        Endpoint::Tcp(a) => a.clone(),
        other => panic!("expected tcp endpoint, got {other}"),
    };

    // Raw garbage: claims a 5-byte payload, sends junk with a wrong
    // checksum. The daemon answers one typed error frame and hangs up —
    // it must NOT die.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    let mut junk = Vec::new();
    junk.extend_from_slice(&5u32.to_le_bytes());
    junk.extend_from_slice(&0xBAD0_BAD0_BAD0_BAD0u64.to_le_bytes());
    junk.extend_from_slice(b"junk!");
    raw.write_all(&junk).unwrap();
    raw.flush().unwrap();
    let answer = papar_serve::protocol::read_frame(&mut raw)
        .expect("typed answer frame")
        .expect("not EOF");
    match papar_serve::protocol::Response::decode(&answer).unwrap() {
        papar_serve::protocol::Response::Err(ServeError::BadFrame { detail }) => {
            assert!(detail.contains("checksum"), "{detail}");
        }
        other => panic!("expected BadFrame answer, got {other:?}"),
    }
    // Connection is closed after the answer.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // A fresh, well-formed client still works on the same daemon.
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn queue_overflow_is_refused_typed_and_the_daemon_survives() {
    let dir = fixture("overflow");
    let (endpoint, server) = start(1);
    let mut client = Client::connect(&endpoint).unwrap();

    // Capacity 1: the first (possibly already running) job occupies the
    // only slot; keep submitting until admission control answers. With
    // jobs taking ~a second, the second immediate submit must be
    // refused.
    let (first, _) = client.submit(spec(&dir, "q0", Some(1))).unwrap();
    let mut refused = false;
    for i in 0..50 {
        match client.submit(spec(&dir, &format!("q{}", i + 1), Some(1))) {
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                refused = true;
                break;
            }
            Ok(_) => continue, // a slot freed between submits; try again
            Err(other) => panic!("expected QueueFull, got {other}"),
        }
    }
    assert!(refused, "admission control never engaged");

    // The refused submit cost nothing: the first job still completes.
    let report = client.wait(first).unwrap();
    assert_eq!(report.state, JobStateKind::Done, "{}", report.detail);

    client.shutdown().unwrap();
    server.join().unwrap();
}
