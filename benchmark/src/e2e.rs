//! The end-to-end pass: the program untouched, driven only through
//! `papar` CLI flags and `papar_serve::Client`, one job in flight at a
//! time. A job is timed as its user sees it; its output is checked after
//! the clock stops.

use crate::fixture::{Input, Workload, NODES, THREADS};
use papar_serve::protocol::{CacheOutcome, DaemonStats, Endpoint, JobSpec, JobStateKind};
use papar_serve::Client;
use std::cell::Cell;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment of every spawned `papar`: glibc's mmap threshold frozen at
/// its default of 128 KiB. Left alone the threshold adapts to the sizes
/// the program frees, and where it ends up depends on the input: peak RSS
/// of one workload then lands anywhere between 244 and 323 MiB across
/// seeds with no difference in what the program allocated. Frozen, it is
/// 266-275 MiB on every seed and wall time is unchanged (README, "Noise").
const CHILD_ENV: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "131072");

/// What one job cost its user.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    /// Spawn → exit of `papar run`, or connect → `Done` of a served request.
    pub wall_s: f64,
    /// User + system CPU of the job process (0 for a served request).
    pub cpu_s: f64,
    /// Peak RSS of the job process in MiB; for a served request, the
    /// daemon's peak while it served it.
    pub rss_mb: f64,
    /// Sum of the `N bytes shuffled` the program reports per engine job.
    pub shuffled_bytes: u64,
    /// Why the job counts as failed, if it does.
    pub failure: Option<String>,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, `ru_maxrss`, then
/// thirteen more longs this harness does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `child` with `wait4(2)`: its exit status plus the CPU time and
/// peak RSS the kernel accounted to it. std's `Child::wait` discards those.
fn reap(child: Child) -> Result<(bool, f64, f64), String> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are valid for writes for the duration of
    // the call and `Rusage` has the layout of the platform's `struct rusage`
    // (x86_64/aarch64 Linux: 144 bytes, all 8-byte fields). The pid is a
    // child of this process that nothing else waits for: `child` is consumed
    // here and std never reaps a `Child` on drop.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if reaped != child.id() as i32 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    // WIFEXITED && WEXITSTATUS == 0
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((
        ok,
        secs(usage.utime) + secs(usage.stime),
        usage.maxrss_kb as f64 / 1024.0,
    ))
}

/// A `papar` child with the environment every job and daemon runs in.
fn papar_command(papar: &Path) -> Command {
    let mut cmd = Command::new(papar);
    cmd.env(CHILD_ENV.0, CHILD_ENV.1).stdin(Stdio::null());
    cmd
}

/// The `papar run` arguments of a job over `input` writing to `out_dir`.
fn run_args(input: &Input, out_dir: &Path, extra: &[String]) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "run".into(),
        "--input-config".into(),
        input.input_config.display().to_string(),
        "--workflow".into(),
        input.workflow.display().to_string(),
        "--data".into(),
        input.data.display().to_string(),
        "--out".into(),
        out_dir.display().to_string(),
        "--nodes".into(),
        NODES.to_string(),
        "--threads".into(),
        THREADS.to_string(),
    ];
    for (k, v) in &input.args {
        args.push("--arg".into());
        args.push(format!("{k}={v}"));
    }
    if let Some(n) = input.records {
        args.push("--records".into());
        args.push(n.to_string());
    }
    args.extend_from_slice(extra);
    args
}

/// Run one fresh `papar run` child to completion and verify its output.
/// The output directory is removed first so every file checked was
/// written by this job; removal and verification are outside the clock.
pub fn run_cli_job(papar: &Path, input: &Input, out_dir: &Path, extra: &[String]) -> JobSample {
    let _ = std::fs::remove_dir_all(out_dir);
    let stderr_path = out_dir.with_extension("stderr");
    let sample = (|| -> Result<JobSample, String> {
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("cannot create {}: {e}", stderr_path.display()))?;
        let started = Instant::now();
        let mut child = papar_command(papar)
            .args(run_args(input, out_dir, extra))
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", papar.display()))?;
        // The summary is a few hundred bytes; reading it to the end returns
        // when the child closes stdout, i.e. at exit.
        let mut summary = String::new();
        let read = child
            .stdout
            .take()
            .expect("stdout was piped")
            .read_to_string(&mut summary);
        let (ok, cpu_s, rss_mb) = reap(child)?;
        let wall_s = started.elapsed().as_secs_f64();
        read.map_err(|e| format!("cannot read the job's stdout: {e}"))?;
        if !ok {
            let err = std::fs::read_to_string(&stderr_path).unwrap_or_default();
            return Err(format!("papar run exited non-zero: {}", err.trim()));
        }
        let shuffled_bytes = parse_shuffled_bytes(&summary)
            .ok_or_else(|| "papar run printed no 'bytes shuffled' line".to_string())?;
        input.verify(out_dir)?;
        Ok(JobSample {
            wall_s,
            cpu_s,
            rss_mb,
            shuffled_bytes,
            failure: None,
        })
    })();
    sample.unwrap_or_else(|e| JobSample {
        failure: Some(e),
        ..JobSample::default()
    })
}

/// Sum of every `job '<id>': <time> simulated, <N> bytes shuffled` line of
/// a run summary (`papar run`'s stdout, or a served job's report detail).
/// `None` when there is no such line: the summary format drifted.
pub fn parse_shuffled_bytes(summary: &str) -> Option<u64> {
    let mut total = None;
    for line in summary.lines() {
        let Some(head) = line.strip_suffix(" bytes shuffled") else {
            continue;
        };
        if !line.starts_with("job '") {
            continue;
        }
        let n: u64 = head.rsplit(' ').next()?.parse().ok()?;
        total = Some(total.unwrap_or(0) + n);
    }
    total
}

/// One resident `papar serve` child on a Unix socket. Dropping it without
/// [`Daemon::shutdown`] kills the child, so a failing run leaves nothing
/// behind.
pub struct Daemon {
    child: Option<Child>,
    endpoint: Endpoint,
}

impl Daemon {
    /// Spawn the daemon and wait until it accepts connections.
    pub fn start(papar: &Path, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = papar_command(papar)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .env("PAPAR_THREADS", THREADS.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn papar serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            endpoint: Endpoint::Unix(socket.to_path_buf()),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = Client::connect(&daemon.endpoint) {
                if client.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok())
                .flatten();
            if exited.is_some() || Instant::now() > deadline {
                return Err(format!(
                    "papar serve did not come up on {}",
                    socket.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The job over `input`, as a submit carries it.
    pub fn job_spec(input: &Input, out_dir: &Path) -> JobSpec {
        JobSpec {
            input_config: input.input_config.display().to_string(),
            workflow: input.workflow.display().to_string(),
            data: input.data.display().to_string(),
            out_dir: out_dir.display().to_string(),
            nodes: NODES as u32,
            args: input.args.clone(),
            records: input.records.map(|n| n as u64),
            threads: Some(THREADS as u32),
            ..JobSpec::default()
        }
    }

    /// One closed-loop request: connect → submit → wait, timed from before
    /// the connect to the `Done` reply, then verified. Also returns the
    /// connect time, the daemon's own execute time and whether both caches
    /// hit.
    pub fn request(&self, input: &Input, out_dir: &Path) -> (JobSample, ServedDetail) {
        let _ = std::fs::remove_dir_all(out_dir);
        let spec = Daemon::job_spec(input, out_dir);
        let mut detail = ServedDetail::default();
        // Reset the daemon's RSS high-water mark, so that what is read after
        // the reply is this request's peak and not the worst of all so far.
        // (If the kernel refuses, the mark just keeps rising.)
        let _ = std::fs::write(format!("/proc/{}/clear_refs", self.pid()), "5");
        let sample = (|| -> Result<JobSample, String> {
            let started = Instant::now();
            let mut client = Client::connect(&self.endpoint).map_err(|e| e.to_string())?;
            detail.connect_s = started.elapsed().as_secs_f64();
            let (id, _) = client.submit(spec).map_err(|e| format!("refused: {e}"))?;
            let report = client.wait(id).map_err(|e| e.to_string())?;
            let wall_s = started.elapsed().as_secs_f64();
            if report.state != JobStateKind::Done {
                return Err(format!("served job failed: {}", report.detail.trim()));
            }
            detail.execute_s = report.wall_ms as f64 / 1e3;
            detail.warm =
                report.plan_cache == CacheOutcome::Hit && report.data_cache == CacheOutcome::Hit;
            let shuffled_bytes = parse_shuffled_bytes(&report.detail)
                .ok_or_else(|| "job report has no 'bytes shuffled' line".to_string())?;
            input.verify(out_dir)?;
            Ok(JobSample {
                wall_s,
                rss_mb: self.peak_rss_mb()?,
                shuffled_bytes,
                ..JobSample::default()
            })
        })();
        let sample = sample.unwrap_or_else(|e| JobSample {
            failure: Some(e),
            ..JobSample::default()
        });
        (sample, detail)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// The daemon's lifetime counters.
    pub fn ping(&self) -> Result<DaemonStats, String> {
        Client::connect(&self.endpoint)
            .and_then(|mut c| c.ping())
            .map_err(|e| e.to_string())
    }

    /// Peak RSS of the daemon since the mark was last reset, MiB (`VmHWM`
    /// of `/proc/<pid>/status`).
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.pid();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
    }

    /// Ask the daemon to drain and exit, and wait until it has.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.endpoint).and_then(|mut c| c.shutdown());
        let mut child = self.child.take().expect("daemon is running");
        if let Err(e) = asked {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not take the shutdown: {e}"));
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("papar serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The parts of a served request only the served path has.
#[derive(Debug, Clone, Default)]
pub struct ServedDetail {
    pub connect_s: f64,
    /// `JobReport.wall_ms`: the daemon's own stopwatch around the job.
    pub execute_s: f64,
    /// Plan cache and data cache both hit.
    pub warm: bool,
}

/// Everything one workload's end-to-end jobs need between them: where its
/// outputs go and, for the served workload, the resident daemon.
pub struct Runner {
    pub workload: Workload,
    papar: PathBuf,
    out_dir: PathBuf,
    checkpoint_dir: PathBuf,
    daemon: Option<Daemon>,
    /// Requests the daemon has answered; all but the first must be warm.
    served: Cell<u64>,
}

impl Runner {
    /// Prepare `workload` (starts the daemon of the served workload).
    pub fn start(workload: Workload, papar: &Path, dir: &Path) -> Result<Runner, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let daemon = match workload {
            Workload::BlastServed => Some(Daemon::start(papar, &dir.join("d.sock"))?),
            _ => None,
        };
        Ok(Runner {
            workload,
            papar: papar.to_path_buf(),
            out_dir: dir.join("out"),
            checkpoint_dir: dir.join("ckpt"),
            daemon,
            served: Cell::new(0),
        })
    }

    /// One job of this workload over `input`, as its user would run it.
    pub fn job(&self, input: &Input) -> JobSample {
        match &self.daemon {
            Some(daemon) => {
                let (mut sample, detail) = daemon.request(input, &self.out_dir);
                // The cold request falls in warm-up; every later one must be
                // served from both caches, or it measures something else.
                if self.served.replace(self.served.get() + 1) > 0
                    && !detail.warm
                    && sample.failure.is_none()
                {
                    sample.failure = Some("a repeated request missed a daemon cache".into());
                }
                sample
            }
            None => {
                // A durable job gets a fresh run directory.
                let _ = std::fs::remove_dir_all(&self.checkpoint_dir);
                run_cli_job(
                    &self.papar,
                    input,
                    &self.out_dir,
                    &self.workload.run_flags(&self.checkpoint_dir),
                )
            }
        }
    }

    /// Stop the workload (shuts the served one's daemon down).
    pub fn finish(self) -> Result<(), String> {
        self.daemon.map_or(Ok(()), Daemon::shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_bytes_sums_the_per_job_lines() {
        let summary = "read 100 records\n\
             job 'group+split': 1.5ms simulated, 1200 bytes shuffled\n\
             job 'distr': 800µs simulated, 34 bytes shuffled\n\
             total simulated partitioning time: 2.3ms\n";
        assert_eq!(parse_shuffled_bytes(summary), Some(1234));
        assert_eq!(parse_shuffled_bytes("read 100 records\n"), None);
        assert_eq!(
            parse_shuffled_bytes("job 'x': 1ms simulated, many bytes shuffled"),
            None
        );
    }

    #[test]
    fn rusage_has_the_kernel_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn reap_reports_exit_status_cpu_and_rss() {
        let ok = Command::new("true").spawn().expect("spawn true");
        let (success, cpu, rss) = reap(ok).expect("wait4");
        assert!(success && cpu >= 0.0 && rss > 0.0);
        let bad = Command::new("false").spawn().expect("spawn false");
        assert!(!reap(bad).expect("wait4").0);
    }
}
