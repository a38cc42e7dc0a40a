//! The daemon: socket listener, connection handlers, and the single
//! worker thread that drains the job queue onto the resident cluster.
//!
//! Threading model: the accept loop polls a nonblocking listener (so it
//! can notice shutdown between connections), spawns one handler thread
//! per client connection, and runs one worker thread for the engine.
//! Handlers only touch the queue and the shared counters — every
//! engine-side object (cluster, caches) is owned by the worker, so
//! there is no lock around the hot path and two jobs can never race on
//! the engine. Shutdown — a `Shutdown` request or SIGTERM/SIGINT —
//! closes the queue to new admissions, lets the worker drain what was
//! already admitted, and exits cleanly.

use crate::job::{self, Resources};
use crate::protocol::{
    read_frame, write_frame, DaemonStats, Endpoint, Request, Response, PROTOCOL_VERSION,
};
use crate::queue::JobQueue;
use crate::ServeError;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SIGTERM/SIGINT land here; everything else about signal handling
/// stays out of the async-signal context. Installed via the raw libc
/// `signal(2)` symbol — the handler only stores a flag, which is
/// async-signal-safe, and the accept loop polls it.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// How the daemon should be configured.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Pending-job admission limit (queued + running).
    pub queue_capacity: usize,
    /// Compiled plans kept resident.
    pub plan_cache: usize,
    /// Decoded input files kept resident.
    pub data_cache: usize,
    /// Install SIGTERM/SIGINT handlers (the CLI does; in-process tests
    /// must not hijack the test harness's signals).
    pub handle_signals: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
            queue_capacity: 32,
            plan_cache: 16,
            data_cache: 8,
            handle_signals: false,
        }
    }
}

/// Counters shared between the worker (writes) and handlers (read by
/// `Ping`).
#[derive(Debug, Default)]
struct SharedStats {
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    plans_cached: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    data_hits: AtomicU64,
    data_misses: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> DaemonStats {
        DaemonStats {
            jobs_done: self.jobs_done.load(Ordering::SeqCst),
            jobs_failed: self.jobs_failed.load(Ordering::SeqCst),
            plans_cached: self.plans_cached.load(Ordering::SeqCst),
            plan_hits: self.plan_hits.load(Ordering::SeqCst),
            plan_misses: self.plan_misses.load(Ordering::SeqCst),
            data_hits: self.data_hits.load(Ordering::SeqCst),
            data_misses: self.data_misses.load(Ordering::SeqCst),
        }
    }
}

struct Shared {
    queue: JobQueue,
    stats: SharedStats,
    /// Set by a `Shutdown` request (SIGTERM sets the global flag).
    shutdown: AtomicBool,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || TERM_REQUESTED.load(Ordering::SeqCst)
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// The resident daemon. [`Server::bind`] validates the environment and
/// claims the socket; [`Server::run`] serves until shutdown.
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    /// The Unix socket path to unlink on exit, when listening on one.
    unlink_on_exit: Option<std::path::PathBuf>,
    shared: Arc<Shared>,
    default_threads: usize,
    opts: ServeOptions,
}

impl Server {
    /// Validate the environment (a malformed `PAPAR_THREADS` is refused
    /// *here*, not on the first request — a resident daemon must not
    /// boot mis-sized) and claim the socket.
    pub fn bind(opts: ServeOptions) -> Result<Server, ServeError> {
        let (default_threads, _) =
            papar_mr::default_thread_budget().map_err(|e| ServeError::Rejected {
                detail: e.to_string(),
            })?;
        let (listener, endpoint, unlink_on_exit) = match &opts.endpoint {
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed daemon would make
                // bind fail; a *live* daemon's socket must not be
                // stolen. Distinguish by connecting.
                if path.exists() {
                    if std::os::unix::net::UnixStream::connect(path).is_ok() {
                        return Err(ServeError::Rejected {
                            detail: format!(
                                "another daemon is already listening on {}",
                                path.display()
                            ),
                        });
                    }
                    let _ = std::fs::remove_file(path);
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (
                    Listener::Unix(l),
                    Endpoint::Unix(path.clone()),
                    Some(path.clone()),
                )
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                let actual = l.local_addr()?;
                (Listener::Tcp(l), Endpoint::Tcp(actual.to_string()), None)
            }
        };
        if opts.handle_signals {
            install_signal_handlers();
        }
        Ok(Server {
            listener,
            endpoint,
            unlink_on_exit,
            shared: Arc::new(Shared {
                queue: JobQueue::new(opts.queue_capacity),
                stats: SharedStats::default(),
                shutdown: AtomicBool::new(false),
            }),
            default_threads,
            opts,
        })
    }

    /// The endpoint actually bound (with the OS-assigned port for
    /// `tcp:...:0`). Connect clients here.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The validated engine thread budget jobs default to.
    pub fn default_threads(&self) -> usize {
        self.default_threads
    }

    /// Serve until a `Shutdown` request or SIGTERM/SIGINT, then drain
    /// the queue and return. Never panics; per-connection faults stay
    /// on their connection.
    pub fn run(self) -> Result<(), ServeError> {
        let worker = {
            let shared = self.shared.clone();
            let mut res = Resources::new(
                self.opts.plan_cache,
                self.opts.data_cache,
                self.default_threads,
            );
            std::thread::Builder::new()
                .name("papar-serve-worker".into())
                .spawn(move || worker_loop(&shared, &mut res))
                .map_err(|e| ServeError::Io {
                    detail: e.to_string(),
                })?
        };

        loop {
            if self.shared.shutting_down() {
                break;
            }
            let accepted: Option<Box<dyn StreamIo>> = match &self.listener {
                Listener::Unix(l) => match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nonblocking(false);
                        Some(Box::new(s))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nonblocking(false);
                        Some(Box::new(s))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
            };
            match accepted {
                Some(stream) => {
                    let shared = self.shared.clone();
                    let _ = std::thread::Builder::new()
                        .name("papar-serve-conn".into())
                        .spawn(move || handle_connection(stream, &shared));
                }
                None => std::thread::sleep(Duration::from_millis(15)),
            }
        }

        // Graceful drain: no new admissions, everything already
        // admitted still runs, then the worker exits.
        self.shared.queue.close();
        let _ = worker.join();
        if let Some(path) = &self.unlink_on_exit {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

trait StreamIo: Read + Write + Send {}
impl<T: Read + Write + Send> StreamIo for T {}

fn worker_loop(shared: &Shared, res: &mut Resources) {
    loop {
        match shared.queue.next_job(Duration::from_millis(100)) {
            Some((id, spec)) => {
                // A panic inside the engine must neither kill the daemon
                // nor leave the job stuck in `Running`; the resident
                // cluster may be mid-run, so it is discarded too.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    job::execute(&spec, res)
                }))
                .unwrap_or_else(|_| {
                    res.cluster = None;
                    Err("internal error: job panicked; resident cluster discarded".to_string())
                });
                match &result {
                    Ok(_) => shared.stats.jobs_done.fetch_add(1, Ordering::SeqCst),
                    Err(_) => shared.stats.jobs_failed.fetch_add(1, Ordering::SeqCst),
                };
                shared
                    .stats
                    .plans_cached
                    .store(res.plans.len() as u64, Ordering::SeqCst);
                shared
                    .stats
                    .plan_hits
                    .store(res.plans.hits, Ordering::SeqCst);
                shared
                    .stats
                    .plan_misses
                    .store(res.plans.misses, Ordering::SeqCst);
                shared
                    .stats
                    .data_hits
                    .store(res.data.hits, Ordering::SeqCst);
                shared
                    .stats
                    .data_misses
                    .store(res.data.misses, Ordering::SeqCst);
                shared.queue.complete(id, result);
            }
            None => {
                if (shared.shutting_down() || shared.queue.is_closed())
                    && !shared.queue.has_pending()
                {
                    return;
                }
            }
        }
    }
}

fn handle_connection(mut stream: Box<dyn StreamIo>, shared: &Shared) {
    loop {
        match read_frame(&mut stream) {
            Ok(None) => return, // clean disconnect between frames
            Ok(Some(payload)) => {
                let response = match Request::decode(&payload) {
                    Ok(request) => respond(request, shared),
                    Err(e) => Response::Err(e),
                };
                if write_frame(&mut stream, &response.encode()).is_err() {
                    return;
                }
            }
            Err(e) => {
                // The stream is desynchronized after a bad frame; one
                // typed answer, then hang up.
                let _ = write_frame(&mut stream, &Response::Err(e).encode());
                return;
            }
        }
    }
}

fn respond(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
            stats: shared.stats.snapshot(),
        },
        Request::Submit(spec) => {
            if shared.shutting_down() {
                return Response::Err(ServeError::ShuttingDown);
            }
            match shared.queue.submit(spec) {
                Ok((id, position)) => Response::Submitted { id, position },
                Err(e) => Response::Err(e),
            }
        }
        Request::Status { id } => match shared.queue.report(id) {
            Ok(report) => Response::Job(report),
            Err(e) => Response::Err(e),
        },
        Request::Wait { id } => match shared.queue.wait(id) {
            Ok(report) => Response::Job(report),
            Err(e) => Response::Err(e),
        },
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue.close();
            Response::ShuttingDown
        }
    }
}
