//! The client half: what `papar submit` / `papar status` (and the
//! tests) use to talk to a daemon.

use crate::protocol::{
    read_frame, write_frame, DaemonStats, Endpoint, JobReport, JobSpec, Request, Response,
    PROTOCOL_VERSION,
};
use crate::ServeError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

trait StreamIo: Read + Write {}
impl<T: Read + Write> StreamIo for T {}

/// One connection to a daemon. Requests are strictly sequential
/// (write one frame, read one frame); open more clients for
/// concurrency.
pub struct Client {
    stream: Box<dyn StreamIo>,
}

impl Client {
    /// Connect to a daemon's endpoint.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ServeError> {
        let stream: Box<dyn StreamIo> = match endpoint {
            Endpoint::Unix(path) => {
                Box::new(UnixStream::connect(path).map_err(|e| ServeError::Io {
                    detail: format!("cannot connect to {}: {e}", path.display()),
                })?)
            }
            Endpoint::Tcp(addr) => {
                Box::new(TcpStream::connect(addr).map_err(|e| ServeError::Io {
                    detail: format!("cannot connect to {addr}: {e}"),
                })?)
            }
        };
        Ok(Client { stream })
    }

    /// Send one request, read one response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &request.encode())?;
        match read_frame(&mut self.stream)? {
            Some(payload) => Response::decode(&payload),
            None => Err(ServeError::Io {
                detail: "daemon closed the connection without answering".to_string(),
            }),
        }
    }

    /// Health check; returns the daemon's lifetime counters, or
    /// [`ServeError::Rejected`] when the daemon speaks another
    /// [`PROTOCOL_VERSION`].
    pub fn ping(&mut self) -> Result<DaemonStats, ServeError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version, stats } if version == PROTOCOL_VERSION => Ok(stats),
            Response::Pong { version, .. } => Err(ServeError::Rejected {
                detail: format!(
                    "daemon speaks protocol v{version}, this client v{PROTOCOL_VERSION}"
                ),
            }),
            Response::Err(e) => Err(e),
            other => Err(unexpected(&other)),
        }
    }

    /// Enqueue a job; returns `(job id, queue position)`.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(u64, u32), ServeError> {
        match self.request(&Request::Submit(spec))? {
            Response::Submitted { id, position } => Ok((id, position)),
            Response::Err(e) => Err(e),
            other => Err(unexpected(&other)),
        }
    }

    /// One-shot state query.
    pub fn status(&mut self, id: u64) -> Result<JobReport, ServeError> {
        match self.request(&Request::Status { id })? {
            Response::Job(report) => Ok(report),
            Response::Err(e) => Err(e),
            other => Err(unexpected(&other)),
        }
    }

    /// Block until the job completes or fails, then return its report.
    pub fn wait(&mut self, id: u64) -> Result<JobReport, ServeError> {
        match self.request(&Request::Wait { id })? {
            Response::Job(report) => Ok(report),
            Response::Err(e) => Err(e),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ServeError {
    ServeError::BadFrame {
        detail: format!("daemon answered with the wrong message type: {resp:?}"),
    }
}
