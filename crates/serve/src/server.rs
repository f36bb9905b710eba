//! The TCP front end: a nonblocking accept loop, one handler thread per
//! connection, and the verb dispatch over the framed-JSON protocol.
//!
//! The accept loop polls a shutdown flag (set by the `shutdown` verb or by
//! the process signal handler through [`Server::shutdown_handle`]); on
//! shutdown it stops accepting, drains the registry — running slices stop
//! at their next generation boundary with checkpoints written — and
//! returns. Handler threads are detached: they serve reads until their
//! peer hangs up and never outlive useful work.

use crate::job::JobSpec;
use crate::proto::{error_frame, ok_frame, read_frame, write_frame};
use crate::registry::{Registry, ServeConfig};
use mcmap_obs::Json;
use mcmap_telemetry::Class;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The polling interval of the accept loop and of progress-stream state
/// checks. Latency floor for shutdown, not for requests.
const POLL: Duration = Duration::from_millis(25);

/// A bound server: listener + registry + shutdown latch. Consume it with
/// [`Server::run`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and opens (or recovers) the jobs directory.
    ///
    /// # Errors
    ///
    /// Propagates bind and jobs-directory I/O errors.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let registry = Registry::open(cfg)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            registry,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared job registry (for in-process harnesses).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A latch that stops the accept loop and drains the server when set —
    /// hand it to a signal handler for graceful SIGTERM shutdown.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the server until the shutdown latch is set, then drains the
    /// registry (running slices stop at their next checkpointed boundary)
    /// and joins the worker pool.
    pub fn run(self) {
        let workers = self.registry.start_workers();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let registry = Arc::clone(&self.registry);
                    let shutdown = Arc::clone(&self.shutdown);
                    let _ = std::thread::Builder::new()
                        .name("mcmap-serve-conn".into())
                        .spawn(move || handle_connection(stream, &registry, &shutdown));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(_) => std::thread::sleep(POLL),
            }
        }
        self.registry.drain();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// Serves one connection: strict request/response frames, except the
/// `stream` verb which pushes progress frames until the job is terminal.
fn handle_connection(mut stream: TcpStream, registry: &Arc<Registry>, shutdown: &AtomicBool) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        let response = match mcmap_obs::parse_json(&frame) {
            Ok(req) => {
                let verb = known_verb(req.get("verb").and_then(|v| v.as_str()));
                let t0 = std::time::Instant::now();
                let response = dispatch(&req, registry, shutdown, &mut stream);
                registry
                    .metrics()
                    .histogram_with("serve.request_ns", &[("verb", verb)], Class::Nondet)
                    .observe(t0.elapsed().as_nanos() as u64);
                response
            }
            Err(e) => Some(error_frame(&format!("malformed request: {e}"))),
        };
        match response {
            Some(r) => {
                if write_frame(&mut stream, &r).is_err() {
                    return;
                }
            }
            None => return, // the verb owned the connection (stream) and it ended
        }
    }
}

/// Executes one verb. Returns the response frame, or `None` when the verb
/// consumed the connection.
fn dispatch(
    req: &Json,
    registry: &Arc<Registry>,
    shutdown: &AtomicBool,
    stream: &mut TcpStream,
) -> Option<String> {
    let Some(verb) = req.get("verb").and_then(|v| v.as_str()) else {
        return Some(error_frame("request has no \"verb\" member"));
    };
    let id_of = |req: &Json| -> Result<String, String> {
        req.get("id")
            .and_then(|v| v.as_str())
            .map(String::from)
            .ok_or_else(|| "request has no \"id\" member".to_string())
    };
    Some(match verb {
        "submit" => {
            let spec = match req.get("spec").ok_or("request has no \"spec\" member") {
                Ok(s) => match JobSpec::from_json(s) {
                    Ok(spec) => spec,
                    Err(e) => return Some(error_frame(&e)),
                },
                Err(e) => return Some(error_frame(e)),
            };
            match registry.submit(spec) {
                Ok(id) => {
                    let mut payload = String::from(",\"id\":");
                    crate::proto::push_json_str(&mut payload, &id);
                    ok_frame(&payload)
                }
                Err(e) => error_frame(&e),
            }
        }
        "status" => match id_of(req) {
            Ok(id) => match registry.status_json(&id) {
                Some(doc) => ok_frame(&format!(",\"job\":{doc}")),
                None => error_frame(&format!("no such job {id:?}")),
            },
            Err(e) => error_frame(&e),
        },
        "list" => ok_frame(&format!(",\"jobs\":{}", registry.list_json())),
        "cancel" => match id_of(req).and_then(|id| registry.cancel(&id)) {
            Ok(()) => ok_frame(""),
            Err(e) => error_frame(&e),
        },
        "resume" => match id_of(req).and_then(|id| registry.resume(&id)) {
            Ok(()) => ok_frame(""),
            Err(e) => error_frame(&e),
        },
        "front" => match id_of(req).and_then(|id| registry.front_json(&id)) {
            Ok(front) => ok_frame(&format!(",\"front\":{front}")),
            Err(e) => error_frame(&e),
        },
        "stats" => ok_frame(&format!(",\"stats\":{}", registry.server_stats_json())),
        "metrics" => {
            let snap = registry.metrics().snapshot();
            match req.get("format").and_then(|v| v.as_str()) {
                // The Prometheus exposition is plain text, so it ships as
                // one JSON string member — scrape bridges unwrap it.
                Some("prometheus") => {
                    let mut payload = String::from(",\"prometheus\":");
                    crate::proto::push_json_str(&mut payload, &snap.to_prometheus());
                    ok_frame(&payload)
                }
                Some(other) => error_frame(&format!("unknown metrics format {other:?}")),
                None => ok_frame(&format!(",\"metrics\":{}", snap.to_json())),
            }
        }
        "shutdown" => {
            shutdown.store(true, Ordering::SeqCst);
            ok_frame("")
        }
        "stream" => {
            let id = match id_of(req) {
                Ok(id) => id,
                Err(e) => return Some(error_frame(&e)),
            };
            return stream_job(&id, registry, stream);
        }
        other => error_frame(&format!("unknown verb {other:?}")),
    })
}

/// The request-latency label for a verb: the verb itself when it is one
/// the protocol knows, `"other"` otherwise — so a client probing with
/// garbage verbs cannot grow the metric family without bound.
fn known_verb(verb: Option<&str>) -> &'static str {
    match verb {
        Some("submit") => "submit",
        Some("status") => "status",
        Some("list") => "list",
        Some("cancel") => "cancel",
        Some("resume") => "resume",
        Some("front") => "front",
        Some("stats") => "stats",
        Some("metrics") => "metrics",
        Some("shutdown") => "shutdown",
        Some("stream") => "stream",
        _ => "other",
    }
}

/// One `generation` progress frame.
fn generation_frame(generation: u64) -> String {
    format!("{{\"event\":\"generation\",\"generation\":{generation}}}")
}

/// The `stream` verb body: acknowledge, replay the job's persisted
/// progress, then push one frame per completed generation boundary until
/// the job reaches a terminal state, and close with a `done` frame naming
/// it. Frames are at-least-once: history may repeat, and the client drops
/// repeats by keeping only strictly increasing generations.
fn stream_job(id: &str, registry: &Arc<Registry>, stream: &mut TcpStream) -> Option<String> {
    // Subscribing and reading the persisted progress under one lock means
    // a boundary is either already persisted or still to come on `rx`, so
    // a subscriber that attaches late (even after the job finished) still
    // sees the last generation.
    let Some((rx, _, persisted)) = registry.subscribe(id) else {
        return Some(error_frame(&format!("no such job {id:?}")));
    };
    if write_frame(stream, &ok_frame(",\"streaming\":true")).is_err() {
        return None;
    }
    if let Some(g) = persisted {
        if write_frame(stream, &generation_frame(g as u64)).is_err() {
            return None;
        }
    }
    loop {
        match rx.recv_timeout(POLL) {
            Ok(generation) => {
                if write_frame(stream, &generation_frame(generation)).is_err() {
                    return None;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout)
            | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                let (state, persisted) = registry.progress_of(id)?;
                if state.is_terminal() {
                    // Flush any boundary that raced the state transition,
                    // then the persisted last generation: a boundary the
                    // tap published before this subscription but persisted
                    // only after it is covered here.
                    let last = persisted.map(|g| g as u64);
                    for generation in rx.try_iter().chain(last) {
                        if write_frame(stream, &generation_frame(generation)).is_err() {
                            return None;
                        }
                    }
                    let mut done = String::from("{\"event\":\"done\",\"state\":");
                    crate::proto::push_json_str(&mut done, state.as_str());
                    done.push('}');
                    let _ = write_frame(stream, &done);
                    let _ = stream.flush();
                    return None;
                }
            }
        }
    }
}

/// Everything a caller needs to run a server in the background of a test
/// or benchmark: the bound address, the shutdown latch, and the join
/// handle of the accept loop.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound socket address.
    pub addr: std::net::SocketAddr,
    /// Setting this stops the accept loop and drains the registry.
    pub shutdown: Arc<AtomicBool>,
    /// Joins once the accept loop has drained and returned.
    pub thread: std::thread::JoinHandle<()>,
}

/// Binds on `127.0.0.1:0` and runs the server on a background thread.
///
/// # Errors
///
/// Propagates bind and jobs-directory I/O errors.
pub fn spawn_local(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let server = Server::bind("127.0.0.1:0", cfg)?;
    let addr = server.local_addr()?;
    let shutdown = server.shutdown_handle();
    let thread = std::thread::Builder::new()
        .name("mcmap-serve-accept".into())
        .spawn(move || server.run())?;
    Ok(ServerHandle {
        addr,
        shutdown,
        thread,
    })
}
