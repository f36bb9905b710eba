//! The typed blocking client: one TCP connection, one frame in flight.
//!
//! Every method round-trips a single verb; `ok:false` responses surface as
//! `Err(String)` carrying the server's message. Streaming uses the same
//! connection but hands each pushed frame to a callback until the `done`
//! frame arrives — open a second [`Client`] for concurrent control verbs.

use crate::job::JobSpec;
use crate::proto::{read_frame, write_frame};
use mcmap_obs::{push_json_str, Json};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Reconnection policy: bounded attempts with exponentially growing,
/// deterministically jittered backoff, and a per-attempt connect
/// timeout.
///
/// The jitter is seeded, not wall-clock driven: the k-th reconnect delay
/// of two clients built with the same seed is identical, which keeps
/// retry behavior reproducible in tests and keeps a fleet of clients
/// with *different* seeds from thundering against a restarting server in
/// lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connection attempts per operation (>= 1). `1` means no
    /// retry — the pre-policy behavior.
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Jitter seed (see type docs).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A single-attempt policy: fail on the first transport error.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The deterministic backoff schedule: the delay before retry `k`
    /// (0-based), jittered into the upper half of the exponential step.
    /// Pure in `(self, k)` — two equally-seeded policies sleep the same.
    pub fn delay(&self, k: u32) -> Duration {
        let base = self.base_delay.as_millis().max(1) as u64;
        let cap = self.max_delay.as_millis().max(1) as u64;
        let full = base.checked_shl(k.min(16)).unwrap_or(u64::MAX).min(cap);
        // SplitMix64 on (seed, k): cheap, stateless, well distributed.
        let mut z = self.seed ^ (u64::from(k)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let half = full / 2;
        Duration::from_millis(half + z % (full - half + 1))
    }
}

/// A blocking connection to an `mcmap-serve` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: String,
    retry: RetryPolicy,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7421`) with a single attempt
    /// and no reconnection (equivalent to
    /// [`Client::connect_with`]`(addr, RetryPolicy::none())`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            addr: addr.to_string(),
            retry: RetryPolicy::none(),
        })
    }

    /// Connects under a retry policy: up to `policy.attempts` timed
    /// connection attempts separated by the policy's backoff schedule.
    /// The policy stays attached to the client, so [`Client::stream`] and
    /// [`Client::wait`] transparently reconnect and re-subscribe when the
    /// server restarts mid-stream.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's connection error once the attempt
    /// budget is exhausted.
    pub fn connect_with(addr: &str, policy: RetryPolicy) -> std::io::Result<Client> {
        let mut last_err = None;
        for k in 0..policy.attempts.max(1) {
            if k > 0 {
                std::thread::sleep(policy.delay(k - 1));
            }
            match connect_timed(addr, policy.connect_timeout) {
                Ok(stream) => {
                    return Ok(Client {
                        stream,
                        addr: addr.to_string(),
                        retry: policy,
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one attempt"))
    }

    /// Replaces the attached retry policy.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        self.retry = policy;
        self
    }

    /// Tears down the current connection and dials again under the
    /// attached policy.
    fn reconnect(&mut self) -> Result<(), String> {
        let mut last_err = String::from("no attempt made");
        for k in 0..self.retry.attempts.max(1) {
            std::thread::sleep(self.retry.delay(k));
            match connect_timed(&self.addr, self.retry.connect_timeout) {
                Ok(stream) => {
                    self.stream = stream;
                    return Ok(());
                }
                Err(e) => last_err = format!("reconnect to {}: {e}", self.addr),
            }
        }
        Err(last_err)
    }

    /// Sends one raw request frame and returns the parsed `ok:true`
    /// response object.
    ///
    /// # Errors
    ///
    /// Returns the server's error message on `ok:false`, or a transport
    /// description when the connection fails mid-exchange.
    pub fn request(&mut self, frame: &str) -> Result<Json, String> {
        let text = self.request_raw(frame)?;
        mcmap_obs::parse_json(&text).map_err(|e| format!("bad response: {e}"))
    }

    /// Like [`Client::request`], but returns the raw `ok:true` response
    /// text — for passthrough printing (the CLI's `status --json` style
    /// output) without a serializer round-trip.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn request_raw(&mut self, frame: &str) -> Result<String, String> {
        write_frame(&mut self.stream, frame).map_err(|e| format!("send: {e}"))?;
        let Some(text) = read_frame(&mut self.stream).map_err(|e| format!("recv: {e}"))? else {
            return Err("server closed the connection".into());
        };
        let json = mcmap_obs::parse_json(&text).map_err(|e| format!("bad response: {e}"))?;
        match json.get("ok") {
            Some(Json::Bool(true)) => Ok(text),
            _ => Err(json
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("unspecified server error")
                .to_string()),
        }
    }

    /// Sends one verb (optionally with an `id` member) and returns the raw
    /// response frame.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    pub fn verb_raw(&mut self, verb: &str, id: Option<&str>) -> Result<String, String> {
        let mut frame = String::from("{\"verb\":");
        push_json_str(&mut frame, verb);
        if let Some(id) = id {
            frame.push_str(",\"id\":");
            push_json_str(&mut frame, id);
        }
        frame.push('}');
        self.request_raw(&frame)
    }

    fn id_verb(&mut self, verb: &str, id: &str) -> Result<Json, String> {
        let mut frame = String::from("{\"verb\":");
        push_json_str(&mut frame, verb);
        frame.push_str(",\"id\":");
        push_json_str(&mut frame, id);
        frame.push('}');
        self.request(&frame)
    }

    /// Submits a job spec; returns the assigned job id.
    ///
    /// # Errors
    ///
    /// Returns the server's rejection message (unknown benchmark,
    /// draining server) or a transport error.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<String, String> {
        let frame = format!("{{\"verb\":\"submit\",\"spec\":{}}}", spec.to_json());
        let resp = self.request(&frame)?;
        resp.get("id")
            .and_then(|v| v.as_str())
            .map(String::from)
            .ok_or_else(|| "submit response has no id".into())
    }

    /// The job's full status document (state, spec, per-tenant counters).
    ///
    /// # Errors
    ///
    /// Returns the server's message for unknown ids, or a transport error.
    pub fn status(&mut self, id: &str) -> Result<Json, String> {
        let resp = self.id_verb("status", id)?;
        resp.get("job")
            .cloned()
            .ok_or_else(|| "status response has no job".into())
    }

    /// One summary object per job on the server.
    ///
    /// # Errors
    ///
    /// Returns a transport or protocol error.
    pub fn list(&mut self) -> Result<Json, String> {
        let resp = self.request("{\"verb\":\"list\"}")?;
        resp.get("jobs")
            .cloned()
            .ok_or_else(|| "list response has no jobs".into())
    }

    /// Requests cancellation at the job's next generation boundary.
    ///
    /// # Errors
    ///
    /// Returns the server's message for unknown ids or terminal jobs.
    pub fn cancel(&mut self, id: &str) -> Result<(), String> {
        self.id_verb("cancel", id).map(|_| ())
    }

    /// Re-enqueues an interrupted or cancelled job.
    ///
    /// # Errors
    ///
    /// Returns the server's message for non-resumable states.
    pub fn resume(&mut self, id: &str) -> Result<(), String> {
        self.id_verb("resume", id).map(|_| ())
    }

    /// The persisted final front of a completed job.
    ///
    /// # Errors
    ///
    /// Returns the server's message when the job has not completed.
    pub fn front(&mut self, id: &str) -> Result<Json, String> {
        let resp = self.id_verb("front", id)?;
        resp.get("front")
            .cloned()
            .ok_or_else(|| "front response has no front".into())
    }

    /// Server-wide statistics: shared-cache counters and job population.
    ///
    /// # Errors
    ///
    /// Returns a transport or protocol error.
    pub fn stats(&mut self) -> Result<Json, String> {
        let resp = self.request("{\"verb\":\"stats\"}")?;
        resp.get("stats")
            .cloned()
            .ok_or_else(|| "stats response has no stats".into())
    }

    /// The server's metrics snapshot as a JSON document: one entry per
    /// instrument, with per-verb request-latency and per-job
    /// slice-duration histograms carrying `p50`/`p95`/`p99` members.
    ///
    /// # Errors
    ///
    /// Returns a transport or protocol error.
    pub fn metrics(&mut self) -> Result<Json, String> {
        let resp = self.request("{\"verb\":\"metrics\"}")?;
        resp.get("metrics")
            .cloned()
            .ok_or_else(|| "metrics response has no metrics".into())
    }

    /// The server's metrics snapshot in the Prometheus text exposition
    /// format, ready to serve to a scraper.
    ///
    /// # Errors
    ///
    /// Returns a transport or protocol error.
    pub fn metrics_prometheus(&mut self) -> Result<String, String> {
        let resp = self.request("{\"verb\":\"metrics\",\"format\":\"prometheus\"}")?;
        resp.get("prometheus")
            .and_then(|v| v.as_str())
            .map(String::from)
            .ok_or_else(|| "metrics response has no prometheus text".into())
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Returns a transport error.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request("{\"verb\":\"shutdown\"}").map(|_| ())
    }

    /// Streams the job's progress on this connection: `on_generation` is
    /// called once per pushed boundary, and the job's terminal state name
    /// is returned when the `done` frame arrives. The connection stays
    /// usable for further verbs afterwards.
    ///
    /// # Errors
    ///
    /// Returns the server's message for unknown ids, or a transport error
    /// if the stream breaks before `done`.
    pub fn stream(
        &mut self,
        id: &str,
        mut on_generation: impl FnMut(u64),
    ) -> Result<String, String> {
        // Monotonic dedup across reconnects: a re-subscription replays
        // boundaries the first subscription already delivered.
        let mut last_seen: Option<u64> = None;
        let mut resubscriptions = 0u32;
        loop {
            match self.stream_once(id, &mut last_seen, &mut on_generation) {
                Ok(state) => return Ok(state),
                Err(Hiccup::Fatal(msg)) => return Err(msg),
                Err(Hiccup::Transport(msg)) => {
                    resubscriptions += 1;
                    if self.retry.attempts <= 1 || resubscriptions >= self.retry.attempts {
                        return Err(msg);
                    }
                    // Jobs and their terminal states are persisted, so
                    // after a server restart a re-subscription lands on
                    // the same stream (or an immediate `done`).
                    self.reconnect().map_err(|e| format!("{msg}; {e}"))?;
                }
            }
        }
    }

    /// One subscription attempt: subscribe, forward strictly increasing
    /// generation boundaries, and return the terminal state.
    fn stream_once(
        &mut self,
        id: &str,
        last_seen: &mut Option<u64>,
        on_generation: &mut impl FnMut(u64),
    ) -> Result<String, Hiccup> {
        let mut frame = String::from("{\"verb\":\"stream\",\"id\":");
        push_json_str(&mut frame, id);
        frame.push('}');
        write_frame(&mut self.stream, &frame)
            .map_err(|e| Hiccup::Transport(format!("send: {e}")))?;
        let Some(text) =
            read_frame(&mut self.stream).map_err(|e| Hiccup::Transport(format!("recv: {e}")))?
        else {
            return Err(Hiccup::Transport("server closed the connection".into()));
        };
        let ack = mcmap_obs::parse_json(&text)
            .map_err(|e| Hiccup::Fatal(format!("bad response: {e}")))?;
        if ack.get("ok") != Some(&Json::Bool(true)) {
            // The server answered: an unknown id (or other refusal) is
            // authoritative, not a transport wobble — do not retry it.
            return Err(Hiccup::Fatal(
                ack.get("error")
                    .and_then(|v| v.as_str())
                    .unwrap_or("unspecified server error")
                    .to_string(),
            ));
        }
        if ack.get("streaming").is_none() {
            return Err(Hiccup::Fatal(
                "stream response has no streaming acknowledgement".into(),
            ));
        }
        loop {
            let Some(text) = read_frame(&mut self.stream)
                .map_err(|e| Hiccup::Transport(format!("stream recv: {e}")))?
            else {
                return Err(Hiccup::Transport(
                    "stream ended without a done frame".into(),
                ));
            };
            let json = mcmap_obs::parse_json(&text)
                .map_err(|e| Hiccup::Fatal(format!("bad frame: {e}")))?;
            match json.get("event").and_then(|v| v.as_str()) {
                Some("generation") => {
                    if let Some(g) = json.get("generation").and_then(|v| v.as_u64()) {
                        if last_seen.is_none_or(|seen| g > seen) {
                            *last_seen = Some(g);
                            on_generation(g);
                        }
                    }
                }
                Some("done") => {
                    return json
                        .get("state")
                        .and_then(|v| v.as_str())
                        .map(String::from)
                        .ok_or_else(|| Hiccup::Fatal("done frame has no state".into()));
                }
                _ => return Err(Hiccup::Fatal(format!("unexpected stream frame: {text}"))),
            }
        }
    }

    /// Streams until the job is terminal, discarding progress frames.
    ///
    /// # Errors
    ///
    /// Same as [`Client::stream`].
    pub fn wait(&mut self, id: &str) -> Result<String, String> {
        self.stream(id, |_| {})
    }
}

/// A mid-operation failure, split by whether retrying can help.
enum Hiccup {
    /// The connection failed — the server may just be restarting.
    Transport(String),
    /// The server (or the protocol) answered authoritatively.
    Fatal(String),
}

/// One timed TCP connection attempt: resolve `addr` and try every
/// resolved address under the timeout.
fn connect_timed(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last_err = None;
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServeConfig;
    use crate::server::spawn_local;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mcmap_serve_client_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn end_to_end_submit_stream_front_stats_shutdown() {
        let dir = scratch("end_to_end");
        let handle = spawn_local(ServeConfig {
            jobs_dir: dir.clone(),
            workers: 2,
            slice: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr.to_string();
        let mut c = Client::connect(&addr).unwrap();
        let spec = JobSpec {
            benchmark: "cruise".into(),
            population: 8,
            generations: 2,
            seed: 8,
        };
        let id = c.submit(&spec).unwrap();
        assert!(id.starts_with("job-"));
        // Stream on a second connection while this one polls verbs.
        let mut streamer = Client::connect(&addr).unwrap();
        let mut boundaries = Vec::new();
        let state = streamer.stream(&id, |g| boundaries.push(g)).unwrap();
        assert_eq!(state, "completed");
        assert!(
            boundaries.contains(&(spec.generations as u64)),
            "stream never reported the final generation: {boundaries:?}"
        );
        // A subscriber that attaches after the job finished still gets the
        // final generation, replayed from the persisted progress. A stream
        // ends its connection, so each one gets a fresh connection.
        let wait = Client::connect(&addr).unwrap().wait(&id);
        assert_eq!(wait.unwrap(), "completed");
        let mut late = Vec::new();
        let mut latecomer = Client::connect(&addr).unwrap();
        assert_eq!(
            latecomer.stream(&id, |g| late.push(g)).unwrap(),
            "completed"
        );
        assert_eq!(late.last(), Some(&(spec.generations as u64)), "{late:?}");
        let status = c.status(&id).unwrap();
        assert_eq!(
            status.get("state").and_then(|v| v.as_str()),
            Some("completed")
        );
        assert!(
            status
                .get("eval")
                .and_then(|e| e.get("genomes"))
                .and_then(|v| v.as_u64())
                .is_some_and(|g| g > 0),
            "status must expose per-job eval counters"
        );
        let front = c.front(&id).unwrap();
        assert!(front
            .get("reports")
            .is_some_and(|r| matches!(r, Json::Arr(v) if !v.is_empty())));
        let jobs = c.list().unwrap();
        assert!(matches!(jobs, Json::Arr(ref v) if v.len() == 1));
        let stats = c.stats().unwrap();
        assert!(stats.get("cache").is_some());
        assert!(
            stats
                .get("dropped_events")
                .and_then(|v| v.as_u64())
                .is_some(),
            "stats must report the silent-loss counter"
        );
        // Metrics snapshot: per-verb request latencies, per-job slice
        // histograms (with quantiles), and the exploration's own meters.
        let metrics = c.metrics().unwrap();
        let Some(Json::Arr(entries)) = metrics.get("metrics") else {
            panic!("metrics response has no entries: {metrics:?}");
        };
        let by_name = |name: &str| {
            entries
                .iter()
                .filter(|m| m.get("name").and_then(|v| v.as_str()) == Some(name))
                .collect::<Vec<_>>()
        };
        assert!(!by_name("serve.request_ns").is_empty(), "verb latencies");
        assert!(!by_name("eval.batches").is_empty(), "exploration meters");
        let slice = by_name("serve.slice_ns");
        let per_job = slice
            .iter()
            .find(|m| {
                m.get("labels")
                    .and_then(|l| l.get("job"))
                    .and_then(|v| v.as_str())
                    == Some(id.as_str())
            })
            .expect("per-job slice histogram");
        assert!(
            per_job
                .get("value")
                .and_then(|v| v.get("p95"))
                .and_then(|v| v.as_u64())
                .is_some(),
            "slice histogram carries quantiles: {per_job:?}"
        );
        let prom = c.metrics_prometheus().unwrap();
        assert!(prom.contains("# TYPE mcmap_serve_slice_ns histogram"));
        assert!(prom.contains("mcmap_eval_batches_total"));
        assert!(prom.contains("mcmap_serve_request_ns_bucket{"));
        // Unknown verbs and ids produce typed errors, not hangups.
        assert!(c.request("{\"verb\":\"bogus\"}").is_err());
        assert!(c.status("job-999999").is_err());
        c.shutdown().unwrap();
        handle.thread.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: std::time::Duration::from_millis(10),
            max_delay: std::time::Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let twin = policy.clone();
        for k in 0..policy.attempts {
            let d = policy.delay(k);
            assert_eq!(d, twin.delay(k), "same seed, same schedule");
            let full = (10u64 << k.min(16)).min(200);
            assert!(d.as_millis() as u64 >= full / 2, "at least half the step");
            assert!(d.as_millis() as u64 <= full, "never above the cap");
        }
        // A different seed shifts the jitter (with overwhelming
        // probability over 8 draws).
        let other = RetryPolicy {
            seed: policy.seed ^ 0xFFFF,
            ..policy.clone()
        };
        assert!(
            (0..8).any(|k| other.delay(k) != policy.delay(k)),
            "jitter must depend on the seed"
        );
    }

    #[test]
    fn connect_with_gives_up_after_bounded_attempts() {
        // A port nobody listens on: bind, learn the port, drop the
        // listener.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(2),
            connect_timeout: std::time::Duration::from_millis(100),
            seed: 7,
        };
        let t0 = std::time::Instant::now();
        let err = Client::connect_with(&format!("127.0.0.1:{port}"), policy);
        assert!(err.is_err(), "nothing listens there");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "three bounded attempts must not hang"
        );
    }

    #[test]
    fn wait_survives_a_server_restart() {
        use crate::server::Server;
        let dir = scratch("restart");
        let handle = spawn_local(ServeConfig {
            jobs_dir: dir.clone(),
            workers: 1,
            slice: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.addr.to_string();
        let spec = JobSpec {
            benchmark: "cruise".into(),
            population: 8,
            generations: 2,
            seed: 8,
        };
        let mut c = Client::connect_with(&addr, RetryPolicy::default()).unwrap();
        let id = c.submit(&spec).unwrap();
        assert_eq!(c.wait(&id).unwrap(), "completed");

        // Bounce the server: drain it (on a fresh control connection),
        // then bring a new instance up on the same address and jobs
        // directory after a beat.
        Client::connect(&addr).unwrap().shutdown().unwrap();
        handle.thread.join().unwrap();
        let restarter = {
            let addr = addr.clone();
            let dir = dir.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(150));
                let server = Server::bind(
                    &addr,
                    ServeConfig {
                        jobs_dir: dir,
                        workers: 1,
                        slice: 1,
                        ..ServeConfig::default()
                    },
                )
                .unwrap();
                let shutdown = server.shutdown_handle();
                let t = std::thread::spawn(move || server.run());
                (shutdown, t)
            })
        };

        // The old connection is dead; `wait` must reconnect under the
        // policy, re-subscribe, and land on the persisted terminal state.
        let state = c.wait(&id).expect("wait must survive the restart");
        assert_eq!(state, "completed");

        let (_shutdown, server_thread) = restarter.join().unwrap();
        let mut c2 = Client::connect_with(&addr, RetryPolicy::default()).unwrap();
        c2.shutdown().unwrap();
        server_thread.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
