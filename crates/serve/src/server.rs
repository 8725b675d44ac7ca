//! NDJSON protocol over a Unix domain socket.
//!
//! One request line in, a stream of newline-delimited JSON events out:
//!
//! ```text
//! client:  sweep workloads=specjbb algorithms=lazy,eager seeds=7 accesses=200
//! server:  {"event":"status","job":0,"key":"…","state":"queued"}
//! server:  {"event":"result","job":0,"key":"…","stats":{…}}
//! server:  …
//! server:  {"event":"done","jobs":2,"computed":2,"cached":0,"coalesced":0,"failed":0}
//! ```
//!
//! `status` lines report live scheduling and may interleave freely;
//! `result` lines carry only deterministic content (no timing, no
//! cache/source state) and are emitted in job order, so filtering a
//! stream to its `"event":"result"` lines yields bytes identical between
//! a cold sweep and its warm, fully cached replay. The other request
//! lines are `ping` (liveness) and `shutdown` (stops the accept loop).
//! A request line longer than 64 KiB gets an `error` event instead of
//! being buffered without bound.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use flexsnoop_metrics::Json;

use crate::job::{JobOutput, SweepRequest};
use crate::service::{JobEvent, SweepService};

/// The longest request line the server reads, newline included.
pub(crate) const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// What a server observed over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Sweep requests served.
    pub sweeps: u64,
    /// Jobs across all sweeps.
    pub jobs: u64,
    /// Clients that vanished mid-stream (broken pipe). Their jobs still
    /// ran to completion and populated the results cache.
    pub disconnects: u64,
}

/// Binds `path` and serves connections until a client sends `shutdown`.
/// A stale socket file from a dead server is replaced.
///
/// # Errors
///
/// Returns a message if the socket cannot be bound.
pub fn serve_blocking(path: &Path, service: &SweepService) -> Result<ServerSummary, String> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("socket: {e}"))?;
    let stop = AtomicBool::new(false);
    let connections = AtomicU64::new(0);
    let sweeps = AtomicU64::new(0);
    let jobs = AtomicU64::new(0);
    let disconnects = AtomicU64::new(0);
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    connections.fetch_add(1, Ordering::Relaxed);
                    let (stop, sweeps, jobs, disconnects) = (&stop, &sweeps, &jobs, &disconnects);
                    scope.spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        handle_connection(stream, service, stop, sweeps, jobs, disconnects);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    stop.store(true, Ordering::SeqCst);
                    let _ = std::fs::remove_file(path);
                    return Err(format!("accept: {e}"));
                }
            }
        }
        Ok(())
    })?;
    let _ = std::fs::remove_file(path);
    Ok(ServerSummary {
        connections: connections.load(Ordering::Relaxed),
        sweeps: sweeps.load(Ordering::Relaxed),
        jobs: jobs.load(Ordering::Relaxed),
        disconnects: disconnects.load(Ordering::Relaxed),
    })
}

fn handle_connection(
    stream: UnixStream,
    service: &SweepService,
    stop: &AtomicBool,
    sweeps: &AtomicU64,
    jobs: &AtomicU64,
    disconnects: &AtomicU64,
) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s.take(MAX_REQUEST_BYTES as u64),
        Err(_) => return,
    });
    let mut writer = stream;
    let mut raw = Vec::new();
    if reader.read_until(b'\n', &mut raw).is_err() {
        return;
    }
    // `take` stopped the read at the cap: the line never ended.
    let too_long = raw.len() == MAX_REQUEST_BYTES && raw.last() != Some(&b'\n');
    let line = String::from_utf8_lossy(&raw);
    let line = line.trim();
    let reply = match line {
        _ if too_long => error_line(format!("request line exceeds {MAX_REQUEST_BYTES} bytes")),
        "ping" => event_line(&[("event", Json::str("pong"))]),
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            event_line(&[("event", Json::str("shutdown"))])
        }
        _ if line.starts_with("sweep") => {
            sweeps.fetch_add(1, Ordering::Relaxed);
            match stream_sweep(line, service, &mut writer) {
                Ok(n) => {
                    jobs.fetch_add(n, Ordering::Relaxed);
                    return; // stream_sweep wrote everything already
                }
                // The client went away mid-stream. Only this connection
                // dies; its jobs finish and land in the results cache.
                Err(StreamEnd::Disconnected) => {
                    disconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(StreamEnd::Request(message)) => error_line(message),
            }
        }
        other => error_line(format!(
            "unknown request {other:?}; try sweep/ping/shutdown"
        )),
    };
    let _ = writer.write_all(reply.as_bytes());
}

/// Why a sweep stream ended before its `done` line.
enum StreamEnd {
    /// The request was bad or a result failed to decode; the connection
    /// is still writable and gets an error event.
    Request(String),
    /// A write failed (broken pipe): the client is gone and nothing
    /// more can reach it.
    Disconnected,
}

impl From<String> for StreamEnd {
    fn from(message: String) -> StreamEnd {
        StreamEnd::Request(message)
    }
}

/// Writes one event line; a failed write means the client disconnected.
fn send(writer: &mut UnixStream, line: &str) -> Result<(), StreamEnd> {
    writer
        .write_all(line.as_bytes())
        .map_err(|_| StreamEnd::Disconnected)
}

/// Runs one sweep and streams its events; returns the job count.
fn stream_sweep(
    line: &str,
    service: &SweepService,
    writer: &mut UnixStream,
) -> Result<u64, StreamEnd> {
    let request = SweepRequest::parse_line(line)?;
    let submission = service.submit(&request)?;
    let total = submission.jobs();
    let (mut computed, mut cached, mut coalesced, mut failed) = (0u64, 0u64, 0u64, 0u64);
    // Result lines must come out in job order even though jobs finish in
    // any order: buffer early arrivals, flush the contiguous prefix.
    let mut pending: BTreeMap<usize, String> = BTreeMap::new();
    let mut next_result = 0usize;
    let mut resolved = 0usize;
    for event in submission.events.iter() {
        match event {
            JobEvent::Status { index, key, state } => {
                send(
                    writer,
                    &event_line(&[
                        ("event", Json::str("status")),
                        ("job", Json::from(index)),
                        ("key", Json::str(key.render())),
                        ("state", Json::str(state.as_str())),
                    ]),
                )?;
            }
            JobEvent::Result {
                index,
                key,
                bytes,
                source,
            } => {
                match source {
                    crate::service::ResultSource::Cache => cached += 1,
                    crate::service::ResultSource::Computed => computed += 1,
                    crate::service::ResultSource::Coalesced => coalesced += 1,
                }
                let output = JobOutput::decode(&bytes, &submission.specs[index])
                    .map_err(|e| StreamEnd::Request(format!("job {index}: {e}")))?;
                pending.insert(
                    index,
                    event_line(&[
                        ("event", Json::str("result")),
                        ("job", Json::from(index)),
                        ("key", Json::str(key.render())),
                        ("stats", output.to_json()),
                    ]),
                );
                resolved += 1;
            }
            JobEvent::Failed { index, key, error } => {
                failed += 1;
                send(
                    writer,
                    &event_line(&[
                        ("event", Json::str("error")),
                        ("job", Json::from(index)),
                        ("key", Json::str(key.render())),
                        ("message", Json::str(error)),
                    ]),
                )?;
                // No result line will come for this index.
                pending.insert(index, String::new());
                resolved += 1;
            }
        }
        while let Some(line) = pending.remove(&next_result) {
            send(writer, &line)?;
            next_result += 1;
        }
        if resolved == total {
            break;
        }
    }
    send(
        writer,
        &event_line(&[
            ("event", Json::str("done")),
            ("jobs", Json::from(total)),
            ("computed", Json::from(computed)),
            ("cached", Json::from(cached)),
            ("coalesced", Json::from(coalesced)),
            ("failed", Json::from(failed)),
        ]),
    )?;
    Ok(total as u64)
}

fn event_line(pairs: &[(&str, Json)]) -> String {
    let mut line = Json::inline_obj(pairs.iter().map(|(k, v)| (k.to_string(), v.clone()))).render();
    line.push('\n');
    line
}

fn error_line(message: impl Into<String>) -> String {
    event_line(&[
        ("event", Json::str("error")),
        ("message", Json::str(message)),
    ])
}

/// Connects to a serving socket, sends one request line, and returns the
/// full NDJSON response (the stream is drained to EOF).
///
/// # Errors
///
/// Returns a message on connect/write/read failures.
pub fn request(path: &Path, line: &str) -> Result<String, String> {
    let mut stream =
        UnixStream::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
    stream
        .write_all(format!("{}\n", line.trim()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    Ok(response)
}

/// Sends `shutdown` to a serving socket.
///
/// # Errors
///
/// Propagates [`request`] failures.
pub fn request_shutdown(path: &Path) -> Result<(), String> {
    request(path, "shutdown").map(drop)
}

/// Filters an NDJSON stream down to its deterministic `result` lines —
/// the byte-comparable portion of a sweep response.
pub fn result_lines(stream: &str) -> String {
    stream
        .lines()
        .filter(|l| l.starts_with("{\"event\": \"result\""))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultsCache;
    use crate::service::{ServiceOptions, SweepService};

    fn socket_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("flexsnoop-{tag}-{}.sock", std::process::id()))
    }

    #[test]
    fn sweep_over_the_socket_streams_ordered_results_and_caches() {
        let path = socket_path("e2e");
        let service = SweepService::new(ServiceOptions { threads: 2 }, ResultsCache::in_memory());
        let summary = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_blocking(&path, &service));
            while !path.exists() {
                std::thread::yield_now();
            }
            assert!(request(&path, "ping").unwrap().contains("pong"));
            let line = "sweep workloads=specjbb algorithms=lazy,eager seeds=7 accesses=60";
            let cold = request(&path, line).unwrap();
            let warm = request(&path, line).unwrap();
            assert!(cold.contains("\"state\": \"running\""), "{cold}");
            assert!(cold.contains("\"computed\": 2"), "{cold}");
            assert!(warm.contains("\"cached\": 2"), "{warm}");
            assert!(warm.contains("\"state\": \"cached\""), "{warm}");
            let (cold_results, warm_results) = (result_lines(&cold), result_lines(&warm));
            assert_eq!(cold_results.lines().count(), 2);
            assert_eq!(
                cold_results, warm_results,
                "cached replay must be byte-identical"
            );
            // Result lines are in job order in both streams.
            let order: Vec<&str> = cold_results
                .lines()
                .map(|l| {
                    l.split("\"job\": ")
                        .nth(1)
                        .unwrap()
                        .split(',')
                        .next()
                        .unwrap()
                })
                .collect();
            assert_eq!(order, ["0", "1"]);
            assert!(request(&path, "bogus").unwrap().contains("unknown request"));
            request_shutdown(&path).unwrap();
            server.join().unwrap().unwrap()
        });
        assert_eq!(summary.sweeps, 2);
        assert_eq!(summary.jobs, 4);
        assert!(!path.exists(), "socket file cleaned up");
    }

    #[test]
    fn client_disconnect_mid_stream_fails_only_that_connection() {
        let path = socket_path("drop");
        let service = SweepService::new(ServiceOptions { threads: 1 }, ResultsCache::in_memory());
        let summary = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_blocking(&path, &service));
            while !path.exists() {
                std::thread::yield_now();
            }
            // A sweep wide enough (8 jobs, 1 worker) that results are
            // still streaming when the client vanishes: read one byte to
            // be sure the stream started, then drop the socket.
            {
                let mut s = UnixStream::connect(&path).unwrap();
                s.write_all(
                    b"sweep workloads=specjbb algorithms=lazy,eager seeds=1,2,3,4 accesses=200\n",
                )
                .unwrap();
                let mut one = [0u8; 1];
                s.read_exact(&mut one).unwrap();
            }
            // The abandoned sweep's jobs still run and fill the cache;
            // a second submission on a fresh connection completes.
            let line = "sweep workloads=specjbb algorithms=lazy,eager seeds=1,2,3,4 accesses=200";
            let out = request(&path, line).unwrap();
            assert!(out.contains("\"event\": \"done\""), "{out}");
            assert_eq!(result_lines(&out).lines().count(), 8, "{out}");
            request_shutdown(&path).unwrap();
            server.join().unwrap().unwrap()
        });
        assert_eq!(summary.disconnects, 1, "{summary:?}");
        assert_eq!(summary.sweeps, 2);
        // Only the completed sweep's jobs are counted as served.
        assert_eq!(summary.jobs, 8);
    }

    #[test]
    fn malformed_sweeps_report_errors_not_hangs() {
        let path = socket_path("err");
        let service = SweepService::new(ServiceOptions { threads: 1 }, ResultsCache::in_memory());
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_blocking(&path, &service));
            while !path.exists() {
                std::thread::yield_now();
            }
            let out = request(&path, "sweep workloads=specjbb algorithms=bogus seeds=1").unwrap();
            assert!(out.contains("unknown algorithm"), "{out}");
            request_shutdown(&path).unwrap();
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn over_long_request_lines_get_an_error_and_serving_continues() {
        let path = socket_path("long");
        let service = SweepService::new(ServiceOptions { threads: 1 }, ResultsCache::in_memory());
        // Assert only after the server has shut down, so a failure
        // fails the test instead of leaving the scope joined on a
        // server that never stops.
        let (reply, pong) = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_blocking(&path, &service));
            while !path.exists() {
                std::thread::yield_now();
            }
            // One byte past the cap, no newline, write side left open:
            // the server must answer at the cap, not wait for the line
            // to end.
            let mut s = UnixStream::connect(&path).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            let _ = s.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1]);
            // The unread byte makes the close a reset after the reply,
            // so the read may end in an error; the reply is still there.
            let mut reply = String::new();
            let _ = s.read_to_string(&mut reply);
            drop(s);
            let pong = request(&path, "ping");
            request_shutdown(&path).unwrap();
            server.join().unwrap().unwrap();
            (reply, pong)
        });
        assert!(reply.starts_with("{\"event\": \"error\""), "{reply}");
        assert!(reply.contains(&MAX_REQUEST_BYTES.to_string()), "{reply}");
        assert!(pong.unwrap().contains("pong"));
    }
}
