//! The Unix-socket front end: newline-delimited JSON requests in, one JSON
//! object out per request.
//!
//! Protocol (one object per line; see README for a transcript):
//!
//! | request | reply |
//! |---|---|
//! | `{"cmd":"points-to","var":V}` | `{"ok":true,"var":V,"resolved":N,"targets":[{"id":I,"name":S},…],"cached":B,"us":N,"epoch":N,"partial":B}` |
//! | `{"cmd":"alias","a":A,"b":B}` | `{"ok":true,"a":A,"b":B,"alias":B,"cached":false,"us":N,"epoch":N,"partial":B}` — never cached |
//! | `{"cmd":"depend","target":T,"non-targets":[S,…]}` | `{"ok":true,"target":T,"dependents":[{"name":S,"weak_links":N,"length":N},…],"cached":B,"us":N,"epoch":N,"partial":B}` |
//! | `{"cmd":"stats"}` | `{"ok":true,"stats":{…}}` |
//! | `{"cmd":"metrics"}` | `{"ok":true,"metrics":"…"}` — Prometheus text exposition of every registered counter/histogram |
//! | `{"cmd":"reload","force":B}` | `{"ok":true,"recompiled":[S,…],"invalidated":N,"epoch":N,"relinked":B,"quarantined":[S,…]}` |
//! | `{"cmd":"health"}` | `{"ok":true,"health":"ok"\|"partial"\|"degraded"\|"loading","epoch":N,"snapshot_loaded":B,"quarantined":N[,"last_error":S]}` |
//! | `{"cmd":"profile","action":"start"[,"interval_us":N]}` | `{"ok":true,"profiling":true,"interval_us":N}` — live sampling profiler |
//! | `{"cmd":"profile","action":"dump"\|"stop"}` | `{"ok":true,"profiling":B,"wall_us":N,"samples":N,"collapsed":S,"spans":[{"span":S,"total_us":N,"self_us":N,"samples":N},…]}` |
//! | `{"cmd":"shutdown"}` | `{"ok":true,"stats":{…}}`, then the server stops accepting |
//!
//! Every client gets its own thread; they all share one [`Session`]. Query
//! replies carry the session `epoch` of the immutable snapshot that
//! answered them, so clients racing a `reload` can tell which world an
//! answer came from.
//!
//! Two [`ServeOptions`] limits protect the worker threads: an idle client
//! is disconnected after `read_timeout` with an `{"ok":false,"error":"idle
//! timeout"}` reply, and a request line longer than `max_request_bytes`
//! gets `{"ok":false,"error":"request too large…"}` and a prompt close
//! instead of buffering without bound. After a shutdown request, every
//! other client's next request is answered with `{"ok":false,
//! "error":"shutting down"}` and its connection is closed, so
//! [`ServerHandle::stop`]/[`ServerHandle::join`] never stall behind a
//! chatty client.
//!
//! Fault tolerance (DESIGN.md §10): invalid UTF-8 or unparseable JSON gets
//! a typed `{"ok":false,"error":"malformed request…"}` reply and the
//! connection stays open; a panic escaping a query handler is caught per
//! connection (the client gets `"internal error: query panicked"` and is
//! disconnected, every other client is unaffected); and ahead of each
//! request the server gives a degraded session the chance to retry its
//! failed reload, so recovery is automatic once the underlying file is
//! fixed.

use crate::json::{obj, parse, Value};
use crate::session::Session;
use crate::stats::SessionStats;
use cla_cfront::FileProvider;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Limits protecting server worker threads from slow or abusive clients.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// How long a connection may sit idle between requests before it is
    /// disconnected (`None` disables the timeout). Default: 5 minutes.
    pub read_timeout: Option<Duration>,
    /// Maximum size of one request line in bytes; longer requests are
    /// rejected with a structured error and the connection is closed.
    /// Default: 1 MiB.
    pub max_request_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Some(Duration::from_secs(300)),
            max_request_bytes: 1 << 20,
        }
    }
}

/// How often an idle accept loop looks at its shutdown flag. This bounds
/// how long `stop`, `join` and `Drop` wait, and how long a connection made
/// while the loop sleeps waits for its first reply.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A bound listening socket the [`Listener`] can run: a non-blocking accept
/// that hands each connection over as blocking read and write halves with
/// the transport's stream options already applied. This is the one spot
/// per-transport options live (`TCP_NODELAY`, the read timeout that lets
/// [`serve_connection`] see an idle client).
pub trait Transport: Send + 'static {
    type Stream: Read + Write + Send + 'static;

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;

    /// The next pending connection, or `WouldBlock`.
    fn accept_halves(
        &self,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<(Self::Stream, Self::Stream)>;
}

/// Both socket families accept and prepare a connection the same way; what
/// differs is the types and one stream option.
macro_rules! transport {
    ($listener:ty => $stream:ty $(, $option:ident)?) => {
        impl Transport for $listener {
            type Stream = $stream;

            fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
                <$listener>::set_nonblocking(self, nonblocking)
            }

            fn accept_halves(
                &self,
                read_timeout: Option<Duration>,
            ) -> std::io::Result<($stream, $stream)> {
                let (stream, _) = self.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(read_timeout)?;
                $(stream.$option(true)?;)?
                Ok((stream.try_clone()?, stream))
            }
        }
    };
}

transport!(UnixListener => UnixStream);
// One small reply per request: batching hurts tail latency here.
transport!(TcpListener => TcpStream, set_nodelay);

/// The one accept loop: a thread that polls a [`Transport`] and gives every
/// connection its own thread, until the shared shutdown flag is set — by
/// [`Listener::stop`], by `Drop`, or by a client's `shutdown` command. The
/// loop polls rather than blocks in `accept`, so shutting down never
/// depends on a wake-up connection reaching the socket: that connection is
/// lost when a Unix socket's path has been unlinked or bound again by
/// another server, and a lost wake-up would hang `stop` forever.
pub struct Listener {
    accept: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl Listener {
    /// Starts accepting on `transport`. `serve` runs on a fresh thread per
    /// connection with the buffered read half and the write half.
    ///
    /// # Errors
    ///
    /// When the listening socket cannot be made non-blocking.
    pub fn spawn<T: Transport>(
        transport: T,
        shutdown: Arc<AtomicBool>,
        read_timeout: Option<Duration>,
        serve: impl Fn(BufReader<T::Stream>, T::Stream) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        transport.set_nonblocking(true)?;
        let serve = Arc::new(serve);
        let flag = Arc::clone(&shutdown);
        let accept = std::thread::spawn(move || {
            while !flag.load(SeqCst) {
                match transport.accept_halves(read_timeout) {
                    Ok((reader, writer)) => {
                        let serve = Arc::clone(&serve);
                        std::thread::spawn(move || serve(BufReader::new(reader), writer));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    // A connection that died in the backlog, or one whose
                    // options could not be set: drop it, keep accepting.
                    Err(_) => {}
                }
            }
        });
        Ok(Listener {
            accept: Some(accept),
            shutdown,
        })
    }

    /// Sets the shutdown flag and waits for the accept loop to exit.
    pub fn stop(&mut self) {
        self.shutdown.store(true, SeqCst);
        self.join();
    }

    /// Waits for the accept loop to see the shutdown flag.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running server bound to a Unix socket.
pub struct ServerHandle {
    path: PathBuf,
    listener: Listener,
    session: Arc<Session>,
}

/// Binds `socket` and serves `session` on it until shutdown, with the
/// default [`ServeOptions`]. A stale socket file at the path is replaced.
/// `fs` backs the `reload` command; pass `None` to disable reloading over
/// the wire.
pub fn serve(
    session: Arc<Session>,
    fs: Option<Arc<dyn FileProvider + Send + Sync>>,
    socket: &Path,
) -> std::io::Result<ServerHandle> {
    serve_with(session, fs, socket, ServeOptions::default())
}

/// [`serve`] with explicit client limits.
pub fn serve_with(
    session: Arc<Session>,
    fs: Option<Arc<dyn FileProvider + Send + Sync>>,
    socket: &Path,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let listener = {
        let session = Arc::clone(&session);
        let shutdown = Arc::clone(&shutdown);
        Listener::spawn(
            listener,
            Arc::clone(&shutdown),
            opts.read_timeout,
            move |mut reader, mut writer| {
                let fs = fs.as_deref();
                serve_connection(
                    &mut reader,
                    &mut writer,
                    &shutdown,
                    &opts,
                    // A degraded session retries its reload here, piggybacked
                    // on incoming traffic: recovery is automatic once the
                    // fault is fixed, with no background thread to manage.
                    || {
                        session.maybe_recover(fs.map(|f| f as &dyn FileProvider));
                    },
                    |line| handle_request(&session, fs, line, &shutdown, &opts),
                    || {},
                );
            },
        )?
    };
    Ok(ServerHandle {
        path: socket.to_path_buf(),
        listener,
        session,
    })
}

impl ServerHandle {
    /// The socket path the server is listening on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shared session (for in-process inspection alongside the socket).
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Stops accepting, waits for the accept loop, removes the socket file,
    /// and returns the final stats snapshot.
    pub fn stop(mut self) -> SessionStats {
        self.listener.stop();
        self.session.stats()
    }

    /// Waits for the server to be shut down by a client (`shutdown` command)
    /// and returns the final stats snapshot.
    pub fn join(mut self) -> SessionStats {
        self.listener.join();
        self.session.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.listener.stop();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One bounded read attempt: a complete request line, or a reason to stop.
pub(crate) enum Request {
    /// Raw bytes of one line — UTF-8 validation happens at the protocol
    /// layer so an invalid sequence gets a typed reply, not a lossy parse.
    Line(Vec<u8>),
    /// Clean EOF (or EOF mid-line; a lineless tail is not a request).
    Eof,
    /// The line exceeded the request-size cap before a newline arrived.
    TooLarge,
    /// No bytes arrived within the read timeout.
    TimedOut,
}

/// Reads one `\n`-terminated line without ever buffering more than `max`
/// bytes — the defense against a client streaming an endless line.
/// Generic over the buffered transport so the Unix-socket server and the
/// TCP hub share one bounded reader.
pub(crate) fn read_request<R: BufRead>(reader: &mut R, max: usize) -> Request {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (used, done) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Request::TimedOut
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Request::Eof,
            };
            if chunk.is_empty() {
                return Request::Eof;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&chunk[..pos]);
                    (pos + 1, true)
                }
                None => {
                    line.extend_from_slice(chunk);
                    (chunk.len(), false)
                }
            }
        };
        reader.consume(used);
        if line.len() > max {
            return Request::TooLarge;
        }
        if done {
            return Request::Line(line);
        }
    }
}

/// Serves one already-accepted connection: reads newline-delimited
/// requests, enforces every [`ServeOptions`] limit (bounded request size,
/// idle timeout, shutdown refusal, UTF-8 validation), catches panics
/// escaping the dispatcher, and writes one JSON reply per request —
/// requests pipeline naturally, replies return in request order.
///
/// This loop is transport agnostic: the Unix-socket server and the TCP hub
/// both run their connections through it, so every front end inherits the
/// same DoS hardening. The caller must arm the transport's read timeout
/// (`set_read_timeout`) so an idle read surfaces as `WouldBlock`/`TimedOut`
/// rather than blocking forever.
///
/// `before_request` runs ahead of each dispatched request (the servers use
/// it for degraded-session recovery). `dispatch` answers one request line;
/// a panic inside it is caught and counted, the client gets a structured
/// error, and only this connection dies. `on_shutdown` runs when a
/// dispatched request flips the shutdown flag.
pub fn serve_connection<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    shutdown: &AtomicBool,
    opts: &ServeOptions,
    mut before_request: impl FnMut(),
    mut dispatch: impl FnMut(&str) -> Value,
    mut on_shutdown: impl FnMut(),
) {
    let send = |writer: &mut W, reply: &Value| -> bool {
        let mut text = reply.encode();
        text.push('\n');
        writer.write_all(text.as_bytes()).is_ok()
    };
    loop {
        let raw = match read_request(reader, opts.max_request_bytes) {
            Request::Line(raw) => raw,
            Request::Eof => break,
            Request::TooLarge => {
                // Reject and close: draining the rest of an unbounded line
                // would keep the thread busy on the attacker's behalf.
                let cap = opts.max_request_bytes;
                let _ = send(
                    writer,
                    &err_reply(&format!("request too large (cap {cap} bytes)")),
                );
                break;
            }
            Request::TimedOut => {
                let _ = send(writer, &err_reply("idle timeout"));
                break;
            }
        };
        // Malformed bytes are a client mistake, not an attack on the
        // worker: reply with a typed error and keep the connection usable.
        let line = match String::from_utf8(raw) {
            Ok(line) => line,
            Err(_) => {
                if !send(writer, &err_reply("malformed request: invalid utf-8")) {
                    break;
                }
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if shutdown.load(SeqCst) {
            // Another client shut the server down: refuse and disconnect so
            // stop()/join() never wait behind this connection.
            let _ = send(writer, &err_reply("shutting down"));
            break;
        }
        before_request();
        // One poisoned query must kill this connection, not the server:
        // every other client keeps its thread and the accept loop survives.
        let reply = catch_unwind(AssertUnwindSafe(|| dispatch(&line)));
        match reply {
            Ok(reply) => {
                if !send(writer, &reply) {
                    break;
                }
            }
            Err(_) => {
                cla_obs::global()
                    .counter("cla_serve_query_panics_total")
                    .inc();
                let _ = send(writer, &err_reply("internal error: query panicked"));
                break;
            }
        }
        if shutdown.load(SeqCst) {
            // This request shut the server down.
            on_shutdown();
            break;
        }
    }
}

fn err_reply(msg: &str) -> Value {
    obj([("ok", false.into()), ("error", msg.into())])
}

/// Refreshes the `cla_serve_latency_p{50,90,99}_us` gauges from the
/// session's latency ring so the Prometheus exposition carries the same
/// percentiles the `stats` command reports. Histogram buckets alone force
/// the scraper to interpolate; the exact nearest-rank numbers are what the
/// hub's p99 gate and dashboards want.
pub fn publish_latency_percentiles(session: &Session) {
    let stats = session.stats();
    let obs = cla_obs::global();
    for (name, v) in [
        ("cla_serve_latency_p50_us", stats.p50_micros),
        ("cla_serve_latency_p90_us", stats.p90_micros),
        ("cla_serve_latency_p99_us", stats.p99_micros),
    ] {
        obs.gauge(name).set(v);
    }
}

/// The wire form of a harvested profile: per-span totals plus the
/// collapsed-stack text a client can feed straight to `flamegraph.pl`.
fn profile_reply(p: &cla_prof::Profile, stopped: bool) -> Value {
    obj([
        ("ok", true.into()),
        ("profiling", (!stopped).into()),
        ("wall_us", (p.wall.as_micros() as u64).into()),
        ("samples", p.samples.into()),
        ("collapsed", p.collapsed().into()),
        (
            "spans",
            Value::Arr(
                p.rows()
                    .iter()
                    .map(|r| {
                        obj([
                            ("span", r.name.into()),
                            ("total_us", (r.total_ns / 1_000).into()),
                            ("self_us", (r.self_ns / 1_000).into()),
                            ("samples", r.samples.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses one request line and [`answer`]s it: what the Unix-socket
/// server does per line. The client limits in `_opts` bound the transport
/// ([`serve_connection`]); no request reads them.
pub fn handle_request(
    session: &Session,
    fs: Option<&(dyn FileProvider + Send + Sync)>,
    line: &str,
    shutdown: &AtomicBool,
    _opts: &ServeOptions,
) -> Value {
    match parse(line) {
        Ok(req) => answer(session, fs, &req, shutdown),
        Err(e) => err_reply(&format!("malformed request: {e}")),
    }
}

/// Answers one parsed request against `session`. This is the whole wire
/// protocol minus transport concerns: [`handle_request`] calls it per
/// line, and the TCP hub routes session-scoped requests here after
/// resolving their `session` field (unknown request fields are ignored).
/// A `shutdown` command stores into `shutdown`; the caller decides what
/// that means for its accept loop.
pub fn answer(
    session: &Session,
    fs: Option<&(dyn FileProvider + Send + Sync)>,
    req: &Value,
    shutdown: &AtomicBool,
) -> Value {
    let Some(cmd) = req.get("cmd").and_then(Value::as_str) else {
        return err_reply("missing \"cmd\"");
    };
    match cmd {
        "points-to" => {
            let Some(var) = req.get("var").and_then(Value::as_str) else {
                return err_reply("points-to needs \"var\"");
            };
            match session.points_to(var) {
                Ok(a) => obj([
                    ("ok", true.into()),
                    ("var", a.var.as_str().into()),
                    ("resolved", a.resolved.into()),
                    (
                        "targets",
                        Value::Arr(
                            a.targets
                                .iter()
                                .map(|t| {
                                    obj([
                                        ("id", u64::from(t.id).into()),
                                        ("name", t.name.as_str().into()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("cached", a.cached.into()),
                    ("us", a.micros.into()),
                    ("epoch", a.epoch.into()),
                    ("partial", a.partial.into()),
                ]),
                Err(e) => err_reply(&e.to_string()),
            }
        }
        "alias" => {
            let (Some(a), Some(b)) = (
                req.get("a").and_then(Value::as_str),
                req.get("b").and_then(Value::as_str),
            ) else {
                return err_reply("alias needs \"a\" and \"b\"");
            };
            match session.alias(a, b) {
                Ok(ans) => obj([
                    ("ok", true.into()),
                    ("a", ans.a.as_str().into()),
                    ("b", ans.b.as_str().into()),
                    ("alias", ans.alias.into()),
                    ("cached", ans.cached.into()),
                    ("us", ans.micros.into()),
                    ("epoch", ans.epoch.into()),
                    ("partial", ans.partial.into()),
                ]),
                Err(e) => err_reply(&e.to_string()),
            }
        }
        "depend" => {
            let Some(target) = req.get("target").and_then(Value::as_str) else {
                return err_reply("depend needs \"target\"");
            };
            let non_targets: Vec<String> = req
                .get("non-targets")
                .and_then(Value::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default();
            match session.depend(target, &non_targets) {
                Ok(a) => obj([
                    ("ok", true.into()),
                    ("target", a.target.as_str().into()),
                    (
                        "dependents",
                        Value::Arr(
                            a.dependents
                                .iter()
                                .map(|d| {
                                    obj([
                                        ("name", d.name.as_str().into()),
                                        ("weak_links", u64::from(d.weak_links).into()),
                                        ("length", u64::from(d.length).into()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("cached", a.cached.into()),
                    ("us", a.micros.into()),
                    ("epoch", a.epoch.into()),
                    ("partial", a.partial.into()),
                ]),
                Err(e) => err_reply(&e.to_string()),
            }
        }
        "stats" => obj([("ok", true.into()), ("stats", session.stats().to_json())]),
        "health" => {
            let health = session.health();
            let mut pairs = vec![
                ("ok", Value::from(true)),
                ("health", health.as_str().into()),
                ("epoch", session.epoch().into()),
                ("snapshot_loaded", session.snapshot_loaded().into()),
                ("quarantined", (session.quarantined().len() as u64).into()),
            ];
            if let Some(e) = session.last_reload_error() {
                pairs.push(("last_error", e.into()));
            }
            obj(pairs)
        }
        "metrics" => {
            publish_latency_percentiles(session);
            obj([
                ("ok", true.into()),
                ("metrics", cla_obs::global().prometheus_text().into()),
            ])
        }
        "reload" => {
            let force = req.get("force").and_then(Value::as_bool).unwrap_or(false);
            match session.reload(fs.map(|f| f as &dyn FileProvider), force) {
                Ok(r) => obj([
                    ("ok", true.into()),
                    (
                        "recompiled",
                        Value::Arr(r.recompiled.iter().map(|f| f.as_str().into()).collect()),
                    ),
                    ("invalidated", r.invalidated_results.into()),
                    ("epoch", r.epoch.into()),
                    ("relinked", r.relinked.into()),
                    (
                        "quarantined",
                        Value::Arr(r.quarantined.iter().map(|f| f.as_str().into()).collect()),
                    ),
                ]),
                Err(e) => err_reply(&e.to_string()),
            }
        }
        "profile" => {
            let Some(action) = req.get("action").and_then(Value::as_str) else {
                return err_reply("profile needs \"action\" (start|stop|dump)");
            };
            match action {
                "start" => {
                    let interval_us = req
                        .get("interval_us")
                        .and_then(Value::as_u64)
                        .unwrap_or(cla_prof::DEFAULT_INTERVAL.as_micros() as u64);
                    match session.profile_start(std::time::Duration::from_micros(interval_us)) {
                        Ok(()) => obj([
                            ("ok", true.into()),
                            ("profiling", true.into()),
                            ("interval_us", interval_us.into()),
                        ]),
                        Err(e) => err_reply(&e),
                    }
                }
                "dump" | "stop" => {
                    let profile = if action == "dump" {
                        session.profile_dump()
                    } else {
                        session.profile_stop()
                    };
                    match profile {
                        Some(p) => profile_reply(&p, action == "stop"),
                        None => err_reply("no profiler running"),
                    }
                }
                other => err_reply(&format!("unknown profile action: {other}")),
            }
        }
        "shutdown" => {
            shutdown.store(true, SeqCst);
            obj([("ok", true.into()), ("stats", session.stats().to_json())])
        }
        other => err_reply(&format!("unknown cmd: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_cfront::{MemoryFs, PpOptions};
    use cla_core::SolveOptions;
    use cla_ir::LowerOptions;
    use std::sync::atomic::AtomicU32;

    static SOCKET_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_socket() -> PathBuf {
        let n = SOCKET_SEQ.fetch_add(1, SeqCst);
        std::env::temp_dir().join(format!("cla-serve-test-{}-{n}.sock", std::process::id()))
    }

    fn sample_fs() -> MemoryFs {
        let mut fs = MemoryFs::new();
        fs.add(
            "a.c",
            "int x, y; int *p, **pp; void fa(void) { p = &x; pp = &p; }",
        );
        fs.add("b.c", "extern int **pp; int *q; void fb(void) { q = *pp; }");
        fs
    }

    fn sample_server(fs: &MemoryFs) -> ServerHandle {
        let session = Session::from_files_jobs(
            fs,
            &["a.c", "b.c"],
            &PpOptions::default(),
            &LowerOptions::default(),
            SolveOptions::default(),
            None,
            1,
        )
        .unwrap();
        serve(
            Arc::new(session),
            Some(Arc::new(fs.clone())),
            &temp_socket(),
        )
        .unwrap()
    }

    fn ask(stream: &mut UnixStream, req: &str) -> Value {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    #[test]
    fn socket_roundtrip() {
        let fs = sample_fs();
        let server = sample_server(&fs);
        let mut c = UnixStream::connect(server.path()).unwrap();
        let v = ask(&mut c, r#"{"cmd":"points-to","var":"q"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let names: Vec<&str> = v
            .get("targets")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(|t| t.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, vec!["x"]);
        // Errors are replies, not disconnects.
        let v = ask(&mut c, r#"{"cmd":"points-to","var":"nope"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let v = ask(&mut c, "not json");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let v = ask(&mut c, r#"{"cmd":"alias","a":"p","b":"pp"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let v = ask(&mut c, r#"{"cmd":"stats"}"#);
        assert!(v.get("stats").and_then(|s| s.get("queries")).is_some());
        let stats = server.stop();
        assert!(stats.queries >= 2);
    }

    #[test]
    fn shutdown_over_socket() {
        let fs = sample_fs();
        let server = sample_server(&fs);
        let path = server.path().to_path_buf();
        let mut c = UnixStream::connect(&path).unwrap();
        let _ = ask(&mut c, r#"{"cmd":"points-to","var":"q"}"#);
        let v = ask(&mut c, r#"{"cmd":"shutdown"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert!(
            v.get("stats").is_some(),
            "shutdown reply carries final stats"
        );
        let stats = server.join();
        assert!(stats.queries >= 1);
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    fn sample_session(fs: &MemoryFs) -> Arc<Session> {
        Arc::new(
            Session::from_files_jobs(
                fs,
                &["a.c", "b.c"],
                &PpOptions::default(),
                &LowerOptions::default(),
                SolveOptions::default(),
                None,
                1,
            )
            .unwrap(),
        )
    }

    /// Reads to EOF; returns every line the server sent before closing.
    fn drain(stream: &mut UnixStream) -> Vec<String> {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut lines = Vec::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            lines.push(line.trim().to_string());
            line.clear();
        }
        lines
    }

    /// Runs `f` on its own thread and fails if it has not returned in 10 s:
    /// the failure mode under test is a hang.
    fn within_deadline(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        returned
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what} did not return"));
    }

    #[test]
    fn shutdown_does_not_depend_on_reaching_the_socket_path() {
        let fs = sample_fs();
        // Unlinked: nothing can connect to the path any more.
        let server = sample_server(&fs);
        std::fs::remove_file(server.path()).unwrap();
        within_deadline("stop() after the path was unlinked", move || {
            server.stop();
        });
        // Bound again: `serve_with` unlinks before binding, so a connect to
        // the path reaches the second server, never the first.
        let first = sample_server(&fs);
        let second = serve(sample_session(&fs), None, first.path()).unwrap();
        let mut c = UnixStream::connect(second.path()).unwrap();
        within_deadline("drop after the path was bound again", move || drop(first));
        // The connection made before the first server took the path's file
        // with it still answers, and the second server stops as promptly.
        let v = ask(&mut c, r#"{"cmd":"points-to","var":"q"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        within_deadline("stop() of the second server", move || {
            second.stop();
        });
    }

    #[test]
    fn oversized_request_is_rejected_and_connection_closed() {
        let fs = sample_fs();
        let server = serve_with(
            sample_session(&fs),
            None,
            &temp_socket(),
            ServeOptions {
                max_request_bytes: 1024,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut c = UnixStream::connect(server.path()).unwrap();
        // A 64 KiB line with no newline until the end: far over the cap.
        let mut giant = vec![b'{'; 64 * 1024];
        giant.push(b'\n');
        c.write_all(&giant).unwrap();
        let lines = drain(&mut c);
        assert_eq!(lines.len(), 1, "one error reply, then close: {lines:?}");
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(
            v.get("error")
                .and_then(Value::as_str)
                .unwrap()
                .contains("request too large"),
            "{lines:?}"
        );
        // A normal-sized request on a fresh connection still works.
        let mut c2 = UnixStream::connect(server.path()).unwrap();
        let v = ask(&mut c2, r#"{"cmd":"points-to","var":"q"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        server.stop();
    }

    #[test]
    fn idle_client_is_disconnected_after_timeout() {
        let fs = sample_fs();
        let server = serve_with(
            sample_session(&fs),
            None,
            &temp_socket(),
            ServeOptions {
                read_timeout: Some(std::time::Duration::from_millis(100)),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut c = UnixStream::connect(server.path()).unwrap();
        // Send nothing. The server must reply with a structured timeout
        // error and close, rather than pinning a worker thread forever.
        let t0 = std::time::Instant::now();
        let lines = drain(&mut c);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "disconnect was not prompt"
        );
        assert_eq!(lines.len(), 1, "{lines:?}");
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("idle timeout"));
        server.stop();
    }

    #[test]
    fn post_shutdown_requests_are_refused_promptly() {
        let fs = sample_fs();
        let server = sample_server(&fs);
        let mut a = UnixStream::connect(server.path()).unwrap();
        let v = ask(&mut a, r#"{"cmd":"points-to","var":"q"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let mut b = UnixStream::connect(server.path()).unwrap();
        let v = ask(&mut b, r#"{"cmd":"shutdown"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        // Client a is still connected and chatty: its next request gets a
        // structured refusal and the connection closes.
        a.write_all(b"{\"cmd\":\"points-to\",\"var\":\"q\"}\n")
            .unwrap();
        let lines = drain(&mut a);
        assert_eq!(lines.len(), 1, "{lines:?}");
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("shutting down")
        );
        server.join();
    }

    #[test]
    fn profile_wire_command_survives_concurrent_queries() {
        let fs = sample_fs();
        let server = sample_server(&fs);
        let mut c = UnixStream::connect(server.path()).unwrap();
        // dump/stop without a running profiler: structured error.
        let v = ask(&mut c, r#"{"cmd":"profile","action":"dump"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        // Start, fast interval so a short run still collects samples.
        let v = ask(
            &mut c,
            r#"{"cmd":"profile","action":"start","interval_us":200}"#,
        );
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("profiling").and_then(Value::as_bool), Some(true));
        // Double start is refused while one is running.
        let v = ask(&mut c, r#"{"cmd":"profile","action":"start"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        // Hammer the server from several clients while the profiler runs.
        let path = server.path().to_path_buf();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let mut s = UnixStream::connect(&path).unwrap();
                    for _ in 0..25 {
                        let v = ask(&mut s, r#"{"cmd":"points-to","var":"q"}"#);
                        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
                    }
                })
            })
            .collect();
        // A mid-run dump leaves the profiler running.
        let v = ask(&mut c, r#"{"cmd":"profile","action":"dump"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("profiling").and_then(Value::as_bool), Some(true));
        assert!(v.get("collapsed").and_then(Value::as_str).is_some());
        for w in workers {
            w.join().unwrap();
        }
        let v = ask(&mut c, r#"{"cmd":"profile","action":"stop"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("profiling").and_then(Value::as_bool), Some(false));
        assert!(v.get("wall_us").and_then(Value::as_u64).unwrap_or(0) > 0);
        assert!(v.get("spans").and_then(Value::as_arr).is_some());
        // Stopped: a second stop errors, and a fresh start works (balanced
        // enable/disable on the span stacks).
        let v = ask(&mut c, r#"{"cmd":"profile","action":"stop"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let v = ask(&mut c, r#"{"cmd":"profile","action":"start"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let v = ask(&mut c, r#"{"cmd":"profile","action":"stop"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        // Stats now report allocation accounting fields (zeroed unless the
        // count-alloc feature is on) alongside the slow-log gauge.
        let v = ask(&mut c, r#"{"cmd":"stats"}"#);
        let stats = v.get("stats").unwrap();
        assert!(stats
            .get("alloc_enabled")
            .and_then(Value::as_bool)
            .is_some());
        assert!(stats.get("alloc_by_span").and_then(Value::as_arr).is_some());
        server.stop();
    }

    #[test]
    fn reload_without_sources_is_an_error() {
        let fs = sample_fs();
        let session = Session::from_files_jobs(
            &fs,
            &["a.c", "b.c"],
            &PpOptions::default(),
            &LowerOptions::default(),
            SolveOptions::default(),
            None,
            1,
        )
        .unwrap();
        // Server started without a file provider: reload refused.
        let server = serve(Arc::new(session), None, &temp_socket()).unwrap();
        let mut c = UnixStream::connect(server.path()).unwrap();
        let v = ask(&mut c, r#"{"cmd":"reload"}"#);
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        server.stop();
    }
}
