//! The TCP front end: [`cla_serve::Listener`] running every connection
//! through [`cla_serve::serve_connection`], plus the hub-level command
//! dispatcher.

use crate::registry::{Hub, HubError};
use cla_cfront::{FileProvider, OsFs, PpOptions};
use cla_core::SolveOptions;
use cla_ir::LowerOptions;
use cla_serve::json::{obj, parse, Value};
use cla_serve::{answer, serve_connection, Listener, SessionSource, SessionSpec};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

fn err_reply(msg: &str) -> Value {
    obj([("ok", false.into()), ("error", msg.into())])
}

impl HubError {
    /// The wire form: a structured error, with the session echoed so a
    /// pipelining client can match the refusal to its request.
    fn to_reply(&self) -> Value {
        let mut reply = err_reply(&self.to_string());
        let name = match self {
            HubError::UnknownSession(n)
            | HubError::DuplicateSession(n)
            | HubError::InvalidName(n) => Some(n.as_str()),
            HubError::Busy { name, .. } => Some(name.as_str()),
            HubError::Build(_) => None,
        };
        if let (Some(n), Value::Obj(map)) = (name, &mut reply) {
            map.insert("session".to_string(), n.into());
        }
        if let (HubError::Busy { .. }, Value::Obj(map)) = (self, &mut reply) {
            map.insert("busy".to_string(), true.into());
        }
        reply
    }
}

/// Answers one request line against the hub, parsing it once. Lifecycle
/// commands (`open`, `close`, `sessions`, `metrics`, `shutdown`) are
/// handled here; anything else must name a `session`, and the parsed
/// request is [`answer`]ed by that tenant (which ignores the extra
/// `session` field).
pub fn dispatch(hub: &Hub, line: &str) -> Value {
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => return err_reply(&format!("malformed request: {e}")),
    };
    let Some(cmd) = req.get("cmd").and_then(Value::as_str) else {
        return err_reply("missing \"cmd\"");
    };
    match cmd {
        "open" => handle_open(hub, &req),
        "close" => {
            let Some(name) = req.get("session").and_then(Value::as_str) else {
                return err_reply("close needs \"session\"");
            };
            match hub.close(name) {
                Ok(()) => obj([
                    ("ok", true.into()),
                    ("session", name.into()),
                    ("closed", true.into()),
                ]),
                Err(e) => e.to_reply(),
            }
        }
        "sessions" => {
            let infos = hub.sessions();
            let resident = infos.iter().filter(|i| i.state != "evicted").count();
            obj([
                ("ok", true.into()),
                ("capacity", hub.options().capacity.into()),
                ("resident", resident.into()),
                (
                    "sessions",
                    Value::Arr(
                        infos
                            .iter()
                            .map(|i| {
                                let mut pairs = vec![
                                    ("session", Value::from(i.name.as_str())),
                                    ("state", i.state.into()),
                                    ("epoch", i.epoch.into()),
                                    ("inflight", i.inflight.into()),
                                    ("requests", i.requests.into()),
                                    ("busy_rejections", i.busy_rejections.into()),
                                    ("evictions", i.evictions.into()),
                                    ("rehydrations", i.rehydrations.into()),
                                ];
                                if let Some(h) = i.health {
                                    pairs.push(("health", h.into()));
                                }
                                if let Some(s) = i.snapshot_loaded {
                                    pairs.push(("snapshot_loaded", s.into()));
                                }
                                if let Some((edges, bytes)) = i.flow_index {
                                    pairs.push(("flow_index_edges", edges.into()));
                                    pairs.push(("flow_index_bytes", bytes.into()));
                                }
                                obj(pairs)
                            })
                            .collect(),
                    ),
                ),
            ])
        }
        "metrics" => {
            hub.publish_tenant_percentiles();
            obj([
                ("ok", true.into()),
                ("metrics", cla_obs::global().prometheus_text().into()),
            ])
        }
        "shutdown" => {
            hub.shutdown_flag().store(true, SeqCst);
            obj([("ok", true.into()), ("sessions", hub.tenant_count().into())])
        }
        _ => {
            let Some(name) = req.get("session").and_then(Value::as_str) else {
                return err_reply(&format!(
                    "cmd {cmd:?} needs \"session\" (hub-level cmds: open, close, sessions, metrics, shutdown)"
                ));
            };
            let routed = hub.with_session(name, |session, fs| {
                // Degraded tenants retry their reload on incoming traffic,
                // exactly like the single-session server.
                session.maybe_recover(fs.map(|f| f as &dyn FileProvider));
                // Tenant commands must not stop the hub: `shutdown` never
                // routes here, and nothing else writes the flag.
                let sink = AtomicBool::new(false);
                answer(session, fs, &req, &sink, &hub.options().serve)
            });
            match routed {
                Ok(mut reply) => {
                    if let Value::Obj(map) = &mut reply {
                        map.insert("session".to_string(), name.into());
                    }
                    reply
                }
                Err(e) => e.to_reply(),
            }
        }
    }
}

/// Builds a [`SessionSpec`] from an `open` request and registers it.
/// Sources are read through [`OsFs`]: the hub serves codebases that live
/// on its own filesystem (tests register in-memory tenants through
/// [`Hub::open`] directly).
fn handle_open(hub: &Hub, req: &Value) -> Value {
    let Some(name) = req.get("session").and_then(Value::as_str) else {
        return err_reply("open needs \"session\"");
    };
    let str_list = |key: &str| -> Vec<String> {
        req.get(key)
            .and_then(Value::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    let snapshot_dir = req
        .get("snapshot_dir")
        .and_then(Value::as_str)
        .map(PathBuf::from);
    let jobs = req.get("jobs").and_then(Value::as_u64).unwrap_or(1) as usize;
    let source = if let Some(object) = req.get("object").and_then(Value::as_str) {
        SessionSource::Object {
            path: PathBuf::from(object),
        }
    } else {
        let files = str_list("files");
        if files.is_empty() {
            return err_reply("open needs \"files\" (or \"object\")");
        }
        let pp = PpOptions {
            include_dirs: str_list("include"),
            ..PpOptions::default()
        };
        SessionSource::Files {
            fs: Arc::new(OsFs),
            files,
            pp,
            lower: LowerOptions::default(),
            lenient: req.get("lenient").and_then(Value::as_bool).unwrap_or(false),
        }
    };
    let spec = SessionSpec {
        source,
        solve: SolveOptions::default(),
        snapshot_dir,
        jobs,
    };
    match hub.open(name, spec) {
        Ok((epoch, snapshot_loaded)) => obj([
            ("ok", true.into()),
            ("session", name.into()),
            ("epoch", epoch.into()),
            ("snapshot_loaded", snapshot_loaded.into()),
        ]),
        Err(e) => e.to_reply(),
    }
}

/// A running hub bound to a TCP address. Dropping it stops the hub.
pub struct HubHandle {
    addr: SocketAddr,
    listener: Listener,
    hub: Arc<Hub>,
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
/// serves `hub` on it until shutdown. Every connection runs through
/// [`cla_serve::serve_connection`], so TCP clients are subject to the
/// same idle-timeout and request-size limits as Unix-socket clients.
pub fn hub_serve(hub: Arc<Hub>, addr: &str) -> std::io::Result<HubHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let listener = {
        let hub = Arc::clone(&hub);
        Listener::spawn(
            listener,
            hub.shutdown_handle(),
            hub.options().serve.read_timeout,
            move |mut reader, mut writer| {
                serve_connection(
                    &mut reader,
                    &mut writer,
                    hub.shutdown_flag(),
                    &hub.options().serve,
                    || {},
                    |line| dispatch(&hub, line),
                    || {},
                );
            },
        )?
    };
    Ok(HubHandle {
        addr,
        listener,
        hub,
    })
}

impl HubHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared hub (for in-process registration alongside the socket).
    pub fn hub(&self) -> &Arc<Hub> {
        &self.hub
    }

    /// Stops accepting and waits for the accept loop.
    pub fn stop(mut self) {
        self.listener.stop();
    }

    /// Waits for a client's `shutdown` command to stop the hub.
    pub fn join(mut self) {
        self.listener.join();
    }
}
