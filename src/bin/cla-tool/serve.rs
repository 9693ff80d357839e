//! The serving seam: `serve` and `hub` open sessions, `query` asks them.

use crate::{Args, Out};
use cla::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The one recipe `serve` and `hub` turn their inputs into: a lone `.clao`
/// is a linked program; anything else is C sources, where a directory
/// stands for the `.c` files in it and goes first on the include path.
fn session_source(
    paths: &[String],
    mut pp: PpOptions,
    lower: LowerOptions,
    lenient: bool,
) -> Result<SessionSource, String> {
    if let [path] = paths {
        if path.ends_with(".clao") {
            return Ok(SessionSource::Object { path: path.into() });
        }
    }
    let (mut files, mut dirs) = (Vec::new(), Vec::new());
    for path in paths {
        if !Path::new(path).is_dir() {
            files.push(path.clone());
            continue;
        }
        let mut found: Vec<String> = std::fs::read_dir(path)
            .map_err(|e| format!("{path}: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path().to_string_lossy().into_owned())
            .filter(|p| p.ends_with(".c"))
            .collect();
        if found.is_empty() {
            return Err(format!("no .c files in {path}"));
        }
        found.sort();
        files.extend(found);
        dirs.push(path.clone());
    }
    dirs.append(&mut pp.include_dirs);
    pp.include_dirs = dirs;
    Ok(SessionSource::Files {
        fs: Arc::new(OsFs),
        files,
        pp,
        lower,
        lenient,
    })
}

pub fn serve(args: &[String], out: &mut Out) -> Result<(), String> {
    let mut a = Args::new(args);
    let socket = a
        .take_value("--socket")?
        .ok_or("serve needs --socket PATH")?;
    let pp = a.pp_options()?;
    let lower = a.lower_options();
    let lenient = a.take_flag("--lenient");
    let jobs: usize = a.take_number("--jobs")?.unwrap_or(1);
    let snapshot_dir = a.take_value("--snapshot")?;
    let pos = a.positional();
    if pos.is_empty() {
        return Err("serve needs a .clao file or C sources".to_string());
    }

    // `reload` recompiles changed sources, or re-reads a served `.clao`: a
    // corrupt rewrite degrades (last-good answers) instead of wedging the
    // server.
    let spec = SessionSpec {
        source: session_source(&pos, pp, lower, lenient)?,
        solve: SolveOptions::default(),
        snapshot_dir: snapshot_dir.map(PathBuf::from),
        jobs,
    };
    let session = Session::open(&spec).map_err(|e| e.to_string())?;
    for q in session.quarantined() {
        eprintln!("cla-tool: quarantined {}: {}", q.file, q.reason);
    }
    if spec.snapshot_dir.is_some() {
        eprintln!(
            "cla-tool: snapshot {}",
            if session.snapshot_loaded() {
                "loaded (warm start, solve skipped)"
            } else {
                "solved (cold start; saved once sealed)"
            }
        );
    }
    let handle = cla::serve::serve(Arc::new(session), spec.fs().cloned(), Path::new(&socket))
        .map_err(|e| format!("cannot bind `{socket}`: {e}"))?;
    eprintln!("cla-tool: serving on {socket} (send {{\"cmd\":\"shutdown\"}} to stop)");
    let stats = handle.join();
    writeln!(out, "{}", stats.to_json().encode())
}

pub fn query(args: &[String], out: &mut Out) -> Result<(), String> {
    use cla::serve::json::{obj, Value};

    let mut a = Args::new(args);
    let socket = a.take_value("--socket")?;
    let tcp = a.take_value("--tcp")?;
    let session = a.take_value("--session")?;
    let endpoint = match (socket, tcp) {
        (Some(_), Some(_)) => return Err("--socket and --tcp are mutually exclusive".to_string()),
        (Some(path), None) => Endpoint::Unix(PathBuf::from(path)),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        (None, None) => return Err("query needs --socket PATH or --tcp HOST:PORT".to_string()),
    };
    let non_targets = a.take_values("--non-target")?;
    let force = a.take_flag("--force");
    let interval_us: Option<u64> = a.take_parsed("--interval-us", |us| {
        format!("--interval-us: not a number: `{us}`")
    })?;
    let pos = a.positional();

    let request = match pos.first().map(String::as_str) {
        Some("points-to") => {
            let var = pos.get(1).ok_or("points-to needs a variable name")?;
            obj([("cmd", "points-to".into()), ("var", var.as_str().into())])
        }
        Some("alias") => {
            let (x, y) = match (pos.get(1), pos.get(2)) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err("alias needs two variable names".to_string()),
            };
            obj([
                ("cmd", "alias".into()),
                ("a", x.as_str().into()),
                ("b", y.as_str().into()),
            ])
        }
        Some("depend") => {
            let target = pos.get(1).ok_or("depend needs a target name")?;
            obj([
                ("cmd", "depend".into()),
                ("target", target.as_str().into()),
                (
                    "non-targets",
                    Value::Arr(non_targets.iter().map(|n| n.as_str().into()).collect()),
                ),
            ])
        }
        Some(cmd @ ("stats" | "metrics" | "health" | "sessions" | "shutdown")) => {
            obj([("cmd", cmd.into())])
        }
        Some("reload") => obj([("cmd", "reload".into()), ("force", force.into())]),
        Some("profile") => {
            let action = match pos.get(1).map(String::as_str) {
                Some(a @ ("start" | "stop" | "dump")) => a,
                _ => return Err("profile needs an action (start, stop, dump)".to_string()),
            };
            let interval = interval_us.map(|us| ("interval_us", us.into()));
            obj([("cmd", "profile".into()), ("action", action.into())].into_iter().chain(interval))
        }
        Some(other) => return Err(format!("unknown query `{other}`")),
        None => return Err(
            "query needs a command (points-to, alias, depend, stats, metrics, reload, health, profile, sessions, shutdown)"
                .to_string(),
        ),
    };
    // A hub routes by the `session` field; the Unix-socket server ignores
    // unknown fields, so attaching it is harmless there.
    let request = match (request, &session) {
        (Value::Obj(mut map), Some(name)) => {
            map.insert("session".to_string(), name.as_str().into());
            Value::Obj(map)
        }
        (request, _) => request,
    };

    // The typed client turns a refusal into a hint, not a backtrace.
    let mut client = Client::connect(&endpoint).map_err(|e| e.to_string())?;
    let v = client.request(&request).map_err(|e| e.to_string())?;
    // Non-zero exit when the server reports an error. A `metrics` reply
    // carries multi-line Prometheus text; print it unescaped.
    if v.get("ok").and_then(Value::as_bool) == Some(false) {
        writeln!(out, "{}", v.encode())?;
        return Err(v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("server error")
            .to_string());
    }
    match v.get("metrics").and_then(Value::as_str) {
        Some(text) => write!(out, "{text}")?,
        None => writeln!(out, "{}", v.encode())?,
    }
    Ok(())
}

/// Starts the multi-tenant TCP hub: each `NAME=PATH` positional opens one
/// named session over a `.clao` object, a C source file, or a directory
/// of C sources. With `--snapshot-root DIR` every session evicts to (and
/// warm-starts from) `DIR/NAME/graph.clasnap`.
pub fn hub(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let listen = a
        .take_value("--listen")?
        .unwrap_or_else(|| "127.0.0.1:4577".to_string());
    let capacity: usize = a.take_number("--capacity")?.unwrap_or(8);
    let max_inflight: u64 = a.take_number("--max-inflight")?.unwrap_or(64);
    let rebuild_slots: usize = a.take_number("--rebuild-slots")?.unwrap_or(2);
    let jobs: usize = a.take_number("--jobs")?.unwrap_or(1);
    let lenient = a.take_flag("--lenient");
    let pp = a.pp_options()?;
    let snapshot_root = a.take_value("--snapshot-root")?;
    let pos = a.positional();
    if pos.is_empty() {
        return Err("hub needs at least one NAME=PATH session".to_string());
    }

    let hub = Arc::new(Hub::new(HubOptions {
        capacity,
        max_inflight,
        rebuild_slots,
        ..HubOptions::default()
    }));
    for entry in &pos {
        let (name, path) = entry
            .split_once('=')
            .ok_or_else(|| format!("session `{entry}` is not NAME=PATH"))?;
        let spec = SessionSpec {
            source: session_source(
                &[path.to_string()],
                pp.clone(),
                LowerOptions::default(),
                lenient,
            )
            .map_err(|e| format!("session `{name}`: {e}"))?,
            solve: SolveOptions::default(),
            snapshot_dir: (snapshot_root.as_ref()).map(|root| Path::new(root).join(name)),
            jobs,
        };
        let (epoch, warm) = hub
            .open(name, spec)
            .map_err(|e| format!("session `{name}`: {e}"))?;
        eprintln!(
            "cla-tool: opened session {name} (epoch {epoch}{})",
            if warm { ", warm from snapshot" } else { "" }
        );
    }

    let handle =
        cla::hub::hub_serve(hub, &listen).map_err(|e| format!("cannot bind `{listen}`: {e}"))?;
    eprintln!(
        "cla-tool: hub serving {} sessions on {} (capacity {capacity}; send {{\"cmd\":\"shutdown\"}} to stop)",
        pos.len(),
        handle.addr(),
    );
    handle.join();
    Ok(())
}
