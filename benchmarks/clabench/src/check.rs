//! `clabench check`: determinism and pinned outputs. `clabench compare`:
//! two result files of one build, pair by pair against the bounds.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{traced, Scratch};
use cla::serve::json::{parse, Value};

/// Runs every workload's trace twice at one seed and holds every `exact`
/// count of the first run against the second: the trees (through
/// `genc.tree_hash` and `genc.loc`), the front end's and the solver's
/// counters, and the relation itself. At seed 1 and full size the runs also
/// check the pinned outputs. A difference is a failed operation.
pub fn check(seed: u64, quick: bool) -> Result<bool, String> {
    let scratch = Scratch::new()?;
    let mut ok = true;
    for w in WORKLOADS {
        let ctx = scratch.ctx(seed, crate::RUN_SECONDS as f64, quick, w.name);
        let mut runs = Vec::new();
        for _ in 0..2 {
            ctx.fresh_work()?;
            runs.push(traced::run(&ctx, w.name).map_err(|e| format!("{}: {e}", w.name))?);
        }
        let exact = || PER_LAYER.iter().filter(|d| d.exact);
        let differing: Vec<String> = exact()
            .map(|d| {
                (
                    d.name,
                    runs[0].metrics.get(d.name),
                    runs[1].metrics.get(d.name),
                )
            })
            .filter(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("{name} {a} vs {b}"))
            .collect();
        let good = differing.is_empty() && runs.iter().all(|r| r.correct());
        println!(
            "{:<16} {}  ({} exact counts repeated, {} checks each run)",
            w.name,
            if good { "ok" } else { "FAILED" },
            exact().count() - differing.len(),
            runs[0].attempted
        );
        differing.iter().for_each(|d| println!("  differs: {d}"));
        for f in runs.iter().flat_map(|r| &r.failures) {
            println!("  FAILED: {f}");
        }
        ok &= good;
    }
    Ok(ok)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn value_of(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    match doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
    {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// Prints, per (metric, workload) present in both files, both values, their
/// relative difference and the bound. End-to-end pairs must agree within
/// the bound, exact counts exactly, and neither run may have failed.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs two result files".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut ok = true;
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in WORKLOADS {
        for doc in [&a, &b] {
            if let Some(false) = doc
                .get("workloads")
                .and_then(|x| x.get(w.name))
                .and_then(|x| x.get("correct"))
                .and_then(Value::as_bool)
            {
                println!("{:<16} a run reported failed operations", w.name);
                ok = false;
            }
        }
        for d in END_TO_END
            .iter()
            .chain(PER_LAYER.iter().filter(|d| d.exact))
        {
            let (Some(x), Some(y)) = (value_of(&a, w.name, d.name), value_of(&b, w.name, d.name))
            else {
                continue;
            };
            // How much worse the second run reads, as a share of the smaller
            // value: in an A/A either run may be the one that reads worse.
            let worse = match d.better {
                Better::Lower => (y - x) / x.min(y),
                Better::Higher => (x - y) / x.min(y),
            };
            let (limit, within) = match d.bound {
                Some(bound) => (format!("{:.0}%", bound * 100.0), worse.abs() <= bound),
                None => ("exact".to_string(), x == y),
            };
            if d.bound.is_some() || !within {
                println!(
                    "{:<16} {:<28} {:>16.4} {:>16.4} {:>+8.1}% {:>7}{}",
                    w.name,
                    d.name,
                    x,
                    y,
                    worse * 100.0,
                    limit,
                    if within { "" } else { "  OUTSIDE" }
                );
            }
            ok &= within;
        }
    }
    Ok(ok)
}
