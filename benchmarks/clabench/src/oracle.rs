//! Expected answers for the serving workloads, reached by a route the
//! server does not take: a batch `analyze` of the same files (the server
//! builds through `LinkSet` and answers from a sealed graph), itself held
//! against `core::worklist::solve`, an independent algorithm.

use crate::inputs::{shuffle, Query, HOT_NAMES};
use cla::depend::{DependOptions, DependenceAnalysis};
use cla::prelude::*;
use cla::serve::json::{obj, Value};
use cla::workload::SplitMix64;

/// Order-independent digest of a list of answers: how many, and the wrapping
/// sum of their hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: usize,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, item: &str) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(cla::cladb::fnv64(item.as_bytes()));
    }
}

pub struct Oracle {
    analysis: Analysis,
    /// Names a client may ask about; the first [`HOT_NAMES`] are the hot set
    /// (see [`Oracle::draw_hot_set`]).
    pub pool: Vec<String>,
    /// Names `Session::pointer_variables` would offer that the query
    /// commands reject as unknown (`fp6$ret`, `fp12$1`, ...): 0 once the
    /// listing and the lookup agree.
    pub rejected_names: usize,
    /// Per-object name hash, so a points-to digest is one pass over ids.
    name_hash: Vec<u64>,
}

impl Oracle {
    /// Analyzes `files` in batch, checks the relation against the worklist
    /// solver, and draws the query pool.
    pub fn build(files: &[&str], seed: u64) -> Result<Oracle, String> {
        let options = PipelineOptions {
            parallel_compile: true,
            jobs: crate::jobs(),
            ..Default::default()
        };
        let analysis = analyze(&OsFs, files, &options).map_err(|e| format!("oracle: {e}"))?;
        let db = &analysis.database;
        let program = db.to_unit().map_err(|e| format!("oracle: {e}"))?;
        if cla::core::worklist::solve(&program) != analysis.points_to {
            return Err("oracle: batch relation differs from core::worklist::solve".into());
        }
        // Every name with a non-empty points-to set, as the listing command
        // builds it; only those that resolve go into the pool.
        let mut listed: Vec<&str> = analysis
            .points_to
            .iter()
            .filter(|(_, set)| !set.is_empty())
            .map(|(o, _)| db.object(o).name.as_str())
            .collect();
        listed.sort_unstable();
        listed.dedup();
        let pool: Vec<String> = listed
            .iter()
            .filter(|n| !db.targets(n).is_empty())
            .map(|n| n.to_string())
            .collect();
        let rejected_names = listed.len() - pool.len();
        if pool.is_empty() {
            return Err("oracle: no name resolves".into());
        }
        let name_hash = db
            .objects()
            .iter()
            .map(|o| cla::cladb::fnv64(o.name.as_bytes()))
            .collect();
        let mut oracle = Oracle {
            analysis,
            pool,
            rejected_names,
            name_hash,
        };
        oracle.draw_hot_set(seed);
        Ok(oracle)
    }

    /// Orders the pool: the hot set first, then everyone else, both shuffled
    /// by the seed. Answer sizes are heavy-tailed, and each hot name takes
    /// 0.3% of all draws, so the three largest hot names alone decide the
    /// p99 round trip: 256 names drawn blindly cost up to twice as much to
    /// serve from one draw to the next. The hot set is instead every n-th
    /// name of the pool ranked by answer size — the pool's own distribution
    /// in small — and the seed decides who asks for which name when.
    fn draw_hot_set(&mut self, seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut ranked: Vec<(usize, String)> = std::mem::take(&mut self.pool)
            .into_iter()
            .map(|name| (self.points_to(&name).count, name))
            .collect();
        ranked.sort();
        let stride = (ranked.len() / HOT_NAMES).max(1);
        let offset = stride / 2;
        let (mut hot, mut rest) = (Vec::new(), Vec::new());
        for (i, (_, name)) in ranked.into_iter().enumerate() {
            if i % stride == offset && hot.len() < HOT_NAMES {
                hot.push(name);
            } else {
                rest.push(name);
            }
        }
        shuffle(&mut hot, &mut rng);
        shuffle(&mut rest, &mut rng);
        hot.extend(rest);
        self.pool = hot;
    }

    pub fn relations(&self) -> usize {
        self.analysis.report.relations
    }

    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The wire request for `q`, routed to hub tenant `session`.
    pub fn request(&self, q: &Query, session: &str) -> Value {
        let name = |i: usize| Value::from(self.pool[i].as_str());
        match *q {
            Query::PointsTo(v) => obj([
                ("cmd", "points-to".into()),
                ("session", session.into()),
                ("var", name(v)),
            ]),
            Query::Alias(a, b) => obj([
                ("cmd", "alias".into()),
                ("session", session.into()),
                ("a", name(a)),
                ("b", name(b)),
            ]),
            Query::Depend(t) => obj([
                ("cmd", "depend".into()),
                ("session", session.into()),
                ("target", name(t)),
            ]),
        }
    }

    fn points_to(&self, name: &str) -> Digest {
        let mut ids: Vec<ObjId> = self
            .analysis
            .database
            .targets(name)
            .iter()
            .flat_map(|&o| self.analysis.points_to.points_to(o).iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Digest {
            count: ids.len(),
            sum: ids
                .iter()
                .fold(0u64, |s, o| s.wrapping_add(self.name_hash[o.index()])),
        }
    }

    fn alias(&self, a: &str, b: &str) -> bool {
        let db = &self.analysis.database;
        let pts = &self.analysis.points_to;
        db.targets(a).iter().any(|&oa| {
            db.targets(b).iter().any(|&ob| {
                let (sa, sb) = (pts.points_to(oa), pts.points_to(ob));
                sa.iter().any(|t| sb.binary_search(t).is_ok())
            })
        })
    }

    /// The dependents of `name` over the batch relation. Costs as much as
    /// the query it checks (about a millisecond on the mid tree), so callers
    /// ask once per distinct target, outside the timed region.
    pub fn depend(&self, name: &str) -> Option<Digest> {
        let db = &self.analysis.database;
        let report = DependenceAnalysis::new(db, &self.analysis.points_to)
            .analyze(name, &DependOptions::default())?;
        let mut d = Digest::default();
        for dep in report.dependents() {
            d.add(&dependent_key(
                &db.object(dep.obj).name,
                u64::from(dep.cost.weak_links),
                u64::from(dep.cost.length),
            ));
        }
        Some(d)
    }

    /// Checks one reply. `depend` replies are only digested here (see
    /// [`Oracle::depend`]); the digest comes back so the caller can hold
    /// repeats of one target against each other and the first against the
    /// oracle.
    pub fn check(&self, q: &Query, reply: &Value) -> Result<Option<Digest>, String> {
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{q:?}: {}", reply.encode()));
        }
        match *q {
            Query::PointsTo(v) => {
                let mut got = Digest::default();
                for t in entries(reply, "targets")? {
                    let name = t.get("name").and_then(Value::as_str);
                    got.add(name.ok_or("target without a name")?);
                }
                let want = self.points_to(&self.pool[v]);
                if got != want {
                    return Err(format!(
                        "points-to {}: {} targets, oracle has {}",
                        self.pool[v], got.count, want.count
                    ));
                }
                Ok(None)
            }
            Query::Alias(a, b) => {
                let got = reply.get("alias").and_then(Value::as_bool);
                let want = self.alias(&self.pool[a], &self.pool[b]);
                if got != Some(want) {
                    return Err(format!(
                        "alias {} {}: {got:?}, oracle has {want}",
                        self.pool[a], self.pool[b]
                    ));
                }
                Ok(None)
            }
            Query::Depend(_) => {
                let mut got = Digest::default();
                for dep in entries(reply, "dependents")? {
                    let key = || {
                        Some(dependent_key(
                            dep.get("name")?.as_str()?,
                            dep.get("weak_links")?.as_u64()?,
                            dep.get("length")?.as_u64()?,
                        ))
                    };
                    got.add(&key().ok_or("malformed dependent")?);
                }
                Ok(Some(got))
            }
        }
    }
}

fn dependent_key(name: &str, weak_links: u64, length: u64) -> String {
    format!("{name}/{weak_links}/{length}")
}

fn entries<'a>(reply: &'a Value, list: &str) -> Result<&'a [Value], String> {
    reply
        .get(list)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("reply without `{list}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let of = |items: &[&str]| {
            let mut d = Digest::default();
            items.iter().for_each(|i| d.add(i));
            d
        };
        assert_eq!(of(&["a", "b", "c"]), of(&["c", "a", "b"]));
        assert_ne!(of(&["a", "b"]), of(&["a", "c"]));
        assert_ne!(of(&["a"]), of(&["a", "a"]));
    }
}
