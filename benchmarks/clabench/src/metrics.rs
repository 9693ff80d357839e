//! The metric and workload tables. `BENCHMARK.json` at the repository root
//! lists the same names, units, directions and bounds; a unit test holds the
//! two together.

use cla::serve::json::Value;
use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "million_cold",
        why: "cold batch analysis of the generated million-line tree: the title claim, front-end-bound",
    },
    Workload {
        name: "million_warm",
        why: "same tree, every object cached and the graph snapshotted: parser, lowering and solver do nothing",
    },
    Workload {
        name: "table3_analyze",
        why: "open and solve the pre-linked lucent program: solver only, dominated by set materialisation",
    },
    Workload {
        name: "edit_reload",
        why: "edit one file of a resident session, reload, ask: the write side of link, solve, seal and snapshot",
    },
    Workload {
        name: "hub_queries",
        why: "2 closed-loop TCP clients query one hub tenant, 80% hot names: the read side of serve, hub and depend",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics carry the share of the parent's median by which
    /// they may worsen; per-layer metrics carry none.
    pub bound: Option<f64>,
    /// Counts that must repeat exactly for a fixed seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn measured(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. One operation is one batch analysis
/// (`million_cold`, `million_warm`, `table3_analyze`), one edit → reload →
/// correct answer (`edit_reload`), or one query round trip (`hub_queries`).
///
/// Every bound is the largest the driver allows. On the shared 2-core
/// sandbox the benchmark was written on, ten runs of one workload spread by
/// up to 8% of their median (interquartile range; `million_cold`, three 5 s
/// reps a run), and a bound is only safe at three times the spread.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// One layer is one crate; `_s` is busy time summed over the serial trace
/// run, `_us` busy time per call.
pub const PER_LAYER: &[Def] = &[
    measured("genc.gen_s", "s"),
    count("genc.loc", "lines", Lower),
    count("genc.tree_hash", "hash48", Lower),
    measured("cfront.pp_s", "s"),
    measured("cfront.parse_s", "s"),
    count("cfront.tokens", "count", Lower),
    count("cfront.bytes_in", "bytes", Lower),
    count("cfront.files_failed", "count", Lower),
    measured("ir.lower_s", "s"),
    count("ir.assigns", "count", Lower),
    count("ir.objects", "count", Lower),
    measured("cladb.fold_s", "s"),
    measured("cladb.link_finish_s", "s"),
    measured("cladb.write_object_s", "s"),
    count("cladb.object_bytes", "bytes", Lower),
    measured("cladb.open_s", "s"),
    measured("cladb.to_unit_s", "s"),
    count("cladb.assigns_loaded", "count", Lower),
    count("cladb.assigns_in_file", "count", Lower),
    measured("core.fixpoint_s", "s"),
    measured("core.extract_s", "s"),
    measured("core.seal_s", "s"),
    count("core.passes", "count", Lower),
    count("core.edges_added", "count", Lower),
    count("core.unifications", "count", Lower),
    count("core.getlvals_calls", "count", Lower),
    count("core.cache_hits", "count", Higher),
    count("core.relations", "count", Lower),
    count("core.pointer_variables", "count", Lower),
    measured("snap.encode_s", "s"),
    count("snap.bytes", "bytes", Lower),
    measured("snap.save_s", "s"),
    measured("snap.load_s", "s"),
    measured("snap.cache_load_s", "s"),
    count("snap.cache_hits", "count", Higher),
    count("snap.cache_misses", "count", Lower),
    measured("serve.reload_s", "s"),
    count("serve.recompiled_files", "count", Lower),
    measured("serve.decode_us", "us"),
    measured("serve.session_hit_us", "us"),
    measured("serve.session_miss_us", "us"),
    count("serve.result_cache_hit_ratio", "ratio", Higher),
    measured("serve.handle_us", "us"),
    measured("serve.encode_us", "us"),
    measured("serve.reply_bytes_mean", "bytes"),
    measured("serve.reply_bytes_p99", "bytes"),
    count("serve.pool_rejected_names", "count", Lower),
    measured("depend.analyze_us", "us"),
    count("depend.dependents_mean", "count", Lower),
    measured("hub.dispatch_us", "us"),
    measured("hub.transport_us", "us"),
    measured("hub.rehydrate_ms", "ms"),
    count("hub.busy_refusals", "count", Lower),
    count("hub.evictions", "count", Lower),
    count("hub.rehydrations", "count", Lower),
    measured("trace.serial_wall_s", "s"),
    measured("trace.unattributed_s", "s"),
    measured("trace.harness_s", "s"),
    measured("trace.overhead_ratio", "ratio"),
];

/// Measured values of one run, keyed by metric name. Every name of the
/// table the run reports (`END_TO_END` untraced, `PER_LAYER` traced) is
/// present from the start; a per-layer metric a workload does not exercise
/// stays 0.
pub struct Metrics {
    defs: &'static [Def],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: defs.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    /// Records `value`; a name outside the table is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    pub fn defs(&self) -> &'static [Def] {
        self.defs
    }

    /// `{name: {"value": v, "unit": u}}`, the shape the driver reads.
    pub fn to_json(&self) -> Value {
        let map = self
            .defs
            .iter()
            .map(|d| {
                let entry: BTreeMap<String, Value> = [
                    ("value".to_string(), Value::Num(self.values[d.name])),
                    ("unit".to_string(), Value::Str(d.unit.to_string())),
                ]
                .into();
                (d.name.to_string(), Value::Obj(entry))
            })
            .collect();
        Value::Obj(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla::serve::json::parse;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(text.trim()).expect("BENCHMARK.json parses")
    }

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name, 64), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name, 64), "bad workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let m = manifest();
        let listed =
            |key: &str| -> Vec<Value> { m.get(key).and_then(Value::as_arr).unwrap().to_vec() };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = listed(key);
            assert_eq!(entries.len(), defs.len(), "{key} length");
            for (entry, d) in entries.iter().zip(defs) {
                assert_eq!(text(entry, "name"), d.name);
                assert_eq!(text(entry, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(entry, "better"), d.better.as_str(), "{}", d.name);
                let bound = entry.get("bound").map(|b| match b {
                    Value::Num(n) => *n,
                    other => panic!("bound of {} is {other:?}", d.name),
                });
                assert_eq!(bound, d.bound, "{}", d.name);
            }
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(entry, "name"), w.name);
            assert_eq!(text(entry, "why"), w.why);
        }
        assert_eq!(m.get("paths").and_then(Value::as_arr).unwrap().len(), 1);
        assert_eq!(
            m.get("run_seconds").and_then(Value::as_u64),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn metrics_json_round_trips_through_the_wire_parser() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.8127);
        m.set("op_p50_ms", 1203.4);
        let parsed = parse(&m.to_json().encode()).unwrap();
        assert_eq!(parsed, m.to_json());
        let setup = parsed.get("setup_s").unwrap();
        assert_eq!(setup.get("value"), Some(&Value::Num(0.8127)));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(parsed.as_obj().unwrap().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_are_refused() {
        Metrics::new(END_TO_END).set("latency_ms", 1.0);
    }
}
