//! Outputs known ahead of the run. `BENCHMARK.json` has no room for them
//! (the driver fixes its keys), so they live here. A mismatch is a failed
//! operation, not a warning: either the generator or the analysis changed
//! what it produces.

use crate::Outcome;
use cla::prelude::GenReport;
use cla::serve::json::Value;

/// The million-line tree at seed 1.
pub const MILLION_TREE_HASH: u64 = 0xc2fd_cf5e_c82e_ffbf;
pub const MILLION_LOC: usize = 1_055_596;
pub const MILLION_ASSIGNS: u64 = 1_009_707;
pub const MILLION_VARIABLES: u64 = 290_092;
pub const MILLION_RELATIONS: u64 = 7_011_283;
pub const MILLION_TOKENS: u64 = 11_710_860;

/// The mid tree (52 500 lines, 16 files) at seed 1, as the batch oracle
/// and `core::worklist::solve` both see it.
pub const MID_RELATIONS: usize = 809_341;

/// `(row, scale, points-to relations, pointer variables)` of the Table 2
/// programs the suite solves; the generator's seed is fixed, so these hold
/// for every workload seed.
const TABLE: &[(&str, f64, u64, u64)] = &[
    ("lucent", 0.7, 47_155_594, 31_706),
    ("nethack", 0.2, 1_780, 281),
];

fn field(report: &Value, key: &str) -> Option<u64> {
    report.get(key).and_then(Value::as_u64)
}

pub fn check_million(out: &mut Outcome, tree: &GenReport, rep: &Value) {
    out.check(
        tree.tree_hash == MILLION_TREE_HASH && tree.loc == MILLION_LOC,
        || {
            format!(
                "million tree is {:016x} with {} lines",
                tree.tree_hash, tree.loc
            )
        },
    );
    for (key, want) in [
        ("assigns", MILLION_ASSIGNS),
        ("variables", MILLION_VARIABLES),
        ("relations", MILLION_RELATIONS),
    ] {
        let got = field(rep, key);
        out.check(got == Some(want), || {
            format!("million {key}: {got:?}, pinned {want}")
        });
    }
}

pub fn check_mid(out: &mut Outcome, relations: usize) {
    out.check(relations == MID_RELATIONS, || {
        format!("mid relations: {relations}, pinned {MID_RELATIONS}")
    });
}

/// Holds a solved Table 2 program against its pinned relation.
pub fn check_table(
    out: &mut Outcome,
    name: &str,
    scale: f64,
    relations: Option<u64>,
    pointer_variables: Option<u64>,
) {
    let want = TABLE
        .iter()
        .find(|t| t.0 == name && t.1 == scale)
        .map(|t| (Some(t.2), Some(t.3)));
    let got = (relations, pointer_variables);
    out.check(Some(got) == want, || {
        format!("{name} at scale {scale}: {got:?}, pinned {want:?}")
    });
}
