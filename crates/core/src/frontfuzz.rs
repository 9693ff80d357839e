//! Frontend fault harness: hostile-input fuzzing of the compile phase.
//!
//! The sibling of `cla_cladb::fault` (object format) and
//! `cla_snap::fault` (snapshot format), aimed at the layer that consumes
//! *source bytes*: preprocessor, lexer, parser, and lowering. Mutants of a
//! seed corpus — byte flips, truncations, token splices from other corpus
//! files, deep-nesting injections, macro bombs, and include splices — are
//! pushed through the real [`cla_ir::compile_file`] under a
//! [`FrontendLimits`] budget, asserting the quarantine invariant:
//!
//! > every input produces a typed [`CError`](cla_cfront::CError) or a valid
//! > compiled unit — never a panic, and never an unbounded stall past the
//! > configured deadline.
//!
//! Determinism: the mutant stream is a pure function of `(corpus, seed)`,
//! via the same [`SplitMix64`] generator the database harness uses, so a
//! failing iteration number reproduces exactly.

use crate::pipeline::panic_message;
use cla_cfront::{FrontendLimits, MemoryFs, PpOptions};
use cla_cladb::fault::{with_quiet_panics, SplitMix64};
use cla_ir::{compile_file, LowerOptions};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Budget used by the harness unless the caller overrides it: tight enough
/// that nesting/macro bombs die in milliseconds, loose enough that every
/// legitimate corpus file compiles untouched.
#[must_use]
pub fn fuzz_limits() -> FrontendLimits {
    FrontendLimits {
        macro_fuel: 200_000,
        max_tokens: 4_000_000,
        max_parser_depth: 64,
        deadline_ms: 2_000,
    }
}

/// Outcome tally of one fuzz run. `ok()` is the CI gate.
#[derive(Debug, Default)]
pub struct FrontFuzzReport {
    /// Mutants compiled end to end.
    pub exercised: u64,
    /// Mutants that compiled to a valid unit.
    pub compiled: u64,
    /// Mutants rejected with a typed error.
    pub rejected: u64,
    /// Typed rejections that were budget overruns specifically.
    pub budget_rejected: u64,
    /// Invariant violations: `(iteration, file, panic message)`.
    pub panics: Vec<(u64, String, String)>,
    /// Invariant violations: `(iteration, file, wall time)` for compiles
    /// that blew far past the configured deadline.
    pub overruns: Vec<(u64, String, Duration)>,
}

impl FrontFuzzReport {
    /// True when no mutant panicked or stalled past the deadline.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.panics.is_empty() && self.overruns.is_empty()
    }
}

impl fmt::Display for FrontFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "front-fuzz: {} mutants exercised, {} compiled, {} rejected ({} budget)",
            self.exercised, self.compiled, self.rejected, self.budget_rejected
        )?;
        for (it, file, msg) in &self.panics {
            writeln!(f, "  PANIC at iter {it} ({file}): {msg}")?;
        }
        for (it, file, dt) in &self.overruns {
            writeln!(f, "  DEADLINE OVERRUN at iter {it} ({file}): {dt:?}")?;
        }
        if self.ok() {
            write!(f, "front-fuzz OK: no panics, no deadline overruns")?;
        } else {
            write!(
                f,
                "front-fuzz FAILED: {} panics, {} overruns",
                self.panics.len(),
                self.overruns.len()
            )?;
        }
        Ok(())
    }
}

/// A preprocessor bomb: 2^24 expansions requested, far past the harness
/// fuel, so splicing it anywhere must yield a typed budget error.
const MACRO_BOMB: &str = "#define B0 x x\n#define B1 B0 B0\n#define B2 B1 B1\n\
#define B3 B2 B2\n#define B4 B3 B3\n#define B5 B4 B4\n#define B6 B5 B5\n\
#define B7 B6 B6\n#define B8 B7 B7\n#define B9 B8 B8\n#define B10 B9 B9\n\
#define B11 B10 B10\n#define B12 B11 B11\nint bomb = B12;\n";

/// Produces one deterministic mutant of the corpus: the mutated main file's
/// bytes plus its name. `rng` drives every choice.
fn mutate(corpus: &[(String, String)], rng: &mut SplitMix64) -> (String, Vec<u8>) {
    let (name, text) = &corpus[rng.below(corpus.len() as u64) as usize];
    let mut bytes = text.clone().into_bytes();
    match rng.below(6) {
        // Seeded byte flips: 1..=16 single-bit corruptions.
        0 => {
            for _ in 0..=rng.below(16) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        // Truncation at an arbitrary offset.
        1 => {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.truncate(at);
        }
        // Token splice: a random slice of a random corpus file dropped at
        // a random position (models merge damage and editor accidents).
        2 => {
            let (_, donor) = &corpus[rng.below(corpus.len() as u64) as usize];
            let d = donor.as_bytes();
            if !d.is_empty() {
                let a = rng.below(d.len() as u64) as usize;
                let b = (a + rng.below(256) as usize).min(d.len());
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                bytes.splice(at..at, d[a..b].iter().copied());
            }
        }
        // Deep nesting: up to 2^15 open parens/braces, which must hit the
        // parser depth budget, not the thread's stack guard.
        3 => {
            let depth = 1u64 << (5 + rng.below(11));
            let ch = if rng.below(2) == 0 { b'(' } else { b'{' };
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.splice(at..at, std::iter::repeat_n(ch, depth as usize));
        }
        // Macro bomb prepended to the unit: dies on expansion fuel.
        4 => {
            bytes.splice(0..0, MACRO_BOMB.bytes());
        }
        // Include splice: a random corpus file, possibly the mutant itself
        // (a direct cycle) — must yield a typed include error, never an
        // infinite include stack.
        5 => {
            let (target, _) = &corpus[rng.below(corpus.len() as u64) as usize];
            let inc = format!("#include \"{target}\"\n");
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.splice(at..at, inc.bytes());
        }
        _ => unreachable!(),
    }
    (name.clone(), bytes)
}

/// Runs `iters` mutants of `corpus` through the real compile path under
/// `limits`, recording every panic and deadline overrun. The corpus is a
/// list of `(file name, C source)` pairs; every file is visible to the
/// preprocessor, so `#include` splices resolve against real text.
#[must_use]
pub fn run_front_fuzz(
    corpus: &[(String, String)],
    seed: u64,
    iters: u64,
    limits: &FrontendLimits,
) -> FrontFuzzReport {
    assert!(!corpus.is_empty(), "front-fuzz needs a non-empty corpus");
    let mut report = FrontFuzzReport::default();
    let opts = PpOptions {
        limits: limits.clone(),
        ..PpOptions::default()
    };
    let lower = LowerOptions::default();
    // A stalled compile is only a violation well past the deadline: budget
    // checks are periodic (every N lines / parser entries), so overruns are
    // bounded by one check interval plus scheduler noise, not zero.
    let grace = Duration::from_millis(limits.deadline_ms.max(1) * 4 + 2_000);
    with_quiet_panics(|| {
        let mut rng = SplitMix64(seed);
        for it in 0..iters {
            let (name, bytes) = mutate(corpus, &mut rng);
            let mutant = String::from_utf8_lossy(&bytes).into_owned();
            let mut fs = MemoryFs::new();
            for (n, t) in corpus {
                if n != &name {
                    fs.add(n.clone(), t.clone());
                }
            }
            fs.add(name.clone(), mutant);
            report.exercised += 1;
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                compile_file(&fs, &name, &opts, &lower).map(|_| ())
            }));
            let dt = t.elapsed();
            if limits.deadline_ms != 0 && dt > grace {
                report.overruns.push((it, name.clone(), dt));
            }
            match outcome {
                Ok(Ok(())) => report.compiled += 1,
                Ok(Err(e)) => {
                    report.rejected += 1;
                    if e.is_budget() {
                        report.budget_rejected += 1;
                    }
                }
                Err(payload) => report
                    .panics
                    .push((it, name.clone(), panic_message(payload))),
            }
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<(String, String)> {
        vec![
            (
                "a.c".to_string(),
                "#include \"h.h\"\nint x, *p;\nvoid f(void) { p = &x; }\n".to_string(),
            ),
            (
                "b.c".to_string(),
                "extern int *p; int *q;\nvoid g(void) { q = p; }\n".to_string(),
            ),
            (
                "h.h".to_string(),
                "#define PTR(t) t *\ntypedef struct P { int v; } P;\n".to_string(),
            ),
        ]
    }

    #[test]
    fn mutants_never_panic_or_stall() {
        let report = run_front_fuzz(&corpus(), 42, 400, &fuzz_limits());
        assert_eq!(report.exercised, 400);
        assert!(report.ok(), "{report}");
        // The mutation mix must actually exercise both outcomes.
        assert!(report.rejected > 0, "{report}");
        assert!(report.compiled > 0, "{report}");
    }

    #[test]
    fn bombs_are_budget_rejections() {
        // Seeds chosen only for coverage: across a few hundred mutants the
        // bomb/nesting arms fire many times, and each must land in the
        // typed-budget bucket rather than panic or stall.
        let report = run_front_fuzz(&corpus(), 7, 300, &fuzz_limits());
        assert!(report.ok(), "{report}");
        assert!(report.budget_rejected > 0, "{report}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run_front_fuzz(&corpus(), 9, 100, &fuzz_limits());
        let b = run_front_fuzz(&corpus(), 9, 100, &fuzz_limits());
        assert_eq!(a.exercised, b.exercised);
        assert_eq!(a.compiled, b.compiled);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.budget_rejected, b.budget_rejected);
    }
}
