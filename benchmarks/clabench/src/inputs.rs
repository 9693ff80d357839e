//! Everything the program under test reads: generated source trees, the
//! pre-linked Table 2 program, the edit stream and the query stream. All of
//! it is a function of the workload seed.

use cla::prelude::*;
use cla::workload::SplitMix64;
use std::io;
use std::path::Path;

/// A `cla-genc` tree: the rates of `profiles/million.toml`, which the
/// benchmark owns a copy of so that its input does not move with the repo's
/// profile files.
#[derive(Clone, Copy)]
pub struct TreeSpec {
    pub name: &'static str,
    pub total_loc: usize,
    pub files: usize,
    pub struct_types: usize,
}

/// How much each workload does. `--quick` trades the paper-scale inputs for
/// ones that finish the whole suite in seconds.
pub struct Sizes {
    /// `million_cold`, `million_warm`.
    pub big: TreeSpec,
    /// `edit_reload`, `hub_queries`: the same file size as `big`
    /// (3 281 lines per file), one twentieth of the files.
    pub mid: TreeSpec,
    /// `table3_analyze`: the Table 2 row and the scale it is generated at.
    pub table: (&'static str, f64),
    /// Caps on the timed loops; the full suite is bounded by `--seconds`
    /// alone.
    pub max_reps: usize,
    pub max_edits: usize,
    pub max_requests: usize,
    /// Requests the trace run replays in-process.
    pub trace_requests: usize,
    /// Edits the trace run makes (half untraced, half traced).
    pub trace_edits: usize,
    /// How often set-up runs when one pass is cheap; the median is reported.
    pub setup_passes: usize,
}

pub fn sizes(quick: bool) -> Sizes {
    if quick {
        let small = TreeSpec {
            name: "small",
            total_loc: 12_000,
            files: 8,
            struct_types: 12,
        };
        Sizes {
            big: small,
            mid: small,
            table: ("nethack", 0.2),
            max_reps: 1,
            max_edits: 5,
            max_requests: 500,
            trace_requests: 200,
            trace_edits: 2,
            setup_passes: 1,
        }
    } else {
        Sizes {
            big: TreeSpec {
                name: "million",
                total_loc: 1_050_000,
                files: 320,
                struct_types: 96,
            },
            mid: TreeSpec {
                name: "mid",
                total_loc: 52_500,
                files: 16,
                struct_types: 96,
            },
            table: ("lucent", 0.7),
            max_reps: usize::MAX,
            max_edits: usize::MAX,
            max_requests: usize::MAX,
            trace_requests: 2_000,
            trace_edits: 10,
            setup_passes: 3,
        }
    }
}

pub fn profile(spec: &TreeSpec) -> Profile {
    Profile {
        name: spec.name.to_string(),
        seed: 1,
        total_loc: spec.total_loc,
        files: spec.files,
        call_fanout: 3.0,
        call_depth: 8,
        cross_file_fraction: 0.15,
        indirect_call_rate: 0.03,
        pointer_density: 0.30,
        struct_types: spec.struct_types,
        struct_field_ptr_mix: 0.5,
        global_traffic: 0.06,
    }
}

/// A generated tree on disk.
pub struct Tree {
    /// The `.c` files, sorted: the order every route compiles and links in.
    pub files: Vec<String>,
    pub report: GenReport,
}

impl Tree {
    pub fn refs(&self) -> Vec<&str> {
        self.files.iter().map(String::as_str).collect()
    }
}

pub fn generate_tree(spec: &TreeSpec, seed: u64, dir: &Path) -> io::Result<Tree> {
    let profile = profile(spec);
    let report = generate_to_dir(&profile, seed, dir)?;
    let mut files: Vec<String> = (0..profile.files)
        .map(|i| {
            dir.join(cla::genc::file_name(&profile, i))
                .display()
                .to_string()
        })
        .collect();
    files.sort();
    Ok(Tree { files, report })
}

/// Writes the file list a child process compiles, one path per line.
pub fn write_manifest(path: &Path, files: &[String]) -> io::Result<()> {
    std::fs::write(path, files.join("\n"))
}

pub fn read_manifest(path: &Path) -> io::Result<Vec<String>> {
    Ok(std::fs::read_to_string(path)?
        .lines()
        .map(str::to_string)
        .collect())
}

/// A `cla-workload` Table 2 program, compiled and linked to object bytes.
///
/// The relation count of these programs is chaotic in the generator's seed
/// (lucent at scale 0.5: 10 M to 29 M relations over ten seeds, with the
/// solve time following it), which would make no two seeds comparable. The
/// generator therefore keeps its calibrated default seed, and the workload
/// seed decides the order in which the units are linked: object numbering
/// and database layout change, the relation must not.
pub struct TableProgram {
    pub object: Vec<u8>,
    pub assigns: usize,
    pub objects: usize,
}

pub fn build_table_program(name: &str, scale: f64, seed: u64) -> Result<TableProgram, String> {
    let spec = by_name(name).ok_or_else(|| format!("no Table 2 row called {name}"))?;
    let workload = generate(spec, &GenOptions::at_scale(scale));
    let mut fs = MemoryFs::new();
    for (path, text) in &workload.files {
        fs.add(path.clone(), text.clone());
    }
    let sources = workload.source_files();
    // Two compile threads: set-up should not dominate the run it prepares.
    let compile = |files: &[&str]| -> Result<Vec<CompiledUnit>, String> {
        files
            .iter()
            .map(|f| {
                compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                    .map(|(unit, _)| unit)
                    .map_err(|e| format!("{f}: {e}"))
            })
            .collect()
    };
    let (front, back) = sources.split_at(sources.len() / 2);
    let (front, back) = std::thread::scope(|scope| {
        let back = scope.spawn(|| compile(back));
        (
            compile(front),
            back.join().expect("compile thread panicked"),
        )
    });
    let mut units = front?;
    units.extend(back?);
    shuffle(&mut units, &mut SplitMix64::seed_from_u64(seed));
    let (program, _) = cla::cladb::link(&units, "a.out");
    Ok(TableProgram {
        object: write_object(&program),
        assigns: program.assigns.len(),
        objects: program.objects.len(),
    })
}

pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// One edit: the text appended to file `file` of the tree, and the answer
/// that then has to come back.
pub struct Edit {
    pub file: usize,
    pub text: String,
    pub pointer: String,
    pub pointee: String,
}

impl Edit {
    /// Saves the edit, as an editor would, before the clock starts.
    pub fn save(&self, files: &[String]) -> Result<(), String> {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&files[self.file])
            .and_then(|mut f| f.write_all(self.text.as_bytes()))
            .map_err(|e| format!("{}: {e}", files[self.file]))
    }

    /// The answer must be exactly the new pointee, and the reload must have
    /// recompiled exactly the edited file.
    pub fn verdict(
        &self,
        files: &[String],
        reload: &cla::serve::ReloadReport,
        answer: &cla::serve::PointsToAnswer,
    ) -> Result<(), String> {
        let names: Vec<&str> = answer.targets.iter().map(|t| t.name.as_str()).collect();
        if names != [self.pointee.as_str()] {
            return Err(format!("{}: answered {names:?}", self.pointer));
        }
        if reload.recompiled != [files[self.file].as_str()] {
            return Err(format!(
                "{}: recompiled {:?}",
                self.pointer, reload.recompiled
            ));
        }
        Ok(())
    }
}

/// The edits of one run. Which file each goes to is drawn from the seed; what
/// it says is fixed, so the answer is known by construction.
pub struct EditStream {
    rng: SplitMix64,
    files: usize,
    made: usize,
}

impl EditStream {
    pub fn new(seed: u64, files: usize) -> EditStream {
        EditStream {
            rng: SplitMix64::seed_from_u64(seed),
            files,
            made: 0,
        }
    }
}

impl Iterator for EditStream {
    type Item = Edit;

    fn next(&mut self) -> Option<Edit> {
        let i = self.made;
        self.made += 1;
        Some(Edit {
            file: self.rng.random_range(0..self.files),
            text: format!(
                "int bench_x{i}; int *bench_p{i}; void bench_edit{i}(void){{ bench_p{i} = &bench_x{i}; }}\n"
            ),
            pointer: format!("bench_p{i}"),
            pointee: format!("bench_x{i}"),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    PointsTo(usize),
    Alias(usize, usize),
    Depend(usize),
}

/// The codebase `edit_reload` and `hub_queries` keep resident is the mid tree
/// of this seed, whatever the workload seed, which drives what happens to it:
/// which file each edit goes to, who asks for which name when. A tree of this
/// size differs too much from its siblings to stand in for them — the largest
/// points-to sets move the p99 round trip from 2.8 ms to 7.0 ms over ten
/// trees, the relation count moves an edit from 97 ms to 124 ms — and a
/// number that follows the input cannot be held against a bound.
pub const SERVED_TREE_SEED: u64 = 1;

/// Names drawn often enough to stay in a session's 1024-entry result cache.
pub const HOT_NAMES: usize = 256;

/// One client's request stream: 70% `points-to`, 20% `alias`, 10% `depend`;
/// each name comes from the hot set (the first [`HOT_NAMES`] of the pool)
/// four times out of five, and from the whole pool otherwise.
pub struct QueryStream {
    rng: SplitMix64,
    pool: usize,
}

impl QueryStream {
    pub fn new(seed: u64, client: usize, pool: usize) -> QueryStream {
        assert!(pool > 0, "empty query pool");
        QueryStream {
            rng: SplitMix64::seed_from_u64(
                seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            pool,
        }
    }

    fn name(&mut self) -> usize {
        if self.rng.random_range(0..5u32) < 4 {
            self.rng.random_range(0..HOT_NAMES.min(self.pool))
        } else {
            self.rng.random_range(0..self.pool)
        }
    }
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        Some(match self.rng.random_range(0..10u32) {
            0..=6 => Query::PointsTo(self.name()),
            7..=8 => Query::Alias(self.name(), self.name()),
            _ => Query::Depend(self.name()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_stream_repeats_for_a_seed_and_follows_the_mix() {
        let take = |seed, client| -> Vec<Query> {
            QueryStream::new(seed, client, 5_000).take(4_000).collect()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
        let qs = take(7, 0);
        let share =
            |f: fn(&Query) -> bool| qs.iter().filter(|q| f(q)).count() as f64 / qs.len() as f64;
        assert!((share(|q| matches!(q, Query::PointsTo(_))) - 0.7).abs() < 0.03);
        assert!((share(|q| matches!(q, Query::Depend(_))) - 0.1).abs() < 0.03);
        let hot = share(|q| matches!(q, Query::PointsTo(n) if *n < HOT_NAMES));
        // 70% points-to, of which 80% + 20% * 256/5000 are hot.
        assert!((hot - 0.7 * 0.81).abs() < 0.03, "hot share {hot}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let run = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            shuffle(&mut v, &mut SplitMix64::seed_from_u64(seed));
            v
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        let mut sorted = run(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn edits_name_their_own_answer_and_follow_the_seed() {
        let e = EditStream::new(1, 16).nth(12).unwrap();
        assert!(e.text.contains("bench_p12 = &bench_x12;"));
        assert_eq!(
            (e.pointer.as_str(), e.pointee.as_str()),
            ("bench_p12", "bench_x12")
        );
        let files =
            |seed| -> Vec<usize> { EditStream::new(seed, 16).take(40).map(|e| e.file).collect() };
        assert_eq!(files(1), files(1));
        assert_ne!(files(1), files(2));
        assert!(files(1).iter().all(|&f| f < 16));
    }
}
