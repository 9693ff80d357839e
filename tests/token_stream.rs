//! The preprocessed token stream, pinned.
//!
//! The front end was rebuilt around interned `Copy` tokens, a byte-scanning
//! lexer and a preprocessor fast lane for lines no macro touches. These
//! tests hold the rebuilt pipeline to what the `String`-token,
//! expand-every-line one produced: the constants below are fingerprints
//! computed at the commit before the rebuild (spelling, location, layout
//! flags of every token, plus the unit's `PpStats`), over four inputs —
//! the bundled example, a `ci-small` generated tree, a Table 2 program, and
//! `tests/fixtures/pp`, the one input that uses macros for more than an
//! include guard. A second test pushes every line of the same inputs
//! through the macro expander and requires what the fast lane emitted.

use cla::cfront::pp::{self, spell};
use cla::cfront::{MemoryFs, PpOptions, Preprocessed};
use cla::prelude::{by_name, generate, generate_with, GenOptions, Profile};
use std::path::Path;

/// One pinned input: its files as `(path, text)`, and the units to
/// preprocess.
struct Input {
    name: &'static str,
    files: Vec<(String, String)>,
    units: Vec<String>,
    pin: u64,
}

impl Input {
    fn fs(&self) -> MemoryFs {
        let mut fs = MemoryFs::new();
        for (path, text) in &self.files {
            fs.add(path.clone(), text.clone());
        }
        fs
    }
}

/// Every file under `dir`, named relative to it.
fn read_tree(dir: &Path, prefix: &str, into: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let name = format!("{prefix}{}", path.file_name().unwrap().to_str().unwrap());
        if path.is_dir() {
            read_tree(&path, &format!("{name}/"), into);
        } else {
            into.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
}

fn from_disk(name: &'static str, rel: &str, units: &[&str], pin: u64) -> Input {
    let mut files = Vec::new();
    read_tree(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join(rel),
        "",
        &mut files,
    );
    Input {
        name,
        files,
        units: units.iter().map(|u| u.to_string()).collect(),
        pin,
    }
}

fn inputs() -> Vec<Input> {
    let mut all = vec![
        from_disk(
            "examples/c",
            "examples/c",
            &["main.c", "store.c"],
            0xfc66_5146_1993_5aac,
        ),
        from_disk(
            "tests/fixtures/pp",
            "tests/fixtures/pp",
            &["main.c"],
            0x1596_b9dc_e811_fca9,
        ),
    ];

    let profile =
        Profile::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles/ci-small.toml"))
            .unwrap();
    let mut files = Vec::new();
    generate_with(&profile, profile.seed, &mut |name, text| {
        files.push((name.to_owned(), text.to_owned()));
        Ok(())
    })
    .unwrap();
    let units = files
        .iter()
        .map(|(name, _)| name.clone())
        .filter(|name| name.ends_with(".c"))
        .collect();
    all.push(Input {
        name: "profiles/ci-small.toml",
        files,
        units,
        pin: 0x5e9e_6071_f91f_5586,
    });

    let nethack = generate(
        by_name("nethack").unwrap(),
        &GenOptions {
            scale: 0.2,
            ..Default::default()
        },
    );
    all.push(Input {
        name: "nethack at 0.2",
        units: nethack
            .source_files()
            .iter()
            .map(|f| f.to_string())
            .collect(),
        files: nethack.files,
        pin: 0x8beb_586d_2cae_51c3,
    });
    all
}

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Folds everything observable about one preprocessed unit into `h`.
fn fold(h: &mut Fnv, pre: &Preprocessed) {
    for t in pre.tokens.iter() {
        h.bytes(spell(t, pre.tokens.interner()).as_bytes());
        h.bytes(&[0]);
        h.num(u64::from(t.loc.file.0));
        h.num(u64::from(t.loc.line));
        h.num(u64::from(t.loc.col));
        h.bytes(&[u8::from(t.first_on_line), u8::from(t.space_before)]);
    }
    let s = &pre.stats;
    for v in [
        s.files_read as u64,
        s.bytes_in,
        s.tokens_out as u64,
        s.lines_out as u64,
        s.macro_expansions as u64,
    ] {
        h.num(v);
    }
}

#[test]
fn token_streams_match_the_pins_taken_before_the_rebuild() {
    for input in inputs() {
        let fs = input.fs();
        let mut h = Fnv::new();
        for unit in &input.units {
            let pre = pp::preprocess(&fs, unit, &PpOptions::default())
                .unwrap_or_else(|e| panic!("{}: {unit}: {e}", input.name));
            fold(&mut h, &pre);
        }
        assert_eq!(
            h.0, input.pin,
            "{}: fingerprint {:#018x}, pinned {:#018x}",
            input.name, h.0, input.pin
        );
    }
}

/// The name of a macro that expands to nothing; no input mentions it.
const NOP: &str = "CLA_TEST_NOP";

/// `text` with [`NOP`] appended to every physical line that ends a logical
/// line which is not a directive. The appended token sits after everything
/// else on the line, so no other token moves; and because it is a defined
/// macro, the line cannot take the fast lane.
fn force_expander(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut continues = false;
    let mut directive = false;
    for line in text.split_inclusive('\n') {
        let body = line.trim_end_matches(['\n', '\r']);
        if !continues {
            directive = body.trim_start().starts_with('#');
        }
        continues = body.ends_with('\\');
        out.push_str(body);
        if !continues && !directive {
            out.push(' ');
            out.push_str(NOP);
        }
        out.push_str(&line[body.len()..]);
    }
    out
}

/// What the fast lane emits for a line is what the expander would have
/// emitted for it: preprocess each input as it is, then again with every
/// non-directive line forced through the expander, and compare the streams.
#[test]
fn fast_lane_and_expander_agree_on_every_line() {
    for input in inputs() {
        assert!(
            input.files.iter().all(|(_, text)| !text.contains(NOP)),
            "{} mentions {NOP}",
            input.name
        );
        let plain_fs = input.fs();
        let mut forced_fs = MemoryFs::new();
        for (path, text) in &input.files {
            forced_fs.add(path.clone(), force_expander(text));
        }
        let forced_opts = PpOptions::default().define(NOP, "");
        for unit in &input.units {
            let plain = pp::preprocess(&plain_fs, unit, &PpOptions::default()).unwrap();
            let forced = pp::preprocess(&forced_fs, unit, &forced_opts)
                .unwrap_or_else(|e| panic!("{}: {unit}, forced: {e}", input.name));
            let describe = |pre: &Preprocessed| -> Vec<String> {
                pre.tokens
                    .iter()
                    .map(|t| {
                        format!(
                            "{} {:?} {} {}",
                            spell(t, pre.tokens.interner()),
                            t.loc,
                            t.first_on_line,
                            t.space_before
                        )
                    })
                    .collect()
            };
            assert_eq!(
                describe(&plain),
                describe(&forced),
                "{}: {unit}",
                input.name
            );
            assert_eq!(plain.stats.tokens_out, forced.stats.tokens_out);
            assert_eq!(plain.stats.lines_out, forced.stats.lines_out);
            assert_eq!(plain.stats.files_read, forced.stats.files_read);
            // The forcing worked: each logical line that emitted anything
            // cost at least one expansion more. (Where no macro is used and
            // no line is continued, logical lines are `lines_out`.)
            let forced_lines = forced.stats.macro_expansions - plain.stats.macro_expansions;
            let at_least = if plain.stats.macro_expansions == 0 {
                plain.stats.lines_out
            } else {
                1
            };
            assert!(
                forced_lines >= at_least,
                "{}: {unit}: {forced_lines} lines forced, {at_least} expected",
                input.name
            );
        }
    }
}
