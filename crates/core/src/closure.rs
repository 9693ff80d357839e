//! What one file's compile depends on, and the manifest that remembers it.
//!
//! The preprocessor is a function of three things: the options, the text
//! of every file it read, and whether each path it probed exists. A
//! [`Closure`] records the last two for one file; [`Closure::holds`] asks
//! whether a file system still agrees with them, and [`Closure::key`] folds
//! the texts into the compile-cache key. A warm build that finds the
//! closure still holding knows the key — and every output of the
//! preprocessor — without running it: the direct mode of the compile cache
//! (DESIGN.md §11), which stores closures between runs as [`Manifest`]s.

use cla_cfront::{FileProvider, Preprocessed};
use cla_cladb::container::{assemble, Container, ContainerError, Cur, Format, Put, Section};
use cla_cladb::xxh64;
use cla_ir::CompileStats;
use std::collections::HashMap;

/// One file's inputs: every source the preprocessor read (main file and
/// all headers, in read order) as `(name, source_hash(text))`, and every
/// include candidate it probed and found missing. This is the one
/// definition of "what this file depends on": [`Closure::key`] folds it into
/// the compile-cache key, and a serve session keeps it per file to decide
/// which files a reload must recompile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Closure {
    pub sources: Vec<(String, u64)>,
    /// Sorted and deduplicated: only whether each path exists matters.
    pub missing: Vec<String>,
}

impl Closure {
    /// The closure of a preprocessed unit.
    #[must_use]
    pub fn of(pre: &Preprocessed) -> Closure {
        let sources = (pre.sources.iter())
            .map(|(_, sf)| (sf.name.clone(), source_hash(&sf.src)))
            .collect();
        let mut missing = pre.missing.clone();
        missing.sort_unstable();
        missing.dedup();
        Closure { sources, missing }
    }

    /// The compile-cache key of `file` built from this closure under
    /// `options_fp`. Missing probes are not part of it: they decide whether
    /// the recorded sources are still the ones read, not what was read.
    #[must_use]
    pub fn key(&self, file: &str, options_fp: u64) -> u64 {
        let mut acc = Vec::new();
        acc.extend_from_slice(&options_fp.to_le_bytes());
        acc.extend_from_slice(&(file.len() as u64).to_le_bytes());
        acc.extend_from_slice(file.as_bytes());
        for (name, hash) in &self.sources {
            acc.extend_from_slice(&(name.len() as u64).to_le_bytes());
            acc.extend_from_slice(name.as_bytes());
            acc.extend_from_slice(&hash.to_le_bytes());
        }
        xxh64(&acc, 0)
    }

    /// Whether the file system behind `probe` still holds this closure:
    /// every recorded source hashes as it did, and every recorded missing
    /// probe is still missing. A source that is not there reads as empty
    /// text, because a `#line` directive names sources that were never
    /// read and recorded them as empty.
    pub fn holds<'a>(&'a self, probe: &mut SourceProbe<'a>) -> bool {
        let empty = source_hash("");
        (self.sources.iter()).all(|(name, was)| probe.hash(name).unwrap_or(empty) == *was)
            && self.missing.iter().all(|path| probe.hash(path).is_none())
    }
}

/// The hash a [`Closure`] records for a source's text.
fn source_hash(text: &str) -> u64 {
    xxh64(text.as_bytes(), 0)
}

/// Reads sources for [`Closure::holds`], each distinct name at most once —
/// across every closure checked through it — and counts what it hashed.
pub struct SourceProbe<'a> {
    fs: &'a dyn FileProvider,
    seen: HashMap<&'a str, Option<u64>>,
    /// Distinct sources read.
    pub sources: usize,
    /// Bytes of source hashed.
    pub bytes: u64,
}

impl<'a> SourceProbe<'a> {
    #[must_use]
    pub fn new(fs: &'a dyn FileProvider) -> SourceProbe<'a> {
        SourceProbe {
            fs,
            seen: HashMap::new(),
            sources: 0,
            bytes: 0,
        }
    }

    /// [`source_hash`] of `name`'s text, or `None` when it does not exist.
    fn hash(&mut self, name: &'a str) -> Option<u64> {
        let SourceProbe {
            fs,
            seen,
            sources,
            bytes,
        } = self;
        *seen.entry(name).or_insert_with(|| {
            let text = fs.read(name)?;
            *sources += 1;
            *bytes += text.len() as u64;
            Some(source_hash(&text))
        })
    }
}

/// The compile manifest, one instantiation of the shared container: one
/// section holding the file, its options fingerprint, its closure and the
/// [`CompileStats`] a compile of it reports.
///
/// * v1 — FNV-1a checksums and FNV-1a source hashes.
/// * v2 — [`xxh64`] for both. A v1 manifest is rejected, counted as
///   damaged, and rewritten after the file is keyed by preprocessing.
static MANIFEST_FORMAT: Format = Format {
    magic: 0x4D41_4C43, // "CLAM"
    version: 2,
    kind: "compile manifest",
    checksum_fail_metric: "cla_snap_cache_manifest_checksum_fail_total",
};

const MANIFEST_SECTION: u32 = 1;

/// What a warm build needs to know about one file without preprocessing
/// it: the closure its cached object was built from, and the stats a
/// compile of it reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    pub file: String,
    pub options_fp: u64,
    pub closure: Closure,
    pub stats: CompileStats,
}

/// Where the manifest of `file` under `options_fp` is stored: by path, not
/// by content, since the content is what it is there to tell.
#[must_use]
pub fn manifest_key(file: &str, options_fp: u64) -> u64 {
    let mut acc = options_fp.to_le_bytes().to_vec();
    acc.extend_from_slice(file.as_bytes());
    xxh64(&acc, 0)
}

impl Manifest {
    /// The manifest's file bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_str(&self.file);
        body.put_u64_le(self.options_fp);
        let s = &self.stats;
        for n in [s.source_bytes, s.preprocessed_lines as u64, s.tokens as u64] {
            body.put_u64_le(n);
        }
        body.put_u32_le(self.closure.sources.len() as u32);
        for (name, hash) in &self.closure.sources {
            body.put_str(name);
            body.put_u64_le(*hash);
        }
        body.put_u32_le(self.closure.missing.len() as u32);
        for path in &self.closure.missing {
            body.put_str(path);
        }
        assemble(&MANIFEST_FORMAT, &[Section::whole(MANIFEST_SECTION, &body)])
    }

    /// Decodes and checks manifest bytes.
    ///
    /// # Errors
    ///
    /// A typed [`ContainerError`] for anything but an intact manifest.
    pub fn decode(bytes: Vec<u8>) -> Result<Manifest, ContainerError> {
        let file = Container::open(bytes, &MANIFEST_FORMAT)?;
        let mut cur = Cur::new(file.section(MANIFEST_SECTION, "manifest")?);
        let name = cur.get_str()?.to_owned();
        let options_fp = cur.get_u64_le()?;
        let stats = CompileStats {
            source_bytes: cur.get_u64_le()?,
            preprocessed_lines: cur.get_u64_le()? as usize,
            tokens: cur.get_u64_le()? as usize,
        };
        let mut sources = Vec::new();
        for _ in 0..cur.get_u32_le()? {
            sources.push((cur.get_str()?.to_owned(), cur.get_u64_le()?));
        }
        let mut missing = Vec::new();
        for _ in 0..cur.get_u32_le()? {
            missing.push(cur.get_str()?.to_owned());
        }
        cur.finish("manifest")?;
        Ok(Manifest {
            file: name,
            options_fp,
            closure: Closure { sources, missing },
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_cfront::{preprocess_file, MemoryFs, PpOptions};

    fn fs_of(files: &[(&str, &str)]) -> MemoryFs {
        let mut fs = MemoryFs::new();
        for (p, c) in files {
            fs.add(*p, *c);
        }
        fs
    }

    fn closure(fs: &MemoryFs, opts: &PpOptions) -> Closure {
        Closure::of(&preprocess_file(fs, "src/a.c", opts).unwrap())
    }

    #[test]
    fn a_closure_holds_until_a_source_changes_or_a_probe_appears() {
        let opts = PpOptions::default().include_dir("a").include_dir("b");
        let mut fs = fs_of(&[
            ("src/a.c", "#include \"h.h\"\n#line 7 \"gen.y\"\nint a;\n"),
            ("b/h.h", "int h;\n"),
        ]);
        let c = closure(&fs, &opts);
        assert_eq!(c.missing, ["a/h.h", "src/h.h"]);
        let names: Vec<&str> = c.sources.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["src/a.c", "b/h.h", "gen.y"]);
        let holds = |fs: &MemoryFs| c.holds(&mut SourceProbe::new(fs));
        assert!(
            holds(&fs),
            "a `#line` name that is not there reads as empty"
        );

        let mut probe = SourceProbe::new(&fs);
        assert!(c.holds(&mut probe));
        assert_eq!((probe.sources, probe.bytes), (2, 38 + 7));

        let mut edited = fs.clone();
        edited.add("b/h.h", "int g;\n");
        assert!(!holds(&edited));
        let mut shadowed = fs.clone();
        shadowed.add("a/h.h", "int h;\n");
        assert!(!holds(&shadowed), "a header at an earlier candidate");
        fs.add("unrelated.h", "");
        assert!(holds(&fs));
    }

    #[test]
    fn the_key_ignores_missing_probes_and_the_manifest_round_trips() {
        let fs = fs_of(&[("src/a.c", "#include \"h.h\"\n"), ("src/h.h", "int h;\n")]);
        let found_first = closure(&fs, &PpOptions::default());
        let fs = fs_of(&[("src/a.c", "#include \"h.h\"\n"), ("i/h.h", "int h;\n")]);
        let probed = closure(&fs, &PpOptions::default().include_dir("i"));
        assert_eq!(probed.missing, ["src/h.h"]);
        assert_ne!(found_first.key("a.c", 1), probed.key("a.c", 1));
        let without_probes = Closure {
            missing: Vec::new(),
            ..probed.clone()
        };
        assert_eq!(without_probes.key("a.c", 1), probed.key("a.c", 1));
        assert_ne!(probed.key("a.c", 1), probed.key("a.c", 2));

        let m = Manifest {
            file: "src/a.c".into(),
            options_fp: 9,
            closure: probed,
            stats: CompileStats {
                source_bytes: 21,
                preprocessed_lines: 1,
                tokens: 3,
            },
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(bytes.clone()).unwrap(), m);
        for cut in 0..bytes.len() {
            assert!(
                Manifest::decode(bytes[..cut].to_vec()).is_err(),
                "cut {cut}"
            );
        }
        assert_ne!(manifest_key("a.c", 1), manifest_key("a.c", 2));
        assert_ne!(manifest_key("a.c", 1), manifest_key("b.c", 1));
    }
}
