//! Deterministic fault injection for the object-file format.
//!
//! The database invariant under arbitrary byte damage is:
//!
//! > `Database::open` / `block` either return `Ok` with data identical to the
//! > pristine file, or a typed [`DbError`] — never a panic, never a silently
//! > wrong answer.
//!
//! This module damages a real object file in four deterministic ways and
//! checks the invariant for each mutant:
//!
//! * **truncation sweep** — cut the file at every byte offset (a torn write);
//! * **seeded bit flips** — flip 1–4 random bits per iteration (bit rot);
//! * **section-table shuffle** — swap section-table entries, with and without
//!   a recomputed header checksum (buggy tooling / tampering; the tagged
//!   section checksums must still catch a consistent swap);
//! * **resealed reference** (object format only) — push one id out of its
//!   table, set an `is_indirect` byte to a value no writer emits, shuffle or
//!   repeat the target pairs or append a byte to a section, then recompute
//!   every checksum over the damage (a buggy or hostile writer). No checksum
//!   can catch these: only the range and shape checks stand between such a
//!   file and an out-of-bounds index in whatever reads it, so an admitted
//!   mutant must also survive its consumer.
//!
//! Everything is seeded ([`SplitMix64`]) so a failing mutant reproduces from
//! the report alone. `cla-tool db-fuzz` drives this over `examples/c/`.
//!
//! The mutators know nothing about what the bytes mean: they take the
//! container [`Format`] and an `exercise` function that judges one mutant.
//! This module supplies both for the object format ([`Oracle`],
//! [`run_object_fuzz`]); `cla-snap` supplies them for `.clasnap` files, the
//! container's other instantiation, and runs the very same battery.

use crate::container::{checksum, Container, Cur, Format, Header, Put, SectionEntry};
use crate::format::{DbError, SectionId, FORMAT};
use crate::reader::Database;
use crate::record::{
    decode_assign, ids, pairs, put_assign, put_pair, BlockEntry, ObjectRecord, SigRecord,
    ASSIGN_RECORD_SIZE, PAIR_SIZE,
};
use crate::unit::UnitView;
use crate::writer::assemble_object;
use cla_ir::{CompiledUnit, FunSig, ObjId, PrimAssign};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// The split-mix 64 generator — tiny, seedable, statistically fine for
/// fuzzing. The same generator the serve tests use; no external RNG crates.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// What one damaged input did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Typed `DbError` from open or from a later read — the desired outcome.
    Rejected,
    /// Opened and decoded bytes identical to the pristine file (damage in
    /// padding or a flip that landed back on the same value).
    Identical,
    /// Opened "successfully" but produced data that differs from the
    /// pristine file — an integrity hole.
    WrongData,
    /// A panic escaped the reader — a robustness hole.
    Panicked,
}

/// Aggregate result of a fuzz run. `wrong` and `panics` carry bounded,
/// reproducible descriptions (mutation kind + parameters) of every failure.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Mutants exercised.
    pub exercised: u64,
    /// Mutants rejected with a typed error.
    pub rejected: u64,
    /// Mutants whose decode matched the pristine file exactly.
    pub identical: u64,
    /// Descriptions of wrong-data failures (bounded to 20).
    pub wrong: Vec<String>,
    /// Descriptions of escaped panics (bounded to 20).
    pub panics: Vec<String>,
}

impl FuzzReport {
    /// True when no mutant broke the invariant.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.wrong.is_empty() && self.panics.is_empty()
    }

    /// Folds one mutant's verdict into the tally.
    pub fn record(&mut self, verdict: Verdict, describe: impl FnOnce() -> String) {
        self.exercised += 1;
        match verdict {
            Verdict::Rejected => self.rejected += 1,
            Verdict::Identical => self.identical += 1,
            Verdict::WrongData => {
                if self.wrong.len() < 20 {
                    self.wrong.push(describe());
                }
            }
            Verdict::Panicked => {
                if self.panics.len() < 20 {
                    self.panics.push(describe());
                }
            }
        }
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} mutants: {} rejected, {} identical, {} wrong, {} panicked",
            self.exercised,
            self.rejected,
            self.identical,
            self.wrong.len(),
            self.panics.len()
        )?;
        for w in &self.wrong {
            write!(f, "\n  WRONG  {w}")?;
        }
        for p in &self.panics {
            write!(f, "\n  PANIC  {p}")?;
        }
        Ok(())
    }
}

/// The pristine file's fully decoded contents, used as the correctness
/// oracle: any mutant that opens must decode to exactly this.
pub struct Oracle {
    unit: CompiledUnit,
    /// Every target name with its objects, by name.
    targets: Vec<(String, Vec<ObjId>)>,
}

/// What `db`'s target lookups answer, by name.
fn target_table(db: &Database) -> Vec<(&str, &[ObjId])> {
    let mut table: Vec<_> = (db.target_names())
        .map(|name| (name, db.targets(name)))
        .collect();
    table.sort_unstable();
    table
}

impl Oracle {
    /// Fully decodes `pristine`; fails if the input itself is not valid.
    pub fn new(pristine: &[u8]) -> Result<Oracle, DbError> {
        let db = Database::open(pristine.to_vec())?;
        db.verify_all()?;
        Ok(Oracle {
            unit: db.to_unit()?,
            targets: (target_table(&db).into_iter())
                .map(|(name, objs)| (name.to_string(), objs.to_vec()))
                .collect(),
        })
    }

    /// Opens and fully decodes a mutant, comparing against the pristine
    /// contents.
    pub fn exercise(&self, bytes: Vec<u8>) -> Verdict {
        self.exercise_and(bytes, |_| ())
    }

    /// [`Oracle::exercise`], then `consume` over every mutant that was
    /// admitted — a solver, which indexes by the ids it reads. A panic in it
    /// is the mutant's verdict.
    pub fn exercise_and(&self, bytes: Vec<u8>, consume: impl FnOnce(&Database)) -> Verdict {
        judge(|| -> Result<bool, DbError> {
            let db = Database::open(bytes)?;
            // Touch every read path: statics, every demand-loaded block, the
            // full re-decode, every target lookup.
            db.static_assigns()?;
            for id in db.ids() {
                db.block(id)?;
            }
            let unit = db.to_unit()?;
            consume(&db);
            let pristine = (self.targets.iter()).map(|(n, o)| (n.as_str(), o.as_slice()));
            Ok(unit.objects == self.unit.objects
                && unit.assigns == self.unit.assigns
                && unit.funsigs == self.unit.funsigs
                && unit.files == self.unit.files
                && target_table(&db).into_iter().eq(pristine))
        })
    }
}

/// Runs one mutant's full decode and turns the outcome into a [`Verdict`]:
/// `decode` says whether what it read equals the pristine data. Panics are
/// caught and reported; [`with_quiet_panics`] keeps the expected catches
/// silent.
pub fn judge<E>(decode: impl FnOnce() -> Result<bool, E>) -> Verdict {
    match catch_unwind(AssertUnwindSafe(decode)) {
        Ok(Ok(true)) => Verdict::Identical,
        Ok(Ok(false)) => Verdict::WrongData,
        Ok(Err(_)) => Verdict::Rejected,
        Err(_) => Verdict::Panicked,
    }
}

/// Runs `f` with the default panic hook replaced by a silent one, so the
/// expected `catch_unwind`s inside don't spam stderr with backtraces.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Truncates the file at every byte offset and exercises each prefix.
pub fn truncation_sweep(
    pristine: &[u8],
    exercise: impl Fn(Vec<u8>) -> Verdict,
    report: &mut FuzzReport,
) {
    for cut in 0..pristine.len() {
        let verdict = exercise(pristine[..cut].to_vec());
        report.record(verdict, || format!("truncate at {cut}"));
    }
}

/// Flips 1–4 seeded random bits per iteration and exercises the mutant.
pub fn bit_flip_round(
    pristine: &[u8],
    exercise: impl Fn(Vec<u8>) -> Verdict,
    seed: u64,
    iters: u64,
    report: &mut FuzzReport,
) {
    let mut rng = SplitMix64(seed);
    for it in 0..iters {
        let mut bytes = pristine.to_vec();
        let nflips = 1 + rng.below(4);
        let mut flips = Vec::with_capacity(nflips as usize);
        for _ in 0..nflips {
            let pos = rng.below(bytes.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            bytes[pos] ^= 1 << bit;
            flips.push((pos, bit));
        }
        let verdict = exercise(bytes);
        report.record(verdict, || {
            format!("bit flip iter {it} (seed {seed}): flips {flips:?}")
        });
    }
}

/// Swaps two random section-table entries of a `format` file. On odd
/// iterations the header checksum is recomputed so the swap is only
/// catchable by the id-tagged per-section checksums; on even iterations the
/// stale header checksum must reject it first.
pub fn section_shuffle_round(
    pristine: &[u8],
    format: &Format,
    exercise: impl Fn(Vec<u8>) -> Verdict,
    seed: u64,
    iters: u64,
    report: &mut FuzzReport,
) {
    let Ok(header) = Header::read(pristine, format) else {
        return;
    };
    let nsections = header.table.len();
    if nsections < 2 {
        return;
    }
    let bodies = &pristine[header.encoded_len()..];
    let mut rng = SplitMix64(seed ^ 0x5ec7_1045);
    for it in 0..iters {
        let a = rng.below(nsections as u64) as usize;
        let mut b = rng.below(nsections as u64) as usize;
        if a == b {
            b = (b + 1) % nsections;
        }
        // Swap the (offset, len, checksum) payloads but keep the ids in
        // place, so section id A now points at section B's bytes together
        // with B's matching checksum — only an id-tagged checksum or a
        // structural decode error can catch this.
        let mut mutant = header.clone();
        let (ea, eb) = (header.table[a], header.table[b]);
        mutant.table[a] = SectionEntry { id: ea.id, ..eb };
        mutant.table[b] = SectionEntry { id: eb.id, ..ea };
        let fixed = it % 2 == 1;
        if fixed {
            mutant.seal();
        }
        let verdict = exercise([&mutant.encode(format), bodies].concat());
        report.record(verdict, || {
            format!(
                "section shuffle iter {it} (seed {seed}): swapped entries {a}<->{b}, \
                 header checksum {}",
                if fixed { "recomputed" } else { "stale" }
            )
        });
    }
}

/// One edit to the nine section bodies of an object file ([`SectionId::ALL`]
/// order), given how far past its table's end to push the id it damages.
struct Damage {
    what: String,
    apply: Box<Edit>,
}
type Edit = dyn Fn(&mut [Vec<u8>], u32);

/// Position of `id`'s body among the nine.
fn body_of(id: SectionId) -> usize {
    (SectionId::ALL.iter().position(|&s| s == id)).expect("ALL lists every section")
}

/// Every reference `pristine` holds, each with the edit that pushes it out
/// of range *through the record's codec*: an encoded record is decoded, one
/// field changed, and the record encoded back. Then the shape damages: the
/// target pairs out of order, one trailing byte per section.
fn reference_damages(view: &UnitView<'_>, bodies: &[Vec<u8>]) -> Vec<Damage> {
    let nstrings = view.strings.len() as u32;
    let nobjs = view.object_count() as u32;
    let nfiles = view.files().len() as u32;
    let mut out: Vec<Damage> = Vec::new();
    // A field of each record of an array of `size`-byte records starting at
    // `from` in `section`'s body.
    let mut array = |section: SectionId,
                     from: usize,
                     size: usize,
                     field: &'static str,
                     limit: u32,
                     set: fn(&[u8], u32) -> Vec<u8>| {
        let body = body_of(section);
        for at in (from..bodies[body].len()).step_by(size) {
            out.push(Damage {
                what: format!("{section} record at {at}: {field} past {limit}"),
                apply: Box::new(move |bodies, excess| {
                    let rec = &mut bodies[body][at..at + size];
                    let damaged = set(rec, limit + excess);
                    rec.copy_from_slice(&damaged);
                }),
            });
        }
    };
    fn assign(rec: &[u8], edit: impl FnOnce(&mut PrimAssign)) -> Vec<u8> {
        let rec = rec.try_into().expect("one assignment record");
        let mut a = decode_assign(rec).expect("a pristine record");
        edit(&mut a);
        let mut out = Vec::new();
        put_assign(&mut out, &a);
        out
    }
    fn object(rec: &[u8], edit: impl FnOnce(&mut ObjectRecord)) -> Vec<u8> {
        let mut o = ObjectRecord::decode(rec.try_into().expect("one object record"));
        edit(&mut o);
        let mut out = Vec::new();
        o.put(&mut out);
        out
    }
    fn pair(rec: &[u8], edit: impl FnOnce(&mut (u32, u32))) -> Vec<u8> {
        let mut p = pairs(rec).next().expect("one pair");
        edit(&mut p);
        let mut out = Vec::new();
        put_pair(&mut out, p);
        out
    }
    let id = |_: &[u8], v: u32| v.to_le_bytes().to_vec();
    let index_len = BlockEntry::index_len(nobjs as usize);
    for (section, from) in [(SectionId::Static, 4), (SectionId::Dynamic, index_len)] {
        let size = ASSIGN_RECORD_SIZE;
        array(section, from, size, "dst", nobjs, |r, v| {
            assign(r, |a| a.dst = ObjId(v))
        });
        array(section, from, size, "src", nobjs, |r, v| {
            assign(r, |a| a.src = ObjId(v))
        });
        array(section, from, size, "loc.file", nfiles, |r, v| {
            assign(r, |a| a.loc.file.0 = v)
        });
    }
    let size = ObjectRecord::SIZE;
    array(SectionId::Object, 4, size, "name", nstrings, |r, v| {
        object(r, |o| o.name = v)
    });
    array(SectionId::Object, 4, size, "link", nstrings, |r, v| {
        object(r, |o| o.link = v)
    });
    array(SectionId::Object, 4, size, "ty", nstrings, |r, v| {
        object(r, |o| o.ty = v)
    });
    array(SectionId::Object, 4, size, "file", nfiles, |r, v| {
        object(r, |o| o.file = v)
    });
    array(SectionId::Object, 4, size, "in_func", nobjs, |r, v| {
        object(r, |o| o.in_func = v)
    });
    for section in [SectionId::Global, SectionId::Target] {
        array(section, 4, PAIR_SIZE, "string", nstrings, |r, v| {
            pair(r, |p| p.0 = v)
        });
        array(section, 4, PAIR_SIZE, "object", nobjs, |r, v| {
            pair(r, |p| p.1 = v)
        });
    }
    array(SectionId::File, 4, 4, "name", nstrings, id);
    // The meta section: the unit's name, then the assignment total.
    array(SectionId::Meta, 0, 12, "unit name", nstrings, |r, v| {
        [&v.to_le_bytes(), &r[4..]].concat()
    });

    // Signatures vary in length: re-encode the section around the one edited.
    let encoded: Vec<_> = (view.funsigs())
        .map(|sig| sig.expect("a pristine signature"))
        .collect();
    let sigs: Rc<Vec<FunSig>> = Rc::new(encoded.iter().map(|sig| sig.decode(ObjId)).collect());
    let mut sig_at = 4;
    for (i, sig) in encoded.iter().enumerate() {
        for field in 0..2 + ids(sig.params).len() {
            let sigs = Rc::clone(&sigs);
            out.push(Damage {
                what: format!("funsig {i}: id {field} past {nobjs}"),
                apply: Box::new(move |bodies, excess| {
                    let mut sigs = Vec::clone(&sigs);
                    let sig = &mut sigs[i];
                    *[&mut sig.obj, &mut sig.ret]
                        .into_iter()
                        .chain(&mut sig.params)
                        .nth(field)
                        .expect("a field counted above") = ObjId(nobjs + excess);
                    let sec = &mut bodies[body_of(SectionId::FunSig)];
                    sec.truncate(4);
                    sigs.iter().for_each(|sig| SigRecord::put(sec, sig));
                }),
            });
        }
        let at = sig_at + SigRecord::INDIRECT_AT;
        out.push(Damage {
            what: format!("funsig {i}: is_indirect byte neither 0 nor 1"),
            apply: Box::new(move |bodies, excess| {
                bodies[body_of(SectionId::FunSig)][at] = 2 + (excess % 254) as u8;
            }),
        });
        sig_at += sig.encoded_len();
    }
    // The target pairs out of the writer's order: shuffled, or one pair
    // written over its successor.
    if view.targets().len() >= 2 {
        let body = body_of(SectionId::Target);
        out.push(Damage {
            what: "target: pairs shuffled".into(),
            apply: Box::new(move |bodies, excess| {
                let sec = &mut bodies[body];
                let before = sec.clone();
                let (pairs, _) = sec[4..].as_chunks_mut::<PAIR_SIZE>();
                let mut rng = SplitMix64(u64::from(excess));
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, rng.below(i as u64 + 1) as usize);
                }
                if *sec == before {
                    sec[4..].as_chunks_mut::<PAIR_SIZE>().0.reverse();
                }
            }),
        });
        out.push(Damage {
            what: "target: pairs with one repeated".into(),
            apply: Box::new(move |bodies, excess| {
                let (pairs, _) = bodies[body][4..].as_chunks_mut::<PAIR_SIZE>();
                let at = excess as usize % (pairs.len() - 1);
                pairs[at + 1] = pairs[at];
            }),
        });
    }
    for section in SectionId::ALL {
        out.push(Damage {
            what: format!("{section}: one trailing byte"),
            apply: Box::new(move |bodies, excess| bodies[body_of(section)].put_u8(excess as u8)),
        });
    }
    out
}

/// A pristine object file's nine bodies and the damages
/// [`reference_damages`] finds for them.
struct Resealer {
    bodies: Vec<Vec<u8>>,
    damages: Vec<Damage>,
    index_len: usize,
}

impl Resealer {
    fn new(pristine: &[u8]) -> Option<Resealer> {
        let file = Container::open(pristine.to_vec(), &FORMAT).ok()?;
        let view = UnitView::layout(&file).ok()?;
        let bodies: Vec<Vec<u8>> = (SectionId::ALL.iter())
            .map(|&id| {
                file.lookup(id as u32, id.name())
                    .map(|(_, body)| body.to_vec())
            })
            .collect::<Result<_, _>>()
            .expect("layout found all nine");
        Some(Resealer {
            damages: reference_damages(&view, &bodies),
            index_len: BlockEntry::index_len(view.object_count()),
            bodies,
        })
    }

    /// The file with `damage` done to it, every checksum recomputed.
    fn mutant(&self, damage: &Damage, excess: u32) -> Vec<u8> {
        let mut bodies = self.bodies.clone();
        (damage.apply)(&mut bodies, excess);
        // Reseal bottom up: each block's checksum in the index, then (in
        // `assemble_object`) every section's and the header's.
        let (index, blob) = bodies[body_of(SectionId::Dynamic)].split_at_mut(self.index_len);
        for entry in index[4..].chunks_exact_mut(BlockEntry::SIZE) {
            let mut block = BlockEntry::decode(entry);
            block.checksum = checksum(0, block.records(blob).unwrap_or(&[]));
            entry.copy_from_slice(&block.encode());
        }
        let bodies: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
        assemble_object(bodies.try_into().expect("nine bodies"), self.index_len)
    }
}

/// Damages one reference of a pristine *object* file per iteration (see
/// the module comment) and recomputes the block, section and header
/// checksums over the damage, so only a range or shape check can reject the
/// mutant.
pub fn resealed_round(
    pristine: &[u8],
    exercise: impl Fn(Vec<u8>) -> Verdict,
    seed: u64,
    iters: u64,
    report: &mut FuzzReport,
) {
    let Some(resealer) = Resealer::new(pristine) else {
        return;
    };
    let damages = &resealer.damages;
    let mut rng = SplitMix64(seed ^ 0x5ea1_ed1d);
    for it in 0..iters {
        let damage = &damages[rng.below(damages.len() as u64) as usize];
        let verdict = exercise(resealer.mutant(damage, rng.below(1000) as u32));
        report.record(verdict, || {
            format!(
                "resealed reference iter {it} (seed {seed}): {}",
                damage.what
            )
        });
    }
}

/// [`resealed_round`]'s damages whose description starts with `what`, each
/// done `iters` times (its `excess` runs `0..iters`) rather than drawn at
/// random: how a test makes sure one kind of damage is exercised.
pub fn resealed_each(
    pristine: &[u8],
    what: &str,
    exercise: impl Fn(Vec<u8>) -> Verdict,
    iters: u32,
    report: &mut FuzzReport,
) {
    let Some(resealer) = Resealer::new(pristine) else {
        return;
    };
    for damage in resealer.damages.iter().filter(|d| d.what.starts_with(what)) {
        for excess in 0..iters {
            let verdict = exercise(resealer.mutant(damage, excess));
            report.record(verdict, || {
                format!("resealed {} (excess {excess})", damage.what)
            });
        }
    }
}

/// Appends one section under an id no reader knows, through the entry
/// codec. Not a fault — paper §4 promises that "new sections can be
/// transparently added", so either format's reader must decode the result
/// exactly as it decodes `orig`.
///
/// # Panics
///
/// Panics when `orig` is not a well-formed `format` file.
#[must_use]
pub fn with_extra_section(orig: &[u8], format: &Format, id: u32, payload: &[u8]) -> Vec<u8> {
    let mut header = Header::read(orig, format).expect("a pristine file");
    let bodies = &orig[header.encoded_len()..];
    header.table.push(SectionEntry {
        id,
        offset: 0,
        len: payload.len() as u64,
        checksum: 0, // unknown sections are skipped before their checksum is used
    });
    header.relayout();
    [&header.encode(format), bodies, payload].concat()
}

/// `bytes` with everything the checksum function or the format version
/// decides zeroed: the version word, the header checksum, every
/// section-table checksum and, in an object file, every block checksum of
/// the dynamic index. What is left is the content, so a pin taken over it
/// holds across a change of hash or a version bump that moves no other
/// byte. The fields are found through [`Header::read`] and the block-index
/// codec.
///
/// # Panics
///
/// Panics when `bytes` is not a well-formed `format` file.
#[must_use]
pub fn checksums_zeroed(bytes: &[u8], format: &Format) -> Vec<u8> {
    let mut header = Header::read(bytes, format).expect("a well-formed file");
    let bodies = &bytes[header.encoded_len()..];
    header.checksum = 0;
    header.table.iter_mut().for_each(|e| e.checksum = 0);
    let unversioned = Format {
        version: 0,
        ..*format
    };
    let mut out = [&header.encode(&unversioned), bodies].concat();
    let dynamic = header
        .table
        .iter()
        .find(|e| e.id == SectionId::Dynamic as u32);
    // Only an object file has a block index; a snapshot's id 6 is its stats.
    if let Some(entry) = dynamic.filter(|_| format.magic == FORMAT.magic) {
        let body = &mut out[entry.offset as usize..][..entry.len as usize];
        let nobjs = Cur::new(body).get_u32_le().expect("an index count") as usize;
        let index = &mut body[4..BlockEntry::index_len(nobjs)];
        for raw in index.chunks_exact_mut(BlockEntry::SIZE) {
            let entry = BlockEntry {
                checksum: 0,
                ..BlockEntry::decode(raw)
            };
            raw.copy_from_slice(&entry.encode());
        }
    }
    out
}

/// Runs the full deterministic fuzz battery over one pristine file of the
/// container `format`: a truncation sweep at every byte offset, `iters`
/// seeded bit-flip mutants, and `min(iters, 200)` section-table shuffles,
/// each judged by `exercise`.
pub fn run_fuzz(
    pristine: &[u8],
    format: &Format,
    exercise: impl Fn(Vec<u8>) -> Verdict,
    seed: u64,
    iters: u64,
) -> FuzzReport {
    let mut report = FuzzReport::default();
    with_quiet_panics(|| {
        truncation_sweep(pristine, &exercise, &mut report);
        bit_flip_round(pristine, &exercise, seed, iters, &mut report);
        section_shuffle_round(
            pristine,
            format,
            &exercise,
            seed,
            iters.min(200),
            &mut report,
        );
    });
    report
}

/// [`run_fuzz`] over one pristine object file, then `min(iters, 200)`
/// [`resealed_round`] mutants. `consume` is run over every mutant the reader
/// admits ([`Oracle::exercise_and`]): hand it a solver.
///
/// Returns `Err` if the pristine input itself does not decode (the harness
/// needs a valid oracle before it can judge mutants).
pub fn run_object_fuzz(
    pristine: &[u8],
    seed: u64,
    iters: u64,
    consume: impl Fn(&Database),
) -> Result<FuzzReport, DbError> {
    let oracle = Oracle::new(pristine)?;
    let exercise = |bytes| oracle.exercise_and(bytes, &consume);
    let mut report = run_fuzz(pristine, &FORMAT, exercise, seed, iters);
    with_quiet_panics(|| resealed_round(pristine, exercise, seed, iters.min(200), &mut report));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{link, write_object};
    use cla_ir::{compile_source, LowerOptions};

    fn sample_object() -> Vec<u8> {
        let a = compile_source(
            "int shared, *p, **pp; void f(void) { p = &shared; pp = &p; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let b = compile_source(
            "extern int *p; int *q; void g(int *a) { q = p; q = a; }",
            "b.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let (prog, _) = link(&[a, b], "prog");
        write_object(&prog)
    }

    /// Stands in for a solver: indexes a table with every id the database
    /// hands out, as `GraphState::add_assign` does.
    fn follow_every_id(db: &Database) {
        let mut seen = vec![0u32; db.object_count()];
        let unit = db.to_unit().unwrap();
        for a in &unit.assigns {
            seen[a.dst.index()] += 1;
            seen[a.src.index()] += 1;
        }
        for sig in db.funsigs() {
            seen[sig.obj.index()] += 1;
            seen[sig.ret.index()] += 1;
            sig.params.iter().for_each(|p| seen[p.index()] += 1);
        }
        for id in db.ids() {
            if let Some(f) = db.info(id).in_func {
                seen[f.index()] += 1;
            }
        }
    }

    #[test]
    fn every_resealed_reference_is_rejected() {
        let bytes = sample_object();
        let oracle = Oracle::new(&bytes).unwrap();
        let mut report = FuzzReport::default();
        with_quiet_panics(|| {
            let exercise = |b| oracle.exercise_and(b, follow_every_id);
            resealed_round(&bytes, exercise, 3, 400, &mut report);
        });
        assert!(report.ok(), "{report}");
        // Every damage is out of range or out of shape: none may be
        // admitted, let alone decode as the pristine file does.
        assert_eq!((report.exercised, report.rejected), (400, 400), "{report}");
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fuzz_battery_finds_no_holes_in_sample() {
        let bytes = sample_object();
        let report = run_object_fuzz(&bytes, 1, 150, follow_every_id).unwrap();
        assert!(report.ok(), "fuzz found holes:\n{report}");
        // The battery really ran: full sweep + flips + shuffles + reseals.
        assert!(report.exercised as usize >= bytes.len() + 150 + 150 + 150);
        // Damage is overwhelmingly detected, not silently identical.
        assert!(report.rejected > report.identical);
    }

    #[test]
    fn fuzz_requires_a_valid_oracle() {
        assert!(run_object_fuzz(b"garbage", 1, 10, |_| ()).is_err());
    }

    #[test]
    fn report_display_mentions_failures() {
        let mut r = FuzzReport::default();
        r.record(Verdict::Panicked, || "truncate at 7".into());
        r.record(Verdict::WrongData, || "bit flip iter 3".into());
        let text = r.to_string();
        assert!(text.contains("truncate at 7"));
        assert!(text.contains("bit flip iter 3"));
        assert!(!r.ok());
    }
}
