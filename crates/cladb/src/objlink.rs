//! The block linker: links unit *objects* into the program object.
//!
//! The paper's link phase (§4) merges object files — unify global symbols,
//! rebuild the indexes, "the executable has the same format as the object
//! files". [`ObjectLinker`] does that over encoded sections: link names are
//! unified into a compact object table whose strings live once in one
//! buffer, assignment records are relocated nineteen bytes at a time
//! (destination, source and file index patched, nothing decoded), and
//! [`ObjectLinker::finish`] lays the program object out — string table in
//! [`write_object`](crate::write_object)'s intern order, records counting-
//! sorted into per-source blocks, every block and section checksummed.
//!
//! The output is byte-identical to `write_object(&link(units))`, the
//! reference the unit-level [`Linker`](crate::Linker) remains for tests and
//! benches; no build route decodes an object to re-encode it.

use crate::container::{bytes_checksummed, Put};
use crate::format::NONE_U32;
use crate::linker::LinkStats;
use crate::names::{NameIndex, Strings};
use crate::record::{assign_kind, assign_records, put_assign, relocate_assign, ObjectRecord};
use crate::unit::UnitObject;
use crate::writer::write_sections;
use cla_ir::{
    AssignCounts, AssignKind, FunSig, ObjId, ObjKind, OpKind, PrimAssign, SrcLoc, Strength,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Every string of the program under construction, each held once.
#[derive(Debug)]
struct NamePool {
    strings: Strings,
    index: NameIndex,
}

impl NamePool {
    fn new() -> NamePool {
        NamePool {
            strings: Strings::default(),
            index: NameIndex::with_capacity(1 << 11),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        let hash = self.index.hash(s);
        match self.index.find(hash, |id| self.strings.get(id) == s) {
            Ok(id) => id,
            Err(slot) => {
                let id = u32::try_from(self.strings.len())
                    .ok()
                    .filter(|&id| id != NONE_U32)
                    .expect("fewer than 2^32 - 1 distinct strings in one program");
                self.strings.push(s);
                self.index.insert(slot, hash, id);
                id
            }
        }
    }

    fn resolve(&self, id: u32) -> &str {
        self.strings.get(id)
    }

    fn len(&self) -> usize {
        self.strings.len()
    }
}

/// `table[id]`, growing the table with [`NONE_U32`] as the pool behind its
/// ids grows.
fn slot(table: &mut Vec<u32>, id: u32) -> &mut u32 {
    let i = id as usize;
    if i >= table.len() {
        table.resize(i + 1, NONE_U32);
    }
    &mut table[i]
}

/// Wall time of a link by phase, read off the clocks of its `link.symbols`,
/// `link.merge` and `link.assemble` spans. The first two add up over the
/// folds, which a streaming build overlaps with compilation.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkTimes {
    pub symbols: Duration,
    pub merge: Duration,
    pub assemble: Duration,
}

/// What [`ObjectLinker::finish`] hands back: the program object — intact by
/// construction, so [`Database::from_object`](crate::Database::from_object)
/// opens it without hashing it again — and the figures a run reports of the
/// program it encodes.
#[derive(Debug)]
pub struct LinkedObject {
    pub object: UnitObject,
    /// The link proper, before any unknown summary was added.
    pub stats: LinkStats,
    pub times: LinkTimes,
    /// Variables, fields and functions (Table 2's "program variables").
    pub program_variables: usize,
    pub assign_counts: AssignCounts,
    /// Undefined globals given unknown summaries (0 unless asked for).
    pub unknown_summaries: usize,
}

/// The id the empty string has in every [`ObjectLinker`]'s pool.
const EMPTY: u32 = 0;

/// The incremental linker over unit objects: each [`UnitObject`] folds into
/// the program the moment it is handed over and can be dropped — what stays
/// is the program's object table, its relocated records and one copy of
/// each string.
#[derive(Debug)]
pub struct ObjectLinker {
    program: String,
    names: NamePool,
    /// The program's file table, as pool ids, in first-seen order.
    files: Vec<u32>,
    /// Pool id → index in `files`.
    file_of_name: Vec<u32>,
    /// The program's objects, their strings as pool ids.
    objects: Vec<ObjectRecord>,
    /// Pool id of a link name → the object it names.
    obj_of_link: Vec<u32>,
    /// Relocated address-of records, in arrival order.
    statics: Vec<u8>,
    /// Relocated records of every other kind, in arrival order.
    dynamics: Vec<u8>,
    counts: AssignCounts,
    /// Direct signatures, at most one per function object.
    direct: Vec<FunSig>,
    direct_of_obj: HashMap<ObjId, usize>,
    /// Indirect-call signatures never merge: each calling unit has its own
    /// file-local standardized parameter objects (`p$1`, ...), and
    /// collapsing two units' signatures for the same global function
    /// pointer would silently drop one unit's argument flows.
    indirect: Vec<FunSig>,
    stats: LinkStats,
    times: LinkTimes,
}

impl ObjectLinker {
    /// An empty program awaiting unit objects.
    #[must_use]
    pub fn new(program_name: &str) -> Self {
        let mut names = NamePool::new();
        assert_eq!(names.intern(""), EMPTY);
        ObjectLinker {
            program: program_name.to_string(),
            names,
            files: Vec::new(),
            file_of_name: Vec::new(),
            objects: Vec::new(),
            obj_of_link: Vec::new(),
            statics: Vec::new(),
            dynamics: Vec::new(),
            counts: AssignCounts::default(),
            direct: Vec::new(),
            direct_of_obj: HashMap::new(),
            indirect: Vec::new(),
            stats: LinkStats::default(),
            times: LinkTimes::default(),
        }
    }

    /// Units folded so far.
    #[must_use]
    pub fn units(&self) -> usize {
        self.stats.units
    }

    /// Folds one unit's object into the program.
    pub fn add(&mut self, unit: &UnitObject) {
        // Symbol phase: file-table remap plus link-name unification (the
        // paper's "hash global symbols into the program database").
        let sym_sp = cla_obs::global().span("link", "link.symbols");
        let view = unit.view();
        self.stats.units += 1;
        self.stats.objects_in += view.object_count();
        // Unit string id → pool id, filled for the strings the program
        // comes to use: a name the program already has costs one lookup per
        // unit, the strings of an object merged away cost nothing.
        let mut pool_id = vec![NONE_U32; view.strings.len()];
        let names = &mut self.names;
        let mut intern = |sid: u32| {
            let id = &mut pool_id[sid as usize];
            if *id == NONE_U32 {
                *id = names.intern(view.strings[sid as usize]);
            }
            *id
        };
        let file_map: Vec<u32> = view
            .files()
            .map(|sid| {
                let file = slot(&mut self.file_of_name, intern(sid));
                if *file == NONE_U32 {
                    *file = self.files.len() as u32;
                    self.files.push(intern(sid));
                }
                *file
            })
            .collect();
        let remap_file = |file: u32| match file {
            u32::MAX => file,
            _ => file_map[file as usize],
        };

        let mut obj_map: Vec<u32> = Vec::with_capacity(view.object_count());
        for rec in view.objects() {
            let (link, existing) = match rec.link {
                NONE_U32 => (NONE_U32, NONE_U32),
                sid => {
                    let link = intern(sid);
                    (link, *slot(&mut self.obj_of_link, link))
                }
            };
            if existing == NONE_U32 {
                let id = self.objects.len() as u32;
                if link != NONE_U32 {
                    self.obj_of_link[link as usize] = id;
                }
                self.objects.push(ObjectRecord {
                    name: intern(rec.name),
                    link,
                    ty: intern(rec.ty),
                    file: remap_file(rec.file),
                    in_func: NONE_U32, // fixed up below
                    ..rec
                });
                obj_map.push(id);
            } else {
                self.stats.symbols_merged += 1;
                // Prefer metadata with a real location (a definition over a
                // mere reference).
                let have = &mut self.objects[existing as usize];
                if have.file == u32::MAX && rec.file != u32::MAX {
                    (have.file, have.line) = (remap_file(rec.file), rec.line);
                }
                if have.ty == EMPTY && !view.strings[rec.ty as usize].is_empty() {
                    have.ty = intern(rec.ty);
                }
                // A symbol is defined if *any* unit defines it.
                have.flags |= rec.flags;
                obj_map.push(existing);
            }
        }
        // Second pass: in_func links.
        for (rec, &id) in view.objects().zip(&obj_map) {
            let target = &mut self.objects[id as usize];
            if rec.in_func != NONE_U32 && target.in_func == NONE_U32 {
                target.in_func = obj_map[rec.in_func as usize];
            }
        }
        self.times.symbols += sym_sp.finish();

        // Merge phase: assignment records and signatures rewritten into
        // program object-id space.
        let merge_sp = cla_obs::global().span("link", "link.merge");
        let mut relocate = |out: &mut Vec<u8>, records: &[u8]| {
            out.reserve(records.len());
            for rec in assign_records(records) {
                self.counts
                    .add(assign_kind(rec).expect("a unit object's records are checked"));
                let mut rec = *rec;
                relocate_assign(&mut rec, |obj| obj_map[obj as usize], remap_file);
                out.extend_from_slice(&rec);
            }
        };
        relocate(&mut self.statics, view.statics());
        for block in view.blocks() {
            relocate(&mut self.dynamics, block);
        }
        for sig in view.funsigs() {
            let sig = sig.expect("a unit object's signatures are checked");
            let remapped = sig.decode(|obj| ObjId(obj_map[obj as usize]));
            if sig.is_indirect {
                self.indirect.push(remapped);
            } else if let Some(&have) = self.direct_of_obj.get(&remapped.obj) {
                // Keep the longest parameter list seen (call sites may pass
                // more arguments than the shortest declaration).
                if remapped.params.len() > self.direct[have].params.len() {
                    self.direct[have].params = remapped.params;
                }
            } else {
                self.direct_of_obj.insert(remapped.obj, self.direct.len());
                self.direct.push(remapped);
            }
        }
        self.times.merge += merge_sp.finish();
    }

    /// PIP-style conservative summaries for incomplete programs (*Making
    /// Andersen's Points-to Analysis Sound and Practical for Incomplete C
    /// Programs*): once units are quarantined, any global that is
    /// referenced but never defined may live in a lost unit and do
    /// anything. One abstract object `<unknown>` stands for everything such
    /// symbols could reach:
    ///
    /// * `g = &<unknown>` for every undefined global `g` — dereferencing it
    ///   reaches the unknown blob instead of nothing;
    /// * `<unknown> = &<unknown>` — chains of dereferences stay closed;
    /// * for every call signature of an undefined function: `f$ret =
    ///   &<unknown>` and `<unknown> = f$N` — results come from the blob,
    ///   arguments escape into it.
    ///
    /// Returns how many undefined globals were summarized.
    fn add_unknown_summaries(&mut self) -> usize {
        // A global is undefined when no surviving unit defines it (a fold
        // ORs the per-unit `defined` bits). Param/ret objects are
        // global-linked too but are summarized through their function's
        // signature, not here.
        let summarized = [ObjKind::Var as u8, ObjKind::Func as u8];
        let undefined: Vec<ObjId> = (0..self.objects.len() as u32)
            .filter(|&i| {
                let o = &self.objects[i as usize];
                o.link != NONE_U32 && o.flags & 1 == 0 && summarized.contains(&o.kind)
            })
            .map(ObjId)
            .collect();
        if undefined.is_empty() {
            return 0;
        }
        let name = self.names.intern("<unknown>");
        let unknown = ObjId(self.objects.len() as u32);
        self.objects.push(ObjectRecord {
            name,
            link: name,
            ty: EMPTY,
            kind: ObjKind::Heap as u8,
            flags: 0,
            file: SrcLoc::NONE.file.0,
            line: SrcLoc::NONE.line,
            in_func: NONE_U32,
        });
        let mut edges = vec![(AssignKind::Addr, unknown, unknown)];
        edges.extend(undefined.iter().map(|&g| (AssignKind::Addr, g, unknown)));
        // In object order, the order the program's signature table has.
        let mut sigs: Vec<&FunSig> = (self.direct.iter())
            .filter(|s| undefined.binary_search(&s.obj).is_ok())
            .collect();
        sigs.sort_by_key(|s| s.obj);
        for sig in sigs {
            edges.push((AssignKind::Addr, sig.ret, unknown));
            edges.extend(sig.params.iter().map(|&p| (AssignKind::Copy, unknown, p)));
        }
        for (kind, dst, src) in edges {
            let out = match kind {
                AssignKind::Addr => &mut self.statics,
                _ => &mut self.dynamics,
            };
            let edge = PrimAssign {
                kind,
                dst,
                src,
                strength: Strength::Weak,
                op: OpKind::Direct,
                loc: SrcLoc::NONE,
            };
            put_assign(out, &edge);
            self.counts.add(kind);
        }
        undefined.len()
    }

    /// Lays out the program object. With `summarize_unknown`, every
    /// referenced-but-undefined global first gets its conservative summary
    /// (see `add_unknown_summaries`), as one last synthetic unit would add
    /// it.
    ///
    /// The bytes depend only on the unit objects and their order.
    #[must_use]
    pub fn finish(mut self, summarize_unknown: bool) -> LinkedObject {
        let mut sp = cla_obs::global().span("link", "link.assemble");
        let before = bytes_checksummed();
        let mut stats = self.stats;
        stats.objects_out = self.objects.len();
        stats.assigns = self.counts.total();
        let unknown_summaries = if summarize_unknown {
            self.add_unknown_summaries()
        } else {
            0
        };
        let program = self.names.intern(&self.program);

        // The string table in `write_object`'s intern order: file names,
        // then each object's name, link name and type, then the program's
        // name — a pool id gets its place the first time it is met.
        let mut place = vec![NONE_U32; self.names.len()];
        let mut str_sec = vec![0u8; 4];
        let mut placed = 0u32;
        let names = &self.names;
        let mut sid = |id: u32| {
            let at = &mut place[id as usize];
            if *at == NONE_U32 {
                *at = placed;
                placed += 1;
                str_sec.put_str(names.resolve(id));
            }
            *at
        };
        let files: Vec<u32> = self.files.iter().map(|&name| sid(name)).collect();
        let nobjs = self.objects.len();
        let mut program_variables = 0;
        for o in &mut self.objects {
            o.name = sid(o.name);
            if o.link != NONE_U32 {
                o.link = sid(o.link);
            }
            o.ty = sid(o.ty);
            let kind = o.kind().expect("a unit object's kinds are checked");
            program_variables += usize::from(kind.is_program_object());
        }
        let program = sid(program);
        str_sec[..4].copy_from_slice(&placed.to_le_bytes());

        // Direct signatures are unique per object and the sort is stable,
        // so the order depends only on the units and their order.
        let mut sigs: Vec<&FunSig> = self.direct.iter().chain(&self.indirect).collect();
        sigs.sort_by_key(|s| s.obj);
        let object = UnitObject::sealed(write_sections(
            &str_sec,
            &files,
            &self.objects,
            [&self.statics, &self.dynamics],
            sigs.into_iter(),
            program,
        ));
        sp.set("objects", nobjs);
        sp.set("assigns", self.counts.total());
        sp.set("bytes", object.bytes().len());
        sp.set("bytes_checksummed", bytes_checksummed() - before);
        let mut times = self.times;
        times.assemble = sp.finish();
        LinkedObject {
            object,
            stats,
            times,
            program_variables,
            assign_counts: self.counts,
            unknown_summaries,
        }
    }
}

/// An [`ObjectLinker`] fed by an out-of-order producer (a parallel compile
/// pool).
///
/// Objects arrive tagged with their position in the input file list and may
/// arrive in any order; the stream linker folds each one the moment every
/// earlier one has been folded, buffering only the out-of-order window in
/// between. The program is therefore byte-identical to linking the same
/// objects serially in input order — completion order never leaks into the
/// output — while peak memory holds the program under construction plus the
/// buffered window of encoded objects, not the whole codebase.
#[derive(Debug)]
pub struct StreamLinker {
    inner: ObjectLinker,
    /// Index the next fold is waiting for.
    next: usize,
    /// Objects that arrived ahead of `next`.
    pending: BTreeMap<usize, UnitObject>,
    peak_buffered: usize,
}

impl StreamLinker {
    #[must_use]
    pub fn new(program_name: &str) -> Self {
        StreamLinker {
            inner: ObjectLinker::new(program_name),
            next: 0,
            pending: BTreeMap::new(),
            peak_buffered: 0,
        }
    }

    /// Accepts the object for input position `index` (0-based, each
    /// position exactly once), folding it — and any buffered successors it
    /// unblocks — as soon as the order allows.
    pub fn push(&mut self, index: usize, unit: UnitObject) {
        debug_assert!(
            index >= self.next && !self.pending.contains_key(&index),
            "unit {index} delivered twice"
        );
        self.pending.insert(index, unit);
        self.peak_buffered = self.peak_buffered.max(self.pending.len());
        while let Some(unit) = self.pending.remove(&self.next) {
            self.inner.add(&unit);
            self.next += 1;
        }
    }

    /// Objects folded into the program so far (the in-order prefix).
    #[must_use]
    pub fn folded(&self) -> usize {
        self.next
    }

    /// High-water mark of objects buffered while waiting for an earlier one
    /// to finish compiling — the streaming link's actual memory exposure.
    #[must_use]
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// The linker every object has been folded into.
    ///
    /// # Panics
    ///
    /// Panics if any input position never arrived (a producer bug: every
    /// index below the highest pushed one must be delivered before
    /// finishing).
    #[must_use]
    pub fn finish(self) -> ObjectLinker {
        assert!(
            self.pending.is_empty(),
            "stream link finished with {} unfolded units (next expected: {})",
            self.pending.len(),
            self.next
        );
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add_unknown_summaries, link, write_object, Database};
    use cla_ir::{compile_source, CompiledUnit, LowerOptions, ObjectInfo};

    fn units(sources: &[&str]) -> Vec<CompiledUnit> {
        (sources.iter().enumerate())
            .map(|(i, src)| {
                compile_source(src, &format!("u{i}.c"), &LowerOptions::default()).unwrap()
            })
            .collect()
    }

    /// Links `units` both ways and holds the block linker to the reference's
    /// bytes and stats.
    fn link_both(units: &[CompiledUnit], summarize: bool) -> LinkedObject {
        let (mut program, stats) = link(units, "prog");
        let summarized = if summarize {
            add_unknown_summaries(&mut program)
        } else {
            0
        };
        let mut linker = ObjectLinker::new("prog");
        for unit in units {
            linker.add(&UnitObject::encode(unit));
        }
        assert_eq!(linker.units(), units.len());
        let linked = linker.finish(summarize);
        assert!(
            linked.object.bytes() == write_object(&program),
            "linked bytes differ from the reference's"
        );
        assert_eq!(linked.stats, stats);
        assert_eq!(linked.unknown_summaries, summarized);
        assert_eq!(linked.assign_counts, program.assign_counts());
        assert_eq!(linked.program_variables, program.program_variable_count());
        linked
    }

    #[test]
    fn links_to_the_reference_linkers_bytes() {
        let programs: [&[&str]; 7] = [
            &[],
            &["int lonely;"],
            // Globals unify, the definition's location and type win.
            &[
                "extern int shared; int q; void g(void) { q = shared; }",
                "int shared; int *p; void f(void) { p = &shared; }",
            ],
            // Statics, heap sites and temporaries stay per unit.
            &[
                "static int s; int *p; void *malloc(unsigned long); void f(void) { p = &s; p = malloc(4); }",
                "static int s; int *q; void *malloc(unsigned long); void g(void) { q = &s; q = malloc(4); }",
            ],
            // One direct signature per function, the longest parameter
            // list; fields unify across units.
            &[
                "int f(); int r, v, w; void g(void) { r = f(v, w); }",
                "int f(int x) { return x; }",
                "struct S { int *x; }; struct S s1; int v1; int f(int); void h(void) { s1.x = &v1; f(v1); }",
                "struct S { int *x; }; struct S s2; int *p; void k(void) { p = s2.x; }",
            ],
            // Indirect signatures never merge.
            &[
                "int *(*handler)(int *); int xa; int *ra; void ca(void) { ra = handler(&xa); }",
                "extern int *(*handler)(int *); int xb; int *rb; void cb(void) { rb = handler(&xb); }",
                "int *id(int *v) { return v; } extern int *(*handler)(int *); void init(void) { handler = id; }",
            ],
            // Stores, loads and store-loads through shared pointers.
            &[
                "int x, y, *p, **pp; void fa(void) { p = &x; pp = &p; *pp = &y; }",
                "extern int *p, **pp; int *q, w; void fb(void) { q = *pp; *q = w; *pp = *pp; }",
            ],
        ];
        for sources in programs {
            let mut units = units(sources);
            link_both(&units, false);
            link_both(&units, true);
            // A quarantined file's placeholder keeps its slot and adds
            // nothing; with one, the rest may have undefined globals.
            if let Some(first) = units.first_mut() {
                *first = CompiledUnit::new("u0.c");
                link_both(&units, false);
                link_both(&units, true);
            }
        }
    }

    #[test]
    fn unknown_summaries_reach_undefined_globals_and_their_signatures() {
        let units = units(&[
            "extern int *ext_p; extern int *ext_fn(int *a); int *q, *r, local;
             void f(void) { q = ext_p; r = ext_fn(&local); }",
        ]);
        let linked = link_both(&units, true);
        assert_eq!(linked.unknown_summaries, 2);
        let db = Database::from_object(linked.object).unwrap();
        assert_eq!(db.targets("<unknown>").len(), 1);
        // `<unknown> = &<unknown>`, one address per undefined global, the
        // call's result; its argument escapes by a copy.
        assert_eq!(db.static_assigns().unwrap().len(), 1 + 1 + 2 + 1);
        assert_eq!(linked.stats.objects_out + 1, db.objects().len());
        assert_eq!(link_both(&units, false).unknown_summaries, 0);
    }

    #[test]
    fn two_objects_of_one_unit_sharing_a_link_name_link_as_the_decoded_object_does() {
        // Lowering never emits this; a hand-built unit can. The pinned rule:
        // the second object merges into the first, as across units, and the
        // merged block lists the first object's records, then the second's
        // — the object's order, which is what the reference sees once the
        // object is decoded (linking the *in-memory* unit would interleave).
        let mut unit = CompiledUnit::new("twins.c");
        let file = unit.files.intern("twins.c");
        let at = |line| SrcLoc::new(file, line);
        let g = unit.push_object(ObjectInfo::global("g", ObjKind::Var, "", SrcLoc::NONE));
        let twin = unit.push_object(ObjectInfo {
            name: "g_again".into(),
            defined: true,
            ..ObjectInfo::global("g", ObjKind::Var, "int", at(2))
        });
        let a = unit.push_object(ObjectInfo::global("a", ObjKind::Var, "int", at(3)));
        let b = unit.push_object(ObjectInfo::local("b", ObjKind::Var, "int", at(4)));
        for (line, kind, dst, src) in [
            (5, AssignKind::Copy, a, g),
            (6, AssignKind::Copy, b, twin),
            (7, AssignKind::Addr, a, twin),
            (8, AssignKind::Load, b, g),
            (9, AssignKind::Copy, twin, a),
        ] {
            unit.push_assign(PrimAssign {
                kind,
                dst,
                src,
                strength: Strength::Strong,
                op: OpKind::Direct,
                loc: at(line),
            });
        }
        let object = UnitObject::verify(write_object(&unit)).unwrap();
        let decoded = Database::open(object.bytes().to_vec())
            .unwrap()
            .to_unit()
            .unwrap();
        let (reference, stats) = link(std::slice::from_ref(&decoded), "prog");
        let mut linker = ObjectLinker::new("prog");
        linker.add(&object);
        let linked = linker.finish(false);
        assert!(linked.object.bytes() == write_object(&reference));
        assert_eq!(linked.stats, stats);
        assert_eq!((stats.objects_out, stats.symbols_merged), (3, 1));
        // The merged `g` took the twin's location, type and definedness.
        let db = Database::from_object(linked.object).unwrap();
        let merged = db.object(db.targets("g")[0]);
        assert!(
            merged.defined && merged.ty == "int" && db.files().display(merged.loc) == "twins.c:2"
        );
        let lines: Vec<u32> = (db.block(g).unwrap().iter()).map(|a| a.loc.line).collect();
        assert_eq!(lines, [5, 8, 6]);
    }

    #[test]
    fn name_pool_interns_each_string_once_across_growth() {
        let mut pool = NamePool::new();
        let ids: Vec<u32> = (0..10_000).map(|i| pool.intern(&format!("n{i}"))).collect();
        assert_eq!(pool.len(), 10_000);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.resolve(id), format!("n{i}"));
            assert_eq!(pool.intern(&format!("n{i}")), id);
        }
        assert_eq!(pool.intern(""), 10_000);
        assert_eq!(pool.resolve(10_000), "");
    }
}
