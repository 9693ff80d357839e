//! Object-file reader with demand loading.
//!
//! [`Database`] opens a file in place — the paper's "only those parts of
//! the object file that are required are loaded". Eagerly it copies the
//! string table into one buffer and decodes the small tables (file names,
//! signatures); an object's metadata is decoded from its record when asked
//! ([`Database::info`]), the target index is built by the first lookup, and
//! the assignment payload stays untouched until a block is requested. It
//! decodes no section itself: the bodies are cut and judged by the
//! [`UnitView`] the linker folds, records by the `record` codecs, and what
//! stays resident beside the bytes is where the records sit in them
//! ([`Records`] and two ranges). Accounting counters record how many
//! assignments were loaded, supporting Table 3's in-core/loaded/in-file
//! columns. The paper used `mmap` for re-readable storage; we hold the byte
//! buffer in memory and decode ranges on demand, which preserves the
//! measured property: decoded assignments can be discarded and re-read later
//! at no extra I/O cost.
//!
//! Counters are atomic so a [`Database`] can be shared read-only across the
//! query threads of a long-running server.

use crate::container::{bytes_checksummed, Container};
use crate::format::{DbError, SectionId, FORMAT, NONE_U32};
use crate::names::{NameIndex, Strings};
use crate::record::{
    assign_kind, assign_records, decode_assign, pairs, ObjectRecord, ASSIGN_RECORD_SIZE,
};
use crate::unit::{Records, UnitObject, UnitView};
use cla_ir::{
    AssignCounts, CompiledUnit, FileIdx, FileTable, FunSig, ObjId, ObjKind, ObjectInfo, PrimAssign,
    SrcLoc,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Accounting counters for demand loading.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Assignment records decoded so far (counting repeats).
    pub assigns_loaded: u64,
    /// Block fetches served.
    pub block_fetches: u64,
    /// Assignments present in the file.
    pub assigns_in_file: u64,
}

/// One object's metadata, borrowed from the [`Database`] it was read from:
/// the fields of an [`ObjectInfo`], no string owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRef<'a> {
    pub name: &'a str,
    pub link_name: Option<&'a str>,
    pub kind: ObjKind,
    pub ty: &'a str,
    pub loc: SrcLoc,
    pub in_func: Option<ObjId>,
    pub defined: bool,
}

impl ObjectRef<'_> {
    /// The owned form.
    #[must_use]
    pub fn to_info(&self) -> ObjectInfo {
        ObjectInfo {
            name: self.name.to_string(),
            link_name: self.link_name.map(str::to_string),
            kind: self.kind,
            ty: self.ty.to_string(),
            loc: self.loc,
            in_func: self.in_func,
            defined: self.defined,
        }
    }
}

/// Target objects by display name, read off the target section: its object
/// ids grouped by name, each group in section order, and a [`NameIndex`]
/// over the groups. It assumes no order of the pairs, and two string ids
/// with one text are one name: a lookup answers what a map filled pair by
/// pair would.
#[derive(Debug)]
struct TargetIndex {
    /// Group `g` is `objs[starts[g]..starts[g + 1]]`.
    objs: Vec<ObjId>,
    starts: Vec<u32>,
    /// A string id of group `g`'s name.
    names: Vec<u32>,
    index: NameIndex,
}

impl TargetIndex {
    fn build(target_pairs: &[u8], strings: &Strings) -> TargetIndex {
        let npairs = pairs(target_pairs).len();
        let mut index = NameIndex::with_capacity(npairs);
        let mut names = Vec::new();
        // `starts[g + 1]` counts group `g`'s pairs, then is summed into place.
        let mut starts = vec![0u32];
        let mut group_of = Vec::with_capacity(npairs);
        for (sid, _) in pairs(target_pairs) {
            let name = strings.get(sid);
            let hash = index.hash(name);
            let g = match index.find(hash, |g| strings.get(names[g as usize]) == name) {
                Ok(g) => g,
                Err(slot) => {
                    let g = names.len() as u32;
                    index.insert(slot, hash, g);
                    names.push(sid);
                    starts.push(0);
                    g
                }
            };
            starts[g as usize + 1] += 1;
            group_of.push(g);
        }
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        let mut next = starts.clone();
        let mut objs = vec![ObjId(0); npairs];
        for ((_, obj), g) in pairs(target_pairs).zip(group_of) {
            let at = &mut next[g as usize];
            objs[*at as usize] = ObjId(obj);
            *at += 1;
        }
        TargetIndex {
            objs,
            starts,
            names,
            index,
        }
    }

    fn get(&self, name: &str, strings: &Strings) -> &[ObjId] {
        let hash = self.index.hash(name);
        match (self.index).find(hash, |g| strings.get(self.names[g as usize]) == name) {
            Ok(g) => {
                let g = g as usize;
                &self.objs[self.starts[g] as usize..self.starts[g + 1] as usize]
            }
            Err(_) => &[],
        }
    }
}

/// A CLA object file opened for demand-driven reading.
#[derive(Debug)]
pub struct Database {
    file: Container,
    /// The string table, copied once so a name is a slice of one buffer.
    strings: Strings,
    /// Where the object records sit in `file`: metadata is decoded from
    /// them on demand (the heavy payload is the assignments, which stay
    /// encoded too).
    object_records: Range<usize>,
    /// Where the target section's pairs sit in `file`.
    target_pairs: Range<usize>,
    /// Built by the first target lookup; a batch solve never asks.
    targets: OnceLock<TargetIndex>,
    /// [`Database::objects`]' decoded view, built on first use.
    decoded: OnceLock<Vec<ObjectInfo>>,
    files: FileTable,
    unit_name: String,
    /// Where the assignment records sit in `file`.
    records: Records,
    /// Per block: set once the block's checksum and records have been
    /// checked against the (immutable) in-memory bytes, so a re-fetch pays
    /// one relaxed load instead of a re-hash. Racing checkers idempotently
    /// store the same `true`.
    verified: Vec<AtomicBool>,
    funsigs: Vec<FunSig>,
    funsig_by_obj: HashMap<ObjId, usize>,
    assigns_in_file: u64,
    loaded: AtomicU64,
    fetches: AtomicU64,
    /// Assignments loaded through the (cold) static section, so the
    /// dynamic share of `loaded` can be recovered without a separate
    /// hot-path counter.
    static_loaded: AtomicU64,
    /// Global-registry mirrors of the per-database counters. The dynamic
    /// demand-load path updates them lazily in [`Database::load_stats`] —
    /// publishing the delta since the last read — so `block()` pays no
    /// extra atomics beyond its own accounting.
    obs_assigns_loaded: cla_obs::Counter,
    obs_block_fetches: cla_obs::Counter,
    obs_bytes_static: cla_obs::Counter,
    obs_bytes_dynamic: cla_obs::Counter,
    obs_pub_fetches: AtomicU64,
    obs_pub_dynamic: AtomicU64,
}

/// Decodes an array of encoded assignment records.
#[inline]
fn decode_assigns(bytes: &[u8]) -> Result<Vec<PrimAssign>, DbError> {
    let records = assign_records(bytes);
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        out.push(decode_assign(rec)?);
    }
    Ok(out)
}

impl Database {
    /// Opens an object file from bytes.
    ///
    /// Integrity verified here is the eager half of what
    /// [`UnitObject::verify`] checks: the header checksum (covering the
    /// section table), each section's checksum — whole body for every
    /// section except `dynamic`, whose verified prefix is the block index —
    /// and the range of every id outside the dynamic blob. The blob is
    /// checked lazily, block by block, on first demand load (see
    /// [`Database::block`]), so opening never hashes payload bytes the
    /// analysis might not touch; [`Database::verify_all`] runs that other
    /// half at once.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on malformed or damaged input.
    pub fn open(data: Vec<u8>) -> Result<Database, DbError> {
        Database::build(Container::open(data, &FORMAT)?, false)
    }

    /// Opens an object this process holds as intact — what
    /// [`ObjectLinker::finish`](crate::ObjectLinker::finish) just assembled
    /// and checksummed, or what [`UnitObject::verify`] admitted — without
    /// judging it again: no section is re-hashed and every block counts as
    /// verified.
    ///
    /// # Errors
    ///
    /// A [`DbError`] only if the object's writer mislaid a section (a bug
    /// in this crate — a typed error all the same).
    pub fn from_object(object: UnitObject) -> Result<Database, DbError> {
        Database::build(object.into_file(), true)
    }

    /// The one builder: everything is read through the [`UnitView`] the
    /// linker folds. `trusted` skips what a [`UnitObject`] already proves.
    fn build(file: Container, trusted: bool) -> Result<Database, DbError> {
        let obs = cla_obs::global();
        let mut sp = obs.span("db", "db.open");
        let before = bytes_checksummed();
        let view = UnitView::layout(&file)?;
        if !trusted {
            view.check_eager()?;
        }
        let files = FileTable::from_names(
            (view.files())
                .map(|sid| view.strings[sid as usize].to_string())
                .collect(),
        );
        let mut funsigs = Vec::new();
        let mut funsig_by_obj = HashMap::new();
        for sig in view.funsigs() {
            let sig = sig?.decode(ObjId);
            funsig_by_obj.insert(sig.obj, funsigs.len());
            funsigs.push(sig);
        }
        for id in SectionId::ALL {
            // What opening reads of each section: the static records and the
            // blob are counted as they are decoded.
            let read = match id {
                SectionId::Static => 4,
                SectionId::Dynamic => view.records.index_len(),
                _ => file.lookup(id as u32, id.name())?.1.len(),
            };
            obs.counter_with("cla_db_section_bytes_read_total", &[("section", id.name())])
                .add(read as u64);
        }
        sp.set("objects", view.object_count());
        sp.set("assigns_in_file", view.assigns);
        sp.set("bytes", file.bytes().len());
        sp.set("strings", view.strings.len());
        sp.set("bytes_checksummed", bytes_checksummed() - before);
        Ok(Database {
            strings: Strings::copy(&view.strings),
            verified: (0..view.object_count())
                .map(|_| AtomicBool::new(trusted))
                .collect(),
            object_records: view.object_records,
            target_pairs: view.target_pairs,
            targets: OnceLock::new(),
            decoded: OnceLock::new(),
            files,
            unit_name: view.unit_name.to_string(),
            records: view.records,
            funsigs,
            funsig_by_obj,
            assigns_in_file: view.assigns,
            file,
            loaded: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            static_loaded: AtomicU64::new(0),
            obs_assigns_loaded: obs.counter("cla_db_assigns_loaded_total"),
            obs_block_fetches: obs.counter("cla_db_block_fetches_total"),
            obs_bytes_static: obs
                .counter_with("cla_db_section_bytes_read_total", &[("section", "static")]),
            obs_bytes_dynamic: obs
                .counter_with("cla_db_section_bytes_read_total", &[("section", "dynamic")]),
            obs_pub_fetches: AtomicU64::new(0),
            obs_pub_dynamic: AtomicU64::new(0),
        })
    }

    /// Admits object bytes from outside this process — a `.clao` read from
    /// disk — as a database a solver may read: [`Database::open`], then
    /// [`Database::verify_all`], so every checksum and every id is checked
    /// before anything reads a block. Timed as the `db.admit` span, which
    /// says how many bytes it judged and how many it checksummed.
    ///
    /// # Errors
    ///
    /// The first thing found wrong with the bytes.
    pub fn admit(bytes: Vec<u8>) -> Result<Database, DbError> {
        let mut sp = cla_obs::global().span("db", "db.admit");
        sp.set("bytes", bytes.len());
        let before = bytes_checksummed();
        let admitted = Database::open(bytes).and_then(|db| db.verify_all().map(|()| db));
        sp.set("bytes_checksummed", bytes_checksummed() - before);
        admitted
    }

    /// Opens an object file read from `path`.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] when the file cannot be read, otherwise any
    /// [`DbError`] from [`Database::open`].
    pub fn open_path(path: &std::path::Path) -> Result<Database, DbError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DbError::Io(format!("cannot read `{}`: {e}", path.display())))?;
        Database::open(bytes)
    }

    /// The unit (or linked program) name.
    pub fn unit_name(&self) -> &str {
        &self.unit_name
    }

    /// Number of objects in the file.
    pub fn object_count(&self) -> usize {
        self.verified.len()
    }

    /// Every object id, in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ObjId> {
        (0..self.object_count() as u32).map(ObjId)
    }

    /// Object `id`'s record.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this database.
    fn record(&self, id: ObjId) -> ObjectRecord {
        let records = &self.file.bytes()[self.object_records.clone()];
        ObjectRecord::decode(&records.as_chunks().0[id.index()])
    }

    /// An object's display name.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this database.
    pub fn name(&self, id: ObjId) -> &str {
        self.strings.get(self.record(id).name)
    }

    /// An object's kind.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this database.
    pub fn kind(&self, id: ObjId) -> ObjKind {
        Self::kind_of(&self.record(id))
    }

    /// Opening judged every kind byte ([`UnitView::check_eager`]) or holds
    /// the file as written ([`Database::from_object`]).
    fn kind_of(rec: &ObjectRecord) -> ObjKind {
        rec.kind()
            .expect("object kinds are checked when a file is opened")
    }

    /// An object's metadata, decoded from its record.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this database.
    pub fn info(&self, id: ObjId) -> ObjectRef<'_> {
        let rec = self.record(id);
        let string = |sid| self.strings.get(sid);
        ObjectRef {
            name: string(rec.name),
            link_name: (rec.link != NONE_U32).then(|| string(rec.link)),
            kind: Self::kind_of(&rec),
            ty: string(rec.ty),
            loc: SrcLoc {
                file: FileIdx(rec.file),
                line: rec.line,
            },
            in_func: (rec.in_func != NONE_U32).then_some(ObjId(rec.in_func)),
            defined: rec.flags & 1 != 0,
        }
    }

    /// Every object's metadata, decoded into owned [`ObjectInfo`]s on first
    /// use and kept: for callers that want the table whole. [`Database::info`]
    /// and its narrower siblings read one object in place.
    pub fn objects(&self) -> &[ObjectInfo] {
        self.decoded
            .get_or_init(|| self.ids().map(|id| self.info(id).to_info()).collect())
    }

    /// [`Database::objects`]' entry for one object.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this database.
    pub fn object(&self, id: ObjId) -> &ObjectInfo {
        &self.objects()[id.index()]
    }

    /// The file-name table.
    pub fn files(&self) -> &FileTable {
        &self.files
    }

    /// All function/function-pointer signatures.
    pub fn funsigs(&self) -> &[FunSig] {
        &self.funsigs
    }

    /// The signature attached to an object, if any.
    pub fn funsig(&self, obj: ObjId) -> Option<&FunSig> {
        self.funsig_by_obj.get(&obj).map(|&i| &self.funsigs[i])
    }

    /// Decodes the static section: every `x = &y` assignment. This is the
    /// starting point of the points-to analysis and is always loaded.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on malformed records.
    pub fn static_assigns(&self) -> Result<Vec<PrimAssign>, DbError> {
        let bytes = self.records.statics(self.file.bytes());
        let out = decode_assigns(bytes)?;
        let count = out.len() as u64;
        self.loaded.fetch_add(count, Ordering::Relaxed);
        self.static_loaded.fetch_add(count, Ordering::Relaxed);
        self.obs_assigns_loaded.add(count);
        self.obs_bytes_static.add(bytes.len() as u64);
        Ok(out)
    }

    /// Number of assignments in the block for `obj`, without decoding it.
    pub fn block_len(&self, obj: ObjId) -> usize {
        if obj.index() >= self.verified.len() {
            return 0;
        }
        self.records.entry(self.file.bytes(), obj.index()).count as usize
    }

    /// Block `ix`'s raw bytes, put through the per-block half of the check
    /// ([`Records::check_block`]: checksum, then every record's ids) the
    /// first time they are fetched.
    #[inline]
    fn block_bytes(&self, ix: usize) -> Result<&[u8], DbError> {
        let data = self.file.bytes();
        if self.verified[ix].load(Ordering::Relaxed) {
            return Ok(self.records.block(data, ix)?);
        }
        let bytes = self.records.check_block(data, ix)?;
        self.verified[ix].store(true, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Decodes the dynamic block for `obj`: all assignments whose *source*
    /// is `obj`. One index lookup plus a sequential decode; callers may
    /// discard the result and re-fetch later (load-and-throw-away). The
    /// block's checksum is verified on its first fetch.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on malformed records and on damaged block
    /// bytes (a checksum mismatch).
    pub fn block(&self, obj: ObjId) -> Result<Vec<PrimAssign>, DbError> {
        if obj.index() >= self.verified.len() {
            return Ok(Vec::new());
        }
        let out = decode_assigns(self.block_bytes(obj.index())?)?;
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.loaded.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Runs the per-block half of the check over every block not yet
    /// fetched, in one pass. `Database::open` ran the eager half, so after
    /// `verify_all` returns `Ok` the file has passed everything
    /// [`UnitObject::verify`] checks and there is no byte or id the
    /// analysis can read that has not been confirmed. Used before a
    /// database reaches a solver, which indexes by the ids it reads and
    /// where a mid-solve failure would be far more disruptive than this one
    /// sequential scan.
    ///
    /// # Errors
    ///
    /// The first [`DbError`] any block fails with.
    pub fn verify_all(&self) -> Result<(), DbError> {
        for ix in 0..self.verified.len() {
            self.block_bytes(ix)?;
        }
        Ok(())
    }

    /// The target index, built by the first call.
    fn target_index(&self) -> &TargetIndex {
        self.targets.get_or_init(|| {
            let _sp = cla_obs::global().span("db", "db.target_index");
            TargetIndex::build(&self.file.bytes()[self.target_pairs.clone()], &self.strings)
        })
    }

    /// Objects matching a target name (the paper's target-section lookup for
    /// dependence analysis), in target-section order.
    pub fn targets(&self, name: &str) -> &[ObjId] {
        self.target_index().get(name, &self.strings)
    }

    /// All distinct target names (for browsing).
    pub fn target_names(&self) -> impl Iterator<Item = &str> {
        let index = self.target_index();
        index.names.iter().map(|&sid| self.strings.get(sid))
    }

    /// Accounting counters.
    pub fn load_stats(&self) -> LoadStats {
        let stats = LoadStats {
            assigns_loaded: self.loaded.load(Ordering::Relaxed),
            block_fetches: self.fetches.load(Ordering::Relaxed),
            assigns_in_file: self.assigns_in_file,
        };
        // Publish the demand-load delta since the last read to the global
        // metrics registry. Doing it here — every solve ends with a
        // `load_stats` read — keeps `block()`, the solver's innermost
        // loop, free of any obs-side atomics. The `swap` claims each delta
        // exactly once under concurrent readers; `saturating_sub` absorbs
        // a racing `reset_load_stats`.
        let dynamic = stats
            .assigns_loaded
            .saturating_sub(self.static_loaded.load(Ordering::Relaxed));
        let df = stats.block_fetches.saturating_sub(
            self.obs_pub_fetches
                .swap(stats.block_fetches, Ordering::Relaxed),
        );
        let dd = dynamic.saturating_sub(self.obs_pub_dynamic.swap(dynamic, Ordering::Relaxed));
        self.obs_block_fetches.add(df);
        self.obs_assigns_loaded.add(dd);
        self.obs_bytes_dynamic.add(dd * ASSIGN_RECORD_SIZE as u64);
        stats
    }

    /// Resets the loaded/fetch counters (e.g. between benchmark phases).
    pub fn reset_load_stats(&self) {
        self.loaded.store(0, Ordering::Relaxed);
        self.fetches.store(0, Ordering::Relaxed);
        self.static_loaded.store(0, Ordering::Relaxed);
        self.obs_pub_fetches.store(0, Ordering::Relaxed);
        self.obs_pub_dynamic.store(0, Ordering::Relaxed);
    }

    /// Size of the object file in bytes.
    pub fn file_size(&self) -> usize {
        self.file.bytes().len()
    }

    /// The object file's bytes, as written.
    pub fn bytes(&self) -> &[u8] {
        self.file.bytes()
    }

    /// Counts of the five assignment forms over every record of the file,
    /// read off each record's kind byte in place: what the link that wrote
    /// the file counted as it merged them.
    ///
    /// # Panics
    ///
    /// Panics on a kind byte or block no check has passed: call it on a
    /// database that was [admitted](Database::admit) or opened
    /// [from an object](Database::from_object).
    pub fn assign_counts(&self) -> AssignCounts {
        let data = self.file.bytes();
        let blocks = (0..self.verified.len())
            .map(|ix| self.records.block(data, ix).expect("a checked block"));
        let mut counts = AssignCounts::default();
        for records in std::iter::once(self.records.statics(data)).chain(blocks) {
            for rec in assign_records(records) {
                counts.add(assign_kind(rec).expect("a checked assignment kind"));
            }
        }
        counts
    }

    /// The identity a serve session keys its snapshot provenance on: the
    /// file's header checksum, verified at open. It covers the section
    /// table, each section's checksum and, through the dynamic index, every
    /// block's, so it is the root of the file's checksum tree and costs no
    /// pass over the bytes.
    pub fn content_hash(&self) -> u64 {
        self.file.checksum()
    }

    /// Fully decodes the database back into a [`CompiledUnit`] (for the
    /// non-demand-driven baseline solvers, transforms, dumps, and the
    /// program [`link`](crate::link) hands back; no build decodes an object
    /// to link it).
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on malformed records.
    pub fn to_unit(&self) -> Result<CompiledUnit, DbError> {
        let mut unit = CompiledUnit::new(self.unit_name.clone());
        unit.files = self.files.clone();
        unit.objects = self.ids().map(|id| self.info(id).to_info()).collect();
        unit.funsigs = self.funsigs.clone();
        unit.assigns = self.static_assigns()?;
        for id in self.ids() {
            unit.assigns.extend(self.block(id)?);
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerError;
    use crate::writer::write_object;
    use cla_ir::{compile_source, AssignKind, LowerOptions};

    fn db_for(src: &str) -> Database {
        let unit = compile_source(src, "a.c", &LowerOptions::default()).unwrap();
        Database::open(write_object(&unit)).unwrap()
    }

    #[test]
    fn roundtrip_counts() {
        let src = "int x, y, *p, *q, **pp;
                   void f(void) { x = y; p = &x; *pp = p; q = *pp; }";
        let unit = compile_source(src, "a.c", &LowerOptions::default()).unwrap();
        let db = Database::open(write_object(&unit)).unwrap();
        assert_eq!(db.objects().len(), unit.objects.len());
        let back = db.to_unit().unwrap();
        assert_eq!(back.assign_counts().total(), unit.assign_counts().total());
        assert_eq!(back.assign_counts(), unit.assign_counts());
        // Objects survive byte-for-byte, read in place or as a table.
        assert_eq!(back.objects, unit.objects);
        assert_eq!(db.objects(), unit.objects);
        assert_eq!(back.funsigs, unit.funsigs);
    }

    #[test]
    fn static_section_holds_addrs() {
        let db = db_for("int x, *p, *q; void f(void) { p = &x; q = p; }");
        let statics = db.static_assigns().unwrap();
        assert_eq!(statics.len(), 1);
        assert_eq!(statics[0].kind, AssignKind::Addr);
    }

    #[test]
    fn blocks_keyed_by_source() {
        // Paper Figure 4: block for z contains x = z and *p = z.
        let db = db_for(
            "int x, y, z, *p, *q;
             void f(void) { x = y; x = z; *p = z; p = q; q = &y; x = *p; }",
        );
        let z = db
            .objects()
            .iter()
            .position(|o| o.name == "z")
            .map(|i| ObjId(i as u32))
            .unwrap();
        let block = db.block(z).unwrap();
        assert_eq!(block.len(), 2);
        assert!(block.iter().all(|a| a.src == z));
        let kinds: Vec<_> = block.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AssignKind::Copy));
        assert!(kinds.contains(&AssignKind::Store));
        // Block for p: x = *p.
        let p = db
            .objects()
            .iter()
            .position(|o| o.name == "p")
            .map(|i| ObjId(i as u32))
            .unwrap();
        let block = db.block(p).unwrap();
        assert_eq!(block.len(), 1);
        assert_eq!(block[0].kind, AssignKind::Load);
    }

    #[test]
    fn accounting() {
        let db = db_for("int x, y, z; void f(void) { x = y; y = z; }");
        assert_eq!(db.load_stats().assigns_loaded, 0);
        let _ = db.static_assigns().unwrap();
        let y = db.objects().iter().position(|o| o.name == "y").unwrap();
        let before = db.load_stats();
        let b = db.block(ObjId(y as u32)).unwrap();
        assert_eq!(b.len(), 1);
        let after = db.load_stats();
        assert_eq!(after.assigns_loaded - before.assigns_loaded, 1);
        assert_eq!(after.block_fetches - before.block_fetches, 1);
        assert_eq!(after.assigns_in_file, 2);
        // Re-reading is allowed and counted again (load-and-throw-away).
        let _ = db.block(ObjId(y as u32)).unwrap();
        assert_eq!(db.load_stats().assigns_loaded, after.assigns_loaded + 1);
        db.reset_load_stats();
        assert_eq!(db.load_stats().assigns_loaded, 0);
    }

    #[test]
    fn targets_present() {
        let db = db_for("int zz; struct S { int fld; } s; void f(void) { s.fld = zz; }");
        assert_eq!(db.targets("zz").len(), 1);
        assert_eq!(db.targets("S.fld").len(), 1);
        assert!(db.targets("nope").is_empty());
        assert!(db.target_names().count() >= 3);
    }

    #[test]
    fn the_target_index_answers_as_a_map_filled_pair_by_pair() {
        // No order is assumed, and one text under two string ids is one
        // name: what a `HashMap<String, Vec<ObjId>>` filled in section
        // order holds.
        let strings = Strings::copy(&["a", "b", "a", "c"]);
        let pairs = [(1, 5), (0, 3), (2, 1), (0, 2), (3, 9), (1, 4), (1, 4)];
        let mut bytes = Vec::new();
        for pair in pairs {
            crate::record::put_pair(&mut bytes, pair);
        }
        let index = TargetIndex::build(&bytes, &strings);
        let mut map: HashMap<&str, Vec<ObjId>> = HashMap::new();
        for (sid, obj) in pairs {
            map.entry(strings.get(sid)).or_default().push(ObjId(obj));
        }
        for (name, objs) in &map {
            assert_eq!(index.get(name, &strings), objs.as_slice(), "{name}");
        }
        assert_eq!(index.names.len(), map.len());
        assert!(index.get("d", &strings).is_empty());
        assert!(TargetIndex::build(&[], &strings)
            .get("a", &strings)
            .is_empty());
    }

    #[test]
    fn funsig_lookup() {
        let db = db_for("int f(int a) { return a; } void g(void) { f(1); }");
        let f = db
            .objects()
            .iter()
            .position(|o| o.name == "f")
            .map(|i| ObjId(i as u32))
            .unwrap();
        let sig = db.funsig(f).unwrap();
        assert_eq!(sig.params.len(), 1);
        assert!(db.funsig(ObjId(9999)).is_none());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            Database::open(b"oops".to_vec()),
            Err(DbError::Container(ContainerError::BadMagic))
        ));
        assert!(matches!(
            Database::open(b"XXXXXXXXXXXXXXXXXXXXXXXX".to_vec()),
            Err(DbError::Container(ContainerError::BadMagic))
        ));
        let mut bytes = crate::MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            Database::open(bytes),
            Err(DbError::Container(ContainerError::BadVersion(99)))
        ));
    }

    #[test]
    fn flipped_bit_in_eager_section_is_a_checksum_error() {
        let unit = compile_source(
            "int x, *p; void f(void) { p = &x; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let full = write_object(&unit);
        // Flip one bit in every byte past the fixed header; each must be
        // rejected with a typed error (checksum or structural), never a
        // silently different database.
        let baseline = Database::open(full.clone()).unwrap().to_unit().unwrap();
        for pos in crate::HEADER_FIXED_SIZE..full.len() {
            let mut bytes = full.clone();
            bytes[pos] ^= 0x10;
            match Database::open(bytes) {
                Err(_) => {}
                Ok(db) => {
                    // The flip can only have landed in the dynamic blob
                    // (verified lazily) or an unreferenced gap; a full
                    // decode must either error or agree with the pristine
                    // file.
                    if let Ok(unit) = db.to_unit() {
                        assert_eq!(
                            unit.assigns, baseline.assigns,
                            "flip at {pos} went unnoticed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flipped_block_byte_is_caught_on_fetch_and_by_verify_all() {
        let unit = compile_source(
            "int x, y, z; void f(void) { x = y; y = z; z = x; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let full = write_object(&unit);
        let pristine = Database::open(full.clone()).unwrap();
        assert!(pristine.verify_all().is_ok());
        // Find the dynamic blob: flip a byte inside the last assignment
        // record of the file (blob bytes sit at the end of the dynamic
        // section). Locate it by diffing open results over flips from the
        // end until one is only caught lazily.
        let mut caught_lazily = false;
        for pos in (0..full.len()).rev() {
            let mut bytes = full.clone();
            bytes[pos] ^= 0xff;
            if let Ok(db) = Database::open(bytes) {
                let lazy_err = db.verify_all().is_err();
                if lazy_err {
                    caught_lazily = true;
                    // Every block is either clean or a typed error.
                    for i in 0..db.objects().len() {
                        let _ = db.block(ObjId(i as u32));
                    }
                    break;
                }
            }
        }
        assert!(caught_lazily, "no flip exercised the lazy block checksum");
    }

    #[test]
    fn truncation_is_detected() {
        let unit = compile_source(
            "int x, *p; void f(void) { p = &x; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let full = write_object(&unit);
        let truncated = full[..full.len() - 10].to_vec();
        assert!(Database::open(truncated).is_err());
    }
}
