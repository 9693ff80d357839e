//! Object-file reader with demand loading.
//!
//! [`Database`] decodes the cheap index sections eagerly (strings, object
//! metadata, block index) and leaves the assignment payload untouched until
//! a block is requested — the paper's "only those parts of the object file
//! that are required are loaded". Accounting counters record how many
//! assignments were loaded, supporting Table 3's in-core/loaded/in-file
//! columns. The paper used `mmap` for re-readable storage; we hold the byte
//! buffer in memory and decode ranges on demand, which preserves the
//! measured property: decoded assignments can be discarded and re-read later
//! at no extra I/O cost.
//!
//! Counters are atomic so a [`Database`] can be shared read-only across the
//! query threads of a long-running server.

use crate::container::{fnv64, Container, ContainerError, Cur, StringTable};
use crate::format::{DbError, SectionId, ASSIGN_RECORD_SIZE, FORMAT, NONE_U32};
use cla_ir::{
    AssignKind, CompiledUnit, FileIdx, FileTable, FunSig, ObjId, ObjKind, ObjectInfo, OpKind,
    PrimAssign, SrcLoc, Strength,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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

/// A CLA object file opened for demand-driven reading.
#[derive(Debug)]
pub struct Database {
    file: Container,
    /// Decoded object metadata (always resident; the heavy payload is the
    /// assignments, which stay encoded).
    objects: Vec<ObjectInfo>,
    files: FileTable,
    unit_name: String,
    /// Per-object index into the dynamic blob.
    block_index: Vec<BlockEntry>,
    dynamic_blob: (u64, u64),
    static_range: (u64, u32),
    funsigs: Vec<FunSig>,
    funsig_by_obj: HashMap<ObjId, usize>,
    targets: HashMap<String, Vec<ObjId>>,
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

/// One dynamic-index entry. `verified` lives in the same cache line as the
/// fields the demand loader reads anyway, so the warm-path integrity check
/// is one relaxed load with no extra memory traffic; it flips to 1 after
/// the block's checksum has been verified against the (immutable)
/// in-memory bytes, and racing verifiers idempotently store the same 1.
#[derive(Debug)]
struct BlockEntry {
    off: u64,
    checksum: u64,
    count: u32,
    verified: AtomicU32,
}

fn corrupt(msg: &str) -> DbError {
    ContainerError::corrupt(msg).into()
}

/// Decodes one fixed-size assignment record. Takes the record by array so
/// the field reads need no per-read bounds or `Result` plumbing — callers
/// validate the enclosing slice length once (`chunks_exact`), which keeps
/// the demand-load decode as cheap as the pre-checksum reader.
#[inline]
fn decode_assign(rec: &[u8; ASSIGN_RECORD_SIZE]) -> Result<PrimAssign, DbError> {
    let u32_at = |i: usize| u32::from_le_bytes([rec[i], rec[i + 1], rec[i + 2], rec[i + 3]]);
    let kind = AssignKind::from_u8(rec[0]).ok_or_else(|| corrupt("bad assignment kind"))?;
    let dst = ObjId(u32_at(1));
    let src = ObjId(u32_at(5));
    let strength = match rec[9] {
        0 => Strength::Weak,
        1 => Strength::Strong,
        _ => return Err(corrupt("bad strength")),
    };
    let op = OpKind::from_u8(rec[10]).ok_or_else(|| corrupt("bad op kind"))?;
    let file = FileIdx(u32_at(11));
    let line = u32_at(15);
    Ok(PrimAssign {
        kind,
        dst,
        src,
        strength,
        op,
        loc: SrcLoc { file, line },
    })
}

/// Decodes `count` contiguous assignment records from an exactly sized
/// byte slice (callers slice `count * ASSIGN_RECORD_SIZE` bytes).
#[inline]
fn decode_assigns(bytes: &[u8], count: u32) -> Result<Vec<PrimAssign>, DbError> {
    let mut out = Vec::with_capacity(count as usize);
    for rec in bytes.chunks_exact(ASSIGN_RECORD_SIZE) {
        out.push(decode_assign(rec.try_into().expect("chunks_exact size"))?);
    }
    if out.len() != count as usize {
        return Err(corrupt("truncated assignment record"));
    }
    Ok(out)
}

/// Byte length of `count` encoded assignment records.
fn records_len(count: u32) -> u64 {
    u64::from(count) * ASSIGN_RECORD_SIZE as u64
}

/// The `len` bytes of encoded assignment records at `off` in `data`, bounds
/// checked (checked add rejects offset + length overflow).
fn record_bytes(data: &[u8], off: u64, len: u64) -> Result<&[u8], DbError> {
    off.checked_add(len)
        .and_then(|end| data.get(usize::try_from(off).ok()?..usize::try_from(end).ok()?))
        .ok_or_else(|| corrupt("assignment records past end of file"))
}

impl Database {
    /// Opens an object file from bytes.
    ///
    /// Integrity verified here: the header checksum (covering the section
    /// table), then each known section's checksum — whole body for every
    /// section except `dynamic`, whose verified prefix is the eagerly read
    /// block index. The dynamic blob is verified lazily, block by block, on
    /// first demand load (see [`Database::block`]), so opening never hashes
    /// payload bytes the analysis might not touch.
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on malformed or damaged input.
    pub fn open(data: Vec<u8>) -> Result<Database, DbError> {
        let obs = cla_obs::global();
        let mut sp = obs.span("db", "db.open");
        let section_read = |id: SectionId, bytes: u64| {
            obs.counter_with("cla_db_section_bytes_read_total", &[("section", id.name())])
                .add(bytes);
        };
        let file = Container::open(data, &FORMAT)?;
        // Every known section's stored checksum must match its bytes. For
        // the dynamic section only the index prefix is covered (the blob is
        // verified per block on demand) — its verified length is computed
        // from the object count below, so here we check the others.
        for id in SectionId::ALL {
            if id == SectionId::Dynamic {
                continue;
            }
            match file.section(id as u32, id.name()) {
                // Missing sections are reported where they're used.
                Ok(_) | Err(ContainerError::MissingSection(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // A section's table entry and (already verified) body.
        let section = |id: SectionId| file.lookup(id as u32, id.name());
        // A section this function reads whole, as a cursor.
        let eager = |id: SectionId| -> Result<Cur<'_>, DbError> {
            let (entry, body) = section(id)?;
            section_read(id, entry.len);
            Ok(Cur::new(body))
        };

        // Strings.
        let mut buf = eager(SectionId::String)?;
        let strings = StringTable::decode(&mut buf)?;
        let get_str = |sid: u32| -> Result<&str, DbError> {
            strings
                .get(sid as usize)
                .map(String::as_str)
                .ok_or_else(|| corrupt(&format!("string id {sid} out of range")))
        };

        // Files.
        let mut buf = eager(SectionId::File)?;
        let count = buf.get_u32_le()? as usize;
        let mut file_names = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            file_names.push(get_str(buf.get_u32_le()?)?.to_string());
        }
        let files = FileTable::from_names(file_names);

        // Objects.
        let mut buf = eager(SectionId::Object)?;
        let count = buf.get_u32_le()? as usize;
        let mut objects = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let name = get_str(buf.get_u32_le()?)?.to_string();
            let link_sid = buf.get_u32_le()?;
            let link_name = if link_sid == NONE_U32 {
                None
            } else {
                Some(get_str(link_sid)?.to_string())
            };
            let ty = get_str(buf.get_u32_le()?)?.to_string();
            let kind = ObjKind::from_u8(buf.get_u8()?).ok_or_else(|| corrupt("bad object kind"))?;
            // Flags byte (v3): bit 0 = defined; other bits must be zero.
            let flags = buf.get_u8()?;
            if flags > 1 {
                return Err(corrupt("bad object flags"));
            }
            let file = FileIdx(buf.get_u32_le()?);
            let line = buf.get_u32_le()?;
            let in_func_raw = buf.get_u32_le()?;
            let in_func = if in_func_raw == NONE_U32 {
                None
            } else {
                Some(ObjId(in_func_raw))
            };
            objects.push(ObjectInfo {
                name,
                link_name,
                kind,
                ty,
                loc: SrcLoc { file, line },
                in_func,
                defined: flags & 1 != 0,
            });
        }

        // Static range.
        let (entry, body) = section(SectionId::Static)?;
        let mut buf = Cur::new(body);
        let static_count = buf.get_u32_le()?;
        let static_range = (entry.offset + 4, static_count);
        // Only the 4-byte header is read eagerly; the payload is counted
        // when `static_assigns` decodes it.
        section_read(SectionId::Static, 4);

        // Dynamic index.
        let (entry, body) = section(SectionId::Dynamic)?;
        let mut buf = Cur::new(body);
        let nobjs = buf.get_u32_le()? as usize;
        if nobjs != objects.len() {
            return Err(corrupt("dynamic index size mismatch"));
        }
        let index_len = 4 + nobjs as u64 * 20;
        if index_len > entry.len {
            return Err(corrupt("dynamic index larger than section"));
        }
        // The dynamic section's stored checksum covers exactly this eagerly
        // read index; the blob behind it carries per-block checksums.
        file.verify(entry, "dynamic", &body[..index_len as usize])?;
        let mut block_index = Vec::with_capacity(nobjs);
        let mut dynamic_total: u64 = 0;
        for _ in 0..nobjs {
            let boff = buf.get_u64_le()?;
            let cnt = buf.get_u32_le()?;
            let sum = buf.get_u64_le()?;
            dynamic_total += u64::from(cnt);
            block_index.push(BlockEntry {
                off: boff,
                checksum: sum,
                count: cnt,
                verified: AtomicU32::new(0),
            });
        }
        let dynamic_blob = (entry.offset + index_len, entry.len - index_len);
        // Eagerly read: the per-object block index, not the blob itself.
        section_read(SectionId::Dynamic, index_len);

        // Funsigs.
        let mut buf = eager(SectionId::FunSig)?;
        let count = buf.get_u32_le()? as usize;
        let mut funsigs = Vec::with_capacity(count.min(1 << 20));
        let mut funsig_by_obj = HashMap::new();
        for _ in 0..count {
            let obj = ObjId(buf.get_u32_le()?);
            let ret = ObjId(buf.get_u32_le()?);
            let is_indirect = buf.get_u8()? != 0;
            let nparams = buf.get_u32_le()? as usize;
            let mut params = Vec::with_capacity(nparams.min(1 << 16));
            for _ in 0..nparams {
                params.push(ObjId(buf.get_u32_le()?));
            }
            funsig_by_obj.insert(obj, funsigs.len());
            funsigs.push(FunSig {
                obj,
                params,
                ret,
                is_indirect,
            });
        }

        // Targets.
        let mut buf = eager(SectionId::Target)?;
        let count = buf.get_u32_le()? as usize;
        let mut targets: HashMap<String, Vec<ObjId>> = HashMap::new();
        for _ in 0..count {
            let name = get_str(buf.get_u32_le()?)?.to_string();
            let obj = ObjId(buf.get_u32_le()?);
            targets.entry(name).or_default().push(obj);
        }

        // Meta.
        let mut buf = eager(SectionId::Meta)?;
        let unit_name = get_str(buf.get_u32_le()?)?.to_string();
        let total_assigns = buf.get_u64_le()?;
        if total_assigns != dynamic_total + u64::from(static_count) {
            return Err(corrupt("assignment totals disagree between sections"));
        }

        sp.set("objects", objects.len());
        sp.set("assigns_in_file", total_assigns);
        sp.set("bytes", file.bytes().len());
        Ok(Database {
            file,
            objects,
            files,
            unit_name,
            block_index,
            dynamic_blob,
            static_range,
            funsigs,
            funsig_by_obj,
            targets,
            assigns_in_file: total_assigns,
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

    /// Object metadata (always resident).
    pub fn objects(&self) -> &[ObjectInfo] {
        &self.objects
    }

    /// Metadata for one object.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this database.
    pub fn object(&self, id: ObjId) -> &ObjectInfo {
        &self.objects[id.index()]
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
        let (off, count) = self.static_range;
        let bytes = record_bytes(self.file.bytes(), off, records_len(count))?;
        let out = decode_assigns(bytes, count)?;
        self.loaded.fetch_add(u64::from(count), Ordering::Relaxed);
        self.static_loaded
            .fetch_add(u64::from(count), Ordering::Relaxed);
        self.obs_assigns_loaded.add(u64::from(count));
        self.obs_bytes_static.add(records_len(count));
        Ok(out)
    }

    /// Number of assignments in the block for `obj`, without decoding it.
    pub fn block_len(&self, obj: ObjId) -> usize {
        self.block_index
            .get(obj.index())
            .map_or(0, |e| e.count as usize)
    }

    /// Bounds-checks block `ix` and verifies its checksum on first touch.
    /// Returns the block's raw bytes.
    #[inline]
    fn block_bytes(&self, ix: usize) -> Result<&[u8], DbError> {
        let e = &self.block_index[ix];
        let (blob_start, blob_len) = self.dynamic_blob;
        let need = records_len(e.count);
        if e.off.checked_add(need).is_none_or(|end| end > blob_len) {
            return Err(corrupt("block past end of dynamic blob"));
        }
        let bytes = record_bytes(self.file.bytes(), blob_start + e.off, need)?;
        // Lazy integrity: hash the block the first time it is fetched, then
        // remember — the bytes are immutable in memory, so the warm
        // demand-load path pays one relaxed load of a flag sitting in the
        // index entry's own cache line instead of a re-hash.
        if e.verified.load(Ordering::Relaxed) == 0 {
            FORMAT.check(fnv64(bytes), e.checksum, || format!("dynamic block {ix}"))?;
            e.verified.store(1, Ordering::Relaxed);
        }
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
        if obj.index() >= self.block_index.len() {
            return Ok(Vec::new());
        }
        let count = self.block_index[obj.index()].count;
        let out = decode_assigns(self.block_bytes(obj.index())?, count)?;
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.loaded.fetch_add(u64::from(count), Ordering::Relaxed);
        Ok(out)
    }

    /// Verifies every lazily checked checksum in the file (all dynamic
    /// blocks) in one pass. `Database::open` already verified the header,
    /// section table, and every eager section, so after `verify_all`
    /// returns `Ok` there is no byte the analysis can read whose integrity
    /// has not been confirmed. Used before swapping a reloaded database
    /// into a serving session, where a mid-solve checksum failure would be
    /// far more disruptive than this one sequential scan.
    ///
    /// # Errors
    ///
    /// The first [`DbError`] any block fails with.
    pub fn verify_all(&self) -> Result<(), DbError> {
        for ix in 0..self.block_index.len() {
            self.block_bytes(ix)?;
        }
        Ok(())
    }

    /// Objects matching a target name (the paper's target-section lookup for
    /// dependence analysis).
    pub fn targets(&self, name: &str) -> &[ObjId] {
        self.targets.get(name).map_or(&[], Vec::as_slice)
    }

    /// All distinct target names (for browsing).
    pub fn target_names(&self) -> impl Iterator<Item = &str> {
        self.targets.keys().map(String::as_str)
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

    /// [`fnv64`] of the object file's bytes: the identity a serve session
    /// keys its snapshot provenance on.
    pub fn content_hash(&self) -> u64 {
        fnv64(self.file.bytes())
    }

    /// Fully decodes the database back into a [`CompiledUnit`] (for the
    /// non-demand-driven baseline solvers, transforms, dumps and the
    /// reference linker's callers; no build decodes an object to link it).
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] on malformed records.
    pub fn to_unit(&self) -> Result<CompiledUnit, DbError> {
        let mut unit = CompiledUnit::new(self.unit_name.clone());
        unit.files = self.files.clone();
        unit.objects = self.objects.clone();
        unit.funsigs = self.funsigs.clone();
        unit.assigns = self.static_assigns()?;
        for i in 0..self.objects.len() {
            unit.assigns.extend(self.block(ObjId(i as u32))?);
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_object;
    use cla_ir::{compile_source, LowerOptions};

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
        // Objects survive byte-for-byte.
        assert_eq!(back.objects, unit.objects);
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
