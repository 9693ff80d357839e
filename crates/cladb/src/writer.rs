//! Object-file writer: serializes a [`CompiledUnit`] into the sectioned
//! format of [`format`](crate::format), and provides crash-safe persistence
//! via [`write_object_file`] (write-to-temp + fsync + atomic rename), so an
//! interrupted compile or link never leaves a half-written `.clao` behind
//! for a later phase to load.

use crate::container::{assemble, checksum, Put, Section, StringTable};
use crate::format::{SectionId, FORMAT, NONE_U32};
use crate::record::{
    assign_records, assign_src, put_assign, put_pair, BlockEntry, ObjectRecord, SigRecord,
    ASSIGN_RECORD_SIZE, PAIR_SIZE,
};
use cla_ir::{CompiledUnit, FunSig, ObjId, PrimAssign};
use std::io::Write as _;
use std::path::Path;

/// Serializes a compiled unit to object-file bytes.
///
/// The dynamic section groups non-address assignments into per-object blocks
/// keyed by their *source* object (paper Figure 4: the block for `z` holds
/// `x = z` and `*p = z`); address-of assignments go to the always-loaded
/// static section.
pub fn write_object(unit: &CompiledUnit) -> Vec<u8> {
    let obs = cla_obs::global();
    let mut sp = obs.span("db", "db.write_object");
    sp.set("unit", unit.file.as_str());
    let mut strings = StringTable::default();

    // Strings are interned in the order that fixes their ids: file names,
    // each object's name, link name and type, the unit's name.
    let files: Vec<u32> = (unit.files.names().iter())
        .map(|name| strings.intern(name))
        .collect();
    let objects: Vec<ObjectRecord> = (unit.objects.iter())
        .map(|o| ObjectRecord {
            name: strings.intern(&o.name),
            link: (o.link_name.as_ref()).map_or(NONE_U32, |l| strings.intern(l)),
            ty: strings.intern(&o.ty),
            kind: o.kind as u8,
            flags: u8::from(o.defined),
            file: o.loc.file.0,
            line: o.loc.line,
            in_func: o.in_func.map_or(NONE_U32, |f| f.0),
        })
        .collect();
    let name = strings.intern(&unit.file);
    let (mut statics, mut dynamics) = (Vec::new(), Vec::new());
    for a in &unit.assigns {
        let out = match block_key(a) {
            None => &mut statics,
            Some(_) => &mut dynamics,
        };
        put_assign(out, a);
    }
    let out = write_sections(
        &strings.encode(),
        &files,
        &objects,
        [&statics, &dynamics],
        unit.funsigs.iter(),
        name,
    );
    sp.set("assigns", unit.assigns.len());
    sp.set("bytes", out.len());
    out
}

/// Writes the nine section bodies of an object file and seals them: the one
/// layout [`write_object`] and the block linker share. `strings` is the
/// encoded string table `files`, `objects` and `name` hold ids of;
/// `statics` are the encoded address-of records, `dynamics` every other
/// record in arrival order; the global and target indexes and the
/// assignment total are derived here.
pub(crate) fn write_sections<'a>(
    strings: &[u8],
    files: &[u32],
    objects: &[ObjectRecord],
    [statics, dynamics]: [&[u8]; 2],
    sigs: impl ExactSizeIterator<Item = &'a FunSig>,
    name: u32,
) -> Vec<u8> {
    let mut file_sec = Vec::with_capacity(4 + 4 * files.len());
    file_sec.put_u32_le(files.len() as u32);
    for &sid in files {
        file_sec.put_u32_le(sid);
    }
    let mut obj_sec = Vec::with_capacity(4 + ObjectRecord::SIZE * objects.len());
    obj_sec.put_u32_le(objects.len() as u32);
    let (mut globals, mut targets) = (Vec::new(), Vec::new());
    for (i, o) in objects.iter().enumerate() {
        o.put(&mut obj_sec);
        if o.link != NONE_U32 {
            globals.push((o.link, i as u32));
        }
        // The target index maps display names to objects. Heap sites ride
        // along with the program objects: they show up inside points-to sets
        // (`heap@a.c:12`, the `<unknown>` summary object), so they must be
        // addressable by name in queries too.
        let kind = o.kind().expect("a kind this process encoded");
        if kind.is_program_object() || kind == cla_ir::ObjKind::Heap {
            targets.push((o.name, i as u32));
        }
    }
    targets.sort_unstable();
    let (nstatics, ndynamics) = (
        assign_records(statics).len(),
        assign_records(dynamics).len(),
    );
    let mut static_sec = Vec::with_capacity(4 + statics.len());
    static_sec.put_u32_le(nstatics as u32);
    static_sec.extend_from_slice(statics);
    let (dyn_sec, dyn_index_len) = dynamic_section(objects.len(), dynamics);
    let mut meta_sec = Vec::new();
    meta_sec.put_u32_le(name);
    meta_sec.put_u64_le((nstatics + ndynamics) as u64);
    assemble_object(
        [
            strings,
            &file_sec,
            &obj_sec,
            &pair_section(&globals),
            &static_sec,
            &dyn_sec,
            &funsig_section(sigs),
            &pair_section(&targets),
            &meta_sec,
        ],
        dyn_index_len,
    )
}

/// A section of `(string id, object id)` pairs behind their count: the
/// global and the target section.
fn pair_section(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut sec = Vec::with_capacity(4 + PAIR_SIZE * pairs.len());
    sec.put_u32_le(pairs.len() as u32);
    for &pair in pairs {
        put_pair(&mut sec, pair);
    }
    sec
}

/// The funsig section for `sigs`, in the order given.
fn funsig_section<'a>(sigs: impl ExactSizeIterator<Item = &'a FunSig>) -> Vec<u8> {
    let mut sec = Vec::new();
    sec.put_u32_le(sigs.len() as u32);
    for sig in sigs {
        SigRecord::put(&mut sec, sig);
    }
    sec
}

/// Seals the nine section bodies of an object file, given in
/// [`SectionId::ALL`] order, counting their sizes under
/// `cla_db_section_bytes_written_total`.
pub(crate) fn assemble_object(bodies: [&[u8]; 9], dyn_index_len: usize) -> Vec<u8> {
    let obs = cla_obs::global();
    let sections: Vec<Section<'_>> = (SectionId::ALL.into_iter().zip(bodies))
        .map(|(id, body)| {
            obs.counter_with(
                "cla_db_section_bytes_written_total",
                &[("section", id.name())],
            )
            .add(body.len() as u64);
            Section {
                // The dynamic section's checksum covers only its eagerly
                // read index prefix; the blob behind it is covered by the
                // per-block checksums, so demand loading never hashes data
                // it does not decode.
                verified_len: match id {
                    SectionId::Dynamic => dyn_index_len,
                    _ => body.len(),
                },
                ..Section::whole(id as u32, body)
            }
        })
        .collect();
    assemble(&FORMAT, &sections)
}

/// Builds the dynamic section from the encoded non-address records of a
/// unit or program in arrival order: one stable counting sort over one
/// offsets array groups them into per-object blocks keyed by their *source*
/// object. The index in front holds, per object, (relative blob offset,
/// count, block checksum); the checksum covers the block's encoded bytes and
/// is verified lazily by the reader on the block's first demand load.
/// Returns the section body and the length of that index, the prefix the
/// section's own checksum covers.
///
/// # Panics
///
/// Panics when a record's source object is not below `nobjs`.
fn dynamic_section(nobjs: usize, records: &[u8]) -> (Vec<u8>, usize) {
    let records = assign_records(records);
    // `ends[o]` counts the records of the objects before `o`, then, as the
    // scatter advances it, ends up at the end of `o`'s block.
    let mut ends = vec![0usize; nobjs + 1];
    for rec in records {
        ends[assign_src(rec) as usize + 1] += 1;
    }
    for o in 0..nobjs {
        ends[o + 1] += ends[o];
    }
    let index_len = BlockEntry::index_len(nobjs);
    let mut sec = vec![0u8; index_len + records.len() * ASSIGN_RECORD_SIZE];
    let (index, blob) = sec.split_at_mut(index_len);
    let (blocks, _) = blob.as_chunks_mut();
    for rec in records {
        let end = &mut ends[assign_src(rec) as usize];
        blocks[*end] = *rec;
        *end += 1;
    }
    index[..4].copy_from_slice(&(nobjs as u32).to_le_bytes());
    let mut start = 0;
    for (entry, &end) in index[4..].chunks_exact_mut(BlockEntry::SIZE).zip(&ends) {
        let block = blocks[start..end].as_flattened();
        let written = BlockEntry {
            offset: (start * ASSIGN_RECORD_SIZE) as u64,
            count: (end - start) as u32,
            checksum: checksum(0, block),
        };
        entry.copy_from_slice(&written.encode());
        start = end;
    }
    (sec, index_len)
}

/// Writes `bytes` to `path` crash-safely: the data goes to a temporary file
/// in the same directory, is fsync'd, and is atomically renamed over the
/// destination, after which the directory itself is fsync'd. A reader (or a
/// crash at any instant) sees either the complete old file or the complete
/// new file — never a prefix.
///
/// # Errors
///
/// Any I/O failure; the temporary file is removed on error.
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_parts(path, &[bytes])
}

/// [`atomic_write_bytes`] of the concatenation of `parts`, each written
/// where it lies: a caller whose file is a header and its sections makes no
/// copy of the whole.
///
/// # Errors
///
/// As [`atomic_write_bytes`].
pub fn atomic_write_parts(path: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
    // A per-write sequence number keeps concurrent writers *within* one
    // process (e.g. two serve sessions sharing a snapshot directory) from
    // colliding on the temporary name — a collision would let one writer
    // truncate the other's half-written temp and rename garbage into place.
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let base = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(".{base}.tmp.{}.{seq}", std::process::id()));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        // Data must be durable before the rename makes it visible,
        // otherwise a crash could publish a name pointing at garbage.
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Durable rename: fsync the directory entry. Best effort — some
        // filesystems refuse to open directories for syncing.
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Removes stale temporaries left in `dir` by a crash mid-write. Matches the
/// `.{base}.tmp.{pid}.{seq}` names produced by [`atomic_write_bytes`] (and
/// the older `.{base}.tmp.{pid}` form) plus plain `*.tmp` leftovers,
/// skipping any temporary owned by the current process — a concurrent
/// writer in this process may still be mid-rename, so sweeping its temp
/// would turn an in-flight save into a lost write. Returns the number of
/// files reclaimed and bumps `cla_db_tmp_reclaimed_total`.
///
/// # Errors
///
/// Fails only if `dir` cannot be read; per-file removal errors are ignored
/// (another process may have swept the same file first).
pub fn sweep_stale_tmp(dir: &Path) -> std::io::Result<usize> {
    let own_suffix = format!(".{}", std::process::id());
    let own_infix = format!(".tmp.{}.", std::process::id());
    let mut reclaimed = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        if !entry.file_type().is_ok_and(|t| t.is_file()) {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let ours = name.ends_with(&own_suffix) || name.contains(&own_infix);
        let stale =
            (name.starts_with('.') && name.contains(".tmp.") && !ours) || name.ends_with(".tmp");
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            reclaimed += 1;
        }
    }
    if reclaimed > 0 {
        cla_obs::global()
            .counter("cla_db_tmp_reclaimed_total")
            .add(reclaimed as u64);
    }
    Ok(reclaimed)
}

/// Serializes `unit` and persists it crash-safely at `path`
/// (see [`atomic_write_bytes`]). Returns the encoded size in bytes.
///
/// # Errors
///
/// Any I/O failure from the write-fsync-rename protocol.
pub fn write_object_file(unit: &CompiledUnit, path: &Path) -> std::io::Result<usize> {
    let bytes = write_object(unit);
    atomic_write_bytes(path, &bytes)?;
    Ok(bytes.len())
}

/// Returns the per-source-object block an assignment belongs to, mirroring
/// the writer's grouping (exposed for tests).
pub fn block_key(a: &PrimAssign) -> Option<ObjId> {
    if a.kind == cla_ir::AssignKind::Addr {
        None
    } else {
        Some(a.src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_ir::{compile_source, LowerOptions};

    #[test]
    fn writes_nonempty_object() {
        let unit = compile_source(
            "int x, *p; void f(void) { p = &x; x = *p; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let bytes = write_object(&unit);
        assert!(bytes.len() > 64);
        // Magic at the front.
        assert_eq!(&bytes[..4], &crate::MAGIC.to_le_bytes());
    }

    #[test]
    fn block_key_is_source() {
        let unit = compile_source(
            "int x, y, *p; void f(void) { x = y; p = &x; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let copy = unit
            .assigns
            .iter()
            .find(|a| a.kind == cla_ir::AssignKind::Copy)
            .unwrap();
        let addr = unit
            .assigns
            .iter()
            .find(|a| a.kind == cla_ir::AssignKind::Addr)
            .unwrap();
        assert_eq!(block_key(copy), Some(copy.src));
        assert_eq!(block_key(addr), None);
    }

    #[test]
    fn deterministic_output() {
        let unit = compile_source(
            "int a, b, *p; void f(void) { p = &a; b = a; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        assert_eq!(write_object(&unit), write_object(&unit));
    }
}
