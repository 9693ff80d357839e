//! One unit's encoded object as the unit of exchange of the build path.
//!
//! The compile phase hands the link phase object *files* (paper §4), not the
//! compiler's in-memory form: a [`UnitObject`] is the bytes [`write_object`]
//! produced for one translation unit together with the guarantee that they
//! are intact, and a [`UnitView`] is the borrowed reading of those bytes the
//! [`ObjectLinker`](crate::ObjectLinker) folds — string table as `&str`s,
//! fixed-size records as byte slices, nothing decoded into `ObjectInfo` or
//! `String`.
//!
//! There are two ways to hold a `UnitObject`. [`UnitObject::encode`] wraps
//! what this process just wrote. [`UnitObject::verify`] takes bytes from
//! anywhere else — a compile cache — and runs every integrity check the
//! format has before they may reach the linker: header and section table,
//! every section checksum, every dynamic block's checksum, and every
//! reference a fold follows (string ids, object ids, file indices, enum
//! bytes), so the fold itself never meets a value it has to doubt.

use crate::container::{fnv64, Container, ContainerError, Cur};
use crate::format::{DbError, SectionId, ASSIGN_RECORD_SIZE, FORMAT, NONE_U32};
use crate::writer::{u32_at, write_object, BLOCK_ENTRY_SIZE, RECORD_DST, RECORD_FILE, RECORD_SRC};
use cla_ir::{AssignKind, CompiledUnit, ObjKind, OpKind};

/// Byte size of one record of the object section.
pub(crate) const OBJECT_RECORD_SIZE: usize = 26;

/// One record of the object section, as stored: string ids unresolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObjectRecord {
    pub name: u32,
    /// [`NONE_U32`] for an object without linkage.
    pub link: u32,
    pub ty: u32,
    pub kind: u8,
    /// Bit 0 = defined.
    pub flags: u8,
    /// `u32::MAX` when the object has no location.
    pub file: u32,
    pub line: u32,
    /// [`NONE_U32`] outside a function.
    pub in_func: u32,
}

impl ObjectRecord {
    fn decode(rec: &[u8]) -> ObjectRecord {
        ObjectRecord {
            name: u32_at(rec, 0),
            link: u32_at(rec, 4),
            ty: u32_at(rec, 8),
            kind: rec[12],
            flags: rec[13],
            file: u32_at(rec, 14),
            line: u32_at(rec, 18),
            in_func: u32_at(rec, 22),
        }
    }
}

/// One signature of the funsig section, parameters still encoded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SigRecord<'a> {
    pub obj: u32,
    pub ret: u32,
    pub is_indirect: bool,
    /// `u32` object ids, little-endian, back to back.
    pub params: &'a [u8],
}

/// The borrowed reading of one unit object. Section bodies are held as the
/// byte slices they are in the file, cut to their record arrays.
#[derive(Debug)]
pub(crate) struct UnitView<'a> {
    pub(crate) strings: Vec<&'a str>,
    /// String ids of the file table, 4 bytes each.
    files: &'a [u8],
    /// [`OBJECT_RECORD_SIZE`]-byte records.
    objects: &'a [u8],
    /// The static section's address-of records.
    pub(crate) statics: &'a [u8],
    /// [`BLOCK_ENTRY_SIZE`]-byte entries, one per object.
    index: &'a [u8],
    blob: &'a [u8],
    funsig_count: u32,
    funsigs: &'a [u8],
    /// The assignment total the meta section states.
    assigns: u64,
}

fn corrupt(msg: &str) -> ContainerError {
    ContainerError::corrupt(msg)
}

/// A section that is a `u32` count followed by exactly that many
/// `record`-byte records; returns the records.
fn counted<'a>(body: &'a [u8], record: usize, name: &str) -> Result<&'a [u8], ContainerError> {
    let mut cur = Cur::new(body);
    let count = cur.get_u32_le()? as usize;
    let records = &body[4..];
    if count.checked_mul(record) != Some(records.len()) {
        return Err(ContainerError::Corrupt(format!(
            "{name} section is not {count} records of {record} bytes"
        )));
    }
    Ok(records)
}

impl<'a> UnitView<'a> {
    /// Cuts the sections of `file` into the view's slices. Checks shapes —
    /// presence, counts against lengths, UTF-8 — and no checksum.
    fn layout(file: &'a Container) -> Result<UnitView<'a>, ContainerError> {
        let body = |id: SectionId| file.lookup(id as u32, id.name()).map(|(_, body)| body);
        let mut cur = Cur::new(body(SectionId::String)?);
        let count = cur.get_u32_le()? as usize;
        let mut strings = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            strings.push(cur.get_str()?);
        }
        cur.finish("string")?;
        let objects = counted(body(SectionId::Object)?, OBJECT_RECORD_SIZE, "object")?;
        let nobjs = objects.len() / OBJECT_RECORD_SIZE;
        let dynamic = body(SectionId::Dynamic)?;
        let index_len = 4 + nobjs * BLOCK_ENTRY_SIZE;
        if Cur::new(dynamic).get_u32_le()? as usize != nobjs || dynamic.len() < index_len {
            return Err(corrupt("dynamic index size mismatch"));
        }
        let funsigs = body(SectionId::FunSig)?;
        let funsig_count = Cur::new(funsigs).get_u32_le()?;
        let mut meta = Cur::new(body(SectionId::Meta)?);
        if meta.get_u32_le()? as usize >= strings.len() {
            return Err(corrupt("unit name out of range"));
        }
        let assigns = meta.get_u64_le()?;
        meta.finish("meta")?;
        Ok(UnitView {
            strings,
            files: counted(body(SectionId::File)?, 4, "file")?,
            objects,
            statics: counted(body(SectionId::Static)?, ASSIGN_RECORD_SIZE, "static")?,
            index: &dynamic[4..index_len],
            blob: &dynamic[index_len..],
            funsig_count,
            funsigs: &funsigs[4..],
            assigns,
        })
    }

    /// Number of objects the unit declares.
    pub(crate) fn object_count(&self) -> usize {
        self.objects.len() / OBJECT_RECORD_SIZE
    }

    /// String ids of the file table, in file-index order.
    pub(crate) fn files(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.files.chunks_exact(4).map(|sid| u32_at(sid, 0))
    }

    pub(crate) fn objects(&self) -> impl ExactSizeIterator<Item = ObjectRecord> + 'a {
        self.objects
            .chunks_exact(OBJECT_RECORD_SIZE)
            .map(ObjectRecord::decode)
    }

    /// The encoded records of object `ix`'s block and its stored checksum,
    /// or `None` when the index entry points outside the blob.
    fn block(&self, ix: usize) -> Option<(&'a [u8], u64)> {
        let entry = &self.index[ix * BLOCK_ENTRY_SIZE..][..BLOCK_ENTRY_SIZE];
        let off = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
        let len = u64::from(u32_at(entry, 8)) * ASSIGN_RECORD_SIZE as u64;
        let sum = u64::from_le_bytes(entry[12..].try_into().expect("8 bytes"));
        let end = off.checked_add(len)?;
        let bytes = self
            .blob
            .get(usize::try_from(off).ok()?..usize::try_from(end).ok()?)?;
        Some((bytes, sum))
    }

    /// Every dynamic block's records, in object order: the order
    /// [`Database::to_unit`](crate::Database::to_unit) lists them in.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        // `verify` proved every entry in range; an unverified view is one
        // `write_object` just laid out.
        (0..self.object_count()).map(|ix| self.block(ix).map_or(&[][..], |(bytes, _)| bytes))
    }

    /// The signatures, or the first malformed one.
    pub(crate) fn funsigs(
        &self,
    ) -> impl Iterator<Item = Result<SigRecord<'a>, ContainerError>> + '_ {
        let mut cur = Cur::new(self.funsigs);
        (0..self.funsig_count).map(move |_| {
            let obj = cur.get_u32_le()?;
            let ret = cur.get_u32_le()?;
            let is_indirect = match cur.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("bad indirect flag")),
            };
            let nparams = cur.get_u32_le()? as usize;
            let params = cur.take(nparams.checked_mul(4).ok_or_else(|| corrupt("bad arity"))?)?;
            Ok(SigRecord {
                obj,
                ret,
                is_indirect,
                params,
            })
        })
    }

    /// Checks one assignment record; `owner` is the object whose block it
    /// sits in (`None` for the static section).
    fn check_record(&self, rec: &[u8], owner: Option<u32>) -> Result<(), ContainerError> {
        let nobjs = self.object_count() as u32;
        let nfiles = (self.files.len() / 4) as u32;
        let kind = AssignKind::from_u8(rec[0]).ok_or_else(|| corrupt("bad assignment kind"))?;
        // The writer's partition: address-of records in the static section,
        // everything else in the block of its source object.
        if (kind == AssignKind::Addr) != owner.is_none() {
            return Err(corrupt("assignment in the wrong section"));
        }
        if rec[9] > 1 {
            return Err(corrupt("bad strength"));
        }
        OpKind::from_u8(rec[10]).ok_or_else(|| corrupt("bad op kind"))?;
        let src = u32_at(rec, RECORD_SRC);
        if u32_at(rec, RECORD_DST) >= nobjs || src >= nobjs || owner.is_some_and(|o| o != src) {
            return Err(corrupt("assignment object out of range"));
        }
        let file = u32_at(rec, RECORD_FILE);
        if file != u32::MAX && file >= nfiles {
            return Err(corrupt("assignment file out of range"));
        }
        Ok(())
    }

    /// Everything [`UnitView::layout`] left unchecked: the checksum of every
    /// section and block, and the range of every id a fold follows.
    fn check(&self, file: &Container) -> Result<(), ContainerError> {
        for id in SectionId::ALL {
            if id != SectionId::Dynamic {
                file.section(id as u32, id.name())?;
            }
        }
        let (entry, body) = file.lookup(SectionId::Dynamic as u32, "dynamic")?;
        file.verify(entry, "dynamic", &body[..4 + self.index.len()])?;

        let nstrings = self.strings.len() as u32;
        let nobjs = self.object_count() as u32;
        let nfiles = self.files().len() as u32;
        if self.files().any(|sid| sid >= nstrings) {
            return Err(corrupt("file name out of range"));
        }
        for o in self.objects() {
            if o.name >= nstrings || (o.link != NONE_U32 && o.link >= nstrings) || o.ty >= nstrings
            {
                return Err(corrupt("object string out of range"));
            }
            if ObjKind::from_u8(o.kind).is_none() {
                return Err(corrupt("bad object kind"));
            }
            if o.flags > 1 {
                return Err(corrupt("bad object flags"));
            }
            if (o.file != u32::MAX && o.file >= nfiles)
                || (o.in_func != NONE_U32 && o.in_func >= nobjs)
            {
                return Err(corrupt("object reference out of range"));
            }
        }
        for rec in self.statics.chunks_exact(ASSIGN_RECORD_SIZE) {
            self.check_record(rec, None)?;
        }
        let mut total = (self.statics.len() / ASSIGN_RECORD_SIZE) as u64;
        for ix in 0..nobjs {
            let (block, sum) = self
                .block(ix as usize)
                .ok_or_else(|| corrupt("block past end of dynamic blob"))?;
            FORMAT.check(fnv64(block), sum, || format!("dynamic block {ix}"))?;
            for rec in block.chunks_exact(ASSIGN_RECORD_SIZE) {
                self.check_record(rec, Some(ix))?;
            }
            total += (block.len() / ASSIGN_RECORD_SIZE) as u64;
        }
        if total != self.assigns {
            return Err(corrupt("assignment totals disagree between sections"));
        }
        let mut sig_bytes = 0;
        for sig in self.funsigs() {
            let sig = sig?;
            let params = sig.params.chunks_exact(4).map(|p| u32_at(p, 0));
            if sig.obj >= nobjs || sig.ret >= nobjs || params.clone().any(|p| p >= nobjs) {
                return Err(corrupt("signature object out of range"));
            }
            sig_bytes += 13 + sig.params.len();
        }
        if sig_bytes != self.funsigs.len() {
            return Err(corrupt("trailing bytes in funsig section"));
        }
        Ok(())
    }
}

/// The encoded object of one translation unit, known to be intact.
#[derive(Debug, Clone)]
pub struct UnitObject {
    file: Container,
}

impl UnitObject {
    /// Encodes a freshly compiled unit ([`write_object`]).
    #[must_use]
    pub fn encode(unit: &CompiledUnit) -> UnitObject {
        let file = Container::open(write_object(unit), &FORMAT)
            .expect("write_object seals the header it writes");
        UnitObject { file }
    }

    /// The object of a unit that contributes nothing to a link but its slot
    /// in the order: what stands in for a quarantined file.
    #[must_use]
    pub fn empty(file: &str) -> UnitObject {
        UnitObject::encode(&CompiledUnit::new(file))
    }

    /// Admits object bytes from outside this process, running every
    /// integrity check the format has (see the module comment).
    ///
    /// # Errors
    ///
    /// The first thing found wrong with the bytes; checksum mismatches are
    /// counted under `cla_db_checksum_fail_total`.
    pub fn verify(bytes: Vec<u8>) -> Result<UnitObject, DbError> {
        let mut sp = cla_obs::global().span("db", "db.verify_object");
        sp.set("bytes", bytes.len());
        let file = Container::open(bytes, &FORMAT)?;
        UnitView::layout(&file)?.check(&file)?;
        Ok(UnitObject { file })
    }

    /// The object file's bytes, as a compile cache stores them.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        self.file.bytes()
    }

    /// The borrowed reading a linker folds.
    pub(crate) fn view(&self) -> UnitView<'_> {
        UnitView::layout(&self.file).expect("a unit object is laid out as its writer left it")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_ir::{compile_source, LowerOptions};

    const SRC: &str = "int x, y, *p, **pp; int *id(int *v) { return v; }
                       void f(void) { p = &x; pp = &p; *pp = &y; y = x; p = id(*pp); }";

    fn object() -> Vec<u8> {
        write_object(&compile_source(SRC, "a.c", &LowerOptions::default()).unwrap())
    }

    #[test]
    fn a_written_object_verifies_and_reads_back_its_counts() {
        let unit = compile_source(SRC, "a.c", &LowerOptions::default()).unwrap();
        let object = UnitObject::verify(write_object(&unit)).unwrap();
        let view = object.view();
        assert_eq!(view.object_count(), unit.objects.len());
        assert_eq!(view.assigns, unit.assigns.len() as u64);
        assert_eq!(view.funsigs().count(), unit.funsigs.len());
        let dynamic: usize = view.blocks().map(|b| b.len() / ASSIGN_RECORD_SIZE).sum();
        let statics = view.statics.len() / ASSIGN_RECORD_SIZE;
        assert_eq!(statics + dynamic, unit.assigns.len());
        assert_eq!(UnitObject::encode(&unit).bytes(), object.bytes());
    }

    #[test]
    fn every_flipped_byte_is_rejected_blob_included() {
        // `Database::open` lets a flip in the dynamic blob through until the
        // block is fetched; a unit object on its way to the linker may not.
        let good = object();
        for pos in crate::HEADER_FIXED_SIZE..good.len() {
            let mut bytes = good.clone();
            bytes[pos] ^= 0x04;
            assert!(UnitObject::verify(bytes).is_err(), "flip at {pos} admitted");
        }
        for cut in 0..good.len() {
            assert!(UnitObject::verify(good[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn resealed_bad_references_are_rejected() {
        // Damage under a recomputed checksum: only the range checks stand
        // between these bytes and an out-of-bounds index in the fold.
        let mut unit = compile_source(SRC, "a.c", &LowerOptions::default()).unwrap();
        let n = unit.objects.len() as u32;
        unit.funsigs[0].params.push(cla_ir::ObjId(n));
        assert!(UnitObject::verify(write_object(&unit)).is_err());
        unit.funsigs[0].params.pop();
        unit.objects[1].in_func = Some(cla_ir::ObjId(n + 7));
        assert!(UnitObject::verify(write_object(&unit)).is_err());
        unit.objects[1].in_func = None;
        unit.assigns[0].loc.file = cla_ir::FileIdx(40);
        assert!(UnitObject::verify(write_object(&unit)).is_err());
        unit.assigns[0].loc = cla_ir::SrcLoc::NONE;
        assert!(UnitObject::verify(write_object(&unit)).is_ok());
    }
}
