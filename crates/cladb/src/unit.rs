//! The one reader of object-file section bodies, and the encoded object as
//! the unit of exchange of the build path.
//!
//! The compile phase hands the link phase object *files* (paper §4), not the
//! compiler's in-memory form: a [`UnitObject`] is the bytes [`write_object`]
//! (or the linker) produced together with the guarantee that they are
//! intact, and a [`UnitView`] is the borrowed reading of those bytes —
//! string table as `&str`s, fixed-size records as byte slices, nothing
//! decoded into `ObjectInfo` or `String` — that the
//! [`ObjectLinker`](crate::ObjectLinker) folds and a
//! [`Database`](crate::Database) is built from.
//!
//! The view is also the one checker. Its eager half
//! ([`UnitView::check_eager`]) covers every section checksum and every id
//! outside the dynamic blob; its per-block half ([`Records::check_block`])
//! one block's checksum and records. [`UnitObject::verify`] runs both over
//! bytes from anywhere else — a compile cache — before they may reach the
//! linker; `Database::open` runs the first and leaves the second to each
//! block's first fetch or to `verify_all`; `Database::from_object` runs
//! neither, because the only ways to hold a `UnitObject` are to have written
//! it ([`UnitObject::encode`], `ObjectLinker::finish`) or verified it.

use crate::container::{bytes_checksummed, checksum, Container, ContainerError, Cur, StringTable};
use crate::format::{DbError, SectionId, FORMAT, NONE_U32};
use crate::record::{
    assign_records, decode_assign, ids, pairs, AssignRecord, BlockEntry, ObjectRecord, SigRecord,
    ASSIGN_RECORD_SIZE, PAIR_SIZE,
};
use crate::writer::write_object;
use cla_ir::{AssignKind, CompiledUnit};
use std::ops::Range;

fn corrupt(msg: &str) -> ContainerError {
    ContainerError::corrupt(msg)
}

/// Where the assignment records of an object file sit in its bytes, and the
/// table sizes their ids are judged against: everything the per-block half
/// of the check needs. Offsets rather than slices, so a
/// [`Database`](crate::Database) keeps one beside the bytes it owns and
/// fetches, and on first fetch checks, a block through the same code
/// [`UnitObject::verify`] runs over all of them.
#[derive(Debug, Clone)]
pub(crate) struct Records {
    /// The static section's address-of records.
    statics: Range<usize>,
    /// The dynamic section's [`BlockEntry`]s, one per object.
    index: Range<usize>,
    /// The blocks behind the index.
    blob: Range<usize>,
    nfiles: u32,
}

impl Records {
    /// Blocks in the index: one per object the file declares.
    pub(crate) fn block_count(&self) -> usize {
        self.index.len() / BlockEntry::SIZE
    }

    /// Byte length of the index, count included: the prefix of the dynamic
    /// section that is read, and checksummed, eagerly.
    pub(crate) fn index_len(&self) -> usize {
        BlockEntry::index_len(self.block_count())
    }

    pub(crate) fn statics<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.statics.clone()]
    }

    pub(crate) fn entry(&self, data: &[u8], ix: usize) -> BlockEntry {
        BlockEntry::decode(&data[self.index.clone()][ix * BlockEntry::SIZE..][..BlockEntry::SIZE])
    }

    /// The encoded records of object `ix`'s block, as they are: bounds
    /// checked, nothing more.
    pub(crate) fn block<'a>(&self, data: &'a [u8], ix: usize) -> Result<&'a [u8], ContainerError> {
        (self.entry(data, ix).records(&data[self.blob.clone()]))
            .ok_or_else(|| corrupt("block past end of dynamic blob"))
    }

    /// Checks one assignment record; `owner` is the object whose block it
    /// sits in (`None` for the static section).
    fn check_record(&self, rec: &AssignRecord, owner: Option<u32>) -> Result<(), ContainerError> {
        let nobjs = self.block_count() as u32;
        let a = decode_assign(rec)?;
        // The writer's partition: address-of records in the static section,
        // everything else in the block of its source object.
        if (a.kind == AssignKind::Addr) != owner.is_none() {
            return Err(corrupt("assignment in the wrong section"));
        }
        if a.dst.0 >= nobjs || a.src.0 >= nobjs || owner.is_some_and(|o| o != a.src.0) {
            return Err(corrupt("assignment object out of range"));
        }
        if a.loc.file.0 != u32::MAX && a.loc.file.0 >= self.nfiles {
            return Err(corrupt("assignment file out of range"));
        }
        Ok(())
    }

    /// The per-block half of the check: block `ix`'s checksum, then every
    /// record in it. Returns the block's records.
    pub(crate) fn check_block<'a>(
        &self,
        data: &'a [u8],
        ix: usize,
    ) -> Result<&'a [u8], ContainerError> {
        let block = self.block(data, ix)?;
        let sum = self.entry(data, ix).checksum;
        FORMAT.check(checksum(0, block), sum, || format!("dynamic block {ix}"))?;
        for rec in assign_records(block) {
            self.check_record(rec, Some(ix as u32))?;
        }
        Ok(block)
    }
}

/// The borrowed reading of one object file: the only code that cuts the
/// nine section bodies ([`UnitView::layout`]) and judges them
/// ([`UnitView::check_eager`], [`Records::check_block`]). Bodies are held as
/// the byte slices they are in the file, cut to their record arrays.
#[derive(Debug)]
pub(crate) struct UnitView<'a> {
    file: &'a Container,
    pub(crate) strings: Vec<&'a str>,
    pub(crate) unit_name: &'a str,
    /// String ids of the file table.
    files: &'a [u8],
    /// Where the [`ObjectRecord`]s sit in the file.
    pub(crate) object_records: Range<usize>,
    /// The `(link name, object)` pairs of the global section.
    globals: &'a [u8],
    /// Where the `(display name, object)` pairs of the target section sit
    /// in the file.
    pub(crate) target_pairs: Range<usize>,
    pub(crate) records: Records,
    funsig_count: u32,
    funsigs: &'a [u8],
    /// The assignment total the meta section states.
    pub(crate) assigns: u64,
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

/// [`counted`] over section `id` of `file`: where its records sit in the
/// file's bytes.
fn counted_at(
    file: &Container,
    id: SectionId,
    record: usize,
) -> Result<Range<usize>, ContainerError> {
    let (entry, body) = file.lookup(id as u32, id.name())?;
    let at = entry.offset as usize + 4;
    Ok(at..at + counted(body, record, id.name())?.len())
}

impl<'a> UnitView<'a> {
    /// Cuts the sections of `file` into the view's slices. Checks shapes —
    /// presence, counts against lengths, UTF-8 — and no checksum.
    pub(crate) fn layout(file: &'a Container) -> Result<UnitView<'a>, ContainerError> {
        let section = |id: SectionId| file.lookup(id as u32, id.name());
        let body = |id: SectionId| section(id).map(|(_, body)| body);
        let mut cur = Cur::new(body(SectionId::String)?);
        let strings = StringTable::decode(&mut cur)?;
        cur.finish("string")?;
        let files = counted(body(SectionId::File)?, 4, "file")?;
        let object_records = counted_at(file, SectionId::Object, ObjectRecord::SIZE)?;
        let nobjs = object_records.len() / ObjectRecord::SIZE;
        let statics = counted_at(file, SectionId::Static, ASSIGN_RECORD_SIZE)?;
        let (entry, dynamic) = section(SectionId::Dynamic)?;
        let index_len = BlockEntry::index_len(nobjs);
        if Cur::new(dynamic).get_u32_le()? as usize != nobjs || dynamic.len() < index_len {
            return Err(corrupt("dynamic index size mismatch"));
        }
        let at = entry.offset as usize;
        let funsigs = body(SectionId::FunSig)?;
        let funsig_count = Cur::new(funsigs).get_u32_le()?;
        let mut meta = Cur::new(body(SectionId::Meta)?);
        let unit_name = (strings.get(meta.get_u32_le()? as usize))
            .ok_or_else(|| corrupt("unit name out of range"))?;
        let assigns = meta.get_u64_le()?;
        meta.finish("meta")?;
        Ok(UnitView {
            file,
            unit_name,
            files,
            object_records,
            globals: counted(body(SectionId::Global)?, PAIR_SIZE, "global")?,
            target_pairs: counted_at(file, SectionId::Target, PAIR_SIZE)?,
            records: Records {
                statics,
                index: at + 4..at + index_len,
                blob: at + index_len..at + dynamic.len(),
                nfiles: ids(files).len() as u32,
            },
            funsig_count,
            funsigs: &funsigs[4..],
            assigns,
            strings,
        })
    }

    /// Number of objects the unit declares.
    pub(crate) fn object_count(&self) -> usize {
        self.records.block_count()
    }

    /// String ids of the file table, in file-index order.
    pub(crate) fn files(&self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        ids(self.files)
    }

    pub(crate) fn objects(&self) -> impl ExactSizeIterator<Item = ObjectRecord> + 'a {
        let records = &self.file.bytes()[self.object_records.clone()];
        (records.as_chunks().0.iter()).map(ObjectRecord::decode)
    }

    /// The `(display name, object)` pairs of the target index.
    pub(crate) fn targets(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + 'a {
        pairs(&self.file.bytes()[self.target_pairs.clone()])
    }

    /// The static section's address-of records.
    pub(crate) fn statics(&self) -> &'a [u8] {
        self.records.statics(self.file.bytes())
    }

    /// Every dynamic block's records, in object order: the order
    /// [`Database::to_unit`](crate::Database::to_unit) lists them in.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        // `check` proved every entry in range; an unchecked view is one
        // this process laid out.
        let data = self.file.bytes();
        (0..self.object_count()).map(move |ix| self.records.block(data, ix).unwrap_or(&[]))
    }

    /// The signatures, or the first malformed one.
    pub(crate) fn funsigs(
        &self,
    ) -> impl Iterator<Item = Result<SigRecord<'a>, ContainerError>> + '_ {
        let mut cur = Cur::new(self.funsigs);
        (0..self.funsig_count).map(move |_| SigRecord::read(&mut cur))
    }

    /// The eager half of the check, everything [`UnitView::layout`] left
    /// open but the blob: the checksum of every section (`dynamic` by its
    /// index) and the range of every id outside a block.
    pub(crate) fn check_eager(&self) -> Result<(), ContainerError> {
        for id in SectionId::ALL {
            let (entry, body) = self.file.lookup(id as u32, id.name())?;
            let covered = match id {
                SectionId::Dynamic => &body[..self.records.index_len()],
                _ => body,
            };
            self.file.verify(entry, id.name(), covered)?;
        }
        let data = self.file.bytes();
        let nstrings = self.strings.len() as u32;
        let nobjs = self.object_count() as u32;
        if self.files().any(|sid| sid >= nstrings) {
            return Err(corrupt("file name out of range"));
        }
        for o in self.objects() {
            if o.name >= nstrings || (o.link != NONE_U32 && o.link >= nstrings) || o.ty >= nstrings
            {
                return Err(corrupt("object string out of range"));
            }
            o.kind()?;
            if (o.file != u32::MAX && o.file >= self.records.nfiles)
                || (o.in_func != NONE_U32 && o.in_func >= nobjs)
            {
                return Err(corrupt("object reference out of range"));
            }
        }
        if pairs(self.globals)
            .chain(self.targets())
            .any(|(s, o)| s >= nstrings || o >= nobjs)
        {
            return Err(corrupt("global or target pair out of range"));
        }
        // The writer sorts the target pairs. Nothing that reads them relies
        // on it, but a pair out of order or repeated is damage all the same.
        if (self.targets().zip(self.targets().skip(1))).any(|(a, b)| a >= b) {
            return Err(corrupt("target pairs out of order"));
        }
        let statics = assign_records(self.statics());
        for rec in statics {
            self.records.check_record(rec, None)?;
        }
        let dynamic: u64 = (0..nobjs as usize)
            .map(|ix| u64::from(self.records.entry(data, ix).count))
            .sum();
        if statics.len() as u64 + dynamic != self.assigns {
            return Err(corrupt("assignment totals disagree between sections"));
        }
        if dynamic * ASSIGN_RECORD_SIZE as u64 != self.records.blob.len() as u64 {
            return Err(corrupt("dynamic blob is not the blocks of its index"));
        }
        let mut sig_bytes = 0;
        for sig in self.funsigs() {
            let sig = sig?;
            if sig.obj >= nobjs || sig.ret >= nobjs || ids(sig.params).any(|p| p >= nobjs) {
                return Err(corrupt("signature object out of range"));
            }
            sig_bytes += sig.encoded_len();
        }
        if sig_bytes != self.funsigs.len() {
            return Err(corrupt("trailing bytes in funsig section"));
        }
        Ok(())
    }

    /// Both halves: every integrity check the format has.
    fn check(&self) -> Result<(), ContainerError> {
        self.check_eager()?;
        for ix in 0..self.object_count() {
            self.records.check_block(self.file.bytes(), ix)?;
        }
        Ok(())
    }
}

/// The encoded object of one translation unit or one linked program, known
/// to be intact: written and checksummed in this process, or admitted by
/// [`UnitObject::verify`].
#[derive(Debug, Clone)]
pub struct UnitObject {
    file: Container,
}

impl UnitObject {
    /// Encodes a freshly compiled unit ([`write_object`]).
    #[must_use]
    pub fn encode(unit: &CompiledUnit) -> UnitObject {
        UnitObject::sealed(write_object(unit))
    }

    /// Wraps object bytes this process has just assembled.
    pub(crate) fn sealed(bytes: Vec<u8>) -> UnitObject {
        let file = Container::open(bytes, &FORMAT).expect("a header this process just sealed");
        UnitObject { file }
    }

    /// The object of a unit that contributes nothing to a link but its slot
    /// in the order: what stands in for a quarantined file.
    #[must_use]
    pub fn empty(file: &str) -> UnitObject {
        UnitObject::encode(&CompiledUnit::new(file))
    }

    /// Admits object bytes from outside this process, running every
    /// integrity check the format has (see the module comment): what
    /// [`Database::open`](crate::Database::open) followed by
    /// [`Database::verify_all`](crate::Database::verify_all) runs, with the
    /// same verdict.
    ///
    /// # Errors
    ///
    /// The first thing found wrong with the bytes; checksum mismatches are
    /// counted under `cla_db_checksum_fail_total`.
    pub fn verify(bytes: Vec<u8>) -> Result<UnitObject, DbError> {
        let mut sp = cla_obs::global().span("db", "db.verify_object");
        sp.set("bytes", bytes.len());
        let before = bytes_checksummed();
        let file = Container::open(bytes, &FORMAT)?;
        UnitView::layout(&file)?.check()?;
        sp.set("bytes_checksummed", bytes_checksummed() - before);
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

    /// The file, for [`Database::from_object`](crate::Database::from_object)
    /// to read without judging it again.
    pub(crate) fn into_file(self) -> Container {
        self.file
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
        let statics = view.statics().len() / ASSIGN_RECORD_SIZE;
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
    fn resealed_bad_references_are_rejected_however_the_bytes_are_admitted() {
        // Damage under a recomputed checksum: only the range checks stand
        // between these bytes and an out-of-bounds index in a fold or a
        // solve. One table, both routes in.
        use crate::Database;
        use cla_ir::{AssignKind, FileIdx, ObjId};
        type Damage = fn(&mut CompiledUnit, u32);
        let cases: [(&str, Damage); 5] = [
            ("funsig param", |u, n| u.funsigs[0].params.push(ObjId(n))),
            ("in_func", |u, n| u.objects[1].in_func = Some(ObjId(n + 7))),
            ("Addr dst", |u, n| {
                let at = u.assigns.iter().position(|a| a.kind == AssignKind::Addr);
                u.assigns[at.unwrap()].dst = ObjId(n);
            }),
            ("Copy dst", |u, n| {
                let at = u.assigns.iter().position(|a| a.kind == AssignKind::Copy);
                u.assigns[at.unwrap()].dst = ObjId(n + 1);
            }),
            ("loc.file", |u, _| u.assigns[0].loc.file = FileIdx(40)),
        ];
        let pristine = compile_source(SRC, "a.c", &LowerOptions::default()).unwrap();
        let routes = |bytes: Vec<u8>| {
            let linker = UnitObject::verify(bytes.clone()).map(|_| ());
            let solver = Database::open(bytes).and_then(|db| db.verify_all());
            (linker, solver)
        };
        assert_eq!(routes(write_object(&pristine)), (Ok(()), Ok(())));
        for (what, damage) in cases {
            let mut unit = pristine.clone();
            damage(&mut unit, pristine.objects.len() as u32);
            let (linker, solver) = routes(write_object(&unit));
            assert!(matches!(linker, Err(DbError::Container(_))), "{what}");
            assert_eq!(linker, solver, "{what}: the two routes disagree");
        }
        // A record without a location is in range.
        let mut unit = pristine;
        unit.assigns[0].loc = cla_ir::SrcLoc::NONE;
        assert_eq!(routes(write_object(&unit)), (Ok(()), Ok(())));
    }
}
