//! The fixed-size records of the object format, each written once: size,
//! field layout, encoder, decoder and enum-byte validation. The writer, the
//! block linker, the [`UnitView`](crate::unit::UnitView) and the fault
//! injector all go through this module; none of them spells a field out.
//!
//! ```text
//! assignment  19  kind u8 | dst u32 | src u32 | strength u8 | op u8 | file u32 | line u32
//! object      26  name u32 | link u32 | ty u32 | kind u8 | flags u8 | file u32 | line u32 | in_func u32
//! block entry 20  blob offset u64 | record count u32 | fnv64 of the records u64
//! funsig   13+4n  obj u32 | ret u32 | is_indirect u8 | n u32 | n × param u32
//! pair         8  string id u32 | object id u32
//! ```
//!
//! Integers are little-endian; `name`, `link` and `ty` are string ids, `file`
//! a file index, the rest object ids. Range checks against a particular
//! file's tables are the view's; what a byte may say on its own is checked
//! here.

use crate::container::{ContainerError, Cur, Put};
use cla_ir::{AssignKind, FileIdx, FunSig, ObjId, ObjKind, OpKind, PrimAssign, SrcLoc, Strength};

fn corrupt(msg: &str) -> ContainerError {
    ContainerError::corrupt(msg)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a 4-byte slice"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// The ids of an array of `u32`s: a file table, a signature's parameters.
pub(crate) fn ids(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + Clone + '_ {
    bytes.chunks_exact(4).map(|id| u32_at(id, 0))
}

/// Size in bytes of one encoded assignment record.
pub const ASSIGN_RECORD_SIZE: usize = 19;

/// One encoded assignment.
pub(crate) type AssignRecord = [u8; ASSIGN_RECORD_SIZE];

/// Where the three ids a link relocates sit in an [`AssignRecord`].
const ASSIGN_DST: usize = 1;
const ASSIGN_SRC: usize = 5;
const ASSIGN_FILE: usize = 11;

/// The records of an array of encoded assignments (a static section behind
/// its count, a block of the dynamic blob).
pub(crate) fn assign_records(bytes: &[u8]) -> &[AssignRecord] {
    bytes.as_chunks().0
}

pub(crate) fn put_assign(buf: &mut Vec<u8>, a: &PrimAssign) {
    buf.put_u8(a.kind as u8);
    buf.put_u32_le(a.dst.0);
    buf.put_u32_le(a.src.0);
    buf.put_u8(a.strength as u8);
    buf.put_u8(a.op as u8);
    buf.put_u32_le(a.loc.file.0);
    buf.put_u32_le(a.loc.line);
}

/// Decodes one record, rejecting an enum byte the writer never emits. Takes
/// the record by array so the field reads need no per-read bounds check:
/// this is the demand loader's inner loop.
#[inline]
pub(crate) fn decode_assign(rec: &AssignRecord) -> Result<PrimAssign, ContainerError> {
    let kind = assign_kind(rec).ok_or_else(|| corrupt("bad assignment kind"))?;
    let strength = match rec[9] {
        0 => Strength::Weak,
        1 => Strength::Strong,
        _ => return Err(corrupt("bad strength")),
    };
    let op = OpKind::from_u8(rec[10]).ok_or_else(|| corrupt("bad op kind"))?;
    Ok(PrimAssign {
        kind,
        dst: ObjId(u32_at(rec, ASSIGN_DST)),
        src: ObjId(assign_src(rec)),
        strength,
        op,
        loc: SrcLoc {
            file: FileIdx(u32_at(rec, ASSIGN_FILE)),
            line: u32_at(rec, 15),
        },
    })
}

/// The kind byte as its enum: what a fold counts without decoding the rest.
pub(crate) fn assign_kind(rec: &AssignRecord) -> Option<AssignKind> {
    AssignKind::from_u8(rec[0])
}

/// The source object: the key of the block a record is filed under.
pub(crate) fn assign_src(rec: &AssignRecord) -> u32 {
    u32_at(rec, ASSIGN_SRC)
}

/// Rewrites the ids a link relocates — destination and source through
/// `obj`, the location's file through `file` — leaving the rest as encoded.
pub(crate) fn relocate_assign(
    rec: &mut AssignRecord,
    obj: impl Fn(u32) -> u32,
    file: impl Fn(u32) -> u32,
) {
    for (at, id) in [
        (ASSIGN_DST, obj(u32_at(rec, ASSIGN_DST))),
        (ASSIGN_SRC, obj(u32_at(rec, ASSIGN_SRC))),
        (ASSIGN_FILE, file(u32_at(rec, ASSIGN_FILE))),
    ] {
        rec[at..at + 4].copy_from_slice(&id.to_le_bytes());
    }
}

/// One record of the object section, as stored. The block linker keeps its
/// program's objects in this shape too, strings as ids of its own pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObjectRecord {
    pub name: u32,
    /// [`NONE_U32`](crate::NONE_U32) for an object without linkage.
    pub link: u32,
    pub ty: u32,
    pub kind: u8,
    /// Bit 0 = defined; the other bits are reserved and zero.
    pub flags: u8,
    /// `u32::MAX` when the object has no location.
    pub file: u32,
    pub line: u32,
    /// [`NONE_U32`](crate::NONE_U32) outside a function.
    pub in_func: u32,
}

impl ObjectRecord {
    pub(crate) const SIZE: usize = 26;

    pub(crate) fn decode(rec: &[u8; Self::SIZE]) -> ObjectRecord {
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

    pub(crate) fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u32_le(self.name);
        buf.put_u32_le(self.link);
        buf.put_u32_le(self.ty);
        buf.put_u8(self.kind);
        buf.put_u8(self.flags);
        buf.put_u32_le(self.file);
        buf.put_u32_le(self.line);
        buf.put_u32_le(self.in_func);
    }

    /// The kind byte as its enum, once it and the flags byte are values the
    /// writer emits.
    pub(crate) fn kind(&self) -> Result<ObjKind, ContainerError> {
        if self.flags > 1 {
            return Err(corrupt("bad object flags"));
        }
        ObjKind::from_u8(self.kind).ok_or_else(|| corrupt("bad object kind"))
    }
}

/// One entry of the dynamic section's block index: where an object's block
/// sits in the blob behind the index, and what its bytes must hash to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockEntry {
    /// Byte offset of the block's first record within the blob.
    pub offset: u64,
    /// Records in the block.
    pub count: u32,
    /// [`fnv64`](crate::fnv64) of the block's records.
    pub checksum: u64,
}

impl BlockEntry {
    pub(crate) const SIZE: usize = 20;

    /// Byte length of the index of `nobjs` entries, count included: the
    /// prefix of the dynamic section its table checksum covers.
    pub(crate) fn index_len(nobjs: usize) -> usize {
        4 + nobjs * Self::SIZE
    }

    pub(crate) fn decode(entry: &[u8]) -> BlockEntry {
        BlockEntry {
            offset: u64_at(entry, 0),
            count: u32_at(entry, 8),
            checksum: u64_at(entry, 12),
        }
    }

    pub(crate) fn encode(&self) -> [u8; Self::SIZE] {
        let mut entry = [0; Self::SIZE];
        entry[..8].copy_from_slice(&self.offset.to_le_bytes());
        entry[8..12].copy_from_slice(&self.count.to_le_bytes());
        entry[12..].copy_from_slice(&self.checksum.to_le_bytes());
        entry
    }

    /// The block's encoded records, or `None` when the entry points outside
    /// `blob` (checked add rejects offset + length overflow).
    pub(crate) fn records<'a>(&self, blob: &'a [u8]) -> Option<&'a [u8]> {
        let len = u64::from(self.count) * ASSIGN_RECORD_SIZE as u64;
        let end = self.offset.checked_add(len)?;
        blob.get(usize::try_from(self.offset).ok()?..usize::try_from(end).ok()?)
    }
}

/// One signature of the funsig section, parameters still encoded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SigRecord<'a> {
    pub obj: u32,
    pub ret: u32,
    pub is_indirect: bool,
    /// Object ids ([`ids`]), back to back.
    pub params: &'a [u8],
}

impl<'a> SigRecord<'a> {
    /// Where the `is_indirect` byte sits in an encoded signature.
    pub(crate) const INDIRECT_AT: usize = 8;

    /// Reads the signature `cur` stands at.
    pub(crate) fn read(cur: &mut Cur<'a>) -> Result<SigRecord<'a>, ContainerError> {
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
    }

    /// The signature decoded, every object id passed through `obj` (a
    /// link's relocation, or [`ObjId`] itself).
    pub(crate) fn decode(&self, obj: impl Fn(u32) -> ObjId) -> FunSig {
        FunSig {
            obj: obj(self.obj),
            params: ids(self.params).map(&obj).collect(),
            ret: obj(self.ret),
            is_indirect: self.is_indirect,
        }
    }

    pub(crate) fn put(buf: &mut Vec<u8>, sig: &FunSig) {
        buf.put_u32_le(sig.obj.0);
        buf.put_u32_le(sig.ret.0);
        buf.put_u8(u8::from(sig.is_indirect));
        buf.put_u32_le(sig.params.len() as u32);
        for p in &sig.params {
            buf.put_u32_le(p.0);
        }
    }

    /// Bytes this signature takes in its section.
    pub(crate) fn encoded_len(&self) -> usize {
        13 + self.params.len()
    }
}

/// Byte size of one `(string id, object id)` pair of the global and target
/// sections.
pub(crate) const PAIR_SIZE: usize = 8;

/// The pairs of an array of them.
pub(crate) fn pairs(bytes: &[u8]) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
    (bytes.chunks_exact(PAIR_SIZE)).map(|pair| (u32_at(pair, 0), u32_at(pair, 4)))
}

pub(crate) fn put_pair(buf: &mut Vec<u8>, (sid, oid): (u32, u32)) {
    buf.put_u32_le(sid);
    buf.put_u32_le(oid);
}
