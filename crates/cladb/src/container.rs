//! The sectioned, checksummed container behind both on-disk formats.
//!
//! Paper §4 makes the object file a COFF/ELF-style container whose linked
//! "executable" has the same format and to which "new sections can be
//! transparently added". `.clao` object files and `.clasnap` snapshots are
//! two instantiations ([`Format`]) of the one container defined here:
//!
//! ```text
//! magic u32 | version u32 | header checksum u64 | section count u32
//! count × (id u32, offset u64, len u64, checksum u64)      section table
//! section bodies, back to back in table order
//! ```
//!
//! Integrity is an [`xxh64`] tree. The header checksum covers the table
//! (count + entries), so a damaged offset, length or checksum field is
//! caught before anything trusts it. Each entry's checksum covers its
//! section's *verified prefix* — the whole body, or a shorter prefix the
//! client names (the object format's `dynamic` section checksums only its
//! eagerly read block index and covers the blob behind it block by block) —
//! and is seeded with the section id, so two entries swapped *together
//! with* their checksums still fail. Readers look sections up by id and
//! ignore ids they do not know.
//!
//! This module is the only code that knows that layout. Clients decode and
//! encode section bodies with [`Cur`] and [`Put`] and never do header or
//! table arithmetic.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

/// Byte size of the fixed header before the section table.
pub const HEADER_FIXED_SIZE: usize = 20;

/// Byte size of one section-table entry on the wire.
pub const SECTION_ENTRY_SIZE: usize = 28;

/// Where the header checksum's coverage starts: the section count.
const TABLE_START: usize = HEADER_FIXED_SIZE - 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bytes, folded to 64 bits: one multiply per byte in a
/// serial chain, too slow for the formats' checksums ([`xxh64`] is those).
/// It is the pin hash that tests and benchmarks fingerprint bytes with.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 of `bytes` under `seed` (Yann Collet's xxHash, 64-bit variant):
/// four independent multiply-rotate lanes over 32-byte stripes, so it runs
/// at memory speed where a byte-serial hash waits on each multiply. The
/// zero-dependency integrity checksum of both formats — not cryptographic:
/// it detects bit rot, truncation and torn writes, which is the database
/// failure model (DESIGN.md §10) — and the hash of every content key.
#[must_use]
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        seed.wrapping_add(P5)
    } else {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *acc = xxh_round(*acc, u64::from_le_bytes(*lane));
            }
        }
        let h = (v[0].rotate_left(1))
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, xxh_merge)
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        h ^= xxh_round(0, u64::from_le_bytes(*word));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let tail = match tail.split_first_chunk::<4>() {
        Some((word, rest)) => {
            h ^= u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest
        }
        None => tail,
    };
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

thread_local! {
    static CHECKSUMMED: Cell<u64> = const { Cell::new(0) };
}

/// The checksum of one stored sum of either format — header, section or
/// object block — counted toward [`bytes_checksummed`].
pub(crate) fn checksum(seed: u64, bytes: &[u8]) -> u64 {
    CHECKSUMMED.with(|n| n.set(n.get() + bytes.len() as u64));
    xxh64(bytes, seed)
}

/// Bytes this thread has run through the formats' checksum so far. A span
/// reports its share as the difference across it.
#[must_use]
pub fn bytes_checksummed() -> u64 {
    CHECKSUMMED.with(Cell::get)
}

/// One instantiation of the container: what the fixed header must say and
/// how failures of this kind of file are named and counted.
#[derive(Debug)]
pub struct Format {
    pub magic: u32,
    /// The one version readers accept; others are rejected, never migrated.
    pub version: u32,
    /// Noun for error messages (`"CLA object"`, `"snapshot"`).
    pub kind: &'static str,
    /// Counter bumped on every checksum mismatch.
    pub checksum_fail_metric: &'static str,
}

impl Format {
    /// Compares a recomputed checksum with the stored one, counting a
    /// mismatch under the format's metric. Public so a client's in-body
    /// checksums (the object format's per-block sums) fail the same way.
    pub fn check(
        &self,
        got: u64,
        want: u64,
        what: impl FnOnce() -> String,
    ) -> Result<(), ContainerError> {
        if got == want {
            return Ok(());
        }
        cla_obs::global().counter(self.checksum_fail_metric).inc();
        Err(ContainerError::Checksum(what()))
    }
}

/// What can be wrong with a container file. Section-body decoders report
/// through it too (every [`Cur`] read does), so each format's error is this
/// plus whatever only that format can say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Not a file of this format (short or wrong magic).
    BadMagic,
    /// A file of this format in a version the reader does not accept.
    BadVersion(u32),
    /// A section the client requires is absent.
    MissingSection(&'static str),
    /// Structurally invalid data (truncation, bad enum value, out-of-range
    /// reference, duplicate section id).
    Corrupt(String),
    /// Stored and recomputed checksums disagree: the bytes were damaged
    /// after they were written (bit rot, torn write, tampering).
    Checksum(String),
}

impl ContainerError {
    /// Shorthand for the variant body decoders raise most.
    pub fn corrupt(msg: impl Into<String>) -> ContainerError {
        ContainerError::Corrupt(msg.into())
    }

    /// Renders the error for a file of `kind` ([`Format::kind`]).
    pub fn fmt_for(&self, kind: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not a {kind} file (bad magic)"),
            ContainerError::BadVersion(v) => write!(f, "unsupported {kind} version {v}"),
            ContainerError::MissingSection(s) => write!(f, "{kind} file has no `{s}` section"),
            ContainerError::Corrupt(msg) => write!(f, "corrupt {kind} file: {msg}"),
            ContainerError::Checksum(what) => write!(f, "{kind} file checksum mismatch: {what}"),
        }
    }
}

/// A little-endian read cursor over a byte slice. Every read is bounds
/// checked and reports a typed [`ContainerError::Corrupt`] on a short
/// buffer — no read from a file can panic, no matter how damaged the bytes
/// are.
#[derive(Debug)]
pub struct Cur<'a> {
    buf: &'a [u8],
}

impl<'a> Cur<'a> {
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cur { buf }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let (v, rest) = self.buf.split_at_checked(n).ok_or_else(|| {
            ContainerError::Corrupt(format!("unexpected end of section ({n} more bytes needed)"))
        })?;
        self.buf = rest;
        Ok(v)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ContainerError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub fn get_u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn get_u32_le(&mut self) -> Result<u32, ContainerError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn get_u64_le(&mut self) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` length followed by that many bytes of UTF-8 (what
    /// [`Put::put_str`] writes).
    pub fn get_str(&mut self) -> Result<&'a str, ContainerError> {
        let len = self.get_u32_le()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| ContainerError::corrupt("string is not UTF-8"))
    }

    /// Requires the cursor to be exhausted: a decoder that stops short of
    /// its section's end has misread it.
    pub fn finish(&self, section: &str) -> Result<(), ContainerError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        Err(ContainerError::Corrupt(format!(
            "trailing bytes in {section} section"
        )))
    }
}

/// Little-endian append helpers over a plain byte vector: the write side
/// of [`Cur`].
pub trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    /// A `u32` length followed by the string's bytes.
    fn put_str(&mut self, s: &str);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_str(&mut self, s: &str) {
        self.put_u32_le(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }
}

/// The string table both formats carry: strings are interned to dense
/// `u32` ids while the other sections are built, then written as a count
/// followed by length-prefixed UTF-8.
#[derive(Debug, Default)]
pub struct StringTable<'a> {
    list: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
}

impl<'a> StringTable<'a> {
    /// The id of `s`, assigned in first-seen order.
    pub fn intern(&mut self, s: &'a str) -> u32 {
        *self.index.entry(s).or_insert_with(|| {
            self.list.push(s);
            (self.list.len() - 1) as u32
        })
    }

    /// The table's section body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32_le(self.list.len() as u32);
        for s in &self.list {
            out.put_str(s);
        }
        out
    }

    /// Reads a table back, its strings borrowed from the section body; a
    /// string's id is its index.
    pub fn decode<'b>(cur: &mut Cur<'b>) -> Result<Vec<&'b str>, ContainerError> {
        let count = cur.get_u32_le()? as usize;
        let mut strings = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            strings.push(cur.get_str()?);
        }
        Ok(strings)
    }
}

/// One entry of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Raw section id (may be unknown to this reader version).
    pub id: u32,
    /// Byte offset of the body within the file.
    pub offset: u64,
    pub len: u64,
    /// [`xxh64`] of the section's verified prefix, seeded with its id.
    pub checksum: u64,
}

/// The decoded header of a container file: its checksum and section table.
/// This is the entry codec — the reader, [`assemble`] and the tools that
/// rewrite tables (the fault injector's shuffle, the forward-compatibility
/// tests) all go through it instead of deriving offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// The stored checksum over the table bytes.
    pub checksum: u64,
    pub table: Vec<SectionEntry>,
}

impl Header {
    /// Decodes and judges the header of `data`: magic, version, then the
    /// checksum over the table bytes *before* any entry is decoded, then
    /// the entries. Two entries with one id make the file ambiguous and
    /// are rejected.
    pub fn read(data: &[u8], format: &Format) -> Result<Header, ContainerError> {
        let mut hdr = Cur::new(data);
        if data.len() < HEADER_FIXED_SIZE || hdr.get_u32_le()? != format.magic {
            return Err(ContainerError::BadMagic);
        }
        let version = hdr.get_u32_le()?;
        if version != format.version {
            return Err(ContainerError::BadVersion(version));
        }
        let stored = hdr.get_u64_le()?;
        let count = hdr.get_u32_le()? as usize;
        let table_end = count
            .checked_mul(SECTION_ENTRY_SIZE)
            .and_then(|n| n.checked_add(HEADER_FIXED_SIZE))
            .filter(|&end| end <= data.len())
            .ok_or_else(|| ContainerError::corrupt("truncated section table"))?;
        format.check(checksum(0, &data[TABLE_START..table_end]), stored, || {
            "section table".into()
        })?;
        let mut table: Vec<SectionEntry> = Vec::with_capacity(count);
        for _ in 0..count {
            let entry = SectionEntry {
                id: hdr.get_u32_le()?,
                offset: hdr.get_u64_le()?,
                len: hdr.get_u64_le()?,
                checksum: hdr.get_u64_le()?,
            };
            if table.iter().any(|e| e.id == entry.id) {
                let msg = format!("duplicate section id {}", entry.id);
                return Err(ContainerError::Corrupt(msg));
            }
            table.push(entry);
        }
        Ok(Header {
            checksum: stored,
            table,
        })
    }

    /// The header's size on the wire; the first section body starts here.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        HEADER_FIXED_SIZE + self.table.len() * SECTION_ENTRY_SIZE
    }

    fn put_table(&self, out: &mut Vec<u8>) {
        out.put_u32_le(self.table.len() as u32);
        for e in &self.table {
            out.put_u32_le(e.id);
            out.put_u64_le(e.offset);
            out.put_u64_le(e.len);
            out.put_u64_le(e.checksum);
        }
    }

    /// Re-derives every offset for bodies laid back to back in table order
    /// behind this header (how [`assemble`] writes them), then seals.
    pub fn relayout(&mut self) {
        let mut offset = self.encoded_len() as u64;
        for e in &mut self.table {
            e.offset = offset;
            offset += e.len;
        }
        self.seal();
    }

    /// Recomputes [`Header::checksum`] from the table.
    pub fn seal(&mut self) {
        let mut table = Vec::with_capacity(self.encoded_len() - TABLE_START);
        self.put_table(&mut table);
        self.checksum = checksum(0, &table);
    }

    /// The header's bytes, with the checksum as stored (call
    /// [`Header::seal`] first unless a stale one is the point).
    #[must_use]
    pub fn encode(&self, format: &Format) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.put_u32_le(format.magic);
        out.put_u32_le(format.version);
        out.put_u64_le(self.checksum);
        self.put_table(&mut out);
        out
    }
}

/// One section handed to [`assemble`].
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    pub id: u32,
    pub body: &'a [u8],
    /// How many leading bytes of `body` the table checksum covers.
    pub verified_len: usize,
}

impl<'a> Section<'a> {
    /// A section whose checksum covers its whole body.
    #[must_use]
    pub fn whole(id: u32, body: &'a [u8]) -> Self {
        let verified_len = body.len();
        Section {
            id,
            body,
            verified_len,
        }
    }
}

/// Lays `sections` out behind a sealed header: the one writer of the
/// container.
#[must_use]
pub fn assemble(format: &Format, sections: &[Section<'_>]) -> Vec<u8> {
    let mut header = Header {
        checksum: 0,
        table: (sections.iter())
            .map(|s| SectionEntry {
                id: s.id,
                offset: 0,
                len: s.body.len() as u64,
                checksum: checksum(s.id.into(), &s.body[..s.verified_len]),
            })
            .collect(),
    };
    header.relayout();
    let mut out = header.encode(format);
    out.reserve_exact(sections.iter().map(|s| s.body.len()).sum());
    for s in sections {
        out.extend_from_slice(s.body);
    }
    out
}

/// A container file opened for reading: the bytes plus their verified
/// section table. Opening checks the header only; each section is bounds
/// checked when looked up and checksummed when the client asks, which is
/// what lets a format verify eagerly, lazily or by prefix.
#[derive(Debug, Clone)]
pub struct Container {
    data: Vec<u8>,
    table: Vec<SectionEntry>,
    checksum: u64,
    format: &'static Format,
}

impl Container {
    /// Takes ownership of `data` and verifies its header.
    pub fn open(data: Vec<u8>, format: &'static Format) -> Result<Container, ContainerError> {
        let Header { checksum, table } = Header::read(&data, format)?;
        Ok(Container {
            data,
            table,
            checksum,
            format,
        })
    }

    /// The whole file.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// The header checksum, verified at open: it covers the section table,
    /// and through each entry's checksum every section's verified prefix,
    /// so it is the root of the file's checksum tree.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The section table (covered by the verified header checksum).
    #[must_use]
    pub fn table(&self) -> &[SectionEntry] {
        &self.table
    }

    /// Looks section `id` up and bounds checks its range (checked add
    /// rejects `offset + len` overflow). Nothing is checksummed: pair with
    /// [`Container::verify`], or use [`Container::section`]. `name` is for
    /// the error when the section is missing.
    pub fn lookup(
        &self,
        id: u32,
        name: &'static str,
    ) -> Result<(&SectionEntry, &[u8]), ContainerError> {
        let entry = self
            .table
            .iter()
            .find(|e| e.id == id)
            .ok_or(ContainerError::MissingSection(name))?;
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or_else(|| ContainerError::corrupt("section range overflow"))?;
        if end > self.data.len() as u64 {
            return Err(ContainerError::corrupt("section past end of file"));
        }
        Ok((entry, &self.data[entry.offset as usize..end as usize]))
    }

    /// Checks `entry`'s stored checksum against `covered`, the section's
    /// verified prefix.
    pub fn verify(
        &self,
        entry: &SectionEntry,
        name: &str,
        covered: &[u8],
    ) -> Result<(), ContainerError> {
        let got = checksum(entry.id.into(), covered);
        self.format
            .check(got, entry.checksum, || format!("section `{name}`"))
    }

    /// The body of section `id`, bounds checked and verified whole.
    pub fn section(&self, id: u32, name: &'static str) -> Result<&[u8], ContainerError> {
        let (entry, body) = self.lookup(id, name)?;
        self.verify(entry, name, body)?;
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJECT_LIKE: Format = Format {
        magic: 0x014C_4143,
        version: 3,
        kind: "test object",
        checksum_fail_metric: "cla_container_test_checksum_fail_total",
    };
    const SNAPSHOT_LIKE: Format = Format {
        magic: 0x5341_4C43,
        version: 1,
        kind: "test snapshot",
        checksum_fail_metric: "cla_container_test_checksum_fail_total",
    };
    /// Every header rule holds for either magic: the checks are the
    /// container's, not a format's.
    static FORMATS: [Format; 2] = [OBJECT_LIKE, SNAPSHOT_LIKE];

    /// Three sections; the last verifies only its first 4 bytes.
    fn sample(format: &Format) -> Vec<u8> {
        assemble(
            format,
            &[
                Section::whole(1, b"first body"),
                Section::whole(2, b""),
                Section {
                    id: 7,
                    body: b"headpayload behind the verified prefix",
                    verified_len: 4,
                },
            ],
        )
    }

    /// Rewrites the table of `bytes` through the entry codec, resealing the
    /// header so only the rule under test can fire.
    fn with_table(bytes: &[u8], format: &Format, edit: impl FnOnce(&mut Header)) -> Vec<u8> {
        let mut header = Header::read(bytes, format).unwrap();
        let bodies = &bytes[header.encoded_len()..];
        edit(&mut header);
        header.seal();
        let mut out = header.encode(format);
        out.extend_from_slice(bodies);
        out
    }

    #[test]
    fn xxh64_reference_values() {
        // Published XXH64 test vectors at seed 0.
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
        // `fnv64` keeps the published FNV-1a 64 values it pins bytes with.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        // Lengths 0..=80 run through every tail: the 32-byte stripes, the
        // 8-byte words, the 4-byte word and the single bytes.
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let sum = xxh64(bytes, 0);
            for bit in 0..len * 8 {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(xxh64(&flipped, 0), sum, "length {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn the_seed_binds_identity() {
        // A section checksum is seeded with the section's id: the same
        // bytes under another id do not verify.
        for body in [&b""[..], b"x", &[7; 100]] {
            assert_ne!(xxh64(body, 1), xxh64(body, 2));
            assert_ne!(xxh64(body, 0), xxh64(body, 1));
        }
    }

    #[test]
    fn round_trip_by_id_with_whole_and_prefix_verification() {
        for format in &FORMATS {
            let file = Container::open(sample(format), format).unwrap();
            assert_eq!(file.table().len(), 3);
            assert_eq!(file.section(1, "one").unwrap(), b"first body");
            assert_eq!(file.section(2, "two").unwrap(), b"");
            let (entry, body) = file.lookup(7, "seven").unwrap();
            assert!(file.verify(entry, "seven", &body[..4]).is_ok());
            assert!(matches!(
                file.verify(entry, "seven", body),
                Err(ContainerError::Checksum(_))
            ));
            assert_eq!(
                file.section(9, "nine"),
                Err(ContainerError::MissingSection("nine"))
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        for format in &FORMATS {
            let good = sample(format);
            for short in [&good[..0], &good[..3], &good[..HEADER_FIXED_SIZE - 1]] {
                assert_eq!(
                    Header::read(short, format),
                    Err(ContainerError::BadMagic),
                    "{} bytes",
                    short.len()
                );
            }
            // Garbage long enough to hold a header is still "not this
            // format", whatever its count field would imply.
            assert_eq!(
                Header::read(&[b'X'; 24], format),
                Err(ContainerError::BadMagic)
            );
            let mut bytes = good.clone();
            bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
            assert_eq!(
                Header::read(&bytes, format),
                Err(ContainerError::BadVersion(99))
            );
        }
        // Neither format opens the other's files.
        assert_eq!(
            Header::read(&sample(&OBJECT_LIKE), &SNAPSHOT_LIKE),
            Err(ContainerError::BadMagic)
        );
    }

    #[test]
    fn truncated_table_and_stale_header_checksum() {
        for format in &FORMATS {
            let good = sample(format);
            let table_end = Header::read(&good, format).unwrap().encoded_len();
            for cut in HEADER_FIXED_SIZE..table_end {
                assert_eq!(
                    Header::read(&good[..cut], format),
                    Err(ContainerError::corrupt("truncated section table")),
                    "cut at {cut}"
                );
            }
            // A count far beyond what the file could hold.
            let mut bytes = good.clone();
            bytes[TABLE_START..HEADER_FIXED_SIZE].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                Header::read(&bytes, format),
                Err(ContainerError::Corrupt(_))
            ));
            // Any table byte changed under the stored checksum.
            for pos in TABLE_START..table_end {
                let mut bytes = good.clone();
                bytes[pos] ^= 0x01;
                assert!(
                    matches!(
                        Header::read(&bytes, format),
                        Err(ContainerError::Checksum(_) | ContainerError::Corrupt(_))
                    ),
                    "flip at {pos}"
                );
            }
            let mut bytes = good.clone();
            bytes[HEADER_FIXED_SIZE + 5] ^= 0x01; // first entry's offset
            assert_eq!(
                Header::read(&bytes, format),
                Err(ContainerError::Checksum("section table".into()))
            );
        }
    }

    #[test]
    fn section_ranges_are_bounds_checked() {
        for format in &FORMATS {
            let good = sample(format);
            let past_eof = with_table(&good, format, |h| h.table[0].len += 1 << 20);
            let file = Container::open(past_eof, format).unwrap();
            assert_eq!(
                file.section(1, "one"),
                Err(ContainerError::corrupt("section past end of file"))
            );
            let overflow = with_table(&good, format, |h| {
                h.table[0].offset = u64::MAX - 2;
                h.table[0].len = 8;
            });
            let file = Container::open(overflow, format).unwrap();
            assert_eq!(
                file.section(1, "one"),
                Err(ContainerError::corrupt("section range overflow"))
            );
            // The undamaged neighbours still read.
            assert!(file.section(2, "two").is_ok());
        }
    }

    #[test]
    fn duplicate_section_id_is_corrupt() {
        // One rule where the two readers had two: the object reader let the
        // last duplicate win, the snapshot reader the first.
        for format in &FORMATS {
            let dup = with_table(&sample(format), format, |h| h.table[1].id = h.table[0].id);
            assert_eq!(
                Container::open(dup, format).map(|_| ()),
                Err(ContainerError::corrupt("duplicate section id 1"))
            );
        }
    }

    #[test]
    fn string_table_and_cursor_round_trip() {
        let mut strings = StringTable::default();
        assert_eq!(strings.intern("x"), 0);
        assert_eq!(strings.intern("naïve"), 1);
        assert_eq!(strings.intern("x"), 0);
        let body = strings.encode();
        let mut cur = Cur::new(&body);
        assert_eq!(StringTable::decode(&mut cur).unwrap(), ["x", "naïve"]);
        assert!(cur.finish("string").is_ok());
        // Truncation anywhere and invalid UTF-8 are typed errors.
        for cut in 0..body.len() {
            assert!(StringTable::decode(&mut Cur::new(&body[..cut])).is_err());
        }
        let mut bad = body.clone();
        *bad.last_mut().unwrap() = 0xff;
        assert!(StringTable::decode(&mut Cur::new(&bad)).is_err());
        let mut cur = Cur::new(&[1, 2, 0, 0, 0, 9]);
        assert_eq!(cur.get_u8().unwrap(), 1);
        assert_eq!(cur.get_u32_le().unwrap(), 2);
        assert!(cur.finish("tail").is_err());
        assert!(cur.get_u64_le().is_err());
        assert_eq!(cur.get_u8().unwrap(), 9, "a failed read consumes nothing");
    }
}
