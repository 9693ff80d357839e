//! Snapshot reader with demand verification.
//!
//! [`Snapshot::from_bytes`] validates only the header checksum (covering the
//! section table) and the small provenance section — enough to decide
//! whether the snapshot is usable at all. The heavyweight sections (the set
//! payload, the name tables) keep their bytes unverified until the first
//! call that needs them, mirroring the object reader's lazily verified
//! blocks: a server probing ten stale snapshots pays ten provenance reads,
//! not ten full-file hashes.
//!
//! Every read is bounds checked and reports a typed [`SnapError`] — no
//! snapshot, however damaged, can panic the loader (the `cla-tool db-fuzz
//! --snapshot` harness enforces this over seeded mutants).

use crate::format::{SnapError, SnapSectionId, FORMAT};
use cla_cladb::container::{Container, ContainerError, Cur, SectionEntry, StringTable};
use cla_cladb::NONE_U32;
use cla_core::pipeline::Provenance;
use cla_core::{SealedGraph, SolveOptions, SolveStats};
use cla_ir::ObjId;
use std::path::Path;
use std::sync::Arc;

fn corrupt(msg: &str) -> SnapError {
    ContainerError::corrupt(msg).into()
}

/// A snapshot file opened for demand-driven loading. Opening verifies the
/// header and provenance only; [`Snapshot::load_sealed`] and
/// [`Snapshot::names`] verify their sections on first use.
#[derive(Debug)]
pub struct Snapshot {
    file: Container,
    prov: Provenance,
    object_count: u32,
}

impl Snapshot {
    /// Opens snapshot bytes: header checksum, section table, provenance.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on malformed or damaged input.
    pub fn from_bytes(data: Vec<u8>) -> Result<Snapshot, SnapError> {
        let file = Container::open(data, &FORMAT)?;
        let mut prov_sec = section(&file, SnapSectionId::Prov)?;
        let flags = prov_sec.get_u8()?;
        if flags & !0b11 != 0 {
            return Err(corrupt("bad solver flag bits"));
        }
        let solver = SolveOptions {
            cache: flags & 0b01 != 0,
            cycle_elim: flags & 0b10 != 0,
        };
        let options_fp = prov_sec.get_u64_le()?;
        let ninputs = prov_sec.get_u32_le()? as usize;
        let mut inputs = Vec::with_capacity(ninputs.min(1024));
        for _ in 0..ninputs {
            let name = prov_sec.get_str()?.to_string();
            inputs.push((name, prov_sec.get_u64_le()?));
        }
        let object_count = prov_sec.get_u32_le()?;
        prov_sec.finish("prov")?;
        Ok(Snapshot {
            file,
            prov: Provenance {
                inputs,
                options_fp,
                solver,
            },
            object_count,
        })
    }

    /// Reads and opens a snapshot file.
    ///
    /// # Errors
    ///
    /// I/O failures plus everything [`Snapshot::from_bytes`] rejects.
    pub fn open(path: &Path) -> Result<Snapshot, SnapError> {
        Snapshot::from_bytes(std::fs::read(path)?)
    }

    /// The provenance this snapshot was saved under.
    #[must_use]
    pub fn provenance(&self) -> &Provenance {
        &self.prov
    }

    /// The number of objects in the snapshotted graph.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.object_count as usize
    }

    /// The decoded section table (for `snapshot-info`; already covered by
    /// the verified header checksum).
    #[must_use]
    pub fn section_table(&self) -> &[SectionEntry] {
        self.file.table()
    }

    /// Rebuilds the query-ready [`SealedGraph`] — no solver run, no source.
    /// Verifies and decodes the reps, sets, and stats sections; validates
    /// every set id and object id against the provenance object count and
    /// requires sets to be strictly sorted (the `may_alias` merge
    /// intersection depends on it). SCC/hash-cons sharing is restored by
    /// cloning one `Arc` per distinct set id. Timed under a `snap.load`
    /// span; bumps `cla_snap_loads_total`.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on damaged or inconsistent sections.
    pub fn load_sealed(&self) -> Result<SealedGraph, SnapError> {
        let obs = cla_obs::global();
        let mut sp = obs.span("snap", "snap.load");
        sp.set("objects", self.object_count as usize);
        sp.set("bytes", self.file.bytes().len());

        let mut sets_sec = section(&self.file, SnapSectionId::Sets)?;
        let nsets = sets_sec.get_u32_le()? as usize;
        let mut sets: Vec<Arc<Vec<ObjId>>> = Vec::with_capacity(nsets.min(1 << 20));
        for _ in 0..nsets {
            let len = sets_sec.get_u32_le()? as usize;
            let mut set = Vec::with_capacity(len.min(1 << 20));
            let mut prev: Option<u32> = None;
            for _ in 0..len {
                let v = sets_sec.get_u32_le()?;
                if v >= self.object_count {
                    return Err(corrupt("set member out of range"));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(corrupt("set not strictly sorted"));
                }
                prev = Some(v);
                set.push(ObjId(v));
            }
            if set.is_empty() {
                return Err(corrupt("empty encoded set"));
            }
            sets.push(Arc::new(set));
        }
        sets_sec.finish("sets")?;

        let mut reps_sec = section(&self.file, SnapSectionId::Reps)?;
        let nobjs = reps_sec.get_u32_le()?;
        if nobjs != self.object_count {
            return Err(corrupt("reps count disagrees with provenance"));
        }
        let empty: Arc<Vec<ObjId>> = Arc::new(Vec::new());
        let mut per_object = Vec::with_capacity(nobjs as usize);
        for _ in 0..nobjs {
            let id = reps_sec.get_u32_le()?;
            if id == NONE_U32 {
                per_object.push(Arc::clone(&empty));
            } else {
                let set = sets
                    .get(id as usize)
                    .ok_or_else(|| corrupt("set id out of range"))?;
                per_object.push(Arc::clone(set));
            }
        }
        reps_sec.finish("reps")?;

        let mut stats_sec = section(&self.file, SnapSectionId::Stats)?;
        let stats = SolveStats {
            passes: stats_sec.get_u64_le()? as usize,
            getlvals_calls: stats_sec.get_u64_le()?,
            dfs_visits: stats_sec.get_u64_le()?,
            cache_hits: stats_sec.get_u64_le()?,
            unifications: stats_sec.get_u64_le()?,
            edges_added: stats_sec.get_u64_le()?,
            sets_shared: stats_sec.get_u64_le()?,
            complex_in_core: stats_sec.get_u64_le()? as usize,
            nodes: stats_sec.get_u64_le()? as usize,
            approx_bytes: stats_sec.get_u64_le()? as usize,
        };
        stats_sec.finish("stats")?;

        obs.counter("cla_snap_loads_total").inc();
        Ok(SealedGraph::from_parts(per_object, stats))
    }

    /// The per-object display names (verifies the strings and names
    /// sections on demand).
    ///
    /// # Errors
    ///
    /// [`SnapError`] on damaged or inconsistent sections.
    pub fn names(&self) -> Result<Vec<String>, SnapError> {
        let mut str_sec = section(&self.file, SnapSectionId::Strings)?;
        let strings = StringTable::decode(&mut str_sec)?;
        str_sec.finish("strings")?;
        let mut names_sec = section(&self.file, SnapSectionId::Names)?;
        let nnames = names_sec.get_u32_le()?;
        if nnames != self.object_count {
            return Err(corrupt("names count disagrees with provenance"));
        }
        let mut names = Vec::with_capacity(nnames as usize);
        for _ in 0..nnames {
            let sid = names_sec.get_u32_le()? as usize;
            let s = strings
                .get(sid)
                .ok_or_else(|| corrupt("name string id out of range"))?;
            names.push((*s).to_string());
        }
        names_sec.finish("names")?;
        Ok(names)
    }

    /// All object ids whose display name is `name` (by-name query support
    /// for standalone snapshot use; the serve layer resolves names through
    /// its linked database instead).
    ///
    /// # Errors
    ///
    /// [`SnapError`] from decoding the name tables.
    pub fn find_objects(&self, name: &str) -> Result<Vec<ObjId>, SnapError> {
        Ok(self
            .names()?
            .iter()
            .enumerate()
            .filter(|(_, n)| n.as_str() == name)
            .map(|(i, _)| ObjId(i as u32))
            .collect())
    }
}

/// The verified body of section `id` as a cursor. This is the demand-verify
/// point shared by `from_bytes` (provenance) and the lazy accessors: the
/// id-tagged section checksum is recomputed here, on access, not at open.
fn section(file: &Container, id: SnapSectionId) -> Result<Cur<'_>, SnapError> {
    Ok(Cur::new(file.section(id as u32, id.name())?))
}
