//! Snapshot writer: serializes a solved [`SealedGraph`] plus its
//! [`Provenance`] into the sectioned `.clasnap` format and persists it with
//! the crash-safe temp+fsync+rename protocol from `cla-cladb`, so a crash
//! mid-save never leaves a half-written snapshot for a later warm start to
//! trip over.

use crate::format::{SnapSectionId, FORMAT};
use cla_cladb::container::{assemble, assemble_header, Put, Section};
use cla_cladb::{atomic_write_parts, NONE_U32};
use cla_core::pipeline::Provenance;
use cla_core::SealedGraph;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Packs the solver options into the provenance flag byte.
pub(crate) fn solver_flags(opts: cla_core::SolveOptions) -> u8 {
    u8::from(opts.cache) | (u8::from(opts.cycle_elim) << 1)
}

/// Serializes a snapshot to bytes: provenance, the per-object set table,
/// the distinct sets and the solve's stats. Names are not stored; whoever
/// loads the graph holds the linked [`Database`](cla_cladb::Database) they
/// come from. The per-object set table stores one id per object while each
/// distinct set is encoded exactly once — objects unified into one SCC (or
/// hash-consed to an identical set) share an id, so the on-disk size and
/// the reloaded in-memory sharing both match what [`cla_core::Warm::seal`]
/// produced.
#[must_use]
pub fn encode(prov: &Provenance, sealed: &SealedGraph) -> Vec<u8> {
    let bodies = bodies(prov, sealed);
    assemble(&FORMAT, &sections(&bodies))
}

/// The section bodies of [`encode`], in file order, each allocated at its
/// final size.
fn bodies(prov: &Provenance, sealed: &SealedGraph) -> [Vec<u8>; 4] {
    // ---- prov ----
    let mut prov_sec = Vec::new();
    prov_sec.put_u8(solver_flags(prov.solver));
    prov_sec.put_u64_le(prov.options_fp);
    prov_sec.put_u32_le(prov.inputs.len() as u32);
    for (name, hash) in &prov.inputs {
        prov_sec.put_str(name);
        prov_sec.put_u64_le(*hash);
    }
    prov_sec.put_u32_le(sealed.object_count() as u32);

    // ---- reps + sets (sharing encoded once, referenced by id) ----
    let mut set_ids: HashMap<*const Vec<cla_ir::ObjId>, u32> = HashMap::new();
    let mut distinct = Vec::new();
    let mut reps_sec = Vec::with_capacity(4 * (1 + sealed.sets().len()));
    reps_sec.put_u32_le(sealed.sets().len() as u32);
    for set in sealed.sets() {
        let id = if set.is_empty() {
            NONE_U32
        } else {
            *set_ids.entry(Arc::as_ptr(set)).or_insert_with(|| {
                distinct.push(set);
                distinct.len() as u32 - 1
            })
        };
        reps_sec.put_u32_le(id);
    }
    let words = 1 + distinct.iter().map(|set| 1 + set.len()).sum::<usize>();
    let mut sets_sec = Vec::with_capacity(4 * words);
    sets_sec.put_u32_le(distinct.len() as u32);
    for set in distinct {
        sets_sec.put_u32_le(set.len() as u32);
        for o in set.iter() {
            sets_sec.put_u32_le(o.0);
        }
    }

    // ---- stats ----
    let st = sealed.stats();
    let mut stats_sec = Vec::new();
    for v in [
        st.passes as u64,
        st.getlvals_calls,
        st.dfs_visits,
        st.cache_hits,
        st.unifications,
        st.edges_added,
        st.sets_shared,
        st.complex_in_core as u64,
        st.nodes as u64,
        st.approx_bytes as u64,
    ] {
        stats_sec.put_u64_le(v);
    }
    [prov_sec, reps_sec, sets_sec, stats_sec]
}

/// The container sections over [`bodies`].
fn sections(bodies: &[Vec<u8>; 4]) -> [Section<'_>; 4] {
    let [prov, reps, sets, stats] = bodies;
    let whole = |id: SnapSectionId, body| Section::whole(id as u32, body);
    [
        whole(SnapSectionId::Prov, prov),
        whole(SnapSectionId::Reps, reps),
        whole(SnapSectionId::Sets, sets),
        whole(SnapSectionId::Stats, stats),
    ]
}

/// Encodes and persists a snapshot crash-safely at `path`: [`encode`]'s
/// bytes, with the sections written from where they were encoded rather
/// than copied into one buffer first. Returns the encoded size in bytes.
/// Timed under a `snap.save` span; bumps `cla_snap_saves_total` and
/// `cla_snap_bytes_written_total`.
///
/// # Errors
///
/// Any I/O failure from the write-fsync-rename protocol.
pub fn save(path: &Path, prov: &Provenance, sealed: &SealedGraph) -> std::io::Result<usize> {
    let obs = cla_obs::global();
    let mut sp = obs.span("snap", "snap.save");
    sp.set("objects", sealed.object_count());
    let bodies = bodies(prov, sealed);
    let header = assemble_header(&FORMAT, &sections(&bodies));
    let [prov_sec, reps, sets, stats] = &bodies;
    let len = header.len() + bodies.iter().map(Vec::len).sum::<usize>();
    sp.set("bytes", len);
    atomic_write_parts(path, &[&header, prov_sec, reps, sets, stats])?;
    obs.counter("cla_snap_saves_total").inc();
    obs.counter("cla_snap_bytes_written_total").add(len as u64);
    Ok(len)
}

/// [`encode`] under its pre-v3 signature: `names` is ignored.
#[must_use]
pub fn encode_snapshot(
    prov: &Provenance,
    sealed: &SealedGraph,
    _names: &[impl AsRef<str>],
) -> Vec<u8> {
    encode(prov, sealed)
}

/// [`save`] under its pre-v3 signature: `names` is ignored.
///
/// # Errors
///
/// As [`save`].
pub fn save_snapshot(
    path: &Path,
    prov: &Provenance,
    sealed: &SealedGraph,
    _names: &[impl AsRef<str>],
) -> std::io::Result<usize> {
    save(path, prov, sealed)
}
