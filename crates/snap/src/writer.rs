//! Snapshot writer: serializes a solved [`SealedGraph`] plus its
//! [`Provenance`] into the sectioned `.clasnap` format and persists it with
//! the crash-safe temp+fsync+rename protocol from `cla-cladb`, so a crash
//! mid-save never leaves a half-written snapshot for a later warm start to
//! trip over.

use crate::format::{SnapSectionId, FORMAT};
use cla_cladb::container::{assemble, Put, Section, StringTable};
use cla_cladb::{atomic_write_bytes, NONE_U32};
use cla_core::pipeline::Provenance;
use cla_core::SealedGraph;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Packs the solver options into the provenance flag byte.
pub(crate) fn solver_flags(opts: cla_core::SolveOptions) -> u8 {
    u8::from(opts.cache) | (u8::from(opts.cycle_elim) << 1)
}

/// Serializes a snapshot to bytes.
///
/// `names` are the per-object display names (one per object, same order as
/// the sealed graph's sets); they let a snapshot answer by-name queries
/// standalone. The per-object set table stores one id per object while each
/// distinct set is encoded exactly once — objects unified into one SCC (or
/// hash-consed to an identical set) share an id, so the on-disk size and
/// the reloaded in-memory sharing both match what [`cla_core::Warm::seal`]
/// produced.
#[must_use]
pub fn encode_snapshot(
    prov: &Provenance,
    sealed: &SealedGraph,
    names: &[impl AsRef<str>],
) -> Vec<u8> {
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

    // ---- strings + names ----
    let mut strings = StringTable::default();
    let mut names_sec = Vec::new();
    names_sec.put_u32_le(names.len() as u32);
    for name in names {
        names_sec.put_u32_le(strings.intern(name.as_ref()));
    }
    let str_sec = strings.encode();

    // ---- reps + sets (sharing encoded once, referenced by id) ----
    let mut set_ids: HashMap<*const Vec<cla_ir::ObjId>, u32> = HashMap::new();
    let mut sets_sec = vec![0; 4]; // the set count, known after the loop
    let mut reps_sec = Vec::new();
    reps_sec.put_u32_le(sealed.sets().len() as u32);
    for set in sealed.sets() {
        if set.is_empty() {
            reps_sec.put_u32_le(NONE_U32);
            continue;
        }
        let next_id = set_ids.len() as u32;
        let id = *set_ids.entry(Arc::as_ptr(set)).or_insert_with(|| {
            sets_sec.put_u32_le(set.len() as u32);
            for o in set.iter() {
                sets_sec.put_u32_le(o.0);
            }
            next_id
        });
        reps_sec.put_u32_le(id);
    }
    sets_sec[..4].copy_from_slice(&(set_ids.len() as u32).to_le_bytes());

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

    let whole = |id: SnapSectionId, body| Section::whole(id as u32, body);
    assemble(
        &FORMAT,
        &[
            whole(SnapSectionId::Prov, &prov_sec),
            whole(SnapSectionId::Strings, &str_sec),
            whole(SnapSectionId::Names, &names_sec),
            whole(SnapSectionId::Reps, &reps_sec),
            whole(SnapSectionId::Sets, &sets_sec),
            whole(SnapSectionId::Stats, &stats_sec),
        ],
    )
}

/// Encodes and persists a snapshot crash-safely at `path`. Returns the
/// encoded size in bytes. Timed under a `snap.save` span; bumps
/// `cla_snap_saves_total` and `cla_snap_bytes_written_total`.
///
/// # Errors
///
/// Any I/O failure from the write-fsync-rename protocol.
pub fn save_snapshot(
    path: &Path,
    prov: &Provenance,
    sealed: &SealedGraph,
    names: &[impl AsRef<str>],
) -> std::io::Result<usize> {
    let obs = cla_obs::global();
    let mut sp = obs.span("snap", "snap.save");
    sp.set("objects", sealed.object_count());
    let bytes = encode_snapshot(prov, sealed, names);
    sp.set("bytes", bytes.len());
    atomic_write_bytes(path, &bytes)?;
    obs.counter("cla_snap_saves_total").inc();
    obs.counter("cla_snap_bytes_written_total")
        .add(bytes.len() as u64);
    Ok(bytes.len())
}
