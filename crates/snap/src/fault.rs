//! Deterministic fault injection for snapshot files.
//!
//! Points the object-file harness (`cla_cladb::fault`) at the `.clasnap`
//! format. The invariant is the same: a mutant either fails with a typed
//! [`crate::SnapError`] or decodes to the pristine snapshot exactly
//! (provenance, names, per-object sets, stats) — never a panic, never
//! silently wrong answers. Because both formats are one container, the
//! battery is the object harness's own — truncation
//! at every byte offset, seeded 1–4-bit flips, and section-table entry swaps
//! with the header checksum alternately stale and recomputed (the
//! recomputed case is only catchable by the id-tagged section checksums);
//! this module only supplies the oracle that judges a mutant.

use crate::format::{SnapError, FORMAT};
use crate::reader::Snapshot;
use cla_cladb::fault::{judge, run_fuzz, FuzzReport, Verdict};
use cla_core::pipeline::Provenance;
use cla_core::SealedGraph;

/// The pristine snapshot's fully decoded contents — the correctness oracle.
pub struct SnapOracle {
    prov: Provenance,
    names: Vec<String>,
    sealed: SealedGraph,
}

impl SnapOracle {
    /// Fully decodes `pristine`; fails if the input itself is not valid.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] from decoding the pristine bytes.
    pub fn new(pristine: &[u8]) -> Result<SnapOracle, SnapError> {
        let snap = Snapshot::from_bytes(pristine.to_vec())?;
        let sealed = snap.load_sealed()?;
        Ok(SnapOracle {
            prov: snap.provenance().clone(),
            names: snap.names()?,
            sealed,
        })
    }

    /// Opens and fully decodes a mutant, comparing against the pristine
    /// contents. Touches every read path: provenance, the name tables,
    /// every per-object set, and the stats record.
    pub fn exercise(&self, bytes: Vec<u8>) -> Verdict {
        judge(|| -> Result<bool, SnapError> {
            let snap = Snapshot::from_bytes(bytes)?;
            let sealed = snap.load_sealed()?;
            let names = snap.names()?;
            Ok(snap.provenance() == &self.prov
                && names == self.names
                && sealed.sets() == self.sealed.sets()
                && sealed.stats() == self.sealed.stats())
        })
    }
}

/// Runs the object format's deterministic fuzz battery
/// ([`cla_cladb::fault::run_fuzz`]) over one pristine snapshot.
///
/// # Errors
///
/// `Err` if the pristine input itself does not decode (the harness needs a
/// valid oracle before it can judge mutants).
pub fn run_snap_fuzz(pristine: &[u8], seed: u64, iters: u64) -> Result<FuzzReport, SnapError> {
    let oracle = SnapOracle::new(pristine)?;
    Ok(run_fuzz(
        pristine,
        &FORMAT,
        |bytes| oracle.exercise(bytes),
        seed,
        iters,
    ))
}
