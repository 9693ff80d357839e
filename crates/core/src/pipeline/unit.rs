//! One file's keyed compile: its manifest checked, its object loaded and
//! verified, or the file compiled and stored.

use super::{manifest_key, Closure, CompileCache, Manifest, SourceProbe};
use cla_cfront::{CError, FileProvider, PpOptions};
use cla_cladb::UnitObject;
use cla_ir::{compile_preprocessed, CompileStats, LowerOptions};

/// What building one file found besides its object.
pub(super) struct Keyed {
    pub(super) manifest: Manifest,
    pub(super) cache_hit: bool,
    /// The hit was keyed by the file's manifest: nothing was preprocessed.
    pub(super) direct_hit: bool,
}

/// The per-file compile of every build. A `held` [`Manifest`] names the
/// key without a preprocess (direct mode); otherwise, or when its object
/// is gone, the file is preprocessed for its [`Closure`] and key, and its
/// manifest (re)written. A hit is reused undecoded after
/// [`UnitObject::verify`] (one that fails is
/// [rejected](CompileCache::reject), a miss); a miss is compiled and stored.
///
/// # Errors
///
/// Propagates frontend errors; a missing source file is one of them.
pub(super) fn compile_one_keyed(
    fs: &dyn FileProvider,
    f: &str,
    pp: &PpOptions,
    lower: &LowerOptions,
    options_fp: u64,
    cache: Option<&dyn CompileCache>,
    held: Option<Manifest>,
) -> Result<(UnitObject, Keyed), CError> {
    let mut held_key = None;
    if let Some(manifest) = held {
        let key = manifest.closure.key(f, options_fp);
        if let Some(object) = cache.and_then(|c| load_verified(c, key)) {
            cla_obs::global()
                .counter("cla_snap_cache_direct_hits_total")
                .inc();
            let keyed = Keyed {
                manifest,
                cache_hit: true,
                direct_hit: true,
            };
            return Ok((object, keyed));
        }
        held_key = Some(key);
    }
    if cache.is_some() {
        cla_obs::global()
            .counter("cla_snap_cache_direct_misses_total")
            .inc();
    }
    let pre = cla_cfront::preprocess_file(fs, f, pp)?;
    let closure = Closure::of(&pre);
    let key = closure.key(f, options_fp);
    // A held manifest that named this same key stands as it is, and its
    // object is already known to be gone: asking again would count a
    // second miss. One that named another key (the source changed since it
    // was keyed) is replaced.
    let unnamed = cache.filter(|_| held_key != Some(key));
    let hit = unnamed.and_then(|c| load_verified(c, key));
    let cache_hit = hit.is_some();
    let (object, stats) = match hit {
        // The keying preprocess saw the same bytes the original compile
        // did, so the hit's stats match a fresh compile.
        Some(object) => (object, CompileStats::of(&pre.stats)),
        None => {
            let (unit, stats) = compile_preprocessed(pre, f, &pp.limits, lower)?;
            let object = UnitObject::encode(&unit);
            if let Some(cache) = cache {
                cache.store(key, object.bytes());
            }
            (object, stats)
        }
    };
    let manifest = Manifest {
        file: f.to_owned(),
        options_fp,
        closure,
        stats,
        objects: object.object_count(),
    };
    if let Some(cache) = unnamed {
        cache.store_manifest(manifest_key(f, options_fp), &manifest.encode());
    }
    let keyed = Keyed {
        manifest,
        cache_hit,
        direct_hit: false,
    };
    Ok((object, keyed))
}

/// The manifest `cache` stores for `f`, if its closure still holds against
/// `fs`. A damaged one is [rejected](CompileCache::reject_manifest).
pub(super) fn stored_manifest(
    fs: &dyn FileProvider,
    f: &str,
    options_fp: u64,
    cache: &dyn CompileCache,
) -> Option<Manifest> {
    let key = manifest_key(f, options_fp);
    let m = match Manifest::decode(cache.load_manifest(key)?) {
        Ok(m) => m,
        Err(_) => {
            cache.reject_manifest(key);
            return None;
        }
    };
    let held = holds(&m, f, options_fp, &mut SourceProbe::new(fs));
    held.then_some(m)
}

/// Whether `m` is `f`'s manifest and its closure holds against `probe`,
/// timed as the `cache.direct` span, which says how much source the check
/// hashed (through a shared probe, what no earlier check did).
pub(super) fn holds<'a>(
    m: &'a Manifest,
    f: &str,
    options_fp: u64,
    probe: &mut SourceProbe<'a>,
) -> bool {
    let mut sp = cla_obs::global().span("cache", "cache.direct");
    sp.set("file", f);
    let (sources, bytes) = (probe.sources, probe.bytes);
    // Another file's manifest under a colliding key is simply not this
    // file's; the rewrite after the preprocess replaces it.
    let held = m.file == f && m.options_fp == options_fp && m.closure.holds(probe);
    sp.set("sources_hashed", probe.sources - sources);
    sp.set("bytes_hashed", probe.bytes - bytes);
    sp.set("holds", held);
    held
}

/// The object stored under `key`, if any and intact; a damaged one is
/// [rejected](CompileCache::reject).
fn load_verified(cache: &dyn CompileCache, key: u64) -> Option<UnitObject> {
    match UnitObject::verify(cache.load(key)?) {
        Ok(object) => Some(object),
        Err(_) => {
            cache.reject(key);
            None
        }
    }
}
