//! One program's build: [`Build::link`] keys the files, admits the program
//! stored under their keys or compiles and folds them, and fills the
//! run's [`Report`].

use super::pool::compile_all;
use super::unit::{compile_one_keyed, holds, stored_manifest};
use super::{
    options_fingerprint, AnalyzeHooks, CompileCache, Manifest, PipelineError, PipelineOptions,
    Provenance, Quarantined, Report, SnapshotHook, SourceProbe, SLOWEST_FILES_CAP,
};
use crate::pretransitive::SealedGraph;
use cla_cfront::FileProvider;
use cla_cladb::{Database, DbError, LinkStats, ObjectLinker, StreamLinker, UnitObject};
use cla_obs::Span;
use std::panic::resume_unwind;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// The name every build links its program under.
const PROGRAM: &str = "a.out";

/// One program's build: its files, their options and, per file, the
/// [`Manifest`] of its last build and, in a resident build, its unit object.
/// [`analyze_with`](super::analyze_with) links a fresh one once; a serve
/// session keeps its own and links it again on every reload.
pub struct Build {
    files: Vec<String>,
    opts: PipelineOptions,
    options_fp: u64,
    units: Vec<Unit>,
    /// Keep each unit's object for the next link (a session's build). A
    /// batch build streams its units through the link and keeps none: the
    /// million-line tree's objects are over 100 MB.
    resident: bool,
    /// A program has been linked or opened from this build.
    linked: bool,
}

/// What a [`Build`] knows of one file.
#[derive(Default)]
struct Unit {
    /// The manifest of its last build; `None` before the first and while
    /// the file is quarantined (which keys it 0 in the provenance).
    manifest: Option<Manifest>,
    /// Its object, once a resident build has read it (a unit keyed for a
    /// stored program, not before a link needs it).
    object: Option<UnitObject>,
}

/// A program a [`Build`] linked or opened, and what that measured.
pub struct Built {
    pub database: Database,
    /// The compile and link figures; the solve's are the caller's to fill.
    pub report: Report,
    /// Per file in input order, its closure key (0 when quarantined).
    pub provenance: Provenance,
    /// [`load_or_fixpoint`](super::load_or_fixpoint)'s `asked`, when the hook
    /// was asked already.
    pub graph: Option<Option<SealedGraph>>,
    /// The files whose closure no longer held and that built, in order.
    pub recompiled: Vec<String>,
}

impl Build {
    /// A build of `files` of which nothing is known yet. A `resident` one
    /// keeps its unit objects between links.
    #[must_use]
    pub fn new(files: Vec<String>, opts: PipelineOptions, resident: bool) -> Build {
        Build {
            options_fp: options_fingerprint(&opts.pp, &opts.lower),
            units: files.iter().map(|_| Unit::default()).collect(),
            files,
            opts,
            resident,
            linked: false,
        }
    }

    /// Links the program `fs` holds now; `None` when it is the one linked
    /// last (no closure changed, or only quarantined files failed again).
    ///
    /// Each file is keyed (`cache.direct`) where its closure holds: on a first
    /// link by the cache's manifest, on a relink by the one of its last build;
    /// `force` keys none. With all keyed on a first link, the hook's graph
    /// loads beside the admission of the program stored under their
    /// [`program_key`](super::program_key), and no object or source is read
    /// (each object is [touched](CompileCache::touch)). Otherwise the pool
    /// builds what is not resident — a keyed object is loaded and verified, a
    /// miss compiled and stored — and every unit folds in input order: as it
    /// arrives in a batch build, after the pool in a resident one.
    ///
    /// # Errors
    ///
    /// A strict build's lowest-index frontend error, which leaves the
    /// build as it was; a database error if the linked program fails to
    /// open.
    pub fn link(
        &mut self,
        fs: &dyn FileProvider,
        hooks: &AnalyzeHooks<'_>,
        force: bool,
    ) -> Result<Option<Built>, PipelineError> {
        let cache = hooks.compile_cache;
        // Phase times come from the same spans that emit trace events, so
        // the `Report` and a recorded trace never disagree about a
        // duration. Folding overlaps compilation, so `compile_time` covers
        // both, and `link_time` covers assembling the program object and
        // opening it, or admitting the stored one.
        let mut sp = cla_obs::global().span("pipeline", "pipeline.compile");
        sp.set("files", self.files.len());
        let mut run = self.key(fs, cache, force);
        if self.linked && run.keys.is_some() {
            return Ok(None);
        }
        let keyed_prov = (run.keys.as_ref()).map(|keys| self.provenance(keys));
        let keyed_hook = hooks.snapshots.zip(keyed_prov.as_ref());
        std::thread::scope(|scope| {
            let graph = keyed_hook.map(|(hook, prov)| scope.spawn(move || hook.load(prov)));
            let stored = keyed_hook.and_then(|(hook, prov)| open_stored_program(hook, prov));
            let (db, graph) = match stored {
                Some(stored) => self.admit(stored, &mut run, cache, sp, graph),
                None => match self.fold(fs, cache, &mut run, sp)? {
                    Some(db) => (db, graph.map(join)),
                    None => return Ok(None),
                },
            };
            self.linked = true;
            Ok(Some(self.built(db, run, keyed_prov.as_ref(), graph)))
        })
    }

    /// Keys every file whose closure holds, before any is built: a relink
    /// by the manifests in memory, a first link by the cache's.
    fn key(&self, fs: &dyn FileProvider, cache: Option<&dyn CompileCache>, force: bool) -> Linking {
        let files: Vec<&str> = self.files.iter().map(String::as_str).collect();
        let (n, fp, opts) = (files.len(), self.options_fp, &self.opts);
        let (mut held, mut durs) = (vec![None; n], vec![Duration::ZERO; n]);
        let keyed = !force && (cache.is_some() || self.linked);
        let mut report = Report {
            files: n,
            ..Report::default()
        };
        if keyed && self.linked {
            // A relink keys by the manifests in memory alone, so a
            // quarantined file is retried, on this thread through one
            // probe: a source many closures share is hashed once.
            let mut probe = SourceProbe::new(fs);
            for ((unit, f), held) in self.units.iter().zip(&files).zip(&mut held) {
                if let Some(m) = &unit.manifest {
                    *held = holds(m, f, fp, &mut probe).then(|| m.clone());
                }
            }
        } else if let Some(cache) = cache.filter(|_| keyed) {
            // A first link keys by the cache's manifests on the pool. A
            // panic while checking one counts as its manifest not holding.
            let one = |_: usize, f: &str| Ok(stored_manifest(fs, f, fp, cache));
            let each = |i: usize, dur, r: Result<_, _>| {
                (held[i], durs[i]) = (r.unwrap_or(None), dur);
                n
            };
            let jobs = if opts.parallel_compile { opts.jobs } else { 1 };
            report.jobs =
                compile_all(&files, jobs, false, one, each).expect("a lenient pool fails no run");
        }
        let keys = (files.iter().zip(&held))
            .map(|(f, m)| Some(m.as_ref()?.closure.key(f, fp)))
            .collect::<Option<_>>()
            .filter(|_| keyed);
        Linking {
            held,
            durs,
            keys,
            report,
            recompiled: Vec::new(),
        }
    }

    /// Answers from the stored program, with the graph loaded beside it:
    /// every unit keeps its keyed manifest and no object.
    fn admit(
        &mut self,
        (db, admit, link): Stored,
        run: &mut Linking,
        cache: Option<&dyn CompileCache>,
        mut sp: Span<'static>,
        graph: Option<ScopedJoinHandle<'_, Option<SealedGraph>>>,
    ) -> (Database, Option<Option<SealedGraph>>) {
        let (n, units, report) = (self.files.len(), &mut self.units, &mut run.report);
        let keys = run.keys.take().expect("a stored program was keyed");
        for ((unit, manifest), key) in units.iter_mut().zip(run.held.drain(..)).zip(keys) {
            // Recency and accounting for the objects behind the answer.
            if let Some(cache) = cache {
                cache.touch(key);
            }
            (unit.manifest, unit.object) = (manifest, None);
        }
        cla_obs::global()
            .counter("cla_snap_cache_direct_hits_total")
            .add(n as u64);
        (report.compile_cache_hits, report.compile_cache_direct_hits) = (n, n);
        report.program_loaded = true;
        mark(&mut sp, report);
        // The link phase is the admission and the wait for the graph
        // loaded beside it. It ran inside the compile span; the report
        // keeps the two phases apart.
        let asked = graph.map(join);
        report.link_time = link.finish();
        report.compile_time = sp.finish().saturating_sub(report.link_time);
        let objects_in = units.iter().flat_map(|u| &u.manifest).map(|m| m.objects);
        (of_stored(db, objects_in.sum(), admit, report), asked)
    }

    /// Builds on the pool what is not resident, folds every unit in input
    /// order and opens the program; `None` when it is the one linked last.
    fn fold(
        &mut self,
        fs: &dyn FileProvider,
        cache: Option<&dyn CompileCache>,
        run: &mut Linking,
        mut sp: Span<'static>,
    ) -> Result<Option<Database>, PipelineError> {
        let Build {
            files,
            opts,
            options_fp: fp,
            units,
            resident,
            linked,
        } = self;
        let files: Vec<&str> = files.iter().map(String::as_str).collect();
        let (n, fp) = (files.len(), *fp);
        let jobs = if opts.parallel_compile { opts.jobs } else { 1 };
        let Linking {
            held,
            durs,
            report,
            recompiled,
            ..
        } = run;
        // A batch build folds every unit; a resident one builds what it
        // does not hold: stale units, and units keyed for a stored program
        // and never read.
        let todo: Vec<usize> = (0..n)
            .filter(|&i| !*resident || held[i].is_none() || units[i].object.is_none())
            .collect();
        let names: Vec<&str> = todo.iter().map(|&i| files[i]).collect();
        let mut stream = (!*resident).then(|| StreamLinker::new(PROGRAM));
        let mut fresh = Vec::with_capacity(todo.len());
        report.jobs = compile_all(
            &names,
            jobs,
            opts.strict,
            |k, f| {
                let held = held[todo[k]].clone();
                compile_one_keyed(fs, f, &opts.pp, &opts.lower, fp, cache, held)
            },
            |k, dur, compiled| {
                let i = todo[k];
                durs[i] = dur;
                let (object, keyed) = match compiled {
                    Ok((object, keyed)) => (Some(object), Ok(keyed)),
                    Err(reason) => (None, Err(reason)),
                };
                let Some(linker) = &mut stream else {
                    fresh.push((i, keyed, object));
                    return fresh.len();
                };
                fresh.push((i, keyed, None));
                // An empty unit keeps the linker's index sequence intact;
                // it contributes no objects and no assignments.
                linker.push(i, object.unwrap_or_else(|| UnitObject::empty(files[i])));
                linker.folded()
            },
        )?;
        fresh.sort_by_key(|&(i, ..)| i);
        // A quarantined file that failed again is the one outcome that
        // links the program as it was.
        let changed = !*linked
            || (fresh.iter()).any(|(i, keyed, _)| {
                held[*i].is_none() && (keyed.is_ok() || units[*i].manifest.is_some())
            });
        for (i, keyed, object) in fresh {
            units[i] = match keyed {
                Ok(keyed) => {
                    if held[i].is_none() {
                        recompiled.push(files[i].to_owned());
                    }
                    report.compile_cache_hits += usize::from(keyed.cache_hit);
                    report.compile_cache_direct_hits += usize::from(keyed.direct_hit);
                    let manifest = Some(keyed.manifest);
                    Unit { manifest, object }
                }
                Err(reason) => {
                    report.quarantined.push(Quarantined::note(files[i], reason));
                    Unit::default()
                }
            };
        }
        if !changed {
            return Ok(None);
        }
        report.compile_cache_misses = todo.len() - report.compile_cache_hits;
        mark(&mut sp, report);
        report.compile_time = sp.finish();
        let mut sp = cla_obs::global().span("pipeline", "pipeline.link");
        let linker = match stream {
            Some(stream) => {
                report.peak_buffered_units = stream.peak_buffered();
                stream.finish()
            }
            None => {
                let mut linker = ObjectLinker::new(PROGRAM);
                for (unit, f) in units.iter().zip(&files) {
                    match &unit.object {
                        Some(object) => linker.add(object),
                        None => linker.add(&UnitObject::empty(f)),
                    }
                }
                linker
            }
        };
        let summarize = report.is_partial() && opts.unknown_summaries;
        let db = open_linked(linker, summarize, report)?;
        sp.set("object_bytes", db.file_size());
        report.link_time = sp.finish();
        Ok(Some(db))
    }

    /// The tail of every link: the provenance of what linked, the hook's
    /// graph if it was asked for exactly that, and the per-file figures.
    fn built(
        &self,
        database: Database,
        run: Linking,
        keyed_prov: Option<&Provenance>,
        graph: Option<Option<SealedGraph>>,
    ) -> Built {
        let (mut report, fp) = (run.report, self.options_fp);
        let keys: Vec<u64> = (self.units.iter().zip(&self.files))
            .map(|(u, f)| u.manifest.as_ref().map_or(0, |m| m.closure.key(f, fp)))
            .collect();
        let provenance = self.provenance(&keys);
        let graph = graph.filter(|_| !report.is_partial() && keyed_prov == Some(&provenance));
        for stats in self.units.iter().flat_map(|u| &u.manifest).map(|m| m.stats) {
            report.source_bytes += stats.source_bytes;
            report.preprocessed_lines += stats.preprocessed_lines;
        }
        let mut ranked: Vec<(String, Duration)> =
            self.files.iter().cloned().zip(run.durs).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(SLOWEST_FILES_CAP);
        report.slowest_files = ranked;
        report.object_size = database.file_size();
        report.peak_buffered_units = report.peak_buffered_units.max(1);
        Built {
            database,
            report,
            provenance,
            graph,
            recompiled: run.recompiled,
        }
    }

    /// The provenance of this build's files, keyed `keys`.
    fn provenance(&self, keys: &[u64]) -> Provenance {
        let inputs = (self.files.iter().cloned()).zip(keys.iter().copied());
        let (options_fp, solver) = (self.options_fp, self.opts.solver);
        Provenance {
            inputs: inputs.collect(),
            options_fp,
            solver,
        }
    }
}

/// What one link has found so far: per file, the manifest that still held
/// when keyed and how long keying or building it took; every key when
/// every file was keyed; the report; and the files that rebuilt.
struct Linking {
    held: Vec<Option<Manifest>>,
    durs: Vec<Duration>,
    keys: Option<Vec<u64>>,
    report: Report,
    recompiled: Vec<String>,
}

/// A stored program admitted, how long that took, and the link phase's
/// span, still open.
type Stored = (Database, Duration, Span<'static>);

/// The graph a helper thread loaded; a panic there goes on here.
fn join<T>(h: ScopedJoinHandle<'_, T>) -> T {
    h.join().unwrap_or_else(|p| resume_unwind(p))
}

/// Sets what the build counted on its `pipeline.compile` span.
fn mark(sp: &mut cla_obs::Span<'_>, report: &Report) {
    sp.set("cache_hits", report.compile_cache_hits);
    sp.set("cache_direct_hits", report.compile_cache_direct_hits);
    sp.set("jobs", report.jobs);
}

/// The program a previous run linked from `prov`'s inputs, admitted as any
/// `.clao` read from disk ([`Database::admit`]), how long that took, and
/// the link phase's span, still open. A missing entry or one that fails
/// admission is a counted miss.
fn open_stored_program(hook: &dyn SnapshotHook, prov: &Provenance) -> Option<Stored> {
    let obs = cla_obs::global();
    let mut sp = obs.span("pipeline", "pipeline.link");
    let t = std::time::Instant::now();
    let db = hook
        .load_program(prov)
        .and_then(|bytes| Database::admit(bytes).ok());
    let admit_time = t.elapsed();
    sp.set("object_bytes", db.as_ref().map_or(0, Database::file_size));
    match db {
        Some(db) => {
            obs.counter("cla_snap_program_loads_total").inc();
            Some((db, admit_time, sp))
        }
        None => {
            obs.counter("cla_snap_program_mismatch_total").inc();
            None
        }
    }
}

/// A stored program [admitted](Database::admit) in place of a link, with
/// the link figures the fold that built it reported read off its records
/// into `report` (no unknown summary: a partial run stores no program).
fn of_stored(
    db: Database,
    objects_in: usize,
    open_time: Duration,
    report: &mut Report,
) -> Database {
    let assign_counts = db.assign_counts();
    let objects_out = db.object_count();
    report.link_stats = LinkStats {
        units: report.files,
        objects_in,
        objects_out,
        symbols_merged: objects_in.saturating_sub(objects_out),
        assigns: assign_counts.total(),
    };
    report.open_time = open_time;
    report.program_variables = (db.ids())
        .filter(|&o| db.kind(o).is_program_object())
        .count();
    report.assign_counts = assign_counts;
    db
}

/// The one tail of every link: the linker every unit object has been
/// folded into (`ObjectLinker` or `StreamLinker::finish`) lays out the
/// program object — with its unknown summaries, if asked for — and the
/// `UnitObject` that comes back, written and checksummed in this process,
/// is opened as the [`Database`] the solver reads without being hashed or
/// range-checked again ([`Database::from_object`]); its figures go to `report`.
///
/// # Errors
///
/// A database error if the freshly assembled object fails to open (a
/// linker bug — a typed error all the same, not a panic).
fn open_linked(
    linker: ObjectLinker,
    summarize_unknown: bool,
    report: &mut Report,
) -> Result<Database, DbError> {
    let linked = linker.finish(summarize_unknown);
    let t = std::time::Instant::now();
    let db = Database::from_object(linked.object)?;
    report.open_time = t.elapsed();
    report.link_stats = linked.stats;
    report.link_times = linked.times;
    report.program_variables = linked.program_variables;
    report.assign_counts = linked.assign_counts;
    report.unknown_summaries = linked.unknown_summaries;
    Ok(db)
}
