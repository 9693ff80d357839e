//! The program seam: the commands that read a linked `.clao` or a `.clasnap`.

use crate::{Args, Out};
use cla::prelude::*;
use std::path::Path;

/// Admits a `.clao` with `Database::admit`: every block is checked before a
/// solver, which indexes by the ids it reads, may touch it, so a damaged
/// file is an error here, never a panic later.
pub fn load_database(path: &str) -> Result<Database, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Database::admit(bytes).map_err(|e| format!("`{path}`: {e}"))
}

/// The `--print` lines: `pts(name) = {…}` for every object of each name,
/// or `<no such object>`.
pub fn print_points_to(
    db: &Database,
    pts: &PointsTo,
    names: &[String],
    out: &mut Out,
) -> Result<(), String> {
    for name in names {
        let targets = db.targets(name);
        if targets.is_empty() {
            writeln!(out, "pts({name}) = <no such object>")?;
        }
        for &o in targets {
            let set: Vec<&str> = pts.points_to(o).iter().map(|&t| db.name(t)).collect();
            writeln!(out, "pts({name}) = {{{}}}", set.join(", "))?;
        }
    }
    Ok(())
}

pub fn dump(args: &[String], out: &mut Out) -> Result<(), String> {
    let path = args.first().ok_or("dump needs a .clao file")?;
    let db = load_database(path)?;
    write!(out, "{}", cla::prelude::dump(&db))
}

pub fn solve(args: &[String], out: &mut Out) -> Result<(), String> {
    let mut a = Args::new(args);
    let solver = a
        .take_value("--solver")?
        .unwrap_or_else(|| "pretransitive".to_string());
    let print = a.take_tail("--print");
    let pos = a.positional();
    let path = pos.first().ok_or("solve needs a .clao file")?;
    let db = load_database(path)?;

    let t = std::time::Instant::now();
    let pts = match solver.as_str() {
        "pretransitive" => solve_database(&db, SolveOptions::default()).0,
        "worklist" => cla::core::worklist::solve(&db.to_unit().map_err(|e| e.to_string())?),
        "steensgaard" => cla::core::steensgaard::solve(&db.to_unit().map_err(|e| e.to_string())?),
        other => {
            return Err(format!(
                "unknown solver `{other}` (pretransitive, worklist, steensgaard)"
            ))
        }
    };
    let dt = t.elapsed();
    let ls = db.load_stats();
    writeln!(
        out,
        "solver={solver} time={dt:?} pointer-variables={} relations={}",
        pts.pointer_variables(),
        pts.relations()
    )?;
    writeln!(
        out,
        "assignments: loaded {} of {} in file",
        ls.assigns_loaded, ls.assigns_in_file
    )?;
    print_points_to(&db, &pts, &print, out)
}

pub fn depend(args: &[String], out: &mut Out) -> Result<(), String> {
    let mut a = Args::new(args);
    let target = a
        .take_value("--target")?
        .ok_or("depend needs --target NAME")?;
    let tree = a.take_flag("--tree");
    let non_targets = a.take_values("--non-target")?;
    let pos = a.positional();
    let path = pos.first().ok_or("depend needs a .clao file")?;
    let db = load_database(path)?;
    let (pts, _) = solve_database(&db, SolveOptions::default());
    let dep = DependenceAnalysis::new(&db, &pts);
    let report = dep
        .try_analyze(&target, &DependOptions { non_targets })
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no object named `{target}`"))?;
    writeln!(
        out,
        "{} dependents of `{target}`:",
        report.dependents().len()
    )?;
    if tree {
        write!(out, "{}", dep.render_tree(&report))
    } else {
        write!(out, "{}", dep.render_report(&report))
    }
}

/// Solves a linked database and persists the sealed graph as a `.clasnap`
/// snapshot. The provenance records the object file's content hash under
/// the serve-side scheme, so `cla-tool serve prog.clao --snapshot DIR`
/// (with the snapshot saved as `DIR/graph.clasnap`) starts warm from it.
pub fn snapshot_save(args: &[String]) -> Result<(), String> {
    let mut a = Args::new(args);
    let out = a
        .take_value("-o")?
        .unwrap_or_else(|| "a.clasnap".to_string());
    let pos = a.positional();
    let path = pos.first().ok_or("snapshot-save needs a .clao file")?;
    let db = load_database(path)?;

    let opts = SolveOptions::default();
    let t = std::time::Instant::now();
    let sealed = cla::core::Warm::from_database(&db, opts).seal();
    let solve_time = t.elapsed();
    let prov = cla::serve::object_provenance(path, db.content_hash(), opts);
    let written = cla::snap::save(Path::new(&out), &prov, &sealed)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    eprintln!(
        "snapshot {out}: {} objects, {written} bytes, solved in {solve_time:?} ({} passes)",
        sealed.object_count(),
        sealed.stats().passes
    );
    Ok(())
}

/// Prints a snapshot's header, section table, and provenance without
/// loading the graph: the file is read only through the provenance section,
/// whose checksum alone is verified — what a warm-start viability check
/// costs.
pub fn snapshot_info(args: &[String], out: &mut Out) -> Result<(), String> {
    let path = args.first().ok_or("snapshot-info needs a .clasnap file")?;
    let snap =
        cla::snap::Snapshot::open_head(Path::new(path)).map_err(|e| format!("`{path}`: {e}"))?;
    let prov = snap.provenance();
    writeln!(
        out,
        "snapshot {path}: format v{}, {} objects, {} sections",
        cla::snap::VERSION,
        snap.object_count(),
        snap.section_table().len()
    )?;
    writeln!(
        out,
        "provenance: options_fp={:016x} cache={} cycle_elim={}",
        prov.options_fp, prov.solver.cache, prov.solver.cycle_elim
    )?;
    for (name, hash) in &prov.inputs {
        writeln!(out, "  input {name} hash={hash:016x}")?;
    }
    writeln!(out, "sections:")?;
    for s in snap.section_table() {
        let name = cla::snap::SnapSectionId::from_u32(s.id)
            .map(|i| i.name())
            .unwrap_or("?");
        writeln!(
            out,
            "  {:<8} id={} offset={} len={} checksum={:016x}",
            name, s.id, s.offset, s.len, s.checksum
        )?;
    }
    Ok(())
}
