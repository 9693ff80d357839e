//! The synthetic C generator.
//!
//! Emits a multi-file C code base whose lowered primitive-assignment counts
//! approximate a [`BenchSpec`] (one row of Table 2), with the structural
//! features the solvers care about: pointer chains and *cycles* (the paper's
//! cycle elimination is essential on real code), join points, struct field
//! traffic, cross-file globals resolved by the linker, direct calls through
//! shared prototypes, and indirect calls through function-pointer globals.

use crate::profiles::BenchSpec;
use crate::rng::SplitMix64;
use std::fmt::Write as _;

/// Generator options.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Scale factor applied to every count in the spec (1.0 = paper size).
    pub scale: f64,
    /// Number of `.c` files to spread the program over.
    pub files: usize,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
    /// Fraction of copy assignments that are integer-to-integer (irrelevant
    /// to the points-to solver; exercises demand loading). `None` calibrates
    /// it from the benchmark's Table 3 loaded/in-file ratio.
    pub int_copy_fraction: Option<f64>,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            scale: 1.0,
            files: 16,
            seed: 0xC1A,
            int_copy_fraction: None,
        }
    }
}

impl GenOptions {
    /// Convenience: options at a given scale.
    pub fn at_scale(scale: f64) -> Self {
        GenOptions {
            scale,
            ..Default::default()
        }
    }
}

/// A generated code base.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    /// `(path, contents)` pairs; the first entry is the shared header.
    pub files: Vec<(String, String)>,
}

impl Workload {
    /// The `.c` file paths (excluding headers), in order.
    pub fn source_files(&self) -> Vec<&str> {
        self.files
            .iter()
            .map(|(p, _)| p.as_str())
            .filter(|p| p.ends_with(".c"))
            .collect()
    }

    /// Total bytes of all files.
    pub fn total_bytes(&self) -> usize {
        self.files.iter().map(|(_, c)| c.len()).sum()
    }

    /// Total non-blank source lines.
    pub fn total_lines(&self) -> usize {
        self.files
            .iter()
            .map(|(_, c)| c.lines().filter(|l| !l.trim().is_empty()).count())
            .sum()
    }
}

/// Per-file variable pools.
#[derive(Debug, Default, Clone)]
struct Pool {
    ints: Vec<String>,
    ptrs: Vec<String>,
    pptrs: Vec<String>,
    /// Struct instances with their type-tag index.
    structs: Vec<(String, usize)>,
}

struct Gen {
    rng: SplitMix64,
    files: usize,
    /// Pools: index 0 = shared (header), 1..=files = per-file.
    pools: Vec<Pool>,
    /// Struct type tags and their pointer/int field names.
    struct_tags: Vec<String>,
    /// Identity-style functions `int *fid_k(int *)` (owner file, name).
    fids: Vec<(usize, String)>,
    /// Function-pointer globals (shared).
    fptrs: Vec<String>,
    /// Statements destined for each file.
    stmts: Vec<Vec<String>>,
    /// Struct-pointer globals: (pool scope, tag) -> name. One per scope and
    /// tag, created on demand; accesses through them are what separates the
    /// field-based and field-independent models.
    sptrs: std::collections::HashMap<(usize, usize), String>,
    /// The first `identity_count` fids are identity functions (join
    /// points); the budget scales with cluster count to stay below directed
    /// percolation.
    identity_count: usize,
    /// Remaining cross-cluster bridge budget (scales with cluster count,
    /// not statement count, to stay below directed percolation).
    bridges_left: usize,
    /// Per-field-object spoke budget and counters (keyed by instance
    /// variable + field, a close proxy for the field object).
    field_spoke_cap: usize,
    field_spokes: std::collections::HashMap<(String, usize), usize>,
    /// Size of the pointer window associated with each pointer-to-pointer
    /// variable (how many distinct pointers a `**` cell can designate).
    assoc_window: usize,
    /// Cluster size for copy locality.
    cluster: usize,
    /// Remaining struct-field copy budget (cluster-scaled: field objects
    /// are global join points under the field-based model).
    field_edges_left: usize,
}

const FIELDS_INT: [&str; 2] = ["fi0", "fi1"];
const FIELDS_PTR: [&str; 2] = ["fp0", "fp1"];

impl Gen {
    /// Picks a variable usable from `file`: its own pool or the shared pool.
    /// Biased 3:1 toward file-local variables — real code bases have strong
    /// locality, and uniform picking over the (large) shared pool would
    /// produce far more join-point conflation than the paper's benchmarks.
    fn pick(&mut self, file: usize, which: fn(&Pool) -> &Vec<String>) -> Option<&str> {
        let shared_len = which(&self.pools[0]).len();
        let local_len = which(&self.pools[file + 1]).len();
        if shared_len + local_len == 0 {
            return None;
        }
        let use_local = local_len > 0 && (shared_len == 0 || self.rng.random_range(0..4) < 3);
        let (pool, len) = if use_local {
            (file + 1, local_len)
        } else {
            (0, shared_len)
        };
        let ix = self.rng.random_range(0..len);
        Some(&which(&self.pools[pool])[ix])
    }

    fn pick2(
        &mut self,
        file: usize,
        a: fn(&Pool) -> &Vec<String>,
        b: fn(&Pool) -> &Vec<String>,
    ) -> Option<(String, String)> {
        let x = self.pick(file, a)?.to_string();
        let y = self.pick(file, b)?.to_string();
        Some((x, y))
    }

    fn emit(&mut self, file: usize, stmt: String) {
        self.stmts[file].push(stmt);
    }

    /// Picks two distinct variables from the same small *cluster* of a pool.
    /// Value flow in real code is clustered (a handful of variables per data
    /// structure or module); unconstrained random copies would union the
    /// whole program's points-to sets together. 3% of picks bridge two
    /// clusters.
    fn pick_cluster_pair(
        &mut self,
        file: usize,
        which: fn(&Pool) -> &Vec<String>,
    ) -> Option<(String, String)> {
        let cluster = self.cluster;
        let pool_ix = {
            let local_len = which(&self.pools[file + 1]).len();
            if local_len >= 2 && self.rng.random_range(0..4) < 3 {
                file + 1
            } else {
                0
            }
        };
        let len = which(&self.pools[pool_ix]).len();
        if len < 2 {
            return None;
        }
        let n_clusters = len.div_ceil(cluster);
        let c = self.rng.random_range(0..n_clusters);
        let lo = c * cluster;
        let hi = ((c + 1) * cluster).min(len);
        if hi - lo < 2 {
            return None;
        }
        let i = lo + self.rng.random_range(0..hi - lo);
        let mut j = lo + self.rng.random_range(0..hi - lo);
        // Rare cross-cluster bridge, from a fixed budget.
        if self.bridges_left > 0 && self.rng.random_range(0..100) < 20 {
            self.bridges_left -= 1;
            j = self.rng.random_range(0..len);
        }
        if i == j {
            return None;
        }
        let pool = which(&self.pools[pool_ix]);
        Some((pool[i].clone(), pool[j].clone()))
    }

    fn random_file(&mut self) -> usize {
        self.rng.random_range(0..self.files)
    }

    /// Picks a struct instance usable from `file`, returning
    /// `(scope, name, tag)`.
    fn pick_struct(&mut self, file: usize) -> Option<(usize, String, usize)> {
        let shared_len = self.pools[0].structs.len();
        let local_len = self.pools[file + 1].structs.len();
        if shared_len + local_len == 0 {
            return None;
        }
        let use_local = local_len > 0 && (shared_len == 0 || self.rng.random_range(0..4) < 3);
        let (scope, len) = if use_local {
            (file + 1, local_len)
        } else {
            (0, shared_len)
        };
        let ix = self.rng.random_range(0..len);
        let (name, tag) = self.pools[scope].structs[ix].clone();
        Some((scope, name, tag))
    }

    /// Picks a pointer from the slot associated with a struct *type*: all
    /// payload traffic of one type stays in one pointer neighbourhood, so
    /// heavy struct traffic cannot percolate the field-based graph (while
    /// still conflating freely under the field-independent model).
    fn pick_ptr_for_tag(&mut self, scope: usize, tag: usize) -> Option<String> {
        let ps = &self.pools[scope].ptrs;
        if ps.is_empty() {
            return None;
        }
        let w = self.assoc_window.min(ps.len()).max(1);
        let align = self.cluster.max(w);
        let n_slots = (ps.len() / align).max(1);
        let start = ((tag * 2_654_435_761usize) % n_slots) * align;
        let pi = start + self.rng.random_range(0..w.min(ps.len() - start));
        Some(ps[pi.min(ps.len() - 1)].clone())
    }

    /// The struct-pointer global for `(scope, tag)`, created on first use.
    fn sptr_for(&mut self, scope: usize, tag: usize) -> String {
        self.sptrs
            .entry((scope, tag))
            .or_insert_with(|| {
                if scope == 0 {
                    format!("gsp{tag}")
                } else {
                    format!("sp{}_{tag}", scope - 1)
                }
            })
            .clone()
    }

    /// Picks a pointer-to-pointer variable together with a pointer from its
    /// *associated window*. All `q = &p`, `*q = p` and `p = *q` traffic for
    /// a given `q` stays inside that window: in real code the pointers
    /// stored through a given cell belong to one data structure, and
    /// decorrelated picks would wire random clusters together and conflate
    /// the whole program.
    fn pick_assoc(&mut self, file: usize, parity: Option<usize>) -> Option<(String, String)> {
        let pool_ix = {
            let local_ok =
                !self.pools[file + 1].pptrs.is_empty() && !self.pools[file + 1].ptrs.is_empty();
            if local_ok && self.rng.random_range(0..4) < 3 {
                file + 1
            } else {
                0
            }
        };
        let qs = &self.pools[pool_ix].pptrs;
        let ps = &self.pools[pool_ix].ptrs;
        if qs.is_empty() || ps.is_empty() {
            return None;
        }
        let mut qi = self.rng.random_range(0..qs.len());
        // In low-conflation tiers, cells written through (`*q = p`) and
        // cells read through (`p = *q`) are disjoint populations: the
        // write-then-read relay through one cell is the strongest
        // conflation amplifier, and sparse code bases show little of it.
        if let Some(par) = parity {
            if qs.len() > 1 && qi % 2 != par {
                qi = (qi + 1) % qs.len();
            }
        }
        let w = self.assoc_window.min(ps.len()).max(1);
        // Windows are aligned to copy-cluster boundaries: a window that
        // straddled two clusters would stitch them together and chain the
        // whole pool into one conflated region.
        let align = self.cluster.max(w);
        let n_slots = (ps.len() / align).max(1);
        // All pointer cells of one q-cluster share one window: q-q copies
        // then merge identical windows instead of stitching distinct ones.
        let q_group = qi / self.cluster.max(1);
        let start = ((q_group * 2_654_435_761usize) % n_slots) * align;
        let pi = start + self.rng.random_range(0..w.min(ps.len() - start));
        Some((qs[qi].clone(), ps[pi.min(ps.len() - 1)].clone()))
    }
}

/// Generates a code base approximating `spec` at the given options.
pub fn generate(spec: &BenchSpec, opts: &GenOptions) -> Workload {
    let sc = |v: u32| -> usize { ((f64::from(v) * opts.scale).round() as usize).max(1) };
    let n_files = opts.files.max(1);
    let variables = sc(spec.variables);
    let n_copy = sc(spec.copy);
    let n_addr = sc(spec.addr);
    let n_store = sc(spec.store);
    let n_sl = sc(spec.store_load);
    let n_load = sc(spec.load);

    // Conflation tiers calibrated to the paper's measured average
    // points-to set size (Table 3 relations / pointer variables): gcc-like
    // code is sparse (avg ~11), emacs-like is join-heavy (avg ~1400).
    let avg_target = spec.target_avg_pts();
    #[allow(clippy::type_complexity)]
    let (
        ident_density,
        identity_site_cap,
        fptr_site_cap,
        bridge_density,
        assoc_window,
        cluster,
        field_density,
        field_spoke_cap,
        pptr_copy_pct,
        cycle_pct,
        split_sl,
        struct_pct,
    ): (
        f64,
        usize,
        usize,
        f64,
        usize,
        usize,
        f64,
        usize,
        u32,
        u32,
        bool,
        u32,
    ) = if avg_target < 30.0 {
        // nethack, gcc, povray: shallow, local pointer flow.
        (0.05, 1, 1, 0.1, 4, 8, 0.5, 4, 2, 1, true, 8)
    } else if avg_target < 120.0 {
        // burlap, vortex: moderate conflation.
        (0.15, 2, 2, 0.5, 16, 24, 2.0, 8, 4, 1, true, 18)
    } else if avg_target < 400.0 {
        // lucent, gimp: substantial join points and heavy struct use.
        (0.2, 3, 3, 0.5, 48, 64, 1.5, 8, 8, 2, false, 20)
    } else {
        // emacs: points-to sets blow up (the paper measures an
        // average of ~1400).
        (0.8, 8, 5, 1.2, 128, 128, 3.0, 16, 15, 2, false, 25)
    };
    let mut g = Gen {
        rng: SplitMix64::seed_from_u64(opts.seed ^ spec.name.len() as u64),
        files: n_files,
        pools: vec![Pool::default(); n_files + 1],
        struct_tags: Vec::new(),
        fids: Vec::new(),
        fptrs: Vec::new(),
        stmts: vec![Vec::new(); n_files],
        sptrs: std::collections::HashMap::new(),
        identity_count: 0, // set below, once pool sizes are known
        bridges_left: 0,   // likewise
        field_edges_left: 0,
        field_spoke_cap,
        field_spokes: std::collections::HashMap::new(),
        assoc_window,
        cluster,
    };

    // ---- variable pools ------------------------------------------------
    // Budget split; functions and struct fields also count as program
    // variables, so carve them out of the total.
    let n_fids = (variables / 40).clamp(2, 4000);
    let n_fptrs = (n_fids / 3).max(1);
    let n_struct_types = (variables / 60).clamp(1, 4000);
    let field_vars = n_struct_types * (FIELDS_INT.len() + FIELDS_PTR.len());
    let pool_budget = variables
        .saturating_sub(n_fids + n_fptrs + field_vars)
        .max(8);
    let n_ints = pool_budget * 45 / 100;
    let n_ptrs = pool_budget * 30 / 100;
    let n_pptrs = pool_budget * 15 / 100;
    let n_structs = pool_budget - n_ints - n_ptrs - n_pptrs;

    for t in 0..n_struct_types {
        g.struct_tags.push(format!("T{t}"));
    }
    // ~30% of scalars live in the shared header pool; the rest are spread
    // over the files.
    let distribute =
        |count: usize, prefix: &str, which: fn(&mut Pool) -> &mut Vec<String>, g: &mut Gen| {
            for k in 0..count {
                let shared = k % 10 < 3;
                let pool_ix = if shared {
                    0
                } else {
                    g.rng.random_range(0..n_files) + 1
                };
                let name = if shared {
                    format!("g{prefix}{k}")
                } else {
                    format!("{prefix}{}_{k}", pool_ix - 1)
                };
                which(&mut g.pools[pool_ix]).push(name);
            }
        };
    distribute(n_ints.max(4), "i", |p| &mut p.ints, &mut g);
    distribute(n_ptrs.max(4), "p", |p| &mut p.ptrs, &mut g);
    distribute(n_pptrs.max(2), "q", |p| &mut p.pptrs, &mut g);
    for k in 0..n_structs.max(2) {
        let shared = k % 10 < 3;
        let pool_ix = if shared {
            0
        } else {
            g.rng.random_range(0..n_files) + 1
        };
        let name = if shared {
            format!("gs{k}")
        } else {
            format!("s{}_{k}", pool_ix - 1)
        };
        // Half the instances belong to a handful of *hot* types (list/tree
        // nodes in real code): under the field-independent model their
        // instances conflate into large blobs — the Table 4 effect.
        let hot_tags = (n_struct_types / 40)
            .clamp(1, 64)
            .max(4)
            .min(n_struct_types);
        let tag = if k % 2 == 0 {
            k % hot_tags
        } else {
            k % n_struct_types
        };
        g.pools[pool_ix].structs.push((name, tag));
    }

    let total_ptrs: usize = g.pools.iter().map(|p| p.ptrs.len()).sum();
    let n_clusters = (total_ptrs / cluster.max(1)).max(1);
    g.bridges_left = (n_clusters as f64 * bridge_density) as usize;
    g.identity_count = ((n_clusters as f64 * ident_density) as usize).clamp(1, n_fids);
    g.field_edges_left = (n_clusters as f64 * field_density) as usize;
    for k in 0..n_fids {
        let owner = k % n_files;
        g.fids.push((owner, format!("fid{k}")));
    }
    for k in 0..n_fptrs {
        g.fptrs.push(format!("fptr{k}"));
    }

    // ---- address-of assignments -----------------------------------------
    // Function pointers receive at most a couple of targets each: real code
    // assigns a handler once or twice, and unbounded assignment would turn
    // every indirect call into a giant join point.
    let mut fptr_assigns_left = g.fptrs.len() * 2;
    for _ in 0..n_addr {
        let f = g.random_file();
        let mut roll = g.rng.random_range(0..100);
        if roll >= 90 && fptr_assigns_left == 0 {
            roll = 0;
        }
        if roll < 55 {
            if let Some((p, x)) = g.pick2(f, |p| &p.ptrs, |p| &p.ints) {
                g.emit(f, format!("{p} = &{x};"));
            }
        } else if roll < 75 {
            // Correlated: a cell only ever holds addresses from its window.
            if let Some((q, p)) = g.pick_assoc(f, None) {
                g.emit(f, format!("{q} = &{p};"));
            }
        } else if roll < 90 {
            // Struct traffic: a pointer field gets an address, or a struct
            // pointer gets an instance's address.
            if let Some((scope, sv, tag)) = g.pick_struct(f) {
                match g.rng.random_range(0..3) {
                    0 => {
                        if let Some(x) = g.pick(f, |p| &p.ints).map(str::to_string) {
                            let fld = FIELDS_PTR[g.rng.random_range(0..FIELDS_PTR.len())];
                            g.emit(f, format!("{sv}.{fld} = &{x};"));
                        }
                    }
                    1 => {
                        let sp = g.sptr_for(scope, tag);
                        g.emit(f, format!("{sp} = &{sv};"));
                    }
                    _ => {
                        // Link two instances of the same type: list/tree
                        // structure, the classic field-independent killer.
                        let same_tag: Vec<String> = g.pools[scope]
                            .structs
                            .iter()
                            .filter(|(_, t)| *t == tag)
                            .map(|(n, _)| n.clone())
                            .collect();
                        if same_tag.len() >= 2 {
                            let other = same_tag[g.rng.random_range(0..same_tag.len())].clone();
                            if other != sv {
                                g.emit(f, format!("{sv}.link = &{other};"));
                            }
                        }
                    }
                }
            }
        } else {
            // Function address into a function pointer.
            fptr_assigns_left -= 1;
            let fp = g.fptrs[g.rng.random_range(0..g.fptrs.len())].clone();
            let (_, fid) = g.fids[g.rng.random_range(0..g.fids.len())].clone();
            g.emit(f, format!("{fp} = {fid};"));
        }
    }

    // ---- copies -----------------------------------------------------------
    // Each fid definition contributes 2 copies (param in, return out); each
    // emitted call contributes 2 (argument + result). Reserve that budget.
    let call_budget = (n_copy / 20).min(n_fids * 4);
    let reserved = n_fids * 2 + call_budget * 2;
    let plain_copies = n_copy.saturating_sub(reserved);
    let int_frac = opts
        .int_copy_fraction
        .unwrap_or_else(|| spec.irrelevant_fraction())
        .clamp(0.0, 0.95);
    let int_copies = (plain_copies as f64 * int_frac) as usize;
    // The loop is budget-driven: statements that lower to several copies
    // (arithmetic, cycles) consume several units.
    let mut emitted_int = 0usize;
    let mut emitted_ptr = 0usize;
    while emitted_int + emitted_ptr < plain_copies {
        let f = g.random_file();
        if emitted_int < int_copies {
            // Integer traffic: 20% as x = y + z (two copies), rest plain.
            if emitted_int.is_multiple_of(9) {
                if let (Some(x), Some(y), Some(z)) = (
                    g.pick(f, |p| &p.ints).map(str::to_string),
                    g.pick(f, |p| &p.ints).map(str::to_string),
                    g.pick(f, |p| &p.ints).map(str::to_string),
                ) {
                    g.emit(f, format!("{x} = {y} + {z};"));
                    emitted_int += 2;
                }
            } else if let Some((x, y)) = g.pick2(f, |p| &p.ints, |p| &p.ints) {
                g.emit(f, format!("{x} = {y};"));
                emitted_int += 1;
            }
        } else {
            let roll = g.rng.random_range(0..100);
            if roll < cycle_pct {
                // Deliberately close a small pointer cycle over *adjacent*
                // local pointers (counts as `len` copies). Cycles are rare,
                // short, and contiguous: scattering their members across the
                // pool would collapse whole files into one strongly
                // connected component, which real code does not do.
                let len = g.rng.random_range(3..6usize);
                let local_len = g.pools[f + 1].ptrs.len();
                if local_len >= len {
                    // Cluster-aligned so a cycle never stitches two
                    // clusters together.
                    let slots = (local_len / g.cluster.max(len)).max(1);
                    let start = g.rng.random_range(0..slots) * g.cluster.max(len);
                    let start = start.min(local_len - len);
                    let members: Vec<String> = g.pools[f + 1].ptrs[start..start + len].to_vec();
                    for w in 0..members.len() {
                        let a = &members[w];
                        let b = &members[(w + 1) % members.len()];
                        g.emit(f, format!("{a} = {b};"));
                        emitted_ptr += 1;
                    }
                }
            } else if roll < cycle_pct + struct_pct && g.field_edges_left > 0 {
                // Struct field traffic. Fields are global join points in
                // the field-based model: both the total number of field
                // copy edges (cluster-scaled budget) and the spokes per
                // field object are bounded, as in real code.
                if let Some((scope, sv, tag)) = g.pick_struct(f) {
                    let Some(x) = g.pick_ptr_for_tag(scope, tag) else {
                        continue;
                    };
                    let fld_ix = g.rng.random_range(0..FIELDS_PTR.len());
                    let cap = g.field_spoke_cap;
                    let spokes = g.field_spokes.entry((sv.clone(), fld_ix)).or_insert(0);
                    if *spokes < cap {
                        *spokes += 1;
                        g.field_edges_left -= 1;
                        let fld = FIELDS_PTR[fld_ix];
                        // A quarter of struct traffic walks links
                        // (`sp = sp->link`); the rest touches payload
                        // fields, half through a struct pointer — identical
                        // under the field-based model, but loads and stores
                        // under the field-independent one (the Table 4
                        // contrast).
                        let sp = g.sptr_for(scope, tag);
                        match g.rng.random_range(0..4) {
                            0 => g.emit(f, format!("{sp} = {sp}->link;")),
                            1 => {
                                if g.rng.random_range(0..2) == 0 {
                                    g.emit(f, format!("{sp}->{fld} = {x};"));
                                } else {
                                    g.emit(f, format!("{x} = {sp}->{fld};"));
                                }
                            }
                            _ => {
                                if g.rng.random_range(0..2) == 0 {
                                    g.emit(f, format!("{sv}.{fld} = {x};"));
                                } else {
                                    g.emit(f, format!("{x} = {sv}.{fld};"));
                                }
                            }
                        }
                        emitted_ptr += 1;
                    }
                }
            } else if roll < cycle_pct + struct_pct + pptr_copy_pct {
                if let Some((a, b)) = g.pick_cluster_pair(f, |p| &p.pptrs) {
                    // Consistent ordering keeps accidental copies acyclic
                    // (cycles are injected explicitly above).
                    let (dst, src) = if a > b { (a, b) } else { (b, a) };
                    g.emit(f, format!("{dst} = {src};"));
                    emitted_ptr += 1;
                }
            } else if let Some((a, b)) = g.pick_cluster_pair(f, |p| &p.ptrs) {
                let (dst, src) = if a > b { (a, b) } else { (b, a) };
                g.emit(f, format!("{dst} = {src};"));
                emitted_ptr += 1;
            }
            // Degenerate pools (tiny scales) may fail to emit; always make
            // progress so the budget loop terminates.
            emitted_ptr += usize::from(roll >= 95);
        }
    }
    // Calls: half direct, half through function pointers. Identity
    // functions and function pointers conflate their call sites, so their
    // site counts are capped by the conflation tier.
    let mut fid_sites = vec![0usize; g.fids.len()];
    let mut fptr_sites = vec![0usize; g.fptrs.len()];
    for k in 0..call_budget {
        let f = g.random_file();
        let Some((dst, arg)) = g.pick2(f, |p| &p.ptrs, |p| &p.ptrs) else {
            continue;
        };
        if k % 2 == 0 {
            let mut ix = g.rng.random_range(0..g.fids.len());
            let ident_n = g.identity_count;
            let is_identity = |i: usize| i < ident_n;
            if is_identity(ix) && fid_sites[ix] >= identity_site_cap {
                // Redirect to a non-conflating function.
                ix = (ix + ident_n).min(g.fids.len() - 1);
            }
            fid_sites[ix] += 1;
            let (_, fid) = g.fids[ix].clone();
            g.emit(f, format!("{dst} = {fid}({arg});"));
        } else {
            let ix = g.rng.random_range(0..g.fptrs.len());
            if fptr_sites[ix] >= fptr_site_cap {
                // Over cap: call a non-conflating direct function instead.
                let mut j = g.rng.random_range(0..g.fids.len());
                if j < g.identity_count {
                    j = (j + g.identity_count).min(g.fids.len() - 1);
                }
                fid_sites[j] += 1;
                let (_, fid) = g.fids[j].clone();
                g.emit(f, format!("{dst} = {fid}({arg});"));
            } else {
                fptr_sites[ix] += 1;
                let fp = g.fptrs[ix].clone();
                g.emit(f, format!("{dst} = {fp}({arg});"));
            }
        }
    }

    // ---- complex assignments ------------------------------------------------
    let (store_par, load_par) = if split_sl {
        (Some(0), Some(1))
    } else {
        (None, None)
    };
    for _ in 0..n_store {
        let f = g.random_file();
        if let Some((q, p)) = g.pick_assoc(f, store_par) {
            g.emit(f, format!("*{q} = {p};"));
        }
    }
    for _ in 0..n_load {
        let f = g.random_file();
        if let Some((q, p)) = g.pick_assoc(f, load_par) {
            g.emit(f, format!("{p} = *{q};"));
        }
    }
    for _ in 0..n_sl {
        // Both sides from one cluster: `*a = *b` moves data within one
        // structure, it does not wire two random ones together.
        let f = g.random_file();
        if let Some((a, b)) = g.pick_cluster_pair(f, |p| &p.pptrs) {
            g.emit(f, format!("*{a} = *{b};"));
        }
    }

    render(spec, &mut g)
}

/// Renders pools + statements into header and source files.
fn render(spec: &BenchSpec, g: &mut Gen) -> Workload {
    let mut files: Vec<(String, String)> = Vec::new();

    // ---- shared header ----
    let mut h = String::new();
    let _ = writeln!(
        h,
        "/* generated: shared declarations for `{}` */",
        spec.name
    );
    let _ = writeln!(h, "#ifndef SHARED_H");
    let _ = writeln!(h, "#define SHARED_H");
    for tag in &g.struct_tags {
        let _ = writeln!(
            h,
            "struct {tag} {{ struct {tag} *link; int {}; int {}; int *{}; int *{}; }};",
            FIELDS_INT[0], FIELDS_INT[1], FIELDS_PTR[0], FIELDS_PTR[1]
        );
    }
    let shared = g.pools[0].clone();
    for v in &shared.ints {
        let _ = writeln!(h, "extern int {v};");
    }
    for v in &shared.ptrs {
        let _ = writeln!(h, "extern int *{v};");
    }
    for v in &shared.pptrs {
        let _ = writeln!(h, "extern int **{v};");
    }
    for (v, tag) in &shared.structs {
        let tag = &g.struct_tags[*tag];
        let _ = writeln!(h, "extern struct {tag} {v};");
    }
    let mut sptr_list: Vec<((usize, usize), String)> =
        g.sptrs.iter().map(|(k, v)| (*k, v.clone())).collect();
    sptr_list.sort();
    for ((scope, tag), name) in &sptr_list {
        if *scope == 0 {
            let tag = &g.struct_tags[*tag];
            let _ = writeln!(h, "extern struct {tag} *{name};");
        }
    }
    for (_, fid) in &g.fids {
        let _ = writeln!(h, "int *{fid}(int *a);");
    }
    for fp in &g.fptrs {
        let _ = writeln!(h, "extern int *(*{fp})(int *);");
    }
    let _ = writeln!(h, "#endif");
    files.push(("shared.h".to_string(), h));

    // ---- source files ----
    for f in 0..g.files {
        let mut c = String::new();
        let _ = writeln!(c, "/* generated: {} part {f} */", spec.name);
        let _ = writeln!(c, "#include \"shared.h\"");
        // Definitions of the shared pool are owned round-robin.
        let own = |k: usize| k % g.files == f;
        for (k, v) in shared.ints.iter().enumerate() {
            if own(k) {
                let _ = writeln!(c, "int {v};");
            }
        }
        for (k, v) in shared.ptrs.iter().enumerate() {
            if own(k) {
                let _ = writeln!(c, "int *{v};");
            }
        }
        for (k, v) in shared.pptrs.iter().enumerate() {
            if own(k) {
                let _ = writeln!(c, "int **{v};");
            }
        }
        for (k, (v, tag)) in shared.structs.iter().enumerate() {
            if own(k) {
                let tag = &g.struct_tags[*tag];
                let _ = writeln!(c, "struct {tag} {v};");
            }
        }
        // Struct pointers: shared ones are owned round-robin, local ones
        // belong to their file.
        for (k, ((scope, tag), name)) in sptr_list.iter().enumerate() {
            if (*scope == 0 && own(k)) || *scope == f + 1 {
                let tag = &g.struct_tags[*tag];
                let _ = writeln!(c, "struct {tag} *{name};");
            }
        }
        for (k, fp) in g.fptrs.iter().enumerate() {
            if own(k) {
                let _ = writeln!(c, "int *(*{fp})(int *);");
            }
        }
        // File-local globals (every 7th is static, for linker coverage).
        let local = &g.pools[f + 1];
        for (k, v) in local.ints.iter().enumerate() {
            let _ = writeln!(c, "{}int {v};", if k % 7 == 0 { "static " } else { "" });
        }
        for (k, v) in local.ptrs.iter().enumerate() {
            let _ = writeln!(c, "{}int *{v};", if k % 7 == 0 { "static " } else { "" });
        }
        for v in &local.pptrs {
            let _ = writeln!(c, "int **{v};");
        }
        for (v, tag) in &local.structs {
            let tag = &g.struct_tags[*tag];
            let _ = writeln!(c, "struct {tag} {v};");
        }
        // Functions owned by this file: most return their own storage (no
        // cross-call-site conflation); a quarter are identity functions,
        // whose context-insensitive join points the paper discusses.
        for (k, (owner, fid)) in g.fids.iter().enumerate() {
            if *owner == f {
                if k < g.identity_count {
                    let _ = writeln!(c, "int *{fid}(int *a) {{ return a; }}");
                } else {
                    // The argument is stored away, not returned: call sites
                    // do not conflate with each other.
                    let _ = writeln!(c, "static int {fid}_own;");
                    let _ = writeln!(c, "static int *{fid}_keep;");
                    let _ = writeln!(
                        c,
                        "int *{fid}(int *a) {{ {fid}_keep = a; return &{fid}_own; }}"
                    );
                }
            }
        }
        // Statements packed into functions of ~20.
        let stmts = std::mem::take(&mut g.stmts[f]);
        for (fx, chunk) in stmts.chunks(20).enumerate() {
            let _ = writeln!(c, "void fn{f}_{fx}(void) {{");
            for s in chunk {
                let _ = writeln!(c, "    {s}");
            }
            let _ = writeln!(c, "}}");
        }
        files.push((format!("{}_{f}.c", spec.name), c));
    }

    Workload {
        name: spec.name.to_string(),
        files,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::by_name;

    #[test]
    fn deterministic() {
        let spec = by_name("nethack").unwrap();
        let opts = GenOptions {
            scale: 0.05,
            files: 3,
            ..Default::default()
        };
        let a = generate(spec, &opts);
        let b = generate(spec, &opts);
        assert_eq!(a.files, b.files);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = by_name("nethack").unwrap();
        let a = generate(
            spec,
            &GenOptions {
                scale: 0.05,
                seed: 1,
                ..Default::default()
            },
        );
        let b = generate(
            spec,
            &GenOptions {
                scale: 0.05,
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a.files, b.files);
    }

    #[test]
    fn structure() {
        let spec = by_name("burlap").unwrap();
        let w = generate(
            spec,
            &GenOptions {
                scale: 0.02,
                files: 4,
                ..Default::default()
            },
        );
        assert_eq!(w.source_files().len(), 4);
        assert!(w.files[0].0.ends_with("shared.h"));
        assert!(w.total_bytes() > 500);
        assert!(w.total_lines() > 20);
        // Every source file includes the shared header.
        for (p, c) in &w.files {
            if p.ends_with(".c") {
                assert!(c.contains("#include \"shared.h\""), "{p}");
            }
        }
    }
}
