//! Points-to analysis results.

use cla_ir::{ObjId, ObjKind, ObjectInfo};
use std::sync::Arc;

/// One points-to set: sorted, deduplicated object ids behind a shared
/// allocation. This is the paper's shared lval set (§5, "many lval sets are
/// identical") and the only shape the solved relation takes outside the
/// solver: the pre-transitive solver hands out one `LvalSet` per distinct
/// set, and [`PointsTo`], [`SealedGraph`](crate::SealedGraph), the
/// `.clasnap` writer and the query replies all clone the `Arc`, never the
/// elements.
pub type LvalSet = Arc<Vec<ObjId>>;

/// Whether two sorted id sets share an element (merge walk).
pub fn sets_intersect(a: &[ObjId], b: &[ObjId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Anything that can answer "what may `obj` point to?" — implemented by the
/// materialized [`PointsTo`] solution and by the immutable
/// [`SealedGraph`](crate::SealedGraph) snapshot, so consumers (the
/// dependence analysis, the query server) run unchanged against either.
pub trait PointsToQuery {
    /// The sorted points-to set of `obj` (empty for unknown ids).
    fn pointees(&self, obj: ObjId) -> &[ObjId];
}

/// The result of a points-to analysis: for every object, the set of objects
/// it may point to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointsTo {
    /// Sorted points-to sets, indexed by object id; objects with identical
    /// sets may share one allocation.
    pts: Vec<LvalSet>,
    /// Which objects count as "program objects" for the paper's metrics
    /// (variables and fields, not analysis-introduced temporaries).
    program: Vec<bool>,
}

impl PointsTo {
    /// Builds a result from per-object sets (sorted and deduplicated here).
    /// This is the entry point of the reference solvers, which share
    /// nothing; the pre-transitive solver goes through
    /// [`PointsTo::from_shared`].
    pub fn new(pts: Vec<Vec<ObjId>>, objects: &[ObjectInfo]) -> Self {
        let pts = pts
            .into_iter()
            .map(|mut set| {
                set.sort_unstable();
                set.dedup();
                Arc::new(set)
            })
            .collect();
        PointsTo::from_shared(pts, objects)
    }

    /// Builds a result from already sorted, deduplicated shared sets,
    /// keeping their sharing: no set is copied or re-sorted.
    pub fn from_shared(pts: Vec<LvalSet>, objects: &[ObjectInfo]) -> Self {
        PointsTo::from_kinds(pts, objects.iter().map(|o| o.kind))
    }

    /// [`PointsTo::from_shared`] given only what it reads of each object,
    /// its kind, in id order.
    pub fn from_kinds(pts: Vec<LvalSet>, kinds: impl IntoIterator<Item = ObjKind>) -> Self {
        let program = kinds
            .into_iter()
            .map(|kind| matches!(kind, ObjKind::Var | ObjKind::Field))
            .collect();
        PointsTo { pts, program }
    }

    /// The points-to set of `obj` (sorted).
    pub fn points_to(&self, obj: ObjId) -> &[ObjId] {
        self.pts.get(obj.index()).map_or(&[], |set| set)
    }

    /// True when `p` may point to `target`.
    pub fn may_point_to(&self, p: ObjId, target: ObjId) -> bool {
        self.points_to(p).binary_search(&target).is_ok()
    }

    /// Number of objects tracked.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// True when no object is tracked.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Table 3 "pointer variables": program objects (variables and fields)
    /// with a non-empty points-to set.
    pub fn pointer_variables(&self) -> usize {
        self.pts
            .iter()
            .zip(&self.program)
            .filter(|(set, is_prog)| **is_prog && !set.is_empty())
            .count()
    }

    /// Table 3 "points-to relations": the total size of the points-to sets
    /// of all program objects.
    pub fn relations(&self) -> usize {
        self.pts
            .iter()
            .zip(&self.program)
            .filter(|(_, is_prog)| **is_prog)
            .map(|(set, _)| set.len())
            .sum()
    }

    /// Total relations over *all* objects (including temporaries), used for
    /// cross-solver equivalence checks.
    pub fn total_relations(&self) -> usize {
        self.pts.iter().map(|set| set.len()).sum()
    }

    /// Iterates `(object, points-to set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &[ObjId])> {
        self.pts
            .iter()
            .enumerate()
            .map(|(i, set)| (ObjId(i as u32), set.as_slice()))
    }

    /// True when every relation in `self` also holds in `other` (used to
    /// check that a coarser analysis over-approximates a finer one).
    pub fn subsumed_by(&self, other: &PointsTo) -> bool {
        self.iter()
            .all(|(o, set)| set.iter().all(|t| other.may_point_to(o, *t)))
    }
}

impl PointsToQuery for PointsTo {
    fn pointees(&self, obj: ObjId) -> &[ObjId] {
        self.points_to(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_ir::SrcLoc;

    fn objs(kinds: &[ObjKind]) -> Vec<ObjectInfo> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, k)| ObjectInfo::local(format!("o{i}"), *k, "int", SrcLoc::NONE))
            .collect()
    }

    #[test]
    fn metrics() {
        let objects = objs(&[ObjKind::Var, ObjKind::Field, ObjKind::Temp, ObjKind::Var]);
        let pts = vec![
            vec![ObjId(3), ObjId(1), ObjId(3)], // sorted+deduped to [1,3]
            vec![ObjId(0)],
            vec![ObjId(0)], // temp: not counted
            vec![],
        ];
        let p = PointsTo::new(pts, &objects);
        assert_eq!(p.points_to(ObjId(0)), &[ObjId(1), ObjId(3)]);
        assert!(p.may_point_to(ObjId(0), ObjId(1)));
        assert!(!p.may_point_to(ObjId(0), ObjId(2)));
        assert_eq!(p.pointer_variables(), 2); // o0 and o1
        assert_eq!(p.relations(), 3); // 2 + 1 + (temp excluded) + 0
        assert_eq!(p.total_relations(), 4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn shared_sets_stay_shared_and_compare_by_content() {
        let objects = objs(&[ObjKind::Var, ObjKind::Var, ObjKind::Var]);
        let set: LvalSet = Arc::new(vec![ObjId(0), ObjId(2)]);
        let other: LvalSet = Arc::new(vec![ObjId(1)]);
        let shared = PointsTo::from_shared(vec![Arc::clone(&set), set, other], &objects);
        let (a, b, c) = (ObjId(0), ObjId(1), ObjId(2));
        assert!(std::ptr::eq(shared.points_to(a), shared.points_to(b)));
        let copied = PointsTo::new(
            vec![
                vec![ObjId(2), ObjId(0)],
                vec![ObjId(0), ObjId(2)],
                vec![ObjId(1)],
            ],
            &objects,
        );
        assert_eq!(shared, copied);
        assert!(sets_intersect(shared.points_to(a), copied.points_to(b)));
        assert!(!sets_intersect(shared.points_to(a), shared.points_to(c)));
        assert!(!sets_intersect(&[], shared.points_to(a)));
    }

    #[test]
    fn subsumption() {
        let objects = objs(&[ObjKind::Var, ObjKind::Var]);
        let fine = PointsTo::new(vec![vec![ObjId(1)], vec![]], &objects);
        let coarse = PointsTo::new(vec![vec![ObjId(0), ObjId(1)], vec![ObjId(0)]], &objects);
        assert!(fine.subsumed_by(&coarse));
        assert!(!coarse.subsumed_by(&fine));
        assert!(fine.subsumed_by(&fine));
    }

    #[test]
    fn out_of_range_is_empty() {
        let p = PointsTo::new(vec![], &[]);
        assert_eq!(p.points_to(ObjId(99)), &[]);
        assert!(p.is_empty());
    }
}
