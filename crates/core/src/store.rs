//! The store of lval sets and the one join that builds them (paper §5,
//! enhancement three: "many lval sets are identical").
//!
//! Every set the solver writes, in a pass of the fixpoint or in the sweep,
//! is built by [`LvalStore::join`] and entered by [`enter`]: a pass enters
//! it into its epoch's [`LvalStore`], the sweep into its shards. Within
//! one store equal sets are one allocation, so pointer equality is set
//! equality, and a join never copies, sorts or hashes an operand, only what
//! the result adds.

use crate::solution::LvalSet;
use cla_ir::ObjId;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ptr;
use std::sync::Arc;

/// What the set algebra did, cumulative over a solve: carried as deltas by
/// the `solve.pass` / `solve.seal` / `solve.extract` spans and mirrored in
/// the `cla_solve_union_*_total` counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UnionLedger {
    /// Joins.
    pub(crate) unions: u64,
    /// Answers that were a set already held: an entered set the store had,
    /// or an operand handed out as it stands ([`SolveStats::sets_shared`]).
    ///
    /// [`SolveStats::sets_shared`]: crate::SolveStats::sets_shared
    pub(crate) shared: u64,
    /// Elements of the operands other than the largest, tested against it.
    pub(crate) scanned: u64,
    /// Elements of the sets the joins wrote.
    pub(crate) written: u64,
    /// Sets newly entered into a store.
    pub(crate) distinct: u64,
}

impl std::ops::AddAssign for UnionLedger {
    fn add_assign(&mut self, other: UnionLedger) {
        self.unions += other.unions;
        self.shared += other.shared;
        self.scanned += other.scanned;
        self.written += other.written;
        self.distinct += other.distinct;
    }
}

impl UnionLedger {
    /// Records what happened since the ledger read `was`, on `sp` and in
    /// the registry's `cla_solve_union_{calls,shared,scanned,written,distinct}_total`.
    pub(crate) fn publish_since(self, was: UnionLedger, sp: &mut cla_obs::Span<'_>) {
        for (key, series, delta) in [
            ("unions", "calls", self.unions - was.unions),
            ("unions_shared", "shared", self.shared - was.shared),
            ("elements_scanned", "scanned", self.scanned - was.scanned),
            ("elements_written", "written", self.written - was.written),
            ("sets_distinct", "distinct", self.distinct - was.distinct),
        ] {
            sp.set(key, delta);
            let series = format!("cla_solve_union_{series}_total");
            cla_obs::global().counter(&series).add(delta);
        }
    }
}

/// The sets of one store by content key, each with its holder: the sweep's
/// component that entered it. The passes hand the set itself out and hold
/// it by no one (`u32::MAX`).
pub(crate) type Sets = HashMap<u64, (LvalSet, u32)>;

/// What a join comes to.
pub(crate) enum Joined<'p, P> {
    /// A set none of the operands is: sorted, deduplicated, non-empty, to
    /// be entered.
    Written(Vec<ObjId>),
    /// The largest part, which is the answer as it stands.
    Operand(&'p P),
    /// Every operand was empty.
    Empty,
}

/// The hash-consed store of one pass epoch, and the scratch and ledger of
/// the joins that feed it.
///
/// Every non-empty set the passes hand out during one epoch is entered here
/// exactly once, or is an operand that was; so within an epoch equal sets
/// are one allocation.
#[derive(Debug, Default)]
pub struct LvalStore {
    /// The one empty set.
    pub(crate) empty: LvalSet,
    /// The sets entered this epoch.
    sets: Sets,
    /// Scratch: the elements a join adds to its largest part.
    extras: Vec<ObjId>,
    /// Scratch: `marks[id] == stamp` says `id` is in the running join.
    marks: Vec<u32>,
    stamp: u32,
    pub(crate) ledger: UnionLedger,
}

impl LvalStore {
    /// Forgets the sets of the epoch that ends (those handed out live on).
    pub(crate) fn clear(&mut self) {
        self.sets.clear();
    }

    /// The union of `parts` — sets this store handed out — and the unsorted,
    /// possibly repeating `raw` lvals, as the one shared set of that
    /// content: [`LvalStore::join`], then the written set entered or the
    /// operand handed out. Reorders `parts`.
    pub fn union(&mut self, parts: &mut [LvalSet], raw: &[ObjId]) -> LvalSet {
        match self.join(parts, raw) {
            Joined::Written(set) => {
                let key = content_key(&set);
                let ((held, _), _) = enter(&mut self.sets, key, set, u32::MAX, &mut self.ledger);
                Arc::clone(held)
            }
            Joined::Operand(big) => {
                self.ledger.shared += 1;
                Arc::clone(big)
            }
            Joined::Empty => Arc::clone(&self.empty),
        }
    }

    /// Joins `parts`, owned or borrowed, and the unsorted, possibly
    /// repeating `raw` lvals. Reorders `parts`.
    ///
    /// The largest part is the one of highest [`rank`] (length, then
    /// content), so which one it is depends on neither the order of the
    /// parts nor their addresses. It is the answer as it stands when
    /// nothing else contributes, and is written anew, once, only when
    /// something does. Counts the join, not what the caller shares.
    pub(crate) fn join<'p, P: Borrow<Vec<ObjId>>>(
        &mut self,
        parts: &'p mut [P],
        raw: &[ObjId],
    ) -> Joined<'p, P> {
        parts.sort_unstable_by_key(|p| ptr::from_ref::<Vec<ObjId>>(p.borrow()));
        let parts = &*parts;
        let big = (parts.iter()).max_by(|a, b| rank((*a).borrow(), (*b).borrow()));
        let lvals = big.map_or(&[][..], |b| b.borrow());
        match (self.union_sorted(lvals, parts, raw), big) {
            (Some(written), _) => Joined::Written(written),
            (None, Some(big)) if !lvals.is_empty() => Joined::Operand(big),
            (None, _) => Joined::Empty,
        }
    }

    /// `big ∪ parts ∪ raw` over sorted, deduplicated `big`, or `None` when
    /// that is `big` itself. One set is one address: `parts` come ordered
    /// by it, so repeats are neighbours, and `big` may be among them; `raw`
    /// may repeat. Work is bounded by the operands that are not `big`, by
    /// `big` only once they outweigh a sixteenth of it, and by the result
    /// when one is written.
    fn union_sorted<P: Borrow<Vec<ObjId>>>(
        &mut self,
        big: &[ObjId],
        parts: &[P],
        raw: &[ObjId],
    ) -> Option<Vec<ObjId>> {
        self.ledger.unions += 1;
        let smaller = parts.iter().enumerate().filter_map(|(i, p)| {
            let p: &Vec<ObjId> = p.borrow();
            let repeat = i > 0 && ptr::eq(p, parts[i - 1].borrow());
            (!repeat && p.as_ptr() != big.as_ptr()).then_some(p.as_slice())
        });
        // Nothing but `big`: no id to test, and the answer is `big`.
        let top = smaller
            .clone()
            .filter_map(<[ObjId]>::last)
            .chain(raw)
            .max()?;
        let scanned = raw.len() + smaller.clone().map(<[ObjId]>::len).sum::<usize>();
        self.ledger.scanned += scanned as u64;
        if self.marks.len() <= top.index() {
            self.marks.resize(top.index() + 1, 0);
        }
        // A fresh stamp unmarks every id at once (a wrap would take 2^32
        // joins). A few lvals probe a large `big`; more and it is marked.
        self.stamp += 1;
        let (marks, stamp) = (&mut self.marks[..], self.stamp);
        let probe = scanned * 16 < big.len();
        if !probe {
            for b in big.iter().take_while(|&b| b <= top) {
                marks[b.index()] = stamp;
            }
        }
        self.extras.clear();
        for &e in smaller.flatten().chain(raw) {
            let mark = &mut marks[e.index()];
            if *mark != stamp && !(probe && big.binary_search(&e).is_ok()) {
                *mark = stamp;
                self.extras.push(e);
            }
        }
        if self.extras.is_empty() {
            return None;
        }
        self.extras.sort_unstable();
        // One linear write: `big` with the extras spliced in.
        let mut out = Vec::with_capacity(big.len() + self.extras.len());
        let mut rest = big;
        for &e in &self.extras {
            let (below, above) = rest.split_at(rest.partition_point(|&b| b < e));
            out.extend_from_slice(below);
            out.push(e);
            rest = above;
        }
        out.extend_from_slice(rest);
        self.ledger.written += out.len() as u64;
        Some(out)
    }
}

/// How `a` ranks against `b` for a join's largest part: by length, then by
/// content. Distinct operands of one length differ in content within a
/// store, and whichever of two such operands were largest, the result and
/// every ledger count would come out the same.
fn rank(a: &[ObjId], b: &[ObjId]) -> Ordering {
    let same = a.as_ptr() == b.as_ptr();
    (a.len().cmp(&b.len())).then_with(|| if same { Ordering::Equal } else { a.cmp(b) })
}

/// A sorted set's key in a store: one word-at-a-time pass over a set that
/// was just written.
pub(crate) fn content_key(set: &[ObjId]) -> u64 {
    let mix =
        |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let pair = |p: &[ObjId]| u64::from(p[0].0) << 32 | u64::from(p[p.len() - 1].0);
    // Four independent lanes, two ids a word, so the multiplies overlap.
    let mut lanes = [set.len() as u64, 1, 2, 3];
    let mut blocks = set.chunks_exact(8);
    for block in &mut blocks {
        for (lane, p) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            *lane = mix(*lane, pair(p));
        }
    }
    let tail = blocks.remainder().chunks(2);
    let lane = tail.fold(lanes[0], |hash, p| mix(hash, pair(p)));
    lanes[1..].iter().fold(lane, |hash, &l| mix(hash, l))
}

/// Enters a set [`LvalStore::join`] wrote — sorted, deduplicated,
/// non-empty, exactly sized, keyed by [`content_key`] — into `sets`: the
/// entry holding that content, and whether it is `set`'s, now held by
/// `holder`. Counts it in `ledger` as distinct or shared. Equality is
/// confirmed on the content and colliding sets chain through the following
/// keys, so what is shared never depends on the hash function.
pub(crate) fn enter<'s>(
    sets: &'s mut Sets,
    mut key: u64,
    set: Vec<ObjId>,
    holder: u32,
    ledger: &mut UnionLedger,
) -> (&'s (LvalSet, u32), bool) {
    while sets.get(&key).is_some_and(|(held, _)| **held != set) {
        key = key.wrapping_add(1);
    }
    match sets.entry(key) {
        Entry::Occupied(held) => {
            ledger.shared += 1;
            (held.into_mut(), false)
        }
        Entry::Vacant(free) => {
            ledger.distinct += 1;
            (free.insert((Arc::new(set), holder)), true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(ids: impl IntoIterator<Item = u32>) -> Vec<ObjId> {
        ids.into_iter().map(ObjId).collect()
    }

    /// A set as the store hands it out: entered through a raw-only union.
    fn held(store: &mut LvalStore, set: impl IntoIterator<Item = u32>) -> LvalSet {
        store.union(&mut [], &ids(set))
    }

    #[test]
    fn union_returns_a_part_that_is_the_answer() {
        let mut store = LvalStore::default();
        let big = held(&mut store, (0..400).step_by(2));
        let sub = held(&mut store, (0..400).step_by(8));
        let before = store.ledger;

        // One part, and the same part many times over: itself.
        assert!(Arc::ptr_eq(&store.union(&mut [big.clone()], &[]), &big));
        let mut repeated = vec![big.clone(); 5];
        assert!(Arc::ptr_eq(&store.union(&mut repeated, &[]), &big));
        assert_eq!(
            store.ledger.scanned, 250,
            "only the two raw-only unions scan"
        );
        // Subset parts and raw lvals it already holds, in either regime:
        // 50 lvals mark the 200, three probe them.
        let mut parts = [sub.clone(), big.clone(), sub.clone()];
        assert!(Arc::ptr_eq(&store.union(&mut parts, &ids([6, 2, 6])), &big));
        assert!(Arc::ptr_eq(
            &store.union(&mut [big.clone()], &ids([398, 0, 0])),
            &big
        ));
        // Each of the four counted as shared, and nothing was written.
        assert_eq!(
            (store.ledger.shared, store.ledger.distinct),
            (before.shared + 4, before.distinct)
        );
        assert_eq!(store.ledger.shared, 4);
    }

    #[test]
    fn union_writes_what_is_new_once_and_shares_it_by_value() {
        let mut store = LvalStore::default();
        let evens = held(&mut store, (0..100).step_by(2));
        let odds = held(&mut store, (1..100).step_by(2));
        let all = store.union(&mut [evens.clone(), odds.clone()], &[]);
        assert_eq!(**all, ids(0..100));
        assert_eq!(all.capacity(), 100);
        // The same content by another route — a part, a probe's worth of
        // raw lvals with repeats, unsorted — is the same allocation.
        let low = held(&mut store, 0..97);
        let again = store.union(&mut [low], &ids([99, 97, 98, 97, 3]));
        assert!(Arc::ptr_eq(&again, &all));
        // Raw only: sorted, deduplicated, and found again by value.
        let raw = store.union(&mut [], &ids([9, 3, 9, 1]));
        assert_eq!(**raw, ids([1, 3, 9]));
        assert!(Arc::ptr_eq(&held(&mut store, [3, 1, 9]), &raw));
        // An id above everything marked so far grows the scratch.
        let high = store.union(&mut [raw.clone()], &ids([70_000]));
        assert_eq!(**high, ids([1, 3, 9, 70_000]));
    }

    #[test]
    fn union_of_nothing_is_the_one_empty_set() {
        let mut store = LvalStore::default();
        let empty = store.union(&mut [], &[]);
        assert!(empty.is_empty());
        assert!(Arc::ptr_eq(&empty, &store.union(&mut [empty.clone()], &[])));
        assert_eq!((store.ledger.shared, store.ledger.distinct), (0, 0));
        // Empty parts beside a real one change nothing.
        let one = held(&mut store, [5]);
        assert!(Arc::ptr_eq(
            &store.union(&mut [empty, one.clone()], &[]),
            &one
        ));
    }

    #[test]
    fn colliding_hashes_chain_and_still_share() {
        let (mut sets, mut ledger) = (Sets::new(), UnionLedger::default());
        let mut enter = |key, set: Vec<ObjId>| {
            let ((held, _), new) = enter(&mut sets, key, set, u32::MAX, &mut ledger);
            (Arc::clone(held), new)
        };
        let (a, _) = enter(7, ids([1, 2]));
        let (b, _) = enter(7, ids([3]));
        let (c, _) = enter(8, ids([4]));
        assert_eq!([&*a, &*b, &*c], [&ids([1, 2]), &ids([3]), &ids([4])]);
        for (key, set, held) in [(7, ids([3]), &b), (7, ids([1, 2]), &a), (8, ids([4]), &c)] {
            let (got, new) = enter(key, set);
            assert!(Arc::ptr_eq(&got, held) && !new);
        }
        assert_eq!((ledger.shared, ledger.distinct), (3, 3));
    }

    /// Every ordering of `items`.
    fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first.clone());
                all.push(tail);
            }
        }
        all
    }

    /// What one join of `parts` and `raw` comes to on a fresh store: the
    /// content, the operand answered as it stands, and the ledger.
    fn join_once(parts: &[LvalSet], raw: &[ObjId]) -> (Vec<ObjId>, Option<LvalSet>, UnionLedger) {
        let mut store = LvalStore::default();
        let mut parts = parts.to_vec();
        let (content, operand) = match store.join(&mut parts, raw) {
            Joined::Written(set) => (set, None),
            Joined::Operand(big) => (big.to_vec(), Some(Arc::clone(big))),
            Joined::Empty => (Vec::new(), None),
        };
        (content, operand, store.ledger)
    }

    /// Whatever the order of the operands, a join writes the same content,
    /// counts the same, and answers with the same operand, a tie of two
    /// distinct parts of one length included.
    #[test]
    fn join_does_not_depend_on_operand_order() {
        let set = |ids: Vec<ObjId>| Arc::new(ids);
        let evens = set(ids((0..40).step_by(2)));
        let odds = set(ids((1..40).step_by(2)));
        let inside = set(ids((0..40).step_by(10)));
        let empty = set(Vec::new());
        // A repeated part, an empty one, and raw lvals that repeat and fall
        // inside the largest part.
        let cases = [
            // Equal lengths, distinct content: something is new.
            (
                vec![evens.clone(), odds, evens.clone(), empty.clone()],
                ids([4, 7, 4, 38, 7]),
                true,
            ),
            // One largest part that holds everything: nothing is new.
            (
                vec![evens.clone(), inside, evens.clone(), empty],
                ids([4, 38, 4, 0]),
                false,
            ),
        ];
        for (parts, raw, new) in cases {
            let raws = [raw.clone(), raw.iter().rev().copied().collect()];
            let first = join_once(&parts, &raws[0]);
            for order in permutations(&parts) {
                for raw in &raws {
                    let got = join_once(&order, raw);
                    assert_eq!((&got.0, got.2), (&first.0, first.2), "{order:?} {raw:?}");
                    match (&got.1, &first.1) {
                        (Some(got), Some(first)) => assert!(Arc::ptr_eq(got, first)),
                        (None, None) => assert!(new),
                        _ => panic!("{order:?}: one order answered with an operand"),
                    }
                }
            }
            if new {
                assert_eq!(first.0, ids(0..40));
                assert_eq!((first.2.scanned, first.2.written), (20 + 5, 40));
            } else {
                assert!(Arc::ptr_eq(first.1.as_ref().unwrap(), &evens));
                assert_eq!((first.2.scanned, first.2.written), (4 + 4, 0));
            }
        }
    }
}
