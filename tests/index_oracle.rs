//! Differential oracle for the matching index: the linear scan and the
//! bucketed-bitset index must produce identical match sets on arbitrary
//! repositories, queries, and mutation histories — and the network-level
//! index mode must be digest-neutral.
//!
//! The index can move timings and scan counts but never a delivery:
//! where its bounds are the whole rect its verdict is the exact one, and
//! elsewhere every survivor is exactly verified. Both regimes are run
//! here — entries whose projection keeps every attribute, and real
//! entries whose projection drops one. Two ways to get it wrong are told
//! apart below: a bit wrongly cleared is a lost delivery (candidates ⊉
//! matches), a bit left set is a wasted candidate (the examined-slot
//! count does not come back down).

use hypersub_core::index::{BitsetIndex, IndexMode};
use hypersub_core::prelude::*;
use hypersub_core::repo::{StoredSub, ZoneRepo};
use hypersub_tests::test_network;
use proptest::prelude::*;

fn sid(n: u64) -> SubId {
    SubId {
        nid: n,
        iid: (n % 3) as u32,
    }
}

/// A 2-D rect inside [0, 100]^2 with sides up to 40 wide; occasionally
/// degenerate (zero width) because `lo == hi` is legal geometry.
fn arb_rect2() -> impl Strategy<Value = Rect> {
    (0.0f64..100.0, 0.0f64..100.0, 0.0f64..40.0, 0.0f64..40.0).prop_map(|(x, y, wx, wy)| {
        Rect::new(vec![x, y], vec![(x + wx).min(100.0), (y + wy).min(100.0)])
    })
}

/// A 3-D rect: an [`arb_rect2`] with a third side up to 40 wide.
fn arb_rect3() -> impl Strategy<Value = Rect> {
    (arb_rect2(), 0.0f64..100.0, 0.0f64..40.0).prop_map(|(r, z, wz)| {
        let (mut lo, mut hi) = (r.lo().to_vec(), r.hi().to_vec());
        lo.push(z);
        hi.push((z + wz).min(100.0));
        Rect::new(lo, hi)
    })
}

/// One repository mutation: insert/overwrite an id, refresh it with the
/// identical rect, or remove it. Ids are drawn from a small pool so the
/// same id is hit repeatedly (re-insert and remove-then-reinsert paths).
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, Rect, bool),
    Refresh(u64),
    Remove(u64),
}

fn arb_op(rect: impl Strategy<Value = Rect>) -> impl Strategy<Value = Op> {
    (0u64..200, rect, 0u32..10, any::<bool>()).prop_map(|(id, r, kind, real)| match kind {
        0 => Op::Remove(id),
        1 => Op::Refresh(id),
        _ => Op::Insert(id, r, real),
    })
}

/// The subscheme every repository here projects by: the first two
/// attributes, which for a 2-D rect or point is the identity.
const KEPT: [usize; 2] = [0, 1];

fn project(v: &[f64]) -> Vec<f64> {
    KEPT.iter().map(|&a| v[a]).collect()
}

fn stored(r: &Rect, real: bool) -> StoredSub {
    let proj = r.project(&KEPT);
    if real {
        StoredSub::Real {
            full: r.clone(),
            proj,
        }
    } else {
        StoredSub::Surrogate { proj }
    }
}

/// Applies the same mutation history to one repo per index mode, then
/// compares `match_point` across them after every query — matching
/// through the index must be indistinguishable from the linear scan.
/// Rects and query points have `dims` attributes.
fn assert_modes_agree(ops: &[Op], queries: &[Point], dims: usize, queries_between: bool) {
    let modes = [IndexMode::Linear, IndexMode::Bitset];
    let mut repos: Vec<ZoneRepo> = (0..modes.len()).map(|_| ZoneRepo::new(1)).collect();
    let mut last_rect: std::collections::HashMap<u64, (Rect, bool)> = Default::default();
    for (step, op) in ops.iter().enumerate() {
        for repo in &mut repos {
            match op {
                Op::Insert(id, r, real) => {
                    repo.insert(sid(*id), stored(r, *real));
                }
                Op::Refresh(id) => {
                    if let Some((r, real)) = last_rect.get(id) {
                        repo.insert(sid(*id), stored(r, *real));
                    }
                }
                Op::Remove(id) => {
                    repo.remove(&sid(*id));
                }
            }
        }
        if let Op::Insert(id, r, real) = op {
            last_rect.insert(*id, (r.clone(), *real));
        }
        // Query mid-history too: the index is built lazily and mutated
        // incrementally, so agreement must hold at every state it passes
        // through, not just at the end.
        if queries_between && step % 7 == 0 {
            let p = [13, 31, 47][..dims]
                .iter()
                .map(|k| (step * k % 100) as f64)
                .collect();
            compare_all(&mut repos, &modes, &Point(p));
        }
    }
    for p in queries {
        compare_all(&mut repos, &modes, p);
    }
}

fn compare_all(repos: &mut [ZoneRepo], modes: &[IndexMode], full: &Point) {
    let proj = Point(project(&full.0));
    let oracle = repos[0].match_point(full, &proj, modes[0]);
    for (repo, &mode) in repos.iter_mut().zip(modes).skip(1) {
        let got = repo.match_point(full, &proj, mode);
        assert_eq!(
            got, oracle,
            "{mode:?} diverged from linear scan at {:?}",
            full.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The differential oracle: arbitrary insert/refresh/remove
    /// histories long enough to cross the build threshold and a capacity
    /// doubling, queried mid-history and at the end — linear and bitset
    /// agree on every match set.
    #[test]
    fn prop_index_modes_are_match_equivalent(
        ops in prop::collection::vec(arb_op(arb_rect2()), 1..260),
        queries in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 1..12),
    ) {
        let queries: Vec<Point> = queries.iter().map(|&(x, y)| Point(vec![x, y])).collect();
        assert_modes_agree(&ops, &queries, 2, true);
    }

    /// The same over a 3-D full space projected onto its first two
    /// attributes: the index cannot see the third, so the bitset
    /// repository must fall back to the exact check, and a real entry
    /// that misses only on the dropped attribute must not come back.
    #[test]
    fn prop_index_modes_agree_when_the_projection_drops_an_attribute(
        ops in prop::collection::vec(arb_op(arb_rect3()), 1..260),
        queries in prop::collection::vec(
            (0.0f64..=100.0, 0.0f64..=100.0, 0.0f64..=100.0),
            1..12,
        ),
    ) {
        let queries: Vec<Point> = queries.iter().map(|&(x, y, z)| Point(vec![x, y, z])).collect();
        assert_modes_agree(&ops, &queries, 3, true);
    }

    /// Superset-under-mutation: after any history, every entry whose
    /// rect contains the query point appears in the indexed result (the
    /// candidate pass may over-approximate but never drops a match).
    #[test]
    fn prop_hybrid_candidates_superset_under_mutation(
        ops in prop::collection::vec(arb_op(arb_rect2()), 80..200),
        queries in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 1..10),
    ) {
        let mut repo = ZoneRepo::new(1);
        let mut last_rect: std::collections::HashMap<u64, (Rect, bool)> = Default::default();
        for op in &ops {
            match op {
                Op::Insert(id, r, real) => {
                    repo.insert(sid(*id), stored(r, *real));
                    last_rect.insert(*id, (r.clone(), *real));
                }
                Op::Refresh(id) => {
                    if let Some((r, real)) = last_rect.get(id) {
                        repo.insert(sid(*id), stored(r, *real));
                    }
                }
                Op::Remove(id) => {
                    repo.remove(&sid(*id));
                }
            }
        }
        for &(x, y) in &queries {
            let p = Point(vec![x, y]);
            let got = repo.match_point(&p, &p, IndexMode::Bitset);
            let mut expect: Vec<SubId> = repo
                .entries
                .iter()
                .filter(|(_, s)| match s {
                    StoredSub::Real { full, .. } => full.contains_point(&p),
                    StoredSub::Surrogate { proj } => proj.contains_point(&p),
                })
                .map(|(&id, _)| id)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect, "the index dropped or invented a match");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs two full network simulations
        .. ProptestConfig::default()
    })]

    /// Network-level equivalence: the same workload run under every
    /// index mode produces bit-identical run digests (delivery trace +
    /// network counters). Subscriptions are dense enough that zone
    /// repositories cross the build threshold and actually exercise the
    /// indexed paths.
    #[test]
    fn prop_index_mode_is_digest_neutral(
        rects in prop::collection::vec(arb_rect2(), 60..120),
        points in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 2..8),
        nodes in 6usize..14,
        seed in 0u64..500,
    ) {
        let run = |mode: IndexMode| {
            let cfg = SystemConfig::default().with_index_mode(mode);
            let mut net = test_network(nodes, seed, cfg);
            for (i, r) in rects.iter().enumerate() {
                net.subscribe(i % nodes, 0, Subscription::new(r.clone()));
            }
            net.run_to_quiescence();
            for (i, &(x, y)) in points.iter().enumerate() {
                net.publish((i * 7) % nodes, 0, Point(vec![x, y])).unwrap();
            }
            net.run_to_quiescence();
            (net.run_digest(), net.steps())
        };
        let linear = run(IndexMode::Linear);
        prop_assert_eq!(run(IndexMode::Bitset), linear, "the index changed the run");
    }
}

/// A [`BitsetIndex`] beside the plain table it indexes. In two dimensions
/// the index's stored bounds are the whole rect, so its candidates are
/// not merely a superset of the matches but the matches themselves:
/// `check` demands both directions after every step.
struct Mirror {
    ix: BitsetIndex,
    truth: std::collections::BTreeMap<SubId, Rect>,
}

impl Mirror {
    fn build(entries: impl IntoIterator<Item = (u64, Rect)>) -> Self {
        let truth: std::collections::BTreeMap<SubId, Rect> =
            entries.into_iter().map(|(n, r)| (sid(n), r)).collect();
        Mirror {
            ix: BitsetIndex::build(truth.iter()),
            truth,
        }
    }

    fn insert(&mut self, n: u64, r: Rect) {
        self.ix.insert(sid(n), &r);
        self.truth.insert(sid(n), r);
        self.check();
    }

    fn remove(&mut self, n: u64) {
        assert_eq!(
            self.ix.remove(&sid(n)),
            self.truth.remove(&sid(n)).is_some()
        );
        self.check();
    }

    /// Slots the index examines for `p`.
    fn scanned(&self, p: &Point) -> u64 {
        self.ix.for_candidates(p, |_| {})
    }

    fn check(&self) {
        assert_eq!(self.ix.len(), self.truth.len());
        let edge = [-1e9, -1.0, 0.0, 0.5, 33.0, 50.0, 99.5, 100.0, 101.0, 1e9];
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for &x in edge.iter().chain(&odd) {
            for &y in edge.iter().chain(&odd) {
                let p = Point(vec![x, y]);
                let mut got = Vec::new();
                self.ix.for_candidates(&p, |id| got.push(id));
                got.sort_unstable();
                let want: Vec<SubId> = self
                    .truth
                    .iter()
                    .filter(|(_, r)| {
                        r.lo()[0] <= x && x <= r.hi()[0] && r.lo()[1] <= y && y <= r.hi()[1]
                    })
                    .map(|(&id, _)| id)
                    .collect();
                assert_eq!(got, want, "candidates at ({x}, {y})");
            }
        }
    }
}

fn square(x: f64, y: f64, w: f64) -> Rect {
    Rect::new(vec![x, y], vec![x + w, y + w])
}

/// (a) A history that outgrows the rows twice: every step on either side
/// of a re-bucketing answers like the table.
#[test]
fn history_across_capacity_doublings() {
    let mut m = Mirror::build((0..60).map(|i| (i, square(i as f64, (i * 7 % 60) as f64, 5.0))));
    for i in 60..300 {
        // Every third rect lies outside the box the index was built over.
        let far = if i % 3 == 0 { 500.0 } else { 0.0 };
        m.insert(i, square((i % 90) as f64 + far, (i * 11 % 90) as f64, 8.0));
        if i % 5 == 0 {
            m.remove(i - 40);
        }
    }
    assert!(
        m.ix.len() > 128,
        "64 built slots doubled at the 65th and 129th"
    );
}

/// (b) An id re-inserted with a changed rect and then removed leaves no
/// bit behind at either place it has been.
#[test]
fn moved_then_removed_id_leaves_no_bit() {
    let mut m = Mirror::build((0..100).map(|i| {
        (
            i,
            square((i % 10) as f64 * 10.0, (i / 10) as f64 * 10.0, 4.0),
        )
    }));
    let (old, new) = (Point(vec![12.0, 12.0]), Point(vec![72.0, 52.0]));
    let base = (m.scanned(&old), m.scanned(&new));
    m.insert(900, square(11.0, 11.0, 2.0));
    assert_eq!((m.scanned(&old), m.scanned(&new)), (base.0 + 1, base.1));
    m.insert(900, square(71.0, 51.0, 2.0));
    assert_eq!((m.scanned(&old), m.scanned(&new)), (base.0, base.1 + 1));
    m.remove(900);
    assert_eq!((m.scanned(&old), m.scanned(&new)), base);
}

/// (c) A freed slot is taken by the next insert, and its new tenant is
/// found where *it* lives, not where the old one did.
#[test]
fn freed_slot_is_reused() {
    let mut m = Mirror::build((0..64).map(|i| (i, square(i as f64, i as f64, 1.0))));
    // Warm the free list, then cycle: the footprint must hold still.
    m.remove(0);
    m.insert(1000, square(90.0, 5.0, 3.0));
    let bytes = m.ix.bytes();
    for i in 1..64 {
        m.remove(i);
        m.insert(1000 + i, square((100 - i) as f64, (i * 3 % 50) as f64, 3.0));
    }
    assert_eq!(m.ix.bytes(), bytes, "64 inserts into 64 freed slots");
}

/// (d) Rects outside the build-time box, a zero-width axis, and
/// hand-built rects with NaN and infinite bounds (`Rect::new` refuses
/// them; the index must still not panic or lose a match).
#[test]
fn clamped_degenerate_and_nonfinite_geometry() {
    // Axis 1 has zero width at build time.
    let mut m = Mirror::build((0..70).map(|i| {
        (
            i,
            Rect::new(vec![i as f64, 50.0], vec![i as f64 + 2.0, 50.0]),
        )
    }));
    m.insert(100, square(-1e6, -1e6, 10.0));
    m.insert(101, square(1e6, 40.0, 20.0));
    m.insert(102, Rect::new(vec![-1e9, -1e9], vec![1e9, 1e9]));
    let raw = |lo: [f64; 2], hi: [f64; 2]| Rect::unchecked(lo.to_vec(), hi.to_vec());
    let inf = f64::INFINITY;
    m.insert(103, raw([-inf, -inf], [inf, inf]));
    m.insert(104, raw([f64::NAN, 0.0], [f64::NAN, 100.0]));
    m.insert(105, raw([0.0, f64::NAN], [100.0, 60.0]));
    m.insert(106, raw([10.0, 0.0], [inf, 100.0]));
    for n in [104, 102, 105, 103, 106, 100, 101] {
        m.remove(n);
    }
}
