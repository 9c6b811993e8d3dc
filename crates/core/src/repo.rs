//! Per-zone subscription repositories on surrogate nodes (§3.3).
//!
//! "Each node might serve as surrogate nodes for more than one content
//! zone. In this case, content zones are managed individually, with the
//! node regarded as a few virtual nodes. Each content zone cz maintains a
//! summary filter sf which is defined as the smallest hypercuboid that can
//! exactly cover all subscriptions registered in cz."
//!
//! A repository stores two kinds of entries:
//! * **Real** subscriptions, installed by Algorithm 2 — these carry the
//!   full-space rect (for exact matching) and its subscheme projection
//!   (for zone geometry and the matching index; when the projection keeps
//!   every attribute it is the full rect with its axes permuted, so an
//!   index over all of its dimensions tests it exactly — see
//!   [`ZoneRepo::match_into`]);
//! * **Surrogate** subscriptions, pushed down from the parent zone by
//!   Algorithm 3 — these carry only a projected rect, and their [`SubId`]
//!   points at the parent zone's repository, forming the chain events
//!   climb during delivery.

use crate::index::{BitsetIndex, IndexDiag, IndexMode, INDEX_THRESHOLD};
use crate::model::{SchemeId, SubId, SubschemeId};
use crate::table::SortedTable;
use hypersub_lph::{Point, Rect, ZoneCode};
use hypersub_simnet::FxHashMap;
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};
use std::ops::Index;

/// Identifies one zone repository: `(scheme, subscheme, zone)`.
pub type RepoKey = (SchemeId, SubschemeId, ZoneCode);

/// One stored subscription.
#[derive(Debug, Clone)]
pub enum StoredSub {
    /// A subscriber's real subscription.
    Real {
        /// Full-space hypercuboid (exact matching).
        full: Rect,
        /// Projection onto the subscheme space (zone geometry and the
        /// matching index).
        proj: Rect,
    },
    /// A summary-filter subdivision registered by the parent zone (or by a
    /// migration target summarizing subscriptions it accepted).
    Surrogate {
        /// Projected covering rect.
        proj: Rect,
    },
}
codec!(enum StoredSub as "stored sub tag" {
    0 => Real { full, proj },
    1 => Surrogate { proj },
});

impl StoredSub {
    /// The projected rect (present for both kinds).
    pub fn proj(&self) -> &Rect {
        match self {
            StoredSub::Real { proj, .. } => proj,
            StoredSub::Surrogate { proj } => proj,
        }
    }

    /// Is this a real subscription?
    pub fn is_real(&self) -> bool {
        matches!(self, StoredSub::Real { .. })
    }
}

/// A repository's entries keyed by subscription id: none or one held in
/// place, a hash table from the second on. Most repositories are links of
/// a surrogate chain holding one entry, and a one-entry table still
/// allocates four slots. Which form holds the entries follows from their
/// count alone, and every reader either looks up a key or sorts, so the
/// form is never observable.
#[derive(Debug, Clone, Default)]
pub struct RepoEntries(Slots);

#[derive(Debug, Clone, Default)]
enum Slots {
    #[default]
    Empty,
    One(SubId, StoredSub),
    /// Two entries or more.
    Many(FxHashMap<SubId, StoredSub>),
}

impl RepoEntries {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.0 {
            Slots::Empty => 0,
            Slots::One(..) => 1,
            Slots::Many(m) => m.len(),
        }
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Slots::Empty)
    }

    /// The entry stored under `id`.
    pub fn get(&self, id: &SubId) -> Option<&StoredSub> {
        match &self.0 {
            Slots::One(k, v) if k == id => Some(v),
            Slots::Many(m) => m.get(id),
            _ => None,
        }
    }

    /// Whether an entry is stored under `id`.
    pub fn contains_key(&self, id: &SubId) -> bool {
        self.get(id).is_some()
    }

    /// The projected rect of the entry, when there is exactly one.
    fn sole_proj(&self) -> Option<&Rect> {
        match &self.0 {
            Slots::One(_, v) => Some(v.proj()),
            _ => None,
        }
    }

    /// Stores `sub` under `id`, returning the entry it replaced.
    pub fn insert(&mut self, id: SubId, sub: StoredSub) -> Option<StoredSub> {
        match &mut self.0 {
            Slots::Empty => {
                self.0 = Slots::One(id, sub);
                None
            }
            Slots::One(k, v) if *k == id => Some(std::mem::replace(v, sub)),
            Slots::One(..) => {
                let Slots::One(k, v) = std::mem::take(&mut self.0) else {
                    unreachable!("matched one entry")
                };
                let mut m = FxHashMap::default();
                m.insert(k, v);
                m.insert(id, sub);
                self.0 = Slots::Many(m);
                None
            }
            Slots::Many(m) => m.insert(id, sub),
        }
    }

    /// Removes and returns the entry stored under `id`.
    pub fn remove(&mut self, id: &SubId) -> Option<StoredSub> {
        match &mut self.0 {
            Slots::One(k, _) if k == id => match std::mem::take(&mut self.0) {
                Slots::One(_, v) => Some(v),
                _ => unreachable!("matched one entry"),
            },
            Slots::Many(m) => {
                let removed = m.remove(id);
                if m.len() == 1 {
                    *self = Self::from(std::mem::take(m));
                }
                removed
            }
            _ => None,
        }
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&SubId, &StoredSub)> {
        let (one, many) = match &self.0 {
            Slots::Empty => (None, None),
            Slots::One(k, v) => (Some((k, v)), None),
            Slots::Many(m) => (None, Some(m.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// Every stored subscription, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &StoredSub> {
        self.iter().map(|(_, v)| v)
    }

    /// Every entry, writable, in no particular order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (&SubId, &mut StoredSub)> {
        let (one, many) = match &mut self.0 {
            Slots::Empty => (None, None),
            Slots::One(k, v) => (Some((&*k, v)), None),
            Slots::Many(m) => (None, Some(m.iter_mut())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl From<FxHashMap<SubId, StoredSub>> for RepoEntries {
    fn from(m: FxHashMap<SubId, StoredSub>) -> Self {
        if m.len() >= 2 {
            return Self(Slots::Many(m));
        }
        Self(match m.into_iter().next() {
            Some((k, v)) => Slots::One(k, v),
            None => Slots::Empty,
        })
    }
}

impl Index<&SubId> for RepoEntries {
    type Output = StoredSub;

    fn index(&self, id: &SubId) -> &StoredSub {
        self.get(id).expect("no entry stored under this id")
    }
}

// The count, then the entries sorted by key: a map's bytes, whichever
// form holds them.
impl Encode for RepoEntries {
    fn encode(&self, w: &mut Writer) {
        match &self.0 {
            Slots::Many(m) => m.encode(w),
            _ => {
                w.put_u64(self.len() as u64);
                for (k, v) in self.iter() {
                    k.encode(w);
                    v.encode(w);
                }
            }
        }
    }
}

impl Decode for RepoEntries {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        FxHashMap::decode(r).map(Self::from)
    }
}

/// Whether two rects are the same bit for bit: `==` would take `-0.0`
/// for `0.0`, and the bytes a snapshot writes tell them apart.
pub(crate) fn same_bits(a: &Rect, b: &Rect) -> bool {
    fn bits(r: &Rect) -> impl Iterator<Item = u64> + '_ {
        r.lo().iter().chain(r.hi()).map(|x| x.to_bits())
    }
    a.dims() == b.dims() && bits(a).eq(bits(b))
}

/// A built matching index and what its queries have examined.
#[derive(Debug, Clone)]
struct Indexed {
    ix: BitsetIndex,
    /// Cumulative candidates examined by indexed `match_into` calls
    /// (diagnostics; not snapshot state).
    scanned: u64,
}

/// A zone repository on a surrogate node.
#[derive(Debug, Clone)]
pub struct ZoneRepo {
    /// This repository's local internal id — surrogate subscriptions in
    /// child zones point back here as `(node_id, iid)`.
    pub iid: u32,
    /// Stored entries keyed by subscription id. Written through
    /// [`Self::insert`] and [`Self::remove`], which keep the summary.
    pub entries: RepoEntries,
    /// The summary filter, unless the one entry states it: see
    /// [`Self::summary`].
    summary: Option<Rect>,
    /// What we last registered at each child zone (the "changed
    /// subdivision" dedup of Algorithm 3). The children are those of one
    /// zone, so there are few of them, and four chain links in five on a
    /// routing workload push to none.
    pub pushed: SortedTable<ZoneCode, Rect>,
    /// Local matching index (§3.3), built once the repository is large
    /// and kept in step with `entries` from then on. Boxed: most
    /// repositories (every link of a surrogate chain) never build one,
    /// and the `repos` table pays for this field in each of them.
    index: Option<Box<Indexed>>,
}

impl ZoneRepo {
    /// An empty repository with the given internal id.
    pub fn new(iid: u32) -> Self {
        Self {
            iid,
            entries: RepoEntries::default(),
            summary: None,
            pushed: SortedTable::default(),
            index: None,
        }
    }

    /// The summary filter: the smallest projected hypercuboid covering
    /// every entry inserted so far. It grows with inserts and is not
    /// shrunk by removes; `None` until the first insert. Most
    /// repositories are chain links holding one entry whose rect *is*
    /// the summary, so it is stored only when it says something the
    /// entries do not.
    pub fn summary(&self) -> Option<&Rect> {
        self.summary.as_ref().or_else(|| self.entries.sole_proj())
    }

    /// Holds `summary`, unless the one entry states it bit for bit.
    fn set_summary(&mut self, summary: Rect) {
        let stated = self
            .entries
            .sole_proj()
            .is_some_and(|p| same_bits(p, &summary));
        self.summary = (!stated).then_some(summary);
    }

    /// Inserts or updates an entry; returns `true` when the summary filter
    /// grew (meaning subdivisions may need re-pushing).
    ///
    /// Re-inserting an id whose projected rect is unchanged (soft-state
    /// lease refreshes, replica replays) leaves the index alone.
    pub fn insert(&mut self, id: SubId, sub: StoredSub) -> bool {
        let proj = sub.proj().clone();
        // Taken out before the insert: the entry it replaces may be what
        // states the summary.
        let before = self
            .summary
            .take()
            .or_else(|| self.entries.sole_proj().cloned());
        let prior = self.entries.insert(id, sub);
        if prior.is_none_or(|p| p.proj() != &proj) {
            if let Some(ix) = self.index.as_mut() {
                ix.ix.insert(id, &proj);
            }
        }
        let (summary, grew) = match before {
            None => (proj, true),
            Some(s) => {
                let grown = s.cover(&proj);
                if grown != s {
                    (grown, true)
                } else {
                    (s, false)
                }
            }
        };
        self.set_summary(summary);
        grew
    }

    /// Removes an entry (migration); the summary is deliberately *not*
    /// shrunk — the migration target's surrogate subscription covers the
    /// removed entries, so the old summary stays valid.
    pub fn remove(&mut self, id: &SubId) -> Option<StoredSub> {
        let removed = self.entries.remove(id)?;
        if let Some(ix) = self.index.as_mut() {
            ix.ix.remove(id);
        }
        match self.summary.take() {
            Some(s) => self.set_summary(s),
            // The removed entry was the only one, and it stated the summary.
            None => self.summary = Some(removed.proj().clone()),
        }
        Some(removed)
    }

    fn check_entry(sub: &StoredSub, full: &Point, proj: &Point) -> bool {
        match sub {
            StoredSub::Real { full: f, .. } => f.contains_point(full),
            StoredSub::Surrogate { proj: p } => p.contains_point(proj),
        }
    }

    /// All entries matching an event, written into `out` (cleared first)
    /// sorted by SubId for deterministic message construction: real
    /// entries match against the full point, surrogates against the
    /// projection. Large repositories consult the index unless `mode` is
    /// `Linear`, and the index never changes results — the differential
    /// oracle proptest pins this.
    ///
    /// When the index covers every projected dimension and the projection
    /// keeps every attribute, its bounds test is the exact check and a
    /// candidate is taken as it comes: a surrogate's exact check *is*
    /// `proj ∈ proj_rect`, and a real entry's projected rect is its full
    /// rect with the axes permuted (a subscheme names each attribute at
    /// most once), so `full ∈ full_rect ⇔ proj ∈ proj_rect`. That rests
    /// on a real entry's `proj` being the projection of its `full` under
    /// the subscheme `proj` was projected by, which `subscribe`
    /// guarantees. Any other repository verifies each candidate against
    /// `entries`.
    pub fn match_into(
        &mut self,
        full: &Point,
        proj: &Point,
        mode: IndexMode,
        out: &mut Vec<SubId>,
    ) {
        out.clear();
        if self.index.is_none()
            && mode == IndexMode::Bitset
            && self.entries.len() >= INDEX_THRESHOLD
        {
            let entries = self.entries.iter().map(|(id, s)| (id, s.proj()));
            self.index = Some(Box::new(Indexed {
                ix: BitsetIndex::build(entries),
                scanned: 0,
            }));
        }
        let entries = &self.entries;
        match self.index.as_deref_mut() {
            Some(Indexed { ix, scanned })
                if ix.dims() == proj.0.len() && proj.0.len() == full.0.len() =>
            {
                *scanned += ix.for_candidates(proj, |id| out.push(id));
            }
            Some(Indexed { ix, scanned }) => {
                *scanned += ix.for_candidates(proj, |id| {
                    if entries
                        .get(&id)
                        .is_some_and(|s| Self::check_entry(s, full, proj))
                    {
                        out.push(id);
                    }
                });
            }
            None => out.extend(
                entries
                    .iter()
                    .filter(|(_, sub)| Self::check_entry(sub, full, proj))
                    .map(|(&id, _)| id),
            ),
        }
        out.sort_unstable();
    }

    /// [`Self::match_into`] a fresh `Vec`.
    pub fn match_point(&mut self, full: &Point, proj: &Point, mode: IndexMode) -> Vec<SubId> {
        let mut out = Vec::new();
        self.match_into(full, proj, mode, &mut out);
        out
    }

    /// Number of *real* subscriptions stored — the node-load unit of §4
    /// and Figure 4.
    pub fn real_count(&self) -> usize {
        self.entries.values().filter(|s| s.is_real()).count()
    }

    /// Index diagnostics for this repository: occupancy (zero when no
    /// index is built) plus the cumulative candidate-scan count.
    pub fn index_diag(&self) -> IndexDiag {
        match &self.index {
            Some(ix) => IndexDiag {
                entries: self.entries.len() as u64,
                bytes: ix.ix.bytes(),
                candidates_scanned: ix.scanned,
                ..IndexDiag::default()
            },
            None => IndexDiag::default(),
        }
    }
}

/// Subscriptions accepted from an overloaded node during migration (§4).
/// The accepting node matches events against these when the origin's
/// surrogate subscription fires.
#[derive(Debug, Clone)]
pub struct HostedRepo {
    /// This hosted repo's local internal id.
    pub iid: u32,
    /// Simulator index of the node the subscriptions came from.
    pub origin: usize,
    /// The zone repository they were migrated out of.
    pub source: RepoKey,
    /// Migrated subscriptions: full-space rects keyed by SubId.
    pub entries: FxHashMap<SubId, Rect>,
    /// Forwarding covers for entries that migrated *onward* from here:
    /// the SubId names the next acceptor's hosted repo, the rect is the
    /// full-space cover of what moved (conservative — spurious forwards
    /// are filtered by exact matching downstream).
    pub forwards: FxHashMap<SubId, Rect>,
}
codec!(struct HostedRepo { iid, origin, source, entries, forwards });

impl HostedRepo {
    /// A fresh hosted repo.
    pub fn new(iid: u32, origin: usize, source: RepoKey) -> Self {
        Self {
            iid,
            origin,
            source,
            entries: FxHashMap::default(),
            forwards: FxHashMap::default(),
        }
    }

    /// Matching against the full event point: exact local entries plus
    /// forwarding targets whose cover contains the point.
    pub fn match_point(&self, full: &Point) -> Vec<SubId> {
        let mut out: Vec<SubId> = self
            .entries
            .iter()
            .filter(|(_, r)| r.contains_point(full))
            .map(|(&id, _)| id)
            .collect();
        out.extend(
            self.forwards
                .iter()
                .filter(|(_, r)| r.contains_point(full))
                .map(|(&id, _)| id),
        );
        out.sort_unstable();
        out.dedup();
        out
    }
}

// Hand-written codec: the decoder derives state (index and scan counter
// start afresh, and a summary the one entry states is not held twice).
impl Encode for ZoneRepo {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.iid);
        self.entries.encode(w);
        self.summary().encode(w);
        self.pushed.encode(w);
        // The matching index is a lazily built, observationally neutral
        // cache (it yields exactly the matches): restored repos start
        // without one and rebuild on demand, which cannot change match
        // results. The scan counter is a diagnostic and likewise resets
        // on restore.
    }
}

impl Decode for ZoneRepo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let iid = r.take_u32()?;
        let entries: RepoEntries = Decode::decode(r)?;
        let summary = Option::<Rect>::decode(r)?;
        let mut repo = ZoneRepo {
            iid,
            entries,
            summary: None,
            pushed: Decode::decode(r)?,
            index: None,
        };
        match summary {
            Some(s) => repo.set_summary(s),
            // An insert always leaves a summary.
            None if !repo.entries.is_empty() => {
                return Err(Error::InvalidValue("repository entries without a summary"))
            }
            None => {}
        }
        Ok(repo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![lo, lo], vec![hi, hi])
    }

    fn sid(n: u64) -> SubId {
        SubId { nid: n, iid: 0 }
    }

    #[test]
    fn summary_grows_with_inserts() {
        let mut r = ZoneRepo::new(1);
        let grew = r.insert(
            sid(1),
            StoredSub::Real {
                full: rect(2.0, 3.0),
                proj: rect(2.0, 3.0),
            },
        );
        assert!(grew);
        assert_eq!(r.summary(), Some(&rect(2.0, 3.0)));
        // Contained insert: summary unchanged.
        let grew = r.insert(
            sid(2),
            StoredSub::Real {
                full: rect(2.2, 2.8),
                proj: rect(2.2, 2.8),
            },
        );
        assert!(!grew);
        // Expanding insert.
        let grew = r.insert(
            sid(3),
            StoredSub::Real {
                full: rect(1.0, 2.5),
                proj: rect(1.0, 2.5),
            },
        );
        assert!(grew);
        assert_eq!(r.summary(), Some(&rect(1.0, 3.0)));
    }

    #[test]
    fn match_point_distinguishes_kinds() {
        let mut r = ZoneRepo::new(1);
        r.insert(
            sid(1),
            StoredSub::Real {
                full: Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]),
                proj: Rect::new(vec![0.0], vec![1.0]),
            },
        );
        r.insert(
            sid(2),
            StoredSub::Surrogate {
                proj: Rect::new(vec![0.5], vec![2.0]),
            },
        );
        // Full point (0.7, 5.0): real entry fails on dim 1 (5.0 > 1.0),
        // surrogate matches on projection 0.7.
        let m = r.match_point(&Point(vec![0.7, 5.0]), &Point(vec![0.7]), IndexMode::Bitset);
        assert_eq!(m, vec![sid(2)]);
        // Full point inside both.
        let m = r.match_point(&Point(vec![0.7, 0.5]), &Point(vec![0.7]), IndexMode::Bitset);
        assert_eq!(m, vec![sid(1), sid(2)]);
    }

    #[test]
    fn remove_keeps_summary() {
        let mut r = ZoneRepo::new(1);
        r.insert(
            sid(1),
            StoredSub::Real {
                full: rect(0.0, 4.0),
                proj: rect(0.0, 4.0),
            },
        );
        r.remove(&sid(1));
        assert_eq!(r.summary(), Some(&rect(0.0, 4.0)));
        assert_eq!(r.real_count(), 0);
    }

    fn surrogate(lo: f64) -> StoredSub {
        StoredSub::Surrogate {
            proj: Rect::new(vec![lo], vec![lo + 3.0]),
        }
    }

    /// `match_point` through the index against a scan of `entries`.
    fn assert_exact(r: &mut ZoneRepo, xs: &[f64]) {
        for &x in xs {
            let p = Point(vec![x]);
            let got = r.match_point(&p, &p, IndexMode::Bitset);
            let mut expect: Vec<SubId> = r
                .entries
                .iter()
                .filter(|(_, s)| s.proj().contains_point(&p))
                .map(|(&id, _)| id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "indexed path diverged at x={x}");
        }
    }

    /// The index is built once and then follows `entries`: no amount of
    /// drift drops it. The only rebuild left is the re-bucketing when the
    /// slots outgrow the rows (here 80 entries → 128 slots → 256).
    #[test]
    fn incremental_index_stays_exact_until_drift_rebuild() {
        let mut r = ZoneRepo::new(1);
        for i in 0..80 {
            r.insert(sid(i), surrogate((i as f64 * 1.1) % 50.0));
        }
        assert_eq!(r.index_diag().entries, 0, "nothing built before a query");
        assert_exact(&mut r, &[10.0]);
        assert_eq!(r.index_diag().entries, 80, "built past the threshold");

        // Inserts beyond the built range on dim 0, then far more
        // mutations than the build-time size, across a capacity doubling.
        for i in 100..110 {
            r.insert(sid(i), surrogate(40.0 + (i - 100) as f64 * 2.0));
        }
        assert_exact(&mut r, &[0.0, 10.0, 45.0, 57.5]);
        let bytes = r.index_diag().bytes;
        for i in 200..400 {
            r.insert(sid(i), surrogate((i as f64 * 0.7) % 90.0));
        }
        assert_eq!(r.index_diag().entries, 290, "still indexed, every entry");
        assert!(r.index_diag().bytes > bytes, "the tables grew");
        assert_exact(&mut r, &[0.0, 10.0, 45.0, 57.5, 89.0, 93.0]);

        // Removing most of it keeps the index and keeps it exact, as do
        // the inserts that take over the freed slots.
        for i in 0..80 {
            assert!(r.remove(&sid(i)).is_some());
        }
        for i in 200..380 {
            r.remove(&sid(i));
        }
        assert_eq!(r.index_diag().entries, 30);
        assert_exact(&mut r, &[0.0, 10.0, 45.0, 57.5, 89.0]);
        for i in 500..700 {
            r.insert(sid(i), surrogate((i as f64 * 0.3) % 90.0));
        }
        assert_eq!(r.index_diag().entries, 230);
        assert_exact(&mut r, &[0.0, 10.0, 45.0, 57.5, 89.0]);
    }

    #[test]
    fn reinsert_same_rect_does_not_reregister() {
        // Regression test for the historical double-registration bug:
        // re-inserting an existing id (lease refresh, replica replay)
        // used to register it into the index again, inflating the
        // candidate lists.
        let mut r = ZoneRepo::new(1);
        for i in 0..80 {
            r.insert(sid(i), surrogate(i as f64));
        }
        assert_exact(&mut r, &[10.0]);
        let before = r.index_diag();
        assert_eq!(before.entries, 80, "index built");
        // Refresh every entry with its identical rect.
        for i in 0..80 {
            r.insert(sid(i), surrogate(i as f64));
        }
        assert_exact(&mut r, &[10.0]);
        let after = r.index_diag();
        assert_eq!(after.bytes, before.bytes, "no slot appended");
        assert_eq!(
            after.candidates_scanned,
            2 * before.candidates_scanned,
            "the same query examines the same slots"
        );
    }

    #[test]
    fn linear_mode_never_builds_an_index() {
        let mut r = ZoneRepo::new(1);
        for i in 0..200 {
            r.insert(
                sid(i),
                StoredSub::Surrogate {
                    proj: Rect::new(vec![i as f64], vec![i as f64 + 1.0]),
                },
            );
        }
        let _ = r.match_point(&Point(vec![10.5]), &Point(vec![10.5]), IndexMode::Linear);
        assert_eq!(r.index_diag(), IndexDiag::default());
    }

    /// A `d`-dimensional rect per `i`, spread so that the index prunes.
    fn spread(i: u64, d: usize) -> Rect {
        let lo: Vec<f64> = (0..d as u64)
            .map(|k| ((i * (3 + 2 * k)) % 50) as f64)
            .collect();
        let hi = lo.iter().map(|l| l + 10.0 + (i % 7) as f64).collect();
        Rect::new(lo, hi)
    }

    /// One repository per index mode, each holding `entries`.
    fn twins(entries: &[(SubId, StoredSub)]) -> [ZoneRepo; 2] {
        let mut repos = [ZoneRepo::new(1), ZoneRepo::new(1)];
        for r in &mut repos {
            for (id, s) in entries {
                r.insert(*id, s.clone());
            }
        }
        repos
    }

    /// The bitset repository's matches, asserted equal to the linear one's.
    fn agreed(repos: &mut [ZoneRepo; 2], full: &Point, proj: &Point) -> Vec<SubId> {
        let got = repos[0].match_point(full, proj, IndexMode::Bitset);
        let want = repos[1].match_point(full, proj, IndexMode::Linear);
        assert_eq!(got, want, "index diverged at {:?} / {:?}", full.0, proj.0);
        assert!(repos[0].index_diag().entries > 0, "the index was consulted");
        got
    }

    fn indexed_dims(r: &ZoneRepo) -> usize {
        r.index.as_ref().expect("an index was built").ix.dims()
    }

    /// The fast path: four indexed dimensions, nothing projected away,
    /// so the index's verdict is taken without the exact check. Real
    /// entries and surrogates alike come back exactly, on rect edges,
    /// outside the box and under NaN; so they do when the subscheme
    /// permutes the axes.
    #[test]
    fn whole_rect_index_verdict_is_exact() {
        for perm in [[0, 1, 2, 3], [2, 0, 3, 1]] {
            let project = |v: &[f64]| perm.iter().map(|&a| v[a]).collect::<Vec<f64>>();
            let entries: Vec<(SubId, StoredSub)> = (0..100)
                .map(|i| {
                    let full = spread(i, 4);
                    let proj = full.project(&perm);
                    let s = if i % 3 == 0 {
                        StoredSub::Surrogate { proj }
                    } else {
                        StoredSub::Real { full, proj }
                    };
                    (sid(i), s)
                })
                .collect();
            let mut repos = twins(&entries);
            let mut points: Vec<Vec<f64>> = Vec::new();
            for i in [0, 1, 5, 42, 99] {
                let r = spread(i, 4);
                points.push(r.lo().to_vec());
                points.push(r.hi().to_vec());
            }
            points.push(vec![-5.0, 20.0, 20.0, 20.0]);
            points.push(vec![20.0, 20.0, 20.0, 200.0]);
            for d in 0..4 {
                let mut p = vec![20.0; 4];
                p[d] = f64::NAN;
                points.push(p);
            }
            for v in points {
                let (full, proj) = (Point(v.clone()), Point(project(&v)));
                let got = agreed(&mut repos, &full, &proj);
                if v.iter().any(|x| x.is_nan()) {
                    assert!(got.is_empty(), "NaN matches nothing");
                }
            }
            // A real entry is found at its own corner.
            let corner = spread(1, 4).lo().to_vec();
            let got = agreed(&mut repos, &Point(corner.clone()), &Point(project(&corner)));
            assert!(got.contains(&sid(1)));
            assert_eq!(indexed_dims(&repos[0]), 4, "every dimension indexed");
        }
    }

    /// A subscheme that drops an attribute: the index tests the kept two,
    /// and a real entry that misses on the dropped third is not returned.
    #[test]
    fn dropped_attribute_is_still_checked() {
        let entries: Vec<(SubId, StoredSub)> = (0..80)
            .map(|i| {
                let full = spread(i, 3);
                let proj = full.project(&[0, 1]);
                (sid(i), StoredSub::Real { full, proj })
            })
            .collect();
        let mut repos = twins(&entries);
        let r = spread(7, 3);
        let inside = Point(r.lo()[..2].to_vec());
        let hit = agreed(&mut repos, &Point(r.lo().to_vec()), &inside);
        assert!(hit.contains(&sid(7)));
        let miss = Point(vec![r.lo()[0], r.lo()[1], r.hi()[2] + 1.0]);
        assert!(!agreed(&mut repos, &miss, &inside).contains(&sid(7)));
        assert_eq!(indexed_dims(&repos[0]), 2);
    }

    /// Nine dimensions, one past what the index holds: it tests the
    /// leading eight, and the ninth is left to the exact check.
    #[test]
    fn dimensions_past_the_index_are_still_checked() {
        let entries: Vec<(SubId, StoredSub)> = (0..80)
            .map(|i| {
                let full = spread(i, 9);
                let s = StoredSub::Real {
                    full: full.clone(),
                    proj: full,
                };
                (sid(i), s)
            })
            .collect();
        let mut repos = twins(&entries);
        let r = spread(7, 9);
        let p = Point(r.lo().to_vec());
        assert!(agreed(&mut repos, &p, &p).contains(&sid(7)));
        let mut v = r.lo().to_vec();
        v[8] = r.hi()[8] + 1.0;
        let p = Point(v);
        assert!(!agreed(&mut repos, &p, &p).contains(&sid(7)));
        assert_eq!(indexed_dims(&repos[0]), 8);
    }

    fn repo_bytes(r: &ZoneRepo) -> Vec<u8> {
        let mut w = Writer::new();
        r.encode(&mut w);
        w.into_vec()
    }

    /// Walks one repository through 0 → 1 → 2 → 1 → 0 entries, with
    /// re-inserts of a present id (same and changed rect) and removes of
    /// an absent one in every form, against a plain map of the same
    /// entries: the lookups, the matches (bitset and linear twins against
    /// a scan of the map) and the bytes (those the map writes) agree at
    /// every step.
    #[test]
    fn one_entry_and_table_forms_hold_what_a_map_holds() {
        let (a, b, c) = (sid(1), sid(2), sid(3));
        let real = |lo: f64| StoredSub::Real {
            full: rect(lo, lo + 4.0),
            proj: Rect::new(vec![lo], vec![lo + 4.0]),
        };
        let mut repos = [ZoneRepo::new(7), ZoneRepo::new(7)];
        let mut map: FxHashMap<SubId, StoredSub> = FxHashMap::default();
        let steps: [(&str, SubId, Option<StoredSub>); 12] = [
            ("remove from empty", c, None),
            ("0 → 1", a, Some(real(0.0))),
            ("re-insert, same rect", a, Some(real(0.0))),
            ("re-insert, changed rect", a, Some(real(2.0))),
            ("remove absent from one", c, None),
            ("1 → 2", b, Some(surrogate(1.0))),
            ("re-insert in table, same rect", b, Some(surrogate(1.0))),
            ("re-insert in table, changed rect", b, Some(surrogate(5.0))),
            ("remove absent from table", c, None),
            ("2 → 1", a, None),
            ("remove absent again", a, None),
            ("1 → 0", b, None),
        ];
        for (step, id, sub) in steps {
            match sub {
                Some(s) => {
                    for r in &mut repos {
                        r.insert(id, s.clone());
                    }
                    map.insert(id, s);
                }
                None => {
                    let had = map.remove(&id).is_some();
                    for r in &mut repos {
                        assert_eq!(r.remove(&id).is_some(), had, "{step}");
                    }
                }
            }
            let e = &repos[0].entries;
            assert_eq!(
                (e.len(), e.is_empty()),
                (map.len(), map.is_empty()),
                "{step}"
            );
            for k in [a, b, c] {
                assert_eq!(e.contains_key(&k), map.contains_key(&k), "{step}");
                if let Some(want) = map.get(&k) {
                    assert_eq!(e[&k].proj(), want.proj(), "{step}");
                }
            }
            let mut ids: Vec<SubId> = e.iter().map(|(&k, _)| k).collect();
            ids.sort_unstable();
            let mut want_ids: Vec<SubId> = map.keys().copied().collect();
            want_ids.sort_unstable();
            assert_eq!(ids, want_ids, "{step}");
            assert_eq!(e.values().count(), map.len(), "{step}");

            for x in [0.5, 1.5, 3.0, 5.5, 7.0, 9.5] {
                let (full, proj) = (Point(vec![x, x]), Point(vec![x]));
                let mut want: Vec<SubId> = map
                    .iter()
                    .filter(|(_, s)| ZoneRepo::check_entry(s, &full, &proj))
                    .map(|(&k, _)| k)
                    .collect();
                want.sort_unstable();
                let got = repos[0].match_point(&full, &proj, IndexMode::Bitset);
                assert_eq!(got, want, "{step} at {x}");
                assert_eq!(repos[1].match_point(&full, &proj, IndexMode::Linear), want);
            }

            let mut w = Writer::new();
            w.put_u32(7);
            map.encode(&mut w);
            repos[0].summary().encode(&mut w);
            repos[0].pushed.encode(&mut w);
            let bytes = repo_bytes(&repos[0]);
            assert_eq!(bytes, w.into_vec(), "{step}");
            let back = ZoneRepo::decode(&mut Reader::new(&bytes)).expect("decodes");
            assert_eq!(repo_bytes(&back), bytes, "{step}");
        }
    }

    /// A zone repository as it was before it dropped the summary its
    /// one entry states and the table its pushed children sat in: the
    /// reference the compact form is checked against.
    struct MapRepo {
        entries: FxHashMap<SubId, StoredSub>,
        summary: Option<Rect>,
        pushed: FxHashMap<ZoneCode, Rect>,
    }

    impl MapRepo {
        fn insert(&mut self, id: SubId, sub: StoredSub) -> bool {
            let proj = sub.proj().clone();
            self.entries.insert(id, sub);
            match &mut self.summary {
                None => {
                    self.summary = Some(proj);
                    true
                }
                Some(s) => {
                    let grown = s.cover(&proj);
                    if &grown != s {
                        *s = grown;
                        true
                    } else {
                        false
                    }
                }
            }
        }

        fn bytes(&self, iid: u32) -> Vec<u8> {
            let mut w = Writer::new();
            w.put_u32(iid);
            self.entries.encode(&mut w);
            self.summary.encode(&mut w);
            self.pushed.encode(&mut w);
            w.into_vec()
        }
    }

    /// Bounds drawn from a short list, so that rects recur and an entry
    /// often equals the summary; `-0.0` and `0.0` are both on it, equal
    /// under `==` and told apart by the bytes.
    fn drawn_rect(at: [usize; 4]) -> Rect {
        const BOUNDS: [f64; 5] = [-0.0, 0.0, 1.0, 2.5, 4.0];
        let pick = |a: usize, b: usize| (BOUNDS[a.min(b)], BOUNDS[a.max(b)]);
        let ((lo0, hi0), (lo1, hi1)) = (pick(at[0], at[1]), pick(at[2], at[3]));
        Rect::new(vec![lo0, lo1], vec![hi0, hi1])
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 256,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Random histories of inserts (fresh ids and replacements, real
        /// and surrogate), removes (present and absent) and `pushed`
        /// inserts and clears: after every step the compact repository
        /// and the reference give the same summary, bit for bit, the same
        /// pushed lookups and the same bytes, and those bytes decode to a
        /// repository that writes them again.
        #[test]
        fn prop_compact_repository_holds_what_the_maps_held(
            ops in proptest::prop::collection::vec(
                (0u8..6, 0u64..4, (0usize..5, 0usize..5, 0usize..5, 0usize..5)),
                1..48,
            ),
        ) {
            let mut repo = ZoneRepo::new(7);
            let mut reference = MapRepo {
                entries: FxHashMap::default(),
                summary: None,
                pushed: FxHashMap::default(),
            };
            let child = |k: u64| ZoneCode { code: k % 3, level: 1 + (k % 2) as u8 };
            let opt_bytes = |r: Option<&Rect>| {
                let mut w = Writer::new();
                r.encode(&mut w);
                w.into_vec()
            };
            for (step, (op, k, (a, b, c, d))) in ops.into_iter().enumerate() {
                let rect = drawn_rect([a, b, c, d]);
                match op {
                    0 | 1 => {
                        let sub = StoredSub::Surrogate { proj: rect };
                        let want = reference.insert(sid(k), sub.clone());
                        proptest::prop_assert_eq!(repo.insert(sid(k), sub), want, "step {}", step);
                    }
                    2 => {
                        let full = drawn_rect([d, c, b, a]);
                        let sub = StoredSub::Real { full, proj: rect };
                        let want = reference.insert(sid(k), sub.clone());
                        proptest::prop_assert_eq!(repo.insert(sid(k), sub), want, "step {}", step);
                    }
                    3 => {
                        let want = reference.entries.remove(&sid(k)).is_some();
                        proptest::prop_assert_eq!(repo.remove(&sid(k)).is_some(), want);
                    }
                    4 => {
                        reference.pushed.insert(child(k), rect.clone());
                        repo.pushed.insert(child(k), rect);
                    }
                    _ => {
                        reference.pushed.clear();
                        repo.pushed.clear();
                    }
                }
                proptest::prop_assert_eq!(
                    opt_bytes(repo.summary()),
                    opt_bytes(reference.summary.as_ref()),
                    "summary at step {}", step
                );
                for k in 0..6 {
                    proptest::prop_assert_eq!(
                        opt_bytes(repo.pushed.get(&child(k))),
                        opt_bytes(reference.pushed.get(&child(k))),
                        "pushed at step {}", step
                    );
                }
                proptest::prop_assert_eq!(repo.pushed.len(), reference.pushed.len());
                let bytes = repo_bytes(&repo);
                proptest::prop_assert_eq!(&bytes, &reference.bytes(7), "bytes at step {}", step);
                let back = ZoneRepo::decode(&mut Reader::new(&bytes)).expect("decodes");
                proptest::prop_assert_eq!(repo_bytes(&back), bytes);
            }
        }
    }

    /// An insert always leaves a summary, so entries without one are
    /// refused: the compact form could not write those bytes back.
    #[test]
    fn entries_without_a_summary_are_refused() {
        let mut w = Writer::new();
        w.put_u32(7);
        let entries: FxHashMap<SubId, StoredSub> = [(sid(1), surrogate(1.0))].into_iter().collect();
        entries.encode(&mut w);
        None::<Rect>.encode(&mut w);
        SortedTable::<ZoneCode, Rect>::default().encode(&mut w);
        assert!(matches!(
            ZoneRepo::decode(&mut Reader::new(&w.into_vec())),
            Err(Error::InvalidValue("repository entries without a summary"))
        ));
    }

    #[test]
    fn hosted_repo_matches_full_rects() {
        let mut h = HostedRepo::new(9, 3, (0, 0, hypersub_lph::ZoneCode::ROOT));
        h.entries.insert(sid(1), rect(0.0, 1.0));
        h.entries.insert(sid(2), rect(0.5, 2.0));
        let m = h.match_point(&Point(vec![0.7, 0.7]));
        assert_eq!(m, vec![sid(1), sid(2)]);
        let m = h.match_point(&Point(vec![1.5, 1.5]));
        assert_eq!(m, vec![sid(2)]);
    }
}
