//! Content spaces, points and hypercuboids.
//!
//! §3.1: "HyperSub models the content space of each pub/sub scheme as a
//! multi-dimensional space, where each dimension represents an attribute.
//! An event can be described as a point in the space, while a subscription
//! is defined as a hypercuboid. An event matches a subscription if it is
//! within the corresponding hypercuboid."
//!
//! Intervals are *closed* on both ends: a subscription `[lo, hi]` matches
//! events with values equal to either bound (prefix/suffix string
//! predicates, which the paper converts to numeric ranges, produce exactly
//! such closed ranges).

use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};

/// The domain of one attribute: the closed interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}
codec!(struct Domain { lo, hi });

impl Domain {
    /// Creates a domain, validating `lo < hi` and finiteness.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid domain [{lo}, {hi}]"
        );
        Self { lo, hi }
    }

    /// Domain width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// A d-dimensional content space Ω: one [`Domain`] per attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentSpace {
    dims: Vec<Domain>,
}

impl ContentSpace {
    /// Creates a space from per-attribute domains.
    pub fn new(dims: Vec<Domain>) -> Self {
        assert!(!dims.is_empty(), "content space needs at least 1 dimension");
        Self { dims }
    }

    /// A space of `d` identical `[lo, hi]` dimensions.
    pub fn uniform(d: usize, lo: f64, hi: f64) -> Self {
        Self::new(vec![Domain::new(lo, hi); d])
    }

    /// Number of dimensions (attributes).
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// The domain of dimension `j`.
    pub fn domain(&self, j: usize) -> Domain {
        self.dims[j]
    }

    /// The whole space as a [`Rect`].
    pub fn bounding_rect(&self) -> Rect {
        let lo = self.dims.iter().map(|d| d.lo);
        Rect {
            bounds: lo.chain(self.dims.iter().map(|d| d.hi)).collect(),
        }
    }

    /// Does `p` lie inside the space (all coordinates within domain)?
    pub fn contains_point(&self, p: &Point) -> bool {
        p.0.len() == self.dims() && self.bounding_rect().contains_point(p)
    }
}

/// An event's position: one value per attribute (§3.1: "an event is a set
/// of equalities on all attributes in the scheme").
#[derive(Debug, Clone, PartialEq)]
pub struct Point(pub Vec<f64>);
codec!(struct Point { 0 });

impl Point {
    /// Number of coordinates.
    pub fn dims(&self) -> usize {
        self.0.len()
    }
}

/// A closed axis-aligned hypercuboid `[lo_j, hi_j]` per dimension.
///
/// Degenerate rects (`lo_j == hi_j` on some axes) are legal: they arise as
/// equality predicates and as boundary-touching intersections during
/// summary-filter subdivision.
///
/// Stored as one heap block `[lo₀ … lo_{d−1}, hi₀ … hi_{d−1}]`: a rect is
/// 16 bytes inline and one allocation, and zone repositories hold one
/// or more per entry. [`Self::lo`] and [`Self::hi`] are its two halves.
#[derive(Clone, PartialEq)]
pub struct Rect {
    bounds: Box<[f64]>,
}

impl Rect {
    /// Creates a rect, validating `lo_j <= hi_j` everywhere.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "rect bound arity mismatch");
        assert!(!lo.is_empty(), "rect needs at least one dimension");
        for j in 0..lo.len() {
            assert!(
                lo[j].is_finite() && hi[j].is_finite() && lo[j] <= hi[j],
                "invalid rect on dim {j}: [{}, {}]",
                lo[j],
                hi[j]
            );
        }
        Self::unchecked(lo, hi)
    }

    /// Creates a rect from bounds of one arity without validating them:
    /// no dimension, non-finite and inverted bounds are all accepted (a
    /// decoded snapshot may hold them; tests build them on purpose).
    ///
    /// # Panics
    /// Panics if `lo` and `hi` differ in length.
    pub fn unchecked(mut lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "rect bound arity mismatch");
        lo.extend_from_slice(&hi);
        Self {
            bounds: lo.into_boxed_slice(),
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.bounds.len() / 2
    }

    /// Per-dimension lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.bounds[..self.dims()]
    }

    /// Per-dimension upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.bounds[self.dims()..]
    }

    /// Both halves, writable in place.
    pub fn bounds_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        let d = self.dims();
        self.bounds.split_at_mut(d)
    }

    /// The rect over dimensions `axes` of this one, in that order (a
    /// subscheme projection).
    pub fn project(&self, axes: &[usize]) -> Rect {
        let (lo, hi) = (self.lo(), self.hi());
        let lo = axes.iter().map(|&a| lo[a]);
        Rect {
            bounds: lo.chain(axes.iter().map(|&a| hi[a])).collect(),
        }
    }

    /// Is `p` inside (closed bounds)?
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(p.dims(), self.dims());
        self.lo()
            .iter()
            .zip(self.hi())
            .zip(&p.0)
            .all(|((&lo, &hi), &v)| lo <= v && v <= hi)
    }

    /// Does this rect completely cover `other`?
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.lo()
            .iter()
            .zip(self.hi())
            .zip(other.lo().iter().zip(other.hi()))
            .all(|((&slo, &shi), (&olo, &ohi))| slo <= olo && ohi <= shi)
    }

    /// Closed intersection, or `None` when disjoint. Touching boundaries
    /// yield degenerate (zero-width) rects — deliberately, so an event
    /// sitting exactly on a zone boundary still reaches subscriptions in
    /// the neighboring zone (see crate docs on closed semantics).
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        debug_assert_eq!(other.dims(), self.dims());
        let lo = || self.lo().iter().zip(other.lo()).map(|(&a, &b)| a.max(b));
        let hi = || self.hi().iter().zip(other.hi()).map(|(&a, &b)| a.min(b));
        if lo().zip(hi()).any(|(l, h)| l > h) {
            return None;
        }
        Some(Rect {
            bounds: lo().chain(hi()).collect(),
        })
    }

    /// Smallest rect covering both — the summary-filter update operation
    /// (§3.3: the summary filter is "the smallest hypercuboid that can
    /// exactly cover all subscriptions registered in cz").
    pub fn cover(&self, other: &Rect) -> Rect {
        debug_assert_eq!(other.dims(), self.dims());
        let lo = self.lo().iter().zip(other.lo()).map(|(&a, &b)| a.min(b));
        let hi = self.hi().iter().zip(other.hi()).map(|(&a, &b)| a.max(b));
        Rect {
            bounds: lo.chain(hi).collect(),
        }
    }

    /// Hypervolume (0 for degenerate rects).
    pub fn volume(&self) -> f64 {
        self.lo()
            .iter()
            .zip(self.hi())
            .map(|(&lo, &hi)| hi - lo)
            .product()
    }
}

impl std::fmt::Debug for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rect")
            .field("lo", &self.lo())
            .field("hi", &self.hi())
            .finish()
    }
}

// Hand-written codec: the decoder validates (at least one dimension).
impl Encode for ContentSpace {
    fn encode(&self, w: &mut Writer) {
        self.dims.encode(w);
    }
}

impl Decode for ContentSpace {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let dims = Vec::<Domain>::decode(r)?;
        if dims.is_empty() {
            return Err(Error::InvalidValue("empty content space"));
        }
        Ok(ContentSpace { dims })
    }
}

// Hand-written codec: each half is laid out as a `Vec<f64>` is, and the
// decoder validates (`lo` and `hi` of one arity).
impl Encode for Rect {
    fn encode(&self, w: &mut Writer) {
        self.lo().encode(w);
        self.hi().encode(w);
    }
}

impl Decode for Rect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let lo = Vec::<f64>::decode(r)?;
        let hi = Vec::<f64>::decode(r)?;
        if lo.len() != hi.len() {
            return Err(Error::InvalidValue("rect bound arity"));
        }
        Ok(Rect::unchecked(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn point_containment_closed() {
        let rect = r(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(rect.contains_point(&Point(vec![0.0, 1.0])));
        assert!(rect.contains_point(&Point(vec![0.5, 0.5])));
        assert!(!rect.contains_point(&Point(vec![1.0001, 0.5])));
    }

    #[test]
    fn rect_containment() {
        let big = r(&[0.0, 0.0], &[10.0, 10.0]);
        let small = r(&[2.0, 3.0], &[4.0, 5.0]);
        assert!(big.contains_rect(&small));
        assert!(!small.contains_rect(&big));
        assert!(big.contains_rect(&big), "containment is reflexive");
    }

    #[test]
    fn intersection_including_touching() {
        let a = r(&[0.0], &[5.0]);
        let b = r(&[5.0], &[9.0]);
        let touch = a.intersect(&b).expect("touching rects intersect");
        assert_eq!(touch, r(&[5.0], &[5.0]));
        let c = r(&[5.1], &[9.0]);
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn cover_is_smallest_enclosing() {
        let a = r(&[0.0, 4.0], &[1.0, 5.0]);
        let b = r(&[3.0, 0.0], &[4.0, 1.0]);
        let c = a.cover(&b);
        assert_eq!(c, r(&[0.0, 0.0], &[4.0, 5.0]));
        assert!(c.contains_rect(&a) && c.contains_rect(&b));
    }

    #[test]
    fn volume() {
        assert_eq!(r(&[0.0, 0.0], &[2.0, 3.0]).volume(), 6.0);
        assert_eq!(r(&[1.0], &[1.0]).volume(), 0.0);
    }

    #[test]
    fn space_accessors() {
        let s = ContentSpace::uniform(4, 0.0, 10_000.0);
        assert_eq!(s.dims(), 4);
        assert_eq!(s.domain(2).width(), 10_000.0);
        assert!(s.contains_point(&Point(vec![0.0, 1.0, 9_999.0, 10_000.0])));
        assert!(!s.contains_point(&Point(vec![0.0, 1.0, 9_999.0, 10_000.1])));
    }

    #[test]
    #[should_panic(expected = "invalid rect")]
    fn inverted_rect_panics() {
        r(&[2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid domain")]
    fn empty_domain_panics() {
        Domain::new(3.0, 3.0);
    }

    #[test]
    fn debug_names_both_halves() {
        let rect = r(&[0.0, 1.5], &[2.0, 3.0]);
        assert_eq!(
            format!("{rect:?}"),
            "Rect { lo: [0.0, 1.5], hi: [2.0, 3.0] }"
        );
    }

    /// The two-`Vec` rect semantics, over plain slices: the reference the
    /// packed representation is held to.
    mod reference {
        pub fn contains_point(lo: &[f64], hi: &[f64], p: &[f64]) -> bool {
            (0..lo.len()).all(|j| lo[j] <= p[j] && p[j] <= hi[j])
        }

        pub fn contains_rect(slo: &[f64], shi: &[f64], olo: &[f64], ohi: &[f64]) -> bool {
            (0..slo.len()).all(|j| slo[j] <= olo[j] && ohi[j] <= shi[j])
        }

        pub fn intersect(
            alo: &[f64],
            ahi: &[f64],
            blo: &[f64],
            bhi: &[f64],
        ) -> Option<(Vec<f64>, Vec<f64>)> {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for j in 0..alo.len() {
                let l = alo[j].max(blo[j]);
                let h = ahi[j].min(bhi[j]);
                if l > h {
                    return None;
                }
                lo.push(l);
                hi.push(h);
            }
            Some((lo, hi))
        }

        pub fn cover(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> (Vec<f64>, Vec<f64>) {
            let lo = (0..alo.len()).map(|j| alo[j].min(blo[j])).collect();
            let hi = (0..alo.len()).map(|j| ahi[j].max(bhi[j])).collect();
            (lo, hi)
        }
    }

    /// Bit patterns, so that NaN bounds compare equal to themselves.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn encoded<T: Encode + ?Sized>(parts: &[&T]) -> Vec<u8> {
        let mut w = Writer::new();
        for p in parts {
            p.encode(&mut w);
        }
        w.into_vec()
    }

    use proptest::prelude::*;

    proptest! {
        /// Arities 1–9: per dimension a lower bound and a width for two
        /// rects `a` and `b`, and a coordinate for a point. `poison`
        /// writes NaN, +∞ or −∞ (or nothing) into one bound of one rect,
        /// through the unchecked constructor; `touch` makes `b` start
        /// exactly where `a` ends on dimension 0.
        #[test]
        fn prop_packed_rect_matches_two_slices(
            dims in prop::collection::vec(
                (-100.0f64..100.0, 0.0f64..50.0, -100.0f64..100.0, 0.0f64..50.0, -120.0f64..170.0),
                1..10,
            ),
            poison in (0usize..4, 0usize..9, 0usize..4),
            touch in any::<bool>(),
        ) {
            let n = dims.len();
            let mut alo: Vec<f64> = dims.iter().map(|d| d.0).collect();
            let mut ahi: Vec<f64> = dims.iter().map(|d| d.0 + d.1).collect();
            let mut blo: Vec<f64> = dims.iter().map(|d| d.2).collect();
            let mut bhi: Vec<f64> = dims.iter().map(|d| d.2 + d.3).collect();
            let p: Vec<f64> = dims.iter().map(|d| d.4).collect();
            if touch {
                blo[0] = ahi[0];
                bhi[0] = bhi[0].max(blo[0]);
            }
            let (kind, dim, slot) = poison;
            if kind > 0 {
                let v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind - 1];
                [&mut alo, &mut ahi, &mut blo, &mut bhi][slot][dim % n] = v;
            }
            let a = Rect::unchecked(alo.clone(), ahi.clone());
            let b = Rect::unchecked(blo.clone(), bhi.clone());

            prop_assert_eq!(a.dims(), n);
            prop_assert_eq!(bits(a.lo()), bits(&alo));
            prop_assert_eq!(bits(a.hi()), bits(&ahi));
            prop_assert_eq!(
                a.contains_point(&Point(p.clone())),
                reference::contains_point(&alo, &ahi, &p)
            );
            prop_assert_eq!(a.contains_rect(&b), reference::contains_rect(&alo, &ahi, &blo, &bhi));
            prop_assert_eq!(b.contains_rect(&a), reference::contains_rect(&blo, &bhi, &alo, &ahi));
            let got = a.intersect(&b).map(|r| (bits(r.lo()), bits(r.hi())));
            let want = reference::intersect(&alo, &ahi, &blo, &bhi).map(|(l, h)| (bits(&l), bits(&h)));
            prop_assert_eq!(got, want);
            let c = a.cover(&b);
            let (clo, chi) = reference::cover(&alo, &ahi, &blo, &bhi);
            prop_assert_eq!((bits(c.lo()), bits(c.hi())), (bits(&clo), bits(&chi)));

            // The bytes are the two-`Vec` layout, and they decode back.
            let bytes = encoded(&[&a]);
            prop_assert_eq!(&bytes, &encoded(&[&alo, &ahi]));
            let mut rd = Reader::new(&bytes);
            let back = Rect::decode(&mut rd).expect("round trip");
            prop_assert!(rd.finish().is_ok());
            prop_assert_eq!((bits(back.lo()), bits(back.hi())), (bits(&alo), bits(&ahi)));

            // Every truncation, and halves of two arities, are refused.
            for cut in 0..bytes.len() {
                prop_assert!(Rect::decode(&mut Reader::new(&bytes[..cut])).is_err());
            }
            let short = encoded(&[&alo, &ahi[..n - 1].to_vec()]);
            prop_assert!(Rect::decode(&mut Reader::new(&short)).is_err());
            let long = encoded(&[&alo, &[ahi.clone(), vec![1.0]].concat()]);
            prop_assert!(Rect::decode(&mut Reader::new(&long)).is_err());
        }
    }
}
