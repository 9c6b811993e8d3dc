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
use serde::{Deserialize, Serialize};

/// The domain of one attribute: the closed interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        Rect {
            lo: self.dims.iter().map(|d| d.lo).collect(),
            hi: self.dims.iter().map(|d| d.hi).collect(),
        }
    }

    /// Does `p` lie inside the space (all coordinates within domain)?
    pub fn contains_point(&self, p: &Point) -> bool {
        p.0.len() == self.dims() && self.bounding_rect().contains_point(p)
    }
}

/// An event's position: one value per attribute (§3.1: "an event is a set
/// of equalities on all attributes in the scheme").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Per-dimension lower bounds.
    pub lo: Vec<f64>,
    /// Per-dimension upper bounds.
    pub hi: Vec<f64>,
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
        Self { lo, hi }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Is `p` inside (closed bounds)?
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(p.dims(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(&p.0)
            .all(|((&lo, &hi), &v)| lo <= v && v <= hi)
    }

    /// Does this rect completely cover `other`?
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(other.dims(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((&slo, &shi), (&olo, &ohi))| slo <= olo && ohi <= shi)
    }

    /// Closed intersection, or `None` when disjoint. Touching boundaries
    /// yield degenerate (zero-width) rects — deliberately, so an event
    /// sitting exactly on a zone boundary still reaches subscriptions in
    /// the neighboring zone (see crate docs on closed semantics).
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        debug_assert_eq!(other.dims(), self.dims());
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        for j in 0..self.dims() {
            let l = self.lo[j].max(other.lo[j]);
            let h = self.hi[j].min(other.hi[j]);
            if l > h {
                return None;
            }
            lo.push(l);
            hi.push(h);
        }
        Some(Rect { lo, hi })
    }

    /// Smallest rect covering both — the summary-filter update operation
    /// (§3.3: the summary filter is "the smallest hypercuboid that can
    /// exactly cover all subscriptions registered in cz").
    pub fn cover(&self, other: &Rect) -> Rect {
        debug_assert_eq!(other.dims(), self.dims());
        Rect {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(&a, &b)| a.min(b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(&a, &b)| a.max(b))
                .collect(),
        }
    }

    /// Hypervolume (0 for degenerate rects).
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&lo, &hi)| hi - lo)
            .product()
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

// Hand-written codec: the decoder validates (`lo` and `hi` of one arity).
impl Encode for Rect {
    fn encode(&self, w: &mut Writer) {
        self.lo.encode(w);
        self.hi.encode(w);
    }
}

impl Decode for Rect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let lo = Vec::<f64>::decode(r)?;
        let hi = Vec::<f64>::decode(r)?;
        if lo.len() != hi.len() {
            return Err(Error::InvalidValue("rect bound arity"));
        }
        Ok(Rect { lo, hi })
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
}
