//! The pub/sub model (§3.1) and the scheme registry.
//!
//! Following Fabret et al., a pub/sub *scheme* is a set of attributes,
//! each with a name, type and domain. An *event* is a set of equalities on
//! all attributes (a point); a *subscription* is a conjunction of
//! predicates, each a constant or range on one attribute (a hypercuboid —
//! unspecified attributes default to the whole domain). String
//! prefix/suffix predicates are assumed converted to numeric ranges, as
//! the paper prescribes.
//!
//! §3.5's improvement divides a scheme into *subschemes* (attribute
//! subsets that subscribers tend to specify together); each subscheme
//! functions as an individual zone tree, and every event visits one
//! rendezvous zone per subscheme.

use hypersub_lph::{rotation_offset, ContentSpace, Point, Rect};
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};

/// Identifies a pub/sub scheme within a [`Registry`].
pub type SchemeId = u32;

/// Identifies a subscheme within its scheme.
pub type SubschemeId = u8;

/// A subscription identifier: the subscriber's node (ring) id plus a
/// node-local internal id. The paper serializes this in 9 bytes (8-byte
/// nodeID + 1-byte internalID); we keep a wider internal id in memory but
/// charge 9 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId {
    /// Subscriber's (or surrogate owner's) Chord identifier.
    pub nid: u64,
    /// Internal id distinguishing subscriptions of one node.
    pub iid: u32,
}
codec!(struct SubId { nid, iid });

/// One entry of an event message's SubID list: either a concrete
/// subscription target or the `(key(cz), NULL)` rendezvous marker that
/// starts delivery (Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubTarget {
    /// Routing key: a subscriber node id, or the rendezvous zone key.
    pub nid: u64,
    /// Internal id; `None` is the paper's NULL rendezvous marker.
    pub iid: Option<u32>,
}
codec!(struct SubTarget { nid, iid });

impl SubTarget {
    /// The rendezvous marker for a zone key.
    pub fn rendezvous(key: u64) -> Self {
        Self {
            nid: key,
            iid: None,
        }
    }

    /// A concrete subscription target.
    pub fn sub(id: SubId) -> Self {
        Self {
            nid: id.nid,
            iid: Some(id.iid),
        }
    }
}

/// An event: a point in its scheme's content space.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Globally unique event id (also the flow tag for bandwidth
    /// accounting).
    pub id: u64,
    /// One value per attribute of the scheme.
    pub point: Point,
}
codec!(struct Event { id, point });

/// A subscription: a hypercuboid over the *full* scheme space.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Closed per-attribute ranges; unspecified attributes span the domain.
    pub rect: Rect,
}
codec!(struct Subscription { rect });

impl Subscription {
    /// Creates a subscription from its hypercuboid.
    pub fn new(rect: Rect) -> Self {
        Self { rect }
    }

    /// Builds a subscription from `(attribute, lo, hi)` predicates;
    /// attributes not mentioned default to their whole domain. Multiple
    /// predicates on one attribute intersect (the paper instead splits
    /// such subscriptions; intersection is equivalent for conjunctions).
    pub fn from_predicates(space: &ContentSpace, preds: &[(usize, f64, f64)]) -> Self {
        let mut rect = space.bounding_rect();
        let (rlo, rhi) = rect.bounds_mut();
        for &(attr, lo, hi) in preds {
            assert!(attr < space.dims(), "predicate on unknown attribute {attr}");
            rlo[attr] = rlo[attr].max(lo);
            rhi[attr] = rhi[attr].min(hi);
            assert!(
                rlo[attr] <= rhi[attr],
                "contradictory predicates on attribute {attr}"
            );
        }
        Self { rect }
    }

    /// Does this subscription match `event`? (§3.1: "an event matches a
    /// subscription if it is within the corresponding hypercuboid".)
    pub fn matches(&self, event: &Event) -> bool {
        self.rect.contains_point(&event.point)
    }
}

/// A subscheme: a subset of a scheme's attributes with its own projected
/// content space and zone-mapping rotation offset.
#[derive(Debug, Clone)]
pub struct SubschemeDef {
    /// Indices of the scheme attributes this subscheme covers.
    pub attrs: Vec<usize>,
    /// The projected content space (one dimension per attribute above).
    pub space: ContentSpace,
    /// Zone-mapping rotation offset φ (0 when rotation is disabled).
    pub rotation: u64,
}
codec!(struct SubschemeDef { attrs, space, rotation });

/// A pub/sub scheme definition.
#[derive(Debug, Clone)]
pub struct SchemeDef {
    /// Scheme id (index in the registry).
    pub id: SchemeId,
    /// Scheme name (also the rotation-hash input).
    pub name: String,
    /// Attribute names, in dimension order.
    pub attr_names: Vec<String>,
    /// The full content space.
    pub space: ContentSpace,
    /// Subschemes (at least one; the default single subscheme covers all
    /// attributes).
    pub subschemes: Vec<SubschemeDef>,
}
codec!(struct SchemeDef { id, name, attr_names, space, subschemes });

impl SchemeDef {
    /// Starts building a scheme.
    pub fn builder(name: &str) -> SchemeBuilder {
        SchemeBuilder {
            name: name.to_string(),
            attrs: Vec::new(),
            subschemes: Vec::new(),
            rotation: true,
        }
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.space.dims()
    }

    /// Projects a full-space point onto subscheme `ss`.
    pub fn project_point(&self, ss: SubschemeId, p: &Point) -> Point {
        let def = &self.subschemes[ss as usize];
        Point(def.attrs.iter().map(|&a| p.0[a]).collect())
    }

    /// True when subscheme `ss` maps a `dims`-dimensional point to
    /// itself, i.e. [`Self::project_point`] would return a plain copy.
    /// The delivery path uses this to borrow the event point instead of
    /// allocating the projection on every message receive (the common
    /// single-subscheme case).
    pub fn projection_is_identity(&self, ss: SubschemeId, dims: usize) -> bool {
        let attrs = &self.subschemes[ss as usize].attrs;
        attrs.len() == dims && attrs.iter().enumerate().all(|(i, &a)| a == i)
    }

    /// Projects a full-space rect onto subscheme `ss`.
    pub fn project_rect(&self, ss: SubschemeId, r: &Rect) -> Rect {
        r.project(&self.subschemes[ss as usize].attrs)
    }

    /// Chooses the subscheme a subscription installs into: the one where
    /// the subscription constrains the most attributes (ties: lowest
    /// index). "Constrains" means the range is strictly narrower than the
    /// attribute's domain.
    pub fn choose_subscheme(&self, sub: &Subscription) -> SubschemeId {
        let mut best = 0usize;
        let mut best_score = usize::MAX; // force initialization below
        for (i, def) in self.subschemes.iter().enumerate() {
            let score = def
                .attrs
                .iter()
                .filter(|&&a| {
                    let d = self.space.domain(a);
                    sub.rect.lo()[a] > d.lo || sub.rect.hi()[a] < d.hi
                })
                .count();
            if best_score == usize::MAX || score > best_score {
                best = i;
                best_score = score;
            }
        }
        best as SubschemeId
    }
}

/// Fluent builder for [`SchemeDef`].
#[derive(Debug)]
pub struct SchemeBuilder {
    name: String,
    attrs: Vec<(String, f64, f64)>,
    subschemes: Vec<Vec<usize>>,
    rotation: bool,
}

impl SchemeBuilder {
    /// Adds an attribute with domain `[lo, hi]`.
    pub fn attribute(mut self, name: &str, lo: f64, hi: f64) -> Self {
        self.attrs.push((name.to_string(), lo, hi));
        self
    }

    /// Declares a subscheme over the given attribute indices (§3.5). If no
    /// subscheme is declared, a single subscheme over all attributes is
    /// created.
    pub fn subscheme(mut self, attrs: &[usize]) -> Self {
        self.subschemes.push(attrs.to_vec());
        self
    }

    /// Disables zone-mapping rotation for this scheme (ablation support).
    pub fn without_rotation(mut self) -> Self {
        self.rotation = false;
        self
    }

    /// Finalizes the definition with the given scheme id.
    pub fn build(self, id: SchemeId) -> SchemeDef {
        assert!(
            !self.attrs.is_empty(),
            "scheme needs at least one attribute"
        );
        let space = ContentSpace::new(
            self.attrs
                .iter()
                .map(|&(_, lo, hi)| hypersub_lph::space::Domain::new(lo, hi))
                .collect(),
        );
        let subschemes: Vec<Vec<usize>> = if self.subschemes.is_empty() {
            vec![(0..self.attrs.len()).collect()]
        } else {
            self.subschemes
        };
        assert!(subschemes.len() <= u8::MAX as usize, "too many subschemes");
        let defs = subschemes
            .iter()
            .enumerate()
            .map(|(i, attrs)| {
                assert!(!attrs.is_empty(), "subscheme {i} is empty");
                for (j, &a) in attrs.iter().enumerate() {
                    assert!(a < self.attrs.len(), "subscheme {i}: bad attribute {a}");
                    assert!(
                        !attrs[..j].contains(&a),
                        "subscheme {i}: attribute {a} named twice"
                    );
                }
                let space = ContentSpace::new(
                    attrs
                        .iter()
                        .map(|&a| {
                            hypersub_lph::space::Domain::new(self.attrs[a].1, self.attrs[a].2)
                        })
                        .collect(),
                );
                let rotation = if self.rotation {
                    rotation_offset(&format!("{}#{}", self.name, i))
                } else {
                    0
                };
                SubschemeDef {
                    attrs: attrs.clone(),
                    space,
                    rotation,
                }
            })
            .collect();
        SchemeDef {
            id,
            name: self.name,
            attr_names: self.attrs.iter().map(|a| a.0.clone()).collect(),
            space,
            subschemes: defs,
        }
    }
}

/// All schemes known to a network; shared immutably by every node.
#[derive(Debug, Clone)]
pub struct Registry {
    schemes: Vec<SchemeDef>,
}

impl Registry {
    /// Builds a registry; scheme ids must equal their index.
    pub fn new(schemes: Vec<SchemeDef>) -> Self {
        for (i, s) in schemes.iter().enumerate() {
            assert_eq!(s.id as usize, i, "scheme id must equal its index");
        }
        Self { schemes }
    }

    /// Looks up a scheme.
    pub fn scheme(&self, id: SchemeId) -> &SchemeDef {
        &self.schemes[id as usize]
    }

    /// All schemes.
    pub fn schemes(&self) -> &[SchemeDef] {
        &self.schemes
    }

    /// Number of schemes.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// True when no schemes are registered.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }
}

// Hand-written codec: the decoder validates (scheme id equals index).
impl Encode for Registry {
    fn encode(&self, w: &mut Writer) {
        self.schemes.encode(w);
    }
}

impl Decode for Registry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let schemes = Vec::<SchemeDef>::decode(r)?;
        for (i, s) in schemes.iter().enumerate() {
            if s.id as usize != i {
                return Err(Error::InvalidValue("registry scheme id/index"));
            }
        }
        Ok(Registry { schemes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote_scheme() -> SchemeDef {
        SchemeDef::builder("quotes")
            .attribute("price", 0.0, 100.0)
            .attribute("volume", 0.0, 1000.0)
            .build(0)
    }

    #[test]
    fn builder_defaults_single_full_subscheme() {
        let s = quote_scheme();
        assert_eq!(s.subschemes.len(), 1);
        assert_eq!(s.subschemes[0].attrs, vec![0, 1]);
        assert_ne!(s.subschemes[0].rotation, 0);
    }

    #[test]
    fn without_rotation_zeroes_offset() {
        let s = SchemeDef::builder("x")
            .attribute("a", 0.0, 1.0)
            .without_rotation()
            .build(0);
        assert_eq!(s.subschemes[0].rotation, 0);
    }

    #[test]
    fn from_predicates_defaults_and_intersects() {
        let s = quote_scheme();
        let sub = Subscription::from_predicates(&s.space, &[(0, 10.0, 20.0), (0, 15.0, 30.0)]);
        assert_eq!(sub.rect.lo(), [15.0, 0.0]);
        assert_eq!(sub.rect.hi(), [20.0, 1000.0]);
    }

    #[test]
    #[should_panic(expected = "contradictory")]
    fn contradictory_predicates_panic() {
        let s = quote_scheme();
        Subscription::from_predicates(&s.space, &[(0, 10.0, 20.0), (0, 30.0, 40.0)]);
    }

    #[test]
    fn matching_is_closed() {
        let s = quote_scheme();
        let sub = Subscription::from_predicates(&s.space, &[(0, 10.0, 20.0)]);
        let ev = |p: f64, v: f64| Event {
            id: 0,
            point: Point(vec![p, v]),
        };
        assert!(sub.matches(&ev(10.0, 0.0)));
        assert!(sub.matches(&ev(20.0, 1000.0)));
        assert!(!sub.matches(&ev(20.1, 500.0)));
    }

    #[test]
    fn projection() {
        let s = SchemeDef::builder("s")
            .attribute("a", 0.0, 1.0)
            .attribute("b", 0.0, 2.0)
            .attribute("c", 0.0, 3.0)
            .subscheme(&[0, 2])
            .subscheme(&[1])
            .build(0);
        let p = Point(vec![0.5, 1.5, 2.5]);
        assert_eq!(s.project_point(0, &p), Point(vec![0.5, 2.5]));
        assert_eq!(s.project_point(1, &p), Point(vec![1.5]));
        let r = Rect::new(vec![0.1, 0.2, 0.3], vec![0.9, 1.8, 2.7]);
        let pr = s.project_rect(1, &r);
        assert_eq!(pr.lo(), [0.2]);
        assert_eq!(pr.hi(), [1.8]);
    }

    #[test]
    fn choose_subscheme_prefers_most_constrained() {
        let s = SchemeDef::builder("s")
            .attribute("a", 0.0, 1.0)
            .attribute("b", 0.0, 1.0)
            .attribute("c", 0.0, 1.0)
            .subscheme(&[0])
            .subscheme(&[1, 2])
            .build(0);
        // Constrains only b and c.
        let sub = Subscription::from_predicates(&s.space, &[(1, 0.1, 0.2), (2, 0.1, 0.2)]);
        assert_eq!(s.choose_subscheme(&sub), 1);
        // Constrains only a.
        let sub = Subscription::from_predicates(&s.space, &[(0, 0.1, 0.2)]);
        assert_eq!(s.choose_subscheme(&sub), 0);
        // Constrains nothing: first subscheme.
        let sub = Subscription::from_predicates(&s.space, &[]);
        assert_eq!(s.choose_subscheme(&sub), 0);
    }

    #[test]
    fn rendezvous_target_roundtrip() {
        let t = SubTarget::rendezvous(42);
        assert_eq!(t.iid, None);
        let id = SubId { nid: 7, iid: 3 };
        let t = SubTarget::sub(id);
        assert_eq!(t.nid, 7);
        assert_eq!(t.iid, Some(3));
    }

    #[test]
    #[should_panic(expected = "id must equal its index")]
    fn registry_checks_ids() {
        Registry::new(vec![SchemeDef::builder("x")
            .attribute("a", 0.0, 1.0)
            .build(5)]);
    }

    /// A subscheme as long as the scheme must be a permutation of it:
    /// repeating an attribute would make it neither.
    #[test]
    #[should_panic(expected = "subscheme 1: attribute 0 named twice")]
    fn subscheme_names_each_attribute_once() {
        let mut b = SchemeDef::builder("x").subscheme(&[3, 2, 1, 0]);
        for name in ["a", "b", "c", "d"] {
            b = b.attribute(name, 0.0, 1.0);
        }
        b.subscheme(&[0, 0, 1, 2]).build(0);
    }
}
