//! Versioned hand-rolled binary codec for deterministic simulation
//! checkpoints.
//!
//! This crate is the serialization substrate for HyperSub's
//! checkpoint/restore plane. It deliberately avoids serde (matching the
//! report crate's serde-free style): every byte written is explicit, so
//! the on-disk format is pinned by code review plus the golden
//! byte-stability test (`tests/golden/snapshot_v2.bin`), not by a
//! derive's implementation details.
//!
//! Format rules:
//!
//! * All integers are little-endian fixed width. Lengths are `u64`.
//! * `f64` is encoded as its IEEE-754 bit pattern (`to_bits`), so the
//!   round-trip is exact for every value including NaNs.
//! * `Option<T>` is a strict `0u8`/`1u8` tag followed by the payload.
//! * `HashMap`/`HashSet` are a count followed by the entries in `Ord`
//!   order of the key — hash iteration order differs between processes
//!   and the golden tests pin exact bytes, so the codec sorts, never the
//!   caller. A key stated twice is a decode error.
//! * A plain struct or tagged enum states its layout once, as a
//!   [`codec!`] field list; both impls are generated from it.
//! * A snapshot file is a self-checking envelope: magic `HSNP`, a
//!   `u32` format version, a length-prefixed payload, and an FNV-1a
//!   checksum of the payload. Decoders reject bad magic, unknown
//!   versions, corrupt payloads, and trailing garbage.
//!
//! Versioning policy: any change to the byte layout of any encoded type
//! bumps [`VERSION`]. There is no in-place migration — a snapshot is a
//! short-lived artifact tied to the binary that wrote it, so old
//! versions are rejected with [`Error::UnsupportedVersion`] rather than
//! upgraded.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// File magic for snapshot envelopes.
pub const MAGIC: [u8; 4] = *b"HSNP";

/// Current snapshot format version. Bump on ANY byte-layout change.
///
/// 2: both dedup guards carry each entry's first-seen time, and
/// `EventDedup` writes each event once with its id list.
pub const VERSION: u32 = 2;

/// Decode-side failure. Encoding is infallible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed to finish the read.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// The envelope does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The envelope's format version is not [`VERSION`].
    UnsupportedVersion(u32),
    /// The payload checksum does not match the stored one.
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A value was syntactically readable but semantically invalid
    /// (bad bool/option tag, invalid UTF-8, out-of-range enum tag, ...).
    InvalidValue(&'static str),
    /// Bytes remained after the top-level value was fully decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: need {needed} bytes, {remaining} remain")
            }
            Error::BadMagic(m) => write!(f, "bad snapshot magic {m:02x?}"),
            Error::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            Error::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Error::InvalidValue(what) => write!(f, "invalid value: {what}"),
            Error::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot payload"),
        }
    }
}

impl std::error::Error for Error {}

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over encoded bytes for decoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes one byte.
    pub fn take_u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Consumes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consumes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), Error> {
        if self.remaining() != 0 {
            return Err(Error::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// A type with a pinned binary encoding.
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// A type decodable from its pinned binary encoding.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error>;
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
}
impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.take_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}
impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.take_u16()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
}
impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.take_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}
impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.take_u64()
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
}
impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        usize::try_from(r.take_u64()?).map_err(|_| Error::InvalidValue("usize overflow"))
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}
impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error::InvalidValue("bool tag")),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }
}
impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
    }
}
impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = usize::decode(r)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::InvalidValue("utf-8 string"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(Error::InvalidValue("option tag")),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = usize::decode(r)?;
        // Defend against corrupt lengths: cap the pre-allocation, let
        // EOF errors surface naturally while pushing.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}
impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for v in self {
            v.encode(w);
        }
    }
}
impl<T: Decode + Copy + Default, const N: usize> Decode for [T; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut out = [T::default(); N];
        for slot in out.iter_mut() {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

// A borrow writes what it points at, so `Option<&T>` writes the bytes
// of the `Option<T>` it stands for.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}
impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Encode + ?Sized> Encode for Arc<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}
impl<T: Decode> Decode for Arc<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::decode(r).map(Arc::new)
    }
}

impl<K: Encode + Ord, V: Encode, S> Encode for HashMap<K, V, S> {
    fn encode(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_u64(entries.len() as u64);
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }
}
impl<K: Decode + Eq + Hash, V: Decode, S: BuildHasher + Default> Decode for HashMap<K, V, S> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = usize::decode(r)?;
        let mut out = HashMap::with_capacity_and_hasher(n.min(r.remaining()), S::default());
        for _ in 0..n {
            if out.insert(K::decode(r)?, V::decode(r)?).is_some() {
                return Err(Error::InvalidValue("duplicate map key"));
            }
        }
        Ok(out)
    }
}

impl<T: Encode + Ord, S> Encode for HashSet<T, S> {
    fn encode(&self, w: &mut Writer) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        w.put_u64(items.len() as u64);
        for t in items {
            t.encode(w);
        }
    }
}
impl<T: Decode + Eq + Hash, S: BuildHasher + Default> Decode for HashSet<T, S> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = usize::decode(r)?;
        let mut out = HashSet::with_capacity_and_hasher(n.min(r.remaining()), S::default());
        for _ in 0..n {
            if !out.insert(T::decode(r)?) {
                return Err(Error::InvalidValue("duplicate set element"));
            }
        }
        Ok(out)
    }
}

/// States a type's byte layout once and generates both [`Encode`] and
/// [`Decode`] from it, so the two cannot disagree. Invoke it beside the
/// type's definition; fields are written and read in the order listed,
/// each through its own `Encode`/`Decode`.
///
/// There are exactly two forms and no per-field modifiers: a type whose
/// decoder validates, derives state or skips a field keeps a hand-written
/// pair. Either form takes at most one type parameter (`struct Slot<M>`,
/// `enum Event<M> as "…"`); the generated impls then require it to be
/// `Encode` or `Decode` in turn.
///
/// A struct lists its fields (a tuple struct lists `0`, `1`, …):
///
/// ```
/// use hypersub_snapshot::{codec, from_sealed_bytes, to_sealed_bytes};
///
/// #[derive(Debug, PartialEq)]
/// struct Lease {
///     holder: u64,
///     renewals: Vec<u32>,
/// }
/// codec!(struct Lease { holder, renewals });
///
/// let lease = Lease { holder: 7, renewals: vec![1, 2] };
/// assert_eq!(from_sealed_bytes::<Lease>(&to_sealed_bytes(&lease)), Ok(lease));
/// ```
///
/// An enum gives each variant its `u8` tag, and names what an unknown tag
/// is reported as ([`Error::InvalidValue`]):
///
/// ```
/// use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};
///
/// #[derive(Debug, PartialEq)]
/// enum Probe {
///     Ping { ttl: u8 },
///     Pong(u64, bool),
///     Stop,
/// }
/// codec!(enum Probe as "probe tag" {
///     0 => Ping { ttl },
///     1 => Pong(load, last),
///     2 => Stop,
/// });
///
/// let mut w = Writer::new();
/// Probe::Pong(9, true).encode(&mut w);
/// let bytes = w.into_vec();
/// assert_eq!(bytes, [1, 9, 0, 0, 0, 0, 0, 0, 0, 1]);
/// assert_eq!(Probe::decode(&mut Reader::new(&bytes)), Ok(Probe::Pong(9, true)));
/// assert_eq!(Probe::decode(&mut Reader::new(&[3])), Err(Error::InvalidValue("probe tag")));
/// ```
#[macro_export]
macro_rules! codec {
    (struct $name:ident $(<$param:ident>)? { $($field:tt),* $(,)? }) => {
        impl $(<$param: $crate::Encode>)? $crate::Encode for $name $(<$param>)? {
            fn encode(&self, w: &mut $crate::Writer) {
                $( $crate::Encode::encode(&self.$field, w); )*
            }
        }
        impl $(<$param: $crate::Decode>)? $crate::Decode for $name $(<$param>)? {
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::Error> {
                Ok($name { $( $field: $crate::Decode::decode(r)?, )* })
            }
        }
    };
    (enum $name:ident $(<$param:ident>)? as $what:literal { $(
        $tag:literal => $variant:ident
            $( { $($field:ident),* $(,)? } )?
            $( ( $($item:ident),* $(,)? ) )?
    ),* $(,)? }) => {
        impl $(<$param: $crate::Encode>)? $crate::Encode for $name $(<$param>)? {
            fn encode(&self, w: &mut $crate::Writer) {
                match self { $(
                    $name::$variant $( { $($field),* } )? $( ( $($item),* ) )? => {
                        w.put_u8($tag);
                        $( $( $crate::Encode::encode($field, w); )* )?
                        $( $( $crate::Encode::encode($item, w); )* )?
                    }
                )* }
            }
        }
        impl $(<$param: $crate::Decode>)? $crate::Decode for $name $(<$param>)? {
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::Error> {
                match r.take_u8()? {
                    $( $tag => {
                        $( $( let $field = $crate::Decode::decode(r)?; )* )?
                        $( $( let $item = $crate::Decode::decode(r)?; )* )?
                        Ok($name::$variant $( { $($field),* } )? $( ( $($item),* ) )?)
                    } )*
                    _ => Err($crate::Error::InvalidValue($what)),
                }
            }
        }
    };
}

/// Incremental FNV-1a (64-bit) hasher: the envelope checksum, the run
/// digests and the zone-rotation offsets all fold through it. Not
/// cryptographic — chosen for a stable, dependency-free,
/// platform-independent fold.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated hash.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Wraps an encoded payload in the self-checking file envelope:
/// `MAGIC | VERSION | len(payload) | payload | fnv1a(payload)`.
pub fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = fnv1a(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates an envelope and returns the payload slice.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], Error> {
    let mut r = Reader::new(bytes);
    let magic: [u8; 4] = r.take(4)?.try_into().unwrap();
    if magic != MAGIC {
        return Err(Error::BadMagic(magic));
    }
    let version = r.take_u32()?;
    if version != VERSION {
        return Err(Error::UnsupportedVersion(version));
    }
    let len = usize::decode(&mut r)?;
    let payload = r.take(len)?;
    let stored = r.take_u64()?;
    r.finish()?;
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(Error::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Encodes a value and seals it into an envelope in one step.
pub fn to_sealed_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    seal(w.into_vec())
}

/// Unseals an envelope and decodes a single value spanning the whole
/// payload (trailing payload bytes are an error).
pub fn from_sealed_bytes<T: Decode>(bytes: &[u8]) -> Result<T, Error> {
    let payload = unseal(bytes)?;
    let mut r = Reader::new(payload);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        r.finish().expect("consumed exactly");
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xbeefu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(0.0f64);
        round_trip(-0.0f64);
        round_trip(std::f64::consts::PI);
        round_trip(f64::INFINITY);
        round_trip(String::from("héllo"));
        round_trip(String::new());
    }

    #[test]
    fn nan_round_trips_bit_exact() {
        let v = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_vec();
        let back = f64::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn composites_round_trip() {
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip((7u8, 9u64));
        round_trip((1u32, String::from("x"), false));
        round_trip([1u64, 2, 3, 4]);
        round_trip(vec![(0usize, Some(3.5f64)), (1, None)]);
    }

    #[test]
    fn maps_and_sets_are_written_in_key_order() {
        let map: HashMap<u8, u16> = [(9, 1), (2, 7), (5, 3)].into();
        let mut w = Writer::new();
        map.encode(&mut w);
        let mut want = 3u64.to_le_bytes().to_vec();
        want.extend([2, 7, 0, 5, 3, 0, 9, 1, 0]);
        assert_eq!(w.into_vec(), want);
        round_trip(map);

        let set: HashSet<(u8, u8)> = [(3, 0), (1, 9), (1, 2)].into();
        let mut w = Writer::new();
        set.encode(&mut w);
        let mut want = 3u64.to_le_bytes().to_vec();
        want.extend([1, 2, 1, 9, 3, 0]);
        assert_eq!(w.into_vec(), want);
        round_trip(set);

        round_trip(Box::new(5u32));
        round_trip(Arc::new(String::from("shared")));
    }

    #[test]
    fn a_key_written_twice_is_rejected() {
        let mut twice = 2u64.to_le_bytes().to_vec();
        twice.extend([4, 1, 4, 2]);
        assert_eq!(
            HashMap::<u8, u8>::decode(&mut Reader::new(&twice)),
            Err(Error::InvalidValue("duplicate map key"))
        );
        twice[11] = 1;
        assert_eq!(
            HashSet::<(u8, u8)>::decode(&mut Reader::new(&twice)),
            Err(Error::InvalidValue("duplicate set element"))
        );
    }

    #[test]
    fn hostile_counts_allocate_nothing() {
        let huge = (1u64 << 60).to_le_bytes();
        assert!(matches!(
            HashMap::<u64, u64>::decode(&mut Reader::new(&huge)),
            Err(Error::UnexpectedEof { .. })
        ));
        assert!(matches!(
            HashSet::<u64>::decode(&mut Reader::new(&huge)),
            Err(Error::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(
            bool::decode(&mut Reader::new(&[2])),
            Err(Error::InvalidValue("bool tag"))
        );
        assert_eq!(
            Option::<u8>::decode(&mut Reader::new(&[9])),
            Err(Error::InvalidValue("option tag"))
        );
    }

    #[test]
    fn eof_reported() {
        let err = u64::decode(&mut Reader::new(&[1, 2, 3])).unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { .. }));
    }

    #[test]
    fn envelope_round_trips_and_self_checks() {
        let bytes = to_sealed_bytes(&vec![10u64, 20, 30]);
        assert_eq!(&bytes[..4], b"HSNP");
        let back: Vec<u64> = from_sealed_bytes(&bytes).unwrap();
        assert_eq!(back, vec![10, 20, 30]);

        // Corrupt a payload byte: checksum catches it.
        let mut corrupt = bytes.clone();
        corrupt[20] ^= 0xff;
        assert!(matches!(
            from_sealed_bytes::<Vec<u64>>(&corrupt),
            Err(Error::ChecksumMismatch { .. })
        ));

        // Wrong magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            from_sealed_bytes::<Vec<u64>>(&bad_magic),
            Err(Error::BadMagic(_))
        ));

        // Future version.
        let mut bad_ver = bytes.clone();
        bad_ver[4] = 0xff;
        assert!(matches!(
            from_sealed_bytes::<Vec<u64>>(&bad_ver),
            Err(Error::UnsupportedVersion(_))
        ));

        // Trailing garbage.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            from_sealed_bytes::<Vec<u64>>(&trailing),
            Err(Error::TrailingBytes(1))
        ));
    }

    #[test]
    fn envelope_layout_is_pinned() {
        // 4 magic + 4 version + 8 len + payload + 8 checksum.
        let bytes = to_sealed_bytes(&7u8);
        assert_eq!(bytes.len(), 4 + 4 + 8 + 1 + 8);
        assert_eq!(bytes[4], 2); // version 2, little-endian low byte
        assert_eq!(bytes[8], 1); // payload length 1
        assert_eq!(bytes[16], 7); // payload itself
    }
}
