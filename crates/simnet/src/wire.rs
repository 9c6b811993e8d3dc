//! The wire contract for hosts that put messages on a real socket.
//!
//! [`WireMsg`] is an explicit, versioned byte encoding built on the
//! `hypersub-snapshot` codec, so sim-tested protocol types frame
//! identically across processes and releases.

use hypersub_snapshot::{Error, Reader, Writer};

/// An explicit, versioned wire encoding for protocol messages, built on
/// the `hypersub-snapshot` codec.
///
/// Framing rules (see DESIGN.md "Transport & runtime"):
///
/// * The first byte of every encoded message is [`WireMsg::WIRE_VERSION`].
///   A decoder seeing any other value must reject the message — never
///   guess at a foreign layout.
/// * Any change to the byte layout of an existing message variant bumps
///   the version. Appending new enum variants under fresh tags is
///   version-compatible (old decoders reject the unknown tag as malformed,
///   which is the correct failure).
/// * [`WireMsg::from_wire_bytes`] rejects trailing bytes: a frame carries
///   exactly one message.
pub trait WireMsg: Sized {
    /// Version byte prefixed to every encoded message.
    const WIRE_VERSION: u8;

    /// Writes the message body (everything after the version byte).
    fn wire_encode(&self, w: &mut Writer);

    /// Reads a message body written by [`WireMsg::wire_encode`].
    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// Encodes the full wire form: version byte + body.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(Self::WIRE_VERSION);
        self.wire_encode(&mut w);
        w.into_vec()
    }

    /// Decodes a full wire form produced by [`WireMsg::to_wire_bytes`],
    /// rejecting version mismatches and trailing bytes.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, Error> {
        let mut r = Reader::new(bytes);
        let version = r.take_u8()?;
        if version != Self::WIRE_VERSION {
            return Err(Error::UnsupportedVersion(version as u32));
        }
        let msg = Self::wire_decode(&mut r)?;
        r.finish()?;
        Ok(msg)
    }
}
