//! Length-prefixed message framing.
//!
//! Every frame on a transport connection is a 4-byte little-endian length
//! followed by that many payload bytes. The first frame a dialer writes is
//! a *handshake* announcing its node index (`HSUB` magic + LE `u32`); every
//! later frame is one [`hypersub_simnet::WireMsg`] encoding. One frame
//! carries exactly one message — the codec rejects trailing bytes.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload. A `HyperMsg` is a few hundred
/// bytes; replica snapshots can reach megabytes on loaded nodes. Anything
/// past this is a corrupt or hostile length prefix.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Magic prefix of the connection handshake frame.
pub const HANDSHAKE_MAGIC: &[u8; 4] = b"HSUB";

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// The payload length a frame's prefix announces; past [`MAX_FRAME`] it
/// is a corrupt or hostile prefix.
fn frame_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME",
        ));
    }
    Ok(len)
}

/// Reads one length-prefixed frame. `Err(UnexpectedEof)` on a cleanly
/// closed connection.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; frame_len(len)?];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Splits the first whole frame off the front of received bytes: its
/// payload, and how many bytes it spans, prefix included. `Ok(None)`
/// while the frame is incomplete. A length prefix past [`MAX_FRAME`] is
/// an error as soon as its four bytes are in, before any payload is
/// waited for.
pub fn split_frame(buf: &[u8]) -> io::Result<Option<(&[u8], usize)>> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let end = 4 + frame_len(*prefix)?;
    Ok(buf.get(4..end).map(|payload| (payload, end)))
}

/// Builds the handshake payload a dialer sends as its first frame.
pub fn handshake(index: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(8);
    v.extend_from_slice(HANDSHAKE_MAGIC);
    v.extend_from_slice(&(index as u32).to_le_bytes());
    v
}

/// Parses a handshake payload back into the dialer's node index.
pub fn parse_handshake(payload: &[u8]) -> io::Result<usize> {
    if payload.len() != 8 || &payload[..4] != HANDSHAKE_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad handshake frame",
        ));
    }
    let mut idx = [0u8; 4];
    idx.copy_from_slice(&payload[4..]);
    Ok(u32::from_le_bytes(idx) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err()); // clean EOF
    }

    #[test]
    fn handshake_round_trip() {
        assert_eq!(parse_handshake(&handshake(42)).unwrap(), 42);
        assert!(parse_handshake(b"nope").is_err());
        assert!(parse_handshake(b"HSUBxxxxx").is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn split_frame_reassembles_two_frames_cut_at_every_offset() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first frame").unwrap();
        write_frame(&mut wire, b"").unwrap();
        for cut in 0..=wire.len() {
            let (mut buf, mut frames) = (Vec::new(), Vec::new());
            for part in [&wire[..cut], &wire[cut..]] {
                buf.extend_from_slice(part);
                while let Some((payload, len)) = split_frame(&buf).unwrap() {
                    frames.push(payload.to_vec());
                    buf.drain(..len);
                }
            }
            assert_eq!(frames, [&b"first frame"[..], b""], "cut at {cut}");
            assert!(buf.is_empty(), "cut at {cut}");
        }
    }

    #[test]
    fn split_frame_yields_nothing_for_a_partial_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        for end in 0..wire.len() {
            assert!(split_frame(&wire[..end]).unwrap().is_none(), "{end} bytes");
        }
        assert_eq!(
            split_frame(&wire).unwrap(),
            Some((&b"hello"[..], wire.len()))
        );
    }

    #[test]
    fn split_frame_rejects_an_oversize_prefix_before_its_payload() {
        let prefix = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(split_frame(&prefix).is_err());
        assert!(split_frame(&(MAX_FRAME as u32).to_le_bytes())
            .unwrap()
            .is_none());
    }
}
