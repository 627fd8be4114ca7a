//! Shared little-endian framing primitives.
//!
//! The durable-blob formats scattered across the workspace (broker log
//! segments and meta blobs, checkpoint chain manifests) all speak the same
//! trivial wire dialect: fixed-width little-endian integers and
//! length-prefixed byte strings. This module is the single home for that
//! dialect so every codec truncates, rejects, and frames identically.

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length prefix followed by the bytes.
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(
        out,
        u32::try_from(b.len()).expect("frame exceeds u32 length prefix"),
    );
    out.extend_from_slice(b);
}

/// Appends a LEB128 unsigned varint (7 bits per byte, high bit continues).
/// Small values — the offset and timestamp deltas batch frames are built
/// from — take one byte instead of eight.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        // s2g-lint: allow(unchecked-narrowing) — masked to 7 bits, cannot truncate
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint (small magnitudes of either sign
/// stay short).
pub(crate) fn put_svarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked reader over an encoded buffer. Every accessor returns
/// `None` on truncated input instead of panicking, so decoders degrade to
/// "malformed blob" rather than crashing a recovery path.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Current read position (bytes consumed).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a LEB128 unsigned varint (rejects encodings past 10 bytes).
    pub fn uvarint(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Reads a zigzag-encoded signed varint.
    pub(crate) fn svarint(&mut self) -> Option<i64> {
        let z = self.uvarint()?;
        Some(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 3);
        put_bytes(&mut out, b"abc");
        put_str(&mut out, "topic-a");
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u8(), Some(7));
        assert_eq!(cur.u32(), Some(0xdead_beef));
        assert_eq!(cur.u64(), Some(u64::MAX - 3));
        assert_eq!(cur.bytes(), Some(&b"abc"[..]));
        assert_eq!(cur.str().as_deref(), Some("topic-a"));
        assert_eq!(cur.position(), out.len());
        assert_eq!(cur.u8(), None, "exhausted cursor yields None");
    }

    #[test]
    fn varints_round_trip() {
        let cases: [u64; 7] = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut out = Vec::new();
        for v in cases {
            put_uvarint(&mut out, v);
        }
        let scases: [i64; 6] = [0, -1, 1, -64, 1 << 40, i64::MIN];
        for v in scases {
            put_svarint(&mut out, v);
        }
        let mut cur = Cursor::new(&out);
        for v in cases {
            assert_eq!(cur.uvarint(), Some(v));
        }
        for v in scases {
            assert_eq!(cur.svarint(), Some(v));
        }
        assert_eq!(cur.position(), out.len());
        // Small values really are small on the wire.
        let mut one = Vec::new();
        put_uvarint(&mut one, 100);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let mut cur = Cursor::new(&[0xff; 11]);
        assert_eq!(cur.uvarint(), None);
    }

    #[test]
    fn truncation_yields_none_not_panic() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        let mut cur = Cursor::new(&out[..out.len() - 1]);
        assert!(cur.bytes().is_none());
        let mut cur = Cursor::new(&[0xff, 0xff, 0xff, 0xff]);
        assert!(cur.bytes().is_none(), "absurd length prefix is rejected");
    }
}
