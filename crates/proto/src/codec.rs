//! The one wire dialect: every byte format of the workspace is written with
//! these `put_*` writers and read through one strict [`Cursor`].
//!
//! It serves the record batch frame and the broker log segment
//! ([`crate::batch`]), the broker's meta blob, the checkpoint chain
//! manifest, and the SPE's formats: an event's header, the `Value` tree
//! (its tags, lengths and strings), and the state snapshots and deltas
//! written as such trees. Each format is fixed-width little-endian
//! integers, LEB128 varints, flag bytes, length-prefixed byte strings and
//! counted lists, so every decoder truncates, rejects and frames
//! identically, and fails with the one [`CodecError`].
//!
//! A decoder accepts only what its encoder writes, so every input it
//! accepts re-encodes to itself byte for byte. The cursor enforces the
//! dialect's part of that:
//!
//! - a varint is minimal (no trailing zero group), at most 10 bytes, and
//!   holds nothing past `u64` ([`CodecError::BadVarint`]);
//! - a flag byte is 0 or 1 ([`CodecError::BadTag`] otherwise);
//! - a string is UTF-8 ([`CodecError::BadUtf8`]), borrowed from the input;
//! - [`Cursor::finish`] rejects bytes past the end of the encoding
//!   ([`CodecError::Trailing`]).
//!
//! The rest (tags, orders, field values the encoder never writes) each
//! decoder checks, as [`CodecError::BadTag`] or
//! [`CodecError::NonCanonical`].

// A truncating `as` here corrupts a wire frame; narrow with `try_from`.
#![deny(clippy::cast_possible_truncation)]
// Every function is `#[inline]`: the decoders and encoders of the other
// crates call them per field, and across a crate boundary a function that
// is not inlinable is a call each time.

use std::fmt;

/// A decoding failure, the one error of every decoder in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-encoding.
    Truncated,
    /// An unknown tag, version or flag byte.
    BadTag(u8),
    /// Bytes left over after a complete encoding.
    Trailing,
    /// Lists and maps nested deeper than the decoder's bound.
    TooDeep,
    /// A varint longer than 10 bytes, past `u64`, or not minimal.
    BadVarint,
    /// A string that is not UTF-8.
    BadUtf8,
    /// Bytes that read, but that the encoder never writes: an event's
    /// reserved flag bit set, source byte of 0, origin delta of 0 or
    /// top-level string written with its tag and length; map keys out of
    /// order; a capture with a field missing or extra; a record's offset or
    /// timestamp off its frame's; a field past its type.
    NonCanonical,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "unexpected end of the encoding"),
            CodecError::BadTag(t) => write!(f, "unknown tag, version or flag {t}"),
            CodecError::Trailing => write!(f, "bytes past the end of the encoding"),
            CodecError::TooDeep => write!(f, "values nested past the decoding bound"),
            CodecError::BadVarint => write!(f, "malformed varint"),
            CodecError::BadUtf8 => write!(f, "a string that is not UTF-8"),
            CodecError::NonCanonical => write!(f, "an encoding the encoder never writes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a collection's or a byte string's length as a `u32`; panics
/// loudly if it does not fit, where a truncating cast would corrupt every
/// later read of the encoding.
#[inline]
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("length fits a u32 prefix"));
}

/// Appends a `u32` length prefix followed by the bytes.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_count(out, b.len());
    out.extend_from_slice(b);
}

/// Appends a varint length prefix followed by the bytes.
#[inline]
pub fn put_vbytes(out: &mut Vec<u8>, b: &[u8]) {
    put_uvarint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Appends a minimal LEB128 unsigned varint: seven bits a byte, low group
/// first, the top bit set on every byte but the last. Small values — the
/// offset and timestamp deltas batch frames are built from — take one byte
/// instead of eight.
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint: 0, −1, 1, −2, … become 0, 1, 2,
/// 3, …, so small magnitudes of either sign stay short.
#[inline]
pub fn put_svarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// `bytes` as UTF-8, borrowed.
///
/// # Errors
///
/// [`CodecError::BadUtf8`] when they are not UTF-8.
#[inline]
pub fn utf8(bytes: &[u8]) -> Result<&str, CodecError> {
    std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
}

/// A bounds-checked reader over an encoded buffer. Every accessor returns
/// a [`CodecError`] on truncated or malformed input instead of panicking,
/// so decoders degrade to "malformed blob" rather than crashing a recovery
/// path, and a read borrows from the buffer instead of copying.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let s = (self.buf.get(self.pos..))
            .and_then(|rest| rest.get(..n))
            .ok_or(CodecError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`CodecError::Trailing`] when bytes are left.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at the end of the input.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a flag byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadTag`] for a byte other than 0 or 1.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::BadTag(b)),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 4 bytes are left.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes are left.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a varint [`put_uvarint`] wrote.
    ///
    /// # Errors
    ///
    /// Anything it could not have written is a [`CodecError::BadVarint`]:
    /// more than 10 bytes, bits past `u64`, or a last byte of zero after
    /// the first (a non-minimal encoding).
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                return Err(CodecError::BadVarint);
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return if byte == 0 && shift > 0 {
                    Err(CodecError::BadVarint)
                } else {
                    Ok(v)
                };
            }
        }
        Err(CodecError::BadVarint)
    }

    /// Reads a varint [`put_svarint`] wrote.
    ///
    /// # Errors
    ///
    /// Those of [`uvarint`](Self::uvarint).
    #[inline]
    pub fn svarint(&mut self) -> Result<i64, CodecError> {
        let z = self.uvarint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a byte string [`put_bytes`] wrote: a `u32` length, then the
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the input ends first.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a byte string [`put_vbytes`] wrote: a varint length, then the
    /// bytes.
    ///
    /// # Errors
    ///
    /// Those of [`uvarint`](Self::uvarint) and [`take`](Self::take).
    #[inline]
    pub fn vbytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = usize::try_from(self.uvarint()?).map_err(|_| CodecError::Truncated)?;
        self.take(n)
    }

    /// Reads a list [`put_count`] counted: the count, then `item` that many
    /// times. A count is only trusted as far as the input can hold it: at
    /// most 2¹⁶ items are reserved up front, so a corrupt count fails as a
    /// short read instead of an allocation the size of the count.
    ///
    /// # Errors
    ///
    /// Those of [`u32`](Self::u32) and of `item`.
    #[inline]
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.u32()?;
        let mut out = Vec::with_capacity(n.min(1 << 16) as usize);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads a string [`put_str`] wrote, borrowed.
    ///
    /// # Errors
    ///
    /// Those of [`bytes`](Self::bytes), and [`CodecError::BadUtf8`].
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        utf8(self.bytes()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u8(&mut out, 1);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 3);
        put_bytes(&mut out, b"abc");
        put_vbytes(&mut out, b"de");
        put_str(&mut out, "topic-a");
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u8(), Ok(7));
        assert_eq!(cur.flag(), Ok(true));
        assert_eq!(cur.u32(), Ok(0xdead_beef));
        assert_eq!(cur.u64(), Ok(u64::MAX - 3));
        assert_eq!(cur.bytes(), Ok(&b"abc"[..]));
        assert_eq!(cur.vbytes(), Ok(&b"de"[..]));
        assert_eq!(cur.str(), Ok("topic-a"));
        assert!(cur.rest().is_empty());
        assert_eq!(cur.u8(), Err(CodecError::Truncated), "an exhausted cursor");
        assert_eq!(cur.finish(), Ok(()));
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
            assert_eq!(cur.uvarint(), Ok(v));
        }
        for v in scases {
            assert_eq!(cur.svarint(), Ok(v));
        }
        assert_eq!(cur.finish(), Ok(()));
        // Small values really are small on the wire.
        let mut one = Vec::new();
        put_uvarint(&mut one, 100);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn varints_the_writer_never_writes_are_rejected() {
        let long = [[0x80; 9].as_slice(), &[0x81, 0x01]].concat();
        let overflow = [[0xff; 9].as_slice(), &[0x02]].concat();
        for bad in [
            &[0xff; 11][..],
            &long,
            &overflow,
            &[0x81, 0x00],
            &[0x80, 0x80, 0x00],
        ] {
            assert_eq!(
                Cursor::new(bad).uvarint(),
                Err(CodecError::BadVarint),
                "{bad:x?}"
            );
        }
        let max = [[0xff; 9].as_slice(), &[0x01]].concat();
        assert_eq!(Cursor::new(&max).uvarint(), Ok(u64::MAX));
        assert_eq!(Cursor::new(&[0x80]).uvarint(), Err(CodecError::Truncated));
    }

    #[test]
    fn a_flag_is_zero_or_one() {
        assert_eq!(Cursor::new(&[0]).flag(), Ok(false));
        assert_eq!(Cursor::new(&[2]).flag(), Err(CodecError::BadTag(2)));
        assert_eq!(Cursor::new(&[0xff]).flag(), Err(CodecError::BadTag(0xff)));
    }

    #[test]
    fn truncation_and_bad_text_are_errors_not_panics() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        let mut cur = Cursor::new(&out[..out.len() - 1]);
        assert_eq!(cur.bytes(), Err(CodecError::Truncated));
        let mut cur = Cursor::new(&[0xff, 0xff, 0xff, 0xff]);
        assert_eq!(cur.bytes(), Err(CodecError::Truncated), "an absurd length");
        let mut cur = Cursor::new(&[0xff; 10]);
        assert_eq!(cur.vbytes(), Err(CodecError::BadVarint));
        let absurd = Cursor::new(&[0xff, 0xff, 0xff, 0xff, 7]).list(Cursor::u8);
        assert_eq!(absurd, Err(CodecError::Truncated), "a count past the input");
        let two = Cursor::new(&[2, 0, 0, 0, 7, 8]).list(Cursor::u8);
        assert_eq!(two, Ok(vec![7, 8]));
        let mut bad = Vec::new();
        put_bytes(&mut bad, &[b'a', 0xff]);
        assert_eq!(Cursor::new(&bad).str(), Err(CodecError::BadUtf8));
        let mut cur = Cursor::new(&[1, 2]);
        assert_eq!(cur.u8(), Ok(1));
        assert_eq!(cur.finish(), Err(CodecError::Trailing));
    }
}
