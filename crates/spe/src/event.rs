//! The SPE data model: dynamically typed events with provenance timestamps.
//!
//! Events flow between pipeline stages through broker topics, so they carry
//! a compact binary encoding. Every event keeps an `origin` timestamp — the
//! produce time of the source record it derives from — which is how the
//! monitoring layer measures end-to-end latency per data unit (the paper's
//! Fig. 5: "end-to-end latency for processing a data unit (i.e., a text
//! file) throughout the word count pipeline").

// A truncating `as` here corrupts an encoded event; narrow with `try_from`.
#![deny(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;
use std::fmt;

use s2g_proto::codec::{
    put_str, put_svarint, put_u64, put_u8, put_uvarint, put_vbytes, utf8, CodecError, Cursor,
};
use s2g_sim::SimTime;

/// A dynamically typed value, the unit of data in stream jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    List(Vec<Value>),
    /// String-keyed map (sorted, deterministic iteration).
    Map(BTreeMap<String, Value>),
}

/// Writers of the compact format's parts: [`Value::encode_into`] is made
/// of them, and an encoder that writes a tree's bytes without building the
/// tree (a checkpoint capture) uses them the same way.
pub(crate) mod wire {
    use s2g_proto::codec::{put_count, put_str, put_u64, put_u8};

    /// A [`Value::Int`](super::Value::Int).
    pub(crate) fn int(out: &mut Vec<u8>, i: i64) {
        put_u8(out, 2);
        put_u64(out, i as u64);
    }

    /// A [`Value::Str`](super::Value::Str).
    pub(crate) fn str(out: &mut Vec<u8>, s: &str) {
        put_u8(out, 4);
        put_str(out, s);
    }

    /// The head of a [`Value::List`](super::Value::List) of `len` values,
    /// which follow.
    pub(crate) fn list(out: &mut Vec<u8>, len: usize) {
        put_u8(out, 5);
        put_count(out, len);
    }

    /// The head of a [`Value::Map`](super::Value::Map) of `len` entries,
    /// which follow as a key ([`put_str`]) and a value each, in key order.
    pub(crate) fn map(out: &mut Vec<u8>, len: usize) {
        put_u8(out, 6);
        put_count(out, len);
    }
}

impl Value {
    /// Builds a map value from key/value pairs.
    pub fn map<I: IntoIterator<Item = (&'static str, Value)>>(pairs: I) -> Value {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Fetches a field from a map value.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.get(name),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (ints widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Encodes this value in the compact binary format (the same encoding
    /// events use on the wire; checkpoints use it for state snapshots).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a value previously produced by [`encode`](Value::encode).
    /// A `Bool` byte is 0 or 1, and a map's keys are strictly ascending,
    /// as the encoder writes them, so an accepted value re-encodes to its
    /// input.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input, on a
    /// `Bool` byte other than 0 or 1, on map keys out of order or repeated,
    /// on lists and maps nested more than 128 deep, and on bytes past the
    /// end of the value.
    pub fn decode(buf: &[u8]) -> Result<Value, CodecError> {
        let mut cur = Cursor::new(buf);
        let value = Value::walk::<true>(&mut cur, 0)?;
        cur.finish()?;
        Ok(value)
    }

    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => put_u8(out, 0),
            Value::Bool(b) => {
                put_u8(out, 1);
                put_u8(out, u8::from(*b));
            }
            Value::Int(i) => wire::int(out, *i),
            Value::Float(f) => {
                put_u8(out, 3);
                put_u64(out, f.to_bits());
            }
            Value::Str(s) => wire::str(out, s),
            Value::List(l) => {
                wire::list(out, l.len());
                for v in l {
                    v.encode_into(out);
                }
            }
            Value::Map(m) => {
                wire::map(out, m.len());
                for (k, v) in m {
                    put_str(out, k);
                    v.encode_into(out);
                }
            }
        }
    }

    /// Reads one value that sits inside `depth` lists and maps. It builds
    /// the value when `BUILD`; otherwise it only checks it, the same bytes
    /// and the same rules, and allocates nothing (a string, list or map is
    /// returned empty).
    fn walk<const BUILD: bool>(cur: &mut Cursor<'_>, depth: usize) -> Result<Value, CodecError> {
        Ok(match cur.u8()? {
            0 => Value::Null,
            1 => Value::Bool(cur.flag()?),
            2 => Value::Int(cur.u64()? as i64),
            3 => Value::Float(f64::from_bits(cur.u64()?)),
            4 => {
                let s = cur.str()?;
                Value::Str(if BUILD { s.to_owned() } else { String::new() })
            }
            5 => {
                let (n, depth) = (cur.u32()?, nested(depth)?);
                let mut l = Vec::with_capacity(if BUILD { n.min(1 << 16) as usize } else { 0 });
                for _ in 0..n {
                    let v = Value::walk::<BUILD>(cur, depth)?;
                    if BUILD {
                        l.push(v);
                    } else {
                        owns_nothing(v);
                    }
                }
                Value::List(l)
            }
            6 => {
                let (n, depth) = (cur.u32()?, nested(depth)?);
                let mut m = BTreeMap::new();
                let mut last: Option<&str> = None;
                for _ in 0..n {
                    let k = cur.str()?;
                    if last.is_some_and(|last| last >= k) {
                        return Err(CodecError::NonCanonical);
                    }
                    last = Some(k);
                    let v = Value::walk::<BUILD>(cur, depth)?;
                    if BUILD {
                        m.insert(k.to_owned(), v);
                    } else {
                        owns_nothing(v);
                    }
                }
                Value::Map(m)
            }
            t => return Err(CodecError::BadTag(t)),
        })
    }

    /// Makes this value the string `text`, reusing the buffer of the string
    /// it holds, if it holds one.
    pub(crate) fn set_str(&mut self, text: &str) {
        match self {
            Value::Str(s) => {
                s.clear();
                s.push_str(text);
            }
            other => *other = Value::Str(text.to_owned()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The deepest nesting of lists and maps a decoder accepts. What the
/// engine itself encodes nests a few levels deep (a checkpoint capture
/// holding an operator's buffered events is the deepest); the bound stops
/// a damaged or hostile blob from recursing the decoder off its stack.
const MAX_DEPTH: usize = 128;

/// The depth inside one more list or map than `depth`.
fn nested(depth: usize) -> Result<usize, CodecError> {
    (depth < MAX_DEPTH)
        .then_some(depth + 1)
        .ok_or(CodecError::TooDeep)
}

/// Drops a value that a walk which only checks returned without running
/// its drop: such a value is empty, so it owns no memory and nothing
/// leaks, and the check saves a call per value.
fn owns_nothing(v: Value) {
    let _ = std::mem::ManuallyDrop::new(v);
}

/// The event header's flag bits.
mod flag {
    /// A key follows.
    pub(super) const KEYED: u8 = 1;
    /// The value is a string that runs to the end of the record, with no
    /// tag and no length.
    pub(super) const STR_TAIL: u8 = 1 << 1;
    /// `origin == ts`: no delta follows.
    pub(super) const SAME_ORIGIN: u8 = 1 << 2;
    /// A nonzero source byte follows.
    pub(super) const SOURCE: u8 = 1 << 3;
    /// Bits that must be 0. They also keep text from reading as an
    /// event: after a UTF-8 lead byte of `0xE7` comes a continuation
    /// byte, `0x80` or more.
    pub(super) const RESERVED: u8 = 0xF0;
}

/// An encoded event's header, read the same way by every decoder.
struct Header<'a> {
    key: Option<&'a str>,
    ts: u64,
    origin: u64,
    source: u8,
    /// The value is a string: the rest of the record, with no tag and no
    /// length.
    str_tail: bool,
}

impl<'a> Header<'a> {
    /// Reads the header at the start of `cur`, leaving `cur` at the value,
    /// and rejects a top-level value that is a tagged string, which the
    /// encoder always writes as a string tail.
    fn read(cur: &mut Cursor<'a>) -> Result<Self, CodecError> {
        match cur.u8()? {
            0xE7 => {}
            magic => return Err(CodecError::BadTag(magic)),
        }
        let flags = cur.u8()?;
        if flags & flag::RESERVED != 0 {
            return Err(CodecError::NonCanonical);
        }
        let source = match flags & flag::SOURCE {
            0 => 0,
            _ => match cur.u8()? {
                0 => return Err(CodecError::NonCanonical),
                source => source,
            },
        };
        let key = match flags & flag::KEYED {
            0 => None,
            _ => Some(utf8(cur.vbytes()?)?),
        };
        let ts = cur.uvarint()?;
        let origin = match flags & flag::SAME_ORIGIN {
            0 => match cur.svarint()? {
                0 => return Err(CodecError::NonCanonical),
                delta => ts.wrapping_sub(delta as u64),
            },
            _ => ts,
        };
        let str_tail = flags & flag::STR_TAIL != 0;
        if !str_tail && cur.rest().first() == Some(&4) {
            return Err(CodecError::NonCanonical);
        }
        Ok(Header {
            key,
            ts,
            origin,
            source,
            str_tail,
        })
    }
}

/// One event flowing through a stream job.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Grouping key (set by `KeyBy`).
    pub key: Option<String>,
    /// The payload.
    pub value: Value,
    /// Event time (source record's produce time).
    pub ts: SimTime,
    /// Provenance: produce time of the original source record this event
    /// derives from (minimum across merged inputs for aggregates).
    pub origin: SimTime,
    /// Which job input this event came from (0 = first source topic), used
    /// by joins.
    pub source: u8,
}

impl Event {
    /// An event with `value` at time `ts`; origin defaults to `ts`.
    pub fn new(value: Value, ts: SimTime) -> Self {
        Event {
            key: None,
            value,
            ts,
            origin: ts,
            source: 0,
        }
    }

    /// Builder: sets the key.
    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.key = Some(key.into());
        self
    }

    /// Builder: sets the origin timestamp.
    pub fn with_origin(mut self, origin: SimTime) -> Self {
        self.origin = origin;
        self
    }

    /// Encodes to the compact wire format:
    ///
    /// | bytes | field |
    /// |---|---|
    /// | 1 | magic `0xE7`, so raw payloads are distinguishable from events |
    /// | 1 | flag: bit 0 = keyed, bit 1 = string tail, bit 2 = `origin == ts`, bit 3 = source byte; bits 4–7 are 0 |
    /// | 0 or 1 | if bit 3, `source`, 1–255 (no byte is source 0) |
    /// | 0 or 1–10 + n | if keyed, the key's length n as a varint, then its bytes |
    /// | 1–10 | `ts` in nanoseconds, a varint |
    /// | 0 or 1–10 | unless bit 2, `ts − origin` (wrapping, nonzero), a zigzag varint |
    /// | rest | if bit 1, a string value's UTF-8 bytes, to the end of the record; else the value, in [`Value::encode`]'s format and not a string |
    ///
    /// The varints are [`s2g_proto::codec`]'s, read by its one strict
    /// cursor: LEB128, seven bits a byte, low group first, the top bit set
    /// on every byte but the last, and minimal (no trailing zero group);
    /// any other form is a [`CodecError::BadVarint`]. The record frame
    /// holds the record's length, so a string value needs neither tag nor
    /// length. An event has one encoding: the decoders reject any other,
    /// a header as [`CodecError::NonCanonical`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the [`to_bytes`](Event::to_bytes) encoding to `out` — a
    /// sink encodes straight into its producer's batch buffer with it.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let (ts, origin) = (self.ts.as_nanos(), self.origin.as_nanos());
        let text = self.value.as_str();
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        let flags = bit(self.key.is_some(), flag::KEYED)
            | bit(text.is_some(), flag::STR_TAIL)
            | bit(ts == origin, flag::SAME_ORIGIN)
            | bit(self.source != 0, flag::SOURCE);
        out.extend_from_slice(&[0xE7, flags]);
        // The source survives the wire so a windowed join downstream of a
        // keyed shuffle still knows which input each event came from.
        if self.source != 0 {
            out.push(self.source);
        }
        if let Some(k) = &self.key {
            put_vbytes(out, k.as_bytes());
        }
        put_uvarint(out, ts);
        if ts != origin {
            put_svarint(out, ts.wrapping_sub(origin) as i64);
        }
        match text {
            Some(s) => out.extend_from_slice(s.as_bytes()),
            None => self.value.encode_into(out),
        }
    }

    /// Decodes from the compact wire format: [`decode_over`] a blank
    /// event.
    ///
    /// [`decode_over`]: Event::decode_over
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input, on lists
    /// and maps nested more than 128 deep, and on bytes past the end of the
    /// event.
    pub fn from_bytes(buf: &[u8]) -> Result<Event, CodecError> {
        let mut event = Event::new(Value::Null, SimTime::ZERO);
        event.decode_over(buf)?;
        Ok(event)
    }

    /// Decodes the compact wire format over this event, overwriting every
    /// field and reusing the strings it holds: its key's, and its value's
    /// when both it and the encoded value are strings. An SPE batch decodes
    /// over the events of the batch before, so a record whose shape
    /// repeats allocates nothing.
    ///
    /// # Errors
    ///
    /// Those of [`from_bytes`](Event::from_bytes), on the same input; the
    /// event is then unchanged.
    pub fn decode_over(&mut self, buf: &[u8]) -> Result<(), CodecError> {
        let mut cur = Cursor::new(buf);
        let h = Header::read(&mut cur)?;
        if h.str_tail {
            // A string over a string reuses its buffer.
            self.value.set_str(utf8(cur.rest())?);
        } else {
            let value = Value::walk::<true>(&mut cur, 0)?;
            cur.finish()?;
            self.value = value;
        }
        self.set_key(h.key);
        (self.ts, self.origin) = (SimTime::from_nanos(h.ts), SimTime::from_nanos(h.origin));
        self.source = h.source;
        Ok(())
    }

    /// Sets the key, reusing the buffer of the one held, if any.
    pub(crate) fn set_key(&mut self, key: Option<&str>) {
        match (&mut self.key, key) {
            (Some(held), Some(k)) => {
                held.clear();
                held.push_str(k);
            }
            (held, k) => *held = k.map(str::to_owned),
        }
    }

    /// Reads just the `origin` timestamp out of an encoded event without
    /// allocating anything — the monitor's per-record hot path. It is the
    /// walk [`from_bytes`](Event::from_bytes) does (magic, header, key and
    /// string UTF-8, value tags and order), checking the value without
    /// building it, so it returns `Some` exactly when `from_bytes` would
    /// return `Ok`.
    pub fn peek_origin(buf: &[u8]) -> Option<SimTime> {
        let mut cur = Cursor::new(buf);
        let h = Header::read(&mut cur).ok()?;
        if h.str_tail {
            utf8(cur.rest()).ok()?;
        } else {
            owns_nothing(Value::walk::<false>(&mut cur, 0).ok()?);
            cur.finish().ok()?;
        }
        Some(SimTime::from_nanos(h.origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let e = Event::new(v.clone(), SimTime::from_millis(123))
            .with_key("k1")
            .with_origin(SimTime::from_millis(100));
        let bytes = e.to_bytes();
        // Appending to a buffer that already holds bytes writes the same
        // encoding after them and touches nothing before.
        let mut shared = b"earlier record".to_vec();
        e.encode_into(&mut shared);
        assert_eq!(&shared[..14], b"earlier record");
        assert_eq!(&shared[14..], &bytes[..]);
        let back = Event::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.key.as_deref(), Some("k1"));
        assert_eq!(back.ts, SimTime::from_millis(123));
        assert_eq!(back.origin, SimTime::from_millis(100));
        assert_eq!(back.value, v);
    }

    #[test]
    fn round_trips_all_value_kinds() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Int(-42));
        round_trip(Value::Float(3.25));
        round_trip(Value::Str("hello world".into()));
        round_trip(Value::List(vec![
            Value::Int(1),
            Value::Str("x".into()),
            Value::Null,
        ]));
        round_trip(Value::map([
            ("a", Value::Int(1)),
            ("b", Value::List(vec![Value::Float(0.5)])),
            ("c", Value::map([("nested", Value::Bool(false))])),
        ]));
    }

    #[test]
    fn decoding_over_an_event_reuses_its_strings_and_overwrites_the_rest() {
        let mut target = Event::new(Value::Str("a longer old value".into()), SimTime::ZERO)
            .with_key("an old key");
        target.source = 5;
        let (key_at, value_at) = (
            target.key.as_deref().map(str::as_ptr),
            target.value.as_str().map(str::as_ptr),
        );
        let mut e = Event::new(Value::Str("new".into()), SimTime::from_millis(9)).with_key("k");
        e.source = 2;
        target.decode_over(&e.to_bytes()).expect("decodes");
        assert_eq!(target, e);
        assert_eq!(target.key.as_deref().map(str::as_ptr), key_at);
        assert_eq!(target.value.as_str().map(str::as_ptr), value_at);
        // Another shape replaces what it cannot reuse.
        let other = Event::new(Value::List(vec![Value::Int(1)]), SimTime::from_millis(3));
        target.decode_over(&other.to_bytes()).expect("decodes");
        assert_eq!(target, other);
    }

    #[test]
    fn keyless_event_round_trips() {
        let e = Event::new(Value::Int(7), SimTime::from_secs(1));
        let back = Event::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(back.key, None);
        assert_eq!(back.value, Value::Int(7));
    }

    #[test]
    fn truncated_input_errors() {
        // A cut inside the header fails. A string value runs to the end of
        // the record, so a cut inside it is that string's prefix: a string
        // at a char boundary, an error elsewhere.
        let text = "ab\u{e9}\u{20ac}";
        let mut e = Event::new(Value::Str(text.into()), SimTime::from_millis(300))
            .with_key("k")
            .with_origin(SimTime::from_millis(299));
        e.source = 7;
        let bytes = e.to_bytes();
        let header = bytes.len() - text.len();
        for cut in 0..bytes.len() {
            let got = decode_all(&bytes[..cut]);
            match cut.checked_sub(header) {
                Some(at) if text.is_char_boundary(at) => {
                    let value = Value::Str(text[..at].into());
                    assert_eq!(got, Ok(Event { value, ..e.clone() }), "cut at {cut}");
                }
                _ => assert!(got.is_err(), "cut at {cut} must fail"),
            }
        }
    }

    #[test]
    fn bad_tag_errors() {
        let mut bytes = Event::new(Value::Null, SimTime::ZERO).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 99;
        assert_eq!(Event::from_bytes(&bytes), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn bytes_past_the_event_are_rejected() {
        // A valid event followed by junk once decoded as the event alone.
        let e = Event::new(Value::Int(5), SimTime::from_millis(2)).with_key("k");
        let mut bytes = e.to_bytes();
        assert_eq!(Event::from_bytes(&bytes), Ok(e));
        bytes.extend_from_slice(&[0xde, 0xad]);
        assert_eq!(Event::from_bytes(&bytes), Err(CodecError::Trailing));
        assert_eq!(Event::peek_origin(&bytes), None);
    }

    #[test]
    fn peek_origin_mirrors_from_bytes() {
        let e = Event::new(
            Value::map([
                ("a", Value::Int(1)),
                (
                    "b",
                    Value::List(vec![Value::Str("deep".into()), Value::Null]),
                ),
            ]),
            SimTime::from_millis(123),
        )
        .with_key("k1")
        .with_origin(SimTime::from_millis(77));
        let bytes = e.to_bytes();
        assert_eq!(Event::peek_origin(&bytes), Some(SimTime::from_millis(77)));
        // Agreement on every truncation: peek succeeds iff decode does.
        for cut in 0..bytes.len() {
            assert_eq!(
                Event::peek_origin(&bytes[..cut]).is_some(),
                Event::from_bytes(&bytes[..cut]).is_ok(),
                "cut at {cut}"
            );
        }
        // And on malformed tags / wrong magic.
        let mut bad_tag = bytes.clone();
        let last = bad_tag.len() - 1;
        bad_tag[last] = 99;
        assert_eq!(Event::peek_origin(&bad_tag), None);
        let mut bad_magic = bytes;
        bad_magic[0] = 0;
        assert_eq!(Event::peek_origin(&bad_magic), None);
        assert_eq!(Event::peek_origin(b"raw payload"), None);
        // And on a trailing byte.
        let mut trailing = e.to_bytes();
        trailing.push(0);
        assert_eq!(Event::peek_origin(&trailing), None);
        assert!(Event::from_bytes(&trailing).is_err());
    }

    /// Decodes `bytes` with every decoder, checks that they agree, and
    /// returns what `from_bytes` returned.
    fn decode_all(bytes: &[u8]) -> Result<Event, CodecError> {
        let fresh = Event::from_bytes(bytes);
        let origin = fresh.as_ref().ok().map(|e| e.origin);
        assert_eq!(Event::peek_origin(bytes), origin, "peek on {bytes:x?}");
        let mut over = Event::new(Value::Str("old".into()), SimTime::from_millis(1)).with_key("k");
        let res = over.decode_over(bytes).map(|()| over);
        assert_eq!(res, fresh, "decode_over on {bytes:x?}");
        fresh
    }

    #[test]
    fn header_times_round_trip_across_varint_widths() {
        // 2^28 - 1 is the largest `ts` of 4 varint bytes.
        for (ts, ts_bytes) in [(0, 1), ((1 << 28) - 1, 4), (1 << 28, 5), (u64::MAX, 10)] {
            for key in [None, Some("k1")] {
                let mut e = Event::new(Value::Null, SimTime::from_nanos(ts));
                e.key = key.map(str::to_owned);
                let bytes = e.to_bytes();
                let key_bytes = key.map_or(0, |k| 1 + k.len());
                // Magic, flag, key, ts and the `Null` tag: `origin == ts`
                // is a flag bit, not a byte.
                assert_eq!(bytes.len(), 2 + key_bytes + ts_bytes + 1, "ts {ts}");
                assert_eq!(bytes[2 + key_bytes + ts_bytes], 0, "the value after ts");
                assert_eq!(decode_all(&bytes), Ok(e));
            }
        }
        // An origin after `ts`, and `ts - origin` wrapping either way.
        let at = |ns| SimTime::from_nanos(ns);
        for (ts, origin) in [(5, 9), (0, u64::MAX), (u64::MAX, 0), (1 << 40, 3)] {
            let e = Event::new(Value::Int(1), at(ts)).with_origin(at(origin));
            assert_eq!(decode_all(&e.to_bytes()), Ok(e));
        }
        // `ts - origin` wraps to -1 there: one byte, after the ts.
        let e = Event::new(Value::Null, at(u64::MAX)).with_origin(at(0));
        let bytes = e.to_bytes();
        assert_eq!(bytes.len(), 2 + 10 + 1 + 1);
        assert_eq!(bytes[12], 1, "-1, zigzagged");
    }

    #[test]
    fn a_string_event_spends_flag_bits_not_bytes() {
        // From 2^28 ns to 2^35 ns (0.27 s to 34 s) a `ts` is 5 varint
        // bytes: magic, flag, ts and the string's 64 B.
        let text = "x".repeat(64);
        for ts in [1 << 28, (1 << 35) - 1] {
            let e = Event::new(Value::Str(text.clone()), SimTime::from_nanos(ts));
            assert_eq!(e.to_bytes().len(), 71, "ts {ts}");
            let keyed = e.with_key("abcde");
            assert_eq!(keyed.to_bytes().len(), 77, "ts {ts}");
            assert_eq!(decode_all(&keyed.to_bytes()), Ok(keyed));
        }
    }

    #[test]
    fn every_source_round_trips() {
        let plain = Event::new(Value::Int(1), SimTime::from_millis(4)).with_key("k");
        for source in 0..=u8::MAX {
            let e = Event {
                source,
                ..plain.clone()
            };
            let bytes = e.to_bytes();
            // Source 0 is no byte at all.
            let extra = usize::from(source != 0);
            assert_eq!(bytes.len(), plain.to_bytes().len() + extra, "{source}");
            assert_eq!(decode_all(&bytes), Ok(e), "source {source}");
        }
    }

    #[test]
    fn non_canonical_headers_are_rejected_by_every_decoder() {
        // Each beside its one accepted form: a `Null` at ts 0, then
        // source 1, then origin 0 at ts 1, then the string "x".
        let cases: [(&[u8], &[u8]); 4] = [
            (&[0xE7, 0x14, 0, 0], &[0xE7, 0x04, 0, 0]),
            (&[0xE7, 0x0C, 0, 0, 0], &[0xE7, 0x0C, 1, 0, 0]),
            (&[0xE7, 0x00, 1, 0, 0], &[0xE7, 0x00, 1, 2, 0]),
            (
                &[0xE7, 0x04, 0, 4, 1, 0, 0, 0, b'x'],
                &[0xE7, 0x06, 0, b'x'],
            ),
        ];
        for (bad, good) in cases {
            assert_eq!(decode_all(bad), Err(CodecError::NonCanonical), "{bad:x?}");
            let e = decode_all(good).expect("the canonical form decodes");
            assert_eq!(e.to_bytes(), good);
        }
        // Every reserved bit, alone and beside each other bit.
        for reserved in 4..8 {
            for other in 0..4 {
                let flags = (1 << reserved) | (1 << other);
                let bytes = [0xE7, flags, 1, 1, 0, 2, 0];
                assert_eq!(decode_all(&bytes), Err(CodecError::NonCanonical));
            }
        }
    }

    #[test]
    fn text_that_starts_with_the_magic_byte_is_no_event() {
        // U+7000–U+7FFF lead with 0xE7, then a continuation byte: a flag
        // with reserved bits set.
        for c in '\u{7000}'..='\u{7fff}' {
            for text in [c.to_string(), format!("{c}\u{1}\0\0 plain text")] {
                assert_eq!(text.as_bytes()[0], 0xE7);
                let got = decode_all(text.as_bytes());
                assert_eq!(got, Err(CodecError::NonCanonical), "{text:?}");
            }
        }
    }

    #[test]
    fn every_accepted_header_re_encodes_to_itself() {
        let mut sourced = Event::new(Value::Str("a tail".into()), SimTime::from_millis(20))
            .with_key("key")
            .with_origin(SimTime::from_millis(19));
        sourced.source = 200;
        let events = [
            Event::new(Value::Int(7), SimTime::from_nanos(300)),
            Event::new(Value::Str("v".into()), SimTime::from_millis(20))
                .with_key("key")
                .with_origin(SimTime::from_millis(19)),
            sourced,
        ];
        for e in events {
            let bytes = e.to_bytes();
            // Every byte of the header, and the value's first byte (its
            // tag, or a string tail's first byte), set to each of a
            // varint's edge values and to each flag bit.
            let value = e.value.as_str().map_or(e.value.encode().len(), str::len);
            let header = bytes.len() - value + 1;
            for at in 1..header {
                for b in [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x7f, 0x80, 0x81, 0xff] {
                    let mut damaged = bytes.clone();
                    damaged[at] = b;
                    if let Ok(back) = decode_all(&damaged) {
                        assert_eq!(back.to_bytes(), damaged, "byte {at} = {b:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_varints_are_rejected_by_every_decoder() {
        let long = [[0x80; 9].as_slice(), &[0x81, 0x01]].concat();
        let overflow = [[0xff; 9].as_slice(), &[0x02]].concat();
        let non_minimal = vec![0x85, 0x00];
        for bad in [long, overflow, non_minimal] {
            // In a key's length after a source byte, a `ts`, and an
            // origin's delta, in turn.
            let headers = [
                [&[0xE7, 0x0D, 3][..], &bad, b"k", &[1]].concat(),
                [&[0xE7, 0x04][..], &bad].concat(),
                [&[0xE7, 0x00][..], &[1], &bad].concat(),
            ];
            for mut bytes in headers {
                bytes.push(0); // A `Null` value.
                assert_eq!(decode_all(&bytes), Err(CodecError::BadVarint), "{bytes:x?}");
            }
        }
        // The longest well-formed varints are accepted: a `ts`, and a
        // delta after it.
        let max = [[0xff; 9].as_slice(), &[0x01]].concat();
        let bytes = [&[0xE7, 0x04][..], &max, &[0]].concat();
        let ts = decode_all(&bytes).map(|e| e.ts);
        assert_eq!(ts, Ok(SimTime::from_nanos(u64::MAX)));
        let bytes = [&[0xE7, 0x00, 0][..], &max, &[0]].concat();
        let origin = decode_all(&bytes).map(|e| e.origin);
        assert_eq!(origin, Ok(SimTime::from_nanos(1 << 63)));
    }

    #[test]
    fn value_accessors() {
        let v = Value::map([
            ("n", Value::Int(3)),
            ("f", Value::Float(1.5)),
            ("s", Value::Str("x".into())),
        ]);
        assert_eq!(v.field("n").unwrap().as_int(), Some(3));
        assert_eq!(v.field("n").unwrap().as_float(), Some(3.0));
        assert_eq!(v.field("f").unwrap().as_float(), Some(1.5));
        assert_eq!(v.field("s").unwrap().as_str(), Some("x"));
        assert!(v.field("missing").is_none());
        assert!(Value::Null.field("x").is_none());
    }

    /// `depth` lists, each holding the next, around a `Null`.
    fn nested_lists(depth: usize) -> Value {
        (0..depth).fold(Value::Null, |inner, _| Value::List(vec![inner]))
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        // An event header, then a one-element list 20 000 times: about
        // 100 KB, which recursed once per list before the bound.
        let mut deep = Event::new(Value::Null, SimTime::ZERO).to_bytes();
        deep.pop();
        let lists = [5, 1, 0, 0, 0].repeat(20_000);
        deep.extend_from_slice(&lists);
        deep.push(0);
        assert_eq!(Event::from_bytes(&deep), Err(CodecError::TooDeep));
        assert_eq!(Event::peek_origin(&deep), None);
        assert_eq!(Value::decode(&lists), Err(CodecError::TooDeep));
        // At the bound a value still round-trips, alone and in an event.
        let deepest = nested_lists(MAX_DEPTH);
        assert_eq!(Value::decode(&deepest.encode()), Ok(deepest.clone()));
        let e = Event::new(deepest, SimTime::from_millis(5));
        assert_eq!(Event::from_bytes(&e.to_bytes()), Ok(e.clone()));
        assert_eq!(Event::peek_origin(&e.to_bytes()), Some(e.origin));
        // One more level is refused.
        let over = nested_lists(MAX_DEPTH + 1).encode();
        assert_eq!(Value::decode(&over), Err(CodecError::TooDeep));
    }

    #[test]
    fn values_the_encoder_never_writes_are_rejected_by_every_decoder() {
        // A `Bool` byte of 2, alone and as an event's value.
        assert_eq!(Value::decode(&[1, 2]), Err(CodecError::BadTag(2)));
        assert_eq!(
            decode_all(&[0xE7, 0x04, 0, 1, 2]),
            Err(CodecError::BadTag(2))
        );
        // A two-entry map of nulls, by its keys.
        let map = |keys: [&str; 2]| {
            let mut out = vec![6, 2, 0, 0, 0];
            for k in keys {
                put_str(&mut out, k);
                put_u8(&mut out, 0);
            }
            out
        };
        let sorted = Value::map([("a", Value::Null), ("b", Value::Null)]);
        assert_eq!(Value::decode(&map(["a", "b"])), Ok(sorted));
        for keys in [["b", "a"], ["a", "a"]] {
            assert_eq!(Value::decode(&map(keys)), Err(CodecError::NonCanonical));
            let event = [&[0xE7, 0x04, 0][..], &map(keys)].concat();
            assert_eq!(
                decode_all(&event),
                Err(CodecError::NonCanonical),
                "{keys:?}"
            );
        }
        // Keys compare as bytes, as a `BTreeMap<String, _>` orders them.
        assert_eq!(Value::decode(&map(["Z", "a"])).map(|_| ()), Ok(()));
        assert!(Value::decode(&map(["a", "Z"])).is_err());
    }

    #[test]
    fn value_decode_rejects_trailing_bytes() {
        let mut bytes = Value::Int(7).encode();
        bytes.push(0);
        assert_eq!(Value::decode(&bytes), Err(CodecError::Trailing));
    }

    #[test]
    fn display_is_readable() {
        let v = Value::map([("k", Value::List(vec![Value::Int(1), Value::Int(2)]))]);
        assert_eq!(v.to_string(), "{k: [1, 2]}");
    }
}
