//! The SPE data model: dynamically typed events with provenance timestamps.
//!
//! Events flow between pipeline stages through broker topics, so they carry
//! a compact binary encoding. Every event keeps an `origin` timestamp — the
//! produce time of the source record it derives from — which is how the
//! monitoring layer measures end-to-end latency per data unit (the paper's
//! Fig. 5: "end-to-end latency for processing a data unit (i.e., a text
//! file) throughout the word count pipeline").

use std::collections::BTreeMap;
use std::fmt;

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

/// A `u32` codec length prefix; panics loudly if the payload could not be
/// round-tripped instead of silently truncating it.
fn len_u32(n: usize) -> u32 {
    u32::try_from(n).expect("length exceeds u32 codec prefix")
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
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode(buf: &[u8]) -> Result<Value, CodecError> {
        let mut pos = 0;
        Value::decode_from(buf, &mut pos)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(u8::from(*b));
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(&len_u32(s.len()).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::List(l) => {
                out.push(5);
                out.extend_from_slice(&len_u32(l.len()).to_le_bytes());
                for v in l {
                    v.encode_into(out);
                }
            }
            Value::Map(m) => {
                out.push(6);
                out.extend_from_slice(&len_u32(m.len()).to_le_bytes());
                for (k, v) in m {
                    out.extend_from_slice(&len_u32(k.len()).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    v.encode_into(out);
                }
            }
        }
    }

    /// Walks one encoded value without building it: the same bytes, tags,
    /// and UTF-8 checks as [`decode_from`](Value::decode_from), but zero
    /// allocation. Succeeds exactly when `decode_from` would.
    fn validate_from(buf: &[u8], pos: &mut usize) -> Result<(), CodecError> {
        let tag = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        match tag {
            0 => Ok(()),
            1 => {
                buf.get(*pos).ok_or(CodecError::Truncated)?;
                *pos += 1;
                Ok(())
            }
            2 | 3 => {
                read_n::<8>(buf, pos)?;
                Ok(())
            }
            4 => validate_str(buf, pos),
            5 => {
                let n = read_len(buf, pos)?;
                for _ in 0..n {
                    Value::validate_from(buf, pos)?;
                }
                Ok(())
            }
            6 => {
                let n = read_len(buf, pos)?;
                for _ in 0..n {
                    validate_str(buf, pos)?;
                    Value::validate_from(buf, pos)?;
                }
                Ok(())
            }
            t => Err(CodecError::BadTag(t)),
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Value, CodecError> {
        let tag = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        match tag {
            0 => Ok(Value::Null),
            1 => {
                let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
                *pos += 1;
                Ok(Value::Bool(b != 0))
            }
            2 => {
                let bytes = read_n::<8>(buf, pos)?;
                Ok(Value::Int(i64::from_le_bytes(bytes)))
            }
            3 => {
                let bytes = read_n::<8>(buf, pos)?;
                Ok(Value::Float(f64::from_le_bytes(bytes)))
            }
            4 => {
                let s = read_str(buf, pos)?;
                Ok(Value::Str(s))
            }
            5 => {
                let n = read_len(buf, pos)?;
                let mut l = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    l.push(Value::decode_from(buf, pos)?);
                }
                Ok(Value::List(l))
            }
            6 => {
                let n = read_len(buf, pos)?;
                let mut m = BTreeMap::new();
                for _ in 0..n {
                    let k = read_str(buf, pos)?;
                    let v = Value::decode_from(buf, pos)?;
                    m.insert(k, v);
                }
                Ok(Value::Map(m))
            }
            t => Err(CodecError::BadTag(t)),
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

/// A decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-value.
    Truncated,
    /// Unknown type tag.
    BadTag(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "unexpected end of encoded event"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn read_n<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], CodecError> {
    let end = *pos + N;
    let slice = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    Ok(slice.try_into().expect("length checked"))
}

fn read_len(buf: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let b = read_n::<4>(buf, pos)?;
    Ok(u32::from_le_bytes(b) as usize)
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let n = read_len(buf, pos)?;
    let end = *pos + n;
    let slice = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    String::from_utf8(slice.to_vec()).map_err(|_| CodecError::Truncated)
}

/// Skips one length-prefixed string, applying the same UTF-8 validation as
/// [`read_str`] without allocating.
fn validate_str(buf: &[u8], pos: &mut usize) -> Result<(), CodecError> {
    let n = read_len(buf, pos)?;
    let end = *pos + n;
    let slice = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    std::str::from_utf8(slice)
        .map(|_| ())
        .map_err(|_| CodecError::Truncated)
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

    /// Encodes to the compact wire format (magic byte `0xE7` first, so raw
    /// payloads are distinguishable from encoded events).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the [`to_bytes`](Event::to_bytes) encoding to `out` — a
    /// sink encodes straight into its producer's batch buffer with it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(0xE7);
        // Flag byte: bit 0 = key present, bits 1..7 = source index. The
        // source must survive the wire so a windowed join downstream of a
        // keyed shuffle still knows which input each event came from.
        let flag = u8::from(self.key.is_some()) | (self.source << 1);
        match &self.key {
            Some(k) => {
                out.push(flag);
                out.extend_from_slice(&len_u32(k.len()).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
            }
            None => out.push(flag),
        }
        out.extend_from_slice(&self.ts.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.origin.as_nanos().to_le_bytes());
        self.value.encode_into(out);
    }

    /// Decodes from the compact wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<Event, CodecError> {
        let mut pos = 0;
        let magic = *buf.first().ok_or(CodecError::Truncated)?;
        if magic != 0xE7 {
            return Err(CodecError::BadTag(magic));
        }
        pos += 1;
        let flag = *buf.get(pos).ok_or(CodecError::Truncated)?;
        pos += 1;
        let key = if flag & 1 == 1 {
            Some(read_str(buf, &mut pos)?)
        } else {
            None
        };
        let ts = SimTime::from_nanos(u64::from_le_bytes(read_n::<8>(buf, &mut pos)?));
        let origin = SimTime::from_nanos(u64::from_le_bytes(read_n::<8>(buf, &mut pos)?));
        let value = Value::decode_from(buf, &mut pos)?;
        Ok(Event {
            key,
            value,
            ts,
            origin,
            source: flag >> 1,
        })
    }

    /// Reads just the `origin` timestamp out of an encoded event without
    /// allocating anything — the monitor's per-record hot path. Performs
    /// the full validating walk [`from_bytes`](Event::from_bytes) does
    /// (magic, key and string UTF-8, value tags), so it returns `Some`
    /// exactly when `from_bytes` would return `Ok`.
    pub fn peek_origin(buf: &[u8]) -> Option<SimTime> {
        let mut pos = 0;
        if *buf.first()? != 0xE7 {
            return None;
        }
        pos += 1;
        let flag = *buf.get(pos)?;
        pos += 1;
        if flag & 1 == 1 {
            validate_str(buf, &mut pos).ok()?;
        }
        read_n::<8>(buf, &mut pos).ok()?; // ts
        let origin = SimTime::from_nanos(u64::from_le_bytes(read_n::<8>(buf, &mut pos).ok()?));
        Value::validate_from(buf, &mut pos).ok()?;
        Some(origin)
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
    fn keyless_event_round_trips() {
        let e = Event::new(Value::Int(7), SimTime::from_secs(1));
        let back = Event::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(back.key, None);
        assert_eq!(back.value, Value::Int(7));
    }

    #[test]
    fn truncated_input_errors() {
        let e = Event::new(Value::Str("abcdef".into()), SimTime::ZERO);
        let bytes = e.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Event::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
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

    #[test]
    fn display_is_readable() {
        let v = Value::map([("k", Value::List(vec![Value::Int(1), Value::Int(2)]))]);
        assert_eq!(v.to_string(), "{k: [1, 2]}");
    }
}
