//! A minimal JSON parser used to validate exported Chrome traces.
//!
//! The build environment is offline (no `serde_json`), and the CI gate
//! needs to prove that `--fig timeline` writes a structurally valid trace.
//! This module implements just enough of RFC 8259 to parse a trace file
//! and check the fields `chrome://tracing` requires, in time linear in the
//! size of the document. It recurses once per array or object, so it
//! refuses to nest deeper than [`MAX_DEPTH`] rather than overflow the
//! stack.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object field `key`, if this is an object containing it.
    pub(crate) fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub(crate) fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or a
/// complaint about trailing input.
pub(crate) fn parse(input: &str) -> Result<JsonValue, String> {
    let mut pos = 0usize;
    let v = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

/// How many arrays and objects a value may sit inside (a trace needs three).
const MAX_DEPTH: usize = 128;

/// Parses the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nested more than {MAX_DEPTH} deep at byte {pos}"))
        }
        Some(b'{') => parse_object(s, pos, depth + 1),
        Some(b'[') => parse_array(s, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(s, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// A number by RFC 8259's grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    *pos += usize::from(b.get(*pos) == Some(&b'-'));
    let leading_zero = b.get(*pos) == Some(&b'0');
    let int = digits(pos);
    let mut ok = int == 1 || (int > 1 && !leading_zero);
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok &= digits(pos) > 0;
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        *pos += usize::from(matches!(b.get(*pos), Some(b'+' | b'-')));
        ok &= digits(pos) > 0;
    }
    let text = String::from_utf8_lossy(&b[start..*pos]);
    match text.parse::<f64>() {
        Ok(n) if ok => Ok(JsonValue::Number(n)),
        _ => Err(format!("invalid number '{text}' at byte {start}")),
    }
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: no sign, no fewer.
                        let hex = b.get(*pos + 1..*pos + 5);
                        let hex = hex.filter(|h| h.iter().all(u8::is_ascii_hexdigit));
                        let hex = hex.ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let digit = |d: &u8| char::from(*d).to_digit(16).unwrap_or(0);
                        let code = hex.iter().fold(0, |code, d| code * 16 + digit(d));
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Every plain byte up to the next quote or backslash, in one
                // copy. Both are ASCII, so the run ends on a char boundary
                // of `s`, which is valid UTF-8 already.
                let run = b[*pos..].iter().position(|c| matches!(c, b'"' | b'\\'));
                let end = run.map_or(b.len(), |run| *pos + run);
                out.push_str(&s[*pos..end]);
                *pos = end;
            }
        }
    }
}

fn parse_array(s: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(s: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(s, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events, metadata included.
    pub events: usize,
    /// Complete spans (`ph: "X"`).
    pub spans: usize,
    /// Instant events (`ph: "i"`).
    pub instants: usize,
    /// Distinct numeric `pid`s seen.
    pub processes: usize,
}

/// Parses `input` and checks the Chrome trace-event contract: a top-level
/// object with a `traceEvents` array whose entries carry a string `ph`, a
/// numeric `ts`, a `pid`, and a string `name`; `X` spans also need a
/// numeric `dur`.
///
/// # Errors
///
/// Returns a description of the first violated requirement.
pub fn validate_chrome_trace(input: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse(input)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents field")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut spans = 0;
    let mut instants = 0;
    let mut pids: Vec<u64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string ph"))?;
        e.get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric ts"))?;
        let pid = e
            .get("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        e.get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string name"))?;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        match ph {
            "X" => {
                e.get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("event {i}: X span missing dur"))?;
                spans += 1;
            }
            "i" => instants += 1,
            _ => {}
        }
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        spans,
        instants,
        processes: pids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validates_a_good_trace_and_rejects_a_bad_one() {
        // One line per event: `s2g-lint`'s scanner reads a string that
        // spans lines as code, and a `}` of it would end this module.
        let good = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"append","cat":"broker","ph":"X","ts":10.5,"dur":2,"pid":1,"tid":1},"#,
            r#"{"name":"kill","cat":"fault","ph":"i","ts":20,"pid":2,"tid":1,"s":"p"}"#,
            "]}"
        );
        let s = validate_chrome_trace(good).unwrap();
        assert_eq!(s.events, 2);
        assert_eq!(s.spans, 1);
        assert_eq!(s.instants, 1);
        assert_eq!(s.processes, 2);

        let missing_ts = r#"{"traceEvents":[{"name":"a","ph":"i","pid":1}]}"#;
        assert!(validate_chrome_trace(missing_ts)
            .unwrap_err()
            .contains("ts"));
        let missing_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1}]}"#;
        assert!(validate_chrome_trace(missing_dur)
            .unwrap_err()
            .contains("dur"));
        assert!(validate_chrome_trace("[]").is_err());
    }

    #[test]
    fn nesting_stops_at_max_depth_with_an_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested more than 128 deep"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(200), "}".repeat(200));
        assert!(parse(&objects).unwrap_err().contains("nested"));
        // Unclosed, far deeper than any stack would hold one frame each.
        assert!(validate_chrome_trace(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn a_unicode_escape_takes_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u04""#,
            r#""\u04G1""#,
            r#""\u""#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(parse(r#""\u00e9\u0041""#).unwrap().as_str(), Some("éA"));
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "+1", "01", "-01", ".5", "1.", "-", "1e", "1e+", "-.5", "1.e3", "0x1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let good = [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-1.25e2", -125.0),
        ];
        for (text, want) in good.into_iter().chain([("1E-2", 0.01), ("2e+1", 20.0)]) {
            assert_eq!(parse(text).unwrap().as_f64(), Some(want), "{text}");
        }
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn plain_runs_keep_multibyte_text_between_escapes() {
        let v = parse(r#""a€b\n😀\"ç\\""#).unwrap();
        assert_eq!(v.as_str(), Some("a€b\n😀\"ç\\"));
        assert!(parse("\"€").is_err());
    }
}
