//! Causal event tracing with Chrome-trace export.
//!
//! Instrumented processes emit typed events — spans for work with a
//! duration (operator batches, checkpoints, recovery phases) and instants
//! for point occurrences (produce, append, fetch, txn transitions, fault
//! injection). The collected trace serializes to the Chrome trace-event
//! JSON format, so `chrome://tracing` or Perfetto can render a worker
//! crash and its recovery as a timeline instead of a log scrape.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use s2g_sim::{SimDuration, SimTime};

/// The kind of a trace event, mirroring Chrome's `ph` phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span open (`ph: "B"`).
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// A complete span with a known duration (`ph: "X"`).
    Complete,
    /// A point event (`ph: "i"`).
    Instant,
}

impl TracePhase {
    /// The Chrome `ph` letter.
    pub fn ph(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Complete => "X",
            TracePhase::Instant => "i",
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Span length for [`TracePhase::Complete`]; zero otherwise.
    pub dur: SimDuration,
    /// Event kind.
    pub phase: TracePhase,
    /// Emitting process identity (`broker-0`, `job/stage/instance`, ...).
    pub scope: String,
    /// Event name (`append`, `checkpoint`, `recovery:replay`, ...).
    pub name: String,
    /// Category (`broker`, `spe`, `txn`, `fault`, ...).
    pub cat: &'static str,
}

/// The trace collector. Created disabled; when disabled every record call
/// is a cheap no-op, so instrumentation can stay unconditional.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
}

/// A shared handle to a [`Tracer`].
pub(crate) type TracerHandle = Rc<RefCell<Tracer>>;

impl Tracer {
    /// Creates a disabled tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Turns collection on or off.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether events are being collected.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn push(
        &mut self,
        at: SimTime,
        dur: SimDuration,
        phase: TracePhase,
        scope: &str,
        name: &str,
        cat: &'static str,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            at,
            dur,
            phase,
            scope: scope.to_string(),
            name: name.to_string(),
            cat,
        });
    }

    /// Records a point event.
    pub fn instant(&mut self, at: SimTime, scope: &str, name: &str, cat: &'static str) {
        self.push(at, SimDuration::ZERO, TracePhase::Instant, scope, name, cat);
    }

    /// Opens a span (pair with [`Tracer::end`]).
    pub fn begin(&mut self, at: SimTime, scope: &str, name: &str, cat: &'static str) {
        self.push(at, SimDuration::ZERO, TracePhase::Begin, scope, name, cat);
    }

    /// Closes the innermost open span with the same scope and name.
    pub fn end(&mut self, at: SimTime, scope: &str, name: &str, cat: &'static str) {
        self.push(at, SimDuration::ZERO, TracePhase::End, scope, name, cat);
    }

    /// Records a complete span that started at `at` and ran for `dur`.
    pub fn complete(
        &mut self,
        at: SimTime,
        dur: SimDuration,
        scope: &str,
        name: &str,
        cat: &'static str,
    ) {
        self.push(at, dur, TracePhase::Complete, scope, name, cat);
    }

    /// All collected events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace to Chrome trace-event JSON.
    ///
    /// Scopes map to numeric `pid`s (in first-appearance order) and each
    /// gets a `process_name` metadata record, which is how the Chrome
    /// trace viewer labels its rows. Timestamps are microseconds.
    pub(crate) fn to_chrome_json(&self) -> String {
        let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
        let mut order: Vec<&str> = Vec::new();
        for e in &self.events {
            if !pids.contains_key(e.scope.as_str()) {
                pids.insert(e.scope.as_str(), order.len() as u64 + 1);
                order.push(e.scope.as_str());
            }
        }
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for scope in &order {
            let pid = pids[scope];
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"ts\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(scope)
            );
        }
        for e in &self.events {
            let pid = pids[e.scope.as_str()];
            if !first {
                out.push(',');
            }
            first = false;
            let ts_us = e.at.as_nanos() as f64 / 1e3;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{ts_us},\
                 \"pid\":{pid},\"tid\":1",
                escape(&e.name),
                escape(e.cat),
                e.phase.ph()
            );
            if e.phase == TracePhase::Complete {
                let dur_us = e.dur.as_nanos() as f64 / 1e3;
                let _ = write!(out, ",\"dur\":{dur_us}");
            }
            if e.phase == TracePhase::Instant {
                out.push_str(",\"s\":\"p\"");
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.instant(SimTime::ZERO, "a", "x", "cat");
        assert!(t.is_empty());
        t.set_enabled(true);
        t.instant(SimTime::ZERO, "a", "x", "cat");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chrome_json_has_required_fields() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.complete(
            SimTime::from_millis(2),
            SimDuration::from_micros(500),
            "broker-0",
            "append",
            "broker",
        );
        t.instant(SimTime::from_millis(3), "job/a/0", "txn:commit", "txn");
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":2000"));
        assert!(json.contains("\"dur\":500"));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"broker-0\""));
        // Validated structurally by the json module round-trip test.
        crate::json::validate_chrome_trace(&json).expect("valid chrome trace");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
