//! Stream operators: stateless transforms, keyed state, windows, joins.
//!
//! Operators process micro-batches (Spark-Streaming style) and may keep
//! state across batches. Event-time windows emit when the operator's
//! watermark — the maximum event time seen — passes the window end.

use std::collections::{BTreeMap, BTreeSet};

use s2g_sim::{SimDuration, SimTime};

use crate::checkpoint::{event_from_value, event_to_value};
use crate::event::{Event, Value};

/// A micro-batch stream operator.
pub trait Operator {
    /// Operator name, for metrics and debugging.
    fn name(&self) -> &str;

    /// Processes one micro-batch, returning the output events.
    fn process(&mut self, now: SimTime, batch: Vec<Event>) -> Vec<Event>;

    /// Emits whatever state remains (e.g. incomplete windows) at the end of
    /// the stream. Default: nothing.
    fn flush(&mut self, _now: SimTime) -> Vec<Event> {
        Vec::new()
    }

    /// Captures this operator's state for a checkpoint snapshot. Stateless
    /// operators return `None` (the default).
    fn snapshot_state(&self) -> Option<Value> {
        None
    }

    /// Captures only the state that changed since the last capture (the
    /// incremental-checkpoint path) and resets the operator's dirty
    /// tracking. Operators without dirty tracking fall back to shipping
    /// their full state, which keeps delta chains correct at full-snapshot
    /// cost; stateless operators still return `None`.
    fn snapshot_delta(&mut self) -> Option<Value> {
        let full = self.snapshot_state();
        self.mark_clean();
        full
    }

    /// Resets dirty tracking without capturing — called after a full (base)
    /// snapshot, which by definition covers every pending change.
    fn mark_clean(&mut self) {}

    /// True when this operator ends a pipeline stage in a parallel plan:
    /// records leaving it carry a grouping key and are shuffled (by the
    /// shared key hash) to the instances of the next stage. Only [`KeyBy`]
    /// returns true.
    fn is_stage_boundary(&self) -> bool {
        false
    }

    /// Restores what one old instance captured: `chain` holds its base
    /// state ([`snapshot_state`](Operator::snapshot_state)) followed by its
    /// deltas ([`snapshot_delta`](Operator::snapshot_delta)) in persistence
    /// order, and only entries whose key `keep` accepts are taken. A worker
    /// restoring its own chain passes a filter that keeps everything; a
    /// rescaled instance calls this once per old instance and reassembles
    /// its key groups, so a call never clears what an earlier call
    /// restored. An operator on the default `snapshot_delta` receives full
    /// states throughout and takes the newest. Operators without state
    /// ignore the call (the default).
    fn restore(&mut self, _chain: &[&Value], _keep: &dyn Fn(&str) -> bool) {}
}

/// Stateless 1→1 transform.
pub struct Map {
    name: String,
    f: Box<dyn FnMut(Event) -> Event>,
}

impl Map {
    /// Creates a map operator.
    pub fn new(name: impl Into<String>, f: impl FnMut(Event) -> Event + 'static) -> Self {
        Map {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Operator for Map {
    fn name(&self) -> &str {
        &self.name
    }
    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        batch.into_iter().map(&mut self.f).collect()
    }
}

/// Stateless 1→N transform.
pub(crate) struct FlatMap {
    name: String,
    f: Box<dyn FnMut(Event) -> Vec<Event>>,
}

impl FlatMap {
    /// Creates a flat-map operator.
    pub(crate) fn new(
        name: impl Into<String>,
        f: impl FnMut(Event) -> Vec<Event> + 'static,
    ) -> Self {
        FlatMap {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Operator for FlatMap {
    fn name(&self) -> &str {
        &self.name
    }
    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        batch.into_iter().flat_map(&mut self.f).collect()
    }
}

/// Stateless predicate filter.
pub(crate) struct Filter {
    name: String,
    f: Box<dyn FnMut(&Event) -> bool>,
}

impl Filter {
    /// Creates a filter operator.
    pub(crate) fn new(name: impl Into<String>, f: impl FnMut(&Event) -> bool + 'static) -> Self {
        Filter {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Operator for Filter {
    fn name(&self) -> &str {
        &self.name
    }
    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        batch.into_iter().filter(|e| (self.f)(e)).collect()
    }
}

/// Assigns each event a grouping key.
pub struct KeyBy {
    name: String,
    f: Box<dyn Fn(&Event) -> String>,
}

impl KeyBy {
    /// Creates a key-by operator.
    pub fn new(name: impl Into<String>, f: impl Fn(&Event) -> String + 'static) -> Self {
        KeyBy {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Operator for KeyBy {
    fn name(&self) -> &str {
        &self.name
    }
    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        batch
            .into_iter()
            .map(|mut e| {
                e.key = Some((self.f)(&e));
                e
            })
            .collect()
    }
    fn is_stage_boundary(&self) -> bool {
        true
    }
}

/// Keyed running state across the whole stream: for every input event the
/// user function updates per-key state and emits zero or more outputs. This
/// is the continuous-query building block (running counts, running
/// averages) used by the word-count pipeline's second job.
pub struct StatefulMap {
    name: String,
    state: BTreeMap<String, KeyState>,
    /// Keys whose state changed since the last checkpoint capture, each
    /// listed once: a key is pushed when its flag is first set.
    dirty: Vec<String>,
    #[allow(
        clippy::type_complexity,
        reason = "the user's step closure, spelled only here"
    )]
    f: Box<dyn FnMut(&mut Value, &Event) -> Vec<Event>>,
    init: Value,
}

/// One key's running state, and whether it changed since the last
/// checkpoint capture.
struct KeyState {
    value: Value,
    dirty: bool,
}

impl StatefulMap {
    /// Creates a stateful map; `init` seeds each key's state.
    pub fn new(
        name: impl Into<String>,
        init: Value,
        f: impl FnMut(&mut Value, &Event) -> Vec<Event> + 'static,
    ) -> Self {
        StatefulMap {
            name: name.into(),
            state: BTreeMap::new(),
            dirty: Vec::new(),
            f: Box::new(f),
            init,
        }
    }
}

impl Operator for StatefulMap {
    fn name(&self) -> &str {
        &self.name
    }
    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        let mut out = Vec::new();
        for e in batch {
            // Found by the borrowed key: only a new key, or the first
            // change since a capture, allocates a copy of it.
            let key = e.key.as_deref().unwrap_or_default();
            let slot = match self.state.get_mut(key) {
                Some(slot) => slot,
                None => self.state.entry(key.to_owned()).or_insert(KeyState {
                    value: self.init.clone(),
                    dirty: false,
                }),
            };
            if !slot.dirty {
                slot.dirty = true;
                self.dirty.push(key.to_owned());
            }
            out.extend((self.f)(&mut slot.value, &e));
        }
        out
    }

    fn snapshot_state(&self) -> Option<Value> {
        let state = self
            .state
            .iter()
            .map(|(k, s)| (k.clone(), s.value.clone()))
            .collect();
        Some(Value::Map(state))
    }

    fn snapshot_delta(&mut self) -> Option<Value> {
        let set: BTreeMap<String, Value> = self
            .dirty
            .drain(..)
            .map(|k| {
                let s = self.state.get_mut(&k).expect("state never drops a key");
                s.dirty = false;
                let v = s.value.clone();
                (k, v)
            })
            .collect();
        Some(Value::map([("set", Value::Map(set))]))
    }

    fn mark_clean(&mut self) {
        for k in self.dirty.drain(..) {
            if let Some(s) = self.state.get_mut(&k) {
                s.dirty = false;
            }
        }
    }

    fn restore(&mut self, chain: &[&Value], keep: &dyn Fn(&str) -> bool) {
        for (i, capture) in chain.iter().enumerate() {
            // The base is the state map itself; a delta wraps the keys it
            // changed in `set`, and never deletes.
            let set = if i == 0 {
                Some(*capture)
            } else {
                capture.field("set")
            };
            let Some(Value::Map(set)) = set else { continue };
            for (k, v) in set.iter().filter(|(k, _)| keep(k)) {
                // An overwritten key keeps its flag, as it stays listed.
                let value = v.clone();
                match self.state.get_mut(k.as_str()) {
                    Some(s) => s.value = value,
                    None => {
                        self.state.insert(
                            k.clone(),
                            KeyState {
                                value,
                                dirty: false,
                            },
                        );
                    }
                }
            }
        }
    }
}

/// How events map to event-time windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowAssigner {
    /// Fixed, non-overlapping windows of the given width.
    Tumbling(SimDuration),
    /// Overlapping windows of `width`, starting every `slide`.
    Sliding {
        /// Window width.
        width: SimDuration,
        /// Start-to-start distance.
        slide: SimDuration,
    },
}

impl WindowAssigner {
    /// The windows (by start time) containing an event at `ts`.
    pub fn assign(&self, ts: SimTime) -> Vec<SimTime> {
        self.starts(ts).collect()
    }

    /// The windows (by start time, ascending) containing an event at `ts`,
    /// without allocating: one for a tumbling window, and for a sliding
    /// window every multiple of the slide in `(ts - width, ts]`.
    pub(crate) fn starts(self, ts: SimTime) -> impl Iterator<Item = SimTime> {
        let (w, s) = (self.width().as_nanos(), self.slide().as_nanos());
        let t = ts.as_nanos();
        // The first start `k * s` whose window `[k * s, k * s + w)` still
        // holds `t`.
        let first = if t < w { 0 } else { ((t - w) / s + 1) * s };
        (first..=t).step_by(s as usize).map(SimTime::from_nanos)
    }

    /// The width of the windows produced.
    pub fn width(&self) -> SimDuration {
        match *self {
            WindowAssigner::Tumbling(w) => w,
            WindowAssigner::Sliding { width, .. } => width,
        }
    }

    /// The distance from one window's start to the next.
    fn slide(self) -> SimDuration {
        match self {
            WindowAssigner::Tumbling(w) => w,
            WindowAssigner::Sliding { slide, .. } => slide,
        }
    }

    /// Panics, naming the operator, unless width and slide are positive: a
    /// zero slide divides by zero at the first event, and a zero width
    /// assigns no window, so every event would be dropped.
    fn assert_positive(self, kind: &str, name: &str) {
        assert!(
            self.width() > SimDuration::ZERO,
            "{kind} `{name}`: window width must be positive"
        );
        assert!(
            self.slide() > SimDuration::ZERO,
            "{kind} `{name}`: window slide must be positive"
        );
    }
}

/// A window instance: `(window start, group key)`.
type WindowKey = (SimTime, String);

/// What one `(window, key)` pair holds, as a checkpoint sees it.
trait WindowEntry: Sized {
    /// Name of the entry list in a full capture.
    const FIELD: &'static str;

    /// Encodes the entry as a list opening with the encoded window key.
    fn encode(&self, start: Value, key: Value) -> Vec<Value>;

    /// Decodes what follows the window key in an encoded entry.
    fn decode(rest: &[Value]) -> Option<Self>;
}

/// The event-time window state [`WindowAggregate`] and [`WindowJoin`] share:
/// open windows by start and then key, the watermark that closes them, and
/// the change tracking an incremental capture ships.
///
/// An event finds its window by a borrowed key, one search in a map of the
/// few open starts and one in that start's keys, and copies the key only
/// when it opens the window. Walking `open` visits windows in `(start,
/// key)` order, the order every capture lists them in.
struct Windows<T> {
    open: BTreeMap<SimTime, BTreeMap<String, Slot<T>>>,
    watermark: SimTime,
    /// Min watermark over the chains restored so far. The restored operator
    /// is only as advanced as its *least*-advanced chain: the max would
    /// fire windows restored from a slower chain before that chain's
    /// remaining events replay, splitting their aggregates in two.
    restored_watermark: Option<SimTime>,
    /// Windows emitted (and dropped) since the last checkpoint capture.
    removed: BTreeSet<WindowKey>,
}

/// One open window's state, and whether it was touched since the last
/// checkpoint capture.
struct Slot<T> {
    st: T,
    dirty: bool,
}

fn encode_window_key(start: SimTime, key: String) -> (Value, Value) {
    (Value::Int(start.as_nanos() as i64), Value::Str(key))
}

/// Splits an encoded entry into its window start, its group key and what
/// follows them, when `keep` accepts the group key.
fn decode_kept<'a>(
    entry: &'a Value,
    keep: &dyn Fn(&str) -> bool,
) -> Option<(SimTime, &'a str, &'a [Value])> {
    let Value::List(parts) = entry else {
        return None;
    };
    let (Some(start), Some(Value::Str(key))) =
        (parts.first().and_then(Value::as_int), parts.get(1))
    else {
        return None;
    };
    if !keep(key) {
        return None;
    }
    Some((SimTime::from_nanos(start as u64), key, &parts[2..]))
}

impl<T: WindowEntry> Windows<T> {
    fn new() -> Self {
        Windows {
            open: BTreeMap::new(),
            watermark: SimTime::ZERO,
            restored_watermark: None,
            removed: BTreeSet::new(),
        }
    }

    /// The state of window `(start, key)`, flagged as touched, or `None`
    /// when it is not open: the caller then [`open`](Windows::open)s it.
    fn touch(&mut self, start: SimTime, key: &str) -> Option<&mut T> {
        let slot = self.open.get_mut(&start)?.get_mut(key)?;
        slot.dirty = true;
        Some(&mut slot.st)
    }

    /// Opens window `(start, key)` with `st`, flagged as touched.
    fn open(&mut self, start: SimTime, key: &str, st: T) -> &mut T {
        let keys = self.open.entry(start).or_default();
        &mut keys
            .entry(key.to_owned())
            .or_insert(Slot { st, dirty: true })
            .st
    }

    /// Closes every window whose end the watermark has passed, handing
    /// each to `close` in `(start, key)` order. All windows have one width,
    /// so those are the starts at the front of `open`.
    fn take_ready(&mut self, width: SimDuration, mut close: impl FnMut(SimTime, String, T)) {
        while let Some(first) = self.open.first_entry() {
            let start = *first.key();
            if start + width > self.watermark {
                break;
            }
            for (key, slot) in first.remove() {
                self.removed.insert((start, key.clone()));
                close(start, key, slot.st);
            }
        }
    }

    fn encode_entry(start: SimTime, key: &str, st: &T) -> Value {
        let (start, key) = encode_window_key(start, key.to_owned());
        Value::List(st.encode(start, key))
    }

    fn watermark_value(&self) -> Value {
        Value::Int(self.watermark.as_nanos() as i64)
    }

    fn snapshot_state(&self) -> Value {
        let open = self
            .open
            .iter()
            .flat_map(|(&start, keys)| {
                keys.iter()
                    .map(move |(key, slot)| Self::encode_entry(start, key, &slot.st))
            })
            .collect();
        Value::map([
            ("watermark", self.watermark_value()),
            (T::FIELD, Value::List(open)),
        ])
    }

    /// Per-window granularity: a touched window ships its whole state,
    /// which is still tiny next to the full operator state.
    fn snapshot_delta(&mut self) -> Value {
        let mut set = Vec::new();
        for (&start, keys) in &mut self.open {
            for (key, slot) in keys.iter_mut().filter(|(_, slot)| slot.dirty) {
                set.push(Self::encode_entry(start, key, &slot.st));
                slot.dirty = false;
            }
        }
        let del = std::mem::take(&mut self.removed)
            .into_iter()
            .map(|(start, key)| {
                let (start, key) = encode_window_key(start, key);
                Value::List(vec![start, key])
            })
            .collect();
        Value::map([
            ("watermark", self.watermark_value()),
            ("set", Value::List(set)),
            ("del", Value::List(del)),
        ])
    }

    fn mark_clean(&mut self) {
        for slot in self.open.values_mut().flat_map(BTreeMap::values_mut) {
            slot.dirty = false;
        }
        self.removed.clear();
    }

    /// Applies one chain's captures in order. A full state is a change that
    /// sets every window and deletes none, so base and deltas take the same
    /// path; undecodable entries are skipped, and restored windows are not
    /// flagged as touched.
    fn restore(&mut self, chain: &[&Value], keep: &dyn Fn(&str) -> bool) {
        for capture in chain {
            if let Some(Value::List(del)) = capture.field("del") {
                for (start, key, _) in del.iter().filter_map(|d| decode_kept(d, keep)) {
                    if let Some(keys) = self.open.get_mut(&start) {
                        keys.remove(key);
                        if keys.is_empty() {
                            self.open.remove(&start);
                        }
                    }
                }
            }
            for field in [T::FIELD, "set"] {
                let Some(Value::List(set)) = capture.field(field) else {
                    continue;
                };
                for (start, key, rest) in set.iter().filter_map(|w| decode_kept(w, keep)) {
                    if let Some(st) = T::decode(rest) {
                        let slot = Slot { st, dirty: false };
                        self.open
                            .entry(start)
                            .or_default()
                            .insert(key.to_owned(), slot);
                    }
                }
            }
        }
        // The chain stands at its newest capture's watermark; the operator
        // at the minimum over the chains it restored.
        let newest = chain
            .iter()
            .rev()
            .find_map(|c| c.field("watermark").and_then(Value::as_int));
        if let Some(wm) = newest {
            let wm = SimTime::from_nanos(wm as u64);
            let min = self.restored_watermark.map_or(wm, |prev| prev.min(wm));
            self.restored_watermark = Some(min);
            self.watermark = min;
        }
    }
}

struct WindowState {
    acc: Value,
    count: u64,
    min_origin: SimTime,
}

impl WindowEntry for WindowState {
    const FIELD: &'static str = "windows";

    fn encode(&self, start: Value, key: Value) -> Vec<Value> {
        vec![
            start,
            key,
            self.acc.clone(),
            Value::Int(self.count as i64),
            Value::Int(self.min_origin.as_nanos() as i64),
        ]
    }

    fn decode(rest: &[Value]) -> Option<Self> {
        Some(WindowState {
            acc: rest.first()?.clone(),
            count: rest.get(1)?.as_int()? as u64,
            min_origin: SimTime::from_nanos(rest.get(2)?.as_int()? as u64),
        })
    }
}

/// Keyed event-time window aggregation.
///
/// Accumulates `fold(acc, event)` per `(window, key)` and emits one event
/// per pair once the watermark passes the window end. The output value is
/// `finish(acc, count)`; its key is the group key, its timestamp the window
/// end, and its origin the earliest contributing origin (for end-to-end
/// latency tracking).
pub struct WindowAggregate {
    name: String,
    assigner: WindowAssigner,
    init: Value,
    #[allow(
        clippy::type_complexity,
        reason = "the user's fold closure, spelled only here"
    )]
    fold: Box<dyn FnMut(Value, &Event) -> Value>,
    finish: Box<dyn Fn(Value, u64) -> Value>,
    windows: Windows<WindowState>,
}

impl WindowAggregate {
    /// Creates a window aggregation.
    ///
    /// # Panics
    ///
    /// Panics, naming the operator, if the assigner's width or slide is
    /// zero.
    pub fn new(
        name: impl Into<String>,
        assigner: WindowAssigner,
        init: Value,
        fold: impl FnMut(Value, &Event) -> Value + 'static,
        finish: impl Fn(Value, u64) -> Value + 'static,
    ) -> Self {
        let name = name.into();
        assigner.assert_positive("window aggregate", &name);
        WindowAggregate {
            name,
            assigner,
            init,
            fold: Box::new(fold),
            finish: Box::new(finish),
            windows: Windows::new(),
        }
    }

    /// Convenience: per-key event count per window.
    pub fn count(name: impl Into<String>, assigner: WindowAssigner) -> Self {
        WindowAggregate::new(
            name,
            assigner,
            Value::Int(0),
            |acc, _| Value::Int(acc.as_int().unwrap_or(0) + 1),
            |acc, _| acc,
        )
    }

    /// Convenience: per-key mean of a float field per window.
    pub fn avg_field(
        name: impl Into<String>,
        assigner: WindowAssigner,
        field: &'static str,
    ) -> Self {
        WindowAggregate::new(
            name,
            assigner,
            Value::Float(0.0),
            move |acc, e| {
                let add = e
                    .value
                    .field(field)
                    .and_then(Value::as_float)
                    .unwrap_or(0.0);
                Value::Float(acc.as_float().unwrap_or(0.0) + add)
            },
            |acc, n| Value::Float(acc.as_float().unwrap_or(0.0) / n.max(1) as f64),
        )
    }

    fn emit_ready(&mut self) -> Vec<Event> {
        let width = self.assigner.width();
        let mut out = Vec::new();
        self.windows.take_ready(width, |start, group, st| {
            out.push(Event {
                key: Some(group),
                value: (self.finish)(st.acc, st.count),
                ts: start + width,
                origin: st.min_origin,
                source: 0,
            });
        });
        out
    }
}

impl Operator for WindowAggregate {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        for e in batch {
            self.windows.watermark = self.windows.watermark.max(e.ts);
            let key = e.key.as_deref().unwrap_or_default();
            for start in self.assigner.starts(e.ts) {
                let st = match self.windows.touch(start, key) {
                    Some(st) => st,
                    None => {
                        let st = WindowState {
                            acc: self.init.clone(),
                            count: 0,
                            min_origin: e.origin,
                        };
                        self.windows.open(start, key, st)
                    }
                };
                st.acc = (self.fold)(std::mem::replace(&mut st.acc, Value::Null), &e);
                st.count += 1;
                st.min_origin = st.min_origin.min(e.origin);
            }
        }
        self.emit_ready()
    }

    fn flush(&mut self, _now: SimTime) -> Vec<Event> {
        self.windows.watermark = SimTime::MAX;
        self.emit_ready()
    }

    fn snapshot_state(&self) -> Option<Value> {
        Some(self.windows.snapshot_state())
    }

    fn snapshot_delta(&mut self) -> Option<Value> {
        Some(self.windows.snapshot_delta())
    }

    fn mark_clean(&mut self) {
        self.windows.mark_clean();
    }

    fn restore(&mut self, chain: &[&Value], keep: &dyn Fn(&str) -> bool) {
        self.windows.restore(chain, keep);
    }
}

/// The left (source 0) and right (source 1) events buffered for one window.
#[derive(Default)]
struct JoinBuffers(Vec<Event>, Vec<Event>);

impl WindowEntry for JoinBuffers {
    const FIELD: &'static str = "buffers";

    fn encode(&self, start: Value, key: Value) -> Vec<Value> {
        let side = |events: &[Event]| Value::List(events.iter().map(event_to_value).collect());
        vec![start, key, side(&self.0), side(&self.1)]
    }

    fn decode(rest: &[Value]) -> Option<Self> {
        let (Some(Value::List(ls)), Some(Value::List(rs))) = (rest.first(), rest.get(1)) else {
            return None;
        };
        let side = |events: &[Value]| events.iter().filter_map(event_from_value).collect();
        Some(JoinBuffers(side(ls), side(rs)))
    }
}

/// Windowed two-input equi-join: pairs events with equal keys from sources
/// 0 and 1 within the same event-time window, emitting `joiner(left, right)`
/// when the watermark passes the window end.
pub struct WindowJoin {
    name: String,
    assigner: WindowAssigner,
    #[allow(
        clippy::type_complexity,
        reason = "the user's join closure, spelled only here"
    )]
    joiner: Box<dyn Fn(&Event, &Event) -> Value>,
    buffers: Windows<JoinBuffers>,
}

impl WindowJoin {
    /// Creates a windowed join.
    ///
    /// # Panics
    ///
    /// Panics, naming the operator, if the assigner's width or slide is
    /// zero.
    pub fn new(
        name: impl Into<String>,
        assigner: WindowAssigner,
        joiner: impl Fn(&Event, &Event) -> Value + 'static,
    ) -> Self {
        let name = name.into();
        assigner.assert_positive("window join", &name);
        WindowJoin {
            name,
            assigner,
            joiner: Box::new(joiner),
            buffers: Windows::new(),
        }
    }

    fn emit_ready(&mut self) -> Vec<Event> {
        let width = self.assigner.width();
        let mut out = Vec::new();
        self.buffers
            .take_ready(width, |start, group, JoinBuffers(lefts, rights)| {
                for l in &lefts {
                    for r in &rights {
                        out.push(Event {
                            key: Some(group.clone()),
                            value: (self.joiner)(l, r),
                            ts: start + width,
                            origin: l.origin.min(r.origin),
                            source: 0,
                        });
                    }
                }
            });
        out
    }
}

impl Operator for WindowJoin {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        for e in batch {
            self.buffers.watermark = self.buffers.watermark.max(e.ts);
            let key = e.key.as_deref().unwrap_or_default();
            let mut starts = self.assigner.starts(e.ts).peekable();
            while let Some(start) = starts.next() {
                let slot = match self.buffers.touch(start, key) {
                    Some(slot) => slot,
                    None => self.buffers.open(start, key, JoinBuffers::default()),
                };
                let side = if e.source == 0 {
                    &mut slot.0
                } else {
                    &mut slot.1
                };
                // The last window takes the event itself.
                if starts.peek().is_none() {
                    side.push(e);
                    break;
                }
                side.push(e.clone());
            }
        }
        self.emit_ready()
    }

    fn flush(&mut self, _now: SimTime) -> Vec<Event> {
        self.buffers.watermark = SimTime::MAX;
        self.emit_ready()
    }

    fn snapshot_state(&self) -> Option<Value> {
        Some(self.buffers.snapshot_state())
    }

    fn snapshot_delta(&mut self) -> Option<Value> {
        Some(self.buffers.snapshot_delta())
    }

    fn mark_clean(&mut self) {
        self.buffers.mark_clean();
    }

    fn restore(&mut self, chain: &[&Value], keep: &dyn Fn(&str) -> bool) {
        self.buffers.restore(chain, keep);
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(v: i64, ts_ms: u64) -> Event {
        Event::new(Value::Int(v), SimTime::from_millis(ts_ms))
    }

    #[test]
    fn map_transforms() {
        let mut op = Map::new("double", |mut e| {
            e.value = Value::Int(e.value.as_int().unwrap() * 2);
            e
        });
        let out = op.process(SimTime::ZERO, vec![ev(1, 0), ev(2, 0)]);
        assert_eq!(out[0].value, Value::Int(2));
        assert_eq!(out[1].value, Value::Int(4));
    }

    #[test]
    fn flat_map_fans_out() {
        let mut op = FlatMap::new("dup", |e| vec![e.clone(), e]);
        let out = op.process(SimTime::ZERO, vec![ev(1, 0)]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn filter_drops() {
        let mut op = Filter::new("even", |e| e.value.as_int().unwrap() % 2 == 0);
        let out = op.process(SimTime::ZERO, vec![ev(1, 0), ev(2, 0), ev(4, 0)]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn key_by_assigns_keys() {
        let mut op = KeyBy::new("mod2", |e| (e.value.as_int().unwrap() % 2).to_string());
        let out = op.process(SimTime::ZERO, vec![ev(3, 0), ev(4, 0)]);
        assert_eq!(out[0].key.as_deref(), Some("1"));
        assert_eq!(out[1].key.as_deref(), Some("0"));
    }

    #[test]
    fn stateful_map_keeps_running_count() {
        let mut op = StatefulMap::new("count", Value::Int(0), |state, e| {
            let n = state.as_int().unwrap() + 1;
            *state = Value::Int(n);
            vec![Event {
                value: Value::Int(n),
                ..e.clone()
            }]
        });
        let batch: Vec<Event> = vec![
            ev(1, 0).with_key("a"),
            ev(1, 1).with_key("a"),
            ev(1, 2).with_key("b"),
        ];
        let out = op.process(SimTime::ZERO, batch);
        assert_eq!(out[0].value, Value::Int(1));
        assert_eq!(out[1].value, Value::Int(2));
        assert_eq!(out[2].value, Value::Int(1));
    }

    #[test]
    fn tumbling_assignment() {
        let a = WindowAssigner::Tumbling(SimDuration::from_secs(10));
        assert_eq!(a.assign(SimTime::from_secs(3)), vec![SimTime::ZERO]);
        assert_eq!(
            a.assign(SimTime::from_secs(10)),
            vec![SimTime::from_secs(10)]
        );
        assert_eq!(
            a.assign(SimTime::from_secs(25)),
            vec![SimTime::from_secs(20)]
        );
    }

    #[test]
    fn sliding_assignment_overlaps() {
        let a = WindowAssigner::Sliding {
            width: SimDuration::from_secs(10),
            slide: SimDuration::from_secs(5),
        };
        // t=12s belongs to windows starting at 5s and 10s.
        let starts = a.assign(SimTime::from_secs(12));
        assert_eq!(starts, vec![SimTime::from_secs(5), SimTime::from_secs(10)]);
        // t=3s belongs to windows starting at 0s only (no negative starts).
        assert_eq!(a.assign(SimTime::from_secs(3)), vec![SimTime::ZERO]);
    }

    #[test]
    #[should_panic(expected = "window aggregate `wc`: window width must be positive")]
    fn a_zero_tumbling_width_is_rejected_where_the_operator_is_built() {
        WindowAggregate::count("wc", WindowAssigner::Tumbling(SimDuration::ZERO));
    }

    #[test]
    #[should_panic(expected = "window aggregate `wc`: window slide must be positive")]
    fn a_zero_slide_is_rejected_where_the_operator_is_built() {
        let sliding = WindowAssigner::Sliding {
            width: SimDuration::from_secs(10),
            slide: SimDuration::ZERO,
        };
        WindowAggregate::count("wc", sliding);
    }

    #[test]
    #[should_panic(expected = "window join `j`: window width must be positive")]
    fn a_zero_sliding_width_is_rejected_where_the_operator_is_built() {
        let sliding = WindowAssigner::Sliding {
            width: SimDuration::ZERO,
            slide: SimDuration::from_secs(5),
        };
        WindowJoin::new("j", sliding, |l, _| l.value.clone());
    }

    #[test]
    fn window_count_emits_on_watermark() {
        let mut op =
            WindowAggregate::count("wc", WindowAssigner::Tumbling(SimDuration::from_secs(10)));
        // Three events in [0,10), none emitted yet (watermark at 9s).
        let out = op.process(
            SimTime::ZERO,
            vec![
                ev(1, 1_000).with_key("k"),
                ev(1, 5_000).with_key("k"),
                ev(1, 9_000).with_key("k"),
            ],
        );
        assert!(out.is_empty());
        // An event at 11s pushes the watermark past the first window.
        let out = op.process(SimTime::ZERO, vec![ev(1, 11_000).with_key("k")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::Int(3));
        assert_eq!(out[0].ts, SimTime::from_secs(10));
        // Flush drains the rest.
        let out = op.flush(SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::Int(1));
    }

    #[test]
    fn window_origin_is_earliest_contributor() {
        let mut op =
            WindowAggregate::count("wc", WindowAssigner::Tumbling(SimDuration::from_secs(10)));
        let e1 = ev(1, 4_000)
            .with_key("k")
            .with_origin(SimTime::from_millis(100));
        let e2 = ev(1, 2_000)
            .with_key("k")
            .with_origin(SimTime::from_millis(900));
        op.process(SimTime::ZERO, vec![e1, e2]);
        let out = op.flush(SimTime::ZERO);
        assert_eq!(out[0].origin, SimTime::from_millis(100));
    }

    #[test]
    fn avg_field_divides_by_count() {
        let mut op = WindowAggregate::avg_field(
            "avg",
            WindowAssigner::Tumbling(SimDuration::from_secs(10)),
            "x",
        );
        let mk = |x: f64, ms: u64| {
            Event::new(
                Value::map([("x", Value::Float(x))]),
                SimTime::from_millis(ms),
            )
            .with_key("k")
        };
        op.process(SimTime::ZERO, vec![mk(1.0, 100), mk(3.0, 200)]);
        let out = op.flush(SimTime::ZERO);
        assert_eq!(out[0].value, Value::Float(2.0));
    }

    #[test]
    fn window_join_pairs_by_key() {
        let mut op = WindowJoin::new(
            "j",
            WindowAssigner::Tumbling(SimDuration::from_secs(10)),
            |l, r| Value::List(vec![l.value.clone(), r.value.clone()]),
        );
        let mut left = ev(1, 1_000).with_key("k");
        left.source = 0;
        let mut right = ev(2, 2_000).with_key("k");
        right.source = 1;
        let mut other = ev(3, 3_000).with_key("other");
        other.source = 1;
        op.process(SimTime::ZERO, vec![left, right, other]);
        let out = op.flush(SimTime::ZERO);
        assert_eq!(out.len(), 1, "only matching keys join");
        assert_eq!(
            out[0].value,
            Value::List(vec![Value::Int(1), Value::Int(2)])
        );
    }
}
