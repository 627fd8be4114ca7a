//! The keyed operators as they were before their state was found by a
//! borrowed key, kept as the reference the operators are held to.
//!
//! Here windows live in one map keyed by `(start, key)` tuples beside a set
//! of the windows touched since the last capture, and a stateful map keeps
//! a set of its dirty keys; every touch clones the key. The sweep below
//! drives an operator and its reference through the same seeded batches,
//! captures, flushes and restores, and requires the same output events and
//! the same encoded bytes of every capture.

use std::collections::{BTreeMap, BTreeSet};

use s2g_sim::{SimDuration, SimTime};

use super::{
    JoinBuffers, Operator, StatefulMap, WindowAggregate, WindowAssigner, WindowEntry, WindowJoin,
    WindowState,
};
use crate::event::{Event, Value};

/// The window starts holding `ts`, found by walking down from the last
/// start at or below it.
fn assign(assigner: WindowAssigner, ts: SimTime) -> Vec<SimTime> {
    let (w, s) = match assigner {
        WindowAssigner::Tumbling(width) => (width.as_nanos(), width.as_nanos()),
        WindowAssigner::Sliding { width, slide } => (width.as_nanos(), slide.as_nanos()),
    };
    let t = ts.as_nanos();
    let mut starts = Vec::new();
    let mut start = t / s * s;
    loop {
        if start + w > t {
            starts.push(SimTime::from_nanos(start));
        }
        if start < s {
            break;
        }
        start -= s;
        if start + w <= t {
            break;
        }
    }
    starts.reverse();
    starts
}

type WindowKey = (SimTime, String);

struct Windows<T> {
    open: BTreeMap<WindowKey, T>,
    watermark: SimTime,
    restored_watermark: Option<SimTime>,
    dirty: BTreeSet<WindowKey>,
    removed: BTreeSet<WindowKey>,
}

fn encode_window_key((start, key): &WindowKey) -> (Value, Value) {
    (Value::Int(start.as_nanos() as i64), Value::Str(key.clone()))
}

fn decode_kept<'a>(
    entry: &'a Value,
    keep: &dyn Fn(&str) -> bool,
) -> Option<(WindowKey, &'a [Value])> {
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
    Some((
        (SimTime::from_nanos(start as u64), key.clone()),
        &parts[2..],
    ))
}

impl<T: WindowEntry> Windows<T> {
    fn new() -> Self {
        Windows {
            open: BTreeMap::new(),
            watermark: SimTime::ZERO,
            restored_watermark: None,
            dirty: BTreeSet::new(),
            removed: BTreeSet::new(),
        }
    }

    fn touch(&mut self, wkey: WindowKey, init: impl FnOnce() -> T) -> &mut T {
        self.dirty.insert(wkey.clone());
        self.open.entry(wkey).or_insert_with(init)
    }

    fn take_ready(&mut self, width: SimDuration) -> Vec<(WindowKey, T)> {
        let ready: Vec<WindowKey> = self
            .open
            .keys()
            .filter(|(start, _)| *start + width <= self.watermark)
            .cloned()
            .collect();
        ready
            .into_iter()
            .map(|wkey| {
                let st = self.open.remove(&wkey).expect("key just listed");
                self.dirty.remove(&wkey);
                self.removed.insert(wkey.clone());
                (wkey, st)
            })
            .collect()
    }

    fn encode_entry(wkey: &WindowKey, st: &T) -> Value {
        let (start, key) = encode_window_key(wkey);
        Value::List(st.encode(start, key))
    }

    fn watermark_value(&self) -> Value {
        Value::Int(self.watermark.as_nanos() as i64)
    }

    fn snapshot_state(&self) -> Value {
        let open = self
            .open
            .iter()
            .map(|(wkey, st)| Self::encode_entry(wkey, st))
            .collect();
        Value::map([
            ("watermark", self.watermark_value()),
            (T::FIELD, Value::List(open)),
        ])
    }

    fn snapshot_delta(&mut self) -> Value {
        let set = self
            .dirty
            .iter()
            .filter_map(|wkey| Some(Self::encode_entry(wkey, self.open.get(wkey)?)))
            .collect();
        let del = self
            .removed
            .iter()
            .map(|wkey| {
                let (start, key) = encode_window_key(wkey);
                Value::List(vec![start, key])
            })
            .collect();
        self.mark_clean();
        Value::map([
            ("watermark", self.watermark_value()),
            ("set", Value::List(set)),
            ("del", Value::List(del)),
        ])
    }

    fn mark_clean(&mut self) {
        self.dirty.clear();
        self.removed.clear();
    }

    fn restore(&mut self, chain: &[&Value], keep: &dyn Fn(&str) -> bool) {
        for capture in chain {
            if let Some(Value::List(del)) = capture.field("del") {
                for (wkey, _) in del.iter().filter_map(|d| decode_kept(d, keep)) {
                    self.open.remove(&wkey);
                }
            }
            for field in [T::FIELD, "set"] {
                let Some(Value::List(set)) = capture.field(field) else {
                    continue;
                };
                for (wkey, rest) in set.iter().filter_map(|w| decode_kept(w, keep)) {
                    if let Some(st) = T::decode(rest) {
                        self.open.insert(wkey, st);
                    }
                }
            }
        }
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

/// Forwards the capture half of [`Operator`] to a reference [`Windows`].
macro_rules! window_captures {
    ($field:ident) => {
        fn snapshot_state(&self) -> Option<Value> {
            Some(self.$field.snapshot_state())
        }
        fn snapshot_delta(&mut self) -> Option<Value> {
            Some(self.$field.snapshot_delta())
        }
        fn mark_clean(&mut self) {
            self.$field.mark_clean();
        }
        fn restore(&mut self, chain: &[&Value], keep: &dyn Fn(&str) -> bool) {
            self.$field.restore(chain, keep);
        }
    };
}

struct RefAggregate {
    assigner: WindowAssigner,
    windows: Windows<WindowState>,
}

impl RefAggregate {
    fn emit_ready(&mut self) -> Vec<Event> {
        let width = self.assigner.width();
        self.windows
            .take_ready(width)
            .into_iter()
            .map(|((start, group), st)| Event {
                key: Some(group),
                value: finish(st.acc, st.count),
                ts: start + width,
                origin: st.min_origin,
                source: 0,
            })
            .collect()
    }
}

impl Operator for RefAggregate {
    fn name(&self) -> &str {
        "aggregate"
    }

    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        for e in batch {
            self.windows.watermark = self.windows.watermark.max(e.ts);
            let key = e.key.clone().unwrap_or_default();
            for start in assign(self.assigner, e.ts) {
                let st = self.windows.touch((start, key.clone()), || WindowState {
                    acc: Value::Int(0),
                    count: 0,
                    min_origin: e.origin,
                });
                st.acc = fold(std::mem::replace(&mut st.acc, Value::Null), &e);
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

    window_captures!(windows);
}

struct RefJoin {
    assigner: WindowAssigner,
    buffers: Windows<JoinBuffers>,
}

impl RefJoin {
    fn emit_ready(&mut self) -> Vec<Event> {
        let width = self.assigner.width();
        let mut out = Vec::new();
        for ((start, group), JoinBuffers(lefts, rights)) in self.buffers.take_ready(width) {
            for l in &lefts {
                for r in &rights {
                    out.push(Event {
                        key: Some(group.clone()),
                        value: joiner(l, r),
                        ts: start + width,
                        origin: l.origin.min(r.origin),
                        source: 0,
                    });
                }
            }
        }
        out
    }
}

impl Operator for RefJoin {
    fn name(&self) -> &str {
        "join"
    }

    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        for e in batch {
            self.buffers.watermark = self.buffers.watermark.max(e.ts);
            let key = e.key.clone().unwrap_or_default();
            for start in assign(self.assigner, e.ts) {
                let slot = self
                    .buffers
                    .touch((start, key.clone()), JoinBuffers::default);
                if e.source == 0 {
                    slot.0.push(e.clone());
                } else {
                    slot.1.push(e.clone());
                }
            }
        }
        self.emit_ready()
    }

    fn flush(&mut self, _now: SimTime) -> Vec<Event> {
        self.buffers.watermark = SimTime::MAX;
        self.emit_ready()
    }

    window_captures!(buffers);
}

#[derive(Default)]
struct RefStateful {
    state: BTreeMap<String, Value>,
    dirty: BTreeSet<String>,
}

impl Operator for RefStateful {
    fn name(&self) -> &str {
        "stateful"
    }

    fn process(&mut self, _now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        let mut out = Vec::new();
        for e in batch {
            let key = e.key.clone().unwrap_or_default();
            self.dirty.insert(key.clone());
            let slot = self.state.entry(key).or_insert_with(|| Value::Int(0));
            out.extend(running_sum(slot, &e));
        }
        out
    }

    fn snapshot_state(&self) -> Option<Value> {
        Some(Value::Map(self.state.clone()))
    }

    fn snapshot_delta(&mut self) -> Option<Value> {
        let set: BTreeMap<String, Value> = self
            .dirty
            .iter()
            .filter_map(|k| self.state.get(k).map(|v| (k.clone(), v.clone())))
            .collect();
        self.dirty.clear();
        Some(Value::map([("set", Value::Map(set))]))
    }

    fn mark_clean(&mut self) {
        self.dirty.clear();
    }

    fn restore(&mut self, chain: &[&Value], keep: &dyn Fn(&str) -> bool) {
        for (i, capture) in chain.iter().enumerate() {
            let set = if i == 0 {
                Some(*capture)
            } else {
                capture.field("set")
            };
            let Some(Value::Map(set)) = set else { continue };
            for (k, v) in set.iter().filter(|(k, _)| keep(k)) {
                self.state.insert(k.clone(), v.clone());
            }
        }
    }
}

/// An order-sensitive fold, so a reordered window shows in its result.
fn fold(acc: Value, e: &Event) -> Value {
    let acc = acc.as_int().expect("an int accumulator");
    Value::Int((acc * 31 + e.value.as_int().expect("int events")) % 1_000_003)
}

fn finish(acc: Value, count: u64) -> Value {
    Value::List(vec![acc, Value::Int(count as i64)])
}

fn joiner(l: &Event, r: &Event) -> Value {
    Value::List(vec![l.value.clone(), r.value.clone()])
}

/// A running sum per key that emits the new sum unless it is a multiple of
/// three.
fn running_sum(state: &mut Value, e: &Event) -> Vec<Event> {
    let sum = state.as_int().expect("an int state") + e.value.as_int().expect("int events");
    *state = Value::Int(sum);
    if sum % 3 == 0 {
        return Vec::new();
    }
    vec![Event {
        value: Value::Int(sum),
        ..e.clone()
    }]
}

/// The operator kinds the sweep covers.
#[derive(Clone, Copy)]
enum Kind {
    Aggregate,
    Join,
    Stateful,
}

/// A fresh `(operator, reference)` pair of `kind`.
fn pair(kind: Kind, assigner: WindowAssigner) -> (Box<dyn Operator>, Box<dyn Operator>) {
    match kind {
        Kind::Aggregate => (
            Box::new(WindowAggregate::new(
                "aggregate",
                assigner,
                Value::Int(0),
                fold,
                finish,
            )),
            Box::new(RefAggregate {
                assigner,
                windows: Windows::new(),
            }),
        ),
        Kind::Join => (
            Box::new(WindowJoin::new("join", assigner, joiner)),
            Box::new(RefJoin {
                assigner,
                buffers: Windows::new(),
            }),
        ),
        Kind::Stateful => (
            Box::new(StatefulMap::new("stateful", Value::Int(0), running_sum)),
            Box::new(RefStateful::default()),
        ),
    }
}

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Group keys, with a keyless event beside the empty key and multi-byte
/// text.
const KEYS: [Option<&str>; 7] = [
    None,
    Some(""),
    Some("a"),
    Some("b"),
    Some("ключ"),
    Some("日本語"),
    Some("aé"),
];

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Tumbling, sliding with the slide below the width, and sliding with gaps
/// (slide above width), in whole milliseconds so events land on window
/// ends.
fn random_assigner(rng: &mut Rng) -> WindowAssigner {
    match rng.below(3) {
        0 => WindowAssigner::Tumbling(ms(1 + rng.below(12))),
        1 => {
            let width = 2 + rng.below(12);
            WindowAssigner::Sliding {
                width: ms(width),
                slide: ms(1 + rng.below(width - 1)),
            }
        }
        _ => {
            let width = 1 + rng.below(8);
            WindowAssigner::Sliding {
                width: ms(width),
                slide: ms(width + 1 + rng.below(8)),
            }
        }
    }
}

/// Up to eight events around `clock`, some of them late by up to 20 ms.
fn random_batch(rng: &mut Rng, clock: &mut u64) -> Vec<Event> {
    (0..rng.below(9))
        .map(|_| {
            *clock += rng.below(3);
            let ts = *clock - rng.below((*clock).min(20) + 1);
            let mut e = Event::new(Value::Int(rng.below(50) as i64), SimTime::from_millis(ts));
            e.key = KEYS[rng.below(KEYS.len() as u64) as usize].map(str::to_owned);
            e.origin = SimTime::from_millis(rng.below(1_000));
            e.source = rng.below(2) as u8;
            e
        })
        .collect()
}

fn encoded(capture: Option<Value>) -> Option<Vec<u8>> {
    capture.map(|v| v.encode())
}

/// One seeded run of `kind`: batches, captures, flushes and restores from
/// the current chain (a base and its deltas) into a fresh pair, in random
/// order, each result compared with the reference's.
fn sweep(kind: Kind, seed: u64) {
    let mut rng = Rng(seed);
    let assigner = random_assigner(&mut rng);
    let (mut op, mut reference) = pair(kind, assigner);
    let mut chain: Vec<Value> = Vec::new();
    let mut clock = 0;
    for step in 0..80 {
        let at = format!("{} seed {seed} step {step}, {assigner:?}", op.name());
        match rng.below(20) {
            0..=9 => {
                let batch = random_batch(&mut rng, &mut clock);
                let out = op.process(SimTime::ZERO, batch.clone());
                assert_eq!(out, reference.process(SimTime::ZERO, batch), "{at}");
            }
            10..=12 => {
                let delta = op.snapshot_delta();
                assert_eq!(
                    encoded(delta.clone()),
                    encoded(reference.snapshot_delta()),
                    "{at}"
                );
                if !chain.is_empty() {
                    chain.extend(delta);
                }
            }
            13 | 14 => {
                // A base capture, then clean, as a checkpoint takes it.
                let base = op.snapshot_state();
                assert_eq!(
                    encoded(base.clone()),
                    encoded(reference.snapshot_state()),
                    "{at}"
                );
                op.mark_clean();
                reference.mark_clean();
                chain = base.into_iter().collect();
            }
            15 => {
                op.mark_clean();
                reference.mark_clean();
            }
            16 => {
                let out = op.flush(SimTime::ZERO);
                assert_eq!(out, reference.flush(SimTime::ZERO), "{at}");
            }
            _ if chain.is_empty() => {}
            _ => {
                // Restore a prefix of the chain into a fresh pair, either
                // whole or as two key groups, as a rescaled instance does.
                let captures: Vec<&Value> = chain
                    .iter()
                    .take(1 + rng.below(chain.len() as u64) as usize)
                    .collect();
                (op, reference) = pair(kind, assigner);
                let all = |_: &str| true;
                let even = |k: &str| k.len().is_multiple_of(2);
                let odd = |k: &str| !k.len().is_multiple_of(2);
                let filters: Vec<&dyn Fn(&str) -> bool> = if rng.below(2) == 0 {
                    vec![&all]
                } else {
                    vec![&even, &odd]
                };
                for keep in filters {
                    op.restore(&captures, keep);
                    reference.restore(&captures, keep);
                }
                chain.clear();
            }
        }
    }
    let out = op.flush(SimTime::ZERO);
    assert_eq!(
        out,
        reference.flush(SimTime::ZERO),
        "{} seed {seed} at the end",
        op.name()
    );
    assert_eq!(
        encoded(op.snapshot_state()),
        encoded(reference.snapshot_state())
    );
}

#[test]
fn window_aggregate_matches_the_tuple_keyed_reference() {
    for seed in 0..400 {
        sweep(Kind::Aggregate, seed);
    }
}

#[test]
fn window_join_matches_the_tuple_keyed_reference() {
    for seed in 0..400 {
        sweep(Kind::Join, seed);
    }
}

#[test]
fn stateful_map_matches_the_dirty_set_reference() {
    for seed in 0..400 {
        sweep(Kind::Stateful, seed);
    }
}

#[test]
fn starts_match_the_descending_walk() {
    let mut rng = Rng(7);
    for _ in 0..20_000 {
        let assigner = random_assigner(&mut rng);
        // Whole milliseconds and stray nanoseconds, near zero and far off.
        let ts =
            SimTime::from_nanos(rng.below(40) * 1_000_000 + rng.below(3) * rng.below(1_000_000));
        assert_eq!(
            assigner.assign(ts),
            assign(assigner, ts),
            "{assigner:?} at {ts:?}"
        );
    }
}
