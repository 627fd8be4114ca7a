//! Logical plans: chains of operators with builder sugar.

use s2g_sim::{SimDuration, SimTime};

use crate::event::{Event, Value};
use crate::ops::{
    Filter, FlatMap, KeyBy, Map, Operator, StatefulMap, WindowAggregate, WindowAssigner, WindowJoin,
};

/// An ordered chain of operators — one stream job's logical plan.
///
/// # Examples
///
/// ```
/// use s2g_spe::{Event, Plan, Value};
/// use s2g_sim::SimTime;
///
/// let mut plan = Plan::new()
///     .flat_map("split", |e| {
///         e.value
///             .as_str()
///             .unwrap_or("")
///             .split_whitespace()
///             .map(|w| Event { value: Value::Str(w.to_string()), ..e.clone() })
///             .collect()
///     })
///     .filter("nonempty", |e| e.value.as_str().is_some_and(|s| !s.is_empty()));
/// let out = plan.run_batch(
///     SimTime::ZERO,
///     vec![Event::new(Value::Str("hello stream world".into()), SimTime::ZERO)],
/// );
/// assert_eq!(out.len(), 3);
/// ```
#[derive(Default)]
pub struct Plan {
    ops: Vec<Box<dyn Operator>>,
    records_in: u64,
    records_out: u64,
}

impl Plan {
    /// An empty (identity) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends any operator.
    pub fn then(mut self, op: impl Operator + 'static) -> Self {
        self.ops.push(Box::new(op));
        self
    }

    /// Appends a [`Map`].
    pub fn map(self, name: &str, f: impl FnMut(Event) -> Event + 'static) -> Self {
        self.then(Map::new(name, f))
    }

    /// Appends a `FlatMap`: `f` turns each event into zero or more.
    pub fn flat_map(self, name: &str, f: impl FnMut(Event) -> Vec<Event> + 'static) -> Self {
        self.then(FlatMap::new(name, f))
    }

    /// Appends a `Filter`: keeps the events `f` accepts.
    pub fn filter(self, name: &str, f: impl FnMut(&Event) -> bool + 'static) -> Self {
        self.then(Filter::new(name, f))
    }

    /// Appends a [`KeyBy`].
    pub fn key_by(self, name: &str, f: impl Fn(&Event) -> String + 'static) -> Self {
        self.then(KeyBy::new(name, f))
    }

    /// Appends a [`StatefulMap`].
    pub fn stateful(
        self,
        name: &str,
        init: Value,
        f: impl FnMut(&mut Value, &Event) -> Vec<Event> + 'static,
    ) -> Self {
        self.then(StatefulMap::new(name, init, f))
    }

    /// Appends a tumbling-window count.
    pub fn window_count(self, name: &str, width: SimDuration) -> Self {
        self.then(WindowAggregate::count(
            name,
            WindowAssigner::Tumbling(width),
        ))
    }

    /// Appends a custom window aggregation.
    pub fn window(self, agg: WindowAggregate) -> Self {
        self.then(agg)
    }

    /// Appends a windowed join.
    pub fn join(self, join: WindowJoin) -> Self {
        self.then(join)
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the identity plan.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// `(records_in, records_out)` totals across all batches.
    pub fn record_counts(&self) -> (u64, u64) {
        (self.records_in, self.records_out)
    }

    /// Runs one micro-batch through the chain.
    pub fn run_batch(&mut self, now: SimTime, batch: Vec<Event>) -> Vec<Event> {
        self.records_in += batch.len() as u64;
        let mut events = batch;
        for op in &mut self.ops {
            events = op.process(now, events);
        }
        self.records_out += events.len() as u64;
        events
    }

    /// Flushes residual operator state (incomplete windows) through the
    /// remainder of the chain.
    pub fn flush(&mut self, now: SimTime) -> Vec<Event> {
        let mut carried: Vec<Event> = Vec::new();
        for i in 0..self.ops.len() {
            let mut events = self.ops[i].process(now, std::mem::take(&mut carried));
            events.extend(self.ops[i].flush(now));
            carried = events;
        }
        self.records_out += carried.len() as u64;
        carried
    }

    /// Operator names, in order.
    pub(crate) fn op_names(&self) -> Vec<&str> {
        self.ops.iter().map(|o| o.name()).collect()
    }

    /// How many pipeline stages this plan splits into at its [`KeyBy`]
    /// boundaries: each `KeyBy` *ends* a stage (the key it assigns is what
    /// the shuffle routes on), and whatever follows starts the next one. A
    /// trailing `KeyBy` with nothing after it does not open an empty stage.
    pub fn stage_count(&self) -> usize {
        let mut stages = 1;
        for (i, op) in self.ops.iter().enumerate() {
            if op.is_stage_boundary() && i + 1 < self.ops.len() {
                stages += 1;
            }
        }
        stages
    }

    /// Splits the plan into its stages (see
    /// [`stage_count`](Plan::stage_count)). Each returned plan owns the
    /// operators of one stage; record counters stay with stage 0.
    pub fn into_stages(mut self) -> Vec<Plan> {
        let mut stages: Vec<Plan> = Vec::new();
        let mut current: Vec<Box<dyn Operator>> = Vec::new();
        let n = self.ops.len();
        for (i, op) in self.ops.drain(..).enumerate() {
            let boundary = op.is_stage_boundary();
            current.push(op);
            if boundary && i + 1 < n {
                stages.push(Plan {
                    ops: std::mem::take(&mut current),
                    records_in: 0,
                    records_out: 0,
                });
            }
        }
        stages.push(Plan {
            ops: current,
            records_in: self.records_in,
            records_out: self.records_out,
        });
        stages
    }

    /// Overwrites the record counters: after a restore they come from the
    /// restored chains rather than from live processing.
    pub(crate) fn set_record_counts(&mut self, records_in: u64, records_out: u64) {
        self.records_in = records_in;
        self.records_out = records_out;
    }

    /// Restores what one old instance captured. `captures` holds its base
    /// ([`snapshot_state`](Plan::snapshot_state)) followed by its deltas
    /// ([`snapshot_delta`](Plan::snapshot_delta)) in persistence order, each
    /// aligned with the operator chain; only entries whose key `keep`
    /// accepts are taken. Called once per old instance whose chain this
    /// plan reassembles its keys from — once, with a filter that keeps
    /// everything, for a worker restoring its own chain. Operators the
    /// base holds no state for are left untouched.
    pub fn restore(&mut self, captures: &[&[Option<Value>]], keep: &dyn Fn(&str) -> bool) {
        for (i, op) in self.ops.iter_mut().enumerate() {
            let chain: Vec<&Value> = captures
                .iter()
                .map_while(|capture| capture.get(i)?.as_ref())
                .collect();
            if !chain.is_empty() {
                op.restore(&chain, keep);
            }
        }
    }

    /// Captures every operator's state, aligned with the chain, plus the
    /// record counters — the plan half of a checkpoint snapshot.
    pub fn snapshot_state(&self) -> (Vec<Option<Value>>, u64, u64) {
        let states = self.ops.iter().map(|o| o.snapshot_state()).collect();
        (states, self.records_in, self.records_out)
    }

    /// Captures only the per-operator state that changed since the last
    /// capture and resets every operator's dirty tracking — the plan half
    /// of an incremental checkpoint delta.
    pub fn snapshot_delta(&mut self) -> Vec<Option<Value>> {
        self.ops.iter_mut().map(|o| o.snapshot_delta()).collect()
    }

    /// Resets every operator's dirty tracking without capturing — called
    /// after a full (base) snapshot, which covers all pending changes.
    pub fn mark_clean(&mut self) {
        for op in &mut self.ops {
            op.mark_clean();
        }
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("ops", &self.op_names())
            .field("records_in", &self.records_in)
            .field("records_out", &self.records_out)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_plan_runs_in_order() {
        let mut plan = Plan::new()
            .map("inc", |mut e| {
                e.value = Value::Int(e.value.as_int().unwrap() + 1);
                e
            })
            .filter("gt1", |e| e.value.as_int().unwrap() > 1);
        let out = plan.run_batch(
            SimTime::ZERO,
            vec![
                Event::new(Value::Int(0), SimTime::ZERO),
                Event::new(Value::Int(5), SimTime::ZERO),
            ],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::Int(6));
        assert_eq!(plan.record_counts(), (2, 1));
        assert_eq!(plan.op_names(), vec!["inc", "gt1"]);
    }

    #[test]
    fn flush_cascades_through_downstream_ops() {
        // Window count → map: flushed window results must pass the map.
        let mut plan = Plan::new()
            .key_by("k", |_| "all".into())
            .window_count("w", SimDuration::from_secs(10))
            .map("tag", |mut e| {
                e.value = Value::List(vec![e.value.clone(), Value::Str("tagged".into())]);
                e
            });
        plan.run_batch(
            SimTime::ZERO,
            vec![Event::new(Value::Int(1), SimTime::from_secs(1))],
        );
        let out = plan.flush(SimTime::ZERO);
        assert_eq!(out.len(), 1);
        match &out[0].value {
            Value::List(l) => assert_eq!(l[1], Value::Str("tagged".into())),
            other => panic!("map did not run on flushed events: {other:?}"),
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut plan = Plan::new();
        assert!(plan.is_empty());
        let out = plan.run_batch(
            SimTime::ZERO,
            vec![Event::new(Value::Int(1), SimTime::ZERO)],
        );
        assert_eq!(out.len(), 1);
    }
}
