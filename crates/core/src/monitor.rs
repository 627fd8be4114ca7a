//! Monitoring: delivery counts, latency folds, and (opt-in) per-record
//! delivery identity.
//!
//! stream2gym "triggers a series of monitoring tasks that are responsible
//! for logging relevant information from both the network and the
//! application perspective". This module is the application side: every
//! consumer sink is wrapped by a [`MonitoredSink`] that folds each delivery
//! into per-topic counts and latency statistics (always on, constant
//! memory), from which the latency plots (Fig. 5) are derived. A run that
//! opted in with `Scenario::capture_records()` additionally keeps who
//! received which record when — what the per-message latency series
//! (Fig. 6c) and the message delivery matrix (Fig. 6b) need.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use s2g_broker::{DataSink, SentRecord};
use s2g_proto::{ProducerId, Record, TopicPartition};
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::Event;
use s2g_telemetry::{Histogram, SummaryStats};

/// One observed delivery: a record reaching a consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryRecord {
    /// The receiving consumer's index.
    pub consumer: u32,
    /// Topic the record came from. Interned (`Rc<str>`): the monitor sees
    /// every delivered record in the run, so a per-record `String` clone
    /// here would be one of the hottest allocations in the simulator.
    pub topic: Rc<str>,
    /// The producer that created the record (or the original source record,
    /// for SPE outputs carrying provenance).
    pub producer: ProducerId,
    /// Producer sequence number.
    pub seq: u64,
    /// When the data unit entered the pipeline (origin timestamp for SPE
    /// outputs, produce time otherwise).
    pub produced: SimTime,
    /// When the consumer received it.
    pub delivered: SimTime,
}

impl DeliveryRecord {
    /// End-to-end latency of this delivery. A delivery whose origin
    /// timestamp lies *after* its arrival (possible when an SPE operator
    /// stamps synthetic origins) clamps to zero; the monitor counts those
    /// in [`MonitorCore::clamped_latencies`] so they can't silently skew
    /// latency statistics toward zero.
    pub fn latency(&self) -> SimDuration {
        self.delivered.saturating_since(self.produced)
    }

    /// Whether [`latency`](Self::latency) clamped a negative interval.
    pub fn latency_clamped(&self) -> bool {
        self.produced > self.delivered
    }
}

/// Everything the aggregate accessors need about one topic's deliveries,
/// folded as they arrive.
#[derive(Debug)]
struct TopicFold {
    topic: Rc<str>,
    /// Deliveries per receiving consumer index.
    per_consumer: BTreeMap<u32, u64>,
    /// Exact sum of the (clamped) delivery latencies, in nanoseconds.
    latency_sum_ns: u128,
    /// The same latencies in seconds, observed in arrival order.
    latency: Histogram,
}

impl TopicFold {
    fn count(&self) -> u64 {
        self.latency.count()
    }
}

/// Shared view of all deliveries in a run: always-on per-topic folds, plus
/// every [`DeliveryRecord`] when the run captures records.
#[derive(Debug, Default)]
pub struct MonitorCore {
    /// Every delivery, in arrival order — empty unless the run opted in
    /// with `Scenario::capture_records()`.
    pub deliveries: Vec<DeliveryRecord>,
    /// Deliveries whose produced-after-delivered latency was clamped to
    /// zero by [`DeliveryRecord::latency`].
    pub clamped_latencies: u64,
    capture: bool,
    folds: Vec<TopicFold>,
}

/// Shared handle to the monitor.
pub type MonitorHandle = Rc<RefCell<MonitorCore>>;

impl MonitorCore {
    /// Creates a shared monitor. With `capture` it keeps one
    /// [`DeliveryRecord`] per delivery; without, only the folds.
    pub fn new_handle(capture: bool) -> MonitorHandle {
        Rc::new(RefCell::new(MonitorCore {
            capture,
            ..MonitorCore::default()
        }))
    }

    /// Fails loudly when `accessor` needs record identity the run did not
    /// keep — an empty answer would read as "nothing was delivered".
    pub(crate) fn require_capture(&self, accessor: &str) {
        assert!(
            self.capture,
            "{accessor} needs per-record identity, which this run did not keep: \
             call `Scenario::capture_records()` before `run()`"
        );
    }

    fn fold(&self, topic: &str) -> Option<&TopicFold> {
        self.folds.iter().find(|f| &*f.topic == topic)
    }

    /// Index of `topic`'s fold, created on the topic's first delivery.
    fn fold_index(&mut self, topic: &str) -> usize {
        if let Some(i) = self.folds.iter().position(|f| &*f.topic == topic) {
            return i;
        }
        self.folds.push(TopicFold {
            topic: Rc::from(topic),
            per_consumer: BTreeMap::new(),
            latency_sum_ns: 0,
            latency: Histogram::latency_seconds(),
        });
        self.folds.len() - 1
    }

    /// Total records delivered across all consumers and topics.
    pub fn total_deliveries(&self) -> u64 {
        self.folds.iter().map(TopicFold::count).sum()
    }

    /// Records of `topic` delivered, summed over consumers.
    pub fn delivery_count(&self, topic: &str) -> u64 {
        self.fold(topic).map_or(0, TopicFold::count)
    }

    /// Records of `topic` delivered to one consumer.
    pub fn delivery_count_to(&self, consumer: u32, topic: &str) -> u64 {
        self.fold(topic)
            .and_then(|f| f.per_consumer.get(&consumer).copied())
            .unwrap_or(0)
    }

    /// Deliveries for one topic (any consumer). Needs record capture.
    pub fn for_topic<'a>(&'a self, topic: &'a str) -> impl Iterator<Item = &'a DeliveryRecord> {
        self.require_capture("MonitorCore::for_topic");
        self.deliveries.iter().filter(move |d| &*d.topic == topic)
    }

    /// Deliveries seen by one consumer. Needs record capture.
    pub fn for_consumer(&self, consumer: u32) -> impl Iterator<Item = &DeliveryRecord> {
        self.require_capture("MonitorCore::for_consumer");
        self.deliveries
            .iter()
            .filter(move |d| d.consumer == consumer)
    }

    /// Mean end-to-end latency over a topic, if any deliveries exist.
    pub fn mean_latency(&self, topic: &str) -> Option<SimDuration> {
        let fold = self.fold(topic)?;
        let mean = fold.latency_sum_ns.checked_div(u128::from(fold.count()))?;
        Some(SimDuration::from_nanos(
            u64::try_from(mean).expect("a mean of u64 latencies fits u64"),
        ))
    }

    /// Mean and tail latency (p50/p95/p99, in seconds) over a topic's
    /// deliveries, from the latency histogram folded as they arrived —
    /// `None` when the topic saw no deliveries.
    pub fn latency_stats(&self, topic: &str) -> Option<SummaryStats> {
        self.fold(topic)?.latency.stats()
    }

    /// Latency series for one consumer and topic, ordered by delivery time
    /// (the paper's Fig. 6c axes: message order vs latency). Needs record
    /// capture.
    pub fn latency_series(&self, consumer: u32, topic: &str) -> Vec<(SimTime, SimDuration)> {
        self.require_capture("MonitorCore::latency_series");
        let mut v: Vec<(SimTime, SimDuration)> = self
            .deliveries
            .iter()
            .filter(|d| d.consumer == consumer && &*d.topic == topic)
            .map(|d| (d.delivered, d.latency()))
            .collect();
        v.sort();
        v
    }

    /// Whether `(producer, seq)` on `topic` reached `consumer`. Needs
    /// record capture.
    pub fn was_delivered(
        &self,
        consumer: u32,
        topic: &str,
        producer: ProducerId,
        seq: u64,
    ) -> bool {
        self.require_capture("MonitorCore::was_delivered");
        self.deliveries.iter().any(|d| {
            d.consumer == consumer && &*d.topic == topic && d.producer == producer && d.seq == seq
        })
    }
}

/// A [`DataSink`] wrapper that records deliveries into the shared monitor
/// and forwards to the inner sink.
pub struct MonitoredSink {
    handle: MonitorHandle,
    consumer: u32,
    inner: Box<dyn DataSink>,
}

impl MonitoredSink {
    /// Wraps `inner` for consumer index `consumer`.
    pub fn new(handle: MonitorHandle, consumer: u32, inner: Box<dyn DataSink>) -> Self {
        MonitoredSink {
            handle,
            consumer,
            inner,
        }
    }

    /// The wrapped sink, for post-run downcasting.
    pub fn inner(&self) -> &dyn DataSink {
        self.inner.as_ref()
    }
}

impl DataSink for MonitoredSink {
    fn on_records(&mut self, now: SimTime, tp: &TopicPartition, records: &[Record]) {
        {
            let mut guard = self.handle.borrow_mut();
            let core = &mut *guard;
            // One fold lookup per poll batch; a fold's topic is the
            // interned name every captured record of the batch shares.
            let idx = core.fold_index(&tp.topic);
            let fold = &mut core.folds[idx];
            *fold.per_consumer.entry(self.consumer).or_insert(0) += records.len() as u64;
            for r in records {
                // SPE outputs carry their provenance in the encoded event;
                // raw records use their own produce time. `peek_origin`
                // walks the borrowed payload without decoding it — the
                // monitor never copies record bytes.
                let produced = Event::peek_origin(&r.value).unwrap_or(r.timestamp);
                if produced > now {
                    core.clamped_latencies += 1;
                }
                let latency = now.saturating_since(produced);
                fold.latency_sum_ns += u128::from(latency.as_nanos());
                fold.latency.observe(latency.as_secs_f64());
                if core.capture {
                    core.deliveries.push(DeliveryRecord {
                        consumer: self.consumer,
                        topic: fold.topic.clone(),
                        producer: r.producer,
                        seq: r.producer_seq,
                        produced,
                        delivered: now,
                    });
                }
            }
        }
        self.inner.on_records(now, tp, records);
    }
}

/// The Fig. 6b artifact: for one producer's messages (in production order),
/// which consumers received each one.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryMatrix {
    /// The producer whose messages are tracked.
    pub producer: ProducerId,
    /// Consumer indices (rows).
    pub consumers: Vec<u32>,
    /// Tracked messages as `(topic, seq, produced)` (columns, by seq order).
    pub messages: Vec<SentRecord>,
    /// `received[row][col]` — whether consumer `row` got message `col`.
    pub received: Vec<Vec<bool>>,
}

impl DeliveryMatrix {
    /// Builds the matrix for `producer` from the monitor and the producer's
    /// send log (`(topic, seq, produced)` per message).
    ///
    /// # Panics
    ///
    /// Panics when the monitor did not capture records: a matrix built from
    /// no identities would claim every message was lost.
    pub fn build(
        core: &MonitorCore,
        producer: ProducerId,
        messages: Vec<SentRecord>,
        consumers: &[u32],
    ) -> Self {
        core.require_capture("a delivery matrix");
        let mut received = vec![vec![false; messages.len()]; consumers.len()];
        for d in &core.deliveries {
            if d.producer != producer {
                continue;
            }
            let Some(row) = consumers.iter().position(|c| *c == d.consumer) else {
                continue;
            };
            if let Some(col) = messages
                .iter()
                .position(|(t, s, _)| *s == d.seq && **t == *d.topic)
            {
                received[row][col] = true;
            }
        }
        DeliveryMatrix {
            producer,
            consumers: consumers.to_vec(),
            messages,
            received,
        }
    }

    /// Messages not received by a given consumer row.
    pub fn losses_for_row(&self, row: usize) -> Vec<&SentRecord> {
        self.messages
            .iter()
            .enumerate()
            .filter(|(col, _)| !self.received[row][*col])
            .map(|(_, m)| m)
            .collect()
    }

    /// Messages missed by every consumer.
    pub fn total_losses(&self) -> Vec<&SentRecord> {
        self.messages
            .iter()
            .enumerate()
            .filter(|(col, _)| self.received.iter().all(|row| !row[*col]))
            .map(|(_, m)| m)
            .collect()
    }

    /// The fraction of (message, consumer) cells delivered.
    pub fn delivery_rate(&self) -> f64 {
        let total = self.messages.len() * self.consumers.len();
        if total == 0 {
            return 1.0;
        }
        let hit: usize = self
            .received
            .iter()
            .map(|row| row.iter().filter(|b| **b).count())
            .sum();
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_broker::CollectingSink;

    fn record(producer: u32, seq: u64, ts_ms: u64) -> Record {
        use s2g_proto::Record as R;
        R::keyless(vec![1, 2, 3], SimTime::from_millis(ts_ms))
            .from_producer(ProducerId(producer), seq)
    }

    #[test]
    fn monitored_sink_records_and_forwards() {
        let handle = MonitorCore::new_handle(true);
        let mut sink = MonitoredSink::new(handle.clone(), 3, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        sink.on_records(
            SimTime::from_millis(500),
            &tp,
            &[record(1, 0, 100), record(1, 1, 200)],
        );
        let core = handle.borrow();
        assert_eq!(core.deliveries.len(), 2);
        assert_eq!(core.deliveries[0].consumer, 3);
        assert_eq!(core.deliveries[0].latency(), SimDuration::from_millis(400));
        assert!(core.was_delivered(3, "t", ProducerId(1), 1));
        assert!(!core.was_delivered(3, "t", ProducerId(1), 2));
        // Forwarded to the inner CollectingSink too.
        let inner: &dyn DataSink = sink.inner();
        let inner = (inner as &dyn std::any::Any)
            .downcast_ref::<CollectingSink>()
            .unwrap();
        assert_eq!(inner.deliveries.len(), 2);
    }

    #[test]
    fn mean_latency_and_series() {
        let handle = MonitorCore::new_handle(true);
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        sink.on_records(SimTime::from_millis(300), &tp, &[record(1, 0, 100)]);
        sink.on_records(SimTime::from_millis(600), &tp, &[record(1, 1, 200)]);
        let core = handle.borrow();
        assert_eq!(core.mean_latency("t"), Some(SimDuration::from_millis(300)));
        assert_eq!(core.mean_latency("zz"), None);
        let series = core.latency_series(0, "t");
        assert_eq!(series.len(), 2);
        assert!(series[0].0 < series[1].0);
    }

    #[test]
    fn spe_events_use_origin_for_latency() {
        let handle = MonitorCore::new_handle(true);
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let ev = Event::new(s2g_spe::Value::Int(1), SimTime::from_millis(900))
            .with_origin(SimTime::from_millis(100));
        let rec = Record::keyless(ev.to_bytes(), SimTime::from_millis(900))
            .from_producer(ProducerId(5), 0);
        sink.on_records(
            SimTime::from_millis(1_000),
            &TopicPartition::new("out", 0),
            &[rec],
        );
        let core = handle.borrow();
        assert_eq!(core.deliveries[0].produced, SimTime::from_millis(100));
        assert_eq!(core.deliveries[0].latency(), SimDuration::from_millis(900));
    }

    #[test]
    fn latency_stats_cover_tail_quantiles() {
        let handle = MonitorCore::new_handle(true);
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        // 90 deliveries at ~10 ms and 10 stragglers at ~1 s: the median
        // stays near the bulk while p99 lands among the stragglers.
        for i in 0..90 {
            sink.on_records(
                SimTime::from_millis(i * 20 + 10),
                &tp,
                &[record(1, i, i * 20)],
            );
        }
        for i in 90..100 {
            sink.on_records(
                SimTime::from_millis(i * 20 + 1_000),
                &tp,
                &[record(1, i, i * 20)],
            );
        }
        let core = handle.borrow();
        let stats = core.latency_stats("t").expect("deliveries exist");
        assert_eq!(stats.count, 100);
        assert!(stats.p50 < 0.05, "median near the 10ms bulk: {}", stats.p50);
        assert!(stats.p99 > 0.5, "p99 sees the 1s straggler: {}", stats.p99);
        assert!(stats.mean > stats.p50);
        assert!(core.latency_stats("zz").is_none());
    }

    #[test]
    fn clamped_negative_latencies_are_counted() {
        let handle = MonitorCore::new_handle(true);
        let mut sink = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let tp = TopicPartition::new("t", 0);
        // Produced at 500 ms but "delivered" at 100 ms: the latency clamps
        // to zero and the clamp is counted instead of silently vanishing.
        sink.on_records(SimTime::from_millis(100), &tp, &[record(1, 0, 500)]);
        sink.on_records(SimTime::from_millis(700), &tp, &[record(1, 1, 600)]);
        let core = handle.borrow();
        assert_eq!(core.clamped_latencies, 1);
        assert!(core.deliveries[0].latency_clamped());
        assert_eq!(core.deliveries[0].latency(), SimDuration::ZERO);
        assert!(!core.deliveries[1].latency_clamped());
    }

    #[test]
    fn delivery_matrix_marks_losses() {
        let handle = MonitorCore::new_handle(true);
        let tp = TopicPartition::new("ta", 0);
        let mut sink0 = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let mut sink1 = MonitoredSink::new(handle.clone(), 1, Box::new(CollectingSink::default()));
        // Consumer 0 gets messages 0 and 1; consumer 1 only message 0.
        sink0.on_records(
            SimTime::from_millis(10),
            &tp,
            &[record(7, 0, 1), record(7, 1, 2)],
        );
        sink1.on_records(SimTime::from_millis(10), &tp, &[record(7, 0, 1)]);
        let messages = vec![
            ("ta".into(), 0, SimTime::from_millis(1)),
            ("ta".into(), 1, SimTime::from_millis(2)),
            ("ta".into(), 2, SimTime::from_millis(3)), // never delivered
        ];
        let core = handle.borrow();
        let m = DeliveryMatrix::build(&core, ProducerId(7), messages, &[0, 1]);
        assert_eq!(m.received[0], vec![true, true, false]);
        assert_eq!(m.received[1], vec![true, false, false]);
        assert_eq!(m.losses_for_row(1).len(), 2);
        assert_eq!(m.total_losses().len(), 1);
        assert!((m.delivery_rate() - 0.5).abs() < 1e-9);
    }

    /// Feeds both a capturing and a default monitor the same deliveries.
    fn feed(handle: &MonitorHandle) {
        let ta = TopicPartition::new("ta", 0);
        let tb = TopicPartition::new("tb", 1);
        let mut sink0 = MonitoredSink::new(handle.clone(), 0, Box::new(CollectingSink::default()));
        let mut sink1 = MonitoredSink::new(handle.clone(), 1, Box::new(CollectingSink::default()));
        for i in 0..40u64 {
            let batch = [record(1, 2 * i, i * 7), record(1, 2 * i + 1, i * 7 + 3)];
            sink0.on_records(SimTime::from_millis(i * 7 + 5 + i % 4), &ta, &batch);
            sink1.on_records(SimTime::from_millis(i * 9 + 40), &ta, &batch[..1]);
            sink1.on_records(SimTime::from_millis(i * 7 + 2), &tb, &batch[1..]);
        }
    }

    #[test]
    fn folds_equal_what_captured_deliveries_recompute() {
        let captured = MonitorCore::new_handle(true);
        let folded = MonitorCore::new_handle(false);
        feed(&captured);
        feed(&folded);
        let (captured, folded) = (captured.borrow(), folded.borrow());
        assert!(folded.deliveries.is_empty(), "the default keeps no records");
        assert_eq!(captured.deliveries.len(), 160);
        assert_eq!(folded.total_deliveries(), 160);
        assert_eq!(
            folded.clamped_latencies, 40,
            "tb arrives 1 ms before its stamp"
        );
        for core in [&*captured, &*folded] {
            for topic in ["ta", "tb"] {
                let of_topic = || captured.deliveries.iter().filter(|d| &*d.topic == topic);
                assert_eq!(core.delivery_count(topic), of_topic().count() as u64);
                for consumer in 0..3 {
                    assert_eq!(
                        core.delivery_count_to(consumer, topic),
                        of_topic().filter(|d| d.consumer == consumer).count() as u64
                    );
                }
                let sum: u64 = of_topic().map(|d| d.latency().as_nanos()).sum();
                assert_eq!(
                    core.mean_latency(topic),
                    Some(SimDuration::from_nanos(sum / of_topic().count() as u64))
                );
                let mut hist = Histogram::latency_seconds();
                for d in of_topic() {
                    hist.observe(d.latency().as_secs_f64());
                }
                assert_eq!(core.latency_stats(topic), hist.stats());
            }
            assert_eq!(core.delivery_count("zz"), 0);
        }
    }

    #[test]
    #[should_panic(expected = "Scenario::capture_records()")]
    fn identity_accessors_refuse_an_uncaptured_run() {
        let handle = MonitorCore::new_handle(false);
        feed(&handle);
        let core = handle.borrow();
        let _ = core.latency_series(0, "ta");
    }
}
