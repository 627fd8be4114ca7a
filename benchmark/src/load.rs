//! The load generator and the folding sinks, both owned by the benchmark.
//!
//! Every input is derived from `--seed` by the benchmark's own generator and
//! handed to the program as a `SourceSpec::Custom` factory; the program's
//! RNG never shapes the load. The load is an open loop in simulated time:
//! one record per fixed interval, however the emulated system keeps up.
//! Sinks fold what arrives into O(1) state (plus one bit per offered record,
//! or one counter per `(key, window)`), so checking a run costs almost no
//! memory next to the run itself.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use s2g_broker::{DataSink, DataSource, SourceAction};
use s2g_proto::{Record, TopicPartition};
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::Event;

/// Knuth's MMIX LCG with a murmur-style output mix. The benchmark's only
/// source of randomness; same seed, same stream, on every machine.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^ (x >> 33)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// 64-bit FNV-1a, the benchmark's digest and checksum function.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 = (self.0 ^ u64::from(*x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A cheap bijective mix, for order-independent checksums over indices
/// (the payload bytes themselves are compared against the plan).
fn mix(i: u64) -> u64 {
    let x = (i ^ (i >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// How keys are drawn for a keyed load.
#[derive(Clone, Copy)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf with exponent 1.0: key `r` has weight `1 / (r + 1)`.
    Zipf,
}

const POOL: usize = 4096;
/// Bytes at the head of every payload that carry the record's index.
const INDEX_LEN: usize = 8;

/// Everything one producer will offer, generated before the run starts.
pub struct LoadPlan {
    pub topic: String,
    pub records: u64,
    pub interval: SimDuration,
    pub payload: usize,
    /// Printable filler; record `i` carries `payload - 8` bytes of it from
    /// an offset that depends on `i`. Printable because the SPE wraps raw
    /// payloads as UTF-8 strings.
    pool: Vec<u8>,
    /// Key id per record, `None` for a keyless load.
    pub keys: Option<Vec<u16>>,
    key_names: Vec<Vec<u8>>,
}

impl LoadPlan {
    pub fn new(
        seed: u64,
        topic: &str,
        records: u64,
        interval: SimDuration,
        payload: usize,
        keys: Option<(usize, KeyDist)>,
    ) -> Rc<LoadPlan> {
        assert!(payload >= INDEX_LEN && records < 1 << 32);
        let mut lcg = Lcg::new(seed);
        let pool = (0..POOL + payload)
            .map(|_| b'!' + lcg.below(94) as u8)
            .collect();
        let mut key_names = Vec::new();
        let keys = keys.map(|(n, dist)| {
            assert!(n <= usize::from(u16::MAX));
            key_names = (0..n).map(|k| format!("k{k:04}").into_bytes()).collect();
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for r in 0..n {
                acc += match dist {
                    KeyDist::Uniform => 1.0,
                    KeyDist::Zipf => 1.0 / (r + 1) as f64,
                };
                cdf.push(acc);
            }
            (0..records)
                .map(|_| {
                    let u = lcg.next_f64() * acc;
                    cdf.partition_point(|c| *c <= u).min(n - 1) as u16
                })
                .collect()
        });
        Rc::new(LoadPlan {
            topic: topic.to_string(),
            records,
            interval,
            payload,
            pool,
            keys,
            key_names,
        })
    }

    fn filler(&self, i: u64) -> &[u8] {
        let at = (i.wrapping_mul(31) % POOL as u64) as usize;
        &self.pool[at..at + self.payload - INDEX_LEN]
    }

    fn payload_of(&self, i: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.payload);
        v.extend_from_slice(format!("{i:08x}").as_bytes());
        v.extend_from_slice(self.filler(i));
        v
    }

    fn key_of(&self, i: u64) -> Option<&[u8]> {
        let keys = self.keys.as_ref()?;
        Some(&self.key_names[usize::from(keys[i as usize])])
    }

    /// The index a payload claims, if the payload is exactly what the plan
    /// generated for that index.
    fn verify(&self, payload: &[u8]) -> Option<u64> {
        if payload.len() != self.payload {
            return None;
        }
        let head = std::str::from_utf8(&payload[..INDEX_LEN]).ok()?;
        let i = u64::from_str_radix(head, 16).ok()?;
        (i < self.records && &payload[INDEX_LEN..] == self.filler(i)).then_some(i)
    }

    /// Offered records per key id.
    pub fn key_histogram(&self) -> Vec<u64> {
        let mut h = vec![0; self.key_names.len()];
        for k in self.keys.iter().flatten() {
            h[usize::from(*k)] += 1;
        }
        h
    }

    /// Simulated time at which the last record is offered.
    pub fn produce_window(&self) -> SimDuration {
        self.interval * self.records
    }
}

/// The `DataSource` the program pulls the plan through.
pub struct PlanSource {
    plan: Rc<LoadPlan>,
    next: u64,
}

impl PlanSource {
    pub fn new(plan: Rc<LoadPlan>) -> Self {
        PlanSource { plan, next: 0 }
    }

    /// Key and payload of the next record; `None` once the plan is spent.
    pub fn next_record(&mut self) -> Option<(Option<Vec<u8>>, Vec<u8>)> {
        let i = self.next;
        if i == self.plan.records {
            return None;
        }
        self.next += 1;
        let key = self.plan.key_of(i).map(<[u8]>::to_vec);
        Some((key, self.plan.payload_of(i)))
    }
}

impl DataSource for PlanSource {
    fn next(&mut self, _now: SimTime, _rng: &mut StdRng) -> SourceAction {
        match self.next_record() {
            Some((key, value)) => SourceAction::Emit {
                topic: self.plan.topic.clone(),
                key,
                value,
                next_after: self.plan.interval,
            },
            None => SourceAction::Done,
        }
    }
}

/// Simulated source-to-sink latency in log-spaced buckets (16 per octave,
/// about 4 % wide), so percentiles are exact functions of the simulated
/// run and cost no memory per record.
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
}

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            buckets: vec![0; 64 * 16],
            count: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < 16 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (octave - 4)) & 15) as usize;
        (octave - 3) * 16 + sub
    }

    fn lower_bound(index: usize) -> u64 {
        if index < 16 {
            return index as u64;
        }
        let octave = index / 16 + 3;
        (16 + (index % 16) as u64) << (octave - 4)
    }

    fn add(&mut self, d: SimDuration) {
        self.buckets[Self::index(d.as_nanos())] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Lower bound of the bucket holding quantile `q`, in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let rank = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_bound(i) as f64 / 1e6;
            }
        }
        0.0
    }
}

/// What a sink has folded so far; shared with the benchmark through an
/// `Rc` so nothing has to be dug out of the program's process table.
pub struct Fold {
    /// Results delivered (records, or window results).
    pub count: u64,
    /// Order-independent sum of per-result hashes.
    pub checksum: u64,
    pub last_delivery: SimTime,
    /// Deliveries that did not match anything the plan offered.
    pub corrupt: u64,
    pub latency: LatencyHist,
    /// One bit per offered record (record sinks).
    seen: Vec<u64>,
    /// Records delivered more than once, or `(key, window)` results the
    /// engine emitted again for late records.
    pub duplicates: u64,
    /// Count per `(key id, window index)` (window sink).
    pub windows: BTreeMap<(u16, u32), u64>,
}

impl Fold {
    pub fn new(records: u64) -> Rc<RefCell<Fold>> {
        Rc::new(RefCell::new(Fold {
            count: 0,
            checksum: 0,
            last_delivery: SimTime::ZERO,
            corrupt: 0,
            latency: LatencyHist::new(),
            seen: vec![0; (records as usize).div_ceil(64)],
            duplicates: 0,
            windows: BTreeMap::new(),
        }))
    }

    fn mark(&mut self, i: u64) {
        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        if self.seen[word] & bit != 0 {
            self.duplicates += 1;
        }
        self.seen[word] |= bit;
    }

    /// Distinct offered records that arrived.
    pub fn distinct(&self) -> u64 {
        self.seen.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// What the records on the sink topic are.
#[derive(Clone, Copy)]
pub enum SinkKind {
    /// The producer's records, untouched (no SPE on the path).
    Raw,
    /// The producer's records after an identity SPE job: an encoded event
    /// whose string value is the payload.
    Event,
}

/// Checks every delivered record against the plan and folds it.
pub struct RecordSink {
    pub plan: Rc<LoadPlan>,
    pub fold: Rc<RefCell<Fold>>,
    pub kind: SinkKind,
}

impl DataSink for RecordSink {
    fn on_records(&mut self, now: SimTime, _tp: &TopicPartition, records: &[Record]) {
        let mut fold = self.fold.borrow_mut();
        for r in records {
            fold.count += 1;
            fold.last_delivery = now;
            let decoded = match self.kind {
                SinkKind::Raw => {
                    let key_ok = |i: u64| r.key.as_deref() == self.plan.key_of(i);
                    self.plan
                        .verify(&r.value)
                        .filter(|i| key_ok(*i))
                        .map(|i| (i, r.timestamp))
                }
                SinkKind::Event => Event::from_bytes(&r.value).ok().and_then(|e| {
                    let i = self.plan.verify(e.value.as_str()?.as_bytes())?;
                    Some((i, e.origin))
                }),
            };
            match decoded {
                Some((i, created)) => {
                    fold.mark(i);
                    fold.checksum = fold.checksum.wrapping_add(mix(i));
                    fold.latency.add(now.saturating_since(created));
                }
                None => fold.corrupt += 1,
            }
        }
    }
}

/// Folds the output of `key_by -> window_count(width)`: one result per
/// `(key, window)` carrying the number of records counted.
pub struct WindowSink {
    pub fold: Rc<RefCell<Fold>>,
    pub width: SimDuration,
}

impl DataSink for WindowSink {
    fn on_records(&mut self, now: SimTime, _tp: &TopicPartition, records: &[Record]) {
        let mut fold = self.fold.borrow_mut();
        for r in records {
            fold.count += 1;
            fold.last_delivery = now;
            let decoded = Event::from_bytes(&r.value).ok().and_then(|e| {
                let key: u16 = e.key.as_deref()?.strip_prefix('k')?.parse().ok()?;
                let n = u64::try_from(e.value.as_int()?).ok()?;
                // `ts` is the window's end.
                let window = (e.ts.as_nanos() / self.width.as_nanos()).checked_sub(1)?;
                Some((key, u32::try_from(window).ok()?, n, e.ts))
            });
            match decoded {
                Some((key, window, n, end)) => {
                    if fold.windows.contains_key(&(key, window)) {
                        fold.duplicates += 1;
                    }
                    *fold.windows.entry((key, window)).or_insert(0) += n;
                    let id = u64::from(key) << 48 | u64::from(window) << 24 | n;
                    fold.checksum = fold.checksum.wrapping_add(mix(id));
                    // Excludes the window's length: from the window's end
                    // to delivery.
                    fold.latency.add(now.saturating_since(end));
                }
                None => fold.corrupt += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_and_payloads_verify() {
        let mk = |seed| {
            LoadPlan::new(
                seed,
                "t",
                1000,
                SimDuration::from_micros(20),
                64,
                Some((16, KeyDist::Zipf)),
            )
        };
        let (a, b, c) = (mk(7), mk(7), mk(8));
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.keys, c.keys);
        for i in [0, 1, 999] {
            let p = a.payload_of(i);
            assert_eq!(p.len(), 64);
            assert!(p.is_ascii());
            assert_eq!(a.verify(&p), Some(i));
            assert_eq!(c.verify(&p), None);
        }
        let hist = a.key_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 1000);
        assert!(hist[0] > hist[15]);
    }

    #[test]
    fn latency_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 1000, 123_456, 5_000_000_000] {
            let i = LatencyHist::index(ns);
            assert!(i >= last);
            last = i;
            let lo = LatencyHist::lower_bound(i);
            assert!(lo <= ns && (ns - lo) as f64 <= ns as f64 / 16.0 + 1.0);
        }
    }
}
