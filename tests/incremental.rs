//! Property-style seeded sweeps for the bounded-recovery subsystem:
//!
//! * restoring a base snapshot plus its delta chain must equal restoring a
//!   single full snapshot, for arbitrary keyed/windowed churn;
//! * a compacted partition log must present the same reader-visible state
//!   (latest committed record per key, every keyless record) as the raw
//!   log, and survive the encode/recover round trip unchanged.
//!
//! The offline build environment has no `proptest`, so each property runs
//! as a seeded randomized sweep over the workspace's deterministic
//! [`StdRng`]; failures reproduce exactly from the printed seed.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::broker::{LogSegment, PartitionLog};
use stream2gym::proto::{LeaderEpoch, LogRun, Offset, Record};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{Event, Plan, Value, WindowAggregate, WindowAssigner, WindowJoin};

const CASES: usize = 64;

fn make_plan() -> Plan {
    Plan::new()
        .key_by("by-key", |e| e.key.clone().unwrap_or_else(|| "none".into()))
        .stateful("running", Value::Int(0), |state, e| {
            let n = state.as_int().unwrap_or(0) + 1;
            *state = Value::Int(n);
            vec![e.clone()]
        })
        .window(WindowAggregate::count(
            "per-window",
            WindowAssigner::Tumbling(SimDuration::from_secs(5)),
        ))
}

fn make_join_plan() -> Plan {
    Plan::new().join(WindowJoin::new(
        "pair",
        WindowAssigner::Tumbling(SimDuration::from_secs(5)),
        |l, r| Value::List(vec![l.value.clone(), r.value.clone()]),
    ))
}

fn random_batch(rng: &mut StdRng, step: usize) -> Vec<Event> {
    let n = rng.gen_range(0..6);
    (0..n)
        .map(|i| {
            // Event time mostly advances, with occasional stragglers, so
            // windows keep opening and closing (churn + deletions).
            let ts_ms = (step as u64) * 700 + rng.gen_range(0..900u64);
            let key = format!("k{}", rng.gen_range(0..7u32));
            let mut e = Event::new(
                Value::Int((step * 10 + i) as i64),
                SimTime::from_millis(ts_ms),
            )
            .with_key(key);
            e.source = rng.gen_range(0..2u8);
            e
        })
        .collect()
}

/// Drives `make()` plans through random churn, captures one base plus a
/// delta per step, and asserts that a second identical plan restoring that
/// chain — through the one restore method, as a worker reading its own
/// chain does: every key kept — equals the live plan's full state,
/// watermark included (a chain stands at its newest capture's watermark,
/// not its base's).
fn chain_restore_equals_full(make: fn() -> Plan, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = make();
    let steps = rng.gen_range(4..12);
    let base_at = rng.gen_range(0..steps / 2);
    // Captures in persistence order: the base, then every delta.
    let mut chain: Vec<Vec<Option<Value>>> = Vec::new();
    for step in 0..steps {
        let batch = random_batch(&mut rng, step);
        live.run_batch(SimTime::from_millis(step as u64 * 700), batch);
        if step == base_at {
            chain.push(live.snapshot_state().0);
            live.mark_clean();
        } else if step > base_at {
            chain.push(live.snapshot_delta());
        }
    }
    let mut restored = make();
    let captures: Vec<&[Option<Value>]> = chain.iter().map(Vec::as_slice).collect();
    restored.restore(&captures, &|_| true);
    assert_eq!(
        restored.snapshot_state().0,
        live.snapshot_state().0,
        "seed {seed}: base+deltas restore must equal the live state"
    );
}

#[test]
fn chained_restore_equals_full_restore_for_keyed_and_windowed_state() {
    for case in 0..CASES {
        chain_restore_equals_full(make_plan, 1_000 + case as u64);
    }
}

#[test]
fn chained_restore_equals_full_restore_for_window_joins() {
    for case in 0..CASES {
        chain_restore_equals_full(make_join_plan, 9_000 + case as u64);
    }
}

/// Reader-visible fold of a committed log: last value (and its offset) per
/// key, plus every committed keyless record.
type ReaderState = (BTreeMap<Vec<u8>, (u64, Vec<u8>)>, Vec<Vec<u8>>);

/// What a consumer folding the committed log ends up with: the last
/// committed value per key, plus every committed keyless record.
fn reader_visible(log: &PartitionLog) -> ReaderState {
    let mut latest: BTreeMap<Vec<u8>, (u64, Vec<u8>)> = BTreeMap::new();
    let mut keyless = Vec::new();
    let runs = log.read_entries(Offset::ZERO, usize::MAX, true);
    for (offset, _, record) in runs.iter().flat_map(LogRun::entries) {
        match record.key() {
            Some(k) => {
                latest.insert(k.to_vec(), (offset.value(), record.value().to_vec()));
            }
            None => keyless.push(record.value().to_vec()),
        }
    }
    (latest, keyless)
}

#[test]
fn compacted_log_presents_identical_reader_visible_state() {
    for case in 0..CASES {
        let seed = 40_000 + case as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = PartitionLog::with_segment_max(rng.gen_range(2..6));
        let n = rng.gen_range(10..120);
        for i in 0..n {
            let record = if rng.gen_range(0..5) == 0 {
                Record::keyless(format!("v{i}"), SimTime::from_millis(i))
            } else {
                let key = format!("k{}", rng.gen_range(0..9u32));
                Record::new(key, format!("v{i}"), SimTime::from_millis(i))
            };
            log.append(LeaderEpoch(0), record);
        }
        let hw = rng.gen_range(0..=n);
        log.advance_high_watermark(Offset(hw));
        let raw = log.clone();
        let outcome = log.compact();
        assert_eq!(
            reader_visible(&log),
            reader_visible(&raw),
            "seed {seed}: compaction changed the reader-visible state"
        );
        assert_eq!(log.log_end(), raw.log_end(), "seed {seed}: LEO moved");
        assert_eq!(
            log.high_watermark(),
            raw.high_watermark(),
            "seed {seed}: HW moved"
        );
        assert!(
            log.retained_bytes() + outcome.reclaimed_bytes as usize == raw.retained_bytes(),
            "seed {seed}: byte accounting broke"
        );

        // The compacted log must survive the flush/recover round trip with
        // identical reader-visible state.
        let bases: Vec<u64> = log
            .segments()
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.base_offset().value())
            .collect();
        let segments: Vec<LogSegment> = log
            .segments()
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| LogSegment::decode(&s.encode()).expect("segment decodes"))
            .collect();
        let rebuilt = PartitionLog::from_recovered_segments(
            segments,
            log.high_watermark(),
            log.log_start(),
            &bases,
            4,
        );
        assert_eq!(
            reader_visible(&rebuilt),
            reader_visible(&log),
            "seed {seed}: recovery changed the reader-visible state"
        );
        assert_eq!(rebuilt.log_end(), log.log_end(), "seed {seed}");
    }
}

#[test]
fn retention_only_drops_whole_committed_prefixes() {
    for case in 0..CASES {
        let seed = 70_000 + case as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = PartitionLog::with_segment_max(rng.gen_range(2..5));
        let n = rng.gen_range(8..60);
        for i in 0..n {
            log.append(
                LeaderEpoch(0),
                Record::keyless(format!("v{i}"), SimTime::from_secs(i)),
            );
        }
        let hw = rng.gen_range(0..=n);
        log.advance_high_watermark(Offset(hw));
        let raw = log.clone();
        let cutoff = SimDuration::from_secs(rng.gen_range(1..40));
        let now = SimTime::from_secs(n + 5);
        let outcome = log.apply_retention(now, Some(cutoff), None);
        // Retention never reaches at or past the high watermark, and what
        // remains is exactly the raw log's suffix from the new start.
        assert!(log.log_start() <= log.high_watermark(), "seed {seed}");
        let offsets = |runs: Vec<LogRun>| -> Vec<u64> {
            let entries = runs.iter().flat_map(LogRun::entries);
            entries.map(|(offset, _, _)| offset.value()).collect()
        };
        let kept = offsets(log.read_entries(Offset::ZERO, usize::MAX, false));
        let expected = offsets(raw.read_entries(log.log_start(), usize::MAX, false));
        assert_eq!(kept, expected, "seed {seed}: retention cut mid-suffix");
        assert_eq!(
            outcome.removed_records as usize + log.len(),
            raw.len(),
            "seed {seed}: record accounting broke"
        );
    }
}
