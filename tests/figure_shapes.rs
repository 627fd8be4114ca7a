//! Shape assertions for every reproduced figure, at Quick scale so the
//! whole suite runs in a debug build. The full-scale sweeps live in
//! `s2g-bench` (`cargo run --release -p s2g-bench --bin figures`).

use s2g_bench::{
    broker_recovery_sweep, compaction_sweep, fig5_sweep, fig6_run, fig7a_sweep, fig7b_sweep,
    fig8_sweep, fig9_sweep, hotpath_sweep, scaling_sweep, throughput_sweep, Component, Scale,
};
use stream2gym::broker::CoordinationMode;

/// Fig. 5: every curve rises with delay, and the broker/SPE curves dominate
/// the producer/consumer curves at high delay — the paper's key finding
/// ("the impact was more prominent when the data broker and the stream
/// processing engine delays increase").
#[test]
fn fig5_broker_and_spe_links_dominate() {
    let data = fig5_sweep(&[25, 150], Scale::Quick, 42);
    let get = |c: Component, ms: u64| -> f64 {
        data.iter()
            .find(|(dc, dms, _)| *dc == c && *dms == ms)
            .map(|(_, _, v)| *v)
            .expect("swept point")
    };
    for c in Component::ALL {
        assert!(
            get(c, 150) > get(c, 25),
            "{}: latency must grow with delay ({} vs {})",
            c.label(),
            get(c, 25),
            get(c, 150)
        );
    }
    let broker = get(Component::Broker, 150);
    let spe = get(Component::Spe, 150);
    let producer = get(Component::Producer, 150);
    let consumer = get(Component::Consumer, 150);
    assert!(
        broker > producer,
        "broker link hurts more than producer link"
    );
    assert!(
        broker > consumer,
        "broker link hurts more than consumer link"
    );
    assert!(spe > producer, "SPE link hurts more than producer link");
}

/// Fig. 6: ZooKeeper mode silently loses acknowledged messages across the
/// partition; KRaft mode does not. Losses come only from the disconnected
/// leader's topic.
#[test]
fn fig6_zk_loses_kraft_does_not() {
    let zk = fig6_run(CoordinationMode::Zk, 4, Scale::Quick, 1);
    assert!(
        zk.truncated_records > 0,
        "healing must truncate the divergent suffix"
    );
    assert!(
        zk.lost_messages > 0,
        "ZooKeeper mode must silently lose messages"
    );
    // Losses confined to topic A (whose leader was disconnected): messages
    // missed by every consumer must be topic-a.
    for (topic, _, _) in zk.matrix.total_losses() {
        assert_eq!(
            &**topic, "topic-a",
            "only the disconnected leader's topic loses data"
        );
    }
    // Leadership cycled away and back (events 1 and 4 of Fig. 6d).
    let became: Vec<bool> = zk.leader_events.iter().map(|(_, b)| *b).collect();
    assert!(became.contains(&false), "original leader must step down");
    assert_eq!(
        became.last(),
        Some(&true),
        "preferred election must restore it"
    );

    let kraft = fig6_run(CoordinationMode::Kraft, 4, Scale::Quick, 1);
    assert_eq!(kraft.lost_messages, 0, "KRaft mode must lose nothing acked");
}

/// Fig. 6c: both topics show a latency spike (election hold for topic A,
/// retry-until-heal for topic B's disconnected producer).
#[test]
fn fig6_latency_spikes_per_topic() {
    let zk = fig6_run(CoordinationMode::Zk, 4, Scale::Quick, 2);
    let peak = |s: &[(f64, f64)]| s.iter().map(|(_, l)| *l).fold(0.0f64, f64::max);
    let typical = |s: &[(f64, f64)]| {
        let mut v: Vec<f64> = s.iter().map(|(_, l)| *l).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    for (name, series) in [("topic-a", &zk.latency_a), ("topic-b", &zk.latency_b)] {
        assert!(
            peak(series) > typical(series) * 10.0 && peak(series) > 5.0,
            "{name} must spike well above its median: peak {} median {}",
            peak(series),
            typical(series)
        );
    }
}

/// Fig. 7a: aggregate throughput scales with consumers below the core count
/// and stops scaling above it.
#[test]
fn fig7a_throughput_plateaus_at_core_count() {
    let data = fig7a_sweep(&[1, 4, 8, 16], 5);
    let t = |n: usize| {
        data.iter()
            .find(|(c, _)| *c == n)
            .map(|(_, v)| *v)
            .expect("point")
    };
    assert!(t(4) > t(1) * 2.5, "4 consumers scale: {} vs {}", t(1), t(4));
    assert!(t(8) > t(4) * 1.5, "8 consumers scale: {} vs {}", t(4), t(8));
    // Beyond the 8 cores: no significant gain (paper: "does not cause a
    // significant impact").
    assert!(
        t(16) < t(8) * 1.25,
        "16 consumers must not scale past the core count: {} vs {}",
        t(8),
        t(16)
    );
}

/// Fig. 7b: normalized runtime grows with users, overhead-dominated
/// (sub-linear), in the paper's 1.0 → ~1.6-1.9 band.
#[test]
fn fig7b_normalized_runtime_band() {
    let data = fig7b_sweep(&[20, 100], Scale::Quick, 3);
    assert_eq!(data[0].1, 1.0);
    let at_100 = data[1].1;
    assert!(
        (1.3..2.2).contains(&at_100),
        "normalized runtime at 100 users must be in the paper's band, got {at_100}"
    );
}

/// Fig. 8: the emulation and hardware backends produce near-identical
/// latency curves ("the results match almost exactly").
#[test]
fn fig8_backends_match() {
    for component in [Component::Broker, Component::Spe] {
        let data = fig8_sweep(&[50, 150], component, Scale::Quick, 42);
        for ms in [50u64, 150] {
            let emu = data
                .iter()
                .find(|(b, d, _)| *b == "stream2gym" && *d == ms)
                .map(|(_, _, v)| *v)
                .expect("point");
            let hw = data
                .iter()
                .find(|(b, d, _)| *b == "hardware" && *d == ms)
                .map(|(_, _, v)| *v)
                .expect("point");
            let gap = (emu - hw).abs() / hw;
            assert!(
                gap < 0.05,
                "backends must agree within 5% at {ms}ms, gap {gap:.3}"
            );
        }
    }
}

/// Fig. 9: CPU stays low (<60% for >90% of samples at max sites), median
/// CPU grows modestly with sites, memory grows linearly and responds to the
/// producer buffer size.
#[test]
fn fig9_resource_model_shapes() {
    let sweep32 = fig9_sweep(&[2, 10], 32 << 20, Scale::Quick, 7);
    let small = &sweep32[0];
    let large = &sweep32[1];

    // CDF claim: at 10 sites, >90% of samples below 60% CPU.
    let below = large.cpu_samples.iter().filter(|u| **u < 0.6).count();
    assert!(
        below as f64 / large.cpu_samples.len() as f64 > 0.9,
        "CPU must stay under 60% for >90% of time at 10 sites"
    );
    // Median grows with sites but stays low overall.
    assert!(
        large.cpu_median > small.cpu_median,
        "median CPU grows with sites"
    );
    assert!(large.cpu_median < 0.25, "overall CPU demand stays low");

    // Memory: linear-ish growth, and bigger producer buffers cost more.
    let sweep16 = fig9_sweep(&[2, 10], 16 << 20, Scale::Quick, 7);
    assert!(
        large.peak_mem_fraction > small.peak_mem_fraction,
        "memory grows with sites"
    );
    assert!(
        sweep32[1].peak_mem_fraction > sweep16[1].peak_mem_fraction,
        "32 MB buffers must cost more than 16 MB: {} vs {}",
        sweep32[1].peak_mem_fraction,
        sweep16[1].peak_mem_fraction
    );
}

/// Broker recovery latency: replay work grows with the pre-crash log, and
/// the unavailability window always includes the configured downtime plus a
/// positive replay phase (the durable backend's read round trips).
#[test]
fn broker_recovery_latency_grows_with_log_size() {
    let points = broker_recovery_sweep(&[100, 600], Scale::Quick, 9);
    assert_eq!(points.len(), 2);
    for p in &points {
        assert!(p.records > 0, "records were replayed");
        assert!(p.replayed_bytes > 0, "segment bytes were read back");
        assert!(p.replay_latency_s > 0.0, "replay takes simulated time");
        assert!(
            p.unavailability_s >= 1.0 + p.replay_latency_s,
            "unavailability covers downtime plus replay"
        );
    }
    let (small, large) = (&points[0], &points[1]);
    assert!(
        large.records > small.records,
        "bigger sweep point replays more records"
    );
    assert!(
        large.replayed_segments > small.replayed_segments,
        "bigger log means more segments"
    );
    assert!(
        large.replay_latency_s > small.replay_latency_s,
        "replay latency grows with log size: {} vs {}",
        large.replay_latency_s,
        small.replay_latency_s
    );
}

/// Bounded recovery (`--fig compaction`): full snapshots and raw-log replay
/// grow with history; incremental deltas and compacted replay stay
/// sub-linear (≈ flat in live data) — the acceptance shape of the
/// incremental-checkpoint + log-compaction subsystem.
#[test]
fn compaction_bounds_snapshot_bytes_and_replay() {
    let points = compaction_sweep(&[200, 1_200], Scale::Quick, 13);
    assert_eq!(points.len(), 2);
    let (small, large) = (&points[0], &points[1]);
    let history_ratio = large.history as f64 / small.history as f64; // 6x

    // Baselines grow roughly linearly with history.
    assert!(
        large.full_snapshot_bytes as f64 >= 3.0 * small.full_snapshot_bytes as f64,
        "full snapshots must grow with history: {} vs {}",
        small.full_snapshot_bytes,
        large.full_snapshot_bytes
    );
    assert!(
        large.raw_replay_records > 2 * small.raw_replay_records,
        "raw replay must grow with history: {} vs {}",
        small.raw_replay_records,
        large.raw_replay_records
    );

    // Bounded variants grow sub-linearly: far slower than the 6x history.
    let delta_growth = large.delta_snapshot_bytes as f64 / small.delta_snapshot_bytes.max(1) as f64;
    let full_growth = large.full_snapshot_bytes as f64 / small.full_snapshot_bytes.max(1) as f64;
    assert!(
        delta_growth < full_growth && delta_growth < history_ratio,
        "delta bytes must grow sub-linearly: delta x{delta_growth:.2} vs full x{full_growth:.2}"
    );
    let compacted_growth =
        large.compacted_replay_records as f64 / small.compacted_replay_records.max(1) as f64;
    assert!(
        compacted_growth < 2.0,
        "compacted replay must stay ≈ flat in live keys: {} vs {} records",
        small.compacted_replay_records,
        large.compacted_replay_records
    );
    assert!(
        large.compacted_replay_records < large.raw_replay_records / 4,
        "compaction must cut replay records: {} vs {}",
        large.compacted_replay_records,
        large.raw_replay_records
    );
    assert!(
        large.compacted_replay_s < large.raw_replay_s,
        "compaction must cut replay latency"
    );
    assert!(
        large.replay_saved_bytes > small.replay_saved_bytes,
        "cleaning savings accumulate with history"
    );
}

#[test]
fn replication_sweep_trades_latency_for_availability() {
    use s2g_bench::store_replication_sweep;
    let points = store_replication_sweep(&[1, 3], Scale::Smoke, 21);
    assert_eq!(points.len(), 2);
    let standalone = &points[0];
    let replicated = &points[1];
    assert!(standalone.checkpoints > 0 && replicated.checkpoints > 0);
    assert!(
        standalone.checkpoint_latency_s.is_finite() && replicated.checkpoint_latency_s.is_finite()
    );
    // Quorum replication makes each capture dearer...
    assert!(
        replicated.checkpoint_latency_s > standalone.checkpoint_latency_s,
        "quorum round trips must cost something: {} vs {}",
        replicated.checkpoint_latency_s,
        standalone.checkpoint_latency_s
    );
    // ...but failover beats a full store restart around the crash.
    assert!(
        replicated.unavailability_s < standalone.unavailability_s,
        "failover must shrink the durability outage: {} vs {}",
        replicated.unavailability_s,
        standalone.unavailability_s
    );
    // Only a group member resyncs an op log.
    assert_eq!(standalone.resync_ops, 0);
    assert!(replicated.resync_ops > 0);
}

/// Broker replication (`--fig broker-replication`): with a mid-run leader
/// crash, growing the replication factor at `acks=all` buys availability —
/// an RF=3 cluster elects a replica and keeps serving inside the SLO while
/// the RF=1 "cluster" is down until its only broker returns.
#[test]
fn broker_replication_availability_grows_with_rf() {
    use s2g_bench::broker_replication_sweep;
    let points = broker_replication_sweep(&[1, 3], Scale::Smoke, 27);
    assert_eq!(points.len(), 2);
    let (single, replicated) = (&points[0], &points[1]);
    assert!(
        replicated.availability_pct > single.availability_pct,
        "replication must raise availability: rf=1 {:.1}% vs rf=3 {:.1}%",
        single.availability_pct,
        replicated.availability_pct
    );
    assert!(
        replicated.unavailability_s < single.unavailability_s,
        "failover must shrink the produce outage: rf=1 {:.2}s vs rf=3 {:.2}s",
        single.unavailability_s,
        replicated.unavailability_s
    );
    // RF=1 has nowhere to move leadership; RF=3 must have elected.
    assert_eq!(single.leadership_moves, 0, "no replicas, no election");
    assert!(
        replicated.leadership_moves > 0,
        "the crash must move partition leadership to a replica"
    );
    assert!(
        replicated.produce_p99_ms.is_finite() && single.produce_p99_ms.is_finite(),
        "p99 produce latency measured at both points"
    );
}

/// Scaling: throughput is monotone non-decreasing in the parallelism
/// degree of a compute-bound keyed job, parallel configurations genuinely
/// beat the single worker, and an instance crash at higher parallelism
/// costs only the crashed instance's share.
#[test]
fn scaling_throughput_is_monotone_in_parallelism() {
    let points = scaling_sweep(&[1, 2, 4], Scale::Smoke, 33);
    assert_eq!(points.len(), 3);
    for w in points.windows(2) {
        assert!(
            w[1].throughput_rps >= w[0].throughput_rps * 0.98,
            "throughput must not drop with parallelism: p={} {:.1} vs p={} {:.1}",
            w[0].parallelism,
            w[0].throughput_rps,
            w[1].parallelism,
            w[1].throughput_rps
        );
    }
    assert!(
        points[2].throughput_rps > points[0].throughput_rps * 1.1,
        "parallelism 4 must beat parallelism 1: {:.1} vs {:.1}",
        points[2].throughput_rps,
        points[0].throughput_rps
    );
    for p in &points {
        assert!(
            p.recovery_s.is_finite() && p.recovery_s > 0.0,
            "recovery latency measured at p={}",
            p.parallelism
        );
        assert!(p.crash_throughput_rps > 0.0);
    }
    // At parallelism > 1 the crash stalls one instance's share only, so
    // the hit is bounded; at parallelism 1 it stalls the whole pipeline.
    let p4 = &points[2];
    assert!(
        p4.crash_throughput_rps >= p4.throughput_rps * 0.8,
        "a single-instance crash must not halve a 4-way job: {:.1} vs {:.1}",
        p4.crash_throughput_rps,
        p4.throughput_rps
    );
}

/// Hot-path contrast (`hotpath_sweep`): batching buys at least 3x over the
/// one-record-per-request baseline, at a far lower produce p99, with the
/// zero-copy data plane intact. The throughput is simulated, so it moves
/// only when the cost model does: the absolute floors sit a fifth or more
/// under what the sweep reads (3 048 unbatched, 29 611–32 045 batched).
#[test]
fn hotpath_batching_beats_unbatched_by_3x() {
    let points = hotpath_sweep(Scale::Smoke, 11);
    assert_eq!(points.len(), 5);
    let unbatched = points
        .iter()
        .find(|p| p.setting == "unbatched")
        .expect("baseline point");
    assert!(unbatched.records_per_sec > 0.0);
    let best = points
        .iter()
        .filter(|p| p.setting != "unbatched")
        .map(|p| p.records_per_sec)
        .fold(0.0f64, f64::max);
    assert!(
        best >= unbatched.records_per_sec * 3.0,
        "batching must buy >= 3x simulated records/s: {:.1} vs {:.1}",
        best,
        unbatched.records_per_sec
    );
    for p in &points {
        let floor = if p.setting == "unbatched" {
            2_400.0
        } else {
            22_000.0
        };
        assert!(
            p.records_per_sec >= floor,
            "{}: {:.1} simulated records/s, floor {floor}",
            p.setting,
            p.records_per_sec
        );
        assert_eq!(p.shared_batch_copies, 0, "{}: zero-copy holds", p.setting);
        if p.setting != "unbatched" {
            assert!(
                p.produce_p99_ms < unbatched.produce_p99_ms,
                "{}: batched produce p99 must beat the saturated baseline",
                p.setting
            );
        }
    }
}

/// Throughput figure (`--fig throughput`): across the batching grid, big
/// batches beat small ones at the saturating offered rate, and every point
/// is measurable.
#[test]
fn throughput_grows_with_batch_size() {
    let points = throughput_sweep(Scale::Smoke, 11);
    assert!(!points.is_empty());
    for p in &points {
        assert!(
            p.records_per_sec.is_finite() && p.records_per_sec > 0.0,
            "{} B / {} ms: throughput measured",
            p.batch_max_bytes,
            p.linger_ms
        );
        assert!(p.produce_p99_ms.is_finite());
    }
    let rps_at = |bytes: usize, compression: bool| {
        points
            .iter()
            .filter(|p| p.batch_max_bytes == bytes && p.compression == compression)
            .map(|p| p.records_per_sec)
            .fold(0.0f64, f64::max)
    };
    assert!(
        rps_at(65_536, false) > rps_at(1_024, false),
        "64 KiB batches must out-run 1 KiB batches at saturation: {:.1} vs {:.1}",
        rps_at(65_536, false),
        rps_at(1_024, false)
    );
    assert!(
        rps_at(65_536, true) > rps_at(1_024, false),
        "compressed 64 KiB batches still beat small plain batches"
    );
}

/// Timeline figure: the mid-run crash leaves visible telemetry —
/// per-instance lag and throughput series with a real lag hump on the
/// crashed instance, fault/recovery markers, and schema-valid exports.
#[test]
fn timeline_figure_has_series_markers_and_trace() {
    use s2g_bench::timeline_sweep;
    use stream2gym::telemetry::validate_chrome_trace;

    let data = timeline_sweep(Scale::Smoke, 17);
    assert!(!data.lag.is_empty(), "per-instance lag series present");
    assert!(
        !data.throughput.is_empty(),
        "per-instance throughput present"
    );
    assert!(
        data.lag
            .iter()
            .any(|(_, pts)| pts.iter().any(|(_, v)| *v > 0.0)),
        "the crash backlog must register as non-zero consumer lag"
    );
    assert!(
        data.markers.iter().any(|(_, _, n)| n == "fault:crash"),
        "fault marker present"
    );
    assert!(
        data.markers
            .iter()
            .any(|(_, _, n)| n.starts_with("recovery:")),
        "recovery-phase markers present"
    );
    assert!(
        data.tidy_csv.starts_with("t_s,scope,metric,value"),
        "tidy CSV header"
    );
    let summary = validate_chrome_trace(&data.chrome_json).expect("valid Chrome trace");
    assert!(
        summary.spans > 0 && summary.instants > 0,
        "trace has spans and instants"
    );
}
