//! The metric tables: names, units, directions and, for the end-to-end
//! metrics, the regression bound. `BENCHMARK.json` declares the same tables
//! (a self-test compares them).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the program sees, per workload, from untraced runs only.
/// The three time metrics have the host's slowness of their minute divided
/// out (see `measure::Sample::host_slowness` and the README).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "records_per_wall_s",
        unit: "records/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_record",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single-layer metrics. `*_ns*` are layer kernels; the rest are exact
/// counts from a traced run, or derived from them. Counts with no natural
/// direction are declared `lower` (less work).
pub const PER_LAYER: [PerLayer; 73] = [
    lower("sim.dispatch_ns_per_event", "ns"),
    lower("sim.timer_set_cancel_ns", "ns"),
    lower("sim.events_per_record", "count"),
    lower("sim.timers_per_record", "count"),
    lower("sim.messages_per_record", "count"),
    lower("sim.events_voided", "count"),
    lower("sim.max_queue_len", "count"),
    higher("sim.events_per_wall_s", "1/s"),
    lower("sim.est_share", "ratio"),
    lower("net.route_packet_ns", "ns"),
    lower("net.route_packet_64k_ns", "ns"),
    lower("net.packets_per_record", "count"),
    lower("net.wire_bytes_per_record", "bytes"),
    lower("net.drops", "count"),
    lower("net.est_share", "ratio"),
    lower("proto.encode_frame_ns_per_record_64b", "ns"),
    lower("proto.decode_frame_ns_per_record_64b", "ns"),
    lower("proto.encode_frame_ns_per_record_1k", "ns"),
    lower("proto.decode_frame_ns_per_record_1k", "ns"),
    lower("proto.batch_build_ns_per_record", "ns"),
    higher("proto.records_per_produce", "count"),
    lower("proto.shared_batch_copies", "count"),
    lower("proto.est_share", "ratio"),
    lower("broker.log.append_ns_per_record", "ns"),
    lower("broker.log.read_tail_ns_per_record", "ns"),
    lower("broker.log.read_cold_ns_per_record", "ns"),
    lower("broker.log.segment_codec_ns_per_record", "ns"),
    lower("broker.log.est_share", "ratio"),
    lower("broker.loop_ns_per_record", "ns"),
    lower("broker.produce_requests_per_krecord", "count"),
    lower("broker.fetches_per_krecord", "count"),
    lower("broker.replica_fetches_per_krecord", "count"),
    lower("broker.producer_retries", "count"),
    lower("broker.leadership_moves", "count"),
    lower("broker.isr_shrinks", "count"),
    lower("broker.duplicates_filtered", "count"),
    lower("broker.records_truncated", "count"),
    lower("broker.txns_committed", "count"),
    lower("spe.ops.map_ns_per_event", "ns"),
    lower("spe.ops.keyby_window_ns_per_event", "ns"),
    lower("spe.event.encode_ns", "ns"),
    lower("spe.event.decode_ns", "ns"),
    lower("spe.checkpoint.snapshot_codec_ns_per_key", "ns"),
    lower("spe.checkpoint.delta_codec_ns_per_key", "ns"),
    lower("spe.checkpoints_taken", "count"),
    lower("spe.snapshot_bytes_per_checkpoint", "bytes"),
    higher("spe.delta_share", "ratio"),
    higher("spe.records_per_batch", "count"),
    lower("spe.persist_sim_ms", "ms"),
    lower("spe.est_share", "ratio"),
    lower("store.kv_put_ns", "ns"),
    lower("store.kv_get_ns", "ns"),
    lower("store.oplog_ops", "count"),
    lower("telemetry.counter_add_ns", "ns"),
    lower("telemetry.observe_ns", "ns"),
    lower("telemetry.metrics_registered", "count"),
    lower("telemetry.observations", "count"),
    lower("telemetry.sampler_points", "count"),
    lower("telemetry.trace_overhead_share", "ratio"),
    lower("telemetry.est_share", "ratio"),
    lower("analyze.ns_per_call", "ns"),
    lower("core.run_ns_per_record", "ns"),
    lower("core.drop_s", "s"),
    lower("core.sys_cpu_share", "ratio"),
    lower("core.linearity_ratio", "ratio"),
    lower("core.allocs_per_record", "count"),
    lower("core.alloc_bytes_per_record", "bytes"),
    lower("core.peak_live_mb", "MB"),
    lower("core.retained_bytes_per_record", "bytes"),
    lower("core.sim_latency_p50_ms", "ms"),
    lower("core.sim_latency_p99_ms", "ms"),
    lower("core.bench_trace_overhead_share", "ratio"),
    lower("core.unattributed_share", "ratio"),
];
