//! The resource model: server CPU utilization, memory and port throughput
//! (§VI-C, Fig. 6d).
//!
//! The paper snapshots `/proc/stat` and `/proc/meminfo` every 500 ms to
//! report how much of the underlying server the emulation consumes (Fig. 9),
//! and polls OpenFlow port counters for per-port throughput. Here these are
//! sampled gauges of the run's one telemetry sampler, at its
//! `telemetry_interval`: the memory ledger's total, every host CPU's busy
//! time in the window that just closed against the modeled server's core
//! capacity, and the byte-counter deltas of the watched nodes.

use std::collections::BTreeMap;

use s2g_net::{NetHandle, Network, NodeId};
use s2g_sim::{CpuHandle, LedgerHandle, SimDuration, SimTime};
use s2g_telemetry::SampledGauge;

/// The modeled underlying server (the paper's testbed machine: an i7-3770
/// with 8 hardware threads and 16 GB of RAM).
#[derive(Debug, Clone, Copy)]
pub struct ServerSpec {
    /// Core count used as the utilization denominator.
    pub cores: usize,
    /// Total memory used as the peak-memory denominator.
    pub mem_bytes: u64,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec {
            cores: 8,
            mem_bytes: 16 << 30,
        }
    }
}

/// Modeled resident footprints of each component class, used when the
/// orchestrator registers components with the memory ledger. Values model
/// JVM-based production components (a Kafka broker or Spark executor idles
/// at hundreds of MB resident).
#[derive(Debug, Clone, Copy)]
pub struct MemModel {
    /// OS, emulator, and switch-daemon baseline.
    pub os_base: u64,
    /// Extra baseline per emulated switch.
    pub per_switch: u64,
    /// Broker JVM resident base.
    pub broker: u64,
    /// Producer client base, excluding its send buffer.
    pub producer_base: u64,
    /// Heap provisioning multiplier applied to `buffer.memory` (JVMs reserve
    /// headroom around the producer pool; this is what makes the 16 MB vs
    /// 32 MB buffers of Fig. 9c visible in peak memory).
    pub producer_heap_factor: f64,
    /// Consumer client base.
    pub consumer: u64,
    /// Stream-processing worker (Spark executor + driver share).
    pub spe: u64,
    /// Data-store server base.
    pub store: u64,
    /// Controller (ZooKeeper / KRaft quorum member) base.
    pub controller: u64,
}

impl Default for MemModel {
    fn default() -> Self {
        MemModel {
            os_base: 4_200 << 20,
            per_switch: 50 << 20,
            broker: 420 << 20,
            producer_base: 110 << 20,
            producer_heap_factor: 6.0,
            consumer: 120 << 20,
            spe: 700 << 20,
            store: 300 << 20,
            controller: 180 << 20,
        }
    }
}

fn gauge(
    scope: String,
    name: &'static str,
    read: impl FnMut(SimTime, SimDuration) -> f64 + 'static,
) -> SampledGauge {
    let read = Box::new(read);
    SampledGauge { scope, name, read }
}

/// `server/mem_bytes`: the memory ledger's total at the tick.
pub(crate) fn mem_gauge(ledger: LedgerHandle) -> SampledGauge {
    gauge("server".into(), "mem_bytes", move |_, _| {
        ledger.borrow().total() as f64
    })
}

/// Busy core-nanoseconds `cpu` booked in the window that closed at `now`.
/// The tick at `k × window` reads bin `k − 1`, which is final by then: work
/// starts no earlier than the instant it is booked at.
fn closed_bin(cpu: &CpuHandle, now: SimTime, window: SimDuration) -> u64 {
    let cpu = cpu.borrow();
    assert_eq!(cpu.window(), window, "{} bins another window", cpu.name());
    let closed = (now.as_nanos() / window.as_nanos()) as usize - 1;
    cpu.busy_bins().get(closed).copied().unwrap_or(0)
}

/// `server/cpu_utilization` — busy core-time across all hosts over the
/// window that just closed, divided by `cores × window`: the fraction of
/// the whole server in use, directly comparable to the paper's `/proc/stat`
/// numbers — then `host-<h>/cpu_occupancy`, the same window's busy time of
/// one host against that host's own cores.
pub(crate) fn cpu_gauges(cpus: &BTreeMap<String, CpuHandle>, cores: usize) -> Vec<SampledGauge> {
    assert!(cores > 0, "server must have at least one core");
    let all: Vec<CpuHandle> = cpus.values().cloned().collect();
    let server = gauge("server".into(), "cpu_utilization", move |now, window| {
        let busy: u64 = all.iter().map(|cpu| closed_bin(cpu, now, window)).sum();
        let denom = (window.as_nanos() as f64) * cores as f64;
        (busy as f64 / denom).min(1.0)
    });
    let per_host = cpus.iter().map(|(host, cpu)| {
        let cpu = cpu.clone();
        let occupancy = move |now, window: SimDuration| {
            let busy = SimDuration::from_nanos(closed_bin(&cpu, now, window));
            let capacity = window.as_secs_f64() * cpu.borrow().cores() as f64;
            (busy.as_secs_f64() / capacity).min(1.0)
        };
        gauge(format!("host-{host}"), "cpu_occupancy", occupancy)
    });
    std::iter::once(server).chain(per_host).collect()
}

/// `host-<node>/tx_mbps` and `rx_mbps`: the node's cumulative byte counters
/// (stream2gym polls OpenFlow port statistics for Fig. 6d), as the delta
/// over the sampler's window.
///
/// # Panics
///
/// Panics if the topology has no node called `node`.
pub(crate) fn throughput_gauges(net: &NetHandle, node: &str) -> [SampledGauge; 2] {
    let id = (net.borrow().topology().lookup(node))
        .unwrap_or_else(|| panic!("watch_throughput names unknown node `{node}`"));
    let mbps = |name, bytes: fn(&Network, NodeId) -> u64| {
        let (net, mut last) = (net.clone(), 0);
        gauge(format!("host-{node}"), name, move |_, window| {
            let total = bytes(&net.borrow(), id);
            let delta = total - std::mem::replace(&mut last, total);
            delta as f64 * 8.0 / 1e6 / window.as_secs_f64()
        })
    };
    [
        mbps("tx_mbps", Network::node_tx_bytes),
        mbps("rx_mbps", Network::node_rx_bytes),
    ]
}

/// Builds an empirical CDF from samples: `(value, cumulative_fraction)`.
pub fn cdf(samples: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i as f64 + 1.0) / n))
        .collect()
}

/// The median of a sample set (None when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    Some(sorted[sorted.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use s2g_net::{LinkSpec, Topology};
    use s2g_sim::{HostCpu, MemLedger, ProcessId};

    const WINDOW: SimDuration = SimDuration::from_millis(500);

    /// The `k`-th tick of a sampler on [`WINDOW`].
    fn tick(k: u64) -> SimTime {
        SimTime::from_nanos(k * WINDOW.as_nanos())
    }

    /// One host of `cores` cores with `cost_ms` of work booked at `at_ms`:
    /// its `[server/cpu_utilization, host-h/cpu_occupancy]` readings over
    /// the first `ticks` windows, on a server of `server_cores` cores.
    fn cpu_readings(
        (cores, server_cores): (usize, usize),
        (at_ms, cost_ms): (u64, u64),
        ticks: u64,
    ) -> Vec<[f64; 2]> {
        let cpu = HostCpu::shared("h", cores, 1.0, WINDOW);
        let cost = SimDuration::from_millis(cost_ms);
        cpu.borrow_mut().execute(SimTime::from_millis(at_ms), cost);
        let mut gauges = cpu_gauges(&[("h".to_string(), cpu)].into(), server_cores);
        assert_eq!(gauges[1].scope, "host-h");
        (1..=ticks)
            .map(|k| [0, 1].map(|g| (gauges[g].read)(tick(k), WINDOW)))
            .collect()
    }

    #[test]
    fn cpu_gauges_read_the_window_the_core_ran_in() {
        // 1 core busy for the full first second → 50% of a 2-core host.
        let (half, idle) = ([0.5; 2], [0.0; 2]);
        assert_eq!(cpu_readings((2, 2), (0, 1_000), 3), [half, half, idle]);
        // 250 ms of work starting at 400 ms spans two 500 ms windows: 100 ms
        // of the first, 150 ms of the second.
        assert_eq!(cpu_readings((1, 1), (400, 250), 2), [[0.2; 2], [0.3; 2]]);
        // One core, 1 s of work booked at t = 0: busy through the first two
        // windows, whenever it was booked (an eighth of an 8-core server).
        let busy = [0.125, 1.0];
        let booked_ahead = cpu_readings((1, 8), (0, 1_000), 4);
        assert_eq!(booked_ahead, [busy, busy, idle, idle]);
    }

    #[test]
    fn cdf_and_median() {
        let samples = [3.0, 1.0, 2.0, 4.0];
        let c = cdf(&samples);
        assert_eq!(c[0], (1.0, 0.25));
        assert_eq!(c[3], (4.0, 1.0));
        assert_eq!(median(&samples), Some(3.0));
        assert_eq!(median(&[]), None);
        assert!(cdf(&[]).is_empty());
    }

    #[test]
    fn mem_gauge_reads_the_ledger_total() {
        let ledger = MemLedger::new(1_000).into_handle();
        let slot = ledger.borrow_mut().register("x", 0);
        let mut mem = mem_gauge(ledger.clone());
        assert_eq!((mem.scope.as_str(), mem.name), ("server", "mem_bytes"));
        assert_eq!((mem.read)(tick(1), WINDOW), 1_000.0);
        ledger.borrow_mut().set_dynamic(slot, 5_000);
        assert_eq!((mem.read)(tick(2), WINDOW), 6_000.0);
        // Later samples reflect the drop back to 1_100.
        ledger.borrow_mut().set_dynamic(slot, 100);
        assert_eq!((mem.read)(tick(3), WINDOW), 1_100.0);
    }

    #[test]
    fn throughput_gauges_read_the_window_delta() {
        let net = Network::new(Topology::star(2, LinkSpec::new()).unwrap()).into_handle();
        let (sender, sink) = (ProcessId(0), ProcessId(1));
        for (pid, host) in [(sender, "h1"), (sink, "h2")] {
            let node = net.borrow().topology().lookup(host).unwrap();
            net.borrow_mut().place(pid, node);
        }
        let [mut tx, mut rx] = throughput_gauges(&net, "h1");
        assert_eq!((tx.scope.as_str(), tx.name), ("host-h1", "tx_mbps"));
        let mut rng = StdRng::seed_from_u64(0);
        // 1250 bytes every 10 ms = 1 Mbps, for two windows; none in a third.
        for (k, packets, mbps) in [(1, 50, 1.0), (2, 50, 1.0), (3, 0, 0.0)] {
            for _ in 0..packets {
                let mut net = net.borrow_mut();
                net.route_packet(tick(k - 1), &mut rng, sender, sink, 1_250);
            }
            let (tx, rx) = ((tx.read)(tick(k), WINDOW), (rx.read)(tick(k), WINDOW));
            assert!((tx - mbps).abs() < 0.1, "window {k}: tx {tx} Mbps");
            assert_eq!(rx, 0.0, "the sender receives nothing");
        }
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let net = Network::new(Topology::star(1, LinkSpec::new()).unwrap()).into_handle();
        let _ = throughput_gauges(&net, "zz");
    }

    #[test]
    fn default_server_matches_paper_testbed() {
        let s = ServerSpec::default();
        assert_eq!(s.cores, 8);
        assert_eq!(s.mem_bytes, 16 << 30);
    }
}
