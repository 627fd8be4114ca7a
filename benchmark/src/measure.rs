//! What the parent process does: schedules child processes one at a time,
//! collects their samples, and derives every metric from them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::child::Mode;
use crate::layers::FULL_SLICE_S;
use crate::metrics::PER_LAYER;
use crate::proc::{child, ChildResult};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::Workload;

/// Hard cap of the parent's kill timer.
const WATCHDOG_CAP_S: f64 = 120.0;

fn watchdog(w: &Workload, mode: Mode) -> Duration {
    // Ten times what the repetition is known to take; observed children are
    // slower. Small scales finish early, they do not need a shorter leash.
    let slack = if mode == Mode::Plain { 10.0 } else { 20.0 };
    Duration::from_secs_f64((w.expected_secs * slack).clamp(20.0, WATCHDOG_CAP_S))
}

pub fn rep_args(w: &Workload, seed: u64, scale: u64, mode: Mode) -> Vec<String> {
    [
        "rep",
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--scale",
        &scale.to_string(),
        "--mode",
        mode.as_str(),
    ]
    .map(String::from)
    .to_vec()
}

/// One untraced repetition, as the kernel and the child saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// `Scenario::run` entry to `RunResult` dropped, summed over the
    /// repetition's runs.
    pub wall_s: f64,
    pub run_s: f64,
    pub drop_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub rss_mb: f64,
    pub records: f64,
    /// Medians of the set-up child that ran just before this repetition
    /// (zero when that child died).
    pub setup_s: f64,
    pub analyze_s: f64,
    /// How slow the host was around this repetition: the mean of the probe
    /// readings just before and just after it over [`PROBE_REF_S`]. 1 when
    /// no probe ran (traced children, whose times gate nothing).
    pub host_slowness: f64,
}

/// What the probe takes on the box the benchmark was defined on, in an
/// ordinary minute. A constant of the benchmark, never re-measured.
pub const PROBE_REF_S: f64 = 0.5;

impl Sample {
    fn of(c: &ChildResult) -> Sample {
        Sample {
            host_slowness: 1.0,
            setup_s: 0.0,
            analyze_s: 0.0,
            wall_s: c.num("run_s") + c.num("drop_s"),
            run_s: c.num("run_s"),
            drop_s: c.num("drop_s"),
            user_s: c.reaped.user_s,
            sys_s: c.reaped.sys_s,
            rss_mb: c.reaped.maxrss_kb / 1024.0,
            records: c.num("attempted"),
        }
    }

    pub fn raw_records_per_wall_s(&self) -> f64 {
        self.records / self.wall_s
    }

    pub fn raw_cpu_us_per_record(&self) -> f64 {
        (self.user_s + self.sys_s) * 1e6 / self.records
    }

    /// Throughput with the host's slowness of that minute divided out.
    pub fn records_per_wall_s(&self) -> f64 {
        self.raw_records_per_wall_s() * self.host_slowness
    }

    /// CPU per record with the host's slowness of that minute divided out.
    pub fn cpu_us_per_record(&self) -> f64 {
        self.raw_cpu_us_per_record() / self.host_slowness
    }
}

/// One reading of the host-speed probe, in seconds.
fn probe() -> Result<f64, String> {
    let args = ["probe", "--seed", "0"].map(String::from);
    child(&args, Duration::from_secs(60)).map(|c| c.num("probe_s"))
}

/// Offered and failed records, the digest every repetition must agree on,
/// and whatever went wrong.
#[derive(Default, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Folds one repetition in. A killed or panicked child, or one whose
    /// digest disagrees, fails every record of that repetition.
    fn absorb(&mut self, w: &Workload, scale: u64, what: &str, c: &Result<ChildResult, String>) {
        let offered = w.records_per_rep(scale);
        self.attempted += offered;
        match c {
            Ok(c) => {
                let agrees = *self.digest.get_or_insert(c.digest()) == c.digest();
                if !agrees {
                    self.problems
                        .push(format!("{}: {what} disagrees on sim_digest", w.name));
                }
                let failed = c.num("failed") as u64;
                if failed > 0 {
                    self.problems
                        .push(format!("{}: {what} failed {failed} records", w.name));
                }
                self.failed += if agrees { failed } else { offered };
            }
            Err(e) => {
                self.failed += offered;
                self.problems.push(format!("{}: {e}", w.name));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Adds another part of the same measurement (the first digest stays).
    pub fn merge(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.digest = self.digest.or(other.digest);
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// The untraced measurement of one workload.
pub struct EndToEnd {
    pub workload: Workload,
    pub samples: Vec<Sample>,
    pub outcome: Outcome,
}

impl EndToEnd {
    /// Per-repetition values of an end-to-end metric, or of one of the
    /// uncorrected readings behind it (for `setup_s`, the median of each
    /// set-up child's loop). The three time metrics have the host's
    /// slowness of their minute divided out.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        let of = |f: fn(&Sample) -> f64| self.samples.iter().map(f).collect();
        let set_up = |f: fn(&Sample) -> f64| {
            let ran = self.samples.iter().filter(|s| s.setup_s > 0.0);
            ran.map(f).collect()
        };
        match metric {
            "records_per_wall_s" => of(Sample::records_per_wall_s),
            "cpu_us_per_record" => of(Sample::cpu_us_per_record),
            "raw_records_per_wall_s" => of(Sample::raw_records_per_wall_s),
            "raw_cpu_us_per_record" => of(Sample::raw_cpu_us_per_record),
            "host_slowness" => of(|s| s.host_slowness),
            "peak_rss_mb" => of(|s| s.rss_mb),
            "setup_s" => set_up(|s| s.setup_s / s.host_slowness),
            "raw_setup_s" => set_up(|s| s.setup_s),
            "analyze_s" => set_up(|s| s.analyze_s),
            other => panic!("unknown end-to-end metric {other}"),
        }
    }

    /// What the per-layer derivations take from this untraced measurement;
    /// `all` is searched for the two identity workloads of
    /// `core.linearity_ratio`. `None` when no repetition completed.
    pub fn untraced(&self, all: &[EndToEnd]) -> Option<Untraced> {
        let run_ns = |name: &str| {
            let s = all.iter().find(|e| e.workload.name == name)?.typical()?;
            Some(s.run_s * 1e9 / s.records)
        };
        let linearity_ratio = match (run_ns("identity-1m"), run_ns("identity-10x100k")) {
            (Some(long), Some(short)) if self.workload.linearity_partner().is_some() => {
                long / short
            }
            _ => 0.0,
        };
        let mut analyze = self.values("analyze_s");
        Some(Untraced {
            typical: self.typical()?,
            analyze_s: if analyze.is_empty() {
                0.0
            } else {
                median(&mut analyze)
            },
            linearity_ratio,
        })
    }

    /// The typical untraced repetition, for the per-layer derivations.
    fn typical(&self) -> Option<Sample> {
        let mut walls: Vec<f64> = self.samples.iter().map(|s| s.wall_s).collect();
        if walls.is_empty() {
            return None;
        }
        let mid = median(&mut walls);
        self.samples
            .iter()
            .copied()
            .min_by(|a, b| (a.wall_s - mid).abs().total_cmp(&(b.wall_s - mid).abs()))
    }
}

/// How many timed repetitions each workload gets.
pub struct Budget {
    /// Keep starting repetitions until this much time has been spent on
    /// the workload's timed children.
    pub seconds: Option<f64>,
    pub min_reps: usize,
    pub max_reps: usize,
    pub setup_iters: usize,
    /// Run one discarded repetition first.
    pub warm_up: bool,
}

/// Measures the workloads untraced: one discarded warm-up child each, then
/// timed children one at a time (a set-up child before each, a probe child
/// between any two), interleaved round-robin so that a noisy minute hits
/// every workload.
pub fn end_to_end(ws: &[Workload], seed: u64, scale: u64, budget: &Budget) -> Vec<EndToEnd> {
    let setup_args = |w: &Workload| {
        [
            "setup",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--scale",
            &scale.to_string(),
            "--iters",
            &budget.setup_iters.to_string(),
        ]
        .map(String::from)
    };
    let mut out: Vec<EndToEnd> = ws
        .iter()
        .map(|w| {
            let mut outcome = Outcome::default();
            if budget.warm_up {
                let warm = child(
                    &rep_args(w, seed, scale, Mode::Plain),
                    watchdog(w, Mode::Plain),
                );
                if let Err(e) = warm {
                    outcome.problems.push(format!("{} warm-up: {e}", w.name));
                }
            }
            EndToEnd {
                workload: *w,
                samples: Vec::new(),
                outcome,
            }
        })
        .collect();
    let mut spent = vec![0.0; ws.len()];
    let mut tries = vec![0usize; ws.len()];
    let mut last_probe = probe();
    loop {
        let mut progressed = false;
        for (i, e) in out.iter_mut().enumerate() {
            let wants = tries[i] < budget.min_reps
                || (tries[i] < budget.max_reps && budget.seconds.is_some_and(|s| spent[i] < s));
            if !wants {
                continue;
            }
            progressed = true;
            tries[i] += 1;
            let w = e.workload;
            let t = Instant::now();
            let setup = child(&setup_args(&w), watchdog(&w, Mode::Plain));
            if let Err(err) = &setup {
                e.outcome.problems.push(format!("{}: {err}", w.name));
            }
            let c = child(
                &rep_args(&w, seed, scale, Mode::Plain),
                watchdog(&w, Mode::Plain),
            );
            let before = std::mem::replace(&mut last_probe, probe());
            spent[i] += t.elapsed().as_secs_f64();
            e.outcome
                .absorb(&w, scale, &format!("repetition {}", tries[i]), &c);
            if let Ok(c) = &c {
                let mut sample = Sample::of(c);
                if let Ok(setup) = &setup {
                    sample.setup_s = setup.num("setup_s");
                    sample.analyze_s = setup.num("analyze_s");
                }
                match (&before, &last_probe) {
                    (Ok(b), Ok(a)) => sample.host_slowness = (b + a) / 2.0 / PROBE_REF_S,
                    (Err(err), _) | (_, Err(err)) => {
                        e.outcome.problems.push(format!("{}: {err}", w.name));
                    }
                }
                e.samples.push(sample);
            }
        }
        if !progressed {
            return out;
        }
    }
}

/// Runs the layer kernels in one child.
pub fn kernels(ws: &[Workload], seed: u64, slice_s: f64) -> Result<ChildResult, String> {
    let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
    let args = [
        "layers",
        "--seed",
        &seed.to_string(),
        "--slice",
        &slice_s.to_string(),
        "--workloads",
        &names.join(","),
    ]
    .map(String::from);
    // Thirty-odd kernels, three slices each, plus fixed-size set-up.
    child(
        &args,
        Duration::from_secs_f64((40.0 * 3.0 * slice_s + 30.0).min(WATCHDOG_CAP_S)),
    )
}

/// The traced measurement of one workload: every per-layer metric.
pub struct PerLayerResult {
    pub values: BTreeMap<&'static str, f64>,
    pub outcome: Outcome,
}

/// What the per-layer derivations need from untraced runs.
pub struct Untraced {
    pub typical: Sample,
    pub analyze_s: f64,
    /// `identity-1m`'s run time per record over `identity-10x100k`'s; zero
    /// on the workloads it is not defined for.
    pub linearity_ratio: f64,
}

/// Runs the traced children of one workload (one with the counting
/// allocator and every counter read, one with the program's own tracer on)
/// and derives the per-layer metrics. Adopts the children's spans.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    scale: u64,
    kernels: &ChildResult,
    untraced: &Untraced,
    expect_digest: Option<u64>,
    spans: &mut Spans,
) -> PerLayerResult {
    let mut outcome = Outcome {
        digest: expect_digest,
        ..Outcome::default()
    };
    let mut traced = |mode: Mode, spans: &mut Spans| {
        let span = spans.enter(&format!("child.{}", mode.as_str()));
        let c = child(&rep_args(w, seed, scale, mode), watchdog(w, mode));
        if let Ok(c) = &c {
            spans.adopt(c.spans.clone());
        }
        spans.exit(span);
        outcome.absorb(w, scale, &format!("{} child", mode.as_str()), &c);
        c.ok()
    };
    let counted = traced(Mode::Counted, spans);
    let sim_traced = traced(Mode::SimTrace, spans);

    let k = |name: &str| kernels.num(name);
    let kw = |name: &str| kernels.num(&format!("{name}@{}", w.name));
    let c = |name: &str| counted.as_ref().map_or(0.0, |c| c.num(name));
    let p = untraced.typical;
    let records = p.records.max(1.0);
    let per_record = |x: f64| x / records;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let traced_wall = |c: &Option<ChildResult>| c.as_ref().map_or(0.0, |c| Sample::of(c).wall_s);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Kernels reported once, for every workload alike.
    for m in &PER_LAYER {
        if kernels.has(m.name) {
            v.insert(m.name, k(m.name));
        }
    }
    v.insert("net.route_packet_ns", kw("net.route_packet_ns"));
    v.insert("net.route_packet_64k_ns", kw("net.route_packet_64k_ns"));
    v.insert("analyze.ns_per_call", untraced.analyze_s * 1e9);

    // Exact counts of the traced run.
    v.insert("sim.events_per_record", per_record(c("events")));
    v.insert("sim.timers_per_record", per_record(c("sim.timers")));
    v.insert("sim.messages_per_record", per_record(c("sim.messages")));
    v.insert("sim.events_voided", c("sim.voided"));
    v.insert("sim.max_queue_len", c("sim.max_queue_len"));
    v.insert("sim.events_per_wall_s", ratio(c("events"), p.wall_s));
    v.insert("net.packets_per_record", per_record(c("net.packets")));
    v.insert("net.wire_bytes_per_record", per_record(c("net.tx_bytes")));
    v.insert("net.drops", c("net.drops"));
    v.insert(
        "proto.records_per_produce",
        ratio(records, c("broker.produces")),
    );
    v.insert("proto.shared_batch_copies", c("proto.shared_batch_copies"));
    let per_k = |x: f64| per_record(x) * 1e3;
    v.insert(
        "broker.produce_requests_per_krecord",
        per_k(c("broker.produces")),
    );
    v.insert("broker.fetches_per_krecord", per_k(c("broker.fetches")));
    v.insert(
        "broker.replica_fetches_per_krecord",
        per_k(c("broker.replica_fetches")),
    );
    v.insert("broker.producer_retries", c("producer.retries"));
    v.insert("broker.leadership_moves", c("broker.leadership_moves"));
    v.insert("broker.isr_shrinks", c("broker.isr_shrinks"));
    v.insert("broker.duplicates_filtered", c("broker.duplicates"));
    v.insert("broker.records_truncated", c("broker.truncated"));
    v.insert("broker.txns_committed", c("broker.txns_committed"));
    let checkpoints = c("spe.checkpoints");
    // Parallel jobs report per-stage counts; the job-level view only has
    // stage-0 input and last-stage output.
    let pick = |stage: &str, job: &str| if c(stage) > 0.0 { c(stage) } else { c(job) };
    let spe_in = pick("spe.stage_records_in", "spe.records_in");
    let spe_out = pick("spe.stage_records_out", "spe.records_out");
    v.insert("spe.checkpoints_taken", checkpoints);
    v.insert(
        "spe.snapshot_bytes_per_checkpoint",
        ratio(c("spe.snapshot_bytes"), checkpoints),
    );
    v.insert(
        "spe.delta_share",
        ratio(c("spe.delta_checkpoints"), checkpoints),
    );
    v.insert("spe.records_per_batch", ratio(spe_in, c("spe.batches")));
    v.insert(
        "spe.persist_sim_ms",
        ratio(c("spe.persist_ns"), checkpoints) / 1e6,
    );
    v.insert("store.oplog_ops", c("store.oplog_ops"));
    v.insert("telemetry.metrics_registered", c("telemetry.metrics"));
    v.insert("telemetry.observations", c("telemetry.observations"));
    v.insert("telemetry.sampler_points", c("telemetry.sampler_points"));
    v.insert(
        "telemetry.trace_overhead_share",
        ratio(traced_wall(&sim_traced) - p.wall_s, p.wall_s),
    );

    let run_ns = p.run_s * 1e9 / records;
    v.insert("core.run_ns_per_record", run_ns);
    v.insert("core.drop_s", p.drop_s);
    v.insert("core.sys_cpu_share", ratio(p.sys_s, p.user_s + p.sys_s));
    v.insert("core.linearity_ratio", untraced.linearity_ratio);
    v.insert("core.allocs_per_record", per_record(c("allocs")));
    v.insert("core.alloc_bytes_per_record", per_record(c("alloc_bytes")));
    v.insert(
        "core.peak_live_mb",
        c("peak_live_bytes") / (1024.0 * 1024.0),
    );
    v.insert(
        "core.retained_bytes_per_record",
        per_record(c("retained_bytes")),
    );
    v.insert("core.sim_latency_p50_ms", c("latency_p50_ms"));
    v.insert("core.sim_latency_p99_ms", c("latency_p99_ms"));
    v.insert(
        "core.bench_trace_overhead_share",
        ratio(traced_wall(&counted) - p.wall_s, p.wall_s),
    );

    // Estimated shares of the run: (traced count x kernel ns) over the
    // untraced run time per record. Estimates from outside the program;
    // spans inside it are a later change.
    let share = |ns_per_record: f64| ratio(ns_per_record, run_ns);
    let packets = c("net.packets");
    // On the star every delivered packet is sent twice (host, switch).
    let packet_bytes = ratio(c("net.tx_bytes"), 2.0 * packets);
    let big = ((packet_bytes - 200.0) / (65_536.0 - 200.0)).clamp(0.0, 1.0);
    let route_ns = kw("net.route_packet_ns") * (1.0 - big) + kw("net.route_packet_64k_ns") * big;
    let appended = c("broker.appended");
    // Every appended record was carried there in a batch and is read once
    // more (leader copies by a consumer, follower copies off the leader).
    let hops = appended + c("consumed");
    let requests = c("broker.produces") + c("broker.fetches") + c("broker.replica_fetches");
    let ckpt_keys = ratio(
        c("spe.snapshot_bytes"),
        k("spe.checkpoint.snapshot_bytes_per_key"),
    );
    let spe_ns = w.spe_kernel().map_or(0.0, |op| {
        spe_in * (k(op) + k("spe.event.decode_ns"))
            + spe_out * k("spe.event.encode_ns")
            + ckpt_keys * k("spe.checkpoint.snapshot_codec_ns_per_key")
    });
    let shares = [
        (
            "sim.est_share",
            per_record(c("events")) * k("sim.dispatch_ns_per_event"),
        ),
        ("net.est_share", per_record(packets) * route_ns),
        (
            "proto.est_share",
            per_record(hops) * k("proto.batch_build_ns_per_record"),
        ),
        (
            "broker.log.est_share",
            per_record(appended)
                * (k("broker.log.append_ns_per_record") + k("broker.log.read_tail_ns_per_record")),
        ),
        ("spe.est_share", per_record(spe_ns)),
        (
            "telemetry.est_share",
            per_record(
                c("telemetry.observations") * k("telemetry.observe_ns")
                    + requests * k("telemetry.counter_add_ns"),
            ),
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        v.insert(name, share(ns));
        attributed += share(ns);
    }
    v.insert("core.unattributed_share", 1.0 - attributed);

    for m in &PER_LAYER {
        if !v.contains_key(m.name) {
            outcome
                .problems
                .push(format!("{}: no value for {}", w.name, m.name));
        }
    }
    PerLayerResult { values: v, outcome }
}

/// Kernel slice for a driver run of `seconds`: a full run's 0.3 s, cut so
/// that the kernels take no more than about half the run.
pub fn slice_for(seconds: f64) -> f64 {
    (seconds / 200.0).clamp(0.02, FULL_SLICE_S)
}
