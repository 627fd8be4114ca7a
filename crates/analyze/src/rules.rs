//! The scenario feasibility ruleset.
//!
//! Each rule reads the flattened [`ScenarioFacts`] and pushes coded
//! diagnostics. `Deny` rules reject scenarios that cannot mean what their
//! author intended; `Warn` rules encode tuning traps where the run would
//! start but the outcome would mislead (the catalog with rationale per
//! code lives in `docs/analysis.md`).

use crate::facts::{BrokerFacts, FaultKind, FaultTarget, ScenarioFacts};
use crate::{nearest, AnalysisReport, Diagnostic, Level};
use s2g_broker::FETCH_MAX_WAIT;
use s2g_proto::AckMode;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::CheckpointMode;

/// Prefix of the generated shuffle-topic namespace.
const SHUFFLE_PREFIX: &str = "__shuffle.";

/// Runs every rule over `facts`.
pub fn analyze(facts: &ScenarioFacts) -> AnalysisReport {
    let mut out: Vec<Diagnostic> = Vec::new();
    rule_no_brokers(facts, &mut out);
    rule_unknown_topics(facts, &mut out);
    rule_store_hosts(facts, &mut out);
    rule_duplicate_jobs(facts, &mut out);
    rule_topology_hosts(facts, &mut out);
    rule_fault_targets(facts, &mut out);
    rule_key_groups(facts, &mut out);
    rule_shuffle_namespace(facts, &mut out);
    rule_replication_bounds(facts, &mut out);
    rule_min_insync(facts, &mut out);
    rule_transactional_sinks(facts, &mut out);
    rule_heartbeat_sessions(facts, &mut out);
    rule_election_window(facts, &mut out);
    rule_replicated_without_acks_all(facts, &mut out);
    rule_acks_all_unbatched(facts, &mut out);
    rule_retention_vs_offsets(facts, &mut out);
    rule_batch_never_fills(facts, &mut out);
    rule_read_committed_without_txn(facts, &mut out);
    rule_fault_after_end(facts, &mut out);
    rule_internal_topic_clients(facts, &mut out);
    rule_replica_lag(facts, &mut out);
    rule_store_crash_durability(facts, &mut out);
    rule_restart_without_crash(facts, &mut out);
    rule_host_overrides(facts, &mut out);
    rule_zero_periods(facts, &mut out);
    rule_job_inputs(facts, &mut out);
    AnalysisReport::new(out)
}

/// S2G001 (deny): clients exist but no broker does.
fn rule_no_brokers(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let has_clients = !f.producers.is_empty() || !f.consumers.is_empty() || !f.jobs.is_empty();
    if has_clients && f.brokers.is_empty() {
        out.push(Diagnostic::new(
            "S2G001",
            Level::Deny,
            "scenario has producers/consumers/jobs but no brokers",
            &["broker"],
            "declare at least one broker with `.broker(host)`",
        ));
    }
}

/// S2G002 (deny): a component references an undeclared topic.
fn rule_unknown_topics(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let declared: Vec<&str> = f.topics.iter().map(|t| t.name.as_str()).collect();
    let check = |component: &str, who: &str, topic: &str, out: &mut Vec<Diagnostic>| {
        if !declared.contains(&topic) {
            let hint = nearest(topic, declared.iter().copied())
                .map(|n| format!("did you mean `{n}`? otherwise "))
                .unwrap_or_default();
            out.push(Diagnostic::new(
                "S2G002",
                Level::Deny,
                format!("{component} `{who}` references undeclared topic `{topic}`"),
                &["topic"],
                format!("{hint}declare it with `.topic(TopicSpec::new(\"{topic}\"))`"),
            ));
        }
    };
    for p in &f.producers {
        for t in &p.topics {
            check("producer", &p.name, t, out);
        }
    }
    for c in &f.consumers {
        for t in &c.topics {
            check("consumer", &c.name, t, out);
        }
    }
    for j in &f.jobs {
        for t in &j.sources {
            check("SPE job source", &j.name, t, out);
        }
        if let Some(t) = &j.sink_topic {
            check("SPE job sink", &j.name, t, out);
        }
    }
}

/// S2G003 (deny): a store-backed sink/checkpoint/durability host has no
/// store declared on it.
fn rule_store_hosts(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let check = |what: &str, host: &str, knob: &str, out: &mut Vec<Diagnostic>| {
        if !f.store_hosts.iter().any(|h| h == host) {
            out.push(Diagnostic::new(
                "S2G003",
                Level::Deny,
                format!("{what} references host `{host}`, which has no store server"),
                &[knob],
                format!("declare one with `.store(\"{host}\")`"),
            ));
        }
    };
    for j in &f.jobs {
        if let Some(h) = &j.sink_store_host {
            check(&format!("SPE job `{}` store sink", j.name), h, "store", out);
        }
    }
    if let Some(h) = &f.checkpoint_store_host {
        check("store-backed checkpointing", h, "with_checkpointing", out);
    }
    if let Some(h) = &f.durability_store_host {
        check(
            "store-backed broker durability",
            h,
            "with_broker_durability",
            out,
        );
    }
}

/// S2G004 (deny): two SPE jobs share a name.
fn rule_duplicate_jobs(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let mut seen: Vec<&str> = Vec::new();
    for j in &f.jobs {
        if seen.contains(&j.name.as_str()) {
            out.push(Diagnostic::new(
                "S2G004",
                Level::Deny,
                format!("duplicate SPE job name `{}`", j.name),
                &["spe_job"],
                "job names double as fault targets and shuffle-topic prefixes; rename one",
            ));
        } else {
            seen.push(&j.name);
        }
    }
}

/// S2G005 (deny): the explicit topology is missing a required host.
fn rule_topology_hosts(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let Some(topo) = &f.topology_hosts else {
        return;
    };
    for h in &f.required_hosts {
        if !topo.contains(h) {
            let hint = nearest(h, topo.iter().map(String::as_str))
                .map(|n| format!("nearest declared host is `{n}`; "))
                .unwrap_or_default();
            out.push(Diagnostic::new(
                "S2G005",
                Level::Deny,
                format!("explicit topology has no host `{h}`, but a component or controller is placed there"),
                &["topology"],
                format!("{hint}add the host (and a link) to the topology"),
            ));
        }
    }
}

/// S2G006/S2G007/S2G008 (deny): fault-plan targets that name nothing.
fn rule_fault_targets(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for ev in &f.faults {
        if ev.kind == FaultKind::Other {
            continue;
        }
        match &ev.target {
            FaultTarget::Process(n) => {
                if ev.component.is_none() {
                    let hint = nearest(n, f.process_targets.iter().map(|(t, _)| t.as_str()))
                        .map(|t| format!("did you mean `{t}`? "))
                        .unwrap_or_default();
                    out.push(Diagnostic::new(
                        "S2G006",
                        Level::Deny,
                        format!(
                            "fault plan targets process `{n}`, which is neither an SPE job, \
                             a `<job>/<stage>/<instance>` (or `<job>/<instance>`) stage \
                             instance, nor a `producer-<idx>`/`consumer-<idx>` stub"
                        ),
                        &["crash_process", "crash_restart"],
                        format!("{hint}valid targets follow the job/stage/instance grammar"),
                    ));
                }
            }
            FaultTarget::Broker(b) => {
                if *b as usize >= f.brokers.len() {
                    out.push(Diagnostic::new(
                        "S2G007",
                        Level::Deny,
                        format!(
                            "fault plan targets broker b{b}, but only {} broker(s) are declared",
                            f.brokers.len()
                        ),
                        &["crash_restart_broker"],
                        "broker indices follow declaration order, starting at 0",
                    ));
                }
            }
            FaultTarget::Store(r) => {
                let bound = f.store_hosts.len() * f.store_replication;
                if *r as usize >= bound {
                    out.push(Diagnostic::new(
                        "S2G008",
                        Level::Deny,
                        format!(
                            "fault plan targets store replica {r}, but only {bound} exist \
                             ({} store(s) x replication {})",
                            f.store_hosts.len(),
                            f.store_replication
                        ),
                        &["crash_restart_store", "store_replication"],
                        "replica indices are global: declaration order x replication factor",
                    ));
                }
            }
            FaultTarget::Net(_) => {}
        }
    }
}

/// S2G009 (deny): key groups below a stage's parallelism (or rescale
/// target) — some instance would own zero groups.
fn rule_key_groups(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for j in &f.jobs {
        if !j.parallel {
            continue;
        }
        let max_par = j.max_per.iter().copied().max().unwrap_or(1);
        if (j.key_groups as usize) < max_par {
            out.push(Diagnostic::new(
                "S2G009",
                Level::Deny,
                format!(
                    "job `{}` has key_groups {} < its largest stage parallelism {max_par}{}",
                    j.name,
                    j.key_groups,
                    if j.rescale.is_some_and(|r| r == max_par) {
                        " (the rescale_on_restart target)"
                    } else {
                        ""
                    }
                ),
                &["key_groups", "parallelism", "rescale_on_restart"],
                format!("raise key_groups to at least {max_par}; whole key groups are the unit of state distribution"),
            ));
        }
    }
}

/// S2G010 (deny): a declared topic squats the generated `__shuffle.`
/// namespace — its partition count would not match the key-group routing.
fn rule_shuffle_namespace(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for t in f.topics.iter().filter(|t| !t.shuffle) {
        if !t.name.starts_with(SHUFFLE_PREFIX) {
            continue;
        }
        let collides = f.topics.iter().any(|g| g.shuffle && g.name == t.name);
        let detail = if collides {
            "collides with the shuffle topic generated for that job and stage \
             (shuffle partitions must equal the job's key_groups)"
        } else {
            "squats the reserved shuffle namespace"
        };
        out.push(Diagnostic::new(
            "S2G010",
            Level::Deny,
            format!("declared topic `{}` {detail}", t.name),
            &["topic", "parallelism"],
            "rename the topic; `__shuffle.<job>.<stage>` topics are declared automatically",
        ));
    }
}

/// S2G011: a replication factor above the broker count — deny when
/// declared per-topic (the assignment cannot exist), warn when the
/// scenario-wide override was silently capped.
fn rule_replication_bounds(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    if f.brokers.is_empty() {
        return; // S2G001 covers clientful broker-less scenarios.
    }
    let nb = f.brokers.len() as u32;
    for t in &f.topics {
        if f.partition_replication.is_none() && t.declared_replication > nb {
            out.push(Diagnostic::new(
                "S2G011",
                Level::Deny,
                format!(
                    "topic `{}` declares replication {} but only {nb} broker(s) exist",
                    t.name, t.declared_replication
                ),
                &["topic", "broker"],
                format!("declare more brokers or lower the factor to at most {nb}"),
            ));
        }
    }
    if let Some(rf) = f.partition_replication {
        if rf > nb {
            out.push(Diagnostic::new(
                "S2G011",
                Level::Warn,
                format!(
                    "with_replicated_partitions({rf}) exceeds the broker count {nb}; \
                     the factor is capped at {nb}"
                ),
                &["with_replicated_partitions", "broker"],
                "declare more brokers if you meant the higher factor",
            ));
        }
    }
}

/// S2G012: `min_insync_replicas` above the largest replication factor —
/// with an `acks=all` producer every produce fails (deny); without one
/// the knob is inert (warn).
fn rule_min_insync(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let max_rf = f.max_replication();
    for b in &f.brokers {
        if b.cfg.min_insync_replicas > max_rf {
            let acks_all = f.any_acks_all();
            out.push(Diagnostic::new(
                "S2G012",
                if acks_all { Level::Deny } else { Level::Warn },
                format!(
                    "broker on `{}` requires min_insync_replicas {} but the largest \
                     replication factor is {max_rf}{}",
                    b.host,
                    b.cfg.min_insync_replicas,
                    if acks_all {
                        "; every acks=all produce will fail NotEnoughReplicas"
                    } else {
                        " (inert until a producer uses acks=all)"
                    }
                ),
                &["min_insync_replicas", "with_replicated_partitions", "topic"],
                format!(
                    "raise the replication factor to at least {} or lower min_insync_replicas",
                    b.cfg.min_insync_replicas
                ),
            ));
        }
    }
}

/// S2G013 (deny): a transactional topic sink without exactly-once
/// checkpointing — the engine silently ignores the knob and the sink
/// degrades to plain visibility.
fn rule_transactional_sinks(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for j in &f.jobs {
        if !j.cfg.transactional_sink || j.sink_topic.is_none() {
            continue;
        }
        let ok = j
            .cfg
            .checkpoint
            .is_some_and(|c| c.mode == CheckpointMode::ExactlyOnce);
        if !ok {
            let why = match j.cfg.checkpoint {
                None => "no checkpointing is configured".to_string(),
                Some(c) => format!("checkpoint mode is {:?}, not ExactlyOnce", c.mode),
            };
            out.push(Diagnostic::new(
                "S2G013",
                Level::Deny,
                format!(
                    "job `{}` requests a transactional sink but {why}; transactions commit \
                     per checkpoint epoch, so the knob would be silently ignored",
                    j.name
                ),
                &["with_transactional_sinks", "with_checkpointing", "checkpoint"],
                "enable exactly-once checkpointing (e.g. `.with_checkpointing(CheckpointCfg::exactly_once(interval))`)",
            ));
        }
    }
}

/// S2G014 (deny): a heartbeat interval at or above the session timeout
/// judging it — the session expires between heartbeats, forever.
fn rule_heartbeat_sessions(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for b in &f.brokers {
        if b.cfg.heartbeat_interval >= f.controller.session_timeout {
            out.push(Diagnostic::new(
                "S2G014",
                Level::Deny,
                format!(
                    "broker on `{}` heartbeats every {} but the controller expires sessions \
                     after {}; every broker flaps dead/alive forever",
                    b.host, b.cfg.heartbeat_interval, f.controller.session_timeout
                ),
                &["heartbeat_interval", "controller_config"],
                "keep the controller session_timeout at 2-3x the broker heartbeat_interval",
            ));
        }
    }
    for c in &f.consumers {
        if !c.cfg.group_membership {
            continue;
        }
        for b in &f.brokers {
            if c.cfg.group_heartbeat_interval >= b.cfg.group_session_timeout {
                out.push(Diagnostic::new(
                    "S2G014",
                    Level::Deny,
                    format!(
                        "consumer `{}` heartbeats its group every {} but broker `{}` evicts \
                         members after {}; the member is evicted between heartbeats",
                        c.name, c.cfg.group_heartbeat_interval, b.host, b.cfg.group_session_timeout
                    ),
                    &["group_heartbeat_interval", "group_session_timeout"],
                    "keep group_session_timeout at 2-3x the member heartbeat interval",
                ));
                break;
            }
        }
    }
}

/// S2G015 (warn): a broker outage shorter than the controller's failure
/// detection — the default 6 s session timeout waits out a shorter
/// outage, no election happens, and the replicated run silently shows
/// nothing of failover.
fn rule_election_window(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    if f.max_replication() < 2 {
        return;
    }
    let detection = f.controller.session_timeout + f.controller.session_check_interval;
    for (target, down, up) in down_windows(f) {
        let label = match target {
            FaultTarget::Broker(b) => format!("broker b{b}"),
            FaultTarget::Net(n) if f.brokers.iter().any(|b| b.host == n) => {
                format!("broker host `{n}`")
            }
            _ => continue,
        };
        let window = up.saturating_since(down);
        if window < detection {
            out.push(Diagnostic::new(
                "S2G015",
                Level::Warn,
                format!(
                    "{label} is down {window} (t={down}..{up}) but failure detection needs \
                     {detection} (session_timeout + session_check_interval); the controller \
                     waits out the outage and no leader election happens",
                    ),
                &["controller_config", "crash_restart_broker", "transient_disconnect"],
                format!("shorten session_timeout below {window} or lengthen the outage past {detection}"),
            ));
        }
    }
}

/// S2G016 (warn): replicated partitions with every producer on
/// `acks=leader` — replicas trail the leader and a failover can lose
/// acknowledged records, which defeats the point of replicating.
fn rule_replicated_without_acks_all(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    if f.max_replication() < 2 {
        return;
    }
    let any_producer = !f.producers.is_empty() || f.jobs.iter().any(|j| j.sink_topic.is_some());
    if any_producer && !f.any_acks_all() {
        out.push(Diagnostic::new(
            "S2G016",
            Level::Warn,
            format!(
                "partitions replicate {}x but every producer uses acks=leader; a failover \
                 can drop acknowledged records",
                f.max_replication()
            ),
            &["with_acks", "with_replicated_partitions"],
            "produce with `.with_acks(AckMode::All)` to make acknowledgements cover the ISR",
        ));
    }
}

/// S2G017 (warn): an unbatched `acks=all` producer whose inter-record
/// interval is below the replication round trip — every record queues
/// behind the previous one's replication and latency collapses. The
/// followers' fetches wait at the leader, so the append answers them at
/// once: the round trip is the produce, the reply to the waiting fetch,
/// the follower's next fetch (which moves the watermark) and the ack, four
/// link crossings, plus the leader's CPU for the reply and the ack.
fn rule_acks_all_unbatched(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    if f.max_replication() < 2 {
        return;
    }
    let cpu = |b: &BrokerFacts| (b.cfg.cpu_per_request + b.cfg.cpu_per_record) * 2;
    let min_cpu = f.brokers.iter().map(cpu).min().unwrap_or(SimDuration::ZERO);
    let round_trip = min_cpu + f.link_latency * 4;
    for p in &f.producers {
        if p.cfg.acks != AckMode::All || p.cfg.batch_max_records > 1 {
            continue;
        }
        if let Some(interval) = p.min_interval {
            if interval < round_trip {
                out.push(Diagnostic::new(
                    "S2G017",
                    Level::Warn,
                    format!(
                        "producer `{}` sends a record every {interval} unbatched at acks=all, \
                         but one produce takes ~{round_trip} (four link crossings and the \
                         leader's CPU for the replica reply and the ack); the send queue grows \
                         without bound",
                        p.name
                    ),
                    &["with_batching", "with_acks"],
                    format!("re-enable batching, or slow the source past {round_trip}"),
                ));
            }
        }
    }
}

/// S2G018 (warn): retention tight enough to advance the log start past
/// offsets a recovering consumer/checkpoint would resume from.
fn rule_retention_vs_offsets(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let age = f
        .brokers
        .iter()
        .filter_map(|b| b.cfg.log_retention_age)
        .min();
    let Some(age) = age else { return };
    let has_committed = f.consumers.iter().any(|c| c.cfg.group.is_some())
        || f.jobs.iter().any(|j| j.cfg.checkpoint.is_some());
    if !has_committed {
        return;
    }
    let mut hazard: Option<(SimDuration, String)> = None;
    let mut consider = |window: SimDuration, what: String| {
        if window > age && hazard.as_ref().is_none_or(|(w, _)| window > *w) {
            hazard = Some((window, what));
        }
    };
    for j in &f.jobs {
        if let Some(c) = j.cfg.checkpoint {
            consider(
                c.interval,
                format!("job `{}`'s checkpoint interval", j.name),
            );
        }
    }
    for (target, down, up) in down_windows(f) {
        let label = match target {
            FaultTarget::Process(n) => format!("`{n}`'s crash window"),
            FaultTarget::Broker(b) => format!("broker b{b}'s crash window"),
            _ => continue,
        };
        consider(up.saturating_since(down), label);
    }
    if let Some((window, what)) = hazard {
        out.push(Diagnostic::new(
            "S2G018",
            Level::Warn,
            format!(
                "log retention age {age} is shorter than {what} ({window}); cleanup can \
                 advance the log start past committed offsets and a recovery replays from \
                 a truncated log"
            ),
            &["with_log_retention_age", "with_checkpointing", "fault plan"],
            format!("keep retention above {window}, or accept the offset reset"),
        ));
    }
}

/// S2G019 (warn): a batch byte budget below one record — batching is
/// requested but every batch degenerates to a single record.
fn rule_batch_never_fills(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for p in &f.producers {
        if p.cfg.batch_max_records <= 1 {
            continue; // batching deliberately off
        }
        if let Some(payload) = p.max_payload {
            if p.cfg.batch_max_bytes < payload {
                out.push(Diagnostic::new(
                    "S2G019",
                    Level::Warn,
                    format!(
                        "producer `{}` caps batches at {} bytes but emits {payload}-byte \
                         records; every batch overflows to a single record and the linger \
                         delay buys nothing",
                        p.name, p.cfg.batch_max_bytes
                    ),
                    &["batch_max_bytes", "with_batch_max_bytes"],
                    format!("raise batch_max_bytes past {payload} or disable batching explicitly"),
                ));
            }
        }
    }
}

/// S2G020 (warn): read-committed isolation with no transactional
/// producer anywhere — the isolation level is inert.
fn rule_read_committed_without_txn(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let any_txn = f.transactional_sinks || f.jobs.iter().any(|j| j.cfg.transactional_sink);
    if any_txn {
        return;
    }
    for c in &f.consumers {
        if c.cfg.read_committed {
            out.push(Diagnostic::new(
                "S2G020",
                Level::Warn,
                format!(
                    "consumer `{}` reads with read-committed isolation but no producer in \
                     the scenario is transactional; the isolation level changes nothing",
                    c.name
                ),
                &["read_committed", "with_transactional_sinks"],
                "enable `.with_transactional_sinks()` on the producing jobs, or drop the isolation level",
            ));
        }
    }
}

/// S2G021 (warn): a fault scheduled at or after the run ends.
fn rule_fault_after_end(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for ev in &f.faults {
        if ev.at >= f.duration {
            let label = match &ev.target {
                FaultTarget::Process(n) => format!("process `{n}`"),
                FaultTarget::Broker(b) => format!("broker b{b}"),
                FaultTarget::Store(r) => format!("store replica {r}"),
                FaultTarget::Net(n) => format!("network ({n})"),
            };
            out.push(Diagnostic::new(
                "S2G021",
                Level::Warn,
                format!(
                    "fault on {label} is scheduled at t={} but the run ends at t={}; it never fires",
                    ev.at, f.duration
                ),
                &["duration", "fault plan"],
                "lengthen the run or move the fault earlier",
            ));
        }
    }
}

/// S2G022 (warn): a client stub or job attached to a generated
/// `__shuffle.` topic — internal framing records, not application data,
/// purged once the job's reading stage has committed past them.
fn rule_internal_topic_clients(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let check = |who: String, topic: &str, out: &mut Vec<Diagnostic>| {
        if topic.starts_with(SHUFFLE_PREFIX) {
            out.push(Diagnostic::new(
                "S2G022",
                Level::Warn,
                format!(
                    "{who} attaches to internal shuffle topic `{topic}`; its records are \
                     keyed intermediate frames owned by the job's stages, purged once the \
                     stage reading them has committed past them, so another reader is reset \
                     out of range past records it never saw"
                ),
                &["producer", "consumer", "spe_job"],
                "read the job's sink topic instead of its shuffle internals",
            ));
        }
    };
    for p in &f.producers {
        for t in &p.topics {
            check(format!("producer `{}`", p.name), t, out);
        }
    }
    for c in &f.consumers {
        for t in &c.topics {
            check(format!("consumer `{}`", c.name), t, out);
        }
    }
    for j in &f.jobs {
        for t in &j.sources {
            check(format!("SPE job `{}`", j.name), t, out);
        }
    }
}

/// S2G023 (warn): a replica lag bound a live follower can outlast. A
/// follower at the log end waits at its leader and counts as caught up, so
/// only a lost fetch or reply leaves it unseen: until the background tick
/// that finds the fetch past its give-up age
/// ([`BrokerConfig::replica_fetch_give_up`](s2g_broker::BrokerConfig::replica_fetch_give_up)),
/// plus the `replica_fetch_interval` backoff. Only a lossy link, a network
/// fault or a broker crash loses one; without those, the rule keeps Kafka's
/// own constraint that the lag bound exceed the wait a fetch is held for
/// (`replica.fetch.wait.max.ms` below `replica.lag.time.max.ms`).
fn rule_replica_lag(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    if f.max_replication() < 2 {
        return;
    }
    let can_lose = f.lossy_links
        || (f.faults.iter())
            .any(|e| matches!(e.target, FaultTarget::Broker(_) | FaultTarget::Net(_)));
    for b in &f.brokers {
        let cfg = &b.cfg;
        let (bound, why) = if can_lose {
            let silence = cfg.replica_fetch_give_up() + cfg.background_interval;
            let silence = silence + cfg.replica_fetch_interval;
            let why = format!(
                "a follower whose fetch or reply is lost (the scenario has lossy links, network \
                 faults or broker crashes) is unseen for up to {silence}: the give-up age, one \
                 background tick and the {} backoff",
                cfg.replica_fetch_interval
            );
            (silence, why)
        } else {
            let why = format!("a fetch with nothing to read is held for up to {FETCH_MAX_WAIT}");
            (FETCH_MAX_WAIT, why)
        };
        if cfg.replica_lag_max < bound {
            out.push(Diagnostic::new(
                "S2G023",
                Level::Warn,
                format!(
                    "broker on `{}` ejects followers lagging {}, but {why}; the ISR flaps",
                    b.host, cfg.replica_lag_max
                ),
                &[
                    "replica_lag_max",
                    "replica_fetch_interval",
                    "background_interval",
                ],
                format!("keep replica_lag_max above {bound}"),
            ));
        }
    }
}

/// S2G024 (warn): crashing the only replica of a store that backs
/// checkpoints or broker durability — the durability tier itself goes
/// down with it.
fn rule_store_crash_durability(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    if f.store_replication > 1 {
        return;
    }
    for ev in &f.faults {
        let (FaultTarget::Store(r), FaultKind::Crash) = (&ev.target, ev.kind) else {
            continue;
        };
        let Some(host) = f.store_hosts.get(*r as usize) else {
            continue; // S2G008 already denies out-of-range replicas
        };
        let mut backs: Vec<&str> = Vec::new();
        if f.checkpoint_store_host.as_deref() == Some(host.as_str()) {
            backs.push("checkpoints");
        }
        if f.durability_store_host.as_deref() == Some(host.as_str()) {
            backs.push("broker durability");
        }
        if !backs.is_empty() {
            out.push(Diagnostic::new(
                "S2G024",
                Level::Warn,
                format!(
                    "crashing store replica {r} (host `{host}`) takes down {} with it and \
                     the store has no other replica",
                    backs.join(" and ")
                ),
                &["store_replication", "crash_store"],
                "replicate the store (`.store_replication(2)`) so the durability tier survives",
            ));
        }
    }
}

/// S2G025 (warn): a restart of a target that never crashed — a no-op
/// that usually means a typo'd or missing crash event.
fn rule_restart_without_crash(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let mut crashed: Vec<&FaultTarget> = Vec::new();
    for ev in &f.faults {
        match ev.kind {
            FaultKind::Crash => crashed.push(&ev.target),
            FaultKind::Restart => {
                if !crashed.contains(&&ev.target) {
                    let label = match &ev.target {
                        FaultTarget::Process(n) => format!("process `{n}`"),
                        FaultTarget::Broker(b) => format!("broker b{b}"),
                        FaultTarget::Store(r) => format!("store replica {r}"),
                        FaultTarget::Net(n) => format!("network ({n})"),
                    };
                    out.push(Diagnostic::new(
                        "S2G025",
                        Level::Warn,
                        format!(
                            "fault plan restarts {label} at t={} but never crashed it first; \
                             the restart is a no-op",
                            ev.at
                        ),
                        &["fault plan"],
                        "schedule the matching crash/down event before the restart",
                    ));
                }
            }
            FaultKind::Other => {}
        }
    }
}

/// S2G026 (warn): a per-host override names a host the run will not have
/// — the override is never read and the intended host keeps the defaults.
fn rule_host_overrides(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    let hosts = f.topology_hosts.as_ref().unwrap_or(&f.required_hosts);
    for (knob, host) in &f.host_overrides {
        if hosts.contains(host) {
            continue;
        }
        let hint = nearest(host, hosts.iter().map(String::as_str))
            .map(|n| format!("did you mean `{n}`? otherwise "))
            .unwrap_or_default();
        out.push(Diagnostic::new(
            "S2G026",
            Level::Warn,
            format!(
                "`{knob}(\"{host}\", ..)` names a host no component, controller or \
                 topology node uses; the override is ignored"
            ),
            &[knob],
            format!("{hint}place a component on `{host}` or drop the override"),
        ));
    }
}

/// S2G027 (deny): a self-re-arming period of zero — the timer fires and
/// re-arms at the same instant forever, so simulated time never advances
/// and the run spins until the event limit (by default, never). Covers the
/// periods shown to livelock this way, not one-shot delays or costs.
fn rule_zero_periods(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    // `owner` is only formatted for a period that is zero.
    let mut check = |owner: std::fmt::Arguments<'_>, knobs: &[(&str, SimDuration)]| {
        for (knob, _) in knobs.iter().filter(|k| k.1 == SimDuration::ZERO) {
            out.push(Diagnostic::new(
                "S2G027",
                Level::Deny,
                format!(
                    "{owner} has a zero `{knob}`: its timer re-arms at the same instant \
                     forever and simulated time never advances"
                ),
                &[knob],
                format!("give `{knob}` a positive duration"),
            ));
        }
    };
    for (owner, knob, period) in &f.other_periods {
        check(format_args!("{owner}"), &[(knob, *period)]);
    }
    let ctl = &f.controller;
    check(
        format_args!("the controller"),
        &[
            ("session_check_interval", ctl.session_check_interval),
            ("preferred_election_delay", ctl.preferred_election_delay),
        ],
    );
    for b in &f.brokers {
        check(
            format_args!("broker on `{}`", b.host),
            &[
                ("replica_fetch_interval", b.cfg.replica_fetch_interval),
                ("isr_check_interval", b.cfg.isr_check_interval),
                ("heartbeat_interval", b.cfg.heartbeat_interval),
                ("background_interval", b.cfg.background_interval),
            ],
        );
    }
    for p in &f.producers {
        check(
            format_args!("producer `{}`", p.name),
            &[
                ("background_interval", p.cfg.background_interval),
                ("request_timeout", p.cfg.request_timeout),
            ],
        );
    }
    for c in &f.consumers {
        let owner = format_args!("consumer `{}`", c.name);
        if c.cfg.group_membership {
            let heartbeat = c.cfg.group_heartbeat_interval;
            check(owner, &[("group_heartbeat_interval", heartbeat)]);
        }
        check(
            owner,
            &[
                ("poll_interval", c.cfg.poll_interval),
                ("background_interval", c.cfg.background_interval),
            ],
        );
    }
    for j in &f.jobs {
        let owner = format_args!("SPE job `{}`", j.name);
        if let Some(c) = j.cfg.checkpoint {
            check(owner, &[("checkpoint.interval", c.interval)]);
        }
        check(
            owner,
            &[
                ("batch_interval", j.cfg.batch_interval),
                ("background_interval", j.cfg.background_interval),
                ("consumer.poll_interval", j.cfg.consumer.poll_interval),
                ("producer.request_timeout", j.cfg.producer.request_timeout),
            ],
        );
    }
}

/// S2G028 (deny): a job reads more than 256 input topics. An event
/// carries the index of the input it came from in one byte, so a 257th
/// input would read as another.
fn rule_job_inputs(f: &ScenarioFacts, out: &mut Vec<Diagnostic>) {
    for j in f.jobs.iter().filter(|j| j.sources.len() > 256) {
        out.push(Diagnostic::new(
            "S2G028",
            Level::Deny,
            format!(
                "SPE job `{}` reads {} input topics, more than the 256 an event's source \
                 index tells apart",
                j.name,
                j.sources.len()
            ),
            &["sources"],
            "split the job, or merge inputs into fewer topics upstream",
        ));
    }
}

/// Crash→restart windows per target, pairing each down event with the
/// next up event for the same target.
fn down_windows(f: &ScenarioFacts) -> Vec<(FaultTarget, SimTime, SimTime)> {
    let mut out = Vec::new();
    let mut open: Vec<(FaultTarget, SimTime)> = Vec::new();
    for ev in &f.faults {
        match ev.kind {
            FaultKind::Crash => open.push((ev.target.clone(), ev.at)),
            FaultKind::Restart => {
                if let Some(pos) = open.iter().position(|(t, _)| *t == ev.target) {
                    let (t, down) = open.remove(pos);
                    out.push((t, down, ev.at));
                }
            }
            FaultKind::Other => {}
        }
    }
    out
}
