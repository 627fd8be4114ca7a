//! Replicated snapshot store + checkpoint-aligned transactional sinks.
//!
//! The acceptance gate for the store-replication / transactional-sink
//! subsystem: with `with_replicated_store(3)` and
//! `with_transactional_sinks()`, neither crashing the store primary
//! mid-checkpoint nor crashing an SPE worker mid-epoch may change a single
//! byte of the sink-topic output a read-committed consumer observes —
//! end-to-end exactly-once, not just state-level exactly-once.
//!
//! The durability-ordering tests pin the manifest-after-blob discipline of
//! the durable checkpoint backend: the chain manifest — the only pointer to
//! a checkpoint — is published only after the blob it references is acked,
//! so a store failure between the two leaves the previous complete chain
//! restorable (never a half-written one, never a cold start).

use std::any::Any;
use std::collections::BTreeMap;

use stream2gym::apps::word_count::{recovery_scenario, word_stream};
use stream2gym::broker::{Broker, CollectingSink, ConsumerProcess};
use stream2gym::core::{MonitoredSink, RunResult, Scenario};
use stream2gym::net::FaultPlan;
use stream2gym::sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
use stream2gym::spe::{
    CheckpointCfg, CheckpointPayload, DurableBackend, Event, StateSnapshot, StoreRpcOutcome,
};
use stream2gym::store::{StoreConfig, StoreRpc, StoreServer};

const WORDS: usize = 120;
const WORD_INTERVAL_MS: u64 = 50;
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(1);
const SEED: u64 = 23;

/// The transactional pipeline: word count into a sink topic, durable
/// checkpoints on a replicated store group, transactional sink commits.
fn build_txn(replicas: usize) -> Scenario {
    let mut sc = recovery_scenario(
        WORDS,
        SimDuration::from_millis(WORD_INTERVAL_MS),
        SimTime::from_secs(30),
        SEED,
    );
    sc.store("h6", StoreConfig::default());
    sc.with_replicated_store(replicas);
    sc.with_durable_checkpointing(CheckpointCfg::exactly_once(CHECKPOINT_INTERVAL), "h6");
    sc.with_transactional_sinks();
    sc
}

/// Every record value the (read-committed) consumer stub observed on the
/// sink topic, in delivery order — the byte-identity axis.
fn sink_bytes(result: &RunResult) -> Vec<Vec<u8>> {
    let pid = result.consumer_pids[0];
    let cp = result
        .sim
        .process_ref::<ConsumerProcess>(pid)
        .expect("consumer");
    let monitored = cp.sink_as::<MonitoredSink>().expect("monitored sink");
    let sink = (monitored.inner() as &dyn Any)
        .downcast_ref::<CollectingSink>()
        .expect("collecting sink");
    sink.deliveries
        .iter()
        .map(|(_, _, rec)| rec.value.to_vec())
        .collect()
}

/// Highest count per word the consumer saw (the state-level check).
fn final_counts(result: &RunResult) -> BTreeMap<String, i64> {
    let mut counts = BTreeMap::new();
    for value in sink_bytes(result) {
        let e = Event::from_bytes(&value).expect("SPE output decodes");
        let word = e.key.clone().expect("keyed by word");
        let n = e.value.as_int().expect("count value");
        let entry = counts.entry(word).or_insert(0);
        *entry = (*entry).max(n);
    }
    counts
}

fn ground_truth() -> BTreeMap<String, i64> {
    let mut tally = BTreeMap::new();
    for w in word_stream(WORDS, SEED) {
        *tally.entry(w).or_insert(0) += 1;
    }
    tally
}

#[test]
fn transactional_baseline_commits_every_epoch() {
    let result = build_txn(3).run().expect("runs");
    assert_eq!(final_counts(&result), ground_truth());
    let spe = &result.report.spe["wordcount"];
    assert!(spe.checkpoints.checkpoints > 0, "checkpoints were taken");
    assert!(
        spe.checkpoints.txn_commits > 0,
        "sink transactions were committed"
    );
    assert!(
        !spe.checkpoint_log.is_empty(),
        "per-checkpoint latency series recorded"
    );
    // Quorum persistence is not free: captures take simulated time.
    assert!(spe
        .checkpoint_log
        .iter()
        .all(|(accepted, durable)| durable >= accepted));
    // The broker flipped commit markers.
    let broker = result
        .sim
        .process_ref::<Broker>(result.broker_pids[0])
        .expect("broker");
    assert!(broker.stats().txns_committed > 0, "commit markers arrived");
    assert_eq!(broker.stats().txns_aborted, 0, "no fault, no aborts");
    // Every store replica holds the replicated checkpoint blobs.
    assert_eq!(result.report.stores.len(), 3);
    for replica in &result.report.stores {
        assert!(
            replica.kv_keys > 0,
            "replica {} holds checkpoint blobs",
            replica.replica
        );
    }
    assert!(result.report.stores[0].is_primary, "no fault, no failover");
}

#[test]
fn a_store_holds_one_chain_per_worker_however_long_the_run() {
    // Full snapshots: each capture starts a chain that supersedes the one
    // before, whose blob is deleted once the new manifest is durable. So a
    // run twice as long (both end between two captures) leaves the same
    // two keys on every replica: the one worker's manifest and its base.
    for millis in [15_500, 31_500] {
        let mut sc = build_txn(3);
        sc.duration(SimTime::from_millis(millis));
        let report = sc.run().expect("runs").report;
        assert!(report.spe["wordcount"].checkpoints.checkpoints >= millis / 1_000 - 2);
        let keys: Vec<u64> = report.stores.iter().map(|r| r.kv_keys).collect();
        assert_eq!(keys, [2, 2, 2], "after {millis} ms");
    }
}

#[test]
fn worker_crash_mid_epoch_is_end_to_end_exactly_once() {
    // The staged-but-uncommitted transaction of the crashed epoch must be
    // aborted and replayed; a read-committed consumer sees output
    // byte-identical to the fault-free run.
    let baseline = build_txn(3).run().expect("baseline runs");
    let mut sc = build_txn(3);
    sc.faults(FaultPlan::new().crash_restart(
        "wordcount",
        SimTime::from_millis(4_300),
        SimDuration::from_millis(1_000),
    ));
    let faulted = sc.run().expect("faulted runs");
    assert_eq!(
        sink_bytes(&faulted),
        sink_bytes(&baseline),
        "committed sink output must be byte-identical to the fault-free run"
    );
    let spe = &faulted.report.spe["wordcount"];
    let rec = spe.recovery.expect("crash recorded");
    assert!(rec.restored_at.is_some(), "state restored from the group");
    assert_eq!(spe.consumer_stats.offset_resets, 0);
    // The broker aborted the crashed epoch's staged transaction.
    let broker = faulted
        .sim
        .process_ref::<Broker>(faulted.broker_pids[0])
        .expect("broker");
    assert!(
        broker.stats().txns_aborted > 0,
        "the crashed epoch's staged output was aborted"
    );
}

#[test]
fn store_primary_crash_mid_checkpoint_fails_over_and_stays_exact() {
    // Crash the store-group primary while checkpoints are in flight: the
    // blob client rotates to a surviving member, the group fails over, the
    // restarted replica resyncs — and the sink output stays byte-identical.
    let baseline = build_txn(3).run().expect("baseline runs");
    let mut sc = build_txn(3);
    sc.faults(FaultPlan::new().crash_restart_store(
        0,
        SimTime::from_millis(3_900),
        SimDuration::from_secs(3),
    ));
    let faulted = sc.run().expect("faulted runs");
    assert_eq!(
        sink_bytes(&faulted),
        sink_bytes(&baseline),
        "a store crash must not change the committed sink output"
    );
    assert_eq!(final_counts(&faulted), ground_truth());
    let spe = &faulted.report.spe["wordcount"];
    assert!(
        spe.checkpoints.checkpoints > 0,
        "checkpoints kept landing through the failover"
    );
    // Checkpoints persisted after the crash prove the failover worked.
    let crash = SimTime::from_millis(3_900);
    assert!(
        spe.checkpoint_log
            .iter()
            .any(|(_, durable)| *durable > crash),
        "captures persisted after the primary died"
    );
    // The group's view: a surviving member claimed primary; the restarted
    // replica resynced the op log.
    let s0 = &faulted.report.stores[0];
    let rec = s0.recovery.expect("store crash recorded");
    assert_eq!(rec.crashed_at, crash);
    assert_eq!(rec.restarted_at, Some(SimTime::from_millis(6_900)));
    assert!(rec.resynced_at.is_some(), "op-log catch-up completed");
    assert!(rec.sync_ops > 0, "the rejoining replica pulled missed ops");
    assert!(rec.sync_bytes > 0);
    assert!(!s0.is_primary, "the bounced replica rejoins as a follower");
    assert!(
        faulted.report.stores.iter().any(|r| r.is_primary),
        "a surviving member holds the primary role"
    );
    // All live replicas converge to the same blob set.
    let keys: Vec<u64> = faulted.report.stores.iter().map(|r| r.kv_keys).collect();
    assert!(
        keys.iter().all(|k| *k == keys[0]),
        "replicas converged: {keys:?}"
    );
}

#[test]
fn lossy_store_link_worker_crash_stays_exactly_once() {
    // A 20%-lossy access link to the store primary drops snapshot puts,
    // quorum replication traffic, and transaction-control RPCs — forcing
    // the retry paths (blob-client rotation, re-sent EndTxn/TxnRecover).
    // The epoch fence on TxnRecover means even a duplicated recover can
    // never abort the new incarnation's staged output: the committed sink
    // stream must still match the fault-free run byte for byte.
    use stream2gym::net::LinkSpec;
    let lossy = |sc: &mut Scenario| {
        sc.host_link(
            "h6",
            LinkSpec::new()
                .latency(SimDuration::from_millis(2))
                .loss_pct(20.0),
        );
    };
    let mut base = build_txn(3);
    lossy(&mut base);
    let baseline = base.run().expect("baseline runs");
    let mut sc = build_txn(3);
    lossy(&mut sc);
    sc.faults(FaultPlan::new().crash_restart(
        "wordcount",
        SimTime::from_millis(4_300),
        SimDuration::from_millis(1_000),
    ));
    let faulted = sc.run().expect("faulted runs");
    assert!(
        faulted.report.sim_stats.messages_dropped > 0,
        "the lossy link must actually drop store traffic"
    );
    assert_eq!(
        sink_bytes(&faulted),
        sink_bytes(&baseline),
        "retried transaction control must stay idempotent"
    );
}

#[test]
fn unreplicated_store_group_still_works() {
    // `with_replicated_store(1)` degenerates to the standalone store.
    let result = build_txn(1).run().expect("runs");
    assert_eq!(final_counts(&result), ground_truth());
    assert_eq!(result.report.stores.len(), 1);
    assert!(result.report.stores[0].is_primary);
}

// ---------------------------------------------------------------------------
// The broker's durable log through the same store faults.
// ---------------------------------------------------------------------------

const BROKER_CRASH: SimTime = SimTime::from_millis(4_500);

/// The word-count pipeline with the broker's log persisted through a
/// three-member store group. No checkpointing: the group carries broker
/// segments and meta blobs only, so every store RPC lost or left
/// unanswered is the broker's to retry.
fn build_durable_broker() -> Scenario {
    // A produce is acked only once its flush is durable, so every lost
    // store RPC stalls the producer for a retry interval: leave time.
    let mut sc = recovery_scenario(
        WORDS,
        SimDuration::from_millis(WORD_INTERVAL_MS),
        SimTime::from_secs(60),
        SEED,
    );
    sc.store("h6", StoreConfig::default());
    sc.with_replicated_store(3);
    sc.with_durable_broker("h6");
    sc
}

/// Runs `faulted` twice and the fault-free pipeline once, and checks what a
/// store fault followed by a broker bounce may not change: every record
/// acked before the crash is replayed (the log ends complete and the sink
/// output equals the fault-free run byte for byte), flushes keep landing
/// after the fault, and the run reproduces exactly from its seed.
fn assert_durable_log_survives(faulted: impl Fn() -> Scenario) -> RunResult {
    let baseline = build_durable_broker().run().expect("baseline runs");
    let result = faulted().run().expect("faulted runs");
    assert_eq!(
        sink_bytes(&result),
        sink_bytes(&baseline),
        "the bounce must not change the sink output"
    );
    let report = &result.report;
    assert_eq!(report.producers[0].stats.acked, WORDS as u64);
    let broker = result
        .sim
        .process_ref::<Broker>(result.broker_pids[0])
        .expect("broker");
    let words = stream2gym::proto::TopicPartition::new("words", 0);
    let log = broker.log(&words).expect("words log");
    assert_eq!(
        log.log_end().value(),
        WORDS as u64,
        "an acked record that was not replayed is never re-sent: the log would end short"
    );
    let b = &report.brokers[0];
    let rec = b.recovery.expect("broker crash recorded");
    assert_eq!(rec.crashed_at, BROKER_CRASH);
    assert!(rec.recovered_at.is_some(), "replay completed");
    assert!(rec.replayed_records > 0 && rec.replayed_segments > 0);
    // The respawn's counters start at zero, after the store fault began.
    assert!(b.stats.log_flushes > 0, "flushes keep landing");
    let again = faulted().run().expect("faulted runs again");
    assert_eq!(sink_bytes(&again), sink_bytes(&result));
    let key = |r: &RunResult| {
        let b = &r.report.brokers[0];
        let stats = (b.stats.log_flushes, b.stats.log_flushed_bytes);
        let stores: Vec<(u64, bool)> = (r.report.stores.iter())
            .map(|s| (s.kv_keys, s.is_primary))
            .collect();
        (b.recovery, stats, stores, r.report.sim_stats)
    };
    assert_eq!(key(&again), key(&result), "same seed, same run");
    result
}

#[test]
fn durable_broker_log_survives_a_store_primary_crash_then_a_bounce() {
    // The store primary dies while the producer is mid-stream, so flushes
    // in flight go unanswered: the broker's retry rotates to a surviving
    // member. The broker then bounces while member 0 is still down, so its
    // respawn's first recovery reads hit the dead endpoint too.
    let result = assert_durable_log_survives(|| {
        let mut sc = build_durable_broker();
        let plan = FaultPlan::new().crash_restart_store(
            0,
            SimTime::from_millis(2_000),
            SimDuration::from_secs(6),
        );
        sc.faults(plan.crash_restart_broker(0, BROKER_CRASH, SimDuration::from_secs(1)));
        sc
    });
    let s0 = &result.report.stores[0];
    assert!(!s0.is_primary, "the bounced replica rejoins as a follower");
    let rec = result.report.brokers[0].recovery.expect("crash recorded");
    let replay = rec.replay_latency().expect("replayed");
    assert!(
        replay >= SimDuration::from_secs(2),
        "the replay waited out a retry interval on the dead endpoint: {replay:?}"
    );
}

#[test]
fn durable_broker_log_survives_a_lossy_store_link_then_a_bounce() {
    // 5 % loss on the store primary's access link drops segment puts, their
    // acks and quorum traffic; only the broker's retry gets a flush whose
    // put or ack was lost acknowledged at all.
    let result = assert_durable_log_survives(|| {
        let mut sc = build_durable_broker();
        sc.host_link(
            "h6",
            stream2gym::net::LinkSpec::new()
                .latency(SimDuration::from_millis(2))
                .loss_pct(5.0),
        );
        sc.faults(FaultPlan::new().crash_restart_broker(
            0,
            BROKER_CRASH,
            SimDuration::from_secs(1),
        ));
        sc
    });
    assert!(
        result.report.sim_stats.messages_dropped > 0,
        "the lossy link must actually drop store traffic"
    );
}

// ---------------------------------------------------------------------------
// Durability-ordering tests: manifest-after-blob.
// ---------------------------------------------------------------------------

fn sample_snapshot(tag: i64) -> StateSnapshot {
    StateSnapshot {
        taken_at: SimTime::from_millis(100 + tag as u64),
        plan_state: vec![Some(stream2gym::spe::Value::Int(tag))],
        records_in: tag as u64,
        records_out: 0,
        buffer: Vec::new(),
        offsets: Vec::new(),
        txn_seq: 0,
    }
}

/// Drives a [`DurableBackend`] against a real store: persists snapshot A to
/// completion, then plants an *orphan* chain-2 base blob (exactly the state
/// left by a store failure after the blob write but before the manifest
/// publish), then recovers through a fresh backend.
struct OrphanBlobHarness {
    store: ProcessId,
    backend: DurableBackend,
    recover_backend: Option<DurableBackend>,
    stage: u8,
    restored: Option<Option<StateSnapshot>>,
}

const ORPHAN_CORR: u64 = 424_242;

impl Process for OrphanBlobHarness {
    fn name(&self) -> &str {
        "harness"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let payload = CheckpointPayload::Full(sample_snapshot(1));
        self.backend.persist(ctx, "job", &payload);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        let Ok(rpc) = downcast::<StoreRpc>(msg) else {
            return;
        };
        if let StoreRpc::PutAck { corr: ORPHAN_CORR } = *rpc {
            // Orphan blob durable; now recover through a fresh backend,
            // exactly like a respawned worker would.
            self.stage = 2;
            let mut rb = DurableBackend::new(vec![self.store], 1);
            rb.recover(ctx, "job");
            self.recover_backend = Some(rb);
            return;
        }
        if let Some(rb) = self.recover_backend.as_mut() {
            if let StoreRpcOutcome::Recovered(mut read) = rb.on_store_rpc(ctx, "job", *rpc) {
                let chain = read.chains.pop().expect("one name, one chain");
                self.restored = Some(chain.map(|c| c.base));
            }
            return;
        }
        match self.backend.on_store_rpc(ctx, "job", *rpc) {
            StoreRpcOutcome::PersistCompleted if self.stage == 0 => {
                // Snapshot A is fully durable (blob + manifest). Plant the
                // chain-2 base blob WITHOUT its manifest: the post-failure
                // state of a persist interrupted between the two writes.
                self.stage = 1;
                ctx.send(
                    self.store,
                    StoreRpc::Put {
                        corr: ORPHAN_CORR,
                        key: "ckpt/job/2/base".into(),
                        value: sample_snapshot(2).to_bytes(),
                    },
                );
            }
            _ => {}
        }
    }
}

#[test]
fn store_failure_between_blob_and_manifest_falls_back_to_previous_chain() {
    let mut sim = Sim::new(7);
    let store = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
    let harness = sim.spawn(Box::new(OrphanBlobHarness {
        store,
        backend: DurableBackend::new(vec![store], 0),
        recover_backend: None,
        stage: 0,
        restored: None,
    }));
    sim.run_until(SimTime::from_secs(10));
    let h = sim
        .process_ref::<OrphanBlobHarness>(harness)
        .expect("harness");
    let restored = h
        .restored
        .as_ref()
        .expect("recovery completed")
        .as_ref()
        .expect("no cold start: the previous chain is intact");
    assert_eq!(
        restored,
        &sample_snapshot(1),
        "restore must fall back to the last manifest-consistent chain, \
         never adopt the orphaned newer blob"
    );
}

/// A store stand-in that records arriving Put keys and deliberately
/// withholds the ack for blob keys, to pin the backend's write ordering.
struct BlackholeBlobStore {
    received: Vec<String>,
    ack_blobs: bool,
}

impl Process for BlackholeBlobStore {
    fn name(&self) -> &str {
        "blackhole-store"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let Ok(rpc) = downcast::<StoreRpc>(msg) else {
            return;
        };
        if let StoreRpc::Put { corr, key, .. } = *rpc {
            let is_blob = key.contains("/base")
                || key
                    .rsplit('/')
                    .next()
                    .is_some_and(|t| t.parse::<u64>().is_ok());
            self.received.push(key);
            if !is_blob || self.ack_blobs {
                ctx.send(from, StoreRpc::PutAck { corr });
            }
        }
    }
}

/// Drives one persist against the blackhole store.
struct PersistDriver {
    backend: DurableBackend,
}

impl Process for PersistDriver {
    fn name(&self) -> &str {
        "persist-driver"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let payload = CheckpointPayload::Full(sample_snapshot(1));
        self.backend.persist(ctx, "job", &payload);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<StoreRpc>(msg) {
            let _ = self.backend.on_store_rpc(ctx, "job", *rpc);
        }
    }
}

#[test]
fn manifest_put_waits_for_the_blob_ack() {
    // Phase 1: the store never acks the blob — the manifest must never be
    // published, or a crash here would dangle the manifest on a missing
    // blob.
    let mut sim = Sim::new(3);
    let store = sim.spawn(Box::new(BlackholeBlobStore {
        received: Vec::new(),
        ack_blobs: false,
    }));
    sim.spawn(Box::new(PersistDriver {
        backend: DurableBackend::new(vec![store], 0),
    }));
    sim.run_until(SimTime::from_secs(5));
    let st = sim.process_ref::<BlackholeBlobStore>(store).expect("store");
    assert_eq!(
        st.received,
        vec!["ckpt/job/1/base".to_string()],
        "without the blob ack the manifest is withheld"
    );

    // Phase 2: acks flow — the manifest follows the blob, strictly after.
    let mut sim = Sim::new(3);
    let store = sim.spawn(Box::new(BlackholeBlobStore {
        received: Vec::new(),
        ack_blobs: true,
    }));
    sim.spawn(Box::new(PersistDriver {
        backend: DurableBackend::new(vec![store], 0),
    }));
    sim.run_until(SimTime::from_secs(5));
    let st = sim.process_ref::<BlackholeBlobStore>(store).expect("store");
    assert_eq!(
        st.received,
        vec!["ckpt/job/1/base".to_string(), "ckpt/job".to_string()],
        "the manifest publish strictly follows the blob's durability"
    );
}

/// A store stand-in that records every Put and acks none in time: the
/// first put's ack is "in the network" until the second put arrives, then
/// it lands — at whoever owns the requester's pid by then.
struct DelayedAckStore {
    puts: Vec<(u64, String)>,
}

impl Process for DelayedAckStore {
    fn name(&self) -> &str {
        "delayed-ack-store"
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<StoreRpc>(msg) {
            if let StoreRpc::Put { corr, key, .. } = *rpc {
                self.puts.push((corr, key));
                if self.puts.len() == 2 {
                    let corr = self.puts[0].0;
                    ctx.send(from, StoreRpc::PutAck { corr });
                }
            }
        }
    }
}

/// A worker that persists, bounces one second later, and persists again
/// as its respawn — each incarnation's backend built the way the
/// orchestrator builds it, from the slot's incarnation number.
struct BouncingWorker {
    store: ProcessId,
    backend: DurableBackend,
}

impl Process for BouncingWorker {
    fn name(&self) -> &str {
        "bouncing-worker"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let payload = CheckpointPayload::Full(sample_snapshot(1));
        self.backend.persist(ctx, "job", &payload);
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != 0 {
            return; // the backends' retry timers: the store acks nothing new
        }
        self.backend = DurableBackend::new(vec![self.store], 1);
        let payload = CheckpointPayload::Full(sample_snapshot(2));
        self.backend.persist(ctx, "job", &payload);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<StoreRpc>(msg) {
            let _ = self.backend.on_store_rpc(ctx, "job", *rpc);
        }
    }
}

#[test]
fn stale_put_ack_across_a_worker_bounce_completes_nothing() {
    // The pre-bounce incarnation's blob ack arrives at the respawn while
    // its own blob put is unanswered. Were the two to share a correlation
    // id, the respawn would take the ack for its own and publish a
    // manifest pointing at a blob the store never acknowledged.
    let mut sim = Sim::new(3);
    let store = sim.spawn(Box::new(DelayedAckStore { puts: Vec::new() }));
    sim.spawn(Box::new(BouncingWorker {
        store,
        backend: DurableBackend::new(vec![store], 0),
    }));
    sim.run_until(SimTime::from_secs(5));
    let st = sim.process_ref::<DelayedAckStore>(store).expect("store");
    let keys: Vec<&str> = st.puts.iter().map(|(_, key)| key.as_str()).collect();
    assert_eq!(
        keys,
        ["ckpt/job/1/base", "ckpt/job/1/base"],
        "no manifest may follow a blob that was never acked"
    );
    assert_ne!(
        st.puts[0].0, st.puts[1].0,
        "the two incarnations draw disjoint correlation ids"
    );
}

/// Peer-acked op-log truncation: primaries discard the op-log prefix every
/// live member has applied, so long runs stop growing the log — and a
/// member restarted after truncation is bootstrapped by a full state
/// transfer instead of replaying from sequence zero.
#[test]
fn oplog_truncation_bounds_the_log_and_snapshot_resync_still_works() {
    // Fault-free long run: the log is truncated down to (near) nothing.
    let result = build_txn(3).run().expect("runs");
    let primary = &result.report.stores[0];
    assert!(
        primary.oplog_truncated > 0,
        "the primary must discard peer-acked prefixes"
    );
    assert!(
        (primary.oplog_len as i64) < (primary.oplog_truncated as i64),
        "retained log ({}) must stay well below lifetime ops ({})",
        primary.oplog_len,
        primary.oplog_truncated + primary.oplog_len
    );
    assert_eq!(final_counts(&result), ground_truth());

    // Crash replica 1 early and bring it back late — by then the primary
    // has truncated the prefix the rejoin would have replayed, so the
    // resync arrives as a state snapshot (still counted as sync work).
    let mut sc = build_txn(3);
    sc.faults(FaultPlan::new().crash_restart_store(
        1,
        SimTime::from_millis(2_500),
        SimDuration::from_secs(8),
    ));
    let faulted = sc.run().expect("runs");
    assert_eq!(
        sink_bytes(&faulted),
        sink_bytes(&result),
        "truncation must never change committed output"
    );
    let replica = &faulted.report.stores[1];
    let rec = replica.recovery.expect("replica crash recorded");
    assert!(rec.resynced_at.is_some(), "the replica rejoined");
    assert!(rec.sync_ops > 0, "the rejoin transferred state");
    // Truncation kept running on the primary throughout.
    assert!(faulted.report.stores[0].oplog_truncated > 0);
}
