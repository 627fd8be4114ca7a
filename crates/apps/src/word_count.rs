//! Word count — the paper's reference application (Fig. 2a, Table II).
//!
//! Pipeline: a data source streams documents into `raw-data`; SPE job 1
//! counts the distinct words per document into `words-per-doc`; SPE job 2
//! maintains the running average document length per topic category into
//! `avg-words-per-topic`; a data sink consumes the result. Five components
//! over a one-big-switch network, each on its own host — the allocation of
//! Fig. 2b.

use s2g_broker::TopicSpec;
use s2g_core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use s2g_net::LinkSpec;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Event, Plan, SpeConfig, Value};

use crate::data::documents;

/// Per-component link delays for the Fig. 5 experiment ("we increase the
/// link delay of a single component and keep the remaining ones at a very
/// low value (<10ms)").
#[derive(Debug, Clone, Copy)]
pub struct ComponentDelays {
    /// Producer access link.
    pub producer: SimDuration,
    /// Broker access link.
    pub broker: SimDuration,
    /// Stream-processing hosts' access links.
    pub spe: SimDuration,
    /// Consumer access link.
    pub consumer: SimDuration,
}

impl Default for ComponentDelays {
    fn default() -> Self {
        let low = SimDuration::from_millis(2);
        ComponentDelays {
            producer: low,
            broker: low,
            spe: low,
            consumer: low,
        }
    }
}

/// Job 1: count the distinct words in each document.
///
/// Input: raw `"category|text"` records. Output: one event per document,
/// keyed by category, value `{words: n, distinct: m}`.
pub fn count_words_plan() -> Plan {
    Plan::new().map("count-words", |mut e| {
        let text = e.value.as_str().unwrap_or("").to_string();
        let (category, body) = text.split_once('|').unwrap_or(("unknown", text.as_str()));
        let words: Vec<&str> = body.split_whitespace().collect();
        let mut distinct: Vec<&str> = words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        e.key = Some(category.to_string());
        e.value = Value::map([
            ("words", Value::Int(words.len() as i64)),
            ("distinct", Value::Int(distinct.len() as i64)),
        ]);
        e
    })
}

/// Job 2: running average document length per topic category.
///
/// Input: job 1's per-document counts. Output: one event per input, keyed
/// by category, value `{avg_words: x, docs: n}` — continuous-query
/// semantics, so every document yields an end-to-end measurable output.
pub fn avg_doc_length_plan() -> Plan {
    Plan::new().stateful(
        "avg-doc-length",
        Value::map([("sum", Value::Int(0)), ("n", Value::Int(0))]),
        |state, e| {
            let words = e.value.field("words").and_then(Value::as_int).unwrap_or(0);
            let sum = state.field("sum").and_then(Value::as_int).unwrap_or(0) + words;
            let n = state.field("n").and_then(Value::as_int).unwrap_or(0) + 1;
            *state = Value::map([("sum", Value::Int(sum)), ("n", Value::Int(n))]);
            vec![Event {
                value: Value::map([
                    ("avg_words", Value::Float(sum as f64 / n as f64)),
                    ("docs", Value::Int(n)),
                ]),
                ..e.clone()
            }]
        },
    )
}

/// Builds the full word-count scenario: `files` documents streamed at
/// `file_interval`, per-component link delays per `delays`.
pub fn scenario(
    files: usize,
    file_interval: SimDuration,
    delays: ComponentDelays,
    duration: SimTime,
    seed: u64,
) -> Scenario {
    let mut sc = Scenario::new("word-count");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .host_link("h1", LinkSpec::new().latency(delays.producer))
        .host_link("h2", LinkSpec::new().latency(delays.broker))
        .host_link("h3", LinkSpec::new().latency(delays.spe))
        .host_link("h4", LinkSpec::new().latency(delays.spe))
        .host_link("h5", LinkSpec::new().latency(delays.consumer))
        .topic(TopicSpec::new("raw-data"))
        .topic(TopicSpec::new("words-per-doc"))
        .topic(TopicSpec::new("avg-words-per-topic"));
    sc.broker("h2");
    sc.producer(
        "h1",
        SourceSpec::Items {
            topic: "raw-data".into(),
            items: documents(files, seed),
            interval: file_interval,
        },
        Default::default(),
    );
    let fast_batches = SpeConfig {
        batch_interval: SimDuration::from_millis(250),
        scheduling_overhead: SimDuration::from_millis(40),
        ..SpeConfig::default()
    };
    sc.spe_job(
        "h3",
        SpeJobSpec::new(
            "job1-word-count",
            vec!["raw-data".into()],
            count_words_plan,
            SpeSinkSpec::Topic("words-per-doc".into()),
            fast_batches.clone(),
        ),
    );
    sc.spe_job(
        "h4",
        SpeJobSpec::new(
            "job2-avg-length",
            vec!["words-per-doc".into()],
            avg_doc_length_plan,
            SpeSinkSpec::Topic("avg-words-per-topic".into()),
            fast_batches,
        ),
    );
    sc.consumer("h5", Default::default(), &["avg-words-per-topic"]);
    sc
}

/// Continuous per-word running count — the stateful job used by the
/// crash/recovery scenarios. Every input word emits an updated
/// `(word, count)` event, so the downstream topic always carries the latest
/// count per word and duplicate emissions are idempotent at the consumer.
pub fn running_count_plan() -> Plan {
    Plan::new()
        .key_by("by-word", |e| e.value.as_str().unwrap_or("").to_string())
        .stateful("running-count", Value::Int(0), |state, e| {
            let n = state.as_int().unwrap_or(0) + 1;
            *state = Value::Int(n);
            vec![Event {
                value: Value::Int(n),
                ..e.clone()
            }]
        })
}

/// A deterministic stream of single-word records drawn from a small
/// vocabulary — the input corpus for the recovery scenarios.
pub fn word_stream(n: usize, seed: u64) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const VOCAB: [&str; 8] = [
        "stream", "gym", "fault", "replay", "offset", "window", "batch", "state",
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_50DA);
    (0..n)
        .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())].to_string())
        .collect()
}

/// Builds the worker crash/recovery scenario: a producer streams `words`
/// single-word records at `interval` into `words`; the stateful `wordcount`
/// job keeps a running count per word and emits `(word, count)` updates to
/// `counts`; a consumer collects them. Callers add checkpointing
/// ([`Scenario::with_checkpointing`]) and a crash plan
/// (`FaultPlan::crash_restart("wordcount", ..)`) on top.
pub fn recovery_scenario(
    words: usize,
    interval: SimDuration,
    duration: SimTime,
    seed: u64,
) -> Scenario {
    let mut sc = Scenario::new("word-count-recovery");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .topic(TopicSpec::new("words"))
        .topic(TopicSpec::new("counts"));
    sc.broker("h2");
    sc.producer(
        "h1",
        SourceSpec::Items {
            topic: "words".into(),
            items: word_stream(words, seed),
            interval,
        },
        Default::default(),
    );
    let cfg = SpeConfig {
        batch_interval: SimDuration::from_millis(250),
        scheduling_overhead: SimDuration::from_millis(20),
        startup_cpu: SimDuration::from_millis(200),
        ..SpeConfig::default()
    };
    sc.spe_job(
        "h3",
        SpeJobSpec::new(
            "wordcount",
            vec!["words".into()],
            running_count_plan,
            SpeSinkSpec::Topic("counts".into()),
            cfg,
        ),
    );
    sc.consumer("h5", Default::default(), &["counts"]);
    sc
}

/// The parallel port of [`recovery_scenario`]: the same stateful word-count
/// pipeline, but the source topic gets 8 partitions and the job runs
/// `parallelism` instances per stage — stage 0 (`key_by`) splits the source
/// partitions, the keyed shuffle routes each word to the instance owning
/// its key group, and the running counts live sliced across the stage-1
/// instances. With `parallelism == 1` this degenerates to the classic
/// single-worker layout (the output-parity baseline).
pub fn parallel_recovery_scenario(
    words: usize,
    interval: SimDuration,
    duration: SimTime,
    seed: u64,
    parallelism: usize,
) -> Scenario {
    let mut sc = Scenario::new("word-count-parallel");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .topic(TopicSpec::new("words").partitions(8))
        .topic(TopicSpec::new("counts"));
    sc.broker("h2");
    sc.producer(
        "h1",
        SourceSpec::Items {
            topic: "words".into(),
            items: word_stream(words, seed),
            interval,
        },
        Default::default(),
    );
    let cfg = SpeConfig {
        batch_interval: SimDuration::from_millis(250),
        scheduling_overhead: SimDuration::from_millis(20),
        startup_cpu: SimDuration::from_millis(200),
        ..SpeConfig::default()
    };
    let mut job = SpeJobSpec::new(
        "wordcount",
        vec!["words".into()],
        running_count_plan,
        SpeSinkSpec::Topic("counts".into()),
        cfg,
    );
    if parallelism > 1 {
        job = job.parallelism(parallelism);
    }
    sc.spe_job("h3", job);
    sc.consumer("h5", Default::default(), &["counts"]);
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_sim::SimTime;

    #[test]
    fn plans_compute_counts_and_averages() {
        let mut j1 = count_words_plan();
        let out = j1.run_batch(
            SimTime::ZERO,
            vec![Event::new(
                Value::Str("ml|alpha beta alpha".into()),
                SimTime::ZERO,
            )],
        );
        assert_eq!(out[0].key.as_deref(), Some("ml"));
        assert_eq!(out[0].value.field("words").unwrap().as_int(), Some(3));
        assert_eq!(out[0].value.field("distinct").unwrap().as_int(), Some(2));

        let mut j2 = avg_doc_length_plan();
        let mk = |n: i64| {
            Event::new(Value::map([("words", Value::Int(n))]), SimTime::ZERO).with_key("ml")
        };
        let out = j2.run_batch(SimTime::ZERO, vec![mk(10), mk(20)]);
        assert_eq!(
            out[1].value.field("avg_words").unwrap().as_float(),
            Some(15.0)
        );
        assert_eq!(out[1].value.field("docs").unwrap().as_int(), Some(2));
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let mut sc = scenario(
            30,
            SimDuration::from_millis(100),
            ComponentDelays::default(),
            SimTime::from_secs(40),
            11,
        );
        sc.capture_records(); // each delivery's latency is checked below
        let result = sc.run().expect("runs");
        let monitor = result.monitor.borrow();
        let finals: Vec<_> = monitor.for_topic("avg-words-per-topic").collect();
        assert_eq!(finals.len(), 30, "one running-average output per document");
        // End-to-end latency is positive and bounded at low link delays.
        for d in finals {
            let lat = d.latency();
            assert!(lat > SimDuration::ZERO);
            assert!(lat < SimDuration::from_secs(5), "latency {lat}");
        }
    }
}
