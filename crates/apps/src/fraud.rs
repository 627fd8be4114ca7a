//! Fraud detection — machine learning prediction (Table II).
//!
//! "Runs a machine learning algorithm (SVM) to predict anomalies in a
//! stream of financial transactions." The SVM is trained offline on a
//! labeled synthetic set and embedded into the stream job, which scores
//! every transaction and forwards the flagged ones to an alerts topic.
//! Five components: producer, broker, SPE, alerts consumer (+ training).

use s2g_broker::TopicSpec;
use s2g_core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use s2g_ml::{Label, LinearSvm, SvmParams};
use s2g_net::LinkSpec;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Plan, SpeConfig, Value};

use crate::data::{transactions, Transaction};

/// Trains the fraud model on a fresh synthetic labeled set.
pub fn train_model(training_size: usize, seed: u64) -> LinearSvm {
    let txs = transactions(training_size, seed);
    let data: Vec<(Vec<f64>, Label)> = txs
        .iter()
        .map(|t| {
            (
                t.features(),
                if t.fraudulent {
                    Label::Positive
                } else {
                    Label::Negative
                },
            )
        })
        .collect();
    LinearSvm::train(
        &data,
        SvmParams {
            seed,
            ..SvmParams::default()
        },
    )
}

/// The fraud job: parse transactions, score them with the SVM, keep the
/// predicted anomalies with their margins.
pub fn fraud_plan(model: LinearSvm) -> Plan {
    Plan::new()
        .map("score", move |mut e| {
            let text = e.value.as_str().unwrap_or("").to_string();
            match Transaction::parse(&text) {
                Some(tx) => {
                    let margin = model.margin(&tx.features());
                    e.value = Value::map([
                        ("amount", Value::Float(tx.amount)),
                        ("margin", Value::Float(margin)),
                        ("flagged", Value::Bool(margin > 0.0)),
                    ]);
                }
                None => e.value = Value::Null,
            }
            e
        })
        .filter("flagged-only", |e| {
            e.value
                .field("flagged")
                .is_some_and(|f| matches!(f, Value::Bool(true)))
        })
}

/// Builds the fraud-detection scenario: `n` streamed transactions scored by
/// a model trained on `training_size` labeled examples.
pub fn scenario(n: usize, training_size: usize, duration: SimTime, seed: u64) -> Scenario {
    let mut sc = Scenario::new("fraud-detection");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(3)))
        .topic(TopicSpec::new("transactions"))
        .topic(TopicSpec::new("fraud-alerts"));
    sc.broker("h-broker");
    let stream: Vec<String> = transactions(n, seed ^ 0x00ff)
        .iter()
        .map(Transaction::to_record)
        .collect();
    sc.producer(
        "h-src",
        SourceSpec::Items {
            topic: "transactions".into(),
            items: stream,
            interval: SimDuration::from_millis(20),
        },
        Default::default(),
    );
    sc.spe_job(
        "h-spe",
        SpeJobSpec::new(
            "fraud-scoring",
            vec!["transactions".into()],
            move || fraud_plan(train_model(training_size, seed)),
            SpeSinkSpec::Topic("fraud-alerts".into()),
            SpeConfig::default(),
        ),
    );
    sc.consumer("h-alerts", Default::default(), &["fraud-alerts"]);
    sc
}

/// The parallel port of [`scenario`]: the same SVM-scoring pipeline, but
/// the transactions topic gets 8 partitions and the (stateless, single
/// stage) job runs `parallelism` instances, each statically owning a
/// contiguous partition range. With `parallelism == 1` this degenerates to
/// the classic single-worker layout (the output-parity baseline).
pub fn parallel_scenario(
    n: usize,
    training_size: usize,
    duration: SimTime,
    seed: u64,
    parallelism: usize,
) -> Scenario {
    let mut sc = Scenario::new("fraud-detection-parallel");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(3)))
        .topic(TopicSpec::new("transactions").partitions(8))
        .topic(TopicSpec::new("fraud-alerts"));
    sc.broker("h-broker");
    let stream: Vec<String> = transactions(n, seed ^ 0x00ff)
        .iter()
        .map(Transaction::to_record)
        .collect();
    sc.producer(
        "h-src",
        SourceSpec::Items {
            topic: "transactions".into(),
            items: stream,
            interval: SimDuration::from_millis(20),
        },
        Default::default(),
    );
    let mut job = SpeJobSpec::new(
        "fraud-scoring",
        vec!["transactions".into()],
        move || fraud_plan(train_model(training_size, seed)),
        SpeSinkSpec::Topic("fraud-alerts".into()),
        SpeConfig::default(),
    );
    if parallelism > 1 {
        // A stateless plan has one stage; forcing the parallel layout makes
        // the instances split the source partitions between them.
        job = job.parallelism(parallelism);
    }
    sc.spe_job("h-spe", job);
    sc.consumer("h-alerts", Default::default(), &["fraud-alerts"]);
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_spe::Event;

    #[test]
    fn model_separates_synthetic_fraud() {
        let model = train_model(1_500, 3);
        let test = transactions(500, 99);
        let mut tp = 0;
        let mut fp = 0;
        let mut fraud_total = 0;
        for t in &test {
            let flagged = model.predict(&t.features()) == Label::Positive;
            if t.fraudulent {
                fraud_total += 1;
                if flagged {
                    tp += 1;
                }
            } else if flagged {
                fp += 1;
            }
        }
        assert!(fraud_total > 10);
        let recall = tp as f64 / fraud_total as f64;
        assert!(recall > 0.85, "recall {recall}");
        assert!(fp < 15, "{fp} false positives of {}", test.len());
    }

    #[test]
    fn plan_flags_only_anomalies() {
        let model = train_model(1_500, 3);
        let mut plan = fraud_plan(model);
        let benign = Transaction {
            amount: 25.0,
            velocity: 1.0,
            geo_distance: 5.0,
            fraudulent: false,
        };
        let shady = Transaction {
            amount: 4_000.0,
            velocity: 25.0,
            geo_distance: 8_000.0,
            fraudulent: true,
        };
        let out = plan.run_batch(
            SimTime::ZERO,
            vec![
                Event::new(Value::Str(benign.to_record()), SimTime::ZERO),
                Event::new(Value::Str(shady.to_record()), SimTime::ZERO),
            ],
        );
        assert_eq!(out.len(), 1, "only the anomaly passes the filter");
        assert!(out[0].value.field("margin").unwrap().as_float().unwrap() > 0.0);
    }

    #[test]
    fn pipeline_raises_alerts() {
        let sc = scenario(300, 1_500, SimTime::from_secs(30), 17);
        let result = sc.run().expect("runs");
        let alerts = result.monitor.borrow().delivery_count("fraud-alerts");
        // ~8% of 300 transactions are fraudulent.
        assert!(
            (10..80).contains(&alerts),
            "plausible alert volume, got {alerts}"
        );
    }
}
