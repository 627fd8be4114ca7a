//! Sentiment analysis — unstructured data (Table II).
//!
//! "Computes the subjectivity and polarity, two common natural language
//! processing tasks, of each message in a Tweet stream and thus involves
//! manipulating unstructured data." Three components: producer, broker, and
//! the SPE job (results collected at the engine).

use s2g_broker::TopicSpec;
use s2g_core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use s2g_ml::SentimentLexicon;
use s2g_net::LinkSpec;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Plan, SpeConfig, Value};

use crate::data::tweets;

/// The sentiment job: score each tweet's polarity and subjectivity.
pub(crate) fn sentiment_plan() -> Plan {
    let lexicon = SentimentLexicon::new();
    Plan::new().map("score", move |mut e| {
        let text = e.value.as_str().unwrap_or("").to_string();
        let s = lexicon.score(&text);
        e.value = Value::map([
            ("text", Value::Str(text)),
            ("polarity", Value::Float(s.polarity)),
            ("subjectivity", Value::Float(s.subjectivity)),
        ]);
        e
    })
}

/// Builds the sentiment-analysis scenario over `n` tweets.
pub fn scenario(n: usize, duration: SimTime, seed: u64) -> Scenario {
    let mut sc = Scenario::new("sentiment-analysis");
    sc.seed(seed)
        .duration(duration)
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(3)))
        .topic(TopicSpec::new("tweets"));
    sc.broker("h-broker");
    sc.producer(
        "h-src",
        SourceSpec::Items {
            topic: "tweets".into(),
            items: tweets(n, seed),
            interval: SimDuration::from_millis(30),
        },
        Default::default(),
    );
    sc.spe_job(
        "h-spe",
        SpeJobSpec::new(
            "sentiment",
            vec!["tweets".into()],
            sentiment_plan,
            SpeSinkSpec::Collect,
            SpeConfig::default(),
        ),
    );
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_spe::Event;

    #[test]
    fn plan_scores_polarity_and_subjectivity() {
        let mut plan = sentiment_plan();
        let out = plan.run_batch(
            SimTime::ZERO,
            vec![
                Event::new(
                    Value::Str("really great wonderful launch".into()),
                    SimTime::ZERO,
                ),
                Event::new(
                    Value::Str("terrible awful broken mess".into()),
                    SimTime::ZERO,
                ),
            ],
        );
        let pol = |e: &Event| e.value.field("polarity").unwrap().as_float().unwrap();
        assert!(pol(&out[0]) > 0.3);
        assert!(pol(&out[1]) < -0.3);
        assert!(
            out[0]
                .value
                .field("subjectivity")
                .unwrap()
                .as_float()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn pipeline_scores_the_stream() {
        let sc = scenario(60, SimTime::from_secs(30), 13);
        let result = sc.run().expect("runs");
        let report = &result.report.spe["sentiment"];
        assert_eq!(report.collected.len(), 60, "every tweet scored");
        let positives = report
            .collected
            .iter()
            .filter(|e| e.value.field("polarity").unwrap().as_float().unwrap() > 0.1)
            .count();
        let negatives = report
            .collected
            .iter()
            .filter(|e| e.value.field("polarity").unwrap().as_float().unwrap() < -0.1)
            .count();
        assert!(positives > 5, "{positives} positives");
        assert!(negatives > 5, "{negatives} negatives");
    }
}
