//! Fraud detection: an embedded SVM scores a transaction stream.
//!
//! Run with: `cargo run --example fraud_detection`

use stream2gym::apps::fraud;
use stream2gym::sim::SimTime;

fn main() {
    let scenario = fraud::scenario(600, 2_000, SimTime::from_secs(45), 11);
    println!("training the SVM and running the fraud-detection pipeline...");
    let result = scenario.run().expect("scenario is valid");

    let monitor = result.monitor.borrow();
    let alerts = monitor.delivery_count("fraud-alerts");
    println!(
        "{} transactions streamed, {} alerts raised ({:.1}%)",
        result.report.producers[0].stats.acked,
        alerts,
        alerts as f64 / result.report.producers[0].stats.acked.max(1) as f64 * 100.0
    );
    if let Some(mean) = monitor.mean_latency("fraud-alerts") {
        println!("mean detection latency (produce → alert delivery): {mean}");
    }
}
