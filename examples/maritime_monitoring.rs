//! Maritime monitoring: windowed ship counts persisted to an external store.
//!
//! Run with: `cargo run --example maritime_monitoring`

use stream2gym::apps::maritime;
use stream2gym::core::ascii_table;
use stream2gym::sim::SimTime;
use stream2gym::store::StoreServer;

fn main() {
    let scenario = maritime::scenario(500, SimTime::from_secs(90), 4);
    println!("running the maritime-monitoring pipeline...");
    let result = scenario.run().expect("scenario is valid");

    let store_pid = result.store_pids["h-store"];
    let store = result
        .sim
        .process_ref::<StoreServer>(store_pid)
        .expect("store");
    let groups = store
        .tables()
        .group_count("port_counts", "c0")
        .expect("table exists");
    let rows: Vec<Vec<String>> = groups
        .iter()
        .map(|(port, n)| vec![port.clone(), n.to_string()])
        .collect();
    println!(
        "{}",
        ascii_table(
            "windows persisted per watched port",
            &["port", "windows"],
            &rows
        )
    );
    let (r_in, r_out) = result.report.spe["port-counts"].record_counts;
    println!(
        "stream job: {r_in} reports in, {r_out} window counts out (filtered to watched ports)"
    );
    println!("store now holds {} rows", store.tables().total_rows());
}
