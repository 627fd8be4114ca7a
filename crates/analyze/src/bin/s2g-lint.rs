//! Workspace size reporter.
//!
//! ```text
//! cargo run -p s2g-analyze --bin s2g-lint -- [root]
//! ```
//!
//! Weighs the workspace's non-test Rust sources under `root` (default `.`)
//! with `s2g_analyze::size` and prints one row per crate (files, code
//! lines, `pub` items), then a summary line; `tools/code_size.sh` holds
//! each crate to the sizes pinned in `tools/code_size.txt`. A root with no
//! `crates/` directory or no source file exits 2.

use s2g_analyze::size::weigh;
use std::path::PathBuf;

const USAGE: &str = "usage: s2g-lint [root]";

fn main() {
    let mut root: Option<PathBuf> = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag `{flag}`\n{USAGE}")),
            path if root.is_none() => root = Some(PathBuf::from(path)),
            path => die(&format!("a second root `{path}`\n{USAGE}")),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    let report = match weigh(&root) {
        Ok(r) => r,
        Err(e) => die(&format!("scanning {}: {e}", root.display())),
    };
    println!(
        "{:<18}{:>6}{:>12}{:>11}",
        "crate", "files", "code lines", "pub items"
    );
    for (name, (files, code_lines, pub_items)) in &report.crates {
        println!("{name:<18}{files:>6}{code_lines:>12}{pub_items:>11}");
    }
    println!("s2g-lint: {} file(s) scanned", report.files_scanned);
}

fn die(msg: &str) -> ! {
    eprintln!("s2g-lint: {msg}");
    std::process::exit(2)
}
