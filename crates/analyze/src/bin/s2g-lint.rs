//! Workspace determinism linter.
//!
//! ```text
//! cargo run -p s2g-analyze --bin s2g-lint -- [--deny] [--json] [root]
//! ```
//!
//! Scans the workspace's non-test Rust sources under `root` (default `.`)
//! for the `exec-unhandled` rule of `s2g_analyze::lint`. With `--deny`,
//! exits 1 when there is any finding — the CI `lint-static` job runs
//! exactly that. A root with no `crates/` directory or no source file
//! exits 2. The report ends with what each crate weighs (files, code
//! lines, `pub` items); `--json` carries the same rows.

use s2g_analyze::lint::lint;
use std::path::PathBuf;

const USAGE: &str = "usage: s2g-lint [--deny] [--json] [root]";

fn main() {
    let mut deny = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
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

    let report = match lint(&root) {
        Ok(r) => r,
        Err(e) => die(&format!("scanning {}: {e}", root.display())),
    };

    if json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "{:<18}{:>6}{:>12}{:>11}",
            "crate", "files", "code lines", "pub items"
        );
        for (name, (files, code_lines, pub_items)) in &report.crates {
            println!("{name:<18}{files:>6}{code_lines:>12}{pub_items:>11}");
        }
        println!(
            "s2g-lint: {} file(s) scanned, {} finding(s)",
            report.files_scanned,
            report.findings.len()
        );
    }
    if deny && !report.findings.is_empty() {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("s2g-lint: {msg}");
    std::process::exit(2)
}
