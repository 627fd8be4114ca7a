//! Workspace determinism linter.
//!
//! ```text
//! cargo run -p s2g-analyze --bin s2g-lint -- [--deny] [--json] [--config lint.toml] [root]
//! ```
//!
//! Scans the workspace's non-test, non-vendor Rust sources for
//! determinism/safety hazards (see `s2g_analyze::lint`). With `--deny`,
//! exits nonzero when any deny-tier finding survives its escape comments —
//! the CI `lint-static` job runs exactly that. The report ends with what
//! each crate weighs (files, code lines, `pub` items); `--json` carries the
//! same rows.

use s2g_analyze::lint::{lint, LintConfig};
use std::path::PathBuf;

fn main() {
    let mut deny = false;
    let mut json = false;
    let mut config: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--config" => match args.next() {
                Some(p) => config = Some(PathBuf::from(p)),
                None => die("--config needs a path"),
            },
            "--help" | "-h" => {
                println!("usage: s2g-lint [--deny] [--json] [--config lint.toml] [root]");
                return;
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag `{flag}`")),
            path => root = PathBuf::from(path),
        }
    }

    let config_path = config.unwrap_or_else(|| root.join("lint.toml"));
    let cfg = if config_path.is_file() {
        match std::fs::read_to_string(&config_path) {
            Ok(text) => match LintConfig::parse(&text) {
                Ok(cfg) => cfg,
                Err(e) => die(&e),
            },
            Err(e) => die(&format!("reading {}: {e}", config_path.display())),
        }
    } else {
        LintConfig::default()
    };

    let report = match lint(&root, &cfg) {
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
            "s2g-lint: {} file(s) scanned, {} finding(s) ({} deny)",
            report.files_scanned,
            report.findings.len(),
            report
                .findings
                .iter()
                .filter(|f| f.level == s2g_analyze::lint::LintLevel::Deny)
                .count()
        );
    }
    if deny && report.has_deny() {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("s2g-lint: {msg}");
    std::process::exit(2)
}
