//! The workspace size reporter behind the `s2g-lint` binary.
//!
//! [`weigh`] reads every non-test Rust source of the workspace and counts,
//! per crate, its files, code lines and `pub` items: the sizes
//! `tools/code_size.sh` pins, so that a change that says it removed code
//! or concepts shows it as a difference of these. The reader is a
//! hand-rolled **token scan** (no `syn`; the build environment has no
//! crates.io access) in which comments and string-literal contents are
//! stripped and `#[cfg(test)]` blocks are skipped.
//!
//! (The determinism rules are clippy's: wall-clock reads, hash-order
//! iteration, truncating `as` casts in the codec files and private event
//! heaps, in `crates/clippy.toml`, the root `Cargo.toml`'s
//! `[workspace.lints.clippy]` and a `#![deny]` at the top of each codec
//! file.)

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The directories scanned, relative to the root passed to [`weigh`].
const ROOTS: [&str; 2] = ["crates", "src"];

/// Path parts that leave a file out of the scan: build output, and test
/// and example targets.
const EXCLUDE: [&str; 3] = ["/target/", "/tests/", "/examples/"];

/// What one scan weighed.
#[derive(Debug, Clone, Default)]
pub struct SizeReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// What each crate weighs, keyed by its directory (`crates/sim`; `.` is
    /// the root package): `(files, code lines, pub items)`. A code line has
    /// something on it once comments are stripped and is outside every
    /// `#[cfg(test)]` region (a file `#[cfg(test)] mod name;` declares is
    /// one whole region, and not counted among the files); a pub item
    /// starts with `pub` and one of `fn struct enum trait type const mod`
    /// (`pub(crate)` is not public, a `pub use` names nothing new).
    pub crates: BTreeMap<String, (usize, usize, usize)>,
}

/// Scans the workspace at `root` and weighs each crate.
///
/// # Errors
///
/// Propagates filesystem errors from the walk, and fails when `root` has
/// no `crates/` directory or no source file was found: a mistyped root
/// must not pass as a clean one.
pub fn weigh(root: &Path) -> std::io::Result<SizeReport> {
    if !root.join("crates").is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no `crates/` directory; is this a workspace root?",
        ));
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for r in ROOTS {
        collect_rs_files(&root.join(r), &mut files)?;
    }
    files.sort();
    let mut sources = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDE.iter().any(|e| rel.contains(e)) {
            continue;
        }
        sources.push((rel, std::fs::read_to_string(f)?));
    }
    if sources.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no Rust source file to scan",
        ));
    }
    Ok(weigh_sources(&sources))
}

/// Weighs each crate of `(path, text)` sources. A file declared by
/// `#[cfg(test)] mod name;` is test code: it is scanned, not weighed.
fn weigh_sources(sources: &[(String, String)]) -> SizeReport {
    let mut test_only = BTreeSet::new();
    for (path, text) in sources {
        let dir = match path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
            _ => path.trim_end_matches(".rs"),
        };
        for name in test_modules(text) {
            test_only.insert(format!("{dir}/{name}.rs"));
            test_only.insert(format!("{dir}/{name}/mod.rs"));
        }
    }
    let mut report = SizeReport::default();
    for (rel, text) in sources {
        report.files_scanned += 1;
        if test_only.contains(rel) {
            continue;
        }
        let krate = rel.split_once("/src/").map_or(".", |(krate, _)| krate);
        let (code_lines, pub_items) = source_size(text);
        let size = report.crates.entry(krate.to_string()).or_default();
        *size = (size.0 + 1, size.1 + code_lines, size.2 + pub_items);
    }
    report
}

/// The modules `text` declares as files of their own under
/// `#[cfg(test)]` (`mod name;` inside a test region).
fn test_modules(text: &str) -> Vec<String> {
    let raw_lines: Vec<&str> = text.lines().collect();
    let code = strip_comments_and_strings(&raw_lines);
    let skip = test_block_lines(&raw_lines, &code);
    let mut modules = Vec::new();
    for (line, _) in code.iter().zip(skip).filter(|(_, test)| *test) {
        let item = line.trim().trim_start_matches("#[cfg(test)]").trim_start();
        let item = item
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            modules.push(name.trim().to_string());
        }
    }
    modules
}

/// What one source text adds to [`SizeReport::crates`]: `(code lines, pub
/// items)`.
fn source_size(text: &str) -> (usize, usize) {
    let raw_lines: Vec<&str> = text.lines().collect();
    let code = strip_comments_and_strings(&raw_lines);
    let skip = test_block_lines(&raw_lines, &code);
    let live = code.iter().zip(&skip).filter(|(_, skipped)| !**skipped);
    let (mut code_lines, mut pub_items) = (0, 0);
    for line in live.map(|(line, _)| line.trim()).filter(|l| !l.is_empty()) {
        code_lines += 1;
        let item = line.strip_prefix("pub ").and_then(|l| l.split(' ').next());
        let kinds = ["fn", "struct", "enum", "trait", "type", "const", "mod"];
        pub_items += usize::from(item.is_some_and(|kind| kinds.contains(&kind)));
    }
    (code_lines, pub_items)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// What the scanner is inside of where a line ends.
#[derive(Clone, Copy)]
enum Within {
    Code,
    /// A block comment, nested this deep.
    Comment(usize),
    /// A string literal: raw with this many `#`s, or not raw.
    Str(Option<usize>),
}

/// Drops comments and the *contents* of string, char and byte literals,
/// line by line, carrying block comments and strings across lines. Keeping
/// the quotes themselves preserves column positions well enough for
/// snippets while guaranteeing pattern tables (like this linter's own)
/// never self-match, and a brace or quote in a literal never counts as
/// code.
fn strip_comments_and_strings(lines: &[&str]) -> Vec<String> {
    let mut within = Within::Code;
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let mut s = String::with_capacity(line.len());
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let (c, next) = (chars[i], chars.get(i + 1).copied());
            match within {
                Within::Comment(depth) => match (c, next) {
                    ('*', Some('/')) => {
                        within = if depth == 1 {
                            Within::Code
                        } else {
                            Within::Comment(depth - 1)
                        };
                        i += 2;
                    }
                    ('/', Some('*')) => {
                        within = Within::Comment(depth + 1);
                        i += 2;
                    }
                    _ => i += 1,
                },
                Within::Str(None) if c == '\\' => i += 2,
                Within::Str(hashes) if c == '"' => {
                    let n = hashes.unwrap_or(0);
                    let closes = chars[i + 1..].iter().take_while(|h| **h == '#').count() >= n;
                    if closes {
                        within = Within::Code;
                        s.push('"');
                        s.extend(std::iter::repeat_n('#', n));
                        i += n;
                    }
                    i += 1;
                }
                Within::Str(_) => i += 1,
                Within::Code => match (c, next) {
                    ('/', Some('/')) => break, // rest is comment
                    ('/', Some('*')) => {
                        within = Within::Comment(1);
                        i += 2;
                    }
                    ('"', _) => {
                        within = Within::Str(None);
                        s.push('"');
                        i += 1;
                    }
                    _ => {
                        if let Some((opening, hashes)) = raw_string_opening(&chars, i) {
                            within = Within::Str(Some(hashes));
                            s.extend(&chars[i..i + opening]);
                            i += opening;
                        } else if let Some(len) = char_literal_len(&chars[i..]) {
                            s.push_str("''");
                            i += len;
                        } else {
                            s.push(c);
                            i += 1;
                        }
                    }
                },
            }
        }
        out.push(s);
    }
    out
}

/// The length of the raw string opening (`r"`, `br#"`, ...) at `chars[i]`
/// and its number of `#`s, if one starts there.
fn raw_string_opening(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let ident = |c: &char| c.is_alphanumeric() || *c == '_';
    if i.checked_sub(1).is_some_and(|prev| ident(&chars[prev])) {
        return None;
    }
    let prefix = match chars.get(i..i + 2) {
        Some(['b', 'r']) => 2,
        _ if chars[i] == 'r' => 1,
        _ => return None,
    };
    let hashes = chars[i + prefix..]
        .iter()
        .take_while(|c| **c == '#')
        .count();
    (chars.get(i + prefix + hashes) == Some(&'"')).then_some((prefix + hashes + 1, hashes))
}

/// The length of the char literal that `chars` starts with (`'x'`,
/// `'\''`, `'\u{7d}'`), if it starts with one and not with a lifetime or
/// label (`'a`, `'_`).
fn char_literal_len(chars: &[char]) -> Option<usize> {
    match chars {
        ['\'', '\\', _, rest @ ..] => rest.iter().position(|c| *c == '\'').map(|end| end + 4),
        ['\'', _, '\'', ..] => Some(3),
        _ => None,
    }
}

/// Marks the lines inside `#[cfg(test)] mod ... { ... }` blocks (and any
/// other `#[cfg(test)]`-attributed item with a brace block).
fn test_block_lines(raw_lines: &[&str], code: &[String]) -> Vec<bool> {
    let mut skip = vec![false; raw_lines.len()];
    let mut i = 0;
    while i < raw_lines.len() {
        if raw_lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the opening brace of the attributed item, then skip to
            // its matching close.
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            'outer: while j < code.len() {
                skip[j] = true;
                for c in code[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
                // An attributed item with no block at all (e.g. a use
                // declaration ending in `;`) stops at the semicolon.
                if !opened && code[j].contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    skip
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    pub fn t() {}\n}\n";
        assert_eq!(source_size(src), (1, 0));
        let live = src.replace("#[cfg(test)]", "");
        assert_eq!(
            source_size(&live),
            (4, 1),
            "the fixture counts outside a test"
        );
    }

    #[test]
    fn sizes_count_code_lines_and_pub_items_outside_tests() {
        let src = "/// Doc.\npub fn a() {} // one\npub(crate) struct B;\n\
            #[cfg(test)]\nmod tests { pub fn t() {} }\n";
        assert_eq!(source_size(src), (2, 1));
    }

    /// A string that spans lines stays a string on the lines after its
    /// first: the brace in it closes nothing.
    #[test]
    fn a_multi_line_string_does_not_end_a_test_region() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"a\n}\n\";\n    \
            pub fn t() {}\n}\npub fn live() {}\n";
        assert_eq!(source_size(src), (1, 1));
    }

    /// A quote in a char or byte literal opens no string.
    #[test]
    fn quote_char_and_byte_literals_open_no_string() {
        for quote in ["'\"'", "b'\"'"] {
            let src = format!("fn f() {{\n    let q = {quote};\n}}\npub fn g() {{}}\n");
            assert_eq!(source_size(&src), (4, 1), "{src}");
        }
    }

    /// A brace in a char literal, escaped or not, opens no block.
    #[test]
    fn a_brace_char_literal_keeps_a_test_region_balanced() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() -> [char; 3] { ['{', '\\'', '\\u{7b}'] }\n    \
            pub fn u() {}\n}\npub fn live() {}\n";
        assert_eq!(source_size(src), (1, 1));
    }

    /// A raw string ends at its quote and `#`s, not at a quote inside it,
    /// and may span lines.
    #[test]
    fn raw_strings_end_at_their_own_closing() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = r#\"a \"{\" b\"#;\n    \
            const T: &[u8] = br\"a\nb\";\n}\npub fn live() {}\n";
        assert_eq!(source_size(src), (1, 1));
    }

    #[test]
    fn a_file_only_cfg_test_declares_is_scanned_but_not_weighed() {
        let source = |path: &str, text: &str| (path.to_string(), text.to_string());
        let sources = [
            source(
                "crates/spe/src/lib.rs",
                "pub mod ops;\n#[cfg(test)]\nmod fixtures;\n",
            ),
            source(
                "crates/spe/src/ops.rs",
                "mod live;\n#[cfg(test)]\nmod reference;\n#[cfg(test)] pub(crate) mod inline;\n",
            ),
            source("crates/spe/src/ops/live.rs", "pub fn live() {}\n"),
            source("crates/spe/src/ops/reference.rs", "pub fn r() {}\n"),
            source("crates/spe/src/ops/inline.rs", "pub fn i() {}\n"),
            source("crates/spe/src/fixtures/mod.rs", "pub fn f() {}\n"),
        ];
        let report = weigh_sources(&sources);
        assert_eq!(report.files_scanned, 6);
        // lib.rs, ops.rs and live.rs: one line each, and two pub items.
        assert_eq!(report.crates["crates/spe"], (3, 3, 2));
    }

    #[test]
    fn string_literals_and_comments_hold_no_items() {
        let src = "fn f() {\n    let s = \"pub fn x() {}\";\n    // pub fn y() {}\n    \
            /* pub fn z() {} */\n}\n";
        assert_eq!(source_size(src), (3, 0));
    }

    /// A root that is not a workspace is an error, not a clean scan of no
    /// files.
    #[test]
    fn a_root_without_sources_is_an_error() {
        let dir = std::env::temp_dir().join(format!("s2g-lint-empty-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates")).expect("temp dir");
        let with_empty_crates = weigh(&dir);
        std::fs::remove_dir(dir.join("crates")).expect("temp dir");
        let without_crates = weigh(&dir);
        std::fs::remove_dir(&dir).expect("temp dir");
        assert!(with_empty_crates.is_err(), "{with_empty_crates:?}");
        assert!(without_crates.is_err(), "{without_crates:?}");
    }
}
