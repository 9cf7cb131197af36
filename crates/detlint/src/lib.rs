//! # detlint — RNG-stream ownership for the workspace
//!
//! Same-seed runs must yield byte-identical `SimReport`s. Three hazards
//! threaten that: hash-order iteration, wall-clock reads and undisciplined
//! RNG draws. Clippy owns the first two (`clippy.toml`'s
//! `disallowed_types` / `disallowed_methods`, each exemption a per-site
//! `#[expect(…, reason = …)]`). This crate owns the third: a `.gen()`-family
//! draw is legal only in a file registered as a stream owner in
//! `detlint-owners.txt`. Clippy could ban the draw methods, but every owner
//! file would then need a file-wide `allow(clippy::disallowed_methods)`,
//! which would exempt its clock reads too.
//!
//! It is deliberately dependency-free: a hand-rolled Rust lexer (strings,
//! raw strings, char-vs-lifetime, nested block comments) feeds one
//! token-pattern rule. The registry is its only exemption mechanism.
//!
//! ## Rules
//!
//! | rule | fires on |
//! |------|----------|
//! | `rng-stream` | `.gen()`-family draws in a file not registered in `detlint-owners.txt` |
//! | `owners-registry` | malformed or stale `detlint-owners.txt` entries |
//!
//! `#[cfg(test)] mod` bodies, `tests/`, `benches/`, `fixtures/`,
//! `crates/vendor/`, and files named `tests.rs` are not audited: tests
//! may draw from any stream.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Method names that draw from an RNG. `.draw()`-style calls through
/// these names outside a registered stream owner violate `rng-stream`.
const DRAW_METHODS: [&str; 10] = [
    "gen",
    "gen_range",
    "gen_bool",
    "sample",
    "choose",
    "choose_multiple",
    "shuffle",
    "fill_bytes",
    "next_u32",
    "next_u64",
];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 6] = ["vendor", "target", "tests", "benches", "fixtures", ".git"];

/// The stream-owner registry file, resolved relative to the audit root.
pub const OWNERS_FILE: &str = "detlint-owners.txt";

/// Everything detlint can complain about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// RNG draw outside a registered stream owner.
    RngStream,
    /// A malformed or stale owners-registry entry.
    OwnersRegistry,
}

impl Rule {
    /// The kebab-case name used in output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::RngStream => "rng-stream",
            Rule::OwnersRegistry => "owners-registry",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One determinism-discipline violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Audit-root-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of one full audit.
#[derive(Debug)]
pub struct Audit {
    /// All findings, sorted by `(file, line, rule)` and deduplicated.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files in the audit set (stream owners included).
    pub files_audited: usize,
}

impl Audit {
    /// Whether the tree is clean.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    /// A string / char / number literal — content never inspected.
    Literal,
}

#[derive(Debug)]
struct Token {
    line: usize,
    tok: Tok,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes Rust source just well enough for the rule: identifiers and
/// punctuation survive, literal *content* and comments are opaque, and
/// every token knows its line.
fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let push = |out: &mut Vec<Token>, line: usize, tok: Tok| out.push(Token { line, tok });
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && b.get(i + 1) == Some(&'*') {
            // Nested block comments, as Rust defines them.
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i = skip_string(&b, i, &mut line);
            push(&mut out, line, Tok::Literal);
        } else if c == '\'' {
            // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
            let next = b.get(i + 1).copied();
            let lifetime = next.is_some_and(is_ident_start) && b.get(i + 2) != Some(&'\'');
            if lifetime {
                i += 1;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                push(&mut out, line, Tok::Literal);
            } else {
                i += 1;
                while i < b.len() && b[i] != '\'' {
                    i += if b[i] == '\\' { 2 } else { 1 };
                }
                i += 1;
                push(&mut out, line, Tok::Literal);
            }
        } else if is_ident_start(c) {
            // Raw strings (`r"…"`, `r#"…"#`, `br#"…"#`, `b"…"`), byte
            // chars (`b'x'`), and raw identifiers (`r#match`) all begin
            // with an ident-start character — disambiguate first.
            if let Some(end) = raw_string_end(&b, i) {
                while i < end {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                push(&mut out, line, Tok::Literal);
            } else if c == 'b' && b.get(i + 1) == Some(&'\'') {
                i += 2;
                while i < b.len() && b[i] != '\'' {
                    i += if b[i] == '\\' { 2 } else { 1 };
                }
                i += 1;
                push(&mut out, line, Tok::Literal);
            } else {
                if c == 'r'
                    && b.get(i + 1) == Some(&'#')
                    && b.get(i + 2).copied().is_some_and(is_ident_start)
                {
                    i += 2; // raw identifier: lex the bare name
                }
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let word: String = b[start..i].iter().collect();
                push(&mut out, line, Tok::Ident(word));
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            push(&mut out, line, Tok::Literal);
        } else {
            push(&mut out, line, Tok::Punct(c));
            i += 1;
        }
    }
    out
}

/// Skips a `"…"` literal starting at `b[i]`, tracking newlines; returns
/// the index one past the closing quote.
fn skip_string(b: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            // A `\` line-continuation escapes a real newline — count it,
            // or every line number after the string drifts.
            '\\' => {
                if b.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// If a raw/byte string literal starts at `b[i]` (`r"`, `r#"`, `br##"`,
/// `b"`, …), returns the index one past its terminator.
fn raw_string_end(b: &[char], start: usize) -> Option<usize> {
    let mut i = start;
    if b[i] == 'b' {
        i += 1;
    }
    let raw = b.get(i) == Some(&'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0;
    while raw && b.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&'"') || (!raw && (hashes > 0 || b[start] != 'b')) {
        return None;
    }
    i += 1;
    if !raw {
        // b"…" — ordinary escapes apply.
        while i < b.len() {
            match b[i] {
                '\\' => i += 2,
                '"' => return Some(i + 1),
                _ => i += 1,
            }
        }
        return Some(i);
    }
    // r##"…"## — ends only at `"` followed by exactly `hashes` hashes.
    while i < b.len() {
        if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && b.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some(j);
            }
        }
        i += 1;
    }
    Some(i)
}

// ---------------------------------------------------------------------------
// The rule
// ---------------------------------------------------------------------------

/// Inclusive line spans of `#[cfg(test)] mod … { … }` bodies, which are
/// exempt: tests may draw from any stream.
fn test_mod_spans(t: &[Token]) -> Vec<(usize, usize)> {
    let ident =
        |i: usize, s: &str| matches!(t.get(i), Some(Token { tok: Tok::Ident(w), .. }) if w == s);
    let punct =
        |i: usize, c: char| matches!(t.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < t.len() {
        if punct(i, '#')
            && punct(i + 1, '[')
            && ident(i + 2, "cfg")
            && punct(i + 3, '(')
            && ident(i + 4, "test")
            && punct(i + 5, ')')
            && punct(i + 6, ']')
        {
            let start_line = t[i].line;
            let mut j = i + 7;
            // Skip any further attributes between the cfg and the item.
            while punct(j, '#') && punct(j + 1, '[') {
                let mut depth = 0usize;
                j += 1;
                loop {
                    if punct(j, '[') {
                        depth += 1;
                    } else if punct(j, ']') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    } else if j >= t.len() {
                        break;
                    }
                    j += 1;
                }
            }
            if ident(j, "pub") {
                j += 1;
            }
            if ident(j, "mod") {
                // Find the opening brace (or `;` for an out-of-line mod,
                // which the file-name skip list already covers).
                while j < t.len() && !punct(j, '{') && !punct(j, ';') {
                    j += 1;
                }
                if punct(j, '{') {
                    let mut depth = 0usize;
                    while j < t.len() {
                        if punct(j, '{') {
                            depth += 1;
                        } else if punct(j, '}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    let end_line = t.get(j).map_or(usize::MAX, |tok| tok.line);
                    spans.push((start_line, end_line));
                    i = j;
                }
            }
        }
        i += 1;
    }
    spans
}

/// Reports every draw in a file that owns no stream, outside test mods.
fn check_file(rel: &str, t: &[Token], findings: &mut BTreeSet<Finding>) {
    let test_spans = test_mod_spans(t);
    let punct =
        |i: usize, c: char| matches!(t.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);
    for (i, token) in t.iter().enumerate() {
        let Tok::Ident(w) = &token.tok else {
            continue;
        };
        let line = token.line;
        if DRAW_METHODS.contains(&w.as_str())
            && punct(i.wrapping_sub(1), '.')
            && (punct(i + 1, '(') || punct(i + 1, ':'))
            && !test_spans.iter().any(|&(a, b)| a <= line && line <= b)
        {
            findings.insert(Finding {
                file: rel.to_owned(),
                line,
                rule: Rule::RngStream,
                message: format!(
                    ".{w}() draws RNG outside a registered stream owner; register the file in {OWNERS_FILE} or route through an owner"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Owners registry and file walk
// ---------------------------------------------------------------------------

/// Parses `detlint-owners.txt`: one `path stream-name — description` line
/// per registered RNG stream owner. A missing file means no owners; a
/// malformed line or a path that no longer exists is an error (a stale
/// registration would silently widen the draw exemption).
fn load_owners(root: &Path, findings: &mut BTreeSet<Finding>) -> BTreeSet<String> {
    let mut owners = BTreeSet::new();
    let Ok(text) = fs::read_to_string(root.join(OWNERS_FILE)) else {
        return owners;
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |findings: &mut BTreeSet<Finding>, msg: String| {
            findings.insert(Finding {
                file: OWNERS_FILE.to_owned(),
                line: idx + 1,
                rule: Rule::OwnersRegistry,
                message: msg,
            });
        };
        let Some((path, desc)) = line.split_once(char::is_whitespace) else {
            bad(
                findings,
                "expected `<path> <stream description>`".to_owned(),
            );
            continue;
        };
        if desc.trim().is_empty() {
            bad(
                findings,
                format!("owner `{path}` has no stream description"),
            );
            continue;
        }
        if !root.join(path).is_file() {
            bad(findings, format!("stale owner: `{path}` does not exist"));
            continue;
        }
        owners.insert(path.to_owned());
    }
    owners
}

/// Collects the audit set: every `.rs` under `root`, skipping
/// [`SKIP_DIRS`] and files named `tests.rs`, in sorted order.
fn walk(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") && name != "tests.rs" {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Runs the full audit over the tree rooted at `root`.
#[must_use]
pub fn audit(root: &Path) -> Audit {
    let mut findings = BTreeSet::new();
    let owners = load_owners(root, &mut findings);
    let files = walk(root);
    let files_audited = files.len();
    for path in files {
        let rel: String = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if owners.contains(&rel) {
            continue;
        }
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        check_file(&rel, &lex(&src), &mut findings);
    }
    Audit {
        findings: findings.into_iter().collect(),
        files_audited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(w) => Some(w),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lexer_ignores_strings_comments_and_lifetimes() {
        let src = r##"
            // rng.gen_range(0..9) in a comment
            /* rng.shuffle(&mut v) in /* a nested */ block */
            fn f<'gen>(x: &'gen str) -> char {
                let _s = "rng.next_u64() \" still a string";
                let _r = r#"rng.choose(&v)"#;
                let _b = b"rng.sample(d)";
                let _c = '\'';
                'g'
            }
        "##;
        let idents = lex_idents(src);
        assert!(idents.iter().all(|w| !DRAW_METHODS.contains(&w.as_str())));
        assert!(idents.contains(&"fn".to_owned()));
    }

    #[test]
    fn lexer_tracks_lines_through_multiline_strings() {
        let src = "let a = \"x\ny\nz\";\nrng.gen_range(0..2)";
        let draw = lex(src)
            .into_iter()
            .find(|t| matches!(&t.tok, Tok::Ident(w) if w == "gen_range"))
            .expect("gen_range lexed");
        assert_eq!(draw.line, 4);
    }

    #[test]
    fn test_mod_bodies_are_exempt() {
        let src = "\nfn live(rng: &mut R) -> u32 { rng.gen_range(0..2) }\n#[cfg(test)]\nmod tests {\n    fn t(rng: &mut R) { let _ = rng.gen_range(0..9); }\n}\n";
        let mut findings = BTreeSet::new();
        check_file("crates/core/src/x.rs", &lex(src), &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2], "{findings:?}");
    }

    /// Every ident the lexer emits must exist on the physical line it
    /// reports, across real workspace sources — this is what makes the
    /// finding locations trustworthy. Caught a real bug once:
    /// `\`-newline string continuations silently losing a line.
    #[test]
    fn line_numbers_match_physical_lines_on_real_sources() {
        for rel in [
            "../sim/src/invariants.rs",
            "../sim/src/engine.rs",
            "src/lib.rs",
        ] {
            let src = std::fs::read_to_string(rel).expect("workspace source readable");
            let lines: Vec<&str> = src.lines().collect();
            for t in lex(&src) {
                if let Tok::Ident(w) = &t.tok {
                    let physical = lines.get(t.line - 1).copied().unwrap_or("");
                    assert!(
                        physical.contains(w.as_str()),
                        "{rel}: drift at reported line {} ident {w}: physical line is {physical:?}",
                        t.line
                    );
                }
            }
        }
    }
}
