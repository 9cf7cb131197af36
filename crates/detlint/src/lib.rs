//! # detlint — the workspace determinism auditor
//!
//! Every PR since the seed has hand-defended the same invariant —
//! byte-identical seed-deterministic `SimReport`s — against the same
//! three hazards: unordered `std` hash-map iteration, wall-clock reads,
//! and undisciplined RNG draws. This crate turns that reviewer discipline
//! into a static pass that fails CI before a nondeterminism bug ever
//! reaches the byte-equivalence rig.
//!
//! It is deliberately dependency-free: a hand-rolled Rust lexer (strings,
//! raw strings, char-vs-lifetime, nested block comments) feeds a handful
//! of token-pattern rules. It is *not* a type checker — it trades a few
//! false positives (silenced with an audited allow) for zero build-time
//! cost and zero new dependencies.
//!
//! ## Rules
//!
//! | rule | scope | fires on |
//! |------|-------|----------|
//! | `banned-collection` | `crates/{core,sim,churn,hash,app}` | `HashMap` / `HashSet` idents outside `use` declarations |
//! | `banned-clock` | everywhere scanned | `Instant::now`, `SystemTime::now` |
//! | `banned-rng-source` | everywhere scanned | `thread_rng`, `rand::random` |
//! | `rng-stream` | everywhere scanned | `.gen()`-family draws in a file not registered in `detlint-owners.txt` |
//! | `unused-allow` | — | an allow whose covered line has no matching finding |
//! | `bad-directive` | — | malformed directives |
//! | `owners-registry` | — | malformed or stale `detlint-owners.txt` entries |
//!
//! ## Directives
//!
//! A directive is a line comment whose text *starts with* `detlint::`
//! (prose mentions mid-comment are ignored). The one form is the allow —
//! `detlint::allow(<rule>): <reason>` — which suppresses findings of
//! `<rule>` on the same line (when the comment trails code) or on the
//! nearest following line that has code. The reason is mandatory, and an
//! allow that suppresses nothing is itself an error, so stale escapes
//! cannot accumulate.
//!
//! `#[cfg(test)] mod` bodies, `tests/`, `benches/`, `fixtures/`,
//! `crates/vendor/`, and files named `tests.rs` are not audited: tests
//! may legitimately use wall clocks and hash maps.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose in-simulation code must never iterate a randomized-order
/// collection: hash order would leak straight into event order (or, from
/// `crates/app`, into the order of a task's commands and decisions).
const PROTOCOL_PREFIXES: [&str; 5] = [
    "crates/core/",
    "crates/sim/",
    "crates/churn/",
    "crates/hash/",
    "crates/app/",
];

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
    /// `HashMap`/`HashSet` in a protocol crate.
    BannedCollection,
    /// `Instant::now` / `SystemTime::now`.
    BannedClock,
    /// `thread_rng` / `rand::random`.
    BannedRngSource,
    /// RNG draw outside a registered stream owner.
    RngStream,
    /// An allow that suppressed nothing.
    UnusedAllow,
    /// A malformed directive.
    BadDirective,
    /// A malformed or stale owners-registry entry.
    OwnersRegistry,
}

impl Rule {
    /// The kebab-case name used in directives and output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::BannedCollection => "banned-collection",
            Rule::BannedClock => "banned-clock",
            Rule::BannedRngSource => "banned-rng-source",
            Rule::RngStream => "rng-stream",
            Rule::UnusedAllow => "unused-allow",
            Rule::BadDirective => "bad-directive",
            Rule::OwnersRegistry => "owners-registry",
        }
    }

    /// Rules an allow may name (the meta rules cannot be allowed away).
    fn allowable(name: &str) -> Option<Rule> {
        match name {
            "banned-collection" => Some(Rule::BannedCollection),
            "banned-clock" => Some(Rule::BannedClock),
            "banned-rng-source" => Some(Rule::BannedRngSource),
            "rng-stream" => Some(Rule::RngStream),
            _ => None,
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
    /// Number of `.rs` files lexed.
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

#[derive(Debug, Default)]
struct Lexed {
    tokens: Vec<Token>,
    /// `(line, text-after-slashes)` for every *line* comment; block
    /// comments never carry directives.
    line_comments: Vec<(usize, String)>,
    /// Lines carrying at least one code token (directive attachment).
    code_lines: BTreeSet<usize>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes Rust source just well enough for the rules: identifiers and
/// punctuation survive, literal *content* is opaque, comments are
/// captured for directive parsing, and every token knows its line.
fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    let push = |out: &mut Lexed, line: usize, tok: Tok| {
        out.code_lines.insert(line);
        out.tokens.push(Token { line, tok });
    };
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i + 2;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            out.line_comments.push((line, text));
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
// Directives
// ---------------------------------------------------------------------------

/// One well-formed `detlint::allow(<rule>): <reason>`.
#[derive(Debug)]
struct Allow {
    line: usize,
    rule: Rule,
}

/// Parses the allows out of a file's line comments. A comment is a
/// directive iff its trimmed text *starts with* `detlint::` — prose that
/// merely mentions the syntax mid-sentence (or doc comments, whose text
/// starts with an extra `/`) never triggers.
fn parse_directives(lexed: &Lexed, file: &str, findings: &mut BTreeSet<Finding>) -> Vec<Allow> {
    let mut directives = Vec::new();
    for (line, text) in &lexed.line_comments {
        let text = text.trim();
        let Some(rest) = text.strip_prefix("detlint::") else {
            continue;
        };
        let bad = |findings: &mut BTreeSet<Finding>, msg: &str| {
            findings.insert(Finding {
                file: file.to_owned(),
                line: *line,
                rule: Rule::BadDirective,
                message: msg.to_owned(),
            });
        };
        if let Some(spec) = rest.strip_prefix("allow(") {
            let Some((name, tail)) = spec.split_once(')') else {
                bad(
                    findings,
                    "unterminated allow: expected `detlint::allow(<rule>): <reason>`",
                );
                continue;
            };
            let Some(rule) = Rule::allowable(name.trim()) else {
                bad(
                    findings,
                    &format!(
                        "unknown rule `{}` in allow (meta rules cannot be allowed)",
                        name.trim()
                    ),
                );
                continue;
            };
            let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
            if reason.is_empty() {
                bad(
                    findings,
                    "allow without a reason: expected `detlint::allow(<rule>): <reason>`",
                );
                continue;
            }
            directives.push(Allow { line: *line, rule });
        } else {
            bad(
                findings,
                "unrecognized directive: expected allow(<rule>): <reason>",
            );
        }
    }
    directives
}

// ---------------------------------------------------------------------------
// Span computation (test mods, use declarations)
// ---------------------------------------------------------------------------

/// Inclusive line spans of `#[cfg(test)] mod … { … }` bodies, which are
/// exempt from every rule: tests may use wall clocks and hash maps.
fn test_mod_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let t = &lexed.tokens;
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

/// Token-index ranges of `use …;` declarations (exempt from
/// `banned-collection`: importing a name is harmless, *using* it isn't —
/// and an import often exists only for an allowed line below).
fn use_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < lexed.tokens.len() {
        if matches!(&lexed.tokens[i].tok, Tok::Ident(w) if w == "use") {
            let start = i;
            while i < lexed.tokens.len() && !matches!(lexed.tokens[i].tok, Tok::Punct(';')) {
                i += 1;
            }
            spans.push((start, i));
        }
        i += 1;
    }
    spans
}

fn in_line_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

fn in_index_spans(spans: &[(usize, usize)], idx: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= idx && idx <= b)
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

struct FileContext<'a> {
    rel: &'a str,
    protocol_crate: bool,
    stream_owner: bool,
}

fn check_file(ctx: &FileContext<'_>, lexed: &Lexed, findings: &mut BTreeSet<Finding>) {
    let test_spans = test_mod_spans(lexed);
    let uses = use_spans(lexed);
    let directives = parse_directives(lexed, ctx.rel, findings);

    let mut raw: BTreeSet<(usize, Rule, String)> = BTreeSet::new();
    let t = &lexed.tokens;
    let punct =
        |i: usize, c: char| matches!(t.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);
    let ident_at = |i: usize| match t.get(i) {
        Some(Token {
            tok: Tok::Ident(w), ..
        }) => Some(w.as_str()),
        _ => None,
    };
    for (i, token) in t.iter().enumerate() {
        let Tok::Ident(word) = &token.tok else {
            continue;
        };
        let line = token.line;
        if in_line_spans(&test_spans, line) {
            continue;
        }
        match word.as_str() {
            "HashMap" | "HashSet" if ctx.protocol_crate && !in_index_spans(&uses, i) => {
                raw.insert((
                    line,
                    Rule::BannedCollection,
                    format!(
                        "std::collections::{word} iterates in hash order; use a FlatMap/FlatSet/BTreeMap, or prove order never leaks and allow"
                    ),
                ));
            }
            "Instant" | "SystemTime"
                if punct(i + 1, ':') && punct(i + 2, ':') && ident_at(i + 3) == Some("now") =>
            {
                raw.insert((
                    line,
                    Rule::BannedClock,
                    format!("{word}::now() reads the wall clock; simulated code must use TimeMs"),
                ));
            }
            "thread_rng" => {
                raw.insert((
                    line,
                    Rule::BannedRngSource,
                    "thread_rng is OS-seeded; derive a stream from the master seed".to_owned(),
                ));
            }
            "random"
                if punct(i.wrapping_sub(1), ':')
                    && punct(i.wrapping_sub(2), ':')
                    && i >= 3
                    && ident_at(i - 3) == Some("rand") =>
            {
                raw.insert((
                    line,
                    Rule::BannedRngSource,
                    "rand::random is OS-seeded; derive a stream from the master seed".to_owned(),
                ));
            }
            w if DRAW_METHODS.contains(&w)
                && punct(i.wrapping_sub(1), '.')
                && (punct(i + 1, '(') || punct(i + 1, ':'))
                && !ctx.stream_owner =>
            {
                raw.insert((
                    line,
                    Rule::RngStream,
                    format!(
                        ".{w}() draws RNG outside a registered stream owner; register the file in {OWNERS_FILE} or route through an owner"
                    ),
                ));
            }
            _ => {}
        }
    }

    // Attach allows: a trailing allow covers its own line; an allow on a
    // comment-only line covers the nearest following line with code.
    let mut allows: Vec<(usize, Rule, usize, bool)> = Vec::new(); // (target, rule, at, used)
    for Allow { line, rule } in &directives {
        if in_line_spans(&test_spans, *line) {
            continue;
        }
        let target = if lexed.code_lines.contains(line) {
            *line
        } else {
            lexed
                .code_lines
                .range(line + 1..)
                .next()
                .copied()
                .unwrap_or(0)
        };
        allows.push((target, *rule, *line, false));
    }
    for (line, rule, message) in raw {
        let allowed = allows
            .iter_mut()
            .find(|(target, r, _, _)| *target == line && *r == rule);
        match allowed {
            Some(entry) => entry.3 = true,
            None => {
                findings.insert(Finding {
                    file: ctx.rel.to_owned(),
                    line,
                    rule,
                    message,
                });
            }
        }
    }
    for (_, rule, at, used) in allows {
        if !used {
            findings.insert(Finding {
                file: ctx.rel.to_owned(),
                line: at,
                rule: Rule::UnusedAllow,
                message: format!("allow({rule}) suppresses nothing on its covered line; delete it"),
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
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let lexed = lex(&src);
        let ctx = FileContext {
            rel: &rel,
            protocol_crate: PROTOCOL_PREFIXES.iter().any(|p| rel.starts_with(p)),
            stream_owner: owners.contains(&rel),
        };
        check_file(&ctx, &lexed, &mut findings);
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
            .tokens
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
            // HashMap in a comment
            /* Instant::now in /* a nested */ block */
            fn f<'gen>(x: &'gen str) -> char {
                let _s = "thread_rng \" still a string";
                let _r = r#"rand::random"#;
                let _b = b"HashSet";
                let _c = '\'';
                'g'
            }
        "##;
        let idents = lex_idents(src);
        assert!(idents.iter().all(|w| w != "HashMap"
            && w != "Instant"
            && w != "thread_rng"
            && w != "random"
            && w != "HashSet"));
        assert!(idents.contains(&"fn".to_owned()));
    }

    #[test]
    fn lexer_tracks_lines_through_multiline_strings() {
        let src = "let a = \"x\ny\nz\";\nInstant::now()";
        let lexed = lex(src);
        let instant = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(w) if w == "Instant"))
            .expect("Instant lexed");
        assert_eq!(instant.line, 4);
    }

    #[test]
    fn directive_requires_comment_start() {
        // A prose mention mid-comment (or in a doc comment) is not a
        // directive; only a comment *starting* with detlint:: is.
        let lexed = lex("// see the detlint::allow(banned-clock): escape hatch\nfn f() {}\n");
        let mut findings = BTreeSet::new();
        let directives = parse_directives(&lexed, "x.rs", &mut findings);
        assert!(directives.is_empty());
        assert!(findings.is_empty());
    }

    #[test]
    fn allow_without_reason_is_bad_directive() {
        let lexed = lex("// detlint::allow(banned-clock)\nfn f() {}\n");
        let mut findings = BTreeSet::new();
        let directives = parse_directives(&lexed, "x.rs", &mut findings);
        assert!(directives.is_empty());
        assert_eq!(findings.len(), 1);
        let f = findings.into_iter().next().expect("one finding");
        assert_eq!(f.rule, Rule::BadDirective);
    }

    #[test]
    fn test_mod_bodies_are_exempt() {
        let src = "\nfn live() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    fn t() { let _ = Instant::now(); }\n}\n";
        let lexed = lex(src);
        let ctx = FileContext {
            rel: "crates/core/src/x.rs",
            protocol_crate: true,
            stream_owner: false,
        };
        let mut findings = BTreeSet::new();
        check_file(&ctx, &lexed, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn use_declarations_are_exempt_from_banned_collection() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) { let _ = m; }\n";
        let lexed = lex(src);
        let ctx = FileContext {
            rel: "crates/sim/src/x.rs",
            protocol_crate: true,
            stream_owner: false,
        };
        let mut findings = BTreeSet::new();
        check_file(&ctx, &lexed, &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2], "{findings:?}");
    }

    /// Every ident the lexer emits must exist on the physical line it
    /// reports, across real workspace sources — this is what makes the
    /// allow-attachment and finding locations trustworthy. Caught a real
    /// bug once: `\`-newline string continuations silently losing a line.
    #[test]
    fn line_numbers_match_physical_lines_on_real_sources() {
        for rel in [
            "../sim/src/invariants.rs",
            "../sim/src/engine.rs",
            "src/lib.rs",
        ] {
            let src = std::fs::read_to_string(rel).expect("workspace source readable");
            let lexed = lex(&src);
            let lines: Vec<&str> = src.lines().collect();
            for t in &lexed.tokens {
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
