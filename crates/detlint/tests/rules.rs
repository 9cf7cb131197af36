//! Integration tests: every rule fires on the seeded bad fixture, the
//! clean fixture and the real workspace audit to zero findings.

use std::path::{Path, PathBuf};

use detlint::{audit, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn clean_fixture_has_zero_findings() {
    let audit = audit(&fixture("clean"));
    assert!(audit.clean(), "unexpected findings: {:#?}", audit.findings);
    assert!(audit.files_audited >= 2, "fixture files went missing");
}

/// One audit of the bad tree, asserted rule by rule. Each seeded
/// violation must fire at its exact file and line — if a lexer or rule
/// change silently stops detecting a hazard class, this is the test
/// that notices.
#[test]
fn every_rule_fires_on_the_bad_fixture() {
    let audit = audit(&fixture("bad"));
    let hits: Vec<(&str, usize, Rule)> = audit
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    let expected: &[(&str, usize, Rule)] = &[
        // lib.rs: field type, local constructor, two clock reads.
        ("crates/core/src/lib.rs", 6, Rule::BannedCollection),
        ("crates/core/src/lib.rs", 10, Rule::BannedCollection),
        ("crates/core/src/lib.rs", 16, Rule::BannedClock),
        ("crates/core/src/lib.rs", 17, Rule::BannedClock),
        // rng.rs: OS-seeded sources and an unregistered draw.
        ("crates/core/src/rng.rs", 4, Rule::BannedRngSource),
        ("crates/core/src/rng.rs", 5, Rule::BannedRngSource),
        ("crates/core/src/rng.rs", 6, Rule::RngStream),
        // task.rs: an app task drawing outside the registered `app`
        // stream owner (crates/app/src/handle.rs in the real tree).
        ("crates/app/src/task.rs", 8, Rule::RngStream),
        // directives.rs: reason-less allow, unknown rule, unused allow,
        // unrecognized directive — each reported at the directive's own
        // line.
        ("crates/sim/src/directives.rs", 4, Rule::BadDirective),
        ("crates/sim/src/directives.rs", 9, Rule::BadDirective),
        ("crates/sim/src/directives.rs", 14, Rule::UnusedAllow),
        ("crates/sim/src/directives.rs", 19, Rule::BadDirective),
        // owners registry: stale path, missing description.
        ("detlint-owners.txt", 4, Rule::OwnersRegistry),
        ("detlint-owners.txt", 5, Rule::OwnersRegistry),
    ];
    for want in expected {
        assert!(
            hits.contains(&(want.0, want.1, want.2)),
            "missing expected finding {want:?}; got {hits:#?}"
        );
    }
    // The registered owner's draw and everything in the clean files must
    // NOT fire: exactly the seeded set, nothing else.
    assert_eq!(
        hits.len(),
        expected.len(),
        "unexpected extra findings: {:#?}",
        audit.findings
    );
}

#[test]
fn bad_fixture_fails_the_gate() {
    assert!(!audit(&fixture("bad")).clean());
}

/// The real tree must stay at zero findings — the same gate CI runs via
/// `cargo run -p detlint`, held here so plain `cargo test` catches a
/// regression before CI does.
#[test]
fn workspace_is_detlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let audit = audit(&root);
    assert!(
        audit.clean(),
        "workspace determinism findings: {:#?}",
        audit.findings
    );
    assert!(audit.files_audited >= 50, "audit walked too few files");
}
