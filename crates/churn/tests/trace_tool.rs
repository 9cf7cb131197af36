//! `trace-tool gen` rejects malformed or out-of-range numbers with a
//! message and the usage instead of writing a default-sized trace or
//! panicking in a generator.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gen(flags: &[&str], out: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .arg("gen")
        .arg("stat")
        .args(flags)
        .arg("--out")
        .arg(out)
        .output()
        .expect("trace_tool runs")
}

#[test]
fn gen_rejects_bad_numbers_and_accepts_good_ones() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (flags, message) in [
        (
            &["--n", "50k", "--hours", "1"][..],
            r#"gen: invalid --n "50k""#,
        ),
        (&["--hours", "0"], r#"gen: invalid --hours "0""#),
        (&["--hours", "-2"], r#"gen: invalid --hours "-2""#),
        (&["--hours", "nan"], r#"gen: invalid --hours "nan""#),
        (&["--n", "0"], r#"gen: invalid --n "0""#),
    ] {
        let out = dir.join("trace_tool_rejected.trace");
        let _ = std::fs::remove_file(&out);
        let run = gen(flags, &out);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.starts_with(message), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{flags:?}: {stderr}");
        assert!(!out.exists(), "{flags:?} wrote a trace");
    }

    let out = dir.join("trace_tool_accepted.trace");
    let run = gen(&["--n", "30", "--hours", "0.5", "--seed", "3"], &out);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(String::from_utf8_lossy(&run.stdout).starts_with("wrote "));
    assert!(out.exists());
}
