//! A full set — every workload in fresh child processes, untraced then
//! traced, with the cross-run output checks — its hardware-stamped result
//! file, and `compare` over two such files.

use std::path::Path;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::metrics::{self, Def};
use crate::stats::{self, Better, Measured, Verdict};
use crate::workloads::{self, Workload};
use crate::{host, out_dir, RunArgs};

/// Untraced runs of each workload in a full set; their median is the
/// set's value and their range its spread.
const UNTRACED_RUNS: usize = 3;

/// A JSON number as `f64` (NaN for anything else).
pub fn number(value: &Value) -> f64 {
    match value {
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

fn text(value: Option<&Value>) -> String {
    match value {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// What one child run printed.
#[derive(Debug, Default, Clone, PartialEq)]
struct Child {
    ok: bool,
    metrics: Vec<(String, f64)>,
    input_hash: String,
    report_md5: String,
    attempted: u64,
    failed: u64,
}

impl Child {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Reads a single-workload run's standard output: `name value unit`
/// metric lines, `= key value` facts, the result object last.
fn parse_child(stdout: &str, exit_ok: bool) -> Child {
    let mut child = Child::default();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["=", "input_hash", hash] => child.input_hash = (*hash).to_owned(),
            ["=", "report_md5", md5] => child.report_md5 = (*md5).to_owned(),
            [name, value, _unit] if metrics::find(name).is_some() => {
                if let Ok(value) = value.parse() {
                    child.metrics.push(((*name).to_owned(), value));
                }
            }
            _ => {}
        }
    }
    let result = stdout
        .lines()
        .last()
        .and_then(|line| serde_json::from_str::<Value>(line).ok());
    if let Some(result) = result {
        child.ok = exit_ok && result.get("correct") == Some(&Value::Bool(true));
        child.attempted = result.get("attempted").map_or(0.0, number) as u64;
        child.failed = result.get("failed").map_or(0.0, number) as u64;
    }
    child
}

/// Runs one workload once in a fresh process of this executable, echoing
/// what it prints.
fn run_child(workload: &Workload, args: &RunArgs, traced: bool) -> Child {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output();
    match output {
        Ok(output) => {
            let stdout = String::from_utf8_lossy(&output.stdout);
            for line in stdout.lines() {
                // The result object is for the contract's driver; a set
                // prints its own summary.
                if !line.starts_with('{') {
                    println!("  {line}");
                }
            }
            parse_child(&stdout, output.status.success())
        }
        Err(e) => {
            println!("  ! could not start the child process: {e}");
            Child::default()
        }
    }
}

/// A repeated metric: the median is the set's value. A bounded metric's
/// entry carries its direction and bound, so a result file says what it
/// was held to.
fn measured_entry(def: &Def, runs: &[f64]) -> Value {
    let mut fields = vec![
        ("value", Value::Float(stats::median(runs))),
        ("unit", Value::Str(def.unit.to_owned())),
        (
            "runs",
            Value::Seq(runs.iter().map(|&r| Value::Float(r)).collect()),
        ),
    ];
    if let Some(bound) = def.bound {
        fields.push(("better", Value::Str(def.better.as_str().to_owned())));
        fields.push(("bound", Value::Float(bound)));
    }
    Value::record(fields)
}

pub fn run(args: &RunArgs) -> ExitCode {
    let selected: Vec<&Workload> = workloads::all()
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let cores = host::cores();
    println!(
        "# full set: {} workload(s), seed {}, {} s, {} untraced + 1 traced run each, {} core(s), {}",
        selected.len(),
        args.seed,
        args.seconds,
        UNTRACED_RUNS,
        cores,
        host::cpu_model()
    );
    let mut problems: Vec<String> = Vec::new();
    let mut records: Vec<(&Workload, Vec<Child>, Child)> = Vec::new();
    for &workload in &selected {
        println!("## {} — {}", workload.name, workload.why);
        let untraced: Vec<Child> = (1..=UNTRACED_RUNS)
            .map(|i| {
                println!("# {} untraced run {i} of {UNTRACED_RUNS}", workload.name);
                run_child(workload, args, false)
            })
            .collect();
        println!("# {} traced run", workload.name);
        let traced = run_child(workload, args, true);
        let first = &untraced[0];
        for run in untraced.iter().chain([&traced]) {
            if !run.ok {
                problems.push(format!("{}: a run failed its output checks", workload.name));
            }
            if run.input_hash != first.input_hash {
                problems.push(format!("{}: inputs differ between runs", workload.name));
            }
            if run.report_md5 != first.report_md5 {
                problems.push(format!(
                    "{}: report digests differ between runs ({} vs {})",
                    workload.name, first.report_md5, run.report_md5
                ));
            }
        }
        records.push((workload, untraced, traced));
    }

    // The sharded twin must reproduce the sequential report byte for byte.
    let of = |name: &str| records.iter().find(|r| r.0.name == name);
    let twins = of("stat_10k").zip(of("stat_10k_w2"));
    if let Some((seq, sharded)) = twins {
        if seq.1[0].report_md5 != sharded.1[0].report_md5 || seq.1[0].report_md5.is_empty() {
            problems.push(format!(
                "stat_10k_w2's report digest {} is not stat_10k's {}",
                sharded.1[0].report_md5, seq.1[0].report_md5
            ));
        }
    }
    let median_of = |runs: &[Child], name: &str| {
        stats::median(&runs.iter().filter_map(|c| c.get(name)).collect::<Vec<_>>())
    };
    // Both twins send the same messages, so the ratio of message rates is
    // the ratio of run walls.
    let speedup = twins.map(|(seq, sharded)| {
        median_of(&sharded.1, "msgs_per_s") / median_of(&seq.1, "msgs_per_s")
    });

    let mut rows = Vec::new();
    println!("# summary (untraced medians; per-layer values from the traced run)");
    for (workload, untraced, traced) in &records {
        let mut end_to_end = Vec::new();
        for def in metrics::end_to_end() {
            let runs: Vec<f64> = untraced.iter().filter_map(|c| c.get(def.name)).collect();
            if runs.is_empty() {
                continue;
            }
            println!(
                "{} {} {} {} (spread {:.2} % over {} runs, bound {} %)",
                workload.name,
                def.name,
                stats::median(&runs),
                def.unit,
                set_spread(&runs) * 100.0,
                runs.len(),
                def.bound.unwrap_or(0.0) * 100.0
            );
            end_to_end.push((def.name, measured_entry(def, &runs)));
        }
        let mut per_layer: Vec<(&str, Value)> = metrics::contract()
            .per_layer
            .iter()
            .filter_map(|def| Some((def.name, measured_entry(def, &[traced.get(def.name)?]))))
            .collect();
        // Tracing overhead: how much slower the traced run's message rate
        // is than the untraced median.
        let overhead = traced
            .get("msgs_per_s")
            .map(|t| (median_of(untraced, "msgs_per_s") / t - 1.0) * 100.0);
        let derived = [
            ("bench.trace_overhead_pct", overhead),
            (
                "sim.shard.speedup_vs_seq",
                speedup.filter(|_| workload.name == "stat_10k_w2"),
            ),
        ];
        for (name, value) in derived {
            if let Some(value) = value {
                let def = metrics::find(name).expect("derived metrics are listed");
                println!("{} {name} {value} {}", workload.name, def.unit);
                per_layer.push((name, measured_entry(def, &[value])));
            }
        }
        let first = &untraced[0];
        rows.push(Value::record(vec![
            ("name", Value::Str(workload.name.to_owned())),
            (
                "correct",
                Value::Bool(untraced.iter().chain([traced]).all(|c| c.ok)),
            ),
            ("attempted", Value::UInt(first.attempted)),
            (
                "failed",
                Value::UInt(untraced.iter().map(|c| c.failed).max().unwrap_or(0)),
            ),
            ("input_hash", Value::Str(first.input_hash.clone())),
            ("report_md5", Value::Str(first.report_md5.clone())),
            ("end_to_end", Value::record(end_to_end)),
            ("per_layer", Value::record(per_layer)),
        ]));
    }

    let result = Value::record(vec![
        ("benchmark", Value::Str("avmon-benchmark".to_owned())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("cores", Value::UInt(cores as u64)),
        ("cpu_model", Value::Str(host::cpu_model())),
        ("rustc", Value::Str(host::rustc_version())),
        ("git_commit", Value::Str(host::git_commit())),
        ("correct", Value::Bool(problems.is_empty())),
        ("workloads", Value::Seq(rows)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("result_seed{}.json", args.seed)));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            let json = serde_json::to_string_pretty(&result).expect("a value tree serializes");
            std::fs::write(&path, json + "\n")
        });
    match written {
        Ok(()) => println!("# result written to {}", path.display()),
        Err(e) => problems.push(format!("result file {}: {e}", path.display())),
    }
    for problem in &problems {
        println!("! {problem}");
    }
    if problems.is_empty() {
        println!("# all output checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A set's own run-to-run spread: the range of its runs as a share of
/// their median.
fn set_spread(runs: &[f64]) -> f64 {
    let median = stats::median(runs);
    if runs.is_empty() || median == 0.0 {
        return 0.0;
    }
    let (min, max) = runs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    (max - min) / median.abs()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_rows(set: &Value) -> Vec<(String, &Value)> {
    match set.get("workloads") {
        Some(Value::Seq(rows)) => rows.iter().map(|r| (text(r.get("name")), r)).collect(),
        _ => Vec::new(),
    }
}

/// One end-to-end metric of one workload of one set. A metric that may not
/// worsen at all (bound 0: `failed_share`) is not a noisy timing: one
/// failing run is a failure, so its value is the worst run, and no spread
/// excuses it.
fn measured(row: &Value, def: &Def) -> Option<Measured> {
    let entry = row.get("end_to_end")?.get(def.name)?;
    let runs: Vec<f64> = match entry.get("runs") {
        Some(Value::Seq(runs)) => runs.iter().map(number).collect(),
        _ => Vec::new(),
    };
    Some(if def.bound == Some(0.0) {
        assert_eq!(def.better, Better::Lower, "{}", def.name);
        Measured {
            value: runs.iter().copied().fold(0.0, f64::max),
            spread: 0.0,
        }
    } else {
        Measured {
            value: number(entry.get("value")?),
            spread: set_spread(&runs),
        }
    })
}

/// Prints every (workload, end-to-end metric) of `b` against baseline `a`;
/// fails on any `worse` — which, at a bound of zero, is what a higher
/// `failed_share` is — and on a file whose own output checks failed.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let (rows_a, rows_b) = (workload_rows(&a), workload_rows(&b));
    for key in ["seed", "seconds", "cores"] {
        if a.get(key) != b.get(key) || a.get(key).is_none() {
            eprintln!(
                "refusing to compare: `{key}` differs ({:?} vs {:?})",
                a.get(key),
                b.get(key)
            );
            return ExitCode::from(2);
        }
    }
    if rows_a.iter().map(|r| &r.0).ne(rows_b.iter().map(|r| &r.0)) || rows_a.is_empty() {
        eprintln!("refusing to compare: the two files hold different workload sets");
        return ExitCode::from(2);
    }
    let mut worse = 0;
    for (path, set) in [(a_path, &a), (b_path, &b)] {
        if set.get("correct") != Some(&Value::Bool(true)) {
            println!("{} failed its output checks: worse", path.display());
            worse += 1;
        }
    }
    println!("workload metric A B change bound better verdict");
    for ((name, row_a), (_, row_b)) in rows_a.iter().zip(&rows_b) {
        for def in metrics::end_to_end() {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let verdict = match (measured(row_a, def), measured(row_b, def)) {
                (Some(ma), Some(mb)) => {
                    let verdict = stats::verdict(ma, mb, def.better, bound);
                    println!(
                        "{name} {} {} {} {:+.2}% {}% {} {}",
                        def.name,
                        ma.value,
                        mb.value,
                        stats::worsening(ma.value, mb.value, Better::Lower) * 100.0,
                        bound * 100.0,
                        def.better.as_str(),
                        verdict.as_str()
                    );
                    verdict
                }
                (None, None) => continue,
                _ => {
                    println!("{name} {} is in only one of the files: worse", def.name);
                    Verdict::Worse
                }
            };
            worse += u32::from(verdict == Verdict::Worse);
        }
        if row_a.get("report_md5") != row_b.get("report_md5") {
            println!("{name} report digests differ: the simulated outputs changed");
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{worse} row(s) worse than the bounds allow");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses() {
        let stdout = "# workload md5_2k seed 7 seconds 10 trace 0 cores 2\n\
                      = input_hash abc\n= report_md5 def\n\
                      setup_s 0.0021 s\nmsgs_per_s 96000.5 1/s\nnot_a_metric 1 s\n\
                      # a note with three words\n\
                      {\"correct\": true, \"attempted\": 870, \"failed\": 0, \"metrics\": {}}\n";
        let child = parse_child(stdout, true);
        assert!(child.ok);
        assert_eq!(child.input_hash, "abc");
        assert_eq!(child.report_md5, "def");
        assert_eq!(child.get("setup_s"), Some(0.0021));
        assert_eq!(child.get("msgs_per_s"), Some(96000.5));
        assert_eq!(child.get("not_a_metric"), None);
        assert_eq!((child.attempted, child.failed), (870, 0));
        // A non-zero exit or a missing result object is a failed run.
        assert!(!parse_child(stdout, false).ok);
        assert!(!parse_child("setup_s 1 s\n", true).ok);
    }

    #[test]
    fn set_spread_is_the_range_over_the_median() {
        assert_eq!(set_spread(&[]), 0.0);
        assert_eq!(set_spread(&[5.0]), 0.0);
        assert_eq!(set_spread(&[0.0, 0.0, 0.0]), 0.0);
        assert!((set_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn measured_reads_a_result_row() {
        let def = metrics::find("setup_s").unwrap();
        let row = Value::record(vec![(
            "end_to_end",
            Value::record(vec![("setup_s", measured_entry(def, &[1.0, 1.1, 0.9]))]),
        )]);
        let m = measured(&row, def).unwrap();
        assert_eq!(m.value, 1.0);
        assert!((m.spread - 0.2).abs() < 1e-9);
        assert_eq!(measured(&row, metrics::find("msgs_per_s").unwrap()), None);
    }

    /// `failed_share` must not rise: one failing run among clean ones is
    /// `worse`, not an `unresolved` spread and not a zero median.
    #[test]
    fn any_failing_run_is_a_higher_failed_share() {
        let def = metrics::find("failed_share").unwrap();
        let row = |runs: &[f64]| {
            Value::record(vec![(
                "end_to_end",
                Value::record(vec![("failed_share", measured_entry(def, runs))]),
            )])
        };
        let verdict = |a: &[f64], b: &[f64]| {
            let (a, b) = (
                measured(&row(a), def).unwrap(),
                measured(&row(b), def).unwrap(),
            );
            stats::verdict(a, b, def.better, def.bound.unwrap())
        };
        assert_eq!(verdict(&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]), Verdict::Same);
        assert_eq!(
            verdict(&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.002]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[0.0, 0.0, 0.0], &[0.0, 0.001, 0.002]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[0.0, 0.0, 0.002], &[0.0, 0.0, 0.0]),
            Verdict::Better
        );
        assert_eq!(
            verdict(&[0.0, 0.0, 0.002], &[0.0, 0.0, 0.003]),
            Verdict::Worse
        );
    }
}
