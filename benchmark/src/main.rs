//! The repo's one benchmark.
//!
//! ```text
//! avmon-benchmark run --workload W --seed S --seconds T --trace 0|1
//!     one workload, in this process; the last line of standard output is
//!     the result object the benchmark contract asks for
//! avmon-benchmark run [--seed S] [--workload W] [--seconds T] [--out F]
//!     a full set: every workload in fresh child processes, untraced then
//!     traced, cross-run output checks, a hardware-stamped result file
//! avmon-benchmark compare A.json B.json
//!     two result files, metric by metric, against the bounds
//! ```
//!
//! Every layer is measured from outside, by timing calls into public
//! functions; see `README.md` for the metric glossary.

mod host;
mod live_run;
mod metrics;
mod probes;
mod sim_run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;
use workloads::{Kind, Workload};

/// Lower-case hex of a digest.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// Where span files and result files go: `out/` beside this crate's
/// manifest, wherever the command is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by table name ([`metrics`]).
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and caveats that belong beside the numbers.
    pub notes: Vec<String>,
    /// Output checks that failed; empty ⇔ the outputs are correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// MD5 of the serialized `SimReport` (empty for the live workload).
    pub report_md5: String,
    pub input_hash: String,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(metrics::find(name).is_some(), "unlisted metric {name}");
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, ok: bool, problem: &str) {
        if !ok {
            self.problems.push(problem.to_owned());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Parsed `run` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: Option<bool>,
    pub out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 7,
        seconds: metrics::contract().run_seconds,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workloads::find(value).ok_or(format!("unknown workload {value}"))?;
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = Some(number()? != 0),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Runs `workload` in this process and prints its metrics; the last line
/// is the contract's result object.
fn run_one(workload: &Workload, args: &RunArgs, traced: bool) -> ExitCode {
    let mut tracer = Tracer::new(traced);
    let outcome = match &workload.kind {
        Kind::Sim(spec) => sim_run::run(spec, args.seed, args.seconds, &mut tracer),
        Kind::Live => live_run::run(args.seed, args.seconds, &mut tracer),
    };
    let mut problems = outcome.problems.clone();
    if traced {
        let path = out_dir().join(format!("trace_{}.json", workload.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json(workload.name, args.seed)));
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => problems.push(format!("span file {}: {e}", path.display())),
        }
    }

    println!(
        "# workload {} seed {} seconds {} trace {} cores {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(traced),
        host::cores()
    );
    println!("= input_hash {}", outcome.input_hash);
    if !outcome.report_md5.is_empty() {
        println!("= report_md5 {}", outcome.report_md5);
    }
    for (name, value) in &outcome.metrics {
        let unit = metrics::find(name).expect("pushed metrics are listed").unit;
        println!("{name} {value} {unit}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }

    // The contract's object: every gated end-to-end metric untraced, every
    // per-layer metric traced (0 for a layer this workload never runs).
    let contract = metrics::contract();
    let listed = if traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut fields = String::new();
    for (i, def) in listed.iter().enumerate() {
        let value = outcome
            .get(def.name)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        if !traced && value == 0.0 {
            problems.push(format!("{} is missing or zero", def.name));
        }
        let _ = write!(
            fields,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            def.unit
        );
    }
    for problem in &problems {
        println!("! {problem}");
    }
    let correct = problems.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{fields}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: avmon-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out F]\n       avmon-benchmark compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).map(|run| match run.trace {
            Some(traced) => match run.workload.as_deref().and_then(workloads::find) {
                Some(workload) => run_one(workload, &run, traced),
                None => {
                    eprintln!("--trace runs one workload: name it with --workload");
                    ExitCode::from(2)
                }
            },
            None => suite::run(&run),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => Ok(suite::compare(a.as_ref(), b.as_ref())),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn run_arguments_parse_with_defaults() {
        let run = parse_run(&[]).unwrap();
        assert_eq!((run.seed, run.seconds, run.trace), (7, 10, None));
        let run = parse_run(&strings(&[
            "--workload",
            "md5_2k",
            "--seed",
            "11",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(run.workload.as_deref(), Some("md5_2k"));
        assert_eq!((run.seed, run.seconds, run.trace), (11, 5, Some(true)));
        assert!(parse_run(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run(&strings(&["--seed"])).is_err());
        assert!(parse_run(&strings(&["--seed", "x"])).is_err());
        assert!(parse_run(&strings(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn hex_is_lowercase_and_padded() {
        assert_eq!(hex(&[0x00, 0x0f, 0xa0]), "000fa0");
    }
}
