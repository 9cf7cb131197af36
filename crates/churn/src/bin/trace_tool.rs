//! `trace-tool` — generate, inspect and convert AVMON availability traces.
//!
//! ```bash
//! trace-tool gen synth    --n 500 --hours 4 --seed 7 --out synth.json
//! trace-tool gen overnet  --hours 48 --out ov.json
//! trace-tool stat ov.json
//! trace-tool convert ov.json ov.trace      # JSON ↔ text by extension
//! ```

use std::process::ExitCode;

use avmon::HOUR;
use avmon_churn::{overnet_like, planetlab_like, stat, synthetic, SynthParams, Trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stat") => cmd_stat(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  trace-tool gen <stat|synth|synth-bd|synth-bd2|planetlab|overnet> \
                     [--n N] [--hours H] [--seed S] --out FILE\n  trace-tool stat FILE\n  \
                     trace-tool convert IN OUT";

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The number after `flag`: `default` when the flag is absent, an error
/// naming the raw text when it is present but missing, not a `T`, or not
/// `valid`.
fn number_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let raw = args.get(at + 1).map_or("", String::as_str);
    raw.parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("gen: invalid {flag} {raw:?}"))
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let Some(model) = args.first() else {
        eprintln!("gen: missing model");
        return ExitCode::FAILURE;
    };
    // `--hours` must give at least 1 ms: a generator needs a non-empty
    // horizon after its warm-up.
    let numbers = || -> Result<(usize, f64, u64), String> {
        Ok((
            number_flag(args, "--n", 500, |&n| n >= 1)?,
            number_flag(args, "--hours", 4.0, |&h: &f64| {
                h.is_finite() && h * HOUR as f64 >= 1.0
            })?,
            number_flag(args, "--seed", 1, |_| true)?,
        ))
    };
    let (n, hours, seed) = match numbers() {
        Ok(numbers) => numbers,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(out) = parse_flag(args, "--out") else {
        eprintln!("gen: missing --out FILE");
        return ExitCode::FAILURE;
    };
    let duration = (hours * HOUR as f64) as u64;
    let trace = match model.as_str() {
        "stat" => stat(n, duration, 0.1, seed),
        "synth" => synthetic(SynthParams::synth(n).duration(duration).seed(seed)),
        "synth-bd" => synthetic(SynthParams::synth_bd(n).duration(duration).seed(seed)),
        "synth-bd2" => synthetic(SynthParams::synth_bd2(n).duration(duration).seed(seed)),
        "planetlab" | "pl" => planetlab_like(duration, seed),
        "overnet" | "ov" => overnet_like(duration, seed),
        other => {
            eprintln!("gen: unknown model {other:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_trace(&trace, &out) {
        eprintln!("gen: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} events, {} identities)",
        out,
        trace.events.len(),
        trace.identities().len()
    );
    ExitCode::SUCCESS
}

fn cmd_stat(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("stat: missing FILE");
        return ExitCode::FAILURE;
    };
    let trace = match read_trace(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = trace.stats();
    println!("trace          {}", trace.name);
    println!("stable size N  {}", trace.stable_size);
    println!("horizon        {:.2} h", trace.horizon as f64 / HOUR as f64);
    println!("identities     {}", s.identities);
    println!("births/deaths  {}/{}", s.births, s.deaths);
    println!("joins/leaves   {}/{}", s.joins, s.leaves);
    println!("mean avail     {:.3}", s.mean_availability);
    println!("churn          {:.1}%/hour", s.churn_per_hour * 100.0);
    println!("control group  {}", trace.control_group.len());
    for h in 0..((trace.horizon / HOUR).min(8)) {
        println!("alive @ {h:>2}h    {}", trace.alive_at(h * HOUR + HOUR / 2));
    }
    ExitCode::SUCCESS
}

fn cmd_convert(args: &[String]) -> ExitCode {
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        eprintln!("convert: need IN and OUT");
        return ExitCode::FAILURE;
    };
    match read_trace(input).and_then(|t| write_trace(&t, output)) {
        Ok(()) => {
            println!("converted {input} -> {output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("convert: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_trace(path: &str) -> Result<Trace, String> {
    if path.ends_with(".json") {
        avmon_churn::load_json(path).map_err(|e| e.to_string())
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        avmon_churn::from_text(&text).map_err(|e| e.to_string())
    }
}

fn write_trace(trace: &Trace, path: &str) -> Result<(), String> {
    if path.ends_with(".json") {
        avmon_churn::save_json(trace, path).map_err(|e| e.to_string())
    } else {
        std::fs::write(path, avmon_churn::to_text(trace)).map_err(|e| e.to_string())
    }
}
