//! The AVMON experiment harness: regenerates every table and figure of the
//! paper (see DESIGN.md §4 for the experiment index).
//!
//! Usage:
//!
//! ```bash
//! experiments <id>... [--seed S] [--hours H] [--out DIR] [--hasher md5|fast64] [--quick]
//! experiments all [--quick]
//! experiments --list
//! ```

use std::process::ExitCode;

use avmon_bench::{run, ExpContext, ALL_IDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: experiments <id>...|all [--seed S] [--hours H] [--out DIR] [--hasher H] [--quick] [--list]");
        eprintln!("known ids: {}", ALL_IDS.join(" "));
        return ExitCode::FAILURE;
    }

    let mut ctx = ExpContext::default();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--quick" => ctx.quick = true,
            "--seed" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(seed)) => ctx.seed = seed,
                _ => return usage_error("--seed needs an integer"),
            },
            "--hours" => match iter.next().map(|v| v.parse::<f64>()) {
                Some(Ok(h)) if h > 0.0 => ctx.hours = Some(h),
                _ => return usage_error("--hours needs a positive number"),
            },
            "--out" => match iter.next() {
                Some(dir) => ctx.out_dir = dir.into(),
                None => return usage_error("--out needs a directory"),
            },
            "--hasher" => match iter.next().and_then(|v| avmon::HasherKind::parse(&v)) {
                Some(kind) => ctx.hasher = kind,
                None => return usage_error("--hasher needs md5|fast64"),
            },
            "all" => ids.extend(ALL_IDS.iter().map(|&s| s.to_owned())),
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag {other}"));
            }
            id => ids.push(id.to_owned()),
        }
    }
    if ids.is_empty() {
        return usage_error("no experiment ids given");
    }

    println!(
        "# AVMON experiments — seed {}, hasher {}, output {}{}",
        ctx.seed,
        ctx.hasher,
        ctx.out_dir.display(),
        if ctx.quick { ", quick mode" } else { "" }
    );
    let mut failures = 0;
    for id in &ids {
        #[expect(clippy::disallowed_methods, reason = "real experiment runtime")]
        let started = std::time::Instant::now();
        match run(id, &ctx) {
            Ok(tables) => {
                for table in &tables {
                    match table.write_csv(&ctx.out_dir) {
                        Ok(path) => println!("[{}] wrote {}", id, path.display()),
                        Err(e) => {
                            eprintln!("[{id}] csv write failed: {e}");
                            failures += 1;
                        }
                    }
                    println!("{}", table.render());
                }
                println!("[{}] done in {:.1}s\n", id, started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("[{id}] {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("known ids: {}", ALL_IDS.join(" "));
    ExitCode::FAILURE
}
