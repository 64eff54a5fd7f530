//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints every metric with its unit and sample count, then one JSON result
//! line. Exits 1 if any request failed or any report differed from its
//! reference, 2 on a usage or set-up error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{measure, trace};
use perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, false);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or(format!("missing value for {}", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!(
                    "unknown workload `{value}` (paper_solo|medium_tenants|medium_writes)"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: traced,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        let spans = PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace(args.workload, args.seed, args.seconds, &spans)
    } else {
        measure(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(outcome) => {
            print!("{}", outcome.summary());
            println!("{}", outcome.json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::from(2)
        }
    }
}
