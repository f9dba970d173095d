//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--qborrow <path>]`: runs one workload and prints its report, then one
//! JSON result line. Exits non-zero when a verdict is wrong or the
//! arguments are bad.

use perfbench::{cold, daemon, edit, run::Report};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    qborrow: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        qborrow: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--qborrow" => args.qborrow = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds expects a number in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold-verify|edit-loop|daemon-mix --seed N --seconds S --trace 0|1 [--qborrow PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "cold-verify" => cold::run(args.seed, args.seconds, args.trace),
        "edit-loop" => edit::run(args.seed, args.seconds, args.trace),
        "daemon-mix" => {
            let Some(qborrow) = args.qborrow.as_deref() else {
                eprintln!("perfbench: daemon-mix needs --qborrow <path to the qborrow binary>");
                return ExitCode::from(2);
            };
            match daemon::run(args.seed, args.seconds, args.trace, Path::new(qborrow)) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("perfbench: daemon-mix failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(trace) = &report.trace {
        let path = format!(".bench_run/trace-{}-{}.json", args.workload, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(".bench_run").and_then(|()| std::fs::write(&path, trace))
        {
            eprintln!("perfbench: cannot write {path}: {e}");
        } else {
            eprintln!("perfbench: spans written to {path}");
        }
    }
    print!("{}", report.render(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: verdicts differ from the known answers");
        ExitCode::FAILURE
    }
}
