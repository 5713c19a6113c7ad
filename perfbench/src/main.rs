//! Host-time benchmark of the Hadar simulator, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-continuous|fig7-2048|faulty-dp> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload's cells one after another, every policy in its default
//! configuration, repeating whole passes for `--seconds`. Each workload
//! pins its trace seed; `--seed` is recorded. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` the per-layer ones, measured by replaying each round's layer functions (see `probe`). The
//! last line of standard output is the result object; the exit code is 0
//! only when every correctness check passed. See `perfbench/README.md`.

mod layers;
mod measure;
mod probe;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;

use crate::measure::Options;
use crate::workload::{workloads, Policy, Workload};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    opts: Options,
}

const USAGE: &str = "usage: perfbench --workload <paper-continuous|fig7-2048|faulty-dp> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut trace) = (10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let found = workloads().into_iter().find(|w| w.name == value);
                workload = Some(found.ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: Workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let opts = Options {
        seed,
        seconds,
        traced: trace,
    };
    Ok(Args { workload, opts })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let record = measure::run(&args.workload, args.opts, Policy::build);
    print!("{}", record.render());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse("--workload fig7-2048 --seed 3 --seconds 20 --trace 1").unwrap();
        let expected = Options {
            seed: Some(3),
            seconds: 20.0,
            traced: true,
        };
        assert_eq!((a.workload.name, a.opts), ("fig7-2048", expected));
        let a = parse("--workload faulty-dp").unwrap();
        let expected = Options {
            seed: None,
            seconds: 10.0,
            traced: false,
        };
        assert_eq!(a.opts, expected);
        for bad in [
            "",
            "--workload nope",
            "--workload faulty-dp --trace 2",
            "--workload faulty-dp --seconds 0",
            "--workload faulty-dp --seed",
            "--workload faulty-dp --seed x",
            "--workload faulty-dp --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
