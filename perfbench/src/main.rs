//! Command-line entry of the benchmark:
//!
//! ```text
//! wmcs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable report lines, then one JSON result object as
//! the last line of standard output. Exits 1 when an output check fails
//! and 2 on bad arguments.

use std::process::ExitCode;
use wmcs_perfbench::{run, Options, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options::new(Workload::StreamIngest, 0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wmcs-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {} nproc {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.threads
    );
    let res = run(&opts);
    for line in &res.lines {
        println!("{line}");
    }
    for m in &res.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", res.json());
    if res.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
