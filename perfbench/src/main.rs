//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints the result object as the last line of
//! standard output. Exits non-zero, without a result line, on bad
//! arguments or a failed set-up.

use std::path::PathBuf;
use std::process::ExitCode;

use micco_perfbench::{run, Config, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <batch_fit|batch_evict|redstar_real|serve_mix> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // Scratch space lives inside this package's directory, so a run
    // reads and writes only inside its checkout.
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!(
            "{}-{}-{}",
            workload.name(),
            seed,
            std::process::id()
        ));
    Ok(Config {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        work_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
