//! `micco` — command-line driver for the MICCO reproduction.
//!
//! ```text
//! micco synthetic --vector-size 64 --tensor-size 384 --rate 0.5 \
//!       --dist gaussian --vectors 10 --gpus 8 --scheduler micco --bounds 0,2,0
//! micco redstar  --preset al_rhopi --scale ci --gpus 8
//! micco sweep    --param rate --values 0.25,0.5,0.75,1.0 --gpus 8
//! micco train    --samples 40 --seed 7
//! micco cluster  --nodes 2 --gpus-per-node 4
//! micco info
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // a malformed command line (unknown option, stray argument) exits 2,
    // a failed command 1
    let parsed = match args::Args::parse(raw, commands::KEYS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (run `micco` for usage)");
            return ExitCode::from(2);
        }
    };
    match commands::dispatch(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
