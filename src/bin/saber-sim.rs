//! `saber-sim` — command-line front end to the DAC 2021 reproduction.
//!
//! ```sh
//! cargo run --release --bin saber-sim -- table1
//! cargo run --release --bin saber-sim -- mult --arch hs2
//! cargo run --release --bin saber-sim -- kem --params firesaber --arch lw
//! ```
//!
//! Exits 1, with a message on stderr, on an invocation it cannot parse
//! (with the usage text) or on output it cannot write.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match saber::cli::parse(&args) {
        Ok(command) => command,
        Err(err) => {
            eprintln!("error: {err}\n\n{}", saber::cli::usage());
            return ExitCode::FAILURE;
        }
    };
    match saber::cli::run(&command, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
