//! `mmr-bench` — runs, renders, writes and gates every campaign of the
//! reproduction. See [`mmr_bench::cli`] for the command line.

use std::process::ExitCode;

use mmr_bench::cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(command) => cli::execute(command),
        Err(complaint) => {
            eprintln!("mmr-bench: {complaint}\n{}", cli::usage());
            ExitCode::from(2)
        }
    }
}
