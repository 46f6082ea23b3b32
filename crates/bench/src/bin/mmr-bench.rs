//! `mmr-bench` — runs, renders, writes and gates every campaign of the
//! reproduction. See [`mmr_bench::cli`] for the command line.

use std::process::ExitCode;

use mmr_bench::cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::parse(&args).and_then(cli::execute).unwrap_or_else(|complaint| {
        eprintln!("mmr-bench: {complaint}\n{}", cli::usage());
        ExitCode::from(2)
    })
}
