//! `ptsim`: the workspace's one command line. Each paper figure, the
//! compile, trace and profile tools, the fuzz harness, the simulation
//! daemon and its load generator is a subcommand; `ptsim --help` lists
//! them, and [`cli`] parses every one.

mod cli;
mod cmd {
    pub mod check;
    pub mod compile;
    pub mod figures;
    pub mod loadgen;
    pub mod profile;
    pub mod serve;
    pub mod sweep;
    pub mod trace;
}

use cli::{Args, Error};
use cmd::figures;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = Args::new(std::env::args().skip(1));
    run(&mut args).unwrap_or_else(|e| e.report())
}

fn run(args: &mut Args) -> Result<ExitCode, Error> {
    let command = args.command()?;
    let subcommand: fn(&mut Args) -> Result<ExitCode, Error> = match command.as_str() {
        "fig5" => figures::fig5,
        "fig6" => figures::fig6,
        "fig7" => figures::fig7,
        "fig8" => figures::fig8,
        "fig9" => figures::fig9,
        "fig10" => figures::fig10,
        "table1" => figures::table1,
        "sweep" => cmd::sweep::sweep,
        "compile" => cmd::compile::compile,
        "trace" => cmd::trace::trace,
        "profile" => cmd::profile::profile,
        "check" => cmd::check::check,
        "serve" => cmd::serve::serve,
        "loadgen" => cmd::loadgen::loadgen,
        _ => return Err(Error::Command(command)),
    };
    subcommand(args)
}
