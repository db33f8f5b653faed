//! Simulator self-benchmark CLI.
//!
//! ```text
//! selfbench [--quick] [--json PATH]
//! ```
//!
//! Prints the human table to stdout. `--json` writes the machine
//! artifact (the committed `BENCH_6.json` is a full run's output). CI
//! checks the artifact with `benchdiff --validate` against
//! `BENCH.schema.json` and gates it with `benchdiff --check
//! BENCH_6.json`.

use psd_bench::cli::{self, Cli};
use psd_bench::observe::write_artifact;
use psd_bench::selfbench;

const CLI: Cli = Cli {
    bin: "selfbench",
    switches: &["--quick"],
    values: &["--json PATH"],
    synopsis: None,
};

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let bench = selfbench::run(args.flag("--quick"));
    print!("{}", bench.table());
    if let Some(path) = args.value("--json") {
        write_artifact("selfbench", "artifact", path, &bench.to_json().write())?;
    }
    Ok(())
}
