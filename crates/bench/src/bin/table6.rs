//! Table 6 CLI: the batched-NEWAPI sweep.
//!
//! ```text
//! table6 [--quick] [--json PATH] [--census-json PATH] [--trace-out PATH]
//!        [--profile] [--profile-out PATH]
//! ```
//!
//! Prints the human table to stdout. `--json` writes the machine
//! artifact (the committed `BENCH_9.json` is a full run's output).
//! Every field in the artifact is virtual-time or a deterministic
//! counter, so two same-seed runs are byte-identical with no
//! normalization — CI runs twice and diffs the files directly, checks
//! the artifact with `benchdiff --validate` against
//! `BENCH_BATCH.schema.json`, and gates it with `benchdiff --check
//! BENCH_9.json`. The run itself asserts the hard invariants (lossless
//! burst, crossings exactly packets/B) and the monotone-decrease
//! acceptance trend.
//!
//! The observe flags ([`psd_bench::observe`]) treat each cell as one
//! row; none of them changes the table or the `--json` artifact.

use psd_bench::cli::{self, Cli, Error};
use psd_bench::observe::write_artifact;
use psd_bench::{table6, Observe};

const CLI: Cli = Cli {
    bin: "table6",
    switches: &["--quick", "--profile"],
    values: &[
        "--json PATH",
        "--census-json PATH",
        "--trace-out PATH",
        "--profile-out PATH",
    ],
    synopsis: None,
};

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let mut obs = Observe::from_args(args, "table6", table6::SEED);
    let bench = table6::run(args.flag("--quick"), &mut obs);
    print!("{}", bench.table());
    bench
        .check_monotone()
        .map_err(|e| Error::Failed(format!("MONOTONICITY FAILED — {e}")))?;
    eprintln!("table6: crossings/pkt and ns/pkt decrease monotonically in B");
    obs.finish()?;
    if let Some(path) = args.value("--json") {
        write_artifact("table6", "artifact", path, &bench.to_json().write())?;
    }
    Ok(())
}
