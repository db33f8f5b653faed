//! Filter microbenchmark CLI.
//!
//! ```text
//! filterbench [--quick] [--json PATH] [--digest PATH]
//!             [--census-json PATH] [--trace-out PATH]
//! ```
//!
//! Prints the human table to stdout. `--json` writes the machine
//! artifact (the committed `BENCH_8.json` is a full run's output).
//! `--digest` writes the *normalized* artifact — volatile wall-clock
//! fields zeroed — which must be byte-identical between two same-seed
//! runs (CI runs twice and diffs the digests). CI checks the artifact
//! with `benchdiff --validate` against `BENCH_FILTER.schema.json` and
//! gates it with `benchdiff --check BENCH_8.json --min-speedup 2.0`.
//!
//! `--census-json` / `--trace-out` export the same observability
//! surface as the table bins ([`psd_bench::observe`]). The
//! microbenchmark itself runs outside the simulator, so these flags
//! drive a small sim-backed demux workload (seed 77, one row per
//! strategy) with the census and packet tracer attached to the real
//! kernel filter path; the benchmark table is unaffected and both files
//! are byte-identical across reruns.

use psd_bench::cli::{self, Cli};
use psd_bench::observe::write_artifact;
use psd_bench::{filterbench, session_scaling, Observe, WorkloadSpec};
use psd_filter::DemuxStrategy;
use psd_sim::Platform;
use psd_systems::SystemConfig;

/// Seed for the sim-backed observability runs; the microbenchmark
/// itself is seedless.
const OBS_SEED: u64 = 77;

const CLI: Cli = Cli {
    bin: "filterbench",
    switches: &["--quick"],
    values: &[
        "--json PATH",
        "--digest PATH",
        "--census-json PATH",
        "--trace-out PATH",
    ],
    synopsis: None,
};

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let bench = filterbench::run(args.flag("--quick"));
    print!("{}", bench.table());
    let artifact = bench.to_json();
    if let Some(path) = args.value("--json") {
        write_artifact("filterbench", "artifact", path, &artifact.write())?;
    }
    if let Some(path) = args.value("--digest") {
        let digest = filterbench::normalized_text(&artifact);
        write_artifact("filterbench", "normalized digest", path, &digest)?;
    }

    let mut obs = Observe::from_args(args, "filterbench", OBS_SEED);
    if obs.any() {
        for (strategy, label) in [(DemuxStrategy::Cspf, "CSPF"), (DemuxStrategy::Mpf, "MPF")] {
            obs.row(format!("demux [{label}]"));
            session_scaling(
                SystemConfig::LibraryShm,
                Platform::DecStation5000_200,
                strategy,
                &WorkloadSpec::at_scale(64, 128, OBS_SEED),
                &mut obs,
            );
        }
    }
    obs.finish()
}
