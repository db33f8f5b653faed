//! Perf-trajectory and regression-gate CLI over `BENCH_*.json`
//! artifacts.
//!
//! ```text
//! benchdiff FILE FILE... [--tolerance X] [--json PATH] [--report PATH]
//! benchdiff --check BASELINE MEASURED [--tolerance X] [--min-speedup X]
//! benchdiff --validate FILE --schema FILE
//! ```
//!
//! The first form prints a per-metric delta table between consecutive
//! artifacts (a trajectory when given the same benchmark's artifacts
//! over time); `--json`/`--report` write the machine/text reports for
//! the final pair. The second form is the one CI regression gate for
//! every benchmark artifact: one binary, one exit code, any benchmark
//! kind. The third form is the one schema check: it validates a
//! single artifact and exits. A failed gate or check exits 1; a
//! malformed command line exits 2.

use psd_bench::benchdiff;
use psd_bench::cli::{self, Cli, Error};
use psd_bench::json::{validate, Json};
use psd_bench::observe::write_artifact;

const CLI: Cli = Cli {
    bin: "benchdiff",
    switches: &["--check", "--validate"],
    values: &[
        "--schema FILE",
        "--tolerance X",
        "--min-speedup X",
        "--json PATH",
        "--report PATH",
    ],
    synopsis: Some(
        "usage: benchdiff FILE FILE... [--tolerance X] [--json PATH] [--report PATH]\n       \
         benchdiff --check BASELINE MEASURED [--tolerance X] [--min-speedup X]\n       \
         benchdiff --validate FILE --schema FILE",
    ),
};

fn read_artifact(path: &str) -> cli::Result<Json> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Failed(format!("cannot read {path}: {e}")))?;
    Json::parse(&text).map_err(|e| Error::Failed(format!("cannot parse {path}: {e}")))
}

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let files = args.positional();
    let tolerance = args.num("--tolerance", 0.2)?;
    let min_speedup = args.num_opt("--min-speedup")?;

    if args.flag("--validate") && args.flag("--check") {
        return Err(Error::Usage(
            "--check and --validate are separate forms".into(),
        ));
    }
    if args.flag("--validate") {
        let ([file], Some(schema_file)) = (files, args.value("--schema")) else {
            return Err(Error::Usage(
                "--validate needs one FILE and --schema FILE".into(),
            ));
        };
        return match validate(&read_artifact(file)?, &read_artifact(schema_file)?) {
            Ok(()) => {
                println!("benchdiff: {file} validates against {schema_file}");
                Ok(())
            }
            Err(e) => Err(Error::Failed(format!("{file} violates {schema_file}: {e}"))),
        };
    }

    if args.flag("--check") {
        let [baseline, measured] = files else {
            return Err(Error::Usage(
                "--check takes exactly BASELINE and MEASURED".into(),
            ));
        };
        let lines = benchdiff::check(
            &read_artifact(baseline)?,
            &read_artifact(measured)?,
            tolerance,
            min_speedup,
        )
        .map_err(|e| Error::Failed(format!("GATE FAILED — {e}")))?;
        for line in lines {
            println!("benchdiff: gate ok — {line}");
        }
        return Ok(());
    }

    if files.len() < 2 {
        return Err(Error::Usage("need at least two artifacts".into()));
    }
    // Trajectory: consecutive pairwise deltas; reports cover the final
    // pair (typically "previous committed" vs "this run").
    let artifacts = files
        .iter()
        .map(|f| read_artifact(f))
        .collect::<cli::Result<Vec<Json>>>()?;
    let mut regressed = false;
    let mut last_reports: Option<(String, Json)> = None;
    for (pair, names) in artifacts.windows(2).zip(files.windows(2)) {
        let labels = (names[0].as_str(), names[1].as_str());
        let deltas = benchdiff::diff(&pair[0], &pair[1])
            .map_err(|e| Error::Failed(format!("{} -> {}: {e}", labels.0, labels.1)))?;
        regressed |= deltas.iter().any(|d| d.regressed(tolerance));
        let text = benchdiff::report_text(&deltas, labels, tolerance);
        print!("{text}");
        last_reports = Some((text, benchdiff::report_json(&deltas, labels, tolerance)));
    }
    if let Some((text, doc)) = last_reports {
        if let Some(path) = args.value("--report") {
            write_artifact("benchdiff", "report", path, &text)?;
        }
        if let Some(path) = args.value("--json") {
            write_artifact("benchdiff", "JSON report", path, &doc.write())?;
        }
    }
    if regressed {
        eprintln!(
            "benchdiff: metrics beyond the {:.0}% tolerance are flagged above \
             (informational in trajectory mode; use --check to gate)",
            tolerance * 100.0
        );
    }
    Ok(())
}
