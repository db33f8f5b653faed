//! The `ttcp` microbenchmark as a CLI: "a memory-to-memory throughput
//! benchmark for TCP that transfers 16 MB of data from one host to
//! another."
//!
//! Usage:
//!   cargo run --release -p psd-bench --bin ttcp -- \
//!       [--config library-shm-ipf] [--platform decstation] \
//!       [--mb 16] [--newapi] [--loss 0.01] [--seed 42]
//!
//! `--config` takes a short name (`mach25`/`in-kernel`, `ultrix`,
//! `386bsd`, `ux`/`server`, `bnr2ss`, `library-ipc`, `library-shm`,
//! `library-shm-ipf`/`library`) or the paper's row label;
//! `--platform` takes `decstation` or `gateway`/`i486`. `--loss`
//! arms seeded wire loss at that probability.

use psd_bench::cli::{self, Cli};
use psd_bench::{ttcp, ApiStyle};
use psd_sim::Platform;
use psd_systems::{SystemConfig, TestBed};

const CLI: Cli = Cli {
    bin: "ttcp",
    switches: &["--newapi"],
    values: &[
        "--config NAME",
        "--platform NAME",
        "--mb N",
        "--seed N",
        "--loss P",
    ],
    synopsis: None,
};

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let config = args.config(SystemConfig::LibraryShmIpf)?;
    let platform = args.platform(Platform::DecStation5000_200)?;
    let mb: usize = args.num("--mb", 16)?;
    let seed = args.num("--seed", 42)?;
    let loss: f64 = args.num("--loss", 0.0)?;
    let api = if args.flag("--newapi") {
        ApiStyle::Newapi
    } else {
        ApiStyle::Classic
    };

    let mut bed = TestBed::new(config, platform, seed);
    if loss > 0.0 {
        bed.arm_wire_faults(seed, loss, 0.0, 0.0);
    }
    let r = ttcp(&mut bed, mb << 20, api);
    println!(
        "ttcp-t: {} bytes in {:.2} real seconds = {:.2} KB/sec +++",
        r.bytes,
        r.elapsed.as_secs_f64(),
        r.kb_per_sec
    );
    println!(
        "ttcp-t: {} ({:?}) on {} [{} retransmits]",
        config.label(),
        api,
        platform.label(),
        r.retransmits
    );
    Ok(())
}
