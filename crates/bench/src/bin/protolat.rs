//! The `protolat` microbenchmark as a CLI: "a program that measures
//! protocol round trip latency for UDP and TCP."
//!
//! Usage:
//!   cargo run --release -p psd-bench --bin protolat -- \
//!       [--config library-shm-ipf] [--platform decstation] \
//!       [--proto udp] [--size 1] [--rounds 200] [--newapi]
//!
//! `--config` and `--platform` take the same spellings as `ttcp`;
//! `--proto` takes `udp` or `tcp`.

use psd_bench::cli::{self, Cli};
use psd_bench::{protolat, ApiStyle};
use psd_server::Proto;
use psd_sim::Platform;
use psd_systems::{SystemConfig, TestBed};

const CLI: Cli = Cli {
    bin: "protolat",
    switches: &["--newapi"],
    values: &[
        "--config NAME",
        "--platform NAME",
        "--proto udp|tcp",
        "--size BYTES",
        "--rounds N",
    ],
    synopsis: None,
};

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let config = args.config(SystemConfig::LibraryShmIpf)?;
    let platform = args.platform(Platform::DecStation5000_200)?;
    let proto = args.choice(
        "--proto",
        &[("udp", Proto::Udp), ("tcp", Proto::Tcp)],
        Proto::Udp,
    )?;
    let size: usize = args.num("--size", 1)?;
    let rounds: u32 = args.num("--rounds", 200)?;
    let api = if args.flag("--newapi") {
        ApiStyle::Newapi
    } else {
        ApiStyle::Classic
    };

    let mut bed = TestBed::new(config, platform, 7);
    let r = protolat(&mut bed, proto, size, 25, rounds, api);
    println!(
        "protolat: {:?} {} bytes, {} round trips: {:.3} ms/rt",
        proto,
        size,
        r.rounds,
        r.rtt.as_millis_f64()
    );
    println!("protolat: {} on {}", config.label(), platform.label());
    Ok(())
}
