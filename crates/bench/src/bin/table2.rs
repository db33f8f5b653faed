//! Regenerates Table 2: TCP throughput (ttcp) and TCP/UDP round-trip
//! latency (protolat) for every system configuration on both
//! platforms.
//!
//! Usage: `cargo run --release -p psd-bench --bin table2 -- [--quick]
//! [--gateway|--decstation] [--filter-engine compiled|interpret]
//! [--census] [--census-json PATH] [--faults] [--trace-out PATH]
//! [--stages] [--profile] [--profile-out PATH] [--metrics-out PATH]`
//!
//! `--quick` transfers 2 MB instead of the paper's 16 MB and runs 50
//! latency rounds instead of 200. `--gateway`/`--decstation` run one
//! platform. `--filter-engine interpret` runs the filter interpreter
//! instead of the compiled tier; the output is byte-identical either
//! way (CI diffs it).
//!
//! The observe flags ([`psd_bench::observe`]) never change the table.
//! The census, profiler and gauge sampler (10 ms virtual period) ride
//! on each row's ttcp bed: `--census` appends the per-host census
//! after the row. The tracer rides on the row's latency beds, one trace
//! process per row; `--stages` prints per-stage latency percentiles
//! for them. `--faults` attaches an empty fault plane to every bed (CI
//! asserts it is byte-neutral).

use psd_bench::cli::{self, Cli};
use psd_bench::tables::{fmt_pair, table2_for, TCP_SIZES, UDP_SIZES};
use psd_bench::{protolat, ttcp, ApiStyle, Observe};
use psd_filter::FilterEngine;
use psd_server::Proto;
use psd_sim::Platform;
use psd_systems::{SystemConfig, TestBed};

const CLI: Cli = Cli {
    bin: "table2",
    switches: &[
        "--quick",
        "--gateway",
        "--decstation",
        "--census",
        "--faults",
        "--stages",
        "--profile",
    ],
    values: &[
        "--filter-engine NAME",
        "--census-json PATH",
        "--trace-out PATH",
        "--profile-out PATH",
        "--metrics-out PATH",
    ],
    synopsis: None,
};

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let engine = args.engine()?;
    let mut obs = Observe::from_args(args, "table2", 42);
    let (bytes, rounds) = if args.flag("--quick") {
        (2 << 20, 50)
    } else {
        (16 << 20, 200)
    };
    let platforms: Vec<Platform> = if args.flag("--gateway") {
        vec![Platform::Gateway486]
    } else if args.flag("--decstation") {
        vec![Platform::DecStation5000_200]
    } else {
        vec![Platform::DecStation5000_200, Platform::Gateway486]
    };

    for platform in platforms {
        println!("==== {} ====", platform.label());
        println!(
            "ttcp: {} MB memory-to-memory; latency: {} round trips/size\n",
            bytes >> 20,
            rounds
        );
        let mut throughput: Vec<(SystemConfig, f64)> = Vec::new();
        for row in table2_for(platform) {
            let config = row.config;
            obs.row(format!("{} | {}", platform.label(), config.label()));
            let mut bed = new_bed(&mut obs, engine, config, platform, 42);
            obs.attach_counters(&mut bed);
            let t = ttcp(&mut bed, bytes, ApiStyle::Classic);
            throughput.push((config, t.kb_per_sec));
            println!("{}", config.label());
            println!(
                "  throughput KB/s : {}   [buf {} KB]",
                fmt_pair(t.kb_per_sec, row.throughput),
                row.bufsize
            );
            // The tracer rides on the latency beds only: the ttcp run
            // would swamp the trace with bulk data packets.
            for (name, proto, sizes, published, seed) in [
                ("TCP", Proto::Tcp, TCP_SIZES, row.tcp_ms, 43),
                ("UDP", Proto::Udp, UDP_SIZES, row.udp_ms, 53),
            ] {
                print!("  {name} rtt ms      :");
                for (i, (&size, paper)) in sizes.iter().zip(published).enumerate() {
                    let Some(paper) = paper else {
                        print!("  {:>5}({:>5})", "NA", "NA");
                        continue;
                    };
                    let mut bed = new_bed(&mut obs, engine, config, platform, seed + i as u64);
                    obs.attach_tracer(&mut bed);
                    let lat = protolat(&mut bed, proto, size, 20, rounds, ApiStyle::Classic);
                    print!("  {:5.2}({:5.2})", lat.rtt.as_millis_f64(), paper);
                }
                println!();
            }
            println!();
            if let Some(t) = obs.tracer().filter(|_| obs.stages) {
                println!("  stage latencies (latency runs, all sizes pooled):");
                for line in t.borrow().stage_report().lines() {
                    println!("  {line}");
                }
                println!();
            }
            obs.print_census(" (ttcp run)");
        }
        // The §4.1 derived claims, over the throughputs measured above.
        println!("-- derived shape checks ({}) --", platform.label());
        if platform == Platform::DecStation5000_200 {
            use SystemConfig::*;
            let tput = |c: SystemConfig| {
                let (_, kb) = throughput.iter().find(|(rc, _)| *rc == c).expect("row run");
                *kb
            };
            for (ratio, num, den, paper) in [
                (
                    "Library-IPC / In-Kernel",
                    LibraryIpc,
                    Mach25InKernel,
                    "0.85",
                ),
                ("Library-SHM / Library-IPC", LibraryShm, LibraryIpc, "1.18"),
                (
                    "Library-IPF / In-Kernel",
                    LibraryShmIpf,
                    Mach25InKernel,
                    "1.02",
                ),
                ("Server      / In-Kernel", UxServer, Mach25InKernel, "0.69"),
            ] {
                let r = tput(num) / tput(den);
                println!("  {ratio:<25} = {r:.2}  (paper ≈ {paper})");
            }
        }
        println!();
    }
    obs.finish()
}

/// A bed on the chosen filter engine, with the empty fault plane under
/// `--faults`.
fn new_bed(
    obs: &mut Observe,
    engine: FilterEngine,
    config: SystemConfig,
    platform: Platform,
    seed: u64,
) -> TestBed {
    let mut bed = TestBed::new(config, platform, seed);
    bed.set_filter_engine(engine);
    obs.attach_faults(&mut bed);
    bed
}
