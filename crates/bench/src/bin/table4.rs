//! Regenerates Table 4: per-layer latency breakdown for the
//! library-based (SHM-IPF), kernel-based (Mach 2.5) and server-based
//! (UX) protocol stacks, TCP and UDP, at the minimum and maximum
//! unfragmented message sizes.
//!
//! Usage: `cargo run --release -p psd-bench --bin table4 -- [--rounds N]
//! [--census] [--census-json PATH] [--trace-out PATH]`
//!
//! The observe flags ([`psd_bench::observe`]) never change the table:
//! `--census` appends each column's per-host operation census, and
//! `--trace-out` traces each column as one trace process.
//!
//! The per-layer figures are the charged-time profiler's per-layer
//! projection over the measured rounds, with the wire's transit time as
//! the network-transit row.

use psd_bench::cli::{self, Cli};
use psd_bench::tables::{table4, Table4Column};
use psd_bench::{protolat, ApiStyle, Observe};
use psd_server::Proto;
use psd_sim::{Layer, Platform, SimTime};
use psd_systems::{SystemConfig, TestBed};

const CLI: Cli = Cli {
    bin: "table4",
    switches: &["--census"],
    values: &["--rounds N", "--census-json PATH", "--trace-out PATH"],
    synopsis: None,
};

fn config_for(system: &str) -> SystemConfig {
    match system {
        "Library" => SystemConfig::LibraryShmIpf,
        "Kernel" => SystemConfig::Mach25InKernel,
        "Server" => SystemConfig::UxServer,
        other => panic!("unknown system {other}"),
    }
}

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let rounds: u32 = args.num("--rounds", 200)?;
    let mut obs = Observe::from_args(args, "table4", 7);

    println!("Table 4: average latency by layer (microseconds, one-way)");
    println!("measured / (paper)  —  {} round trips per column\n", rounds);

    for col in table4() {
        obs.row(format!("{} {} {}B", col.system, col.proto, col.size));
        run_column(&col, rounds, &mut obs);
        obs.print_census("");
    }
    obs.finish()
}

fn run_column(col: &Table4Column, rounds: u32, obs: &mut Observe) {
    let config = config_for(col.system);
    let proto = match col.proto {
        "TCP" => Proto::Tcp,
        _ => Proto::Udp,
    };
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, 7);
    obs.attach(&mut bed);
    bed.attach_profilers();
    let result = protolat(&mut bed, proto, col.size, 25, rounds, ApiStyle::Classic);
    let layer_ns = result.layer_ns.expect("profilers attached");

    // Each round trip contains one message each way: per-message layer
    // time = total / (2 × rounds). (TCP also carries ACK segments; the
    // paper notes its numbers "only approximate the critical path".)
    let per_msg = |layer: Layer| -> f64 {
        let total = SimTime::from_nanos(layer_ns[layer.index()]);
        total.as_micros_f64() / (2.0 * f64::from(rounds))
    };

    println!(
        "--- {} {} {}B ---  (rtt {:.3} ms)",
        col.system,
        col.proto,
        col.size,
        result.rtt.as_millis_f64()
    );
    let send_layers = [
        Layer::EntryCopyin,
        Layer::TcpUdpOutput,
        Layer::IpOutput,
        Layer::EtherOutput,
    ];
    let recv_layers = [
        Layer::DeviceIntrRead,
        Layer::NetisrPacketFilter,
        Layer::KernelCopyout,
        Layer::MbufQueue,
        Layer::IpIntr,
        Layer::TcpUdpInput,
        Layer::WakeupUserThread,
        Layer::CopyoutExit,
    ];
    let mut send_total = 0.0;
    let mut send_paper = 0u32;
    for (i, layer) in send_layers.iter().enumerate() {
        let m = per_msg(*layer);
        send_total += m;
        send_paper += col.send[i];
        println!("  {:<22} {:7.0}  ({:5})", layer.label(), m, col.send[i]);
    }
    println!(
        "  {:<22} {:7.0}  ({:5})",
        "SEND TOTAL", send_total, send_paper
    );
    let mut recv_total = 0.0;
    let mut recv_paper = 0u32;
    for (i, layer) in recv_layers.iter().enumerate() {
        let m = per_msg(*layer);
        recv_total += m;
        recv_paper += col.recv[i];
        println!("  {:<22} {:7.0}  ({:5})", layer.label(), m, col.recv[i]);
    }
    println!(
        "  {:<22} {:7.0}  ({:5})",
        "RECV TOTAL", recv_total, recv_paper
    );
    let transit = per_msg(Layer::NetworkTransit);
    println!(
        "  {:<22} {:7.0}  ({:5})\n",
        "network transit", transit, col.transit
    );
}
