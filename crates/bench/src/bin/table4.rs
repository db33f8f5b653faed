//! Regenerates Table 4: per-layer latency breakdown for the
//! library-based (SHM-IPF), kernel-based (Mach 2.5) and server-based
//! (UX) protocol stacks, TCP and UDP, at the minimum and maximum
//! unfragmented message sizes.
//!
//! Usage: `cargo run -p psd-bench --bin table4 [--rounds N] [--census]
//! [--trace-out <path>] [--census-json <path>]`
//!
//! `--census` appends an operation census (crossings, copies, locks,
//! wakeups per host) after each column; counting never charges virtual
//! time, so every latency figure is identical with or without it.
//! `--trace-out` writes a Chrome trace-event JSON covering every
//! column's run (one trace process per column); `--census-json` writes
//! the census snapshots as JSON. Neither flag changes the table.
//!
//! The per-layer figures are the charged-time profiler's per-layer
//! projection over the measured rounds, with the wire's transit time as
//! the network-transit row.

use psd_bench::tables::{table4, Table4Column};
use psd_bench::{protolat, ApiStyle};
use psd_server::Proto;
use psd_sim::{Layer, Platform, SimTime};
use psd_systems::{SystemConfig, TestBed};

fn config_for(system: &str) -> SystemConfig {
    match system {
        "Library" => SystemConfig::LibraryShmIpf,
        "Kernel" => SystemConfig::Mach25InKernel,
        "Server" => SystemConfig::UxServer,
        other => panic!("unknown system {other}"),
    }
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let rounds: u32 = std::env::args()
        .skip_while(|a| a != "--rounds")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let want_census = std::env::args().any(|a| a == "--census");
    let trace_out = flag_value("--trace-out");
    let census_json = flag_value("--census-json");

    println!("Table 4: average latency by layer (microseconds, one-way)");
    println!("measured / (paper)  —  {} round trips per column\n", rounds);

    let mut trace_events = String::new();
    let mut census_docs: Vec<String> = Vec::new();
    let published = table4();
    for (i, col) in published.iter().enumerate() {
        run_column(
            col,
            rounds,
            want_census,
            trace_out.is_some().then_some((i as u64, &mut trace_events)),
            census_json.is_some().then_some(&mut census_docs),
        );
    }
    if let Some(path) = &trace_out {
        std::fs::write(path, psd_sim::chrome_trace_document(&trace_events))
            .expect("write trace file");
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &census_json {
        let doc = format!("{{\"columns\":[{}]}}\n", census_docs.join(","));
        std::fs::write(path, doc).expect("write census json");
        eprintln!("wrote census snapshot to {path}");
    }
}

fn run_column(
    col: &Table4Column,
    rounds: u32,
    want_census: bool,
    trace_sink: Option<(u64, &mut String)>,
    census_sink: Option<&mut Vec<String>>,
) {
    let config = config_for(col.system);
    let proto = match col.proto {
        "TCP" => Proto::Tcp,
        _ => Proto::Udp,
    };
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, 7);
    let censuses = (want_census || census_sink.is_some()).then(|| bed.attach_census());
    let tracer = trace_sink.is_some().then(|| bed.attach_tracer());
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
    if let (Some(tracer), Some((pid, out))) = (&tracer, trace_sink) {
        let violations = tracer.borrow().check_invariants();
        assert!(violations.is_empty(), "trace invariants: {violations:?}");
        let label = format!("{} {} {}B", col.system, col.proto, col.size);
        tracer.borrow().chrome_events(pid, &label, out);
    }
    if let Some(censuses) = censuses {
        if want_census {
            for (i, census) in censuses.iter().enumerate() {
                println!("  census host{i}:");
                for line in census.borrow().snapshot().lines() {
                    println!("    {line}");
                }
            }
            println!();
        }
        if let Some(docs) = census_sink {
            let hosts: Vec<String> = censuses
                .iter()
                .map(|c| c.borrow().snapshot_json())
                .collect();
            docs.push(format!(
                "{{\"system\":\"{}\",\"proto\":\"{}\",\"size\":{},\"hosts\":[{}]}}",
                col.system,
                col.proto,
                col.size,
                hosts.join(",")
            ));
        }
    }
}
