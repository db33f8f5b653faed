//! Regenerates Table 2: TCP throughput (ttcp) and TCP/UDP round-trip
//! latency (protolat) for every system configuration on both
//! platforms.
//!
//! Usage: `cargo run --release -p psd-bench --bin table2 [--quick] [--gateway|--decstation] [--census]`
//!
//! `--quick` transfers 2 MB instead of the paper's 16 MB and runs 50
//! latency rounds instead of 200. `--census` appends an operation
//! census (crossings, copies, locks, wakeups per host) for each
//! configuration's ttcp run; counting never charges virtual time, so
//! every numeric result is identical with or without it. `--faults`
//! attaches an (empty) fault plane to every run — no site is scripted
//! or armed, so the plane only counts visits and the output must be
//! byte-identical to a run without it (CI asserts this).
//!
//! `--trace-out <path>` writes a Chrome trace-event JSON file (load it
//! at `chrome://tracing` or in Perfetto) covering every latency run,
//! one trace process per table row. `--stages` prints per-stage
//! latency percentiles (p50/p90/p99) for each row's latency runs.
//! `--census-json <path>` writes the per-row census snapshots as JSON.
//! Tracing charges no virtual time and consumes no randomness, so the
//! table itself is byte-identical with or without these flags, and the
//! trace file is byte-identical across reruns (CI asserts both).
//!
//! `--profile` attaches the charged-time profiler to every ttcp bed,
//! asserts the exact-conservation invariant (attributed ns equals CPU
//! busy ns, bit-exact, per host), and prints per-host hot-site tables
//! to **stderr** — stdout stays byte-identical to an unprofiled run.
//! `--profile-out <path>` additionally writes the collapsed-stack
//! profile artifact. `--metrics-out <path>` samples the virtual-time
//! gauge plane over each ttcp run (10 ms virtual period) and writes
//! the timeseries artifact. All three are charged-time-neutral.

use psd_bench::observe;
use psd_bench::tables::{fmt_pair, table2_for, TCP_SIZES, UDP_SIZES};
use psd_bench::{protolat, ttcp, ApiStyle};
use psd_filter::FilterEngine;
use psd_server::Proto;
use psd_sim::Platform;
use psd_systems::TestBed;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let want_census = args.iter().any(|a| a == "--census");
    let want_faults = args.iter().any(|a| a == "--faults");
    let want_stages = args.iter().any(|a| a == "--stages");
    let trace_out = flag_value(&args, "--trace-out");
    let census_json = flag_value(&args, "--census-json");
    let profile_out = flag_value(&args, "--profile-out");
    let metrics_out = flag_value(&args, "--metrics-out");
    let profiling = args.iter().any(|a| a == "--profile") || profile_out.is_some();
    // Like `--faults`, the engine choice must never show in the output:
    // the compiled filter tier is observationally identical to the
    // interpreter, and CI byte-diffs a run under each engine.
    let engine = match flag_value(&args, "--filter-engine").as_deref() {
        Some("compiled") => FilterEngine::Compiled,
        Some("interpret") => FilterEngine::Interpret,
        None => FilterEngine::default(),
        Some(other) => {
            eprintln!("table2: unknown --filter-engine '{other}'");
            std::process::exit(2);
        }
    };
    let tracing = trace_out.is_some() || want_stages;
    let mut trace_events = String::new();
    let mut census_docs: Vec<String> = Vec::new();
    let mut profile_runs: Vec<observe::ProfiledRun> = Vec::new();
    let mut metrics_rows: Vec<(String, psd_sim::MetricsHandle)> = Vec::new();
    let mut row_idx: u64 = 0;
    let (bytes, rounds) = if quick {
        (2 << 20, 50)
    } else {
        (16 << 20, 200)
    };
    let platforms: Vec<Platform> = if args.iter().any(|a| a == "--gateway") {
        vec![Platform::Gateway486]
    } else if args.iter().any(|a| a == "--decstation") {
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
        for row in table2_for(platform) {
            let config = row.config;
            // One tracer per table row, attached to the latency beds
            // only (the ttcp run would dominate the trace with bulk
            // data packets).
            let row_tracer = tracing.then(psd_sim::Tracer::shared);
            // Throughput.
            let mut bed = TestBed::new(config, platform, 42);
            bed.set_filter_engine(engine);
            let censuses = (want_census || census_json.is_some()).then(|| bed.attach_census());
            if want_faults {
                let _plane = bed.attach_fault_plane();
            }
            let profilers = profiling.then(|| bed.attach_profilers());
            // 10 ms sampling: a full ttcp run covers tens of virtual
            // seconds per row, so 1 ms would balloon the artifact.
            let metrics = metrics_out
                .is_some()
                .then(|| bed.attach_metrics(psd_sim::SimTime::from_millis(10)));
            let t = ttcp(&mut bed, bytes, ApiStyle::Classic);
            let row_label = format!("{} | {}", platform.label(), config.label());
            if let Some(profilers) = &profilers {
                profile_runs.push(observe::ProfiledRun {
                    label: row_label.clone(),
                    hosts: profilers
                        .iter()
                        .enumerate()
                        .map(|(i, p)| observe::host_profile(i, &bed.hosts[i].cpu, p))
                        .collect(),
                });
            }
            if let Some(metrics) = metrics {
                metrics_rows.push((row_label, metrics));
            }
            println!("{}", config.label());
            println!(
                "  throughput KB/s : {}   [buf {} KB]",
                fmt_pair(t.kb_per_sec, row.throughput),
                row.bufsize
            );
            // TCP latency.
            print!("  TCP rtt ms      :");
            for (i, &size) in TCP_SIZES.iter().enumerate() {
                if row.tcp_ms[i].is_none() {
                    print!("  {:>5}({:>5})", "NA", "NA");
                    continue;
                }
                let mut bed = TestBed::new(config, platform, 43 + i as u64);
                bed.set_filter_engine(engine);
                if want_faults {
                    let _plane = bed.attach_fault_plane();
                }
                if let Some(t) = &row_tracer {
                    bed.attach_tracer_handle(t);
                }
                let lat = protolat(&mut bed, Proto::Tcp, size, 20, rounds, ApiStyle::Classic);
                print!(
                    "  {:5.2}({:5.2})",
                    lat.rtt.as_millis_f64(),
                    row.tcp_ms[i].unwrap_or(0.0)
                );
            }
            println!();
            // UDP latency.
            print!("  UDP rtt ms      :");
            for (i, &size) in UDP_SIZES.iter().enumerate() {
                if row.udp_ms[i].is_none() {
                    print!("  {:>5}({:>5})", "NA", "NA");
                    continue;
                }
                let mut bed = TestBed::new(config, platform, 53 + i as u64);
                bed.set_filter_engine(engine);
                if want_faults {
                    let _plane = bed.attach_fault_plane();
                }
                if let Some(t) = &row_tracer {
                    bed.attach_tracer_handle(t);
                }
                let lat = protolat(&mut bed, Proto::Udp, size, 20, rounds, ApiStyle::Classic);
                print!(
                    "  {:5.2}({:5.2})",
                    lat.rtt.as_millis_f64(),
                    row.udp_ms[i].unwrap_or(0.0)
                );
            }
            println!("\n");
            if let Some(t) = &row_tracer {
                let violations = t.borrow().check_invariants();
                assert!(violations.is_empty(), "trace invariants: {violations:?}");
                if want_stages {
                    println!("  stage latencies (latency runs, all sizes pooled):");
                    for line in t.borrow().stage_report().lines() {
                        println!("  {line}");
                    }
                    println!();
                }
                if trace_out.is_some() {
                    let label = format!("{} | {}", platform.label(), config.label());
                    t.borrow().chrome_events(row_idx, &label, &mut trace_events);
                }
            }
            if let Some(censuses) = &censuses {
                if want_census {
                    for (i, census) in censuses.iter().enumerate() {
                        println!("  census host{i} (ttcp run):");
                        for line in census.borrow().snapshot().lines() {
                            println!("    {line}");
                        }
                    }
                    println!();
                }
                if census_json.is_some() {
                    let hosts: Vec<String> = censuses
                        .iter()
                        .map(|c| c.borrow().snapshot_json())
                        .collect();
                    census_docs.push(format!(
                        "{{\"platform\":\"{}\",\"config\":\"{}\",\"hosts\":[{}]}}",
                        platform.label(),
                        config.label(),
                        hosts.join(",")
                    ));
                }
            }
            row_idx += 1;
        }
        // The §4.1 derived claims.
        println!("-- derived shape checks ({}) --", platform.label());
        let configs = table2_for(platform);
        let tput = |c: psd_systems::SystemConfig| {
            let mut bed = TestBed::new(c, platform, 42);
            bed.set_filter_engine(engine);
            if want_faults {
                let _plane = bed.attach_fault_plane();
            }
            ttcp(&mut bed, bytes, ApiStyle::Classic).kb_per_sec
        };
        use psd_systems::SystemConfig::*;
        if platform == Platform::DecStation5000_200 {
            let kernel = tput(Mach25InKernel);
            let ipc = tput(LibraryIpc);
            let shm = tput(LibraryShm);
            let ipf = tput(LibraryShmIpf);
            let server = tput(UxServer);
            println!(
                "  Library-IPC / In-Kernel   = {:.2}  (paper ≈ 0.85)",
                ipc / kernel
            );
            println!(
                "  Library-SHM / Library-IPC = {:.2}  (paper ≈ 1.18)",
                shm / ipc
            );
            println!(
                "  Library-IPF / In-Kernel   = {:.2}  (paper ≈ 1.02)",
                ipf / kernel
            );
            println!(
                "  Server      / In-Kernel   = {:.2}  (paper ≈ 0.69)",
                server / kernel
            );
        }
        let _ = configs;
        println!();
    }

    if let Some(path) = &trace_out {
        let doc = psd_sim::chrome_trace_document(&trace_events);
        std::fs::write(path, doc).expect("write trace file");
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &census_json {
        let doc = format!("{{\"rows\":[{}]}}\n", census_docs.join(","));
        std::fs::write(path, doc).expect("write census json");
        eprintln!("wrote census snapshot to {path}");
    }
    if profiling {
        observe::print_hot_tables(&profile_runs);
    }
    if let Some(path) = &profile_out {
        let doc = observe::profile_json("table2", &profile_runs);
        std::fs::write(path, doc.write()).expect("write profile json");
        eprintln!("wrote charged-time profile to {path}");
    }
    if let Some(path) = &metrics_out {
        let doc = observe::metrics_rows_json("table2", 42, &metrics_rows);
        std::fs::write(path, doc.write()).expect("write metrics json");
        eprintln!("wrote metrics timeseries to {path}");
    }
}
