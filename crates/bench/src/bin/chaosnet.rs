//! Seeded multi-hop network-chaos digest for CI determinism gating.
//!
//! Drives one paced TCP echo transfer through the [`MultiHopBed`]
//! diamond (two routers, a learning switch, congested 2 Mb/s middle
//! links) with all six link-fault sites armed and a partition + heal
//! window on the primary middle link, then prints the full run digest:
//! byte counts, per-segment Ethernet stats and drop taxonomies,
//! switch/router stats, and both fault-plane logs.
//!
//! Usage: `cargo run --release -p psd-bench --bin chaosnet -- [--seed N]
//! [--config NAME] [--metrics-out PATH]`
//!
//! `--config` takes the same spellings as `ttcp` (a short name or the
//! paper's row label); the default is Library-SHM.
//!
//! Everything on stdout is deterministic: two runs with the same
//! arguments must be byte-identical. CI runs the bin twice and
//! byte-diffs the outputs. `--metrics-out` attaches the virtual-time
//! gauge plane (switch/router queue depths — including the RED-managed
//! middle-link port — ring occupancy, TCP cwnd/ssthresh/RTO, mbuf pool
//! hit/miss, session counts), samples it every 100 virtual
//! milliseconds, and writes the timeseries JSON. Sampling never
//! charges time or consumes randomness, so stdout stays byte-identical
//! either way.

use psd_bench::cli::{self, Cli};
use psd_bench::Observe;
use psd_core::{AppLib, Fd, FdEventFn};
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{FaultSite, Platform, Rng, SimTime};
use psd_systems::{MultiHopBed, SystemConfig, SEG_MID_PRIMARY};
use std::cell::RefCell;
use std::rc::Rc;

const PATTERN_LEN: usize = 20 * 1024;
const CHUNK: usize = 256;

const CLI: Cli = Cli {
    bin: "chaosnet",
    switches: &[],
    values: &["--seed N", "--config NAME", "--metrics-out PATH"],
    synopsis: None,
};

fn main() -> std::process::ExitCode {
    CLI.run(run)
}

fn run(args: &cli::Args) -> cli::Result<()> {
    let seed = args.num("--seed", 7)?;
    let config = args.config(SystemConfig::LibraryShm)?;
    let mut obs = Observe::from_args(args, "chaosnet", seed);

    let mut bed = MultiHopBed::new(config, Platform::DecStation5000_200, seed);
    // The chaos run covers ~2 virtual minutes; 100 ms sampling keeps
    // the timeseries artifact at ~1.3k rows instead of ~130k.
    obs.watch_metrics(|| bed.attach_metrics(SimTime::from_millis(100)));
    let plane = bed.attach_fault_plane();
    {
        let mut p = plane.borrow_mut();
        p.set_rng(Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        p.arm(FaultSite::WireLoss, 0.004);
        p.arm(FaultSite::WireDuplicate, 0.002);
        p.arm(FaultSite::WireReorder, 0.002);
        p.arm(FaultSite::LinkQueueFull, 0.004);
        p.arm(FaultSite::RouteFlip, 0.08);
    }
    let partition = bed.attach_segment_fault_plane(SEG_MID_PRIMARY);
    partition
        .borrow_mut()
        .set_rng(Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1));

    // Echo service on the far host.
    let rx_app = bed.hosts[1].spawn_app();
    let lfd = AppLib::socket(&rx_app, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&rx_app, &mut bed.sim, lfd, 80).expect("bind");
    AppLib::listen(&rx_app, &mut bed.sim, lfd, 8).expect("listen");
    {
        let app2 = rx_app.clone();
        let conn_handler: FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| match ev {
                SockEvent::Readable | SockEvent::PeerClosed => loop {
                    let mut buf = [0u8; 4096];
                    match AppLib::recv(&app2, sim, fd, &mut buf) {
                        Ok(0) => {
                            AppLib::close(&app2, sim, fd);
                            break;
                        }
                        Ok(n) => {
                            let mut off = 0;
                            while off < n {
                                match AppLib::send(&app2, sim, fd, &buf[off..n]) {
                                    Ok(m) if m > 0 => off += m,
                                    _ => return,
                                }
                            }
                        }
                        Err(SocketError::WouldBlock) => break,
                        Err(_) => {
                            AppLib::close(&app2, sim, fd);
                            break;
                        }
                    }
                },
                SockEvent::Error(_) => AppLib::close(&app2, sim, fd),
                _ => {}
            },
        ));
        let app3 = rx_app.clone();
        let listen_handler: FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| {
                if ev == SockEvent::Readable {
                    while let Ok(conn) = AppLib::accept(&app3, sim, fd) {
                        app3.borrow_mut()
                            .set_event_handler(conn, conn_handler.clone());
                    }
                }
            },
        ));
        rx_app.borrow_mut().set_event_handler(lfd, listen_handler);
    }

    // Client on the near host.
    let tx_app = bed.hosts[0].spawn_app();
    let cfd = AppLib::socket(&tx_app, &mut bed.sim, Proto::Tcp);
    let replies = Rc::new(RefCell::new(Vec::new()));
    let connected = Rc::new(RefCell::new(false));
    {
        let (app2, r2, c2) = (tx_app.clone(), replies.clone(), connected.clone());
        let handler: FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut psd_sim::Sim, fd: Fd, ev: SockEvent| match ev {
                SockEvent::Connected => *c2.borrow_mut() = true,
                SockEvent::Readable => loop {
                    let mut buf = [0u8; 4096];
                    match AppLib::recv(&app2, sim, fd, &mut buf) {
                        Ok(0) => break,
                        Ok(n) => r2.borrow_mut().extend_from_slice(&buf[..n]),
                        Err(_) => break,
                    }
                },
                _ => {}
            },
        ));
        tx_app.borrow_mut().set_event_handler(cfd, handler);
    }
    let dst = InetAddr::new(bed.hosts[1].ip, 80);
    AppLib::connect(&tx_app, &mut bed.sim, cfd, dst).expect("connect");
    let deadline = bed.sim.now() + SimTime::from_secs(60);
    while !*connected.borrow() && bed.sim.now() < deadline {
        bed.run_for(SimTime::from_millis(10));
    }
    assert!(*connected.borrow(), "connect never completed");

    // Paced transfer with a partition + heal window.
    let pattern: Vec<u8> = (0..PATTERN_LEN as u32).map(|i| (i % 239) as u8).collect();
    let t0 = bed.sim.now();
    let window = (t0 + SimTime::from_secs(2), t0 + SimTime::from_secs(8));
    let hard_deadline = t0 + SimTime::from_secs(300);
    let mut sent = 0usize;
    let mut down = false;
    loop {
        let now = bed.sim.now();
        let want_down = now >= window.0 && now < window.1;
        if want_down != down {
            partition
                .borrow_mut()
                .arm(FaultSite::LinkDown, if want_down { 1.0 } else { 0.0 });
            down = want_down;
        }
        if sent < pattern.len() {
            let end = (sent + CHUNK).min(pattern.len());
            if let Ok(n) = AppLib::send(&tx_app, &mut bed.sim, cfd, &pattern[sent..end]) {
                sent += n;
            }
        }
        if replies.borrow().len() >= pattern.len() {
            break;
        }
        assert!(bed.sim.now() < hard_deadline, "transfer hung");
        bed.run_for(SimTime::from_millis(100));
    }
    assert_eq!(replies.borrow().as_slice(), pattern.as_slice(), "corrupted");
    AppLib::close(&tx_app, &mut bed.sim, cfd);
    bed.run_for(SimTime::from_secs(120));

    println!("chaosnet config={} seed={}", config.label(), seed);
    println!(
        "tcp_sent={} tcp_replies={} clock_ns={}",
        sent,
        replies.borrow().len(),
        bed.sim.now().as_nanos()
    );
    const SEG_NAMES: [&str; 5] = ["segA0", "segA1", "segM1", "segM2", "segB"];
    for (name, seg) in SEG_NAMES.iter().zip(&bed.segments) {
        let s = seg.borrow();
        println!(
            "{name}={:?} drops={:?}",
            s.stats(),
            s.drops().nonzero().collect::<Vec<_>>()
        );
    }
    {
        let s = bed.switch.borrow();
        println!(
            "switch={:?} drops={:?}",
            s.stats(),
            s.drops().nonzero().collect::<Vec<_>>()
        );
    }
    for (i, r) in bed.routers.iter().enumerate() {
        let r = r.borrow();
        println!(
            "router{}={:?} drops={:?}",
            i + 1,
            r.stats(),
            r.drops().nonzero().collect::<Vec<_>>()
        );
    }
    println!(
        "injected={}",
        plane.borrow().total_injected() + partition.borrow().total_injected()
    );
    println!("plane:\n{}", plane.borrow().snapshot());
    println!("partition:\n{}", partition.borrow().snapshot());

    obs.finish()
}
