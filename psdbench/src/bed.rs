//! One testbed under measurement, and the counter snapshots the
//! per-layer metrics are differenced from.

use std::rc::Rc;

use psd_core::AppHandle;
use psd_filter::DemuxStrategy;
use psd_netstack::StackHandle;
use psd_sim::{CensusHandle, Domain, OpKind, Platform, ProfileHandle, SimTime};
use psd_systems::{SystemConfig, TestBed};

use crate::span::{self, Layer};

/// The platform every workload runs on: the paper's DECstation block.
pub const PLATFORM: Platform = Platform::DecStation5000_200;

/// The five DECstation placements of Table 2 the workloads cover.
pub const PLACEMENTS: [SystemConfig; 5] = [
    SystemConfig::Mach25InKernel,
    SystemConfig::UxServer,
    SystemConfig::LibraryIpc,
    SystemConfig::LibraryShm,
    SystemConfig::LibraryShmIpf,
];

/// A testbed plus what the benchmark attached to it.
pub struct Bed {
    /// The testbed.
    pub tb: TestBed,
    /// Index of this bed in its workload (span tag).
    pub idx: u16,
    /// Demultiplexing strategy of both kernels.
    pub strategy: DemuxStrategy,
    /// Applications spawned on the bed (their stacks hold library-side
    /// protocol state).
    pub apps: Vec<AppHandle>,
    /// Per-host census (instrumented beds only).
    pub census: Option<Vec<CensusHandle>>,
    /// Per-host charged-time profiler (instrumented beds only).
    pub profs: Option<Vec<ProfileHandle>>,
}

impl Bed {
    /// Builds a bed inside a `systems` span. An instrumented bed gets a
    /// census and a profiler on each host before anything runs, so the
    /// profiler's conservation contract covers the bed's whole life.
    pub fn new(
        idx: u16,
        config: SystemConfig,
        seed: u64,
        strategy: DemuxStrategy,
        instrumented: bool,
    ) -> Bed {
        let mut tb = span::span(Layer::Systems, idx, u64::from(idx), || {
            TestBed::new(config, PLATFORM, seed)
        });
        if strategy != DemuxStrategy::Mpf {
            for h in &tb.hosts {
                h.kernel.borrow_mut().set_demux_strategy(strategy);
            }
        }
        let (census, profs) = if instrumented {
            (Some(tb.attach_census()), Some(tb.attach_profilers()))
        } else {
            (None, None)
        };
        Bed {
            tb,
            idx,
            strategy,
            apps: Vec::new(),
            census,
            profs,
        }
    }

    /// Spawns an application on host `h` and remembers it.
    pub fn spawn(&mut self, h: usize) -> AppHandle {
        let app = self.tb.hosts[h].spawn_app();
        self.apps.push(app.clone());
        app
    }

    /// Runs the simulation to `deadline` inside a `sim` span.
    pub fn run_until(&mut self, deadline: SimTime, id: u64) {
        let sim = &mut self.tb.sim;
        span::span(Layer::Sim, self.idx, id, || sim.run_until(deadline));
    }

    /// Runs the simulation to idle inside a `sim` span.
    pub fn settle(&mut self, id: u64) {
        let sim = &mut self.tb.sim;
        span::span(Layer::Sim, self.idx, id, || sim.run_to_idle());
    }

    /// Frames handed to the wire so far.
    pub fn frames(&self) -> u64 {
        self.tb.ether.borrow().stats().tx_frames
    }

    /// Drops counted so far by the kernels, the stacks and the wire.
    pub fn drops(&self) -> u64 {
        let kernel: u64 = self
            .tb
            .hosts
            .iter()
            .map(|h| h.kernel.borrow().stats().drops.total())
            .sum();
        let stacks: u64 = self
            .stacks()
            .iter()
            .map(|s| s.borrow().stats.drops.total())
            .sum();
        kernel + stacks + self.tb.ether.borrow().drops().total()
    }

    /// Every distinct protocol stack on the bed: the OS-side stacks and
    /// the applications' library stacks.
    fn stacks(&self) -> Vec<StackHandle> {
        let mut out: Vec<StackHandle> = self.tb.hosts.iter().map(|h| h.os_stack()).collect();
        for app in &self.apps {
            if let Some(s) = app.borrow().stack() {
                if !out.iter().any(|o| Rc::ptr_eq(o, &s)) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Checks the profiler's exact-conservation contract on every host:
    /// attributed ns equal `Cpu::total_busy`, bit-exactly.
    pub fn profiler_conserved(&self) -> bool {
        let Some(profs) = &self.profs else {
            return true;
        };
        self.tb
            .hosts
            .iter()
            .zip(profs)
            .all(|(h, p)| p.borrow().attributed_ns() == h.cpu.borrow().total_busy().as_nanos())
    }

    /// A snapshot of every counter the per-layer metrics use.
    pub fn counters(&self) -> Counters {
        let ether = self.tb.ether.borrow().stats();
        let mut c = Counters {
            frames: ether.tx_frames,
            tx_bytes: ether.tx_bytes,
            events: self.tb.sim.executed(),
            now_ns: self.tb.sim.now().as_nanos(),
            ..Counters::default()
        };
        for (i, h) in self.tb.hosts.iter().enumerate() {
            let k = h.kernel.borrow().stats();
            c.busy_ns[i] = h.cpu.borrow().total_busy().as_nanos();
            c.rx_frames += k.rx_frames;
            c.rx_session += k.rx_session;
            c.wakeups_amortized += k.wakeups_amortized;
            c.filter_steps += k.filter_steps;
            c.crossings += k.rx_delivery_crossings;
            c.kernel_drops += k.drops.total();
            if let Some(s) = &h.server {
                let s = s.borrow();
                c.server_rpcs += s.stats.rpcs;
                c.migrations_out += s.stats.migrations_out;
            }
        }
        for s in self.stacks() {
            let st = s.borrow().stats;
            c.rexmt += st.tcp_rexmt;
            c.checksum_errors += st.checksum_errors;
        }
        if let Some(census) = &self.census {
            c.checksums = census
                .iter()
                .map(|x| x.borrow().total(OpKind::Checksum))
                .sum();
        }
        if let Some(profs) = &self.profs {
            for p in profs {
                for site in p.borrow().hot_sites() {
                    let d = match site.domain {
                        Domain::Kernel => 0,
                        Domain::Server => 1,
                        Domain::Library => 2,
                    };
                    c.domain_ns[d] += site.ns;
                }
            }
        }
        c
    }
}

/// Counter values at one instant (or, after [`Counters::delta`], over an
/// interval).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// `EtherStats::tx_frames`.
    pub frames: u64,
    /// `EtherStats::tx_bytes`.
    pub tx_bytes: u64,
    /// `Sim::executed`.
    pub events: u64,
    /// Virtual clock, ns.
    pub now_ns: u64,
    /// `Cpu::total_busy` per host, ns.
    pub busy_ns: [u64; 2],
    /// `KernelStats::rx_frames`, both hosts.
    pub rx_frames: u64,
    /// `KernelStats::rx_session`, both hosts.
    pub rx_session: u64,
    /// `KernelStats::wakeups_amortized`, both hosts.
    pub wakeups_amortized: u64,
    /// `KernelStats::filter_steps`, both hosts.
    pub filter_steps: u64,
    /// `KernelStats::rx_delivery_crossings`, both hosts.
    pub crossings: u64,
    /// `KernelStats::drops` total, both hosts.
    pub kernel_drops: u64,
    /// `ServerStats::rpcs`, both hosts.
    pub server_rpcs: u64,
    /// `ServerStats::migrations_out`, both hosts.
    pub migrations_out: u64,
    /// `StackStats::tcp_rexmt` over every stack.
    pub rexmt: u64,
    /// `StackStats::checksum_errors` over every stack.
    pub checksum_errors: u64,
    /// Census `Checksum` ops, both hosts (instrumented beds).
    pub checksums: u64,
    /// Profiler ns by domain (kernel, server, library), both hosts.
    pub domain_ns: [u64; 3],
}

impl Counters {
    /// `self − earlier`, field by field.
    pub fn delta(&self, earlier: &Counters) -> Counters {
        let d = |a: u64, b: u64| a - b;
        Counters {
            frames: d(self.frames, earlier.frames),
            tx_bytes: d(self.tx_bytes, earlier.tx_bytes),
            events: d(self.events, earlier.events),
            now_ns: d(self.now_ns, earlier.now_ns),
            busy_ns: [
                d(self.busy_ns[0], earlier.busy_ns[0]),
                d(self.busy_ns[1], earlier.busy_ns[1]),
            ],
            rx_frames: d(self.rx_frames, earlier.rx_frames),
            rx_session: d(self.rx_session, earlier.rx_session),
            wakeups_amortized: d(self.wakeups_amortized, earlier.wakeups_amortized),
            filter_steps: d(self.filter_steps, earlier.filter_steps),
            crossings: d(self.crossings, earlier.crossings),
            kernel_drops: d(self.kernel_drops, earlier.kernel_drops),
            server_rpcs: d(self.server_rpcs, earlier.server_rpcs),
            migrations_out: d(self.migrations_out, earlier.migrations_out),
            rexmt: d(self.rexmt, earlier.rexmt),
            checksum_errors: d(self.checksum_errors, earlier.checksum_errors),
            checksums: d(self.checksums, earlier.checksums),
            domain_ns: [
                d(self.domain_ns[0], earlier.domain_ns[0]),
                d(self.domain_ns[1], earlier.domain_ns[1]),
                d(self.domain_ns[2], earlier.domain_ns[2]),
            ],
        }
    }

    /// Adds an interval's counters into a running total.
    pub fn accumulate(&mut self, x: &Counters) {
        self.frames += x.frames;
        self.tx_bytes += x.tx_bytes;
        self.events += x.events;
        self.now_ns += x.now_ns;
        self.busy_ns[0] += x.busy_ns[0];
        self.busy_ns[1] += x.busy_ns[1];
        self.rx_frames += x.rx_frames;
        self.rx_session += x.rx_session;
        self.wakeups_amortized += x.wakeups_amortized;
        self.filter_steps += x.filter_steps;
        self.crossings += x.crossings;
        self.kernel_drops += x.kernel_drops;
        self.server_rpcs += x.server_rpcs;
        self.migrations_out += x.migrations_out;
        self.rexmt += x.rexmt;
        self.checksum_errors += x.checksum_errors;
        self.checksums += x.checksums;
        for i in 0..3 {
            self.domain_ns[i] += x.domain_ns[i];
        }
    }
}
