//! The simulator self-benchmark: how fast is the harness itself?
//!
//! The paper's scaling argument is asymptotic, so the reproduction's
//! reach is capped by the *simulator's* wall-clock speed, not the
//! modeled systems'. This module measures that speed on two axes and
//! emits the `BENCH_*.json` artifact the CI regression gate pins:
//!
//! 1. **Engine microbenchmark.** N resident keepalive timers with
//!    cancel/reschedule churn — the queue access pattern a large
//!    session count produces — run on both the timer-wheel engine
//!    ([`psd_sim::Sim`]) and the retained pre-rework heap engine
//!    ([`psd_sim::BaselineQueue`]), same schedule, same process. The
//!    wheel:baseline events/sec ratio is the honest speedup number.
//! 2. **Packet stage.** The Table 5 session-scaling workload across the
//!    five DECstation placements at N ∈ {4k, 64k, 256k} sessions.
//!    Real sockets are bounded by the 16-bit port space, so counts
//!    beyond [`MAX_SOCKET_SESSIONS`] are carried by timer-only ballast
//!    sessions (see [`WorkloadSpec::ballast_timers`]); the reported
//!    events/sec and ns per simulated packet measure the whole
//!    simulator under that load. Peak RSS comes from `VmHWM` in
//!    `/proc/self/status` (a process-lifetime high-water mark, so rows
//!    are measured in increasing-N order and later rows include earlier
//!    peaks).
//!
//! Every count in the artifact is deterministic for a given seed; only
//! the `wall_ms` / `*_per_sec` / `ns_per_*` / RSS fields depend on the
//! machine. `--quick` shrinks the matrix for CI while keeping the
//! 64k-timer engine row the regression gate compares.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use psd_filter::DemuxStrategy;
use psd_sim::{BaselineHandle, BaselineQueue, Platform, Sim, SimHandle, SimTime};
use psd_systems::SystemConfig;

use crate::json::{normalize_volatile, Json};
use crate::scaling::{session_scaling, WorkloadSpec};
use crate::Observe;

/// Sessions backed by real sockets; the rest of a row's session count
/// is timer ballast. Bounded well inside the 16-bit receiver port space
/// and the quadratic-setup regime.
pub const MAX_SOCKET_SESSIONS: usize = 4096;

/// Seed for every selfbench run (engine schedules and workloads).
pub const SEED: u64 = 42;

/// JSON members that legitimately differ between same-seed runs.
pub const VOLATILE_FIELDS: &[&str] = &[
    "wall_ms",
    "events_per_sec",
    "ns_per_event",
    "ns_per_sim_packet",
    "speedup",
    "peak_rss_kb",
    "rss_kb",
];

/// The five DECstation placements of the paper's Table 5 matrix.
pub const PLACEMENTS: [SystemConfig; 5] = [
    SystemConfig::Mach25InKernel,
    SystemConfig::UxServer,
    SystemConfig::LibraryIpc,
    SystemConfig::LibraryShm,
    SystemConfig::LibraryShmIpf,
];

/// One engine-microbenchmark measurement.
#[derive(Clone, Copy, Debug)]
pub struct EngineRow {
    /// Resident timers.
    pub timers: usize,
    /// Events executed (deterministic).
    pub events: u64,
    /// Wall-clock nanoseconds for the measured run.
    pub wall_ns: u128,
}

impl EngineRow {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// One packet-stage measurement.
#[derive(Clone, Debug)]
pub struct PacketRow {
    /// The placement under test.
    pub config: SystemConfig,
    /// Total sessions modeled (sockets + ballast).
    pub sessions: usize,
    /// Sessions backed by real sockets.
    pub socket_sessions: usize,
    /// Timer-only ballast sessions.
    pub ballast: usize,
    /// Frames the receiving kernel demultiplexed (deterministic).
    pub packets_rx: u64,
    /// Simulator events executed in the burst phase (deterministic).
    pub events: u64,
    /// Wall-clock nanoseconds of the burst phase.
    pub wall_ns: u128,
    /// `VmHWM` after the run, in KB (0 if unreadable).
    pub peak_rss_kb: u64,
    /// `VmRSS` after the run, in KB (0 if unreadable).
    pub rss_kb: u64,
}

impl PacketRow {
    /// Burst events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Wall-clock nanoseconds per simulated (received) packet.
    pub fn ns_per_sim_packet(&self) -> f64 {
        self.wall_ns as f64 / self.packets_rx as f64
    }
}

/// A complete self-benchmark result.
#[derive(Clone, Debug)]
pub struct SelfBench {
    /// True when run with the reduced `--quick` matrix.
    pub quick: bool,
    /// Heap-engine rows, by timer count.
    pub baseline: Vec<EngineRow>,
    /// Wheel-engine rows, by timer count.
    pub wheel: Vec<EngineRow>,
    /// Packet-stage rows in measurement order (increasing N).
    pub packet: Vec<PacketRow>,
}

/// Reads a `VmHWM`/`VmRSS`-style field from `/proc/self/status` in KB.
fn proc_status_kb(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            if let Some(kb) = rest.strip_suffix(" kB") {
                return kb.trim().parse().unwrap_or(0);
            }
        }
    }
    0
}

/// The timer period for ballast slot `i` of `n`: 1–250 ms, spread
/// deterministically so expiries land across wheel levels.
fn period_ns(i: usize) -> u64 {
    1_000_000 + (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 249_000_000
}

/// Runs the engine microbenchmark on the timer-wheel engine: `n`
/// resident timers; each firing re-arms itself and *resets* a
/// pseudo-random neighbor's timer — cancel plus re-arm, the operation a
/// TCP stack performs on its retransmit timer for every ACK it receives
/// (the workload hierarchical wheels were designed for). Executes
/// `events` events.
pub fn engine_micro_wheel(n: usize, events: u64) -> EngineRow {
    let mut sim = Sim::new(SEED);
    let handles: Rc<RefCell<Vec<SimHandle>>> = Rc::new(RefCell::new(Vec::with_capacity(n)));

    fn arm(sim: &mut Sim, i: usize, n: usize, handles: &Rc<RefCell<Vec<SimHandle>>>) -> SimHandle {
        let handles = handles.clone();
        sim.after(SimTime::from_nanos(period_ns(i)), move |s| {
            let fired = s.executed();
            let h = arm(s, i, n, &handles);
            handles.borrow_mut()[i] = h;
            // Reset a neighbor's timer, as an ACK resets retransmit.
            let j = (i.wrapping_mul(2_654_435_761) ^ fired as usize) % n;
            let old = handles.borrow()[j];
            s.cancel(old);
            let h = arm(s, j, n, &handles);
            handles.borrow_mut()[j] = h;
        })
    }

    for i in 0..n {
        let h = arm(&mut sim, i, n, &handles);
        handles.borrow_mut().push(h);
    }
    let t0 = Instant::now();
    let ran = sim.run(events);
    let wall_ns = t0.elapsed().as_nanos();
    assert_eq!(ran, events, "self-rearming timers cannot run dry");
    EngineRow {
        timers: n,
        events: ran,
        wall_ns,
    }
}

/// The identical microbenchmark on the retained pre-rework heap engine.
pub fn engine_micro_baseline(n: usize, events: u64) -> EngineRow {
    let mut q = BaselineQueue::new();
    let handles: Rc<RefCell<Vec<BaselineHandle>>> = Rc::new(RefCell::new(Vec::with_capacity(n)));

    fn arm(
        q: &mut BaselineQueue,
        i: usize,
        n: usize,
        handles: &Rc<RefCell<Vec<BaselineHandle>>>,
    ) -> BaselineHandle {
        let handles = handles.clone();
        q.after(SimTime::from_nanos(period_ns(i)), move |s| {
            let fired = s.executed();
            let h = arm(s, i, n, &handles);
            handles.borrow_mut()[i] = h;
            let j = (i.wrapping_mul(2_654_435_761) ^ fired as usize) % n;
            let old = handles.borrow()[j];
            s.cancel(old);
            let h = arm(s, j, n, &handles);
            handles.borrow_mut()[j] = h;
        })
    }

    for i in 0..n {
        let h = arm(&mut q, i, n, &handles);
        handles.borrow_mut().push(h);
    }
    let t0 = Instant::now();
    let ran = q.run(events);
    let wall_ns = t0.elapsed().as_nanos();
    assert_eq!(ran, events, "self-rearming timers cannot run dry");
    EngineRow {
        timers: n,
        events: ran,
        wall_ns,
    }
}

/// Runs one packet-stage row.
pub fn packet_row(config: SystemConfig, sessions: usize, packets: usize) -> PacketRow {
    let socket_sessions = sessions.min(MAX_SOCKET_SESSIONS);
    let ballast = sessions - socket_sessions;
    let spec = WorkloadSpec::at_scale(socket_sessions, packets, SEED).with_ballast(ballast);
    let report = session_scaling(
        config,
        Platform::DecStation5000_200,
        DemuxStrategy::Mpf,
        &spec,
        &mut Observe::default(),
    );
    PacketRow {
        config,
        sessions,
        socket_sessions,
        ballast,
        packets_rx: report.packets_rx,
        events: report.events,
        wall_ns: report.wall_burst.as_nanos(),
        peak_rss_kb: proc_status_kb("VmHWM"),
        rss_kb: proc_status_kb("VmRSS"),
    }
}

/// Runs the full (or `--quick`) self-benchmark.
pub fn run(quick: bool) -> SelfBench {
    // 65_536 must appear in both modes: it is the row the CI gate and
    // the ≥3× acceptance criterion read.
    let timer_counts: &[usize] = if quick {
        &[65_536]
    } else {
        &[4_096, 65_536, 262_144]
    };
    let session_counts: &[usize] = if quick {
        &[4_096]
    } else {
        &[4_096, 65_536, 262_144]
    };
    let packets = if quick { 64 } else { 512 };
    let events_per_timer: u64 = if quick { 2 } else { 4 };

    let mut baseline = Vec::new();
    let mut wheel = Vec::new();
    for &n in timer_counts {
        let events = (n as u64) * events_per_timer;
        baseline.push(engine_micro_baseline(n, events));
        wheel.push(engine_micro_wheel(n, events));
    }

    let mut packet = Vec::new();
    let placements: &[SystemConfig] = if quick { &PLACEMENTS[..2] } else { &PLACEMENTS };
    // Increasing N so each row's VmHWM reflects its own high-water mark
    // as closely as a monotonic counter allows.
    for &sessions in session_counts {
        for &config in placements {
            packet.push(packet_row(config, sessions, packets));
        }
    }

    SelfBench {
        quick,
        baseline,
        wheel,
        packet,
    }
}

impl SelfBench {
    /// The wheel:baseline events/sec ratio at `timers`, if both rows
    /// exist.
    pub fn speedup_at(&self, timers: usize) -> Option<f64> {
        let w = self.wheel.iter().find(|r| r.timers == timers)?;
        let b = self.baseline.iter().find(|r| r.timers == timers)?;
        Some(w.events_per_sec() / b.events_per_sec())
    }

    /// A deterministic signature of the run: every count that must be
    /// identical between two same-seed executions.
    pub fn deterministic_signature(&self) -> String {
        let mut sig = String::new();
        for r in self.baseline.iter().chain(self.wheel.iter()) {
            sig.push_str(&format!("engine:{}:{};", r.timers, r.events));
        }
        for r in &self.packet {
            sig.push_str(&format!(
                "packet:{:?}:{}:{}:{};",
                r.config, r.sessions, r.packets_rx, r.events
            ));
        }
        sig
    }

    /// Serializes the artifact (see `BENCH.schema.json`).
    pub fn to_json(&self) -> Json {
        let engine_rows = |rows: &[EngineRow]| {
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("timers", Json::Num(r.timers as f64)),
                            ("events", Json::Num(r.events as f64)),
                            ("wall_ms", Json::Num(r.wall_ns as f64 / 1e6)),
                            ("events_per_sec", Json::Num(r.events_per_sec())),
                            (
                                "ns_per_event",
                                Json::Num(r.wall_ns as f64 / r.events as f64),
                            ),
                        ])
                    })
                    .collect(),
            )
        };
        let packet_rows = Json::Arr(
            self.packet
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("placement", Json::str(format!("{:?}", r.config))),
                        ("sessions", Json::Num(r.sessions as f64)),
                        ("socket_sessions", Json::Num(r.socket_sessions as f64)),
                        ("ballast", Json::Num(r.ballast as f64)),
                        ("packets_rx", Json::Num(r.packets_rx as f64)),
                        ("events", Json::Num(r.events as f64)),
                        ("wall_ms", Json::Num(r.wall_ns as f64 / 1e6)),
                        ("events_per_sec", Json::Num(r.events_per_sec())),
                        ("ns_per_sim_packet", Json::Num(r.ns_per_sim_packet())),
                        ("peak_rss_kb", Json::Num(r.peak_rss_kb as f64)),
                        ("rss_kb", Json::Num(r.rss_kb as f64)),
                    ])
                })
                .collect(),
        );
        let mut engine = vec![
            ("baseline", engine_rows(&self.baseline)),
            ("wheel", engine_rows(&self.wheel)),
        ];
        if let Some(s) = self.speedup_at(65_536) {
            engine.push(("speedup", Json::Num(s)));
        }
        Json::obj(vec![
            ("version", Json::Num(1.0)),
            ("bench", Json::str("selfbench")),
            ("seed", Json::Num(SEED as f64)),
            ("quick", Json::Bool(self.quick)),
            ("engine", Json::obj(engine)),
            ("packet", packet_rows),
        ])
    }

    /// The human-readable table printed to stdout.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("==== Simulator self-benchmark ====\n");
        out.push_str(&format!(
            "seed {SEED}; engine micro: resident timers, per-event neighbor reset (cancel + re-arm){}\n\n",
            if self.quick { " [quick]" } else { "" }
        ));
        out.push_str("engine         timers      events     events/sec   ns/event\n");
        for (name, rows) in [("heap (old)", &self.baseline), ("wheel", &self.wheel)] {
            for r in rows {
                out.push_str(&format!(
                    "{name:<12} {:>8} {:>11} {:>14.0} {:>10.1}\n",
                    r.timers,
                    r.events,
                    r.events_per_sec(),
                    r.wall_ns as f64 / r.events as f64,
                ));
            }
        }
        if let Some(s) = self.speedup_at(65_536) {
            out.push_str(&format!("\nwheel speedup at 64k timers: {s:.2}x\n"));
        }
        out.push_str(
            "\nplacement            sessions (sock+ballast)  events/sec  ns/sim-pkt  peakRSS MB\n",
        );
        for r in &self.packet {
            out.push_str(&format!(
                "{:<22?} {:>7} ({:>4}+{:>6}) {:>11.0} {:>11.0} {:>9.1}\n",
                r.config,
                r.sessions,
                r.socket_sessions,
                r.ballast,
                r.events_per_sec(),
                r.ns_per_sim_packet(),
                r.peak_rss_kb as f64 / 1024.0,
            ));
        }
        out
    }
}

/// Normalizes an artifact for same-seed comparison (zeroes the
/// wall-clock-derived fields).
pub fn normalized_text(artifact: &Json) -> String {
    let mut copy = artifact.clone();
    normalize_volatile(&mut copy, VOLATILE_FIELDS);
    copy.write()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_micro_is_deterministic_in_counts() {
        let a = engine_micro_wheel(512, 2048);
        let b = engine_micro_wheel(512, 2048);
        assert_eq!(a.events, b.events);
        let base = engine_micro_baseline(512, 2048);
        assert_eq!(base.events, a.events, "both engines run the same count");
    }

    #[test]
    fn speedup_reads_the_64k_row() {
        let bench = SelfBench {
            quick: true,
            baseline: vec![EngineRow {
                timers: 65_536,
                events: 100,
                wall_ns: 3_000,
            }],
            wheel: vec![EngineRow {
                timers: 65_536,
                events: 100,
                wall_ns: 1_000,
            }],
            packet: Vec::new(),
        };
        let s = bench.speedup_at(65_536).unwrap();
        assert!((s - 3.0).abs() < 1e-9);
    }

    /// The artifact this module writes carries the row
    /// `benchdiff --check` gates on, and a slowdown trips the gate.
    #[test]
    fn regression_gate_trips_on_slowdown() {
        let fast = SelfBench {
            quick: true,
            baseline: Vec::new(),
            wheel: vec![EngineRow {
                timers: 65_536,
                events: 1_000,
                wall_ns: 1_000_000,
            }],
            packet: Vec::new(),
        };
        let mut slow = fast.clone();
        slow.wheel[0].wall_ns = 2_000_000; // half the events/sec
        let committed = fast.to_json();
        let gate = |measured: &SelfBench| {
            crate::benchdiff::check(&committed, &measured.to_json(), 0.2, None)
        };
        assert!(gate(&fast).is_ok());
        assert!(gate(&slow).is_err());
    }
}
