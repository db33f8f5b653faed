//! `demux`: one Library-SHM-IPF receiver holding 4096 UDP sessions
//! (every fourth one connected) and 32 TCP sessions, fed by an
//! open-loop seeded generator, under both demultiplexing strategies.
//!
//! Each pass runs a CSPF leg and an MPF leg on their own beds. A leg
//! sends bursts of 1–8 64-byte datagrams to seeded target sessions, one
//! burst every 100–500 µs of virtual time, whether or not the system
//! kept up; each datagram's latency is taken from when it was due. The
//! leg then runs its bed to idle and checks that every datagram reached
//! its target session exactly once, or was dropped and counted by a
//! layer's drop counters.

use std::cell::RefCell;
use std::rc::Rc;

use psd_bench::tables::{table2_decstation, UDP_SIZES};
use psd_core::{AppHandle, AppLib, Fd, FdEventFn};
use psd_filter::DemuxStrategy;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{Rng, Sim, SimTime};
use psd_systems::SystemConfig;

use crate::bed::Bed;
use crate::calls::{control, data, Pattern, Tally};
use crate::rpc;
use crate::span;
use crate::workload::{PaperCell, Workload};

/// UDP sessions on the receiving host.
pub const SESSIONS: usize = 4096;
/// TCP sessions riding along.
pub const TCP_SESSIONS: usize = 32;
/// Datagram payload bytes.
pub const PAYLOAD: usize = 64;
/// Datagrams per pass on the CSPF leg.
pub const CSPF_PER_PASS: usize = 40;
/// Datagrams per pass on the MPF leg.
pub const MPF_PER_PASS: usize = 1280;
const TX_SOCKS: usize = 4;
const TX_PORT_BASE: u16 = 9000;
const RX_PORT_BASE: u16 = 10_000;
const TCP_PORT: u16 = 20_000;
/// Port of the receiver's sink session, the target of ARP warm-ups.
const WARM_PORT: u16 = 9;
/// Virtual time a leg may take, at most, before the sender's ARP entry
/// must be renewed (a CSPF leg takes about 9 s).
const ARP_MARGIN: SimTime = SimTime::from_secs(60);
/// Header bytes before the seeded filler: datagram index, target.
const HEADER: usize = 12;

/// Per-pass delivery record of one leg.
struct Ledger {
    bed: u16,
    /// Index of the pass's first datagram.
    base: u64,
    /// Due time (virtual ns) per datagram of the pass.
    due: Vec<u64>,
    /// Receipts per datagram of the pass.
    got: Vec<u32>,
}

struct Leg {
    tx_app: AppHandle,
    tx_fds: Vec<Fd>,
    /// `(destination port, pinned sender socket)` per session.
    targets: Vec<(u16, Option<usize>)>,
    ledger: Rc<RefCell<Ledger>>,
    per_pass: usize,
    next_idx: u64,
}

/// The demux workload.
pub struct Demux {
    beds: Vec<Bed>,
    legs: Vec<Leg>,
    rng: Rng,
    pat: Rc<Pattern>,
    tally: Rc<Tally>,
    sessions: u64,
    paper: Vec<PaperCell>,
    /// Generator lateness per burst (virtual ns behind schedule).
    lag_ns: Vec<u64>,
}

fn payload(pat: &Pattern, idx: u64, target: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(PAYLOAD);
    p.extend_from_slice(&idx.to_le_bytes());
    p.extend_from_slice(&target.to_le_bytes());
    p.extend_from_slice(pat.at(idx * PAYLOAD as u64, PAYLOAD - HEADER));
    p
}

/// Drains session `k`'s socket, checking each datagram against the
/// ledger.
fn receive(
    app: &AppHandle,
    sim: &mut Sim,
    fd: Fd,
    k: u32,
    ledger: &Rc<RefCell<Ledger>>,
    pat: &Pattern,
    t: &Tally,
) {
    let bed = ledger.borrow().bed;
    let mut buf = [0u8; 2048];
    loop {
        let n = match data(t, bed, u64::MAX, || {
            AppLib::recvfrom(app, sim, fd, &mut buf)
        }) {
            Ok((n, _)) => n,
            Err(SocketError::WouldBlock) => return,
            Err(e) => {
                t.violation(format!("demux bed {bed}: session {k} recv failed: {e}"));
                return;
            }
        };
        let idx = u64::from_le_bytes(buf[..8].try_into().unwrap());
        span::tag_last(idx);
        let target = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let mut l = ledger.borrow_mut();
        let slot = idx.wrapping_sub(l.base) as usize;
        if n != PAYLOAD || slot >= l.got.len() {
            t.violation(format!(
                "demux bed {bed}: session {k} got a stray {n}-byte datagram"
            ));
            continue;
        }
        if target != k || buf[HEADER..n] != *pat.at(idx * PAYLOAD as u64, PAYLOAD - HEADER) {
            t.violation(format!(
                "demux bed {bed}: datagram {idx} for session {target} reached session {k} or was corrupted"
            ));
        }
        l.got[slot] += 1;
        if l.got[slot] > 1 {
            t.violation(format!("demux bed {bed}: datagram {idx} delivered twice"));
        }
        t.latency(sim.now().as_nanos() - l.due[slot]);
    }
}

impl Leg {
    /// Builds one leg's bed and stands up every session on it.
    fn setup(
        idx: u16,
        seed: u64,
        strategy: DemuxStrategy,
        per_pass: usize,
        instrumented: bool,
        pat: &Rc<Pattern>,
        tally: &Rc<Tally>,
    ) -> (Bed, Leg) {
        let mut bed = Bed::new(
            idx,
            SystemConfig::LibraryShmIpf,
            seed,
            strategy,
            instrumented,
        );
        let i = idx;
        // Sender: a few fixed source sockets.
        let tx_app = bed.spawn(0);
        let mut tx_fds = Vec::with_capacity(TX_SOCKS);
        for j in 0..TX_SOCKS {
            let sim = &mut bed.tb.sim;
            let fd = control(i, 0, || AppLib::socket(&tx_app, sim, Proto::Udp));
            if let Err(e) = control(i, 0, || {
                AppLib::bind(&tx_app, sim, fd, TX_PORT_BASE + j as u16)
            }) {
                tally.violation(format!("demux bed {i}: sender bind: {e}"));
            }
            tx_fds.push(fd);
        }
        // Receiver: a sink session on the warm-up port, then the UDP
        // sessions, mixed wildcard and connected.
        let rx_app = bed.spawn(1);
        {
            let sim = &mut bed.tb.sim;
            let fd = control(i, 0, || AppLib::socket(&rx_app, sim, Proto::Udp));
            if let Err(e) = control(i, 0, || AppLib::bind(&rx_app, sim, fd, WARM_PORT)) {
                tally.violation(format!("demux bed {i}: sink bind: {e}"));
            }
            let (app, t) = (Rc::downgrade(&rx_app), tally.clone());
            let handler: FdEventFn =
                Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
                    let Some(app) = app.upgrade() else { return };
                    let mut buf = [0u8; 64];
                    while ev == SockEvent::Readable
                        && data(&t, i, 0, || AppLib::recvfrom(&app, sim, fd, &mut buf)).is_ok()
                    {
                    }
                }));
            rx_app.borrow_mut().set_event_handler(fd, handler);
        }
        let ledger = Rc::new(RefCell::new(Ledger {
            bed: i,
            base: 0,
            due: Vec::new(),
            got: Vec::new(),
        }));
        let mut targets = Vec::with_capacity(SESSIONS);
        let mut rx_fds = Vec::with_capacity(SESSIONS);
        for k in 0..SESSIONS {
            let sim = &mut bed.tb.sim;
            let fd = control(i, k as u64, || AppLib::socket(&rx_app, sim, Proto::Udp));
            let res = if k % 4 == 3 {
                let j = (k / 4) % TX_SOCKS;
                let remote = InetAddr::new(bed.tb.hosts[0].ip, TX_PORT_BASE + j as u16);
                targets.push((0, Some(j)));
                control(i, k as u64, || AppLib::connect(&rx_app, sim, fd, remote))
            } else {
                let port = RX_PORT_BASE + k as u16;
                targets.push((port, None));
                control(i, k as u64, || AppLib::bind(&rx_app, sim, fd, port))
            };
            if let Err(e) = res {
                tally.violation(format!("demux bed {i}: session {k}: {e}"));
            }
            let (app, l, p, t) = (
                Rc::downgrade(&rx_app),
                ledger.clone(),
                pat.clone(),
                tally.clone(),
            );
            let handler: FdEventFn =
                Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
                    let Some(app) = app.upgrade() else { return };
                    if ev == SockEvent::Readable {
                        receive(&app, sim, fd, k as u32, &l, &p, &t);
                    }
                }));
            rx_app.borrow_mut().set_event_handler(fd, handler);
            rx_fds.push(fd);
        }
        bed.settle(0);
        for (k, fd) in rx_fds.iter().enumerate() {
            if targets[k].1.is_some() {
                match rx_app.borrow().local_addr(*fd) {
                    Some(a) => targets[k].0 = a.port,
                    None => {
                        tally.violation(format!("demux bed {i}: session {k} has no local port"))
                    }
                }
            }
        }

        // TCP sessions ride along, adding connected TCP filters.
        let accepted = Rc::new(RefCell::new(0usize));
        {
            let sim = &mut bed.tb.sim;
            let listener = control(i, 0, || AppLib::socket(&rx_app, sim, Proto::Tcp));
            let res =
                control(i, 0, || AppLib::bind(&rx_app, sim, listener, TCP_PORT)).and_then(|()| {
                    control(i, 0, || {
                        AppLib::listen(&rx_app, sim, listener, TCP_SESSIONS)
                    })
                });
            if let Err(e) = res {
                tally.violation(format!("demux bed {i}: tcp listener: {e}"));
            }
            let (app, accepted) = (Rc::downgrade(&rx_app), accepted.clone());
            let handler: FdEventFn =
                Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
                    let Some(app) = app.upgrade() else { return };
                    if ev == SockEvent::Readable {
                        while control(i, 0, || AppLib::accept(&app, sim, fd)).is_ok() {
                            *accepted.borrow_mut() += 1;
                        }
                    }
                }));
            rx_app.borrow_mut().set_event_handler(listener, handler);
            let dst = InetAddr::new(bed.tb.hosts[1].ip, TCP_PORT);
            for c in 0..TCP_SESSIONS {
                let fd = control(i, c as u64, || AppLib::socket(&tx_app, sim, Proto::Tcp));
                if let Err(e) = control(i, c as u64, || AppLib::connect(&tx_app, sim, fd, dst)) {
                    tally.violation(format!("demux bed {i}: tcp connect: {e}"));
                }
            }
        }
        let cap = bed.tb.sim.now() + SimTime::from_secs(120);
        let mut chunk = 0;
        while *accepted.borrow() < TCP_SESSIONS && bed.tb.sim.now() < cap {
            let deadline = bed.tb.sim.now() + SimTime::from_millis(50);
            bed.run_until(deadline, chunk);
            chunk += 1;
        }
        if *accepted.borrow() != TCP_SESSIONS {
            tally.violation(format!(
                "demux bed {i}: only {} tcp sessions",
                accepted.borrow()
            ));
        }
        bed.settle(0);
        let leg = Leg {
            tx_app,
            tx_fds,
            targets,
            ledger,
            per_pass,
            next_idx: 0,
        };
        leg.warm(&mut bed, tally);
        (bed, leg)
    }

    /// Makes sure the sender's ARP entry for the receiver outlives the
    /// coming leg. Entries expire [`psd_netstack::arp::ARP_TTL`] after
    /// they were learned, not after their last use, and a library stack
    /// that misses drops the datagram while the server resolves. An
    /// entry that expired during a burst would drop the rest of the
    /// burst, because the backlogged receiver answers ARP late. So when
    /// the entry would expire within [`ARP_MARGIN`], the bed idles until
    /// it has, and up to two datagrams to the sink session learn it
    /// afresh. The first may be dropped while the server resolves.
    fn warm(&self, bed: &mut Bed, t: &Tally) {
        let ip = bed.tb.hosts[1].ip;
        let stack = self.tx_app.borrow().stack().expect("library stack");
        let valid_at = |at: SimTime| stack.borrow().arp.lookup(ip, at).is_some();
        if valid_at(bed.tb.sim.now() + ARP_MARGIN) {
            return;
        }
        let i = bed.idx;
        if valid_at(bed.tb.sim.now()) {
            let deadline = bed.tb.sim.now() + ARP_MARGIN;
            bed.run_until(deadline, 0);
        }
        let to = Some(InetAddr::new(ip, WARM_PORT));
        for _ in 0..2 {
            let sim = &mut bed.tb.sim;
            if let Err(e) = data(t, i, 0, || {
                AppLib::sendto(&self.tx_app, sim, self.tx_fds[0], b"warm", to)
            }) {
                t.violation(format!("demux bed {i}: warm-up send: {e}"));
            }
            bed.settle(0);
            if valid_at(bed.tb.sim.now() + ARP_MARGIN) {
                return;
            }
        }
        t.violation(format!(
            "demux bed {i}: sender could not resolve the receiver"
        ));
    }

    /// One open-loop burst train, then a drain and the delivery check.
    fn run(&mut self, bed: &mut Bed, rng: &mut Rng, pat: &Pattern, t: &Tally, lag: &mut Vec<u64>) {
        let i = bed.idx;
        let n = self.per_pass;
        let base = self.next_idx;
        {
            let mut l = self.ledger.borrow_mut();
            l.base = base;
            l.due.clear();
            l.got.clear();
            l.got.resize(n, 0);
        }
        self.warm(bed, t);
        let drops0 = bed.drops();
        let dst_ip = bed.tb.hosts[1].ip;
        let mut due = bed.tb.sim.now().as_nanos();
        let mut sent = 0;
        let mut chunk = 0;
        while sent < n {
            if bed.tb.sim.now().as_nanos() < due {
                bed.run_until(SimTime::from_nanos(due), chunk);
                chunk += 1;
            }
            lag.push(bed.tb.sim.now().as_nanos() - due);
            let burst = (1 + rng.below(8) as usize).min(n - sent);
            for _ in 0..burst {
                let idx = base + sent as u64;
                let k = rng.below(self.targets.len() as u64) as usize;
                let (port, pinned) = self.targets[k];
                let j = pinned.unwrap_or_else(|| rng.below(TX_SOCKS as u64) as usize);
                let msg = payload(pat, idx, k as u32);
                let to = Some(InetAddr::new(dst_ip, port));
                self.ledger.borrow_mut().due.push(due);
                t.attempt();
                loop {
                    let sim = &mut bed.tb.sim;
                    let fd = self.tx_fds[j];
                    match data(t, i, idx, || {
                        AppLib::sendto(&self.tx_app, sim, fd, &msg, to)
                    }) {
                        Ok(_) => break,
                        Err(SocketError::WouldBlock) => {
                            let deadline = bed.tb.sim.now() + SimTime::from_millis(1);
                            bed.run_until(deadline, chunk);
                            chunk += 1;
                        }
                        Err(e) => {
                            t.violation(format!("demux bed {i}: send of datagram {idx}: {e}"));
                            break;
                        }
                    }
                }
                sent += 1;
            }
            due += rng.range(100_000, 500_000);
        }
        bed.settle(chunk);
        self.next_idx += n as u64;
        let drops = bed.drops() - drops0;
        let lost = self.ledger.borrow().got.iter().filter(|&&g| g == 0).count() as u64;
        for _ in 0..lost {
            t.fail();
        }
        if lost > drops {
            t.violation(format!(
                "demux bed {i}: {lost} datagrams lost but only {drops} drops counted"
            ));
        }
    }
}

impl Demux {
    /// Builds the CSPF and MPF beds and stands up every session.
    pub fn setup(seed: u64, instrumented: bool) -> Demux {
        let pat = Rc::new(Pattern::new(seed, 65_521, 2048));
        let tally = Rc::new(Tally::default());
        let mut beds = Vec::new();
        let mut legs = Vec::new();
        for (idx, (strategy, per_pass)) in [
            (DemuxStrategy::Cspf, CSPF_PER_PASS),
            (DemuxStrategy::Mpf, MPF_PER_PASS),
        ]
        .into_iter()
        .enumerate()
        {
            let (bed, leg) = Leg::setup(
                idx as u16,
                seed,
                strategy,
                per_pass,
                instrumented,
                &pat,
                &tally,
            );
            beds.push(bed);
            legs.push(leg);
        }
        Demux {
            beds,
            legs,
            rng: Rng::new(seed ^ 0xDE3D_0000_5EED_0001),
            pat,
            tally,
            sessions: 2 * (SESSIONS + TX_SOCKS + 2 * TCP_SESSIONS + 2) as u64,
            paper: Vec::new(),
            lag_ns: Vec::new(),
        }
    }
}

impl Workload for Demux {
    /// Measures Table 2's Library-SHM-IPF UDP round trips on the loaded
    /// MPF bed: with per-session demultiplexing, 4096 installed sessions
    /// should leave them near the paper's two-session numbers (§3.1).
    fn prepare(&mut self) {
        let bed = &mut self.beds[1];
        let row = table2_decstation()
            .into_iter()
            .find(|r| r.config == SystemConfig::LibraryShmIpf)
            .expect("Table 2 row");
        for (c, &size) in UDP_SIZES.iter().enumerate() {
            let port = rpc::PORT + c as u16;
            let mut lane = rpc::Lane::new(bed, Proto::Udp, size, port, &self.pat, &self.tally);
            lane.visit(bed, 0);
            self.sessions += 2;
            if let (Some(rtt), Some(paper)) = (lane.rtt, row.udp_ms[c]) {
                self.paper.push(PaperCell {
                    label: format!(
                        "Library-SHM-IPF, {SESSIONS} sessions, MPF | UDP {size} B rtt ms"
                    ),
                    measured: rtt.as_millis_f64(),
                    paper,
                });
            }
        }
    }

    fn lag_ns(&self) -> &[u64] {
        &self.lag_ns
    }

    fn beds(&self) -> &[Bed] {
        &self.beds
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn sessions(&self) -> u64 {
        self.sessions
    }

    fn pass(&mut self, _pass: u64) {
        for (leg, bed) in self.legs.iter_mut().zip(&mut self.beds) {
            leg.run(bed, &mut self.rng, &self.pat, &self.tally, &mut self.lag_ns);
        }
    }

    fn paper_cells(&self) -> Vec<PaperCell> {
        self.paper.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_never_straddles_an_arp_expiry() {
        let mut w = Demux::setup(3, false);
        let bed = &mut w.beds[0];
        let ip = bed.tb.hosts[1].ip;
        let stack = w.legs[0].tx_app.borrow().stack().unwrap();
        let valid_at = |at: SimTime| stack.borrow().arp.lookup(ip, at).is_some();
        // Find when the sender's entry expires, to the millisecond.
        let (mut lo, mut hi) = (
            bed.tb.sim.now(),
            bed.tb.sim.now() + SimTime::from_secs(3600),
        );
        assert!(valid_at(lo) && !valid_at(hi));
        while hi - lo > SimTime::from_millis(1) {
            let mid = lo + (hi - lo) / 2;
            if valid_at(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Start the next pass 1 ms before it: without renewal, the burst
        // would outlive the entry and lose its datagrams.
        bed.run_until(lo - SimTime::from_millis(1), 0);
        w.pass(0);
        assert!(w.tally.violations.borrow().is_empty());
        assert_eq!(w.tally.failed.get(), 0);
    }
}
