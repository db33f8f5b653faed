//! `rpc`: one client with one request outstanding, echoing UDP and TCP
//! at Table 2's sizes on every placement, in a closed loop.
//!
//! Each `(placement, protocol, size)` has its own bed. A client sends a
//! seeded request, the echo server sends back exactly the bytes it got,
//! and the client checks the reply before sending the next request. The
//! call sequence of a bed's first 20 + 200 rounds is exactly
//! `protolat`'s, so those rounds reproduce the Table 2 latency cell.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use psd_bench::tables::{table2_decstation, TCP_SIZES, UDP_SIZES};
use psd_core::{AppHandle, AppLib, Fd, FdEventFn};
use psd_filter::DemuxStrategy;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{Layer as CostLayer, Sim, SimTime};

use crate::bed::{Bed, PLACEMENTS};
use crate::calls::{control, data, Pattern, Tally};
use crate::workload::{PaperCell, Workload};

/// Unmeasured rounds before the paper cell's measured rounds.
pub const WARMUP: u64 = 20;
/// Measured rounds of the paper cell (Table 2's 200).
pub const PAPER_ROUNDS: u64 = 200;
/// Rounds per bed per pass after the first.
pub const ROUNDS_PER_VISIT: u64 = 50;
/// Port of the first echo server.
pub const PORT: u16 = 6001;
const STEP: SimTime = SimTime::from_millis(20);
const STALL: SimTime = SimTime::from_secs(600);
/// The client's per-round bookkeeping (timer reads, loop control), as
/// `protolat` charges it.
const BOOKKEEPING_NS: u64 = 35_000;

struct Client {
    bed: u16,
    fd: Fd,
    proto: Proto,
    size: usize,
    /// Bytes of the current reply still expected.
    pending: usize,
    rounds_left: u64,
    collected: u64,
    warmup: u64,
    start: Option<SimTime>,
    end: Option<SimTime>,
    /// Round in flight, shared with the echo server so both ends' spans
    /// carry it.
    round: Rc<Cell<u64>>,
    sent_at: SimTime,
    got: Vec<u8>,
}

struct Echo {
    bed: u16,
    size: usize,
    buffered: Vec<u8>,
    round: Rc<Cell<u64>>,
}

/// One client/echo-server pair on a bed.
pub struct Lane {
    client_app: AppHandle,
    client: Rc<RefCell<Client>>,
    pat: Rc<Pattern>,
    tally: Rc<Tally>,
    /// Protocol and message size.
    pub proto: Proto,
    /// Message size in bytes.
    pub size: usize,
    /// Mean round trip of the first visit's measured rounds.
    pub rtt: Option<SimTime>,
}

fn request_offset(round: u64) -> u64 {
    round * 1_009
}

fn ping_send(app: &AppHandle, sim: &mut Sim, st: &Rc<RefCell<Client>>, pat: &Pattern, t: &Tally) {
    let (bed, fd, proto, size, round) = {
        let mut s = st.borrow_mut();
        s.pending = s.size;
        s.got.clear();
        s.sent_at = sim.now();
        (s.bed, s.fd, s.proto, s.size, s.round.get())
    };
    t.attempt();
    let msg = pat.at(request_offset(round), size);
    let res = data(t, bed, round, || match proto {
        Proto::Tcp => AppLib::send(app, sim, fd, msg),
        Proto::Udp => AppLib::sendto(app, sim, fd, msg, None),
    });
    if let Err(e) = res {
        t.violation(format!("rpc bed {bed}: send of round {round} failed: {e}"));
        t.fail();
    }
}

fn ping_recv(app: &AppHandle, sim: &mut Sim, st: &Rc<RefCell<Client>>, pat: &Pattern, t: &Tally) {
    loop {
        let (bed, fd, proto, pending, round) = {
            let s = st.borrow();
            (s.bed, s.fd, s.proto, s.pending, s.round.get())
        };
        if pending == 0 {
            return;
        }
        let mut buf = vec![
            0u8;
            if proto == Proto::Udp {
                pending.max(1)
            } else {
                pending
            }
        ];
        let res = data(t, bed, round, || match proto {
            Proto::Tcp => AppLib::recv(app, sim, fd, &mut buf),
            Proto::Udp => AppLib::recvfrom(app, sim, fd, &mut buf).map(|(n, _)| n),
        });
        let got = match res {
            Ok(n) => n,
            Err(SocketError::WouldBlock) => return,
            Err(e) => {
                t.violation(format!("rpc bed {bed}: recv of round {round} failed: {e}"));
                t.fail();
                return;
            }
        };
        if got == 0 {
            return;
        }
        let mut s = st.borrow_mut();
        s.got.extend_from_slice(&buf[..got]);
        s.pending = s.pending.saturating_sub(got);
        if s.pending > 0 {
            continue;
        }
        if s.got[..] != *pat.at(request_offset(round), s.size) {
            t.violation(format!("rpc bed {bed}: round {round} echoed wrong bytes"));
            t.fail();
        }
        t.latency((sim.now() - s.sent_at).as_nanos());
        drop(s);
        {
            let a = app.borrow();
            let mut ch = a.begin(sim);
            ch.add_ns(CostLayer::Other, BOOKKEEPING_NS);
            a.finish(ch);
        }
        let mut s = st.borrow_mut();
        s.collected += 1;
        s.round.set(round + 1);
        if s.collected == s.warmup {
            s.start = Some(sim.now());
        }
        if s.rounds_left > 0 {
            s.rounds_left -= 1;
            drop(s);
            ping_send(app, sim, st, pat, t);
        } else {
            s.end = Some(sim.now());
            return;
        }
    }
}

fn echo_drive(
    app: &AppHandle,
    sim: &mut Sim,
    st: &Rc<RefCell<Echo>>,
    fd: Fd,
    proto: Proto,
    t: &Tally,
) {
    let (bed, size, round) = {
        let s = st.borrow();
        (s.bed, s.size, s.round.get())
    };
    loop {
        match proto {
            Proto::Udp => {
                let mut buf = vec![0u8; 2048];
                match data(t, bed, round, || AppLib::recvfrom(app, sim, fd, &mut buf)) {
                    Ok((n, from)) => {
                        buf.truncate(n);
                        let sent = data(t, bed, round, || {
                            AppLib::sendto(app, sim, fd, &buf, Some(from))
                        });
                        if let Err(e) = sent {
                            t.violation(format!("rpc bed {bed}: echo send failed: {e}"));
                        }
                    }
                    Err(SocketError::WouldBlock) => return,
                    Err(e) => {
                        t.violation(format!("rpc bed {bed}: echo recv failed: {e}"));
                        return;
                    }
                }
            }
            Proto::Tcp => {
                let mut buf = vec![0u8; size];
                let got = match data(t, bed, round, || AppLib::recv(app, sim, fd, &mut buf)) {
                    Ok(n) => n,
                    Err(SocketError::WouldBlock) => return,
                    Err(e) => {
                        t.violation(format!("rpc bed {bed}: echo recv failed: {e}"));
                        return;
                    }
                };
                if got == 0 {
                    return;
                }
                let reply = {
                    let mut s = st.borrow_mut();
                    s.buffered.extend_from_slice(&buf[..got]);
                    if s.buffered.len() < size {
                        continue;
                    }
                    s.buffered.drain(..size).collect::<Vec<u8>>()
                };
                if let Err(e) = data(t, bed, round, || AppLib::send(app, sim, fd, &reply)) {
                    t.violation(format!("rpc bed {bed}: echo send failed: {e}"));
                }
            }
        }
    }
}

impl Lane {
    /// Stands up an echo server on host 1 and a connecting client on
    /// host 0, in `protolat`'s call order. The client's first round
    /// starts when the connection completes; it then runs
    /// `WARMUP + PAPER_ROUNDS` rounds.
    pub fn new(
        bed: &mut Bed,
        proto: Proto,
        size: usize,
        port: u16,
        pat: &Rc<Pattern>,
        tally: &Rc<Tally>,
    ) -> Lane {
        let i = bed.idx;
        let client_app = bed.spawn(0);
        let server_app = bed.spawn(1);
        let dst = InetAddr::new(bed.tb.hosts[1].ip, port);
        let sim = &mut bed.tb.sim;
        let round = Rc::new(Cell::new(0));
        let echo = Rc::new(RefCell::new(Echo {
            bed: i,
            size,
            buffered: Vec::new(),
            round: round.clone(),
        }));
        let sfd = control(i, 0, || AppLib::socket(&server_app, sim, proto));
        let mut ok = control(i, 0, || AppLib::bind(&server_app, sim, sfd, port));
        let conn_handler: FdEventFn = {
            let (app, st, t) = (Rc::downgrade(&server_app), echo.clone(), tally.clone());
            Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
                let Some(app) = app.upgrade() else { return };
                if ev == SockEvent::Readable {
                    echo_drive(&app, sim, &st, fd, proto, &t);
                }
            }))
        };
        match proto {
            Proto::Udp => {
                server_app.borrow_mut().set_event_handler(sfd, conn_handler);
            }
            Proto::Tcp => {
                ok = ok.and_then(|()| control(i, 0, || AppLib::listen(&server_app, sim, sfd, 2)));
                let app = Rc::downgrade(&server_app);
                let listen_handler: FdEventFn =
                    Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
                        let Some(app) = app.upgrade() else { return };
                        if ev == SockEvent::Readable {
                            if let Ok(conn) = control(i, 0, || AppLib::accept(&app, sim, fd)) {
                                app.borrow_mut()
                                    .set_event_handler(conn, conn_handler.clone());
                            }
                        }
                    }));
                server_app
                    .borrow_mut()
                    .set_event_handler(sfd, listen_handler);
            }
        }
        if let Err(e) = ok {
            tally.violation(format!("rpc bed {i}: echo server: {e}"));
        }
        let cfd = control(i, 0, || AppLib::socket(&client_app, sim, proto));
        let client = Rc::new(RefCell::new(Client {
            bed: i,
            fd: cfd,
            proto,
            size,
            pending: 0,
            rounds_left: WARMUP + PAPER_ROUNDS,
            collected: 0,
            warmup: WARMUP,
            start: None,
            end: None,
            round,
            sent_at: SimTime::ZERO,
            got: Vec::with_capacity(size),
        }));
        {
            let (app, st, pat, t) = (
                Rc::downgrade(&client_app),
                client.clone(),
                pat.clone(),
                tally.clone(),
            );
            let handler: FdEventFn = Rc::new(RefCell::new(
                move |sim: &mut Sim, _fd: Fd, ev: SockEvent| {
                    let Some(app) = app.upgrade() else { return };
                    match ev {
                        SockEvent::Connected => {
                            st.borrow_mut().rounds_left -= 1;
                            ping_send(&app, sim, &st, &pat, &t);
                        }
                        SockEvent::Readable => ping_recv(&app, sim, &st, &pat, &t),
                        SockEvent::Error(e) => {
                            let bed = st.borrow().bed;
                            t.violation(format!("rpc bed {bed}: client error: {e}"));
                        }
                        _ => {}
                    }
                },
            ));
            client_app.borrow_mut().set_event_handler(cfd, handler);
        }
        if let Err(e) = control(i, 0, || AppLib::connect(&client_app, sim, cfd, dst)) {
            tally.violation(format!("rpc bed {i}: connect: {e}"));
        }
        Lane {
            client_app,
            client,
            pat: pat.clone(),
            tally: tally.clone(),
            proto,
            size,
            rtt: None,
        }
    }

    /// Runs the lane until its client has finished the rounds it was
    /// given. The first visit runs the connection's warmup and paper
    /// rounds; later visits start `rounds` more from outside any event.
    pub fn visit(&mut self, bed: &mut Bed, rounds: u64) {
        let first = self.rtt.is_none();
        if !first {
            {
                let mut s = self.client.borrow_mut();
                s.rounds_left = rounds - 1;
                s.end = None;
            }
            let sim = &mut bed.tb.sim;
            ping_send(&self.client_app, sim, &self.client, &self.pat, &self.tally);
        }
        let t0 = bed.tb.sim.now();
        let mut chunk = 0;
        while self.client.borrow().end.is_none() {
            if bed.tb.sim.now() - t0 >= STALL {
                let s = self.client.borrow();
                self.tally.violation(format!(
                    "rpc bed {}: stalled at round {}",
                    bed.idx,
                    s.round.get()
                ));
                self.tally.fail();
                drop(s);
                self.client.borrow_mut().end = Some(bed.tb.sim.now());
                break;
            }
            let deadline = bed.tb.sim.now() + STEP;
            bed.run_until(deadline, chunk);
            chunk += 1;
        }
        if first {
            let s = self.client.borrow();
            let rtt = match (s.start, s.end) {
                (Some(a), Some(b)) => (b - a) / PAPER_ROUNDS,
                _ => SimTime::ZERO,
            };
            drop(s);
            self.rtt = Some(rtt);
        }
    }

    /// The paper cell for this lane's first visit.
    pub fn paper_cell(&self, bed: &Bed) -> Option<PaperCell> {
        let row = table2_decstation()
            .into_iter()
            .find(|r| r.config == bed.tb.config)?;
        let (sizes, cells, name) = match self.proto {
            Proto::Tcp => (TCP_SIZES, row.tcp_ms, "TCP"),
            Proto::Udp => (UDP_SIZES, row.udp_ms, "UDP"),
        };
        let col = sizes.iter().position(|&s| s == self.size)?;
        Some(PaperCell {
            label: format!("{} | {name} {} B rtt ms", bed.tb.config.label(), self.size),
            measured: self.rtt?.as_millis_f64(),
            paper: cells[col]?,
        })
    }
}

/// The rpc workload.
pub struct Rpc {
    beds: Vec<Bed>,
    lanes: Vec<Lane>,
    tally: Rc<Tally>,
}

impl Rpc {
    /// Builds one bed per `(placement, protocol, size)` and stands up
    /// its echo pair. TCP size `i` runs at seed `seed + 1 + i` and UDP
    /// size `i` at `seed + 11 + i` (Table 2's 43 + i and 53 + i at the
    /// default seed 42).
    pub fn setup(seed: u64, instrumented: bool) -> Rpc {
        let pat = Rc::new(Pattern::new(seed, 65_521, 2048));
        let tally = Rc::new(Tally::default());
        let mut beds = Vec::new();
        let mut lanes = Vec::new();
        for &config in &PLACEMENTS {
            for (proto, sizes, off) in [(Proto::Tcp, TCP_SIZES, 1), (Proto::Udp, UDP_SIZES, 11)] {
                for (i, &size) in sizes.iter().enumerate() {
                    let idx = beds.len() as u16;
                    let mut bed = Bed::new(
                        idx,
                        config,
                        seed + off + i as u64,
                        DemuxStrategy::Mpf,
                        instrumented,
                    );
                    lanes.push(Lane::new(&mut bed, proto, size, PORT, &pat, &tally));
                    beds.push(bed);
                }
            }
        }
        Rpc { beds, lanes, tally }
    }
}

impl Workload for Rpc {
    fn beds(&self) -> &[Bed] {
        &self.beds
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn sessions(&self) -> u64 {
        2 * self.lanes.len() as u64
    }

    fn pass(&mut self, _pass: u64) {
        for (lane, bed) in self.lanes.iter_mut().zip(&mut self.beds) {
            lane.visit(bed, ROUNDS_PER_VISIT);
        }
    }

    fn paper_cells(&self) -> Vec<PaperCell> {
        self.lanes
            .iter()
            .zip(&self.beds)
            .filter_map(|(lane, bed)| lane.paper_cell(bed))
            .collect()
    }
}
