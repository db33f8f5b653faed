//! `bulk`: one ttcp-style TCP stream per placement, in a closed loop.
//!
//! Each transfer opens a connection to the receiver's listener, writes
//! seeded payload in 8 KB `send`s, reads it in 16 KB `recv`s, checks
//! every byte, and closes; the next transfer starts when the receiver
//! has everything and has seen end of file. A bed's first transfer is
//! the paper's 16 MB with exactly `ttcp`'s call sequence, so it
//! reproduces Table 2's throughput cell for that placement. Later
//! transfers are [`LOOP_BYTES`], so that a run has a few hundred passes
//! to take the pass-rate quantile over.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use psd_bench::tables::table2_decstation;
use psd_core::{AppHandle, AppLib, Fd, FdEventFn};
use psd_filter::DemuxStrategy;
use psd_netstack::{InetAddr, SockEvent, SocketError};
use psd_server::Proto;
use psd_sim::{Sim, SimTime};

use crate::bed::{Bed, PLACEMENTS};
use crate::calls::{control, data, Pattern, Tally};
use crate::workload::{PaperCell, Workload};

/// Bytes of a bed's first transfer: the paper's 16 MB.
pub const PAPER_BYTES: usize = 16 << 20;
/// Bytes of every later transfer.
pub const LOOP_BYTES: usize = 2 << 20;
const WRITE_SIZE: usize = 8 * 1024;
const RECV_CHUNK: usize = 16 * 1024;
const PORT: u16 = 5001;
/// Virtual length of one `run_until` chunk (as in `ttcp`).
const STEP: SimTime = SimTime::from_millis(500);
/// A transfer that has not finished after this much virtual time failed.
const STALL: SimTime = SimTime::from_secs(600);

/// State of one stream (both ends), reset per transfer.
struct Stream {
    bed: u16,
    total: usize,
    /// Pattern offset of this transfer's first byte.
    base: u64,
    fd: Fd,
    sent: usize,
    started: Option<SimTime>,
    closed: bool,
    next_write: u64,
    /// `(end offset, due ns, write index)` of writes not yet fully
    /// received.
    writes: VecDeque<(usize, u64, u64)>,
    received: usize,
    finished: Option<SimTime>,
    eof: bool,
    bad: bool,
}

struct Lane {
    sender: AppHandle,
    dst: InetAddr,
    st: Rc<RefCell<Stream>>,
    transfer: u64,
    first_kbps: Option<f64>,
}

/// The bulk workload.
pub struct Bulk {
    beds: Vec<Bed>,
    lanes: Vec<Lane>,
    pat: Rc<Pattern>,
    tally: Rc<Tally>,
    sessions: u64,
}

fn base_of(bed: u16, transfer: u64) -> u64 {
    u64::from(bed) * 1_000_003 + transfer * 7_919 * 131
}

fn pump(app: &AppHandle, sim: &mut Sim, st: &Rc<RefCell<Stream>>, pat: &Pattern, tally: &Tally) {
    loop {
        let (bed, fd, remaining, off, idx, closed) = {
            let s = st.borrow();
            let off = s.base + s.sent as u64;
            (s.bed, s.fd, s.total - s.sent, off, s.next_write, s.closed)
        };
        if closed {
            return;
        }
        if remaining == 0 {
            // All queued; close pushes the FIN behind the data.
            st.borrow_mut().closed = true;
            control(bed, idx, || AppLib::close(app, sim, fd));
            return;
        }
        let chunk = pat.at(off, remaining.min(WRITE_SIZE));
        match data(tally, bed, idx, || AppLib::send(app, sim, fd, chunk)) {
            Ok(0) => return,
            Ok(n) => {
                let mut s = st.borrow_mut();
                s.sent += n;
                let end = s.sent;
                s.writes.push_back((end, sim.now().as_nanos(), idx));
                s.next_write += 1;
            }
            Err(SocketError::WouldBlock) => return,
            Err(e) => {
                tally.violation(format!("bulk bed {bed}: send failed: {e}"));
                return;
            }
        }
    }
}

fn drain(
    app: &AppHandle,
    sim: &mut Sim,
    st: &Rc<RefCell<Stream>>,
    fd: Fd,
    pat: &Pattern,
    tally: &Tally,
) {
    let mut buf = vec![0u8; RECV_CHUNK];
    loop {
        let (bed, idx) = {
            let s = st.borrow();
            (s.bed, s.writes.front().map_or(s.next_write, |w| w.2))
        };
        match data(tally, bed, idx, || AppLib::recv(app, sim, fd, &mut buf)) {
            Ok(0) => {
                {
                    let mut s = st.borrow_mut();
                    s.eof = true;
                    if s.received < s.total {
                        s.bad = true;
                    }
                    if s.finished.is_none() {
                        s.finished = Some(sim.now());
                    }
                }
                control(bed, idx, || AppLib::close(app, sim, fd));
                return;
            }
            Ok(n) => {
                let mut s = st.borrow_mut();
                let off = s.base + s.received as u64;
                if s.received + n > s.total || buf[..n] != *pat.at(off, n) {
                    s.bad = true;
                }
                s.received += n;
                let now = sim.now().as_nanos();
                while s.writes.front().is_some_and(|w| w.0 <= s.received) {
                    let (_, due, _) = s.writes.pop_front().unwrap();
                    tally.latency(now - due);
                }
                if s.received >= s.total && s.finished.is_none() {
                    s.finished = Some(sim.now());
                }
            }
            Err(SocketError::WouldBlock) => return,
            Err(e) => {
                tally.violation(format!("bulk bed {bed}: recv failed: {e}"));
                st.borrow_mut().bad = true;
                return;
            }
        }
    }
}

impl Lane {
    /// Opens the sending socket for the stream's next transfer and
    /// connects it (the stream state must already be reset).
    fn connect(&self, bed: &mut Bed, pat: &Rc<Pattern>, tally: &Rc<Tally>) {
        let (i, id) = (bed.idx, self.transfer);
        let sim = &mut bed.tb.sim;
        let cfd = control(i, id, || AppLib::socket(&self.sender, sim, Proto::Tcp));
        self.st.borrow_mut().fd = cfd;
        let (app, st, pat2, tally2) = (
            Rc::downgrade(&self.sender),
            self.st.clone(),
            pat.clone(),
            tally.clone(),
        );
        let handler: FdEventFn = Rc::new(RefCell::new(
            move |sim: &mut Sim, _fd: Fd, ev: SockEvent| {
                let Some(app) = app.upgrade() else { return };
                match ev {
                    SockEvent::Connected => {
                        st.borrow_mut().started = Some(sim.now());
                        pump(&app, sim, &st, &pat2, &tally2);
                    }
                    SockEvent::Writable if st.borrow().started.is_some() => {
                        pump(&app, sim, &st, &pat2, &tally2);
                    }
                    SockEvent::Error(e) => {
                        let bed = st.borrow().bed;
                        tally2.violation(format!("bulk bed {bed}: connection failed: {e}"));
                        st.borrow_mut().bad = true;
                    }
                    _ => {}
                }
            },
        ));
        self.sender.borrow_mut().set_event_handler(cfd, handler);
        if let Err(e) = control(i, id, || AppLib::connect(&self.sender, sim, cfd, self.dst)) {
            tally.violation(format!("bulk bed {i}: connect: {e}"));
        }
    }
}

impl Bulk {
    /// Builds one bed per placement and stands up its stream: the
    /// receiver's listener and the first transfer's connecting socket,
    /// in `ttcp`'s call order. Nothing runs yet.
    pub fn setup(seed: u64, instrumented: bool) -> Bulk {
        let pat = Rc::new(Pattern::new(seed, (1 << 20) + 17, RECV_CHUNK));
        let tally = Rc::new(Tally::default());
        let mut beds = Vec::new();
        let mut lanes = Vec::new();
        let mut sessions = 0;
        for (i, &config) in PLACEMENTS.iter().enumerate() {
            let i = i as u16;
            let mut bed = Bed::new(i, config, seed, DemuxStrategy::Mpf, instrumented);
            let sender = bed.spawn(0);
            let receiver = bed.spawn(1);
            let dst = InetAddr::new(bed.tb.hosts[1].ip, PORT);
            let st = Rc::new(RefCell::new(Stream {
                bed: i,
                total: PAPER_BYTES,
                base: base_of(i, 0),
                fd: Fd(-1),
                sent: 0,
                started: None,
                closed: false,
                next_write: 0,
                writes: VecDeque::new(),
                received: 0,
                finished: None,
                eof: false,
                bad: false,
            }));
            let sim = &mut bed.tb.sim;
            let listener = control(i, 0, || AppLib::socket(&receiver, sim, Proto::Tcp));
            let bound = control(i, 0, || AppLib::bind(&receiver, sim, listener, PORT))
                .and_then(|()| control(i, 0, || AppLib::listen(&receiver, sim, listener, 5)));
            if let Err(e) = bound {
                tally.violation(format!("bulk bed {i}: listener: {e}"));
            }
            let conn_handler: FdEventFn = {
                let (app, st, pat, tally) = (
                    Rc::downgrade(&receiver),
                    st.clone(),
                    pat.clone(),
                    tally.clone(),
                );
                Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
                    let Some(app) = app.upgrade() else { return };
                    if matches!(ev, SockEvent::Readable | SockEvent::PeerClosed) {
                        drain(&app, sim, &st, fd, &pat, &tally);
                    }
                }))
            };
            let listen_handler: FdEventFn = {
                let (app, st, pat, tally) = (
                    Rc::downgrade(&receiver),
                    st.clone(),
                    pat.clone(),
                    tally.clone(),
                );
                Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
                    let Some(app) = app.upgrade() else { return };
                    if ev != SockEvent::Readable {
                        return;
                    }
                    let bed = st.borrow().bed;
                    while let Ok(conn) = control(bed, 0, || AppLib::accept(&app, sim, fd)) {
                        app.borrow_mut()
                            .set_event_handler(conn, conn_handler.clone());
                        drain(&app, sim, &st, conn, &pat, &tally);
                    }
                }))
            };
            receiver
                .borrow_mut()
                .set_event_handler(listener, listen_handler);
            let lane = Lane {
                sender,
                dst,
                st,
                transfer: 0,
                first_kbps: None,
            };
            lane.connect(&mut bed, &pat, &tally);
            sessions += 2;
            beds.push(bed);
            lanes.push(lane);
        }
        Bulk {
            beds,
            lanes,
            pat,
            tally,
            sessions,
        }
    }

    fn transfer(&mut self, b: usize) {
        let (bed, lane) = (&mut self.beds[b], &mut self.lanes[b]);
        if lane.transfer > 0 {
            {
                let mut s = lane.st.borrow_mut();
                s.base = base_of(bed.idx, lane.transfer);
                s.total = LOOP_BYTES;
                s.sent = 0;
                s.started = None;
                s.closed = false;
                s.writes.clear();
                s.received = 0;
                s.finished = None;
                s.eof = false;
                s.bad = false;
            }
            lane.connect(bed, &self.pat, &self.tally);
            self.sessions += 2;
        }
        self.tally.attempt();
        let t0 = bed.tb.sim.now();
        let mut chunk = 0;
        loop {
            {
                let s = lane.st.borrow();
                if s.finished.is_some() && s.eof {
                    break;
                }
            }
            if bed.tb.sim.now() - t0 >= STALL {
                lane.st.borrow_mut().bad = true;
                self.tally.violation(format!(
                    "bulk bed {}: transfer {} stalled at {} of {} bytes",
                    bed.idx,
                    lane.transfer,
                    lane.st.borrow().received,
                    lane.st.borrow().total
                ));
                break;
            }
            let deadline = bed.tb.sim.now() + STEP;
            bed.run_until(deadline, chunk);
            chunk += 1;
        }
        let s = lane.st.borrow();
        if s.bad {
            self.tally.fail();
            self.tally.violation(format!(
                "bulk bed {}: transfer {} not delivered byte for byte",
                bed.idx, lane.transfer
            ));
        } else if lane.transfer == 0 {
            let (started, finished) = (s.started.expect("connected"), s.finished.expect("done"));
            let secs = (finished - started).as_secs_f64().max(1e-9);
            lane.first_kbps = Some(s.total as f64 / 1024.0 / secs);
        }
        drop(s);
        lane.transfer += 1;
    }
}

impl Workload for Bulk {
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
        for b in 0..self.beds.len() {
            self.transfer(b);
        }
    }

    fn paper_cells(&self) -> Vec<PaperCell> {
        let paper = table2_decstation();
        self.lanes
            .iter()
            .zip(&self.beds)
            .filter_map(|(lane, bed)| {
                let row = paper.iter().find(|r| r.config == bed.tb.config)?;
                Some(PaperCell {
                    label: format!("{} | throughput KB/s", bed.tb.config.label()),
                    measured: lane.first_kbps?,
                    paper: row.throughput,
                })
            })
            .collect()
    }
}
