//! Finished TCP sockets are freed, not kept.
//!
//! 200 sequential TCP transfers run between two hosts, each on a fresh
//! connection that both ends close. After every transfer, both hosts'
//! OS-side stacks (the in-kernel stack, or the server's, to which a
//! library session returns when it is closed) must hold
//! nothing but the listener, live connections and connections in
//! TIME-WAIT — no connection lingers in CLOSED. After idling past 2MSL
//! only the listener is left, and every other socket either stack ever
//! allocated reports `exists() == false`.

mod common;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use common::run_until;
use psd::core::{AppLib, Fd, FdEventFn};
use psd::netstack::tcp::TcpState;
use psd::netstack::{InetAddr, SockEvent, SockId, SocketError, StackHandle};
use psd::server::Proto;
use psd::sim::{Platform, Sim, SimTime};
use psd::systems::{SystemConfig, TestBed};

const TRANSFERS: usize = 200;
const BYTES: usize = 4 * 1024;
const PORT: u16 = 5001;
/// Socket ids are handed out sequentially from 1; no stack here
/// allocates more than this many in the run.
const MAX_SOCK_ID: u64 = 4 * TRANSFERS as u64 + 16;

/// Socket census of one stack, by probing every id it may have used.
#[derive(Debug, Default)]
struct Census {
    total: usize,
    listeners: usize,
    live: usize,
    time_wait: usize,
    closed: usize,
}

fn census(stack: &StackHandle) -> Census {
    let st = stack.borrow();
    let mut c = Census {
        total: st.session_count(),
        ..Census::default()
    };
    for id in (1..=MAX_SOCK_ID).map(SockId) {
        if !st.exists(id) {
            continue;
        }
        match st.tcp_state(id) {
            None => c.listeners += 1,
            Some(TcpState::TimeWait) => c.time_wait += 1,
            Some(TcpState::Closed) => c.closed += 1,
            Some(_) => c.live += 1,
        }
    }
    c
}

fn reaping(config: SystemConfig) {
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, 0x5eed);
    let srv = bed.hosts[1].spawn_app();
    let cli = bed.hosts[0].spawn_app();
    let stacks = [bed.hosts[0].os_stack(), bed.hosts[1].os_stack()];

    // Receiver: accept, drain, close at end of file.
    let finished = Rc::new(Cell::new(0usize));
    let lfd = AppLib::socket(&srv, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&srv, &mut bed.sim, lfd, PORT).expect("bind");
    AppLib::listen(&srv, &mut bed.sim, lfd, 4).expect("listen");
    let (app, done) = (srv.clone(), finished.clone());
    let drain: FdEventFn = Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
        if matches!(ev, SockEvent::Readable | SockEvent::PeerClosed) {
            let mut buf = [0u8; 8192];
            loop {
                match AppLib::recv(&app, sim, fd, &mut buf) {
                    Ok(0) => {
                        AppLib::close(&app, sim, fd);
                        done.set(done.get() + 1);
                        return;
                    }
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        }
    }));
    let app = srv.clone();
    let accept: FdEventFn = Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
        if ev == SockEvent::Readable {
            while let Ok(conn) = AppLib::accept(&app, sim, fd) {
                app.borrow_mut().set_event_handler(conn, drain.clone());
            }
        }
    }));
    srv.borrow_mut().set_event_handler(lfd, accept);
    bed.settle();

    let dst = InetAddr::new(bed.hosts[1].ip, PORT);
    let payload = vec![0x42u8; BYTES];
    let mut peak_time_wait = 0;
    for i in 0..TRANSFERS {
        let fd = AppLib::socket(&cli, &mut bed.sim, Proto::Tcp);
        let connected = Rc::new(Cell::new(false));
        let flag = connected.clone();
        let handler: FdEventFn = Rc::new(RefCell::new(move |_: &mut Sim, _: Fd, ev: SockEvent| {
            if ev == SockEvent::Connected {
                flag.set(true);
            }
        }));
        cli.borrow_mut().set_event_handler(fd, handler);
        AppLib::connect(&cli, &mut bed.sim, fd, dst).expect("connect");
        assert!(
            run_until(&mut bed, SimTime::from_secs(5), || connected.get()),
            "{config:?}: transfer {i} did not connect"
        );
        let mut sent = 0;
        while sent < BYTES {
            match AppLib::send(&cli, &mut bed.sim, fd, &payload[sent..]) {
                Ok(n) => sent += n,
                Err(SocketError::WouldBlock) => bed.run_for(SimTime::from_millis(1)),
                Err(e) => panic!("{config:?}: transfer {i}: send: {e}"),
            }
        }
        AppLib::close(&cli, &mut bed.sim, fd);
        assert!(
            run_until(&mut bed, SimTime::from_secs(5), || finished.get() > i),
            "{config:?}: transfer {i} did not finish"
        );
        bed.run_for(SimTime::from_millis(50));
        for (host, stack) in stacks.iter().enumerate() {
            let c = census(stack);
            let ctx = format!("{config:?}: host {host} after transfer {i}: {c:?}");
            assert_eq!(c.closed, 0, "{ctx}: a finished connection was kept");
            assert_eq!(
                c.total,
                c.listeners + c.live + c.time_wait,
                "{ctx}: socket not accounted for"
            );
            assert!(c.live <= 1, "{ctx}: one connection at a time");
            assert_eq!(c.listeners, host, "{ctx}: listener only on the receiver");
            peak_time_wait = peak_time_wait.max(c.time_wait);
        }
    }
    assert!(
        peak_time_wait > 1,
        "{config:?}: TIME-WAIT never held a connection"
    );

    // Past 2MSL every TIME-WAIT connection has expired.
    bed.run_for(SimTime::from_secs(61));
    for (host, stack) in stacks.iter().enumerate() {
        let c = census(stack);
        assert_eq!(c.total, host, "{config:?}: host {host} after 2MSL: {c:?}");
        assert_eq!(
            c.listeners, host,
            "{config:?}: host {host} after 2MSL: {c:?}"
        );
    }
    if let Some(server) = &bed.hosts[1].server {
        assert_eq!(
            server.borrow().session_count(),
            1,
            "{config:?}: only the listening session is left"
        );
    }
}

#[test]
fn mach25_inkernel_stack_frees_finished_connections() {
    reaping(SystemConfig::Mach25InKernel);
}

#[test]
fn ux_server_stack_frees_finished_connections() {
    reaping(SystemConfig::UxServer);
}

#[test]
fn library_sessions_returned_to_the_server_are_freed() {
    reaping(SystemConfig::LibraryShm);
}
