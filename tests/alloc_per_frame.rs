//! Heap-allocation guard for the frame path.
//!
//! A counting global allocator tallies every allocation made on the
//! test's own thread (`alloc`, `alloc_zeroed` and `realloc` calls)
//! across two steady-state windows: a UDP echo exchange on a
//! Library-SHM bed and a one-way TCP bulk stream on a UX-server bed.
//! The simulation is single-threaded and deterministic, so the counts
//! are exact, repeatable numbers, not timings. Each window's total is
//! bounded by what the one-buffer-per-frame output path needs; a stray
//! per-frame copy (`to_vec`, a prepend into a fresh `Vec`, a clone on
//! the wire) adds at least one allocation per frame and fails here.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use common::{run_until, udp_echo_server};
use psd::core::{AppLib, Fd, FdEventFn};
use psd::netstack::{InetAddr, SockEvent, SocketError};
use psd::server::Proto;
use psd::sim::{Platform, Sim, SimTime};
use psd::systems::{SystemConfig, TestBed};

/// Allocations in the UDP echo window: 6068 before frames were built
/// in place and moved across the wire, 2868 after, 2803 once the timer
/// wheel's buckets became lists threaded through its slab.
const UDP_ECHO_MAX_ALLOCS: u64 = 2803;
/// Allocations in the TCP bulk window: 9273 before, 4784 after, 4655
/// with slab-threaded wheel buckets.
const TCP_BULK_MAX_ALLOCS: u64 = 4655;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap allocations over a measured window, and frames on the wire.
struct Window {
    allocs: u64,
    frames: u64,
}

impl Window {
    fn per_frame(&self) -> f64 {
        self.allocs as f64 / self.frames as f64
    }
}

/// 200 request/response rounds of 100-byte UDP datagrams, after 20
/// warm-up rounds (ARP resolved, sessions migrated, pools filled).
fn udp_echo_window() -> Window {
    let mut bed = TestBed::new(SystemConfig::LibraryShm, Platform::DecStation5000_200, 7);
    let srv = bed.hosts[1].spawn_app();
    let cli = bed.hosts[0].spawn_app();
    udp_echo_server(&mut bed, &srv, 7002);
    let fd = AppLib::socket(&cli, &mut bed.sim, Proto::Udp);
    AppLib::bind(&cli, &mut bed.sim, fd, 7100).expect("bind");
    let dst = InetAddr::new(bed.hosts[1].ip, 7002);
    AppLib::connect(&cli, &mut bed.sim, fd, dst).expect("connect");
    let echoes = Rc::new(Cell::new(0u64));
    let (app, seen) = (cli.clone(), echoes.clone());
    let handler: FdEventFn = Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
        if ev == SockEvent::Readable {
            let mut buf = [0u8; 256];
            while AppLib::recv(&app, sim, fd, &mut buf).is_ok() {
                seen.set(seen.get() + 1);
            }
        }
    }));
    cli.borrow_mut().set_event_handler(fd, handler);
    bed.settle();
    let request = [0x5au8; 100];
    let round = |bed: &mut TestBed, i: u64| {
        AppLib::send(&cli, &mut bed.sim, fd, &request).expect("send");
        assert!(
            run_until(bed, SimTime::from_secs(1), || echoes.get() > i),
            "echo {i} lost"
        );
    };
    for i in 0..20 {
        round(&mut bed, i);
    }
    let (a0, f0) = (allocs(), bed.ether.borrow().stats().tx_frames);
    for i in 20..220 {
        round(&mut bed, i);
    }
    let frames = bed.ether.borrow().stats().tx_frames - f0;
    Window {
        allocs: allocs() - a0,
        frames,
    }
}

/// A one-way TCP stream in 8 KB sends: 512 KB measured after 128 KB of
/// warm-up (slow start done, receive window open).
fn tcp_bulk_window() -> Window {
    const WARM: usize = 128 * 1024;
    const TOTAL: usize = WARM + 512 * 1024;
    let mut bed = TestBed::new(SystemConfig::UxServer, Platform::DecStation5000_200, 8);
    let srv = bed.hosts[1].spawn_app();
    let cli = bed.hosts[0].spawn_app();
    let received = Rc::new(Cell::new(0usize));
    let lfd = AppLib::socket(&srv, &mut bed.sim, Proto::Tcp);
    AppLib::bind(&srv, &mut bed.sim, lfd, 5001).expect("bind");
    AppLib::listen(&srv, &mut bed.sim, lfd, 4).expect("listen");
    let (app, got) = (srv.clone(), received.clone());
    let drain: FdEventFn = Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
        if ev == SockEvent::Readable {
            let mut buf = [0u8; 16 * 1024];
            while let Ok(n @ 1..) = AppLib::recv(&app, sim, fd, &mut buf) {
                got.set(got.get() + n);
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
    let dst = InetAddr::new(bed.hosts[1].ip, 5001);
    let client = common::tcp_client(&mut bed, &cli, dst);
    assert!(
        run_until(&mut bed, SimTime::from_secs(5), || *client
            .connected
            .borrow()),
        "connect timed out"
    );
    let data = vec![0xc3u8; 8 * 1024];
    let mut sent = 0;
    let mut mark = None;
    while received.get() < TOTAL {
        if mark.is_none() && received.get() >= WARM {
            mark = Some((allocs(), bed.ether.borrow().stats().tx_frames));
        }
        if sent < TOTAL {
            match AppLib::send(
                &cli,
                &mut bed.sim,
                client.fd,
                &data[..data.len().min(TOTAL - sent)],
            ) {
                Ok(n) => sent += n,
                Err(SocketError::WouldBlock) => {}
                Err(e) => panic!("send: {e}"),
            }
        }
        bed.run_for(SimTime::from_millis(1));
        assert!(bed.sim.now() < SimTime::from_secs(60), "stream stalled");
    }
    let (a0, f0) = mark.expect("warm-up finished");
    let frames = bed.ether.borrow().stats().tx_frames - f0;
    Window {
        allocs: allocs() - a0,
        frames,
    }
}

#[test]
fn udp_echo_allocations_per_frame() {
    let w = udp_echo_window();
    println!(
        "udp echo: {} allocations over {} frames ({:.2}/frame)",
        w.allocs,
        w.frames,
        w.per_frame()
    );
    assert_eq!(w.frames, 400, "one request and one echo per round");
    assert!(
        w.allocs <= UDP_ECHO_MAX_ALLOCS,
        "{} allocations, budget {UDP_ECHO_MAX_ALLOCS}",
        w.allocs
    );
}

#[test]
fn tcp_bulk_allocations_per_frame() {
    let w = tcp_bulk_window();
    println!(
        "tcp bulk: {} allocations over {} frames ({:.2}/frame)",
        w.allocs,
        w.frames,
        w.per_frame()
    );
    assert_eq!(w.frames, 634, "the window's frame count is deterministic");
    assert!(
        w.allocs <= TCP_BULK_MAX_ALLOCS,
        "{} allocations, budget {TCP_BULK_MAX_ALLOCS}",
        w.allocs
    );
}
