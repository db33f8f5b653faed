//! Control-path proxy operations: the Table 1 calls.
//!
//! Each BSD call is mapped exactly as the paper's Table 1 specifies:
//! `socket`→`proxy_socket`, `bind`→`proxy_bind` (UDP migrates),
//! `connect`→`proxy_connect` (UDP and TCP migrate),
//! `listen`→`proxy_listen`, `accept`→`proxy_accept` (migrates the
//! passively opened session), `fork`→`proxy_return` for every session
//! before the server duplicates the process, and `close` migrates the
//! session back for the shutdown protocol.

use crate::{select, ApiMode, AppHandle, AppLib, Fd, FdEntry, FdState, SockEvent};
use psd_netstack::{InetAddr, SocketError};
use psd_server::{
    stack_sink_with_busy_report, MigratedSession, OsServer, Proto, RetryToken, RxSetup, SessionId,
    SessionReply,
};
use psd_sim::{Charge, Domain, FaultSite, Layer, Sim, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Retry budget for deadline-bounded proxy RPCs: the initial deadline
/// is `4 * rpc_base` nanoseconds and doubles on every retry (bounded
/// exponential backoff), so the worst case charges `4+8+16+32 = 60`
/// RPC base times before the call fails with
/// [`SocketError::TimedOut`].
const RPC_MAX_ATTEMPTS: u32 = 4;

impl AppLib {
    /// Mints a fresh idempotency token for one logical retryable RPC;
    /// every attempt of that RPC carries the same token.
    fn mint_token(this: &AppHandle) -> RetryToken {
        let mut app = this.borrow_mut();
        let proc = app.proc.map(|p| p.0).unwrap_or(0);
        let c = app.next_token;
        app.next_token += 1;
        RetryToken((proc << 32) | c)
    }

    /// Runs one retryable proxy RPC under a deadline: an attempt may be
    /// lost to a server crash ([`FaultSite::ServerCrash`]), to the
    /// server being down (the request is never answered), or to a lost
    /// reply ([`FaultSite::ProxyRpc`]). Each loss charges the expired
    /// deadline plus exponential backoff and retries with the same
    /// idempotency token; after [`RPC_MAX_ATTEMPTS`] losses the call
    /// fails with [`SocketError::TimedOut`]. With no fault plane
    /// attached the first attempt always returns, so this wrapper adds
    /// zero charged time to the fault-free path.
    fn retry_rpc<T>(
        this: &AppHandle,
        sim: &mut Sim,
        charge: &mut Charge,
        mut call: impl FnMut(&mut Sim, &mut Charge) -> Result<T, SocketError>,
    ) -> Result<T, SocketError> {
        let server = this.borrow().server.clone().expect("server");
        let deadline_ns = this.borrow().costs.rpc_base.max(1) * 4;
        for attempt in 0..RPC_MAX_ATTEMPTS {
            if charge.fault(FaultSite::ServerCrash) {
                // The server dies mid-request; the attempt is lost.
                OsServer::crash(&server, sim);
            } else if !server.borrow().is_down() {
                let result = call(sim, charge);
                if !charge.fault(FaultSite::ProxyRpc) {
                    return result;
                }
                // The reply was lost after the server executed the
                // call — the case the idempotency tokens exist for.
            }
            // Deadline expiry plus bounded exponential backoff.
            charge.add_ns(Layer::Control, deadline_ns << attempt);
            this.borrow_mut().stats.rpc_retries += 1;
        }
        this.borrow_mut().stats.rpc_timeouts += 1;
        Err(SocketError::TimedOut)
    }
    /// `socket(2)`: creates a descriptor backed by a session managed by
    /// the operating system (or an in-kernel socket in the monolithic
    /// baseline).
    pub fn socket(this: &AppHandle, sim: &mut Sim, proto: Proto) -> Fd {
        let mode = this.borrow().mode;
        match mode {
            ApiMode::InKernel => {
                let stack = this.borrow().stack.clone().expect("kernel stack");
                let mut charge = this.borrow().begin(sim);
                charge.crossing_in(
                    Domain::Kernel,
                    Layer::Control,
                    SimTime::from_nanos(this.borrow().costs.trap),
                );
                let sock = {
                    let mut st = stack.borrow_mut();
                    match proto {
                        Proto::Udp => st.socket_udp(),
                        Proto::Tcp => st.socket_tcp(),
                    }
                };
                this.borrow().finish(charge);
                let fd = this.borrow_mut().alloc_fd(proto, FdState::Kern(sock));
                AppLib::register_sock(this, sock, fd);
                fd
            }
            ApiMode::ServerBased | ApiMode::Library { .. } => {
                let server = this.borrow().server.clone().expect("server");
                let proc = this.borrow().proc.expect("registered process");
                let token = AppLib::mint_token(this);
                let mut charge = this.borrow().begin(sim);
                let sid = AppLib::retry_rpc(this, sim, &mut charge, |_, ch| {
                    Ok(server.borrow_mut().proxy_socket(ch, proc, proto, token))
                });
                this.borrow().finish(charge);
                this.borrow_mut().stats.control_rpcs += 1;
                // A timed-out socket() yields a dead descriptor, the
                // closest analogue of an errno return given the Fd
                // signature; every later call on it fails.
                let state = match sid {
                    Ok(sid) => FdState::Fresh(Some(sid)),
                    Err(_) => FdState::Fresh(None),
                };
                this.borrow_mut().alloc_fd(proto, state)
            }
        }
    }

    fn session_of(&self, fd: Fd) -> Option<SessionId> {
        match &self.fds.get(&fd)?.state {
            FdState::Fresh(sid) => *sid,
            FdState::Session(sid) => Some(*sid),
            FdState::Local { session, .. } => *session,
            FdState::Kern(_) => None,
        }
    }

    fn rx_setup(this: &AppHandle, ep_cell: &Rc<Cell<Option<psd_kernel::EndpointId>>>) -> RxSetup {
        let app = this.borrow();
        let ApiMode::Library { rx_mode } = app.mode else {
            panic!("rx_setup only in library mode");
        };
        let stack = app.stack.clone().expect("library stack");
        let sink = stack_sink_with_busy_report(&stack, &app.kernel, ep_cell.clone());
        RxSetup {
            mode: rx_mode,
            sink,
        }
    }

    /// Imports a migrated session into the library stack and rebinds
    /// the descriptor to it. Returns the stack socket.
    pub(crate) fn adopt_migrated(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        m: Box<MigratedSession>,
        ep_cell: Rc<Cell<Option<psd_kernel::EndpointId>>>,
    ) {
        let stack = this.borrow().stack.clone().expect("library stack");
        // Load the metastate snapshot (§3.3) into the local caches.
        {
            let mut st = stack.borrow_mut();
            let now = sim.now();
            for (ip, mac) in &m.arp_entries {
                st.arp.insert(*ip, *mac, now);
            }
            let (routes, version) = m.routes.clone();
            st.routes.load(routes, version);
        }
        let sock = stack.borrow_mut().import_session(sim, m.state);
        ep_cell.set(Some(m.endpoint));
        {
            let mut app = this.borrow_mut();
            app.stats.migrations_in += 1;
            app.session_to_fd.insert(m.session, fd);
            if let Some(entry) = app.fds.get_mut(&fd) {
                entry.state = FdState::Local {
                    session: Some(m.session),
                    sock,
                    endpoint: ep_cell.clone(),
                };
            }
        }
        AppLib::register_sock(this, sock, fd);
        // Data that arrived before the migration travelled inside the
        // state capsule; surface it to the new owner.
        let (readable, eof) = {
            let st = stack.borrow();
            (st.readable(sock) > 0, st.at_eof(sock))
        };
        if readable || eof {
            let weak = this.borrow().me.clone();
            let at = sim.now();
            sim.at(at, move |sim| {
                let Some(app) = weak.upgrade() else { return };
                let handler = app.borrow().handlers.get(&fd).cloned();
                if let Some(h) = handler {
                    h.borrow_mut()(sim, fd, SockEvent::Readable);
                }
            });
        }
    }

    pub(crate) fn attach_server_notify(this: &AppHandle, fd: Fd, sid: SessionId) {
        let server = this.borrow().server.clone().expect("server");
        this.borrow_mut().session_to_fd.insert(sid, fd);
        let weak = this.borrow().me.clone();
        server.borrow_mut().set_notify(
            sid,
            Rc::new(RefCell::new(
                move |sim: &mut Sim, sid: SessionId, ev: SockEvent| {
                    let Some(app) = weak.upgrade() else { return };
                    let (fd, handler) = {
                        let a = app.borrow();
                        let Some(fd) = a.session_to_fd.get(&sid).copied() else {
                            return;
                        };
                        (fd, a.handlers.get(&fd).cloned())
                    };
                    select::rescan_local(&app, sim);
                    if let Some(h) = handler {
                        h.borrow_mut()(sim, fd, ev);
                    }
                },
            )),
        );
    }

    /// `bind(2)`: sets the local endpoint. In library mode a UDP
    /// session migrates into the application here.
    pub fn bind(this: &AppHandle, sim: &mut Sim, fd: Fd, port: u16) -> Result<(), SocketError> {
        let mode = this.borrow().mode;
        match mode {
            ApiMode::InKernel => {
                let (stack, ports, host_ip, sock) = {
                    let app = this.borrow();
                    let FdState::Kern(sock) = app.fds.get(&fd).ok_or(SocketError::BadSocket)?.state
                    else {
                        return Err(SocketError::BadSocket);
                    };
                    (
                        app.stack.clone().expect("kernel stack"),
                        app.kern_ports.clone().expect("kernel ports"),
                        app.host_ip,
                        sock,
                    )
                };
                let proto = this.borrow().fds.get(&fd).expect("exists").proto;
                let mut charge = this.borrow().begin(sim);
                charge.crossing_in(
                    Domain::Kernel,
                    Layer::Control,
                    SimTime::from_nanos(this.borrow().costs.trap),
                );
                let port = ports.borrow_mut().claim(proto, port)?;
                let res = stack.borrow_mut().bind(sock, InetAddr::new(host_ip, port));
                this.borrow().finish(charge);
                res
            }
            ApiMode::ServerBased => {
                let server = this.borrow().server.clone().expect("server");
                let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
                let token = AppLib::mint_token(this);
                let mut charge = this.borrow().begin(sim);
                this.borrow_mut().stats.control_rpcs += 1;
                let reply = AppLib::retry_rpc(this, sim, &mut charge, |sim, ch| {
                    OsServer::proxy_bind(&server, sim, ch, sid, port, None, token)
                })?;
                this.borrow().finish(charge);
                debug_assert!(matches!(
                    reply,
                    None | Some(SessionReply::ServerResident { .. })
                ));
                if let Some(entry) = this.borrow_mut().fds.get_mut(&fd) {
                    entry.state = FdState::Session(sid);
                }
                AppLib::attach_server_notify(this, fd, sid);
                Ok(())
            }
            ApiMode::Library { .. } => {
                let server = this.borrow().server.clone().expect("server");
                let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
                let proto = this.borrow().fds.get(&fd).expect("exists").proto;
                let ep_cell = Rc::new(Cell::new(None));
                let token = AppLib::mint_token(this);
                let mut charge = this.borrow().begin(sim);
                this.borrow_mut().stats.control_rpcs += 1;
                let reply = AppLib::retry_rpc(this, sim, &mut charge, |sim, ch| {
                    let rx = match proto {
                        Proto::Udp => Some(AppLib::rx_setup(this, &ep_cell)),
                        Proto::Tcp => None,
                    };
                    OsServer::proxy_bind(&server, sim, ch, sid, port, rx, token)
                })?;
                this.borrow().finish(charge);
                match reply {
                    Some(SessionReply::Migrated(m)) => {
                        // The UDP session migrated immediately.
                        AppLib::adopt_migrated(this, sim, fd, m, ep_cell);
                    }
                    Some(SessionReply::ServerResident { session, .. }) => {
                        // Graceful degradation: the migration was
                        // denied (filter table full, SHM ring install
                        // failure) and the session fell back to the
                        // server data path — slower, but correct.
                        if let Some(entry) = this.borrow_mut().fds.get_mut(&fd) {
                            entry.state = FdState::Session(session);
                        }
                        AppLib::attach_server_notify(this, fd, session);
                    }
                    None => {
                        // TCP: only the port was claimed.
                        if let Some(entry) = this.borrow_mut().fds.get_mut(&fd) {
                            entry.state = FdState::Fresh(Some(sid));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// `connect(2)`: sets the remote endpoint. Completion (and failure)
    /// is delivered through the descriptor's event handler:
    /// [`SockEvent::Connected`] or [`SockEvent::Error`]. UDP connect
    /// completes synchronously in the common case.
    pub fn connect(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        remote: InetAddr,
    ) -> Result<(), SocketError> {
        let mode = this.borrow().mode;
        let proto = this
            .borrow()
            .fds
            .get(&fd)
            .ok_or(SocketError::BadSocket)?
            .proto;
        match mode {
            ApiMode::InKernel => {
                let (stack, ports, host_ip, sock) = {
                    let app = this.borrow();
                    let FdState::Kern(sock) = app.fds.get(&fd).expect("checked").state else {
                        return Err(SocketError::BadSocket);
                    };
                    (
                        app.stack.clone().expect("kernel stack"),
                        app.kern_ports.clone().expect("kernel ports"),
                        app.host_ip,
                        sock,
                    )
                };
                let mut charge = this.borrow().begin(sim);
                charge.crossing_in(
                    Domain::Kernel,
                    Layer::Control,
                    SimTime::from_nanos(this.borrow().costs.trap),
                );
                // Implicit bind to an ephemeral port.
                if stack.borrow().local_addr(sock).map(|a| a.port).unwrap_or(0) == 0 {
                    let port = ports.borrow_mut().claim(proto, 0)?;
                    stack
                        .borrow_mut()
                        .bind(sock, InetAddr::new(host_ip, port))?;
                }
                let res = match proto {
                    Proto::Tcp => stack
                        .borrow_mut()
                        .connect_tcp(sim, &mut charge, sock, remote),
                    Proto::Udp => stack.borrow_mut().connect_udp(sock, remote),
                };
                let at = charge.at();
                this.borrow().finish(charge);
                if res.is_ok() && proto == Proto::Udp {
                    // Datagram connect completes synchronously; tell the
                    // caller the same way the asynchronous paths do.
                    let weak = this.borrow().me.clone();
                    sim.at(at, move |sim| {
                        let Some(app) = weak.upgrade() else { return };
                        let handler = app.borrow().handlers.get(&fd).cloned();
                        if let Some(h) = handler {
                            h.borrow_mut()(sim, fd, SockEvent::Connected);
                        }
                    });
                }
                res
            }
            ApiMode::ServerBased | ApiMode::Library { .. } => {
                // Library-mode UDP on an fd that is already Local:
                // connect is handled in the application (set the
                // default remote, prewarm the ARP cache).
                let local_udp_sock = match this.borrow().fds.get(&fd) {
                    Some(FdEntry {
                        state: FdState::Local { sock, .. },
                        proto: Proto::Udp,
                    }) => Some(*sock),
                    _ => None,
                };
                if let Some(sock) = local_udp_sock {
                    let stack = this.borrow().stack.clone().expect("library stack");
                    let mut charge = this.borrow().begin(sim);
                    stack.borrow_mut().connect_udp(sock, remote)?;
                    // Prewarm: one metastate RPC so the first send does
                    // not drop on an ARP miss.
                    let server = this.borrow().server.clone().expect("server");
                    this.borrow_mut().stats.control_rpcs += 1;
                    if let Some(mac) =
                        OsServer::proxy_arp_lookup(&server, sim, &mut charge, remote.ip)
                    {
                        let now = charge.at();
                        stack.borrow_mut().arp.insert(remote.ip, mac, now);
                    }
                    let at = charge.at();
                    this.borrow().finish(charge);
                    let weak = this.borrow().me.clone();
                    sim.at(at, move |sim| {
                        let Some(app) = weak.upgrade() else { return };
                        let handler = app.borrow().handlers.get(&fd).cloned();
                        if let Some(h) = handler {
                            h.borrow_mut()(sim, fd, SockEvent::Connected);
                        }
                    });
                    return Ok(());
                }

                let server = this.borrow().server.clone().expect("server");
                let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
                let is_library = matches!(mode, ApiMode::Library { .. });
                let ep_cell = Rc::new(Cell::new(None));
                let rx = is_library.then(|| AppLib::rx_setup(this, &ep_cell));
                let weak = this.borrow().me.clone();
                let mut charge = this.borrow().begin(sim);
                this.borrow_mut().stats.control_rpcs += 1;
                OsServer::proxy_connect(
                    &server,
                    sim,
                    &mut charge,
                    sid,
                    remote,
                    rx,
                    Box::new(move |sim, result| {
                        let Some(app) = weak.upgrade() else { return };
                        let handler = app.borrow().handlers.get(&fd).cloned();
                        match result {
                            Ok(SessionReply::Migrated(m)) => {
                                AppLib::adopt_migrated(&app, sim, fd, m, ep_cell);
                                if let Some(h) = handler {
                                    h.borrow_mut()(sim, fd, SockEvent::Connected);
                                }
                            }
                            Ok(SessionReply::ServerResident { session, .. }) => {
                                if let Some(entry) = app.borrow_mut().fds.get_mut(&fd) {
                                    entry.state = FdState::Session(session);
                                }
                                AppLib::attach_server_notify(&app, fd, session);
                                if let Some(h) = handler {
                                    h.borrow_mut()(sim, fd, SockEvent::Connected);
                                }
                            }
                            Err(e) => {
                                if let Some(h) = handler {
                                    h.borrow_mut()(sim, fd, SockEvent::Error(e));
                                }
                            }
                        }
                    }),
                );
                this.borrow().finish(charge);
                Ok(())
            }
        }
    }

    /// `listen(2)`: passive open; the operating system awaits new
    /// connections.
    pub fn listen(
        this: &AppHandle,
        sim: &mut Sim,
        fd: Fd,
        backlog: usize,
    ) -> Result<(), SocketError> {
        let mode = this.borrow().mode;
        match mode {
            ApiMode::InKernel => {
                let app = this.borrow();
                let FdState::Kern(sock) = app.fds.get(&fd).ok_or(SocketError::BadSocket)?.state
                else {
                    return Err(SocketError::BadSocket);
                };
                let stack = app.stack.clone().expect("kernel stack");
                drop(app);
                let mut charge = this.borrow().begin(sim);
                charge.crossing_in(
                    Domain::Kernel,
                    Layer::Control,
                    SimTime::from_nanos(this.borrow().costs.trap),
                );
                let res = stack.borrow_mut().listen(sock, backlog);
                this.borrow().finish(charge);
                res
            }
            ApiMode::ServerBased | ApiMode::Library { .. } => {
                let server = this.borrow().server.clone().expect("server");
                let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
                let mut charge = this.borrow().begin(sim);
                this.borrow_mut().stats.control_rpcs += 1;
                let res = AppLib::retry_rpc(this, sim, &mut charge, |sim, ch| {
                    OsServer::proxy_listen(&server, sim, ch, sid, backlog)
                });
                this.borrow().finish(charge);
                if res.is_ok() {
                    if let Some(entry) = this.borrow_mut().fds.get_mut(&fd) {
                        entry.state = FdState::Session(sid);
                    }
                    // The server notifies the listener's owner when a
                    // connection request arrives.
                    AppLib::attach_server_notify(this, fd, sid);
                }
                res
            }
        }
    }

    /// `accept(2)`: takes an established connection off the listener.
    /// Returns `WouldBlock` when none is ready; a [`SockEvent::Readable`]
    /// on the listener signals a retry will succeed.
    pub fn accept(this: &AppHandle, sim: &mut Sim, fd: Fd) -> Result<Fd, SocketError> {
        let mode = this.borrow().mode;
        match mode {
            ApiMode::InKernel => {
                let app = this.borrow();
                let FdState::Kern(sock) = app.fds.get(&fd).ok_or(SocketError::BadSocket)?.state
                else {
                    return Err(SocketError::BadSocket);
                };
                let stack = app.stack.clone().expect("kernel stack");
                drop(app);
                let mut charge = this.borrow().begin(sim);
                charge.crossing_in(
                    Domain::Kernel,
                    Layer::Control,
                    SimTime::from_nanos(this.borrow().costs.trap),
                );
                let res = stack.borrow_mut().accept(sock);
                this.borrow().finish(charge);
                let child = res?;
                let proto = Proto::Tcp;
                let child_fd = this.borrow_mut().alloc_fd(proto, FdState::Kern(child));
                AppLib::register_sock(this, child, child_fd);
                Ok(child_fd)
            }
            ApiMode::ServerBased | ApiMode::Library { .. } => {
                // Ready connection already delivered?
                if let Some(ready) = this
                    .borrow_mut()
                    .accept_ready
                    .get_mut(&fd)
                    .and_then(|q| (!q.is_empty()).then(|| q.remove(0)))
                {
                    return Ok(ready);
                }
                // Issue (at most one) outstanding proxy_accept.
                if this.borrow().accept_pending.contains(&fd) {
                    return Err(SocketError::WouldBlock);
                }
                let server = this.borrow().server.clone().expect("server");
                let sid = this.borrow().session_of(fd).ok_or(SocketError::BadSocket)?;
                let is_library = matches!(mode, ApiMode::Library { .. });
                let ep_cell = Rc::new(Cell::new(None));
                let rx = is_library.then(|| AppLib::rx_setup(this, &ep_cell));
                this.borrow_mut().accept_pending.insert(fd);
                let weak = this.borrow().me.clone();
                let mut charge = this.borrow().begin(sim);
                this.borrow_mut().stats.control_rpcs += 1;
                OsServer::proxy_accept(
                    &server,
                    sim,
                    &mut charge,
                    sid,
                    rx,
                    Box::new(move |sim, result| {
                        let Some(app) = weak.upgrade() else { return };
                        app.borrow_mut().accept_pending.remove(&fd);
                        let handler = app.borrow().handlers.get(&fd).cloned();
                        match result {
                            Ok(reply) => {
                                let proto = Proto::Tcp;
                                let child_fd = match reply {
                                    SessionReply::Migrated(m) => {
                                        let child_fd =
                                            app.borrow_mut().alloc_fd(proto, FdState::Fresh(None));
                                        AppLib::adopt_migrated(
                                            &app,
                                            sim,
                                            child_fd,
                                            m,
                                            ep_cell.clone(),
                                        );
                                        child_fd
                                    }
                                    SessionReply::ServerResident { session, .. } => {
                                        let child_fd = app
                                            .borrow_mut()
                                            .alloc_fd(proto, FdState::Session(session));
                                        AppLib::attach_server_notify(&app, child_fd, session);
                                        // Surface data that arrived while
                                        // the connection waited in the
                                        // accept queue.
                                        let weak2 = app.borrow().me.clone();
                                        let at = sim.now();
                                        sim.at(at, move |sim| {
                                            let Some(app) = weak2.upgrade() else { return };
                                            let ready = app.borrow().poll(child_fd).0;
                                            let handler =
                                                app.borrow().handlers.get(&child_fd).cloned();
                                            if ready {
                                                if let Some(h) = handler {
                                                    h.borrow_mut()(
                                                        sim,
                                                        child_fd,
                                                        SockEvent::Readable,
                                                    );
                                                }
                                            }
                                        });
                                        child_fd
                                    }
                                };
                                app.borrow_mut()
                                    .accept_ready
                                    .entry(fd)
                                    .or_default()
                                    .push(child_fd);
                                select::rescan_local(&app, sim);
                                if let Some(h) = handler {
                                    h.borrow_mut()(sim, fd, SockEvent::Readable);
                                }
                            }
                            Err(e) => {
                                if let Some(h) = handler {
                                    h.borrow_mut()(sim, fd, SockEvent::Error(e));
                                }
                            }
                        }
                    }),
                );
                this.borrow().finish(charge);
                // Re-check: the callback may have completed synchronously
                // via a zero-delay event only after we return, so report
                // WouldBlock; the Readable event signals readiness.
                Err(SocketError::WouldBlock)
            }
        }
    }

    /// `close(2)`: for migrated sessions, exports the state back to the
    /// operating system, which runs the shutdown protocol (§3.2
    /// "Terminating session state").
    pub fn close(this: &AppHandle, sim: &mut Sim, fd: Fd) {
        let mode = this.borrow().mode;
        let Some(entry) = this.borrow_mut().fds.remove(&fd) else {
            return;
        };
        this.borrow_mut().handlers.remove(&fd);
        this.borrow_mut().accept_ready.remove(&fd);
        this.borrow_mut().watched.remove(&fd);
        match entry.state {
            FdState::Kern(sock) => {
                let stack = this.borrow().stack.clone().expect("kernel stack");
                let local = stack.borrow().local_addr(sock);
                let mut charge = this.borrow().begin(sim);
                charge.crossing_in(
                    Domain::Kernel,
                    Layer::Control,
                    SimTime::from_nanos(this.borrow().costs.trap),
                );
                stack.borrow_mut().close(sim, &mut charge, sock);
                this.borrow().finish(charge);
                this.borrow_mut().sock_to_fd.remove(&sock);
                let ports = this.borrow().kern_ports.clone();
                if let (Some(addr), Some(ports)) = (local, ports) {
                    ports.borrow_mut().release(entry.proto, addr.port);
                }
            }
            FdState::Local { session, sock, .. } => {
                let stack = this.borrow().stack.clone().expect("library stack");
                let state = stack.borrow_mut().export_session(sim, sock);
                this.borrow_mut().sock_to_fd.remove(&sock);
                this.borrow_mut().stats.migrations_out += 1;
                let server = this.borrow().server.clone();
                if let (Some(sid), Some(server)) = (session, server) {
                    this.borrow_mut().session_to_fd.remove(&sid);
                    let mut charge = this.borrow().begin(sim);
                    this.borrow_mut().stats.control_rpcs += 1;
                    OsServer::proxy_close(&server, sim, &mut charge, sid, state);
                    this.borrow().finish(charge);
                }
            }
            FdState::Session(sid) | FdState::Fresh(Some(sid)) => {
                let server = this.borrow().server.clone();
                if let Some(server) = server {
                    this.borrow_mut().session_to_fd.remove(&sid);
                    let mut charge = this.borrow().begin(sim);
                    this.borrow_mut().stats.control_rpcs += 1;
                    OsServer::proxy_close(&server, sim, &mut charge, sid, None);
                    this.borrow().finish(charge);
                }
            }
            FdState::Fresh(None) => {}
        }
        if !matches!(mode, ApiMode::InKernel) {
            select::rescan_local(this, sim);
        }
    }

    /// `fork(2)`: every migrated session is first returned to the
    /// operating system ("All sessions should be returned to the
    /// operating system before fork is called"); the child process
    /// shares the descriptors, and both parent and child subsequently
    /// reach them through the server.
    pub fn fork(this: &AppHandle, sim: &mut Sim) -> Result<AppHandle, SocketError> {
        let mode = this.borrow().mode;
        let (ApiMode::Library { .. } | ApiMode::ServerBased) = mode else {
            return Err(SocketError::OpNotSupp);
        };
        let server = this.borrow().server.clone().expect("server");
        let parent_proc = this.borrow().proc.expect("registered");

        // Step 1: return all local sessions, in descriptor order (each
        // return is a charged RPC, so map order must not pick it).
        let mut local_fds: Vec<Fd> = this
            .borrow()
            .fds
            .iter()
            .filter(|(_, e)| matches!(e.state, FdState::Local { .. }))
            .map(|(fd, _)| *fd)
            .collect();
        local_fds.sort();
        for fd in local_fds {
            let (sock, sid) = {
                let app = this.borrow();
                let FdState::Local { session, sock, .. } =
                    app.fds.get(&fd).expect("listed above").state.clone_parts()
                else {
                    continue;
                };
                (sock, session)
            };
            let Some(sid) = sid else { continue };
            let stack = this.borrow().stack.clone().expect("library stack");
            let Some(state) = stack.borrow_mut().export_session(sim, sock) else {
                continue;
            };
            this.borrow_mut().sock_to_fd.remove(&sock);
            this.borrow_mut().stats.migrations_out += 1;
            let mut charge = this.borrow().begin(sim);
            this.borrow_mut().stats.control_rpcs += 1;
            OsServer::proxy_return(&server, sim, &mut charge, sid, state)?;
            this.borrow().finish(charge);
            if let Some(entry) = this.borrow_mut().fds.get_mut(&fd) {
                entry.state = FdState::Session(sid);
            }
            AppLib::attach_server_notify(this, fd, sid);
        }

        // Step 2: duplicate the process at the server.
        let mut charge = this.borrow().begin(sim);
        this.borrow_mut().stats.control_rpcs += 1;
        let child_proc = server.borrow_mut().fork(&mut charge, parent_proc)?;
        this.borrow().finish(charge);

        // Step 3: build the child's library with shared descriptors.
        let child = match mode {
            ApiMode::Library { rx_mode } => {
                let kernel = this.borrow().kernel.clone();
                let child = AppLib::new_library(&kernel, &server, rx_mode);
                child.borrow_mut().proc = Some(child_proc);
                child
            }
            ApiMode::ServerBased => {
                let kernel = this.borrow().kernel.clone();
                let child = AppLib::new_server_based(&kernel, &server);
                child.borrow_mut().proc = Some(child_proc);
                child
            }
            ApiMode::InKernel => unreachable!("checked above"),
        };
        // Mirror the descriptor table: all entries are server-resident
        // now, so both processes refer to the same sessions.
        let mirrored: Vec<(Fd, Proto, Option<SessionId>)> = this
            .borrow()
            .fds
            .iter()
            .map(|(fd, e)| {
                let sid = match &e.state {
                    FdState::Session(s) | FdState::Fresh(Some(s)) => Some(*s),
                    _ => None,
                };
                (*fd, e.proto, sid)
            })
            .collect();
        for (fd, proto, sid) in mirrored {
            let state = match sid {
                Some(s) => FdState::Session(s),
                None => FdState::Fresh(None),
            };
            child.borrow_mut().fds.insert(fd, FdEntry { proto, state });
            let next = child.borrow().next_fd.max(fd.0 + 1);
            child.borrow_mut().next_fd = next;
            if let Some(s) = sid {
                // Note: notify callbacks route to whichever process
                // registered last; both can re-register as needed.
                child.borrow_mut().session_to_fd.insert(s, fd);
            }
        }
        Ok(child)
    }

    /// Simulates abrupt process death: the library vanishes without
    /// returning sessions; the operating system detects it and cleans
    /// up (§3.2 "unexpected shutdown").
    pub fn die(this: &AppHandle, sim: &mut Sim) {
        let server = this.borrow().server.clone();
        let proc = this.borrow().proc;
        // Tear down local delivery state abruptly: sockets are not
        // exported, filters stay until the server removes them.
        this.borrow_mut().fds.clear();
        this.borrow_mut().handlers.clear();
        if let (Some(server), Some(proc)) = (server, proc) {
            OsServer::process_died(&server, sim, proc);
        }
    }

    /// Recovers from a server crash/restart: the application (which
    /// noticed the crash as RPC deadline expiry) registers itself as a
    /// fresh process, re-adopts its migrated sessions — whose data
    /// path kept working throughout, since it never touches the
    /// server — and drops descriptors whose server-resident sessions
    /// died with the server. Returns `false` (and does nothing) while
    /// the server is still down; the caller retries with backoff.
    pub fn reregister(this: &AppHandle, sim: &mut Sim) -> bool {
        let _ = sim;
        let Some(server) = this.borrow().server.clone() else {
            return true; // In-kernel mode has no server to lose.
        };
        if server.borrow().is_down() {
            return false;
        }
        let proc = server.borrow_mut().register_process();
        this.borrow_mut().proc = Some(proc);
        // Migrated sessions survive the crash: re-attach ownership to
        // the new process id rebuilt from the stub records.
        let mut locals: Vec<SessionId> = this
            .borrow()
            .fds
            .values()
            .filter_map(|e| match &e.state {
                FdState::Local {
                    session: Some(s), ..
                } => Some(*s),
                _ => None,
            })
            .collect();
        locals.sort(); // map order must not pick the adoption order
        {
            let mut srv = server.borrow_mut();
            for sid in &locals {
                srv.adopt_session(*sid, proc);
            }
        }
        // Server-resident sessions died with the server's in-memory
        // DB; their descriptors are now dead.
        let mut dead: Vec<(Fd, SessionId)> = this
            .borrow()
            .fds
            .iter()
            .filter_map(|(fd, e)| {
                let sid = match &e.state {
                    FdState::Session(s) | FdState::Fresh(Some(s)) => *s,
                    _ => return None,
                };
                (!server.borrow().has_session(sid)).then_some((*fd, sid))
            })
            .collect();
        dead.sort();
        for (fd, sid) in dead {
            let mut app = this.borrow_mut();
            app.fds.remove(&fd);
            app.handlers.remove(&fd);
            app.accept_ready.remove(&fd);
            app.accept_pending.remove(&fd);
            app.watched.remove(&fd);
            app.session_to_fd.remove(&sid);
        }
        true
    }
}

impl FdState {
    /// Helper for matching out of a borrowed entry.
    fn clone_parts(&self) -> FdState {
        match self {
            FdState::Fresh(s) => FdState::Fresh(*s),
            FdState::Session(s) => FdState::Session(*s),
            FdState::Local {
                session,
                sock,
                endpoint,
            } => FdState::Local {
                session: *session,
                sock: *sock,
                endpoint: endpoint.clone(),
            },
            FdState::Kern(s) => FdState::Kern(*s),
        }
    }
}
