//! Wire-byte golden test: one seeded exchange that drives every transmit
//! path of the stack and the medium, digested frame by frame.
//!
//! The exchange covers the TCP handshake, data, pure ACKs, FIN and RST;
//! UDP datagrams, one of them larger than the MTU (IP fragments); ICMP
//! echo reply and port unreachable; ARP request, reply and the
//! pending-queue flush; GSO segments; `WireDuplicate` faults; and
//! broadcasts heard by two stations. It runs once on a Library-SHM bed
//! (server and library stacks, user-space transmit) and once on a Mach
//! 2.5 in-kernel bed (kernel stack, in-kernel transmit).
//!
//! The digest covers every frame handed to the medium (time and bytes,
//! from a `FrameTrace`) and every frame a passive third station heard
//! (broadcasts and the frames addressed to it). It is pinned: a change
//! to how frames are built or moved must leave every byte and every
//! timestamp where it was.

mod common;

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use common::{run_until, tcp_client, tcp_echo_server, udp_echo_server};
use psd::core::{AppHandle, AppLib, Fd, FdEventFn};
use psd::kernel::BatchConfig;
use psd::netdev::{Ethernet, EthernetHandle, FrameTrace, Station};
use psd::netstack::{InetAddr, SockEvent};
use psd::server::Proto;
use psd::sim::{Platform, Sim, SimTime};
use psd::systems::{SystemConfig, TestBed};
use psd::wire::{
    ArpOp, ArpPacket, EtherAddr, EtherType, EthernetHeader, IcmpMessage, IcmpType, IpProto,
    Ipv4Header, TcpFlags, TcpHeader, ETHER_HDR_LEN,
};

/// Frames with the time they were sent or heard.
type Frames = Vec<(SimTime, Vec<u8>)>;

/// The pinned digest of both exchanges.
const GOLDEN: u64 = 0x1458_4704_eddd_3e59;

/// A passive third station on the segment: it records everything it
/// hears, answers ARP for its own address and can inject raw frames.
struct Bystander {
    mac: EtherAddr,
    ip: Ipv4Addr,
    ether: EthernetHandle,
    heard: Frames,
}

impl Station for Bystander {
    fn mac(&self) -> EtherAddr {
        self.mac
    }

    fn frame_arrived(&mut self, sim: &mut Sim, frame: Vec<u8>) {
        if let Ok(eth) = EthernetHeader::parse(&frame) {
            if eth.ethertype == EtherType::Arp {
                if let Ok(arp) = ArpPacket::parse(&frame[ETHER_HDR_LEN..]) {
                    if arp.op == ArpOp::Request && arp.target_ip == self.ip {
                        let reply = EthernetHeader {
                            dst: arp.sender_mac,
                            src: self.mac,
                            ethertype: EtherType::Arp,
                        };
                        let mut f = reply.encode().to_vec();
                        f.extend_from_slice(&arp.reply_to(self.mac).encode());
                        Ethernet::transmit(&self.ether, sim, sim.now(), f);
                    }
                }
            }
        }
        self.heard.push((sim.now(), frame));
    }
}

fn attach_bystander(bed: &mut TestBed) -> Rc<RefCell<Bystander>> {
    let b = Rc::new(RefCell::new(Bystander {
        mac: EtherAddr::local(9),
        ip: Ipv4Addr::new(10, 0, 0, 9),
        ether: bed.ether.clone(),
        heard: Vec::new(),
    }));
    bed.ether.borrow_mut().attach(b.clone());
    b
}

/// An ICMP echo request from the bystander to `dst`.
fn echo_request(dst_mac: EtherAddr, dst: Ipv4Addr) -> Vec<u8> {
    let msg = IcmpMessage::echo_request(0x5eed, 1, (0..56u8).collect()).encode();
    let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 9), dst, IpProto::Icmp, msg.len());
    let eth = EthernetHeader {
        dst: dst_mac,
        src: EtherAddr::local(9),
        ethertype: EtherType::Ipv4,
    };
    let mut f = eth.encode().to_vec();
    f.extend_from_slice(&ip.encode());
    f.extend_from_slice(&msg);
    f
}

/// Seeded payload bytes.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = psd::sim::Rng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// FNV-1a, folded over `(time, length, bytes)` records.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn frames(&mut self, frames: &[(SimTime, Vec<u8>)]) {
        self.bytes(&(frames.len() as u64).to_le_bytes());
        for (t, f) in frames {
            self.bytes(&t.as_nanos().to_le_bytes());
            self.bytes(&(f.len() as u64).to_le_bytes());
            self.bytes(f);
        }
    }
}

/// What the captured traffic contains, so the golden cannot go vacuous.
#[derive(Default, Debug)]
struct Coverage {
    syn: u64,
    data: u64,
    pure_ack: u64,
    fin: u64,
    rst: u64,
    udp: u64,
    fragments: u64,
    echo_reply: u64,
    port_unreach: u64,
    arp_request: u64,
    arp_reply: u64,
}

fn classify(frames: &[(SimTime, Vec<u8>)]) -> Coverage {
    let mut c = Coverage::default();
    for (_, f) in frames {
        let eth = EthernetHeader::parse(f).expect("ethernet");
        let body = &f[ETHER_HDR_LEN..];
        match eth.ethertype {
            EtherType::Arp => match ArpPacket::parse(body).expect("arp").op {
                ArpOp::Request => c.arp_request += 1,
                ArpOp::Reply => c.arp_reply += 1,
            },
            EtherType::Ipv4 => {
                let ip = Ipv4Header::parse(body).expect("ipv4");
                if ip.is_fragment() {
                    c.fragments += 1;
                    if ip.frag_offset != 0 {
                        continue;
                    }
                }
                let payload = &body[ip.header_len..usize::from(ip.total_len)];
                match ip.proto {
                    IpProto::Tcp => {
                        let (h, len) = TcpHeader::parse(payload).expect("tcp");
                        let has_data = payload.len() > len;
                        if h.flags.contains(TcpFlags::SYN) {
                            c.syn += 1;
                        } else if h.flags.contains(TcpFlags::RST) {
                            c.rst += 1;
                        } else if h.flags.contains(TcpFlags::FIN) {
                            c.fin += 1;
                        } else if has_data {
                            c.data += 1;
                        } else {
                            c.pure_ack += 1;
                        }
                    }
                    IpProto::Udp => c.udp += 1,
                    IpProto::Icmp => match IcmpMessage::parse(payload).expect("icmp").kind {
                        IcmpType::EchoReply => c.echo_reply += 1,
                        IcmpType::DestUnreachable(_) => c.port_unreach += 1,
                        _ => {}
                    },
                    IpProto::Other(_) => {}
                }
            }
            EtherType::Other(_) => {}
        }
    }
    c
}

fn send_all(bed: &mut TestBed, app: &AppHandle, fd: Fd, data: &[u8]) {
    let mut off = 0;
    let deadline = bed.sim.now() + SimTime::from_secs(30);
    while off < data.len() {
        assert!(bed.sim.now() < deadline, "send stalled at {off}");
        match AppLib::send(app, &mut bed.sim, fd, &data[off..]) {
            Ok(n) => off += n,
            Err(psd::netstack::SocketError::WouldBlock) => {}
            Err(e) => panic!("send: {e}"),
        }
        bed.run_for(SimTime::from_millis(5));
    }
}

/// A bound UDP socket that counts the bytes it receives.
fn udp_socket(bed: &mut TestBed, app: &AppHandle, port: u16) -> (Fd, Rc<RefCell<usize>>) {
    let fd = AppLib::socket(app, &mut bed.sim, Proto::Udp);
    AppLib::bind(app, &mut bed.sim, fd, port).expect("udp bind");
    let got = Rc::new(RefCell::new(0usize));
    let (app2, got2) = (app.clone(), got.clone());
    let handler: FdEventFn = Rc::new(RefCell::new(move |sim: &mut Sim, fd: Fd, ev: SockEvent| {
        if ev == SockEvent::Readable {
            let mut buf = [0u8; 8192];
            while let Ok((n, _)) = AppLib::recvfrom(&app2, sim, fd, &mut buf) {
                *got2.borrow_mut() += n;
            }
        }
    }));
    app.borrow_mut().set_event_handler(fd, handler);
    (fd, got)
}

/// Runs the exchange on one bed and returns every captured frame plus
/// the bystander's log.
fn exchange(config: SystemConfig, seed: u64, gso: bool) -> (Frames, Frames, u64) {
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, seed);
    if gso {
        bed.set_batch_config(BatchConfig {
            batch: 1,
            gro: false,
            gso: true,
        });
    }
    let trace = Rc::new(RefCell::new(FrameTrace::default()));
    bed.ether.borrow_mut().set_trace(Some(trace.clone()));
    let bystander = attach_bystander(&mut bed);
    bed.arm_wire_faults(seed, 0.0, 0.08, 0.0);

    let srv = bed.hosts[1].spawn_app();
    let cli = bed.hosts[0].spawn_app();
    let server_ip = bed.hosts[1].ip;
    tcp_echo_server(&mut bed, &srv, 7001);
    udp_echo_server(&mut bed, &srv, 7002);
    bed.settle();

    // TCP: handshake (behind an ARP exchange), data both ways, pure
    // ACKs, then FIN.
    let client = tcp_client(&mut bed, &cli, InetAddr::new(server_ip, 7001));
    assert!(
        run_until(&mut bed, SimTime::from_secs(5), || *client
            .connected
            .borrow()),
        "{config:?}: TCP connect timed out"
    );
    let data = pattern(seed ^ 0x7c9, 6000);
    send_all(&mut bed, &cli, client.fd, &data);
    assert!(
        run_until(&mut bed, SimTime::from_secs(20), || client
            .replies
            .borrow()
            .len()
            >= data.len()),
        "{config:?}: echo stalled"
    );
    assert_eq!(*client.replies.borrow(), data, "{config:?}: echo bytes");
    AppLib::close(&cli, &mut bed.sim, client.fd);
    bed.run_for(SimTime::from_secs(1));

    // RST: a SYN to a port nobody listens on.
    let refused = tcp_client(&mut bed, &cli, InetAddr::new(server_ip, 7999));
    assert!(
        run_until(&mut bed, SimTime::from_secs(5), || refused
            .error
            .borrow()
            .is_some()),
        "{config:?}: no RST"
    );
    AppLib::close(&cli, &mut bed.sim, refused.fd);

    // UDP: a small datagram, one over the MTU (fragments both ways), and
    // one to a closed port (ICMP port unreachable).
    let (ufd, got) = udp_socket(&mut bed, &cli, 7100);
    let echo = Some(InetAddr::new(server_ip, 7002));
    AppLib::sendto(&cli, &mut bed.sim, ufd, &pattern(seed ^ 1, 100), echo).expect("sendto");
    AppLib::sendto(&cli, &mut bed.sim, ufd, &pattern(seed ^ 2, 4000), echo).expect("sendto");
    assert!(
        run_until(&mut bed, SimTime::from_secs(5), || *got.borrow() >= 4100),
        "{config:?}: UDP echo lost ({} bytes)",
        got.borrow()
    );
    let closed = Some(InetAddr::new(server_ip, 7003));
    AppLib::sendto(&cli, &mut bed.sim, ufd, b"nobody home", closed).expect("sendto");
    bed.run_for(SimTime::from_millis(200));

    // GSO: one super-descriptor on a connected library socket.
    if gso {
        let (gfd, ggot) = udp_socket(&mut bed, &cli, 7101);
        AppLib::connect(&cli, &mut bed.sim, gfd, InetAddr::new(server_ip, 7002))
            .expect("udp connect");
        bed.settle();
        AppLib::send_gso(
            &cli,
            &mut bed.sim,
            gfd,
            Rc::new(pattern(seed ^ 3, 2048)),
            256,
        )
        .expect("send_gso");
        assert!(
            run_until(&mut bed, SimTime::from_secs(5), || *ggot.borrow() >= 2048),
            "{config:?}: GSO echo lost"
        );
        let stack = cli.borrow().stack().expect("library stack");
        assert_eq!(
            stack.borrow().stats.gso_segments,
            8,
            "{config:?}: GSO segments"
        );
    }

    // ICMP echo from the bystander: the reply waits in the ARP pending
    // queue while the server resolves the bystander's address.
    let req = echo_request(EtherAddr::local(2), server_ip);
    let now = bed.sim.now();
    Ethernet::transmit(&bed.ether, &mut bed.sim, now, req);
    bed.run_for(SimTime::from_secs(2));

    let duplicated = bed.ether.borrow().stats().duplicated;
    let frames = std::mem::take(&mut trace.borrow_mut().frames);
    let heard = std::mem::take(&mut bystander.borrow_mut().heard);
    (frames, heard, duplicated)
}

#[test]
fn every_transmit_path_is_byte_identical_to_the_golden() {
    let mut digest = Digest::new();
    for (config, seed, gso) in [
        (SystemConfig::LibraryShm, 0x3d1, true),
        (SystemConfig::Mach25InKernel, 0x3d2, false),
    ] {
        let (frames, heard, duplicated) = exchange(config, seed, gso);
        let wire = classify(&frames);
        let ctx = format!("{config:?}: {wire:?}");
        assert!(wire.syn >= 2 && wire.data > 0 && wire.pure_ack > 0, "{ctx}");
        assert!(wire.fin >= 2 && wire.rst >= 1, "{ctx}");
        assert!(wire.udp > 0 && wire.fragments >= 6, "{ctx}");
        assert!(wire.echo_reply == 1 && wire.port_unreach >= 1, "{ctx}");
        assert!(wire.arp_request >= 2 && wire.arp_reply >= 2, "{ctx}");
        assert!(duplicated > 0, "{ctx}: no WireDuplicate fired");
        // The bystander heard the hosts' ARP broadcasts (each also heard
        // by the other host) and the echo reply released from the ARP
        // pending queue.
        let by = classify(&heard);
        assert!(
            by.arp_request >= 2 && by.echo_reply >= 1,
            "{config:?}: bystander {by:?}"
        );
        digest.frames(&frames);
        digest.frames(&heard);
    }
    assert_eq!(
        digest.0, GOLDEN,
        "wire bytes changed: digest {:#018x}",
        digest.0
    );
}
