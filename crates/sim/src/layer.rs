//! The protocol layers charged time is attributed to.
//!
//! Table 4 of the paper breaks round-trip latency down by protocol layer
//! ("entry/copyin", "tcp,udp_output", …, "copyout/exit"). Every cost
//! charged through a [`Charge`](crate::cpu::Charge) names the [`Layer`]
//! it belongs to; the [`Profiler`](crate::profile::Profiler) keys its
//! buckets by it and the [`Census`](crate::census::Census) its counters.

use std::fmt;

/// The rows of the paper's Table 4, plus bookkeeping categories for time
/// spent outside the data path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Layer {
    /// Socket-layer entry and copy of the user buffer into mbufs.
    EntryCopyin,
    /// `tcp_output` / `udp_output`: header construction and checksum.
    TcpUdpOutput,
    /// `ip_output`: IP header construction and route lookup.
    IpOutput,
    /// Ethernet output: ARP resolution, framing, handing to the device.
    EtherOutput,
    /// Device interrupt fielding and (for kernel/server paths) the copy
    /// out of device memory into a wired kernel buffer.
    DeviceIntrRead,
    /// Demultiplexing: netisr dispatch and packet-filter execution.
    NetisrPacketFilter,
    /// Delivering the packet to the destination protocol stack across a
    /// protection boundary (library and server paths only).
    KernelCopyout,
    /// Packaging the incoming packet as an mbuf chain and queueing it.
    MbufQueue,
    /// `ipintr`: IP input processing.
    IpIntr,
    /// `tcp_input` / `udp_input`: checksum verification, socket queueing.
    TcpUdpInput,
    /// Waking the application thread that blocks in a receive call.
    WakeupUserThread,
    /// Copying from the socket queue into the caller's buffer and leaving
    /// the protocol.
    CopyoutExit,
    /// Time on the wire.
    NetworkTransit,
    /// Control-path work (proxy RPCs, connection setup) — not part of
    /// Table 4's data path but attributed for completeness.
    Control,
    /// Anything else (timers, retransmissions, background work).
    Other,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 15;

    /// Every layer, in index order (Table 4 rows first, then the
    /// off-path bookkeeping categories).
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::EntryCopyin,
        Layer::TcpUdpOutput,
        Layer::IpOutput,
        Layer::EtherOutput,
        Layer::DeviceIntrRead,
        Layer::NetisrPacketFilter,
        Layer::KernelCopyout,
        Layer::MbufQueue,
        Layer::IpIntr,
        Layer::TcpUdpInput,
        Layer::WakeupUserThread,
        Layer::CopyoutExit,
        Layer::NetworkTransit,
        Layer::Control,
        Layer::Other,
    ];

    /// The row label used in Table 4.
    pub fn label(self) -> &'static str {
        match self {
            Layer::EntryCopyin => "entry/copyin",
            Layer::TcpUdpOutput => "tcp,udp_output",
            Layer::IpOutput => "ip_output",
            Layer::EtherOutput => "ether_output",
            Layer::DeviceIntrRead => "device intr/read",
            Layer::NetisrPacketFilter => "netisr/packet filter",
            Layer::KernelCopyout => "kernel copyout",
            Layer::MbufQueue => "mbuf/queue",
            Layer::IpIntr => "ipintr",
            Layer::TcpUdpInput => "tcp,udp_input",
            Layer::WakeupUserThread => "wakeup user thread",
            Layer::CopyoutExit => "copyout/exit",
            Layer::NetworkTransit => "network transit",
            Layer::Control => "control",
            Layer::Other => "other",
        }
    }

    /// Position in [`Layer::ALL`] (the declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Layer::EntryCopyin.label(), "entry/copyin");
        assert_eq!(Layer::NetisrPacketFilter.label(), "netisr/packet filter");
        assert_eq!(Layer::CopyoutExit.label(), "copyout/exit");
    }
}
