//! IP fragmentation and reassembly.
//!
//! Fragmentation happens in `ip_output` when a datagram exceeds the
//! interface MTU; reassembly happens in `ipintr`. In the decomposed
//! system, session packet filters never match fragments, so fragmented
//! datagrams are always reassembled by the operating system server
//! (which then forwards them to the owning application) — one of the
//! "difficult cases" §3.1 routes through the server.

use psd_sim::hash::HashMap;
use psd_sim::SimTime;
#[cfg(test)]
use psd_wire::IpProto;
use psd_wire::Ipv4Header;
use std::net::Ipv4Addr;
use std::ops::Range;

/// How long a partial datagram may sit in the reassembly queue.
pub const REASS_TTL: SimTime = SimTime::from_secs(30);

/// Splits an IP payload into fragments that fit `mtu`. Returns
/// `(header, payload)` pairs ready for transmission. The input header
/// must describe the whole datagram.
pub fn fragment(hdr: &Ipv4Header, payload: &[u8], mtu: usize) -> Vec<(Ipv4Header, Vec<u8>)> {
    fragment_ranges(hdr, payload.len(), mtu)
        .into_iter()
        .map(|(fh, range)| (fh, payload[range].to_vec()))
        .collect()
}

/// [`fragment`] without the copies: the header of each fragment and the
/// range of the `payload_len`-byte payload it carries.
pub fn fragment_ranges(
    hdr: &Ipv4Header,
    payload_len: usize,
    mtu: usize,
) -> Vec<(Ipv4Header, Range<usize>)> {
    let max_data = (mtu - hdr.header_len) & !7;
    assert!(max_data > 0, "mtu too small to fragment into");
    if payload_len + hdr.header_len <= mtu {
        return vec![(*hdr, 0..payload_len)];
    }
    let mut out = Vec::new();
    let mut off = 0;
    while off < payload_len {
        let take = max_data.min(payload_len - off);
        let last = off + take == payload_len;
        let mut fh = *hdr;
        fh.frag_offset = hdr.frag_offset + off as u16;
        fh.more_fragments = !last || hdr.more_fragments;
        fh.total_len = (fh.header_len + take) as u16;
        out.push((fh, off..off + take));
        off += take;
    }
    out
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ReassKey {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    ident: u16,
}

struct Partial {
    pieces: Vec<(u16, Vec<u8>)>,
    total_len: Option<usize>,
    deadline: SimTime,
    template: Ipv4Header,
}

impl Partial {
    fn try_complete(&self) -> Option<Vec<u8>> {
        let total = self.total_len?;
        let mut buf = vec![0u8; total];
        let mut covered = vec![false; total];
        for (off, data) in &self.pieces {
            let off = usize::from(*off);
            if off + data.len() > total {
                return None;
            }
            buf[off..off + data.len()].copy_from_slice(data);
            covered[off..off + data.len()]
                .iter_mut()
                .for_each(|c| *c = true);
        }
        if covered.iter().all(|&c| c) {
            Some(buf)
        } else {
            None
        }
    }
}

/// The reassembly queue.
#[derive(Default)]
pub struct Reassembler {
    partials: HashMap<ReassKey, Partial>,
}

impl Reassembler {
    /// An empty queue.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Number of datagrams being reassembled.
    pub fn len(&self) -> usize {
        self.partials.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.partials.is_empty()
    }

    /// Feeds one fragment. Returns the reassembled `(header, payload)`
    /// when the datagram completes.
    pub fn insert(
        &mut self,
        hdr: &Ipv4Header,
        payload: &[u8],
        now: SimTime,
    ) -> Option<(Ipv4Header, Vec<u8>)> {
        debug_assert!(hdr.is_fragment());
        let key = ReassKey {
            src: hdr.src,
            dst: hdr.dst,
            proto: hdr.proto.to_u8(),
            ident: hdr.ident,
        };
        let partial = self.partials.entry(key.clone()).or_insert_with(|| Partial {
            pieces: Vec::new(),
            total_len: None,
            deadline: now + REASS_TTL,
            template: *hdr,
        });
        partial.pieces.push((hdr.frag_offset, payload.to_vec()));
        if !hdr.more_fragments {
            partial.total_len = Some(usize::from(hdr.frag_offset) + payload.len());
        }
        if let Some(buf) = partial.try_complete() {
            let mut whole = partial.template;
            self.partials.remove(&key);
            whole.frag_offset = 0;
            whole.more_fragments = false;
            whole.total_len = (whole.header_len + buf.len()) as u16;
            Some((whole, buf))
        } else {
            None
        }
    }

    /// Discards partial datagrams whose deadline has passed. Returns the
    /// number discarded.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.partials.len();
        self.partials.retain(|_, p| p.deadline > now);
        before - self.partials.len()
    }
}

/// Computes a fresh identification value sequence for outgoing
/// datagrams.
#[derive(Debug, Default)]
pub struct IpIdent(u16);

impl IpIdent {
    /// Next identification value.
    #[allow(clippy::should_implement_trait)] // Deliberately not an Iterator: never exhausts.
    pub fn next(&mut self) -> u16 {
        self.0 = self.0.wrapping_add(1);
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(payload_len: usize, ident: u16) -> Ipv4Header {
        let mut h = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            payload_len,
        );
        h.ident = ident;
        h
    }

    #[test]
    fn small_datagram_is_not_fragmented() {
        let h = hdr(100, 1);
        let frags = fragment(&h, &[7u8; 100], 1500);
        assert_eq!(frags.len(), 1);
        assert!(!frags[0].0.more_fragments);
    }

    #[test]
    fn fragments_cover_payload_exactly() {
        let payload: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
        let h = hdr(payload.len(), 2);
        let frags = fragment(&h, &payload, 1500);
        assert!(frags.len() >= 3);
        let mut reassembled = vec![0u8; payload.len()];
        for (fh, data) in &frags {
            let off = usize::from(fh.frag_offset);
            reassembled[off..off + data.len()].copy_from_slice(data);
            // All but the last have MF set and 8-byte-aligned offsets.
            assert_eq!(fh.frag_offset % 8, 0);
        }
        assert_eq!(reassembled, payload);
        assert!(frags[..frags.len() - 1]
            .iter()
            .all(|(h, _)| h.more_fragments));
        assert!(!frags.last().unwrap().0.more_fragments);
    }

    #[test]
    fn reassembly_in_order() {
        let payload: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
        let h = hdr(payload.len(), 3);
        let frags = fragment(&h, &payload, 1500);
        let mut r = Reassembler::new();
        let mut done = None;
        for (fh, data) in &frags {
            done = r.insert(fh, data, SimTime::ZERO);
        }
        let (whole, buf) = done.expect("reassembly should complete");
        assert_eq!(buf, payload);
        assert_eq!(whole.payload_len(), payload.len());
        assert!(r.is_empty());
    }

    #[test]
    fn reassembly_out_of_order_and_duplicates() {
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        let h = hdr(payload.len(), 4);
        let mut frags = fragment(&h, &payload, 576);
        frags.reverse();
        let dup = frags[2].clone();
        frags.insert(3, dup);
        let mut r = Reassembler::new();
        let mut done = None;
        for (fh, data) in &frags {
            let res = r.insert(fh, data, SimTime::ZERO);
            if res.is_some() {
                done = res;
            }
        }
        assert_eq!(done.expect("complete").1, payload);
    }

    #[test]
    fn interleaved_datagrams_do_not_mix() {
        let pa: Vec<u8> = vec![0xAA; 3000];
        let pb: Vec<u8> = vec![0xBB; 3000];
        let fa = fragment(&hdr(3000, 10), &pa, 1500);
        let fb = fragment(&hdr(3000, 11), &pb, 1500);
        let mut r = Reassembler::new();
        let mut results = Vec::new();
        for (x, y) in fa.iter().zip(fb.iter()) {
            if let Some(done) = r.insert(&x.0, &x.1, SimTime::ZERO) {
                results.push(done);
            }
            if let Some(done) = r.insert(&y.0, &y.1, SimTime::ZERO) {
                results.push(done);
            }
        }
        assert_eq!(results.len(), 2);
        assert!(results.iter().any(|(h, p)| h.ident == 10 && p == &pa));
        assert!(results.iter().any(|(h, p)| h.ident == 11 && p == &pb));
    }

    #[test]
    fn expiry_discards_partials() {
        let payload = vec![1u8; 3000];
        let h = hdr(3000, 5);
        let frags = fragment(&h, &payload, 1500);
        let mut r = Reassembler::new();
        r.insert(&frags[0].0, &frags[0].1, SimTime::ZERO);
        assert_eq!(r.len(), 1);
        assert_eq!(r.expire(SimTime::from_secs(31)), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn ident_increments() {
        let mut id = IpIdent::default();
        let a = id.next();
        let b = id.next();
        assert_ne!(a, b);
    }
}
