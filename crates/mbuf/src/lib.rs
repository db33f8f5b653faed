//! BSD-style network memory buffers (mbufs) and socket buffers.
//!
//! The paper's protocol code is BSD Net2 code, whose unit of allocation
//! is the *mbuf*: a small fixed-size buffer, optionally pointing at a
//! shared 2 KB *cluster*, chained to form one packet. This crate
//! reimplements the structure with the operations the stack needs:
//!
//! - [`MbufChain::from_slice`] — `m_copyin`: copy user data into a chain.
//! - [`MbufChain::from_shared`] — reference external data without copying
//!   (the library UDP send path and the NEWAPI shared-buffer interface).
//! - [`MbufChain::copy_range`] — `m_copy`: a range copy that *shares*
//!   clusters instead of copying, which is what lets `tcp_output` send
//!   from the socket buffer and retransmit without touching the bytes.
//! - [`MbufChain::trim_front`]/[`trim_back`](MbufChain::trim_back) —
//!   `m_adj`.
//! - [`MbufChain::prepend`] — header prepend into reserved headroom.
//! - [`MbufChain::pullup`] — `m_pullup`: make a prefix contiguous.
//!
//! [`SockBuf`] is the byte-stream socket buffer (`sb_cc`/`sb_hiwat`
//! bookkeeping, `sbappend`, `sbdrop`) and [`DgramBuf`] is the
//! record-oriented variant UDP uses.
//!
//! The structures are pure data: virtual-time costs for mbuf operations
//! are charged by the protocol code that invokes them, using the counts
//! these APIs report (e.g. [`MbufChain::mbuf_count`]).

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

mod pool;

pub use pool::{drain_pools, pool_stats, reset_pool_stats, PoolStats};

thread_local! {
    static COPIED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes physically copied by the mbuf data primitives — `m_copyin`
/// ([`MbufChain::from_slice`], [`MbufChain::append_slice`]), `m_copydata`
/// ([`MbufChain::copy_to_slice`], [`MbufChain::to_vec`]), the small-mbuf
/// arm of `m_copy`, and `m_pullup` — since the last
/// [`reset_copy_meter`]. Header prepends are excluded (they are header
/// copies, not packet-body copies). The simulation is single-threaded,
/// so the tally is deterministic; the operation census uses it to
/// cross-check the per-site copy counters against what the buffer code
/// actually did.
pub fn copied_bytes() -> u64 {
    COPIED_BYTES.with(|c| c.get())
}

/// Resets this thread's mbuf copy meter to zero.
pub fn reset_copy_meter() {
    COPIED_BYTES.with(|c| c.set(0));
}

fn meter_copy(n: usize) {
    COPIED_BYTES.with(|c| c.set(c.get() + n as u64));
}

/// Size of a small mbuf's inline data area.
pub const MLEN: usize = 128;

/// Size of an mbuf cluster.
pub const MCLBYTES: usize = 2048;

/// Appends of at least this many bytes go to a cluster (BSD `MINCLSIZE`).
pub const MINCLSIZE: usize = 208;

/// Default headroom reserved for link/network/transport headers when
/// building a data chain (Ethernet 14 + IP 20 + TCP 20, rounded up).
pub const HEADROOM: usize = 64;

pub(crate) enum Storage {
    Small(Box<[u8; MLEN]>),
    Cluster {
        data: Rc<Vec<u8>>,
    },
    /// Placeholder for a node whose storage has been recycled (pooled
    /// chain nodes, and mbufs mid-drop). Never observable through the
    /// public API.
    Vacant,
}

impl Storage {
    fn bytes(&self) -> &[u8] {
        match self {
            Storage::Small(b) => &b[..],
            Storage::Cluster { data } => data,
            Storage::Vacant => &[],
        }
    }
}

/// One mbuf: a view (`off..off+len`) into small inline storage or a
/// shared cluster.
pub struct Mbuf {
    storage: Storage,
    off: usize,
    len: usize,
    next: Option<Box<Mbuf>>,
}

impl Drop for Mbuf {
    fn drop(&mut self) {
        // Recycle the data area. The `next` chain is handled by the
        // compiler's drop glue (or, preferably, by `MbufChain`'s
        // iterative drop, which also reclaims the node boxes).
        pool::recycle_storage(std::mem::replace(&mut self.storage, Storage::Vacant));
    }
}

impl Mbuf {
    fn small() -> Mbuf {
        Mbuf {
            storage: Storage::Small(pool::take_small()),
            off: 0,
            len: 0,
            next: None,
        }
    }

    fn cluster(data: Rc<Vec<u8>>, off: usize, len: usize) -> Mbuf {
        debug_assert!(off + len <= data.len());
        Mbuf {
            storage: Storage::Cluster { data },
            off,
            len,
            next: None,
        }
    }

    /// The bytes this mbuf contributes to the chain.
    pub fn data(&self) -> &[u8] {
        &self.storage.bytes()[self.off..self.off + self.len]
    }

    /// True if this mbuf references a (possibly shared) cluster.
    pub fn is_cluster(&self) -> bool {
        matches!(self.storage, Storage::Cluster { .. })
    }

    fn tailroom(&self) -> usize {
        match &self.storage {
            Storage::Small(_) => MLEN - (self.off + self.len),
            // Clusters may be shared; never write into one in place.
            Storage::Cluster { .. } | Storage::Vacant => 0,
        }
    }

    fn append_small(&mut self, src: &[u8]) -> usize {
        let n = src.len().min(self.tailroom());
        if n > 0 {
            if let Storage::Small(buf) = &mut self.storage {
                let start = self.off + self.len;
                buf[start..start + n].copy_from_slice(&src[..n]);
                self.len += n;
                meter_copy(n);
            }
        }
        n
    }
}

impl fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Mbuf{{{} {}B@{}}}",
            if self.is_cluster() {
                "cluster"
            } else {
                "small"
            },
            self.len,
            self.off
        )
    }
}

/// A chain of mbufs holding one packet (or one socket-buffer run).
#[derive(Default)]
pub struct MbufChain {
    head: Option<Box<Mbuf>>,
    len: usize,
    count: usize,
}

impl Drop for MbufChain {
    fn drop(&mut self) {
        // Iterative walk: returns every node box and data area to the
        // thread pool, and keeps long socket-buffer chains from
        // recursing one stack frame per mbuf.
        pool::recycle_chain(self.head.take());
    }
}

impl MbufChain {
    /// An empty chain.
    pub fn new() -> MbufChain {
        MbufChain::default()
    }

    /// Builds a chain by *copying* `data` (the `copyin` discipline),
    /// reserving [`HEADROOM`] in the first mbuf so link/protocol headers
    /// can later be prepended without allocation.
    pub fn from_slice(data: &[u8]) -> MbufChain {
        MbufChain::from_slice_with_headroom(data, HEADROOM)
    }

    /// As [`from_slice`](MbufChain::from_slice) with explicit headroom.
    pub fn from_slice_with_headroom(data: &[u8], headroom: usize) -> MbufChain {
        let mut chain = MbufChain::new();
        if data.len() >= MINCLSIZE {
            // Cluster path: one copy into a (pooled) cluster.
            let mut cluster = pool::take_cluster(headroom + data.len());
            let buf = Rc::get_mut(&mut cluster).expect("fresh cluster is unique");
            buf.resize(headroom, 0);
            buf.extend_from_slice(data);
            meter_copy(data.len());
            let total = buf.len();
            chain.push_back(Mbuf::cluster(cluster, headroom, total - headroom));
        } else {
            let mut first = Mbuf::small();
            first.off = headroom.min(MLEN - 1);
            let mut written = first.append_small(data);
            chain.push_back(first);
            while written < data.len() {
                let mut m = Mbuf::small();
                written += m.append_small(&data[written..]);
                chain.push_back(m);
            }
        }
        chain
    }

    /// Builds a chain that *references* shared data without copying it —
    /// the zero-copy send discipline ("the user data can be referenced
    /// instead of copied").
    pub fn from_shared(data: Rc<Vec<u8>>) -> MbufChain {
        let len = data.len();
        MbufChain::from_shared_range(data, 0, len)
    }

    /// Builds a chain referencing a sub-range of shared data.
    pub fn from_shared_range(data: Rc<Vec<u8>>, off: usize, len: usize) -> MbufChain {
        let mut chain = MbufChain::new();
        if len > 0 {
            chain.push_back(Mbuf::cluster(data, off, len));
        }
        chain
    }

    /// Total bytes in the chain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the chain holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of mbufs in the chain (for cost accounting).
    pub fn mbuf_count(&self) -> usize {
        self.count
    }

    fn push_back(&mut self, m: Mbuf) {
        self.len += m.len;
        self.count += 1;
        let mut cur = &mut self.head;
        while let Some(node) = cur {
            cur = &mut node.next;
        }
        *cur = Some(pool::box_mbuf(m));
    }

    fn push_front(&mut self, mut m: Mbuf) {
        self.len += m.len;
        self.count += 1;
        m.next = self.head.take();
        self.head = Some(pool::box_mbuf(m));
    }

    /// Prepends `hdr` to the front of the chain, using the first mbuf's
    /// headroom when possible (the common case for protocol headers),
    /// otherwise allocating a new leading mbuf. Returns the number of
    /// mbufs allocated (0 or 1), for cost accounting.
    pub fn prepend(&mut self, hdr: &[u8]) -> usize {
        if let Some(first) = &mut self.head {
            let can_use_headroom = match &first.storage {
                Storage::Small(_) => first.off >= hdr.len(),
                Storage::Cluster { data } => first.off >= hdr.len() && Rc::strong_count(data) == 1,
                Storage::Vacant => unreachable!("vacant mbuf in a live chain"),
            };
            if can_use_headroom {
                first.off -= hdr.len();
                first.len += hdr.len();
                let off = first.off;
                match &mut first.storage {
                    Storage::Small(buf) => buf[off..off + hdr.len()].copy_from_slice(hdr),
                    Storage::Cluster { data } => {
                        let buf = Rc::get_mut(data).expect("uniqueness checked above");
                        buf[off..off + hdr.len()].copy_from_slice(hdr);
                    }
                    Storage::Vacant => unreachable!("vacant mbuf in a live chain"),
                }
                self.len += hdr.len();
                return 0;
            }
        }
        // Allocate a fresh leading mbuf (or chain, for oversized headers).
        if hdr.len() <= MLEN {
            let mut m = Mbuf::small();
            m.off = MLEN - hdr.len();
            let off = m.off;
            if let Storage::Small(buf) = &mut m.storage {
                buf[off..].copy_from_slice(hdr);
            }
            m.len = hdr.len();
            self.push_front(m);
            1
        } else {
            let rest = std::mem::take(self);
            let mut fresh = MbufChain::from_slice_with_headroom(hdr, 0);
            let allocated = fresh.mbuf_count();
            fresh.append_chain(rest);
            *self = fresh;
            allocated
        }
    }

    /// Appends another chain's mbufs (`m_cat`).
    pub fn append_chain(&mut self, mut other: MbufChain) {
        self.len += other.len;
        self.count += other.count;
        let mut cur = &mut self.head;
        while let Some(node) = cur {
            cur = &mut node.next;
        }
        *cur = other.head.take();
    }

    /// Appends `data` by copying, reusing tail space in the last small
    /// mbuf when available. Returns the number of mbufs allocated.
    pub fn append_slice(&mut self, data: &[u8]) -> usize {
        let mut written = 0;
        // Fill the tail of the last mbuf first.
        let mut cur = &mut self.head;
        while let Some(node) = cur {
            if node.next.is_none() {
                let n = node.append_small(data);
                self.len += n;
                written = n;
                break;
            }
            cur = &mut node.next;
        }
        let before = self.count;
        if written < data.len() {
            let rest = MbufChain::from_slice_with_headroom(&data[written..], 0);
            self.append_chain(rest);
        }
        self.count - before
    }

    /// `m_copy`: a logical copy of `[off, off+len)`. Cluster segments are
    /// shared (no byte copying); small segments are copied. Returns the
    /// new chain and the number of bytes physically copied, for cost
    /// accounting.
    pub fn copy_range(&self, mut off: usize, mut len: usize) -> (MbufChain, usize) {
        assert!(
            off + len <= self.len,
            "copy_range({off}, {len}) out of bounds of {}",
            self.len
        );
        let mut out = MbufChain::new();
        let mut copied = 0;
        let mut node = self.head.as_deref();
        while let Some(m) = node {
            if len == 0 {
                break;
            }
            if off >= m.len {
                off -= m.len;
                node = m.next.as_deref();
                continue;
            }
            let take = (m.len - off).min(len);
            match &m.storage {
                Storage::Cluster { data } => {
                    out.push_back(Mbuf::cluster(data.clone(), m.off + off, take));
                }
                Storage::Small(_) | Storage::Vacant => {
                    let src = &m.data()[off..off + take];
                    let rest = MbufChain::from_slice_with_headroom(src, 0);
                    copied += take;
                    out.append_chain(rest);
                }
            }
            len -= take;
            off = 0;
            node = m.next.as_deref();
        }
        (out, copied)
    }

    /// `m_adj` with a positive count: drops `n` bytes from the front.
    pub fn trim_front(&mut self, mut n: usize) {
        assert!(n <= self.len, "trim_front({n}) beyond length {}", self.len);
        self.len -= n;
        while n > 0 {
            let first = self.head.as_mut().expect("length accounting broken");
            if first.len > n {
                first.off += n;
                first.len -= n;
                break;
            }
            n -= first.len;
            let mut old = self.head.take().expect("length accounting broken");
            self.head = old.next.take();
            pool::recycle_node(old);
            self.count -= 1;
        }
        if self.len == 0 {
            pool::recycle_chain(self.head.take());
            self.count = 0;
        }
    }

    /// `m_adj` with a negative count: drops `n` bytes from the back.
    #[allow(clippy::while_let_loop)] // The `break`-with-truncation body reads better spelled out.
    pub fn trim_back(&mut self, n: usize) {
        assert!(n <= self.len, "trim_back({n}) beyond length {}", self.len);
        let keep = self.len - n;
        if keep == 0 {
            pool::recycle_chain(self.head.take());
            self.count = 0;
            self.len = 0;
            return;
        }
        let mut seen = 0;
        let mut cur = &mut self.head;
        loop {
            let node = match cur {
                Some(node) => node,
                None => break,
            };
            if seen + node.len >= keep {
                node.len = keep - seen;
                pool::recycle_chain(node.next.take());
                break;
            }
            seen += node.len;
            cur = &mut node.next;
        }
        self.len = keep;
        let mut count = 0;
        let mut node = self.head.as_deref();
        while let Some(m) = node {
            count += 1;
            node = m.next.as_deref();
        }
        self.count = count;
    }

    /// Splits the chain at byte `at`, returning the tail. Cluster data is
    /// shared, not copied.
    pub fn split_off(&mut self, at: usize) -> MbufChain {
        assert!(at <= self.len, "split_off({at}) beyond length {}", self.len);
        let (tail, _) = self.copy_range(at, self.len - at);
        self.trim_back(self.len - at);
        tail
    }

    /// `m_pullup`: ensure the first `n` bytes are contiguous in the first
    /// mbuf. Returns true on success (false if the chain is shorter).
    pub fn pullup(&mut self, n: usize) -> bool {
        if n > self.len {
            return false;
        }
        if n == 0 {
            return true;
        }
        if let Some(first) = &self.head {
            if first.len >= n {
                return true;
            }
        }
        assert!(n <= MLEN, "pullup({n}) larger than MLEN");
        let mut buf = vec![0u8; n];
        self.copy_to_slice(0, &mut buf);
        let old_len = self.len;
        let old = std::mem::take(self);
        let (rest, _) = old.copy_range(n, old_len - n);
        let mut first = Mbuf::small();
        first.append_small(&buf);
        let mut fresh = MbufChain::new();
        fresh.push_back(first);
        fresh.append_chain(rest);
        *self = fresh;
        true
    }

    /// Copies `buf.len()` bytes starting at `off` into `buf`
    /// (`m_copydata`).
    pub fn copy_to_slice(&self, mut off: usize, buf: &mut [u8]) {
        assert!(
            off + buf.len() <= self.len,
            "copy_to_slice({off}, {}) out of bounds of {}",
            buf.len(),
            self.len
        );
        let mut written = 0;
        let mut node = self.head.as_deref();
        while let Some(m) = node {
            if written == buf.len() {
                break;
            }
            if off >= m.len {
                off -= m.len;
                node = m.next.as_deref();
                continue;
            }
            let take = (m.len - off).min(buf.len() - written);
            buf[written..written + take].copy_from_slice(&m.data()[off..off + take]);
            meter_copy(take);
            written += take;
            off = 0;
            node = m.next.as_deref();
        }
    }

    /// Flattens the chain into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.append_to(&mut out);
        out
    }

    /// Appends the chain's bytes to `out` (`m_copydata` into the tail of
    /// a frame being built, used at device boundaries).
    pub fn append_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.len);
        for seg in self.iter_segments() {
            out.extend_from_slice(seg);
        }
        meter_copy(self.len);
    }

    /// Iterates over the contiguous byte segments of the chain.
    pub fn iter_segments(&self) -> SegmentIter<'_> {
        SegmentIter {
            node: self.head.as_deref(),
        }
    }
}

impl fmt::Debug for MbufChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MbufChain{{{}B in {} mbufs}}", self.len, self.count)
    }
}

impl Clone for MbufChain {
    /// Clones share cluster data and copy small mbufs, like `m_copy` of
    /// the whole chain.
    fn clone(&self) -> MbufChain {
        self.copy_range(0, self.len).0
    }
}

/// One descriptor of a batched NEWAPI receive (`recv_batch`): the
/// delivered chain plus where its body bytes live. For eager flows the
/// chain is the whole datagram and `kernel_resident` is false. For
/// selective-copy (kernel-resident) flows the ring carried only the
/// headers; the chain still exposes the full payload through the pull
/// handle, but the body copy is charged only when the application
/// actually pulls it.
pub struct RecvDesc {
    /// The received data.
    pub chain: MbufChain,
    /// True when the body stayed in kernel memory (header-only
    /// delivery); pulling the bytes pays the deferred copy.
    pub kernel_resident: bool,
}

/// Iterator over a chain's contiguous segments.
pub struct SegmentIter<'a> {
    node: Option<&'a Mbuf>,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let m = self.node?;
        self.node = m.next.as_deref();
        Some(m.data())
    }
}

/// A byte-stream socket buffer (BSD `sockbuf` for TCP).
#[derive(Debug, Default)]
pub struct SockBuf {
    chain: MbufChain,
    hiwat: usize,
    lowat: usize,
}

impl SockBuf {
    /// Creates a buffer with the given high-water mark (`sbreserve`).
    pub fn new(hiwat: usize) -> SockBuf {
        SockBuf {
            chain: MbufChain::new(),
            hiwat,
            lowat: 1,
        }
    }

    /// Bytes currently buffered (`sb_cc`).
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// True if no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// The high-water mark.
    pub fn hiwat(&self) -> usize {
        self.hiwat
    }

    /// Changes the high-water mark (`sbreserve`). Never discards data.
    pub fn reserve(&mut self, hiwat: usize) {
        self.hiwat = hiwat;
    }

    /// The low-water mark used by `select`/blocking wakeups.
    pub fn lowat(&self) -> usize {
        self.lowat
    }

    /// Sets the low-water mark.
    pub fn set_lowat(&mut self, lowat: usize) {
        self.lowat = lowat.max(1);
    }

    /// Free space (`sbspace`), zero when over-committed.
    pub fn space(&self) -> usize {
        self.hiwat.saturating_sub(self.chain.len())
    }

    /// Appends a chain (`sbappend`).
    pub fn append(&mut self, chain: MbufChain) {
        self.chain.append_chain(chain);
    }

    /// Drops `n` bytes from the front (`sbdrop`) — acknowledged data on
    /// the send side, consumed data on the receive side.
    pub fn drop_front(&mut self, n: usize) {
        self.chain.trim_front(n);
    }

    /// A logical copy of `[off, off+len)` for (re)transmission; shares
    /// clusters. Returns the chain and bytes physically copied.
    pub fn copy_range(&self, off: usize, len: usize) -> (MbufChain, usize) {
        self.chain.copy_range(off, len)
    }

    /// Copies the first `buf.len()` bytes into `buf` without consuming
    /// (receive-side peek before `drop_front`).
    pub fn peek(&self, buf: &mut [u8]) {
        self.chain.copy_to_slice(0, buf);
    }

    /// Discards everything (`sbflush`).
    pub fn flush(&mut self) {
        self.chain = MbufChain::new();
    }

    /// Takes the whole chain out (used when migrating session state).
    pub fn take_chain(&mut self) -> MbufChain {
        std::mem::take(&mut self.chain)
    }
}

/// One datagram record in a [`DgramBuf`].
#[derive(Debug)]
pub struct DgramRecord<M> {
    /// Protocol metadata (typically the sender's address).
    pub meta: M,
    /// The datagram payload.
    pub chain: MbufChain,
}

/// A record-oriented socket buffer (BSD `sockbuf` for UDP).
#[derive(Debug)]
pub struct DgramBuf<M> {
    records: VecDeque<DgramRecord<M>>,
    bytes: usize,
    hiwat: usize,
}

impl<M> DgramBuf<M> {
    /// Creates a buffer with the given byte high-water mark.
    pub fn new(hiwat: usize) -> DgramBuf<M> {
        DgramBuf {
            records: VecDeque::new(),
            bytes: 0,
            hiwat,
        }
    }

    /// Number of queued datagrams.
    pub fn records(&self) -> usize {
        self.records.len()
    }

    /// Total queued bytes.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// True if no datagrams are queued.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Free space in bytes.
    pub fn space(&self) -> usize {
        self.hiwat.saturating_sub(self.bytes)
    }

    /// Changes the high-water mark.
    pub fn reserve(&mut self, hiwat: usize) {
        self.hiwat = hiwat;
    }

    /// Appends a datagram (`sbappendaddr`). Returns false — dropping the
    /// datagram — if it does not fit, as BSD does.
    pub fn append(&mut self, meta: M, chain: MbufChain) -> bool {
        if chain.len() > self.space() {
            return false;
        }
        self.bytes += chain.len();
        self.records.push_back(DgramRecord { meta, chain });
        true
    }

    /// Removes and returns the oldest datagram.
    pub fn pop(&mut self) -> Option<DgramRecord<M>> {
        let rec = self.records.pop_front()?;
        self.bytes -= rec.chain.len();
        Some(rec)
    }

    /// Discards everything.
    pub fn flush(&mut self) {
        self.records.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_roundtrips() {
        for len in [0usize, 1, 10, MLEN, MINCLSIZE - 1, MINCLSIZE, 1460, 5000] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let chain = MbufChain::from_slice(&data);
            assert_eq!(chain.len(), len, "len {len}");
            assert_eq!(chain.to_vec(), data, "len {len}");
        }
    }

    #[test]
    fn small_data_uses_one_small_mbuf() {
        let chain = MbufChain::from_slice(&[1, 2, 3]);
        assert_eq!(chain.mbuf_count(), 1);
        assert!(!chain.iter_segments().next().unwrap().is_empty());
    }

    #[test]
    fn large_data_uses_cluster() {
        let data = vec![7u8; 1460];
        let chain = MbufChain::from_slice(&data);
        assert_eq!(chain.mbuf_count(), 1);
    }

    #[test]
    fn prepend_uses_headroom() {
        let mut chain = MbufChain::from_slice(&[9u8; 100]);
        let allocated = chain.prepend(&[1, 2, 3, 4]);
        assert_eq!(allocated, 0);
        assert_eq!(chain.len(), 104);
        assert_eq!(&chain.to_vec()[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn prepend_without_headroom_allocates() {
        let mut chain = MbufChain::from_slice_with_headroom(&[9u8; 10], 0);
        let allocated = chain.prepend(&[1, 2]);
        assert_eq!(allocated, 1);
        assert_eq!(chain.to_vec()[..2], [1, 2]);
        assert_eq!(chain.len(), 12);
    }

    #[test]
    fn prepend_on_shared_cluster_does_not_corrupt_sharer() {
        let data = vec![5u8; 1000];
        let chain = MbufChain::from_slice(&data);
        let (mut copy, _) = chain.copy_range(0, 1000);
        // The copy shares the cluster; prepending into it must not write
        // into storage the original still references.
        copy.prepend(&[1, 2, 3]);
        assert_eq!(&copy.to_vec()[..3], &[1, 2, 3]);
        assert_eq!(chain.to_vec(), data);
    }

    #[test]
    fn copy_range_shares_clusters() {
        let data = vec![3u8; 2000];
        let chain = MbufChain::from_slice(&data);
        let (copy, copied_bytes) = chain.copy_range(100, 500);
        assert_eq!(copied_bytes, 0, "cluster data must be shared, not copied");
        assert_eq!(copy.len(), 500);
        assert_eq!(copy.to_vec(), vec![3u8; 500]);
    }

    #[test]
    fn copy_range_copies_small_mbufs() {
        let chain = MbufChain::from_slice(&[1, 2, 3, 4, 5]);
        let (copy, copied_bytes) = chain.copy_range(1, 3);
        assert_eq!(copied_bytes, 3);
        assert_eq!(copy.to_vec(), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_range_out_of_bounds_panics() {
        let chain = MbufChain::from_slice(&[1, 2, 3]);
        let _ = chain.copy_range(2, 5);
    }

    #[test]
    fn trim_front_across_mbufs() {
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        // Force multiple small mbufs.
        let mut chain = MbufChain::from_slice_with_headroom(&data[..100], 90);
        chain.append_slice(&data[100..]);
        chain.trim_front(150);
        assert_eq!(chain.len(), 50);
        assert_eq!(chain.to_vec(), &data[150..]);
    }

    #[test]
    fn trim_front_entire_chain() {
        let mut chain = MbufChain::from_slice(&[1u8; 300]);
        chain.trim_front(300);
        assert!(chain.is_empty());
        assert_eq!(chain.mbuf_count(), 0);
    }

    #[test]
    fn trim_back_shortens() {
        let data: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        let mut chain = MbufChain::from_slice(&data);
        chain.trim_back(30);
        assert_eq!(chain.len(), 70);
        assert_eq!(chain.to_vec(), &data[..70]);
    }

    #[test]
    fn trim_back_everything() {
        let mut chain = MbufChain::from_slice(&[1u8; 50]);
        chain.trim_back(50);
        assert!(chain.is_empty());
        assert_eq!(chain.mbuf_count(), 0);
    }

    #[test]
    fn split_off_partitions() {
        let data: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let mut chain = MbufChain::from_slice(&data);
        let tail = chain.split_off(200);
        assert_eq!(chain.to_vec(), &data[..200]);
        assert_eq!(tail.to_vec(), &data[200..]);
    }

    #[test]
    fn pullup_makes_prefix_contiguous() {
        let mut chain = MbufChain::from_slice_with_headroom(&[1u8; 60], 100);
        chain.append_slice(&[2u8; 60]);
        assert!(chain.mbuf_count() >= 2);
        assert!(chain.pullup(80));
        let first = chain.iter_segments().next().unwrap();
        assert!(first.len() >= 80);
        let mut expect = vec![1u8; 60];
        expect.extend_from_slice(&[2u8; 60]);
        assert_eq!(chain.to_vec(), expect);
    }

    #[test]
    fn pullup_too_long_fails() {
        let mut chain = MbufChain::from_slice(&[1, 2, 3]);
        assert!(!chain.pullup(10));
    }

    #[test]
    fn from_shared_is_zero_alloc_per_byte() {
        let data = Rc::new(vec![9u8; 4000]);
        let chain = MbufChain::from_shared(data.clone());
        assert_eq!(chain.len(), 4000);
        assert_eq!(chain.mbuf_count(), 1);
        assert_eq!(Rc::strong_count(&data), 2);
    }

    #[test]
    fn from_shared_range_selects_window() {
        let data = Rc::new((0..100u8).collect::<Vec<_>>());
        let chain = MbufChain::from_shared_range(data, 10, 5);
        assert_eq!(chain.to_vec(), vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn append_slice_reuses_tail_space() {
        let mut chain = MbufChain::from_slice_with_headroom(&[1u8; 10], 0);
        let allocated = chain.append_slice(&[2u8; 10]);
        assert_eq!(allocated, 0, "tail space of the small mbuf should fit");
        assert_eq!(chain.len(), 20);
    }

    #[test]
    fn sockbuf_append_drop() {
        let mut sb = SockBuf::new(8192);
        sb.append(MbufChain::from_slice(&[1u8; 100]));
        sb.append(MbufChain::from_slice(&[2u8; 200]));
        assert_eq!(sb.len(), 300);
        assert_eq!(sb.space(), 8192 - 300);
        sb.drop_front(150);
        assert_eq!(sb.len(), 150);
        let mut buf = [0u8; 150];
        sb.peek(&mut buf);
        assert_eq!(&buf[..50], &[2u8; 50][..]);
    }

    #[test]
    fn sockbuf_copy_range_for_retransmit() {
        let data: Vec<u8> = (0..255u32).map(|i| i as u8).collect();
        let mut sb = SockBuf::new(8192);
        sb.append(MbufChain::from_slice(&data));
        let (seg, copied) = sb.copy_range(10, 100);
        assert_eq!(seg.len(), 100);
        assert_eq!(copied, 0, "cluster-backed send queue shares on copy");
        assert_eq!(sb.len(), 255, "copy_range must not consume");
    }

    #[test]
    fn sockbuf_space_saturates() {
        let mut sb = SockBuf::new(10);
        sb.append(MbufChain::from_slice(&[0u8; 25]));
        assert_eq!(sb.space(), 0);
    }

    #[test]
    fn dgrambuf_records_fifo() {
        let mut db: DgramBuf<u32> = DgramBuf::new(4096);
        assert!(db.append(1, MbufChain::from_slice(&[1u8; 10])));
        assert!(db.append(2, MbufChain::from_slice(&[2u8; 20])));
        assert_eq!(db.records(), 2);
        assert_eq!(db.len(), 30);
        let first = db.pop().unwrap();
        assert_eq!(first.meta, 1);
        assert_eq!(first.chain.len(), 10);
        assert_eq!(db.len(), 20);
    }

    #[test]
    fn dgrambuf_drops_when_full() {
        let mut db: DgramBuf<()> = DgramBuf::new(25);
        assert!(db.append((), MbufChain::from_slice(&[0u8; 20])));
        assert!(!db.append((), MbufChain::from_slice(&[0u8; 10])));
        assert_eq!(db.records(), 1);
    }

    #[test]
    fn copy_meter_counts_copyin_and_copyout() {
        reset_copy_meter();
        let data = vec![7u8; 1000];
        let chain = MbufChain::from_slice(&data);
        assert_eq!(copied_bytes(), 1000, "copyin is one physical copy");
        let mut out = vec![0u8; 1000];
        chain.copy_to_slice(0, &mut out);
        assert_eq!(copied_bytes(), 2000, "copyout is a second physical copy");
        let mut frame = vec![1u8; 34];
        chain.append_to(&mut frame);
        assert_eq!(frame[..34], [1u8; 34]);
        assert_eq!(frame[34..], data[..]);
        assert_eq!(copied_bytes(), 3000, "appending to a frame is a copy too");
    }

    #[test]
    fn copy_meter_ignores_shared_references() {
        reset_copy_meter();
        let data = Rc::new(vec![9u8; 3000]);
        let chain = MbufChain::from_shared(data);
        assert_eq!(copied_bytes(), 0, "from_shared references, never copies");
        let (copy, copied) = chain.copy_range(0, 3000);
        assert_eq!(copied, 0);
        assert_eq!(copy.len(), 3000);
        assert_eq!(copied_bytes(), 0, "cluster m_copy shares, never copies");
    }

    #[test]
    fn clone_is_logical_copy() {
        let chain = MbufChain::from_slice(&[1, 2, 3, 4]);
        let copy = chain.clone();
        assert_eq!(copy.to_vec(), chain.to_vec());
    }

    #[test]
    fn steady_state_packet_flow_is_allocation_free() {
        // A representative per-packet cycle: copyin, header prepend,
        // logical retransmit copy, drop. After one warm-up round the
        // pools must serve every allocation (miss counters frozen).
        let small_payload = [5u8; 100]; // small-mbuf path
        let big_payload = [6u8; 1400]; // cluster path
        let hdr = [0u8; 54];
        let cycle = || {
            for payload in [&small_payload[..], &big_payload[..]] {
                let mut chain = MbufChain::from_slice(payload);
                chain.prepend(&hdr);
                let (retx, _) = chain.copy_range(0, chain.len());
                drop(retx);
                drop(chain);
            }
        };
        cycle(); // warm up the thread pools
        let before = pool_stats();
        for _ in 0..100 {
            cycle();
        }
        let after = pool_stats();
        assert_eq!(after.small_misses, before.small_misses, "{after:?}");
        assert_eq!(after.cluster_misses, before.cluster_misses, "{after:?}");
        assert_eq!(after.node_misses, before.node_misses, "{after:?}");
        assert!(after.node_hits > before.node_hits);
    }

    #[test]
    fn shared_cluster_returns_to_pool_with_last_owner() {
        drain_pools();
        let chain = MbufChain::from_slice(&[9u8; 1000]);
        let (copy, _) = chain.copy_range(0, 1000);
        drop(chain); // cluster still shared by `copy` — must stay live
        assert_eq!(copy.to_vec(), vec![9u8; 1000]);
        let mid = pool_stats();
        assert_eq!(mid.cluster_free, 0, "shared cluster must not be pooled");
        drop(copy); // last owner: now it can be recycled
        assert_eq!(pool_stats().cluster_free, 1);
        reset_pool_stats();
        let _again = MbufChain::from_slice(&[1u8; 1000]);
        assert_eq!(pool_stats().cluster_hits, 1, "recycled cluster reused");
    }

    #[test]
    fn pooling_does_not_change_bytes() {
        // Recycled buffers carry stale bytes; the public API must never
        // expose them. Interleave differently-shaped packets through
        // the same pooled storage and verify exact round-trips.
        drain_pools();
        for round in 0..5u8 {
            for len in [1usize, 37, MLEN, MINCLSIZE, 300, 1460] {
                let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ round).collect();
                let mut chain = MbufChain::from_slice(&data);
                chain.prepend(&[round; 14]);
                chain.trim_front(14);
                assert_eq!(chain.to_vec(), data, "round {round} len {len}");
            }
        }
    }
}
