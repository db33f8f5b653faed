//! Call wrappers shared by the workloads: every call into `AppLib` goes
//! through one of these, so each gets its span and its tally.

use std::cell::{Cell, RefCell};

use psd_netstack::SocketError;
use psd_sim::Rng;

use crate::span::{self, Layer};

/// Per-workload tallies kept at the call sites.
#[derive(Default)]
pub struct Tally {
    /// Data calls made (`send`/`sendto`/`recv`/`recvfrom`).
    pub data_calls: Cell<u64>,
    /// Data calls that returned `WouldBlock` (wasted attempts).
    pub wouldblock: Cell<u64>,
    /// Virtual latencies (ns) from when a request was due to when the
    /// receiving application got it; kept only while `keep_latency`.
    pub latency_ns: RefCell<Vec<u64>>,
    /// Whether latencies are being kept.
    pub keep_latency: Cell<bool>,
    /// Operations attempted (transfers, rounds or datagrams).
    pub attempted: Cell<u64>,
    /// Operations that failed (bad bytes, lost or classified drops).
    pub failed: Cell<u64>,
    /// Correctness violations (wrong bytes, misdelivery, duplicates,
    /// unexplained loss). Any one makes the run incorrect.
    pub violations: RefCell<Vec<String>>,
}

impl Tally {
    /// Records a virtual latency, if latencies are being kept.
    pub fn latency(&self, ns: u64) {
        if self.keep_latency.get() {
            self.latency_ns.borrow_mut().push(ns);
        }
    }

    /// Records a correctness violation (the first few are kept verbatim).
    pub fn violation(&self, what: String) {
        let mut v = self.violations.borrow_mut();
        if v.len() < 16 {
            v.push(what);
        } else if v.len() == 16 {
            v.push("...".into());
        }
    }

    /// Counts one attempted operation.
    pub fn attempt(&self) {
        self.attempted.set(self.attempted.get() + 1);
    }

    /// Counts one failed operation.
    pub fn fail(&self) {
        self.failed.set(self.failed.get() + 1);
    }
}

/// A data call, spanned and tallied.
#[inline]
pub fn data<R>(
    tally: &Tally,
    bed: u16,
    id: u64,
    f: impl FnOnce() -> Result<R, SocketError>,
) -> Result<R, SocketError> {
    let r = span::span(Layer::Data, bed, id, f);
    tally.data_calls.set(tally.data_calls.get() + 1);
    if matches!(r, Err(SocketError::WouldBlock)) {
        tally.wouldblock.set(tally.wouldblock.get() + 1);
    }
    r
}

/// A control call, spanned.
#[inline]
pub fn control<R>(bed: u16, id: u64, f: impl FnOnce() -> R) -> R {
    span::span(Layer::Control, bed, id, f)
}

/// A seeded byte pattern that payloads are cut from. `len` bytes of
/// pattern are followed by a copy of their first `tail` bytes, so any
/// window of up to `tail` bytes starting at an offset below `len` is a
/// contiguous slice.
pub struct Pattern {
    bytes: Vec<u8>,
    len: usize,
}

impl Pattern {
    /// Generates the pattern from a seed.
    pub fn new(seed: u64, len: usize, tail: usize) -> Pattern {
        let mut bytes = vec![0u8; len + tail];
        Rng::new(seed ^ 0x9A77_E2B0_0000_0001).fill_bytes(&mut bytes[..len]);
        bytes.copy_within(..tail, len);
        Pattern { bytes, len }
    }

    /// The `n` bytes at logical offset `off` (the pattern repeats).
    pub fn at(&self, off: u64, n: usize) -> &[u8] {
        let start = (off % self.len as u64) as usize;
        &self.bytes[start..start + n]
    }
}
