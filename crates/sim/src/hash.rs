//! One deterministic hasher for simulator-internal ids.
//!
//! Every `HashMap`/`HashSet` in the simulation crates is keyed by ids
//! the simulator itself hands out — socket, descriptor, session and
//! endpoint ids, ports, IPv4 addresses of simulated hosts, filter ids.
//! No adversary chooses them, so std's flood-resistant SipHash-1-3 buys
//! nothing here and costs a measurable share of every lookup on the
//! per-packet path. [`IdHasher`] is an Fx-style hasher instead: per
//! integer word it rotates, xors and multiplies, and [`finish`] folds
//! the well-mixed high half into the low bits that pick the bucket.
//!
//! The hasher is unseeded, so map iteration order is the same on every
//! run. Code must still not rely on that order: every iteration that
//! reaches output, scheduling or cancel order sorts first or is
//! order-insensitive.
//!
//! [`finish`]: Hasher::finish

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`IdHasher`]. Construct with `default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed with [`IdHasher`]. Construct with `default()`.
pub type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

/// The multiplier of rustc's Fx hash: odd, with well-spread bits.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// An unseeded Fx-style hasher for simulator-internal ids.
#[derive(Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top, but hashbrown
    /// picks the bucket from the low bits: fold the high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use std::net::Ipv4Addr;

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    /// Pins the hasher's output: any change to it (or to how std feeds
    /// these key types to a hasher) shows up here as a test diff.
    #[test]
    fn output_is_pinned() {
        assert_eq!(hash_of(80u16), 0x76fc_893c_4c5f_c7ac);
        assert_eq!(hash_of(7u64), 0x3a69_4c02_2b87_0611);
        assert_eq!(hash_of(u64::MAX), 0xae83_3e48_765e_cb23);
        assert_eq!(hash_of(Ipv4Addr::new(10, 0, 0, 2)), 0x9d2d_d53c_2c79_bcee);
        assert_eq!(hash_of((6u8, 1025u16)), 0x2d01_6814_6f8b_b718);
        assert_eq!(
            hash_of((Ipv4Addr::new(10, 0, 0, 1), 17u8, 42u16)),
            0x395d_27dc_d3e1_0d51
        );
        // A length prefix, one full word and a zero-padded tail.
        assert_eq!(
            hash_of([1u8, 2, 3, 4, 5, 6, 7, 8, 9]),
            0xdf7f_7d38_590b_9078
        );
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // 4096 consecutive ids (and the same ids shifted into the high
        // word, as packed handles are) must fill most of 4096 buckets.
        for shift in [0, 32] {
            let mut seen = HashSet::default();
            for id in 0..4096u64 {
                seen.insert(hash_of(id << shift) & 4095);
            }
            assert!(seen.len() > 2500, "shift {shift}: {} buckets", seen.len());
        }
    }
}
