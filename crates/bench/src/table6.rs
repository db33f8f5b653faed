//! Table 6: what does NEWAPI batching buy, and where do the copies go?
//!
//! Tables 2–4 measure the decomposed placements with one descriptor per
//! ring crossing: every delivered frame pays the full IPC/SHM doorbell
//! and (for eager placement) a whole-body copy into the shared ring.
//! The batched NEWAPI (`send_batch`/`recv_batch`, §4.2) amortizes the
//! doorbell over a window of K descriptors, and Libra-style selective
//! placement leaves cold bodies kernel-resident, materializing headers
//! only. This harness sweeps the batch window B ∈ {1, 4, 16, 64} over
//! the three library placements and reports, per delivered packet:
//!
//! * **crossings/pkt** — session ring crossings actually charged. The
//!   kernel pays one doorbell per window, so this is exactly ⌈P/B⌉/P;
//!   the harness asserts the exact count, not a trend.
//! * **ns/pkt** — receiving-host CPU busy virtual time. Monotone
//!   decreasing in B: every skipped crossing is a trap/wakeup saved.
//! * **copies/pkt** — whole-body copies observed by the receive-side
//!   census. Eager placement pays one per packet; kernel-resident
//!   placement materializes headers only (`HeaderCopy`), so body
//!   copies/pkt drops to zero unless the application pulls.
//! * **steps/pkt** — filter instructions per frame, proving batching
//!   never touches classification.
//!
//! Unlike the filter microbenchmark, every number here is virtual-time
//! or a deterministic counter: the emitted `BENCH_9.json` is
//! byte-identical between same-seed runs with no normalization step,
//! and CI diffs the whole artifact.

use psd_core::{AppLib, Fd};
use psd_filter::PlacementPolicy;
use psd_kernel::BatchConfig;
use psd_netstack::InetAddr;
use psd_server::Proto;
use psd_sim::{OpKind, Platform, SimTime};
use psd_systems::{SystemConfig, TestBed};
use std::rc::Rc;

use crate::json::Json;
use crate::Observe;

/// Seed for every Table 6 run.
pub const SEED: u64 = 93;

/// Datagrams per cell (full matrix). Divisible by every batch size so
/// the crossing count is exactly `packets / batch`.
pub const PACKETS_FULL: usize = 256;

/// Datagrams per cell under `--quick`.
pub const PACKETS_QUICK: usize = 128;

/// Datagram payload bytes.
pub const PAYLOAD: usize = 64;

/// Receiver port; the selective-copy policy marks exactly this port
/// kernel-resident.
pub const RX_PORT: u16 = 10_000;

/// Batch windows for the full and `--quick` matrices. 64 appears in
/// both: it is the cell the CI regression gate reads.
pub fn batches(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 64]
    } else {
        &[1, 4, 16, 64]
    }
}

/// The library placements under test (server/in-kernel placements have
/// no per-packet ring crossing to amortize).
pub const CONFIGS: [SystemConfig; 3] = [
    SystemConfig::LibraryIpc,
    SystemConfig::LibraryShm,
    SystemConfig::LibraryShmIpf,
];

/// Copy-placement mode of one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyMode {
    /// Bodies copied eagerly into the shared ring (the seed behavior).
    Eager,
    /// Kernel-resident flow, application never pulls: header-only
    /// delivery, zero body copies on the receive host.
    Resident,
    /// Kernel-resident flow, application pulls every body: the copy is
    /// deferred to `recv_batch(pull = true)` and paid at the library
    /// boundary, once per descriptor.
    ResidentPull,
}

impl CopyMode {
    /// Human/table label for the mode.
    pub fn label(self) -> &'static str {
        match self {
            CopyMode::Eager => "eager",
            CopyMode::Resident => "resident",
            CopyMode::ResidentPull => "resident-pull",
        }
    }
}

/// Modes for the full and `--quick` matrices.
pub fn modes(quick: bool) -> &'static [CopyMode] {
    if quick {
        &[CopyMode::Eager, CopyMode::Resident]
    } else {
        &[CopyMode::Eager, CopyMode::Resident, CopyMode::ResidentPull]
    }
}

fn config_key(c: SystemConfig) -> &'static str {
    match c {
        SystemConfig::LibraryIpc => "LibraryIpc",
        SystemConfig::LibraryShm => "LibraryShm",
        SystemConfig::LibraryShmIpf => "LibraryShmIpf",
        other => other.label(),
    }
}

/// One measured cell. Every field is deterministic for the seed.
#[derive(Clone, Copy, Debug)]
pub struct Table6Row {
    /// Placement under test.
    pub config: SystemConfig,
    /// Copy mode.
    pub mode: CopyMode,
    /// Batch window B.
    pub batch: usize,
    /// Datagrams sent (= delivered; the harness asserts zero drops).
    pub packets: usize,
    /// Session ring crossings charged during the burst — exactly
    /// `packets / batch`.
    pub crossings: u64,
    /// Filter instructions run classifying the burst.
    pub steps: u64,
    /// Whole-body copies observed by the receive-host census.
    pub body_copies: u64,
    /// Header-only copies observed by the receive-host census.
    pub header_copies: u64,
    /// Header-only ring deliveries (kernel counter).
    pub header_only: u64,
    /// Receive-host CPU busy virtual nanoseconds across the burst.
    pub busy_ns: u64,
}

impl Table6Row {
    /// Ring crossings per delivered packet (exactly `1/B`).
    pub fn crossings_per_pkt(&self) -> f64 {
        self.crossings as f64 / self.packets as f64
    }

    /// Receive-host busy virtual nanoseconds per packet.
    pub fn ns_per_pkt(&self) -> f64 {
        self.busy_ns as f64 / self.packets as f64
    }

    /// Whole-body copies per packet.
    pub fn copies_per_pkt(&self) -> f64 {
        self.body_copies as f64 / self.packets as f64
    }

    /// Filter instructions per packet.
    pub fn steps_per_pkt(&self) -> f64 {
        self.steps as f64 / self.packets as f64
    }
}

/// A complete Table 6 result.
#[derive(Clone, Debug)]
pub struct Table6 {
    /// True when run with the reduced `--quick` matrix.
    pub quick: bool,
    /// Datagrams per cell.
    pub packets: usize,
    /// Rows by (config, mode, B).
    pub rows: Vec<Table6Row>,
}

/// Runs one cell, with the planes `obs` requests attached under the
/// caller's open row, and checks its hard invariants: zero drops, every
/// datagram delivered, and the crossing count exactly `packets / B`.
/// No plane charges virtual time, so the row is identical with or
/// without them.
pub fn run_cell(
    config: SystemConfig,
    mode: CopyMode,
    batch: usize,
    packets: usize,
    obs: &mut Observe,
) -> Table6Row {
    assert!(
        packets.is_multiple_of(batch),
        "packets must divide by the window"
    );
    let mut bed = TestBed::new(config, Platform::DecStation5000_200, SEED);
    bed.set_batch_config(BatchConfig {
        batch,
        gro: false,
        gso: false,
    });
    if mode != CopyMode::Eager {
        bed.set_placement_policy(Some(
            PlacementPolicy::new().resident_ports(RX_PORT, RX_PORT),
        ));
    }
    // The census is part of the measurement; reuse the observed one.
    let censuses = obs.attach(&mut bed).unwrap_or_else(|| bed.attach_census());

    // Sender on host 0, one connected UDP socket; receiver session on
    // host 1. The receiver binds before the policy could matter: the
    // placement verdict is taken at filter-install time.
    let tx_app = bed.hosts[0].spawn_app();
    let tx = AppLib::socket(&tx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&tx_app, &mut bed.sim, tx, 9000).expect("tx bind");
    let rx_app = bed.hosts[1].spawn_app();
    let rx = AppLib::socket(&rx_app, &mut bed.sim, Proto::Udp);
    AppLib::bind(&rx_app, &mut bed.sim, rx, RX_PORT).expect("rx bind");
    bed.settle();
    // Warm ARP on an unclaimed port so the burst sees no cold-start.
    AppLib::sendto(
        &tx_app,
        &mut bed.sim,
        tx,
        b"warm",
        Some(InetAddr::new(bed.hosts[1].ip, 9)),
    )
    .expect("warm send");
    bed.settle();
    AppLib::connect(
        &tx_app,
        &mut bed.sim,
        tx,
        InetAddr::new(bed.hosts[1].ip, RX_PORT),
    )
    .expect("tx connect");
    bed.settle();

    // --- Snapshot, burst, drain, snapshot. ---
    let k0 = bed.hosts[1].kernel.borrow().stats();
    let busy0 = bed.hosts[1].cpu.borrow().total_busy();
    let (copies0, headers0) = {
        let c = censuses[1].borrow();
        (c.total(OpKind::PacketBodyCopy), c.total(OpKind::HeaderCopy))
    };

    let bufs: Vec<Rc<Vec<u8>>> = (0..packets)
        .map(|i| Rc::new(vec![(i % 251) as u8; PAYLOAD]))
        .collect();
    let pull = mode == CopyMode::ResidentPull;
    let mut received = 0usize;
    let mut sent = 0usize;
    for group in bufs.chunks(batch) {
        let mut off = 0;
        while off < group.len() {
            match AppLib::send_batch(&tx_app, &mut bed.sim, tx, &group[off..]) {
                Ok(0) | Err(_) => bed.run_for(SimTime::from_millis(1)),
                Ok(n) => off += n,
            }
        }
        sent += group.len();
        // Pace ~100 µs per frame (above 10 Mbit serialization) so the
        // wire never backs up, then drain at a fixed 64-packet cadence
        // so the receive-side call pattern is identical for every B.
        bed.run_for(SimTime::from_micros(100 * group.len() as u64));
        if sent.is_multiple_of(64) {
            received += drain(&mut bed, &rx_app, rx, pull);
        }
    }
    bed.settle();
    received += drain(&mut bed, &rx_app, rx, pull);
    bed.settle();

    let k1 = bed.hosts[1].kernel.borrow().stats();
    let busy1 = bed.hosts[1].cpu.borrow().total_busy();
    let (copies1, headers1) = {
        let c = censuses[1].borrow();
        (c.total(OpKind::PacketBodyCopy), c.total(OpKind::HeaderCopy))
    };

    let delivered = k1.rx_session - k0.rx_session;
    let crossings = k1.rx_session_crossings - k0.rx_session_crossings;
    assert_eq!(
        k1.drops.total() - k0.drops.total(),
        0,
        "{}: burst must be lossless",
        config.label()
    );
    assert_eq!(delivered as usize, packets, "every datagram delivered");
    assert_eq!(received, packets, "every datagram received by the app");
    assert_eq!(
        crossings as usize,
        packets / batch,
        "{} B={batch}: crossings must be exactly packets/B",
        config.label()
    );

    Table6Row {
        config,
        mode,
        batch,
        packets,
        crossings,
        steps: k1.filter_steps - k0.filter_steps,
        body_copies: copies1 - copies0,
        header_copies: headers1 - headers0,
        header_only: k1.header_only_deliveries - k0.header_only_deliveries,
        busy_ns: (busy1 - busy0).as_nanos(),
    }
}

fn drain(bed: &mut TestBed, app: &psd_core::AppHandle, fd: Fd, pull: bool) -> usize {
    let mut n = 0;
    loop {
        let descs =
            AppLib::recv_batch(app, &mut bed.sim, fd, 64, 1 << 16, pull).expect("recv_batch");
        if descs.is_empty() {
            return n;
        }
        n += descs.len();
    }
}

/// Runs the full (or `--quick`) Table 6 matrix, one `obs` row per
/// cell labelled `config | mode | B=b`.
pub fn run(quick: bool, obs: &mut Observe) -> Table6 {
    let packets = if quick { PACKETS_QUICK } else { PACKETS_FULL };
    let mut rows = Vec::new();
    for config in CONFIGS {
        for &mode in modes(quick) {
            for &b in batches(quick) {
                obs.row(format!("{} | {} | B={b}", config.label(), mode.label()));
                rows.push(run_cell(config, mode, b, packets, obs));
            }
        }
    }
    Table6 {
        quick,
        packets,
        rows,
    }
}

impl Table6 {
    /// All rows for one (config, mode), in ascending B.
    fn series(&self, config: SystemConfig, mode: CopyMode) -> Vec<&Table6Row> {
        let mut v: Vec<&Table6Row> = self
            .rows
            .iter()
            .filter(|r| r.config == config && r.mode == mode)
            .collect();
        v.sort_by_key(|r| r.batch);
        v
    }

    /// Checks the acceptance trend: crossings/pkt and ns/pkt strictly
    /// decrease as B grows, on every placement and mode.
    pub fn check_monotone(&self) -> Result<(), String> {
        for config in CONFIGS {
            for &mode in modes(self.quick) {
                let series = self.series(config, mode);
                for pair in series.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    if b.crossings_per_pkt() >= a.crossings_per_pkt() {
                        return Err(format!(
                            "{} {} crossings/pkt not decreasing: B={} {:.4} → B={} {:.4}",
                            config.label(),
                            mode.label(),
                            a.batch,
                            a.crossings_per_pkt(),
                            b.batch,
                            b.crossings_per_pkt()
                        ));
                    }
                    if b.ns_per_pkt() >= a.ns_per_pkt() {
                        return Err(format!(
                            "{} {} ns/pkt not decreasing: B={} {:.1} → B={} {:.1}",
                            config.label(),
                            mode.label(),
                            a.batch,
                            a.ns_per_pkt(),
                            b.batch,
                            b.ns_per_pkt()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// A signature over every field; two same-seed runs must agree.
    pub fn deterministic_signature(&self) -> String {
        let mut sig = String::new();
        for r in &self.rows {
            sig.push_str(&format!(
                "{}:{}:{}:{}:{}:{}:{}:{}:{}:{};",
                config_key(r.config),
                r.mode.label(),
                r.batch,
                r.packets,
                r.crossings,
                r.steps,
                r.body_copies,
                r.header_copies,
                r.header_only,
                r.busy_ns
            ));
        }
        sig
    }

    /// Serializes the artifact (see `BENCH_BATCH.schema.json`). Every
    /// member is deterministic; CI byte-diffs whole files.
    pub fn to_json(&self) -> Json {
        let rows = Json::Arr(
            self.rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("config", Json::str(config_key(r.config))),
                        ("mode", Json::str(r.mode.label())),
                        ("batch", Json::Num(r.batch as f64)),
                        ("packets", Json::Num(r.packets as f64)),
                        ("crossings", Json::Num(r.crossings as f64)),
                        ("crossings_per_pkt", Json::Num(r.crossings_per_pkt())),
                        ("steps_per_pkt", Json::Num(r.steps_per_pkt())),
                        ("body_copies", Json::Num(r.body_copies as f64)),
                        ("copies_per_pkt", Json::Num(r.copies_per_pkt())),
                        ("header_copies", Json::Num(r.header_copies as f64)),
                        ("header_only", Json::Num(r.header_only as f64)),
                        ("busy_ns", Json::Num(r.busy_ns as f64)),
                        ("ns_per_pkt", Json::Num(r.ns_per_pkt())),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("version", Json::Num(1.0)),
            ("bench", Json::str("table6")),
            ("seed", Json::Num(SEED as f64)),
            ("quick", Json::Bool(self.quick)),
            ("packets", Json::Num(self.packets as f64)),
            ("table", rows),
        ])
    }

    /// The human-readable table printed to stdout.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("==== Table 6: batched NEWAPI (virtual time) ====\n");
        out.push_str(&format!(
            "seed {SEED}; {} datagrams/cell, {PAYLOAD}-byte payloads{}\n\n",
            self.packets,
            if self.quick { " [quick]" } else { "" }
        ));
        out.push_str(
            "config          mode            B  crossings/pkt   ns/pkt  copies/pkt  hdr-only\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<15} {:<13} {:>4} {:>14.4} {:>8.0} {:>11.2} {:>9}\n",
                config_key(r.config),
                r.mode.label(),
                r.batch,
                r.crossings_per_pkt(),
                r.ns_per_pkt(),
                r.copies_per_pkt(),
                r.header_only,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn cell(config: SystemConfig, mode: CopyMode, batch: usize, packets: usize) -> Table6Row {
        run_cell(config, mode, batch, packets, &mut Observe::default())
    }

    #[test]
    fn cell_charges_exact_crossings_and_is_deterministic() {
        // run_cell itself asserts crossings == packets/B and zero
        // drops; two runs must agree on every field.
        let a = cell(SystemConfig::LibraryShm, CopyMode::Eager, 16, 64);
        let b = cell(SystemConfig::LibraryShm, CopyMode::Eager, 16, 64);
        assert_eq!(a.crossings, 4);
        assert_eq!(a.busy_ns, b.busy_ns);
        assert_eq!(a.body_copies, b.body_copies);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn resident_mode_eliminates_body_copies() {
        // Non-IPF placements always pay the physical device → kernel
        // copy at interrupt level; selective placement removes the
        // kernel → ring copy, one per packet.
        let eager = cell(SystemConfig::LibraryIpc, CopyMode::Eager, 4, 64);
        let resident = cell(SystemConfig::LibraryIpc, CopyMode::Resident, 4, 64);
        let pulled = cell(SystemConfig::LibraryIpc, CopyMode::ResidentPull, 4, 64);
        assert_eq!(eager.header_only, 0);
        assert_eq!(resident.header_only, 64);
        assert_eq!(resident.body_copies + 64, eager.body_copies);
        assert!(resident.header_copies >= 64);
        // Pulling re-pays the deferred copy at the library boundary.
        assert_eq!(pulled.body_copies, resident.body_copies + 64);
        assert!(pulled.busy_ns > resident.busy_ns);

        // The integrated filter defers even the device copy, so the
        // kernel-resident cell is the zero-copy one: copies/pkt == 0.
        let zc = cell(SystemConfig::LibraryShmIpf, CopyMode::Resident, 4, 64);
        assert_eq!(zc.header_only, 64);
        assert_eq!(zc.body_copies, 0, "ShmIpf resident is zero-copy");
    }

    #[test]
    fn batching_monotonically_reduces_crossings_and_busy_time() {
        let mut rows = Vec::new();
        for &b in &[1usize, 4, 16, 64] {
            rows.push(cell(SystemConfig::LibraryShmIpf, CopyMode::Eager, b, 64));
        }
        for pair in rows.windows(2) {
            assert!(pair[1].crossings < pair[0].crossings);
            assert!(
                pair[1].busy_ns < pair[0].busy_ns,
                "B={} busy {} must undercut B={} busy {}",
                pair[1].batch,
                pair[1].busy_ns,
                pair[0].batch,
                pair[0].busy_ns
            );
        }
    }

    #[test]
    fn artifact_is_schema_valid_and_byte_stable() {
        let a = run(true, &mut Observe::default());
        assert!(a.check_monotone().is_ok());
        let schema =
            Json::parse(include_str!("../../../BENCH_BATCH.schema.json")).expect("schema parses");
        validate(&a.to_json(), &schema).expect("schema-valid");
        let b = run(true, &mut Observe::default());
        assert_eq!(a.deterministic_signature(), b.deterministic_signature());
        assert_eq!(a.to_json().write(), b.to_json().write());
    }

    /// The artifact this module writes carries the cells
    /// `benchdiff --check` gates on, and a slowdown trips the gate.
    #[test]
    fn regression_gate_trips_on_slowdown() {
        let fast = run(true, &mut Observe::default());
        let committed = fast.to_json();
        assert!(crate::benchdiff::check(&committed, &committed, 0.2, None).is_ok());
        let mut slow = fast.clone();
        for r in &mut slow.rows {
            r.busy_ns *= 2;
        }
        assert!(crate::benchdiff::check(&committed, &slow.to_json(), 0.2, None).is_err());
    }
}
