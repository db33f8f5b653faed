//! Workload fidelity and determinism.
//!
//! - At Table 2's seeds and sizes the `bulk` and `rpc` workloads reproduce
//!   the DECstation cells of the archived `results_table2.txt` to the
//!   printed digit.
//! - Two same-seed runs give identical virtual-time values and counts,
//!   and attaching the census and profilers changes none of them.
//! - `paper_err` on a held-out seed.
//! - `demux` delivers every datagram to its target session exactly once.
//!
//! Run with `cargo test --release --manifest-path psdbench/Cargo.toml`
//! (the debug build works too, only slower).

use psdbench::bed::Counters;
use psdbench::bulk::Bulk;
use psdbench::demux::Demux;
use psdbench::rpc::Rpc;
use psdbench::workload::{paper_err, PaperCell, Workload};

/// The DECstation block of the archived Table 2 output, as
/// `(row label, printed values)`: throughput first, then the five TCP
/// and the five UDP round trips.
fn archived_table2() -> Vec<(String, Vec<String>)> {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results_table2.txt"
    ))
    .expect("archived Table 2");
    let block = text.split("==== Gateway").next().expect("DECstation block");
    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    for line in block.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("throughput KB/s :") {
            let v = rest.split_whitespace().next().unwrap().to_string();
            rows.last_mut().unwrap().1.push(v);
        } else if let Some(rest) = t
            .strip_prefix("TCP rtt ms      :")
            .or_else(|| t.strip_prefix("UDP rtt ms      :"))
        {
            for cell in rest.split(')') {
                if let Some(v) = cell.split('(').next().map(str::trim) {
                    if !v.is_empty() {
                        rows.last_mut().unwrap().1.push(v.to_string());
                    }
                }
            }
        } else if line.starts_with("Mach") || line.starts_with("Ultrix") {
            rows.push((line.trim().to_string(), Vec::new()));
        }
    }
    rows
}

fn printed(cells: &[PaperCell]) -> Vec<(String, String)> {
    cells
        .iter()
        .map(|c| {
            let row = c.label.split(" | ").next().unwrap().to_string();
            (row, format!("{:.2}", c.measured))
        })
        .collect()
}

fn archived_cell(rows: &[(String, Vec<String>)], row: &str, col: usize) -> String {
    let (_, vals) = rows
        .iter()
        .find(|(label, _)| label == row)
        .unwrap_or_else(|| panic!("row {row} in results_table2.txt"));
    vals[col].clone()
}

#[test]
fn bulk_reproduces_table2_throughput_cells() {
    let rows = archived_table2();
    let mut w = Bulk::setup(42, false);
    w.pass(0);
    let cells = w.paper_cells();
    assert_eq!(cells.len(), 5);
    for (row, value) in printed(&cells) {
        assert_eq!(value, archived_cell(&rows, &row, 0), "{row} throughput");
    }
    assert!(w.tally().violations.borrow().is_empty());
    assert_eq!(format!("{:.4}", paper_err(&cells)), "0.0548");
}

#[test]
fn rpc_reproduces_table2_latency_cells() {
    let rows = archived_table2();
    let mut w = Rpc::setup(42, false);
    w.pass(0);
    let cells = w.paper_cells();
    assert_eq!(cells.len(), 50);
    // Cells come in (placement, TCP sizes, UDP sizes) order; column 0 of
    // the archived row is throughput.
    for (i, (row, value)) in printed(&cells).into_iter().enumerate() {
        assert_eq!(
            value,
            archived_cell(&rows, &row, 1 + i % 10),
            "{row} cell {i}"
        );
    }
    assert!(w.tally().violations.borrow().is_empty());
    assert_eq!(format!("{:.4}", paper_err(&cells)), "0.0540");
}

/// Everything virtual a run produced: paper cells, per-bed counters,
/// latencies, tallies.
#[derive(Debug, PartialEq)]
struct Digest {
    cells: Vec<PaperCell>,
    counters: Vec<Counters>,
    latency: Vec<u64>,
    lag: Vec<u64>,
    calls: (u64, u64, u64, u64),
}

fn digest(mut w: Box<dyn Workload>, passes: u64) -> Digest {
    w.prepare();
    w.tally().keep_latency.set(true);
    for p in 0..passes {
        w.pass(p);
    }
    let t = w.tally();
    assert!(
        t.violations.borrow().is_empty(),
        "{:?}",
        t.violations.borrow()
    );
    Digest {
        cells: w.paper_cells(),
        counters: w
            .beds()
            .iter()
            .map(|b| {
                // Census and profiler counts exist only on instrumented
                // beds; compare everything else.
                let c = b.counters();
                Counters {
                    checksums: 0,
                    domain_ns: [0; 3],
                    ..c
                }
            })
            .collect(),
        latency: t.latency_ns.borrow().clone(),
        lag: w.lag_ns().to_vec(),
        calls: (
            t.data_calls.get(),
            t.wouldblock.get(),
            t.attempted.get(),
            t.failed.get(),
        ),
    }
}

#[test]
fn same_seed_runs_are_identical_and_instrumentation_is_neutral() {
    let a = digest(Box::new(Bulk::setup(9, false)), 2);
    assert_eq!(a, digest(Box::new(Bulk::setup(9, false)), 2), "bulk rerun");
    assert_eq!(
        a,
        digest(Box::new(Bulk::setup(9, true)), 2),
        "bulk instrumented"
    );
    assert!(a.latency.len() > 100);

    let a = digest(Box::new(Rpc::setup(9, false)), 2);
    assert_eq!(a, digest(Box::new(Rpc::setup(9, false)), 2), "rpc rerun");
    assert_eq!(
        a,
        digest(Box::new(Rpc::setup(9, true)), 2),
        "rpc instrumented"
    );

    let a = digest(Box::new(Demux::setup(9, false)), 2);
    assert_eq!(
        a,
        digest(Box::new(Demux::setup(9, false)), 2),
        "demux rerun"
    );
    assert_eq!(
        a,
        digest(Box::new(Demux::setup(9, true)), 2),
        "demux instrumented"
    );
    assert_eq!(a.calls.3, 0, "no demux datagram failed");
}

#[test]
fn paper_err_on_a_held_out_seed() {
    let mut bulk = Bulk::setup(2024, false);
    bulk.pass(0);
    let mut rpc = Rpc::setup(2024, false);
    rpc.pass(0);
    let (b, r) = (
        paper_err(&bulk.paper_cells()),
        paper_err(&rpc.paper_cells()),
    );
    println!("held-out seed 2024: paper_err bulk {b:.4} (5 cells), rpc {r:.4} (50 cells)");
    // The testbeds draw no randomness, so the seed moves only payload
    // bytes, and the virtual cells match those of the default seed.
    assert_eq!(format!("{b:.4}"), "0.0548");
    assert_eq!(format!("{r:.4}"), "0.0540");
}

#[test]
fn demux_delivers_every_datagram_exactly_once() {
    let mut w = Demux::setup(42, false);
    w.prepare();
    for p in 0..3 {
        w.pass(p);
    }
    let t = w.tally();
    assert!(
        t.violations.borrow().is_empty(),
        "{:?}",
        t.violations.borrow()
    );
    assert_eq!(t.failed.get(), 0);
    // Five UDP round-trip cells on the loaded MPF bed.
    assert_eq!(w.paper_cells().len(), 5);
}
