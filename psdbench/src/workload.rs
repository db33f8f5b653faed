//! What the runner needs from a workload.

use crate::bed::Bed;
use crate::calls::Tally;

/// A measured (virtual) value next to the paper's value for the same
/// Table 2 cell.
#[derive(Clone, Debug, PartialEq)]
pub struct PaperCell {
    /// Row and column, e.g. `Library-SHM | UDP 100 B`.
    pub label: String,
    /// Measured value (KB/s or ms).
    pub measured: f64,
    /// Published value.
    pub paper: f64,
}

/// Mean |ln(measured / paper)| over the cells.
pub fn paper_err(cells: &[PaperCell]) -> f64 {
    cells
        .iter()
        .map(|c| (c.measured / c.paper).ln().abs())
        .sum::<f64>()
        / cells.len().max(1) as f64
}

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// The beds, in span-tag order.
    fn beds(&self) -> &[Bed];
    /// The call-site tallies.
    fn tally(&self) -> &Tally;
    /// Sessions stood up (descriptors opened) so far.
    fn sessions(&self) -> u64;
    /// Runs once after setup, before the measured phase (outside both
    /// timings).
    fn prepare(&mut self) {}
    /// Generator lateness per burst, virtual ns (open loops only).
    fn lag_ns(&self) -> &[u64] {
        &[]
    }
    /// Runs one pass over every bed. Pass 0 produces the paper cells.
    fn pass(&mut self, pass: u64);
    /// The Table 2 cells this workload reproduces (after pass 0, or
    /// after setup for workloads that measure them up front).
    fn paper_cells(&self) -> Vec<PaperCell>;
}
