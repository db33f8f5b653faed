//! Host-time spans recorded by the benchmark's own workload code around each
//! call into a layer.
//!
//! A span is opened immediately before a call into a layer's public API
//! and closed when the call returns. Spans nest: a data call made from a
//! socket event handler runs inside the `Sim::run_until` chunk that
//! dispatched the event, so its parent is that chunk's span. A layer's
//! self time is the duration of its spans minus the part covered by
//! their children; summed over every span of a phase, self times add up
//! to the phase's root span exactly.
//!
//! Recording is off unless a [`Recorder`] is installed and switched on
//! for the current pass, in which case [`span`] is a flag test plus the
//! call. Spans are kept in memory and written out at the end of the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span is charged to. Names follow the crates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The benchmark harness itself: the root of a phase or pass.
    Bench,
    /// `TestBed::new` (psd-systems).
    Systems,
    /// `socket`/`bind`/`connect`/`listen`/`accept` (psd-core → server).
    Control,
    /// One `Sim::run_until` chunk (psd-sim, and everything the events
    /// run that is not itself an `AppLib` call).
    Sim,
    /// `send`/`sendto`/`recv`/`recvfrom` (psd-core data path).
    Data,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Bench,
        Layer::Systems,
        Layer::Control,
        Layer::Sim,
        Layer::Data,
    ];

    /// Short name used in the spans file.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Systems => "systems",
            Layer::Control => "core.control",
            Layer::Sim => "sim",
            Layer::Data => "core.data",
        }
    }

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer the span is charged to.
    pub layer: Layer,
    /// Index of the testbed the call went to. Root spans carry a tag
    /// instead: `u16::MAX` for a measured pass, `u16::MAX - 1` for a
    /// set-up.
    pub bed: u16,
    /// Request id shared by the spans of one request: round number,
    /// write index or datagram index (pass or chunk index for harness
    /// spans).
    pub id: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// Duration in ns.
    pub dur: u64,
}

/// The in-memory span store.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs an empty recorder on this thread (recording switched off).
pub fn install() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Switches recording on or off. Only legal between root spans.
pub fn set_recording(on: bool) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            debug_assert!(rec.open.is_empty());
            rec.on = on;
        }
    });
}

/// Spans recorded so far.
pub fn len() -> usize {
    REC.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len()))
}

/// Removes the recorder and returns its spans.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

fn open(layer: Layer, bed: u16, id: u64) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().filter(|rec| rec.on)?;
        let idx = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        let start = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            layer,
            bed,
            id,
            parent,
            start,
            dur: 0,
        });
        rec.open.push(idx);
        Some(idx)
    })
}

fn close(idx: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder installed");
        let end = rec.epoch.elapsed().as_nanos() as u64;
        let s = &mut rec.spans[idx as usize];
        s.dur = end - s.start;
        let top = rec.open.pop();
        debug_assert_eq!(top, Some(idx));
    });
}

/// Runs `f` inside a span of `layer` when recording is on.
#[inline]
pub fn span<R>(layer: Layer, bed: u16, id: u64, f: impl FnOnce() -> R) -> R {
    match open(layer, bed, id) {
        None => f(),
        Some(idx) => {
            let out = f();
            close(idx);
            out
        }
    }
}

/// Sets the request id of the span recorded last, for calls whose
/// request is only known from what they returned (a datagram's index
/// is in its payload).
pub fn tag_last(id: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| rec.on) {
            if let Some(s) = rec.spans.last_mut() {
                s.id = id;
            }
        }
    });
}

/// Self time per span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, &c)| s.dur.saturating_sub(c))
        .collect()
}

/// The spans as CSV, one line per span in start order.
pub fn to_csv(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 40 + 64);
    out.push_str("index,layer,bed,id,parent,start_ns,dur_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{i},{},{},{},{parent},{},{}",
            s.layer.label(),
            s.bed,
            s.id,
            s.start,
            s.dur
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_root() {
        install();
        set_recording(true);
        span(Layer::Bench, 0, 0, || {
            span(Layer::Sim, 0, 1, || {
                span(Layer::Data, 0, 2, || std::hint::black_box(3) + 1);
            });
            span(Layer::Control, 0, 3, || ());
        });
        set_recording(false);
        span(Layer::Sim, 0, 9, || ());
        let spans = take();
        assert_eq!(spans.len(), 4, "nothing recorded while off");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        let selves = self_times(&spans);
        assert_eq!(selves.iter().sum::<u64>(), spans[0].dur);
        assert!(to_csv(&spans).lines().count() == 5);
    }
}
