//! The repository benchmark: simulator throughput and distance to the
//! paper on three workloads, with per-layer metrics from a traced run.
//! See `README.md` in this directory for the workloads, the metrics and
//! how they relate.

pub mod bed;
pub mod bulk;
pub mod calls;
pub mod cpu;
pub mod demux;
pub mod rpc;
pub mod span;
pub mod workload;

use std::time::{Duration, Instant};

use psd_filter::DemuxStrategy;
use psd_mbuf::pool_stats;

use bed::Counters;
use span::Layer;
use workload::{paper_err, Workload};

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// ttcp-style TCP streams, one per placement.
    Bulk,
    /// UDP and TCP echo at Table 2's sizes, one bed per cell.
    Rpc,
    /// 4096 UDP sessions under CSPF and MPF, open loop.
    Demux,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "bulk" => Some(Kind::Bulk),
            "rpc" => Some(Kind::Rpc),
            "demux" => Some(Kind::Demux),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Bulk => "bulk",
            Kind::Rpc => "rpc",
            Kind::Demux => "demux",
        }
    }

    /// How many times one run sets the workload up; `setup_s` is the
    /// median. Fixed per workload (about 0.2–1 s of set-up in all), so
    /// that the memory a set-up leaves behind adds the same amount to
    /// `peak_rss_mb` on every host.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::Bulk => 100,
            Kind::Rpc => 30,
            Kind::Demux => 5,
        }
    }

    /// Builds the workload's beds and stands up every session.
    pub fn setup(self, seed: u64, instrumented: bool) -> Box<dyn Workload> {
        match self {
            Kind::Bulk => Box::new(bulk::Bulk::setup(seed, instrumented)),
            Kind::Rpc => Box::new(rpc::Rpc::setup(seed, instrumented)),
            Kind::Demux => Box::new(demux::Demux::setup(seed, instrumented)),
        }
    }
}

/// Quantile of the per-pass rates that `frames_per_host_s` reports.
/// Interference from other tenants of the host only ever slows a pass,
/// and on a shared host it comes and goes within a run, so the fast
/// end of the pass rates measures the program and the middle measures
/// the host (see README.md, "Why the 95th percentile and CPU
/// rotation").
pub const RATE_QUANTILE: f64 = 0.95;
/// Fewest measured passes, however short `--seconds` is.
pub const MIN_PASSES: u64 = 3;
/// Traced passes stop once this many spans are held.
pub const SPAN_CAP: usize = 400_000;
/// Span tag of the root span of a measured pass.
const PASS_ROOT: u16 = u16::MAX;
/// Span tag of the root span of one set-up.
const SETUP_ROOT: u16 = u16::MAX - 1;

/// Run options.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase (host time).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run produced.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (context for the metrics, check verdicts).
    pub notes: Vec<String>,
    /// The spans of a traced run, as CSV.
    pub spans_csv: Option<String>,
}

/// Value at quantile `q` (nearest rank) of unsorted samples; 0 if none.
pub fn quantile(xs: &[u64], q: f64) -> f64 {
    quantile_f64(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>(), q)
}

/// Value at quantile `q` (nearest rank) of unsorted samples; 0 if none.
fn quantile_f64(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median_f64(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Process peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn frames(w: &dyn Workload) -> u64 {
    w.beds().iter().map(|b| b.frames()).sum()
}

fn checks(w: &dyn Workload, what: &str, notes: &mut Vec<String>) -> bool {
    let v = w.tally().violations.borrow();
    for line in v.iter() {
        notes.push(format!("VIOLATION ({what}): {line}"));
    }
    v.is_empty()
}

/// Runs one workload: set-up (repeated, timed), then passes for
/// `seconds` of host time. Untraced, it reports the end-to-end metrics;
/// traced, it also runs an instrumented copy of the workload in
/// alternate passes and reports the per-layer metrics.
pub fn run(opts: &Options) -> Outcome {
    let mut notes = Vec::new();
    if opts.trace {
        span::install();
    }

    // Set-up, repeated on each allowed CPU in turn; the last copy is
    // the one measured.
    let cpus = cpu::allowed();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut plain = None;
    for rep in 0..opts.kind.setup_reps() {
        if !cpus.is_empty() {
            cpu::pin(cpus[rep % cpus.len()]);
        }
        drop(plain.take());
        let t = Instant::now();
        plain = Some(opts.kind.setup(opts.seed, false));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut plain = plain.expect("set up");
    let mut instr = None;
    if opts.trace {
        for rep in 0..opts.kind.setup_reps() {
            drop(instr.take());
            span::set_recording(true);
            let w = span::span(Layer::Bench, SETUP_ROOT, rep as u64, || {
                opts.kind.setup(opts.seed, true)
            });
            span::set_recording(false);
            instr = Some(w);
        }
    }
    plain.prepare();
    if let Some(w) = instr.as_mut() {
        w.prepare();
        w.tally().keep_latency.set(true);
    }

    // Measured phase.
    let (calls0, blocks0) = instr.as_ref().map_or((0, 0), |w| {
        (w.tally().data_calls.get(), w.tally().wouldblock.get())
    });
    let nbeds = instr.as_ref().map_or(0, |w| w.beds().len());
    let mut per_bed = vec![Counters::default(); nbeds];
    let (mut pool_hits, mut pool_misses) = (0u64, 0u64);
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut traced_wall = Duration::ZERO;
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut pass = 0u64;
    let mut on_cpu = 0;
    let mut stint_start = Instant::now();
    if let Some(&first) = cpus.first() {
        cpu::pin(first);
    }
    loop {
        if cpus.len() > 1 && stint_start.elapsed() >= cpu::STINT {
            on_cpu = (on_cpu + 1) % cpus.len();
            cpu::pin(cpus[on_cpu]);
            stint_start = Instant::now();
        }
        let f0 = frames(plain.as_ref());
        let t = Instant::now();
        plain.pass(pass);
        let dt = t.elapsed();
        plain_rates.push((frames(plain.as_ref()) - f0) as f64 / dt.as_secs_f64());

        if let Some(w) = instr.as_mut() {
            let before: Vec<Counters> = w.beds().iter().map(|b| b.counters()).collect();
            let pool0 = pool_stats();
            let f0 = frames(w.as_ref());
            span::set_recording(true);
            let t = Instant::now();
            span::span(Layer::Bench, PASS_ROOT, pass, || w.pass(pass));
            let dt = t.elapsed();
            span::set_recording(false);
            let pool1 = pool_stats();
            traced_wall += dt;
            traced_rates.push((frames(w.as_ref()) - f0) as f64 / dt.as_secs_f64());
            pool_hits += pool1.hits() - pool0.hits();
            pool_misses += pool1.misses() - pool0.misses();
            for (acc, (b, c0)) in per_bed.iter_mut().zip(w.beds().iter().zip(&before)) {
                acc.accumulate(&b.counters().delta(c0));
            }
        }
        pass += 1;
        let spans_full = opts.trace && span::len() >= SPAN_CAP;
        if pass >= MIN_PASSES && (t0.elapsed() >= budget || spans_full) {
            break;
        }
    }
    let measured = t0.elapsed();

    // Correctness.
    let mut correct = checks(plain.as_ref(), "untraced", &mut notes);
    let cells = plain.paper_cells();
    if cells.is_empty() {
        notes.push("VIOLATION: no paper cells measured".into());
        correct = false;
    }
    let mut attempted = plain.tally().attempted.get();
    if attempted == 0 {
        notes.push("VIOLATION: no operation attempted".into());
        correct = false;
    }
    let mut failed = plain.tally().failed.get();
    if let Some(w) = instr.as_ref() {
        correct &= checks(w.as_ref(), "traced", &mut notes);
        attempted += w.tally().attempted.get();
        failed += w.tally().failed.get();
        if w.paper_cells() != cells {
            notes.push("VIOLATION: census/profiler attachment moved a virtual-time cell".into());
            correct = false;
        }
        if !w.beds().iter().all(|b| b.profiler_conserved()) {
            notes.push("VIOLATION: profiler attributed ns != Cpu::total_busy".into());
            correct = false;
        }
    }
    for c in &cells {
        notes.push(format!(
            "paper cell  {:<58} {:>9.2} (paper {:>8.2}, ln ratio {:+.4})",
            c.label,
            c.measured,
            c.paper,
            (c.measured / c.paper).ln()
        ));
    }
    notes.push(format!(
        "{} seed {}: {} passes in {:.2} s; {} set-ups, median {:.4} s; {} of {} operations failed",
        opts.kind.name(),
        opts.seed,
        pass,
        measured.as_secs_f64(),
        setup_s.len(),
        median_f64(&setup_s),
        failed,
        attempted
    ));

    let mut metrics = Vec::new();
    let mut spans_csv = None;
    if let Some(w) = instr.as_ref() {
        let spans = span::take();
        spans_csv = Some(span::to_csv(&spans));
        metrics = layer_metrics(
            w.as_ref(),
            &LayerInputs {
                spans: &spans,
                per_bed: &per_bed,
                data_calls: w.tally().data_calls.get() - calls0,
                wouldblock: w.tally().wouldblock.get() - blocks0,
                pool_hits,
                pool_misses,
                traced_wall,
                overhead: ratio(
                    quantile_f64(&traced_rates, RATE_QUANTILE),
                    quantile_f64(&plain_rates, RATE_QUANTILE),
                ),
            },
            &mut notes,
            &mut correct,
        );
    } else {
        let q = |p| quantile_f64(&plain_rates, p);
        notes.push(format!(
            "pass rates over {} passes: p25 {:.0}, median {:.0}, p75 {:.0}, p{:.0} {:.0} (frames_per_host_s)",
            plain_rates.len(),
            q(0.25),
            q(0.5),
            q(0.75),
            RATE_QUANTILE * 100.0,
            q(RATE_QUANTILE)
        ));
        notes.push(format!(
            "paper_err over {} Table 2 cells: {:.4}",
            cells.len(),
            paper_err(&cells)
        ));
        metrics.push(Metric {
            name: "frames_per_host_s",
            value: quantile_f64(&plain_rates, RATE_QUANTILE),
            unit: "1/s",
        });
        metrics.push(Metric {
            name: "setup_s",
            value: median_f64(&setup_s),
            unit: "s",
        });
        metrics.push(Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        });
        metrics.push(Metric {
            name: "paper_err",
            value: paper_err(&cells),
            unit: "ln",
        });
        if metrics
            .iter()
            .any(|m| !m.value.is_finite() || m.value <= 0.0)
        {
            notes.push("VIOLATION: an end-to-end metric is zero or not finite".into());
            correct = false;
        }
    }
    // Drop the workloads without running their teardown: the process
    // ends here, and tearing down thousands of sessions only costs time.
    std::mem::forget(plain);
    std::mem::forget(instr);
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        spans_csv,
    }
}

struct LayerInputs<'a> {
    spans: &'a [span::Span],
    per_bed: &'a [Counters],
    data_calls: u64,
    wouldblock: u64,
    pool_hits: u64,
    pool_misses: u64,
    traced_wall: Duration,
    overhead: f64,
}

fn layer_metrics(
    w: &dyn Workload,
    x: &LayerInputs,
    notes: &mut Vec<String>,
    correct: &mut bool,
) -> Vec<Metric> {
    let spans = x.spans;
    let selves = span::self_times(spans);
    // The root of every span; measured-phase spans hang off pass roots.
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = if s.parent == u32::MAX {
            i
        } else {
            root[s.parent as usize]
        };
    }
    let in_pass = |i: usize| {
        let r = &spans[root[i]];
        r.layer == Layer::Bench && r.bed == PASS_ROOT
    };
    let mut self_ns = [0u64; 5];
    let mut data_ns = Vec::new();
    let mut control_ns = Vec::new();
    let mut testbed_ns = Vec::new();
    let mut sim_self_by_bed = vec![0u64; x.per_bed.len()];
    for (i, s) in spans.iter().enumerate() {
        if in_pass(i) {
            self_ns[s.layer.index()] += selves[i];
            if s.layer == Layer::Data {
                data_ns.push(s.dur);
            }
            if s.layer == Layer::Sim {
                if let Some(b) = sim_self_by_bed.get_mut(s.bed as usize) {
                    *b += selves[i];
                }
            }
        }
        match s.layer {
            Layer::Control => control_ns.push(s.dur),
            Layer::Systems => testbed_ns.push(s.dur),
            _ => {}
        }
    }
    let accounted: u64 = self_ns.iter().sum();
    let wall = x.traced_wall.as_nanos() as f64;
    let accounted_frac = ratio(accounted as f64, wall);
    if !(0.98..=1.0001).contains(&accounted_frac) {
        notes.push(format!(
            "VIOLATION: span self times cover {:.4} of the traced passes' host time",
            accounted_frac
        ));
        *correct = false;
    }
    for (l, ns) in Layer::ALL.iter().zip(self_ns) {
        notes.push(format!(
            "self time {:<13} {:>14} ns  {:>6.2}% of traced passes",
            l.label(),
            ns,
            100.0 * ratio(ns as f64, wall)
        ));
    }

    let mut t = Counters::default();
    for c in x.per_bed {
        t.accumulate(c);
    }
    let frames = t.frames as f64;
    let per_frame = |n: u64| ratio(n as f64, frames);
    let beds = w.beds();
    let mean_over_beds = |f: &dyn Fn(&Counters) -> f64| {
        x.per_bed.iter().map(f).sum::<f64>() / x.per_bed.len().max(1) as f64
    };
    let cpu_util = mean_over_beds(&|c| {
        let busiest = c.busy_ns[0].max(c.busy_ns[1]);
        ratio(busiest as f64, c.now_ns as f64)
    });
    let wire_util =
        mean_over_beds(&|c| ratio(c.tx_bytes as f64 * 8.0, 10e6 * c.now_ns as f64 / 1e9));

    // Filter steps per received frame, by strategy; host ns per step
    // from the difference between the strategies (demux only).
    let mut steps = [(0u64, 0u64, 0u64); 2]; // (steps, rx frames, sim self ns)
    for (b, (c, sim_ns)) in beds.iter().zip(x.per_bed.iter().zip(&sim_self_by_bed)) {
        let k = usize::from(b.strategy == DemuxStrategy::Mpf);
        steps[k].0 += c.filter_steps;
        steps[k].1 += c.rx_frames;
        steps[k].2 += sim_ns;
    }
    let spf = |k: usize| ratio(steps[k].0 as f64, steps[k].1 as f64);
    let nspf = |k: usize| ratio(steps[k].2 as f64, steps[k].1 as f64);
    let host_ns_per_step = if steps[0].1 > 0 && steps[1].1 > 0 {
        ratio(nspf(0) - nspf(1), spf(0) - spf(1))
    } else {
        0.0
    };

    let lat = w.tally().latency_ns.borrow();
    let lat_us: Vec<u64> = lat.iter().map(|ns| ns / 1000).collect();
    let lag_us: Vec<u64> = w.lag_ns().iter().map(|ns| ns / 1000).collect();
    let sessions = w.sessions() as f64;
    let (rpcs, migrations) = beds.iter().fold((0, 0), |(r, m), b| {
        let c = b.counters();
        (r + c.server_rpcs, m + c.migrations_out)
    });
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sim.events_per_frame", per_frame(t.events), "count"),
        m(
            "sim.host_ns_per_event",
            ratio(self_ns[3] as f64, t.events as f64),
            "ns",
        ),
        m("sim.cpu_util", cpu_util, "ratio"),
        m(
            "systems.testbed_new_ms",
            quantile(&testbed_ns, 0.5) / 1e6,
            "ms",
        ),
        m(
            "core.data_calls_per_frame",
            per_frame(x.data_calls),
            "count",
        ),
        m("core.data_call_host_ns_p50", quantile(&data_ns, 0.5), "ns"),
        m("core.data_call_host_ns_p99", quantile(&data_ns, 0.99), "ns"),
        m(
            "core.wouldblock_frac",
            ratio(x.wouldblock as f64, x.data_calls as f64),
            "ratio",
        ),
        m(
            "core.control_call_host_us_p50",
            quantile(&control_ns, 0.5) / 1e3,
            "us",
        ),
        m(
            "core.control_call_host_us_p99",
            quantile(&control_ns, 0.99) / 1e3,
            "us",
        ),
        m(
            "core.virt_latency_us_p50",
            quantile(&lat_us, 0.5),
            "virt_us",
        ),
        m(
            "core.virt_latency_us_p99",
            quantile(&lat_us, 0.99),
            "virt_us",
        ),
        m(
            "bench.generator_lag_us_p99",
            quantile(&lag_us, 0.99),
            "virt_us",
        ),
        m(
            "server.rpcs_per_session",
            ratio(rpcs as f64, sessions),
            "count",
        ),
        m("server.migrations_out", migrations as f64, "count"),
        m(
            "kernel.crossings_per_frame",
            per_frame(t.crossings),
            "count",
        ),
        m(
            "kernel.wakeups_amortized_frac",
            ratio(t.wakeups_amortized as f64, t.rx_session as f64),
            "ratio",
        ),
        m("kernel.drops", t.kernel_drops as f64, "count"),
        m("filter.steps_per_frame_cspf", spf(0), "count"),
        m("filter.steps_per_frame_mpf", spf(1), "count"),
        m("filter.host_ns_per_step", host_ns_per_step, "ns"),
        m("netstack.rexmt", t.rexmt as f64, "count"),
        m(
            "netstack.checksum_errors",
            t.checksum_errors as f64,
            "count",
        ),
        m(
            "mbuf.pool_hit_ratio",
            ratio(x.pool_hits as f64, (x.pool_hits + x.pool_misses) as f64),
            "ratio",
        ),
        m(
            "mbuf.allocs_per_frame",
            per_frame(x.pool_hits + x.pool_misses),
            "count",
        ),
        m("netdev.bytes_per_frame", per_frame(t.tx_bytes), "B"),
        m("netdev.wire_util", wire_util, "ratio"),
        m("wire.checksums_per_frame", per_frame(t.checksums), "count"),
        m(
            "kernel.virt_us_per_frame",
            per_frame(t.domain_ns[0]) / 1e3,
            "virt_us",
        ),
        m(
            "server.virt_us_per_frame",
            per_frame(t.domain_ns[1]) / 1e3,
            "virt_us",
        ),
        m(
            "core.virt_us_per_frame",
            per_frame(t.domain_ns[2]) / 1e3,
            "virt_us",
        ),
        m("bench.trace_overhead", x.overhead, "ratio"),
        m("bench.span_accounted_frac", accounted_frac, "ratio"),
        m(
            "bench.harness_self_frac",
            ratio(self_ns[0] as f64, wall),
            "ratio",
        ),
    ]
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
