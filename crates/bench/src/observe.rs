//! The observe plane every bench bin shares, and the one module that
//! knows the observability artifact formats.
//!
//! An [`Observe`] value is built from the observe flags a bin accepts
//! ([`Observe::from_args`]):
//!
//! - `--census` prints an operation census per row; `--census-json
//!   PATH` writes the census snapshots;
//! - `--trace-out PATH` writes a Chrome trace-event file, one trace
//!   process per row; `--stages` prints per-stage latency percentiles
//!   (either flag attaches the packet tracer);
//! - `--profile` attaches the charged-time profiler and prints hot-site
//!   tables to stderr; `--profile-out PATH` also writes the
//!   collapsed-stack artifact;
//! - `--metrics-out PATH` samples the virtual-time gauge plane and
//!   writes the timeseries;
//! - `--faults` attaches an empty fault plane to every bed.
//!
//! A bin opens a row with [`Observe::row`], attaches the requested
//! planes to each of the row's beds, and calls [`Observe::finish`] at
//! the end. Closing a row asserts the tracer's structural invariants
//! and the profiler's exact conservation (attributed ns equal CPU busy
//! ns, bit-exact, per host); `finish` writes every artifact.
//!
//! Every plane charges no virtual time and consumes no randomness, so a
//! bin's stdout is byte-identical with or without any of them, and
//! every artifact is deterministic — collapsed stacks are sorted,
//! gauges keep registration order, and no wall-clock field exists — so
//! same-seed artifacts are byte-identical.
//!
//! Artifact shapes:
//!
//! - census: `{"rows":[{"label":L,"hosts":[SNAPSHOT,…]},…]}`, one
//!   snapshot ([`psd_sim::Census::snapshot_json`]) per host of each
//!   counted bed in the row;
//! - trace: [`psd_sim::chrome_trace_document`];
//! - profile: `PROFILE.schema.json`;
//! - metrics: `METRICS.schema.json` — one `rows` entry per row, or the
//!   flat single-run shape for a registry watched outside any row.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cli::{Args, Error, Result};
use crate::json::Json;
use psd_sim::{CensusHandle, Cpu, MetricsHandle, ProfileHandle, SimTime, TraceHandle};
use psd_systems::TestBed;

/// Sampling period of the gauge plane on row beds: a full ttcp run
/// covers tens of virtual seconds per row, so 1 ms would balloon the
/// artifact.
const METRICS_PERIOD: SimTime = SimTime::from_millis(10);

/// The requested planes and everything collected from them.
#[derive(Default)]
pub struct Observe {
    bench: &'static str,
    seed: u64,
    /// `--census`: count operations and print them per row.
    pub census: bool,
    /// `--census-json PATH`: count operations and write the snapshots.
    pub census_json: Option<String>,
    /// `--trace-out PATH`: write the Chrome trace.
    pub trace_out: Option<String>,
    /// `--stages`: the bin prints per-stage latency percentiles.
    pub stages: bool,
    /// `--profile`: attach the profiler and print hot-site tables
    /// (`--profile-out` implies it).
    pub profile: bool,
    /// `--profile-out PATH`: write the collapsed-stack profile.
    pub profile_out: Option<String>,
    /// `--metrics-out PATH`: sample the gauge plane and write it.
    pub metrics_out: Option<String>,
    /// `--faults`: attach an empty fault plane to every bed.
    pub faults: bool,
    row: Option<Row>,
    rows: u64,
    trace_events: String,
    census_rows: Vec<String>,
    profiles: Vec<ProfiledRun>,
    metrics: Vec<(Option<String>, MetricsHandle)>,
}

/// The planes attached under the open row.
struct Row {
    label: String,
    pid: u64,
    tracer: Option<TraceHandle>,
    censuses: Vec<CensusHandle>,
    profiles: Vec<(Rc<RefCell<Cpu>>, ProfileHandle)>,
}

impl Observe {
    /// Reads the observe flags; a flag the bin does not declare reads
    /// as absent. `bench` and `seed` are written into the artifacts.
    pub fn from_args(args: &Args, bench: &'static str, seed: u64) -> Observe {
        let owned = |name| args.value(name).map(str::to_string);
        Observe {
            bench,
            seed,
            census: args.flag("--census"),
            census_json: owned("--census-json"),
            trace_out: owned("--trace-out"),
            stages: args.flag("--stages"),
            profile: args.flag("--profile"),
            profile_out: owned("--profile-out"),
            metrics_out: owned("--metrics-out"),
            faults: args.flag("--faults"),
            ..Observe::default()
        }
    }

    /// True when any plane is requested.
    pub fn any(&self) -> bool {
        self.counting()
            || self.tracing()
            || self.profiling()
            || self.metrics_out.is_some()
            || self.faults
    }

    fn counting(&self) -> bool {
        self.census || self.census_json.is_some()
    }

    fn tracing(&self) -> bool {
        self.stages || self.trace_out.is_some()
    }

    fn profiling(&self) -> bool {
        self.profile || self.profile_out.is_some()
    }

    /// Closes the open row and opens one labelled `label`. Its tracer
    /// becomes trace process `n` for the `n`-th row.
    pub fn row(&mut self, label: impl Into<String>) {
        self.end_row();
        self.row = Some(Row {
            label: label.into(),
            pid: self.rows,
            tracer: self.tracing().then(psd_sim::Tracer::shared),
            censuses: Vec::new(),
            profiles: Vec::new(),
        });
        self.rows += 1;
    }

    fn open_row(&mut self) -> &mut Row {
        if self.row.is_none() {
            self.row(String::new());
        }
        self.row.as_mut().expect("row opened")
    }

    /// Attaches every requested plane to `bed`; returns the census
    /// handles (one per host) when counting.
    pub fn attach(&mut self, bed: &mut TestBed) -> Option<Vec<CensusHandle>> {
        self.attach_faults(bed);
        self.attach_tracer(bed);
        self.attach_counters(bed)
    }

    /// Attaches an empty fault plane (`--faults`): every site is
    /// visited and counted, none fires.
    pub fn attach_faults(&mut self, bed: &mut TestBed) {
        if self.faults {
            bed.attach_fault_plane();
        }
    }

    /// Attaches the open row's tracer, shared by all its beds.
    pub fn attach_tracer(&mut self, bed: &mut TestBed) {
        if let Some(t) = &self.open_row().tracer {
            bed.attach_tracer_handle(t);
        }
    }

    /// Attaches the per-bed planes: census, profiler and gauge sampler.
    pub fn attach_counters(&mut self, bed: &mut TestBed) -> Option<Vec<CensusHandle>> {
        let (counting, profile, sample) = (
            self.counting(),
            self.profiling(),
            self.metrics_out.is_some(),
        );
        let row = self.open_row();
        let censuses = counting.then(|| bed.attach_census());
        if let Some(cs) = &censuses {
            row.censuses.extend(cs.iter().cloned());
        }
        if profile {
            let cpus: Vec<_> = bed.hosts.iter().map(|h| h.cpu.clone()).collect();
            row.profiles
                .extend(cpus.into_iter().zip(bed.attach_profilers()));
        }
        if sample {
            let label = Some(row.label.clone());
            self.metrics
                .push((label, bed.attach_metrics(METRICS_PERIOD)));
        }
        censuses
    }

    /// Samples a bed [`attach`](Observe::attach) does not cover:
    /// `attach_metrics` runs only under `--metrics-out`, and the
    /// registry is written in the flat single-run shape.
    pub fn watch_metrics(&mut self, attach_metrics: impl FnOnce() -> MetricsHandle) {
        if self.metrics_out.is_some() {
            self.metrics.push((None, attach_metrics()));
        }
    }

    /// The open row's tracer, when tracing.
    pub fn tracer(&self) -> Option<&TraceHandle> {
        self.row.as_ref()?.tracer.as_ref()
    }

    /// Prints the open row's census under `--census`: one block per
    /// counted host, headed `census host{i}{what}:`.
    pub fn print_census(&self, what: &str) {
        let Some(row) = self.row.as_ref().filter(|_| self.census) else {
            return;
        };
        for (i, census) in row.censuses.iter().enumerate() {
            println!("  census host{i}{what}:");
            for line in census.borrow().snapshot().lines() {
                println!("    {line}");
            }
        }
        println!();
    }

    fn end_row(&mut self) {
        let Some(row) = self.row.take() else {
            return;
        };
        if let Some(t) = &row.tracer {
            let t = t.borrow();
            let violations = t.check_invariants();
            assert!(violations.is_empty(), "trace invariants: {violations:?}");
            if self.trace_out.is_some() {
                t.chrome_events(row.pid, &row.label, &mut self.trace_events);
            }
        }
        if self.census_json.is_some() && !row.censuses.is_empty() {
            let hosts: Vec<String> = row
                .censuses
                .iter()
                .map(|c| c.borrow().snapshot_json())
                .collect();
            self.census_rows.push(format!(
                "{{\"label\":\"{}\",\"hosts\":[{}]}}",
                row.label,
                hosts.join(",")
            ));
        }
        if !row.profiles.is_empty() {
            let hosts = row
                .profiles
                .iter()
                .enumerate()
                .map(|(i, (cpu, prof))| host_profile(i, cpu, prof))
                .collect();
            self.profiles.push(ProfiledRun {
                label: row.label,
                hosts,
            });
        }
    }

    /// Closes the open row, prints the hot-site tables to stderr
    /// (stdout stays byte-identical to an unprofiled run), and writes
    /// every requested artifact.
    pub fn finish(mut self) -> Result<()> {
        self.end_row();
        if let Some(path) = &self.trace_out {
            let doc = psd_sim::chrome_trace_document(&self.trace_events);
            write_artifact(self.bench, "Chrome trace", path, &doc)?;
        }
        if let Some(path) = &self.census_json {
            let doc = format!("{{\"rows\":[{}]}}\n", self.census_rows.join(","));
            write_artifact(self.bench, "census snapshot", path, &doc)?;
        }
        if self.profiling() {
            print_hot_tables(&self.profiles);
        }
        if let Some(path) = &self.profile_out {
            let doc = profile_json(self.bench, &self.profiles).write();
            write_artifact(self.bench, "charged-time profile", path, &doc)?;
        }
        if let Some(path) = &self.metrics_out {
            let doc = match self.metrics.as_slice() {
                [(None, metrics)] => metrics_json(self.bench, self.seed, metrics),
                rows => metrics_rows_json(self.bench, self.seed, rows),
            };
            write_artifact(self.bench, "metrics timeseries", path, &doc.write())?;
        }
        Ok(())
    }
}

/// Writes one artifact and notes it on stderr.
pub fn write_artifact(bench: &str, what: &str, path: &str, contents: &str) -> Result<()> {
    std::fs::write(path, contents)
        .map_err(|e| Error::Failed(format!("cannot write {path}: {e}")))?;
    eprintln!("{bench}: wrote {what} to {path}");
    Ok(())
}

/// One host's profile: conservation totals plus the collapsed stacks.
struct HostProfile {
    host: usize,
    total_busy_ns: u64,
    attributed_ns: u64,
    sites: usize,
    /// Collapsed-stack (flamegraph) text, lexicographically sorted.
    stacks: String,
    /// Human hot-site table (top 10), for stderr display.
    hot_table: String,
}

/// One row's per-host profiles.
struct ProfiledRun {
    label: String,
    hosts: Vec<HostProfile>,
}

/// Snapshots one host's profiler and asserts the exact-conservation
/// guarantee: every charged nanosecond on the CPU is attributed to
/// exactly one (site, layer) bucket, bit-exact. A violation is a bug
/// in the charge plumbing, never data-dependent — so it panics.
fn host_profile(host: usize, cpu: &Rc<RefCell<Cpu>>, prof: &ProfileHandle) -> HostProfile {
    let total_busy_ns = cpu.borrow().total_busy().as_nanos();
    let p = prof.borrow();
    let attributed_ns = p.attributed_ns();
    assert_eq!(
        attributed_ns, total_busy_ns,
        "profiler conservation violated on host {host}: attributed {attributed_ns} ns \
         != total busy {total_busy_ns} ns"
    );
    HostProfile {
        host,
        total_busy_ns,
        attributed_ns,
        sites: p.site_count(),
        stacks: p.collapsed_stacks(),
        hot_table: p.hot_site_table(10),
    }
}

/// The `--profile-out` artifact.
fn profile_json(bench: &str, runs: &[ProfiledRun]) -> Json {
    let host = |h: &HostProfile| {
        Json::obj(vec![
            ("host", Json::Num(h.host as f64)),
            ("total_busy_ns", Json::Num(h.total_busy_ns as f64)),
            ("attributed_ns", Json::Num(h.attributed_ns as f64)),
            ("sites", Json::Num(h.sites as f64)),
            ("stacks", Json::str(h.stacks.clone())),
        ])
    };
    let rows = runs
        .iter()
        .map(|run| {
            Json::obj(vec![
                ("label", Json::str(run.label.clone())),
                ("hosts", Json::Arr(run.hosts.iter().map(host).collect())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str("profile")),
        ("bench", Json::str(bench)),
        ("rows", Json::Arr(rows)),
    ])
}

fn print_hot_tables(runs: &[ProfiledRun]) {
    for run in runs {
        for h in &run.hosts {
            eprintln!(
                "profile: {} host{} — {} ns attributed over {} sites",
                run.label, h.host, h.attributed_ns, h.sites
            );
            for line in h.hot_table.lines() {
                eprintln!("  {line}");
            }
        }
    }
}

/// `gauges` + `samples` members for one sampled registry, shared by
/// the single- and multi-row artifact shapes.
fn registry_members(metrics: &MetricsHandle) -> [(&'static str, Json); 2] {
    let m = metrics.borrow();
    let sample = |(t, row): &(u64, Vec<u64>)| {
        Json::obj(vec![
            ("t_ns", Json::Num(*t as f64)),
            (
                "values",
                Json::Arr(row.iter().map(|v| Json::Num(*v as f64)).collect()),
            ),
        ])
    };
    [
        (
            "gauges",
            Json::Arr(m.gauge_names().iter().map(|n| Json::str(*n)).collect()),
        ),
        (
            "samples",
            Json::Arr(m.samples().iter().map(sample).collect()),
        ),
    ]
}

/// The flat `--metrics-out` artifact of a single run: gauge names in
/// registration order, one entry per virtual-time sample.
fn metrics_json(bench: &str, seed: u64, metrics: &MetricsHandle) -> Json {
    let [gauges, samples] = registry_members(metrics);
    Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str("metrics")),
        ("bench", Json::str(bench)),
        ("seed", Json::Num(seed as f64)),
        gauges,
        samples,
    ])
}

/// The per-row `--metrics-out` artifact.
fn metrics_rows_json(bench: &str, seed: u64, rows: &[(Option<String>, MetricsHandle)]) -> Json {
    let row = |(label, metrics): &(Option<String>, MetricsHandle)| {
        let [gauges, samples] = registry_members(metrics);
        let label = Json::str(label.clone().unwrap_or_default());
        Json::obj(vec![("label", label), gauges, samples])
    };
    Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("tool", Json::str("metrics")),
        ("bench", Json::str(bench)),
        ("seed", Json::Num(seed as f64)),
        ("rows", Json::Arr(rows.iter().map(row).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_sim::Metrics;

    #[test]
    fn metrics_artifact_is_order_stable() {
        let m = Metrics::shared();
        m.borrow_mut().register("b_gauge", || 2);
        m.borrow_mut().register("a_gauge", || 1);
        m.borrow_mut().sample(SimTime::from_micros(5));
        let doc = metrics_json("test", 7, &m);
        let text = doc.write();
        // Registration order, not alphabetical.
        assert!(text.find("b_gauge").unwrap() < text.find("a_gauge").unwrap());
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed
                .get("samples")
                .and_then(Json::as_arr)
                .map(|s| s.len()),
            Some(1)
        );
    }

    #[test]
    fn host_profile_asserts_conservation() {
        use psd_sim::{Domain, Layer, Profiler};
        let cpu = Rc::new(RefCell::new(Cpu::new()));
        let prof = Profiler::shared();
        cpu.borrow_mut().set_profiler(Some(prof.clone()));
        let mut c = cpu.borrow_mut().begin(SimTime::ZERO);
        c.site_push(Domain::Kernel, "work");
        c.add_ns(Layer::Other, 1234);
        c.site_pop();
        cpu.borrow_mut().finish(c);
        let h = host_profile(0, &cpu, &prof);
        assert_eq!(h.total_busy_ns, 1234);
        assert_eq!(h.attributed_ns, 1234);
        assert!(h.stacks.contains("kernel:work"));
    }
}
