//! `psdbench --workload <bulk|rpc|demux> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the metrics by name and unit, the paper cells and the check
//! verdicts, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A traced run also writes its
//! spans to `out/spans-<workload>.csv` in this package's directory.

use std::process::ExitCode;

use psdbench::{result_json, run, Kind, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("psdbench: {msg}");
    eprintln!("usage: psdbench --workload <bulk|rpc|demux> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Kind::parse(value) {
                Some(k) => kind = Some(k),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage(&format!("bad seconds '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace '{value}'")),
            },
            _ => return usage(&format!("unknown flag '{flag}'")),
        }
    }
    let Some(kind) = kind else {
        return usage("--workload is required");
    };
    let outcome = run(&Options {
        kind,
        seed,
        seconds,
        trace,
    });
    for line in &outcome.notes {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(csv) = &outcome.spans_csv {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}.csv", kind.name()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("psdbench: could not write spans: {e}"),
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
