//! The one argument parser every bench bin shares.
//!
//! A bin declares its flags once, in a [`Cli`] value: the switches, the
//! value-taking flags (spelled with the metavariable the usage line
//! shows, e.g. `"--rounds N"`), and, for a bin that takes positional
//! arguments, its written-out synopsis. [`Cli::run`] parses the command line and hands the
//! [`Args`] to the bin's body.
//!
//! Parsing rejects an unknown flag, a value-taking flag without a
//! value, a flag given twice and a stray positional argument. The typed
//! accessors reject an unparsable number and an unknown `--config`,
//! `--platform`, `--filter-engine` or choice value. Each of these is a
//! usage error: the bin prints the message and its usage line to stderr
//! and exits 2. `--help`/`-h` prints the usage line to stdout and exits
//! 0. A run that fails after parsing (an invariant, an unwritable
//! artifact, a failed gate) exits 1.

use std::process::ExitCode;
use std::str::FromStr;

use psd_filter::FilterEngine;
use psd_sim::Platform;
use psd_systems::SystemConfig;

/// Why a bin stopped early.
#[derive(Debug, PartialEq)]
pub enum Error {
    /// The command line is wrong: exit 2 with the usage line.
    Usage(String),
    /// The run itself failed: exit 1.
    Failed(String),
}

/// The result type of a bin's body and of every argument accessor.
pub type Result<T> = std::result::Result<T, Error>;

/// One bin's command-line grammar.
pub struct Cli {
    /// The bin's name, prefixed to every message.
    pub bin: &'static str,
    /// Flags that take no value, e.g. `"--quick"`.
    pub switches: &'static [&'static str],
    /// Flags that take one value, with its metavariable: `"--seed N"`.
    pub values: &'static [&'static str],
    /// `None` when the bin takes no positional arguments; its usage
    /// line is then generated from the flags. A bin that takes them
    /// writes its usage out, one form per line, because how many it
    /// needs depends on the form.
    pub synopsis: Option<&'static str>,
}

impl Cli {
    /// The usage text: the synopsis, or a line generated from the
    /// declared flags.
    pub fn usage(&self) -> String {
        if let Some(synopsis) = self.synopsis {
            return synopsis.to_string();
        }
        let mut line = format!("usage: {}", self.bin);
        for flag in self.switches.iter().chain(self.values) {
            line.push_str(&format!(" [{flag}]"));
        }
        line
    }

    /// Parses `argv` (without the program name).
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args> {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let value = if let Some(&name) = self.switches.iter().find(|s| **s == arg) {
                (name, None)
            } else if let Some(name) = self.values.iter().map(|v| flag_name(v)).find(|n| *n == arg)
            {
                match argv.next() {
                    Some(v) if !v.starts_with("--") => (name, Some(v)),
                    _ => return Err(Error::Usage(format!("{name} needs a value"))),
                }
            } else if arg.starts_with('-') || self.synopsis.is_none() {
                return Err(Error::Usage(format!("unknown argument '{arg}'")));
            } else {
                args.positional.push(arg);
                continue;
            };
            if args.flag(value.0) {
                return Err(Error::Usage(format!("{} given twice", value.0)));
            }
            args.given.push(value);
        }
        Ok(args)
    }

    /// Parses the process's command line and runs `body`, mapping its
    /// outcome to the exit code (0, 1 for [`Error::Failed`], 2 for
    /// [`Error::Usage`]).
    pub fn run(&self, body: impl FnOnce(&Args) -> Result<()>) -> ExitCode {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.usage());
            return ExitCode::SUCCESS;
        }
        match self.parse(argv).and_then(|args| body(&args)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(Error::Usage(msg)) => {
                eprintln!("{}: {msg}\n{}", self.bin, self.usage());
                ExitCode::from(2)
            }
            Err(Error::Failed(msg)) => {
                eprintln!("{}: {msg}", self.bin);
                ExitCode::FAILURE
            }
        }
    }
}

fn flag_name(spec: &'static str) -> &'static str {
    spec.split(' ').next().unwrap_or(spec)
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// True when the flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of a value-taking flag, when given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A numeric flag, or `default` when absent.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T> {
        Ok(self.num_opt(name)?.unwrap_or(default))
    }

    /// A numeric flag, or `None` when absent.
    pub fn num_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| Error::Usage(format!("{name} takes a number, not '{v}'")))
            })
            .transpose()
    }

    /// A flag whose value is one of `choices`' spellings, or `default`
    /// when absent.
    pub fn choice<T: Copy>(&self, name: &str, choices: &[(&str, T)], default: T) -> Result<T> {
        let Some(v) = self.value(name) else {
            return Ok(default);
        };
        choices
            .iter()
            .find(|(spelling, _)| *spelling == v)
            .map(|(_, t)| *t)
            .ok_or_else(|| {
                let known: Vec<&str> = choices.iter().map(|(s, _)| *s).collect();
                Error::Usage(format!(
                    "unknown {name} '{v}' (one of: {})",
                    known.join(", ")
                ))
            })
    }

    /// `--config NAME`: a short name (`library-shm`, `ux`, …) or the
    /// paper's row label (`Mach 3.0+UX Library-SHM`).
    pub fn config(&self, default: SystemConfig) -> Result<SystemConfig> {
        let labels = ALL_CONFIGS.map(|c| (c.label(), c));
        let choices: Vec<(&str, SystemConfig)> =
            CONFIG_NAMES.iter().copied().chain(labels).collect();
        self.choice("--config", &choices, default)
    }

    /// `--platform decstation|gateway|i486`.
    pub fn platform(&self, default: Platform) -> Result<Platform> {
        self.choice(
            "--platform",
            &[
                ("decstation", Platform::DecStation5000_200),
                ("gateway", Platform::Gateway486),
                ("i486", Platform::Gateway486),
            ],
            default,
        )
    }

    /// `--filter-engine compiled|interpret`. The engines are
    /// observationally identical; CI byte-diffs a run under each.
    pub fn engine(&self) -> Result<FilterEngine> {
        self.choice(
            "--filter-engine",
            &[
                ("compiled", FilterEngine::Compiled),
                ("interpret", FilterEngine::Interpret),
            ],
            FilterEngine::default(),
        )
    }
}

const ALL_CONFIGS: [SystemConfig; 8] = [
    SystemConfig::Mach25InKernel,
    SystemConfig::Ultrix42InKernel,
    SystemConfig::Bsd386InKernel,
    SystemConfig::UxServer,
    SystemConfig::Bnr2ssServer,
    SystemConfig::LibraryIpc,
    SystemConfig::LibraryShm,
    SystemConfig::LibraryShmIpf,
];

const CONFIG_NAMES: [(&str, SystemConfig); 11] = [
    ("mach25", SystemConfig::Mach25InKernel),
    ("in-kernel", SystemConfig::Mach25InKernel),
    ("ultrix", SystemConfig::Ultrix42InKernel),
    ("386bsd", SystemConfig::Bsd386InKernel),
    ("ux", SystemConfig::UxServer),
    ("server", SystemConfig::UxServer),
    ("bnr2ss", SystemConfig::Bnr2ssServer),
    ("library-ipc", SystemConfig::LibraryIpc),
    ("library-shm", SystemConfig::LibraryShm),
    ("library-shm-ipf", SystemConfig::LibraryShmIpf),
    ("library", SystemConfig::LibraryShmIpf),
];

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: Cli = Cli {
        bin: "table",
        switches: &["--quick", "--census"],
        values: &["--rounds N", "--trace-out PATH"],
        synopsis: None,
    };

    const MICRO: Cli = Cli {
        bin: "micro",
        switches: &[],
        values: &["--config NAME", "--platform NAME", "--seed N"],
        synopsis: None,
    };

    fn parse(cli: &Cli, argv: &[&str]) -> Result<Args> {
        cli.parse(argv.iter().map(|a| a.to_string()))
    }

    fn usage_error<T: std::fmt::Debug>(r: Result<T>) -> String {
        match r {
            Err(Error::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn reads_switches_values_and_defaults() {
        let args = parse(&TABLE, &["--quick", "--rounds", "50"]).unwrap();
        assert!(args.flag("--quick"));
        assert!(!args.flag("--census"));
        assert_eq!(args.num("--rounds", 200u32), Ok(50));
        assert_eq!(args.value("--trace-out"), None);
        let args = parse(&TABLE, &[]).unwrap();
        assert_eq!(args.num("--rounds", 200u32), Ok(200));
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        let msg = usage_error(parse(&TABLE, &["--quik"]));
        assert!(msg.contains("--quik"), "{msg}");
        usage_error(parse(&TABLE, &["stray"]));
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        usage_error(parse(&TABLE, &["--trace-out"]));
        usage_error(parse(&TABLE, &["--trace-out", "--census"]));
    }

    #[test]
    fn repeated_flag_is_a_usage_error() {
        usage_error(parse(&TABLE, &["--quick", "--quick"]));
    }

    #[test]
    fn unparsable_number_is_a_usage_error() {
        let args = parse(&TABLE, &["--rounds", "x"]).unwrap();
        usage_error(args.num("--rounds", 200u32));
        let args = parse(&MICRO, &["--seed", "x"]).unwrap();
        usage_error(args.num("--seed", 7u64));
    }

    #[test]
    fn unknown_config_or_platform_is_a_usage_error() {
        let args = parse(&MICRO, &["--config", "typo", "--platform", "vax"]).unwrap();
        let msg = usage_error(args.config(SystemConfig::LibraryShmIpf));
        assert!(msg.contains("library-shm-ipf"), "lists the choices: {msg}");
        usage_error(args.platform(Platform::DecStation5000_200));
    }

    #[test]
    fn accepts_every_existing_config_spelling() {
        let config = |spelling: &str| {
            parse(&MICRO, &["--config", spelling])
                .unwrap()
                .config(SystemConfig::Mach25InKernel)
                .unwrap()
        };
        // ttcp's short names, including its `library` alias.
        assert_eq!(config("library"), SystemConfig::LibraryShmIpf);
        assert_eq!(config("in-kernel"), SystemConfig::Mach25InKernel);
        assert_eq!(config("server"), SystemConfig::UxServer);
        // chaosnet's paper labels.
        for c in ALL_CONFIGS {
            assert_eq!(config(c.label()), c);
        }
        let args = parse(&MICRO, &["--platform", "i486"]).unwrap();
        assert_eq!(
            args.platform(Platform::DecStation5000_200).unwrap(),
            Platform::Gateway486
        );
    }

    #[test]
    fn usage_line_lists_every_flag() {
        assert_eq!(
            TABLE.usage(),
            "usage: table [--quick] [--census] [--rounds N] [--trace-out PATH]"
        );
    }

    #[test]
    fn a_synopsis_admits_positionals_and_is_the_usage() {
        const FILES: Cli = Cli {
            bin: "files",
            switches: &["--check"],
            values: &[],
            synopsis: Some("usage: files FILE FILE...\n       files --check A B"),
        };
        let args = parse(&FILES, &["a", "--check", "b"]).unwrap();
        assert_eq!(args.positional(), ["a", "b"]);
        assert_eq!(
            FILES.usage(),
            "usage: files FILE FILE...\n       files --check A B"
        );
    }
}
