//! Shared plumbing for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this module provides the common CLI surface:
//!
//! ```text
//! <bin> [--profile smoke|small|paper] [--csv <path>] [--sparsity <f64>]
//! ```
//!
//! The `run_single` and `infer_single` CLIs read their wider flag sets
//! through [`Args`].

use ndsnn::profile::Profile;

pub mod synth;

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Scale profile (default: small).
    pub profile: Profile,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Optional sparsity override.
    pub sparsity: Option<f64>,
}

impl Cli {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse(bin: &str, what: &str) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(&args) {
            Ok(cli) => cli,
            Err(msg) => {
                if msg != "help" {
                    eprintln!("{msg}");
                }
                usage(bin, what)
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`Cli::parse`]).
    pub fn parse_from(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            profile: Profile::Small,
            csv: None,
            sparsity: None,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--profile" => {
                    i += 1;
                    cli.profile = args
                        .get(i)
                        .and_then(|s| Profile::parse(s))
                        .ok_or_else(|| "invalid --profile (smoke|small|paper)".to_string())?;
                }
                "--csv" => {
                    i += 1;
                    cli.csv = Some(
                        args.get(i)
                            .cloned()
                            .ok_or_else(|| "--csv needs a path".to_string())?,
                    );
                }
                "--sparsity" => {
                    i += 1;
                    let s: f64 = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| "--sparsity needs a number".to_string())?;
                    if !(0.0..1.0).contains(&s) {
                        return Err(format!("--sparsity must be in [0,1), got {s}"));
                    }
                    cli.sparsity = Some(s);
                }
                "--help" | "-h" => return Err("help".into()),
                other => return Err(format!("unknown argument: {other}")),
            }
            i += 1;
        }
        Ok(cli)
    }

    /// Writes `content` to the `--csv` path if one was given.
    pub fn maybe_write_csv(&self, content: &str) {
        if let Some(path) = &self.csv {
            match std::fs::write(path, content) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
}

/// A strict command line for the `run_single` and `infer_single` CLIs.
/// The accepted flags are read off the usage line: `--flag` followed by `]`
/// stands alone, any other `--flag` there takes a value. Every argument
/// must be an accepted flag, valued flags need a value, a flag read with
/// [`Args::get`] may not repeat, and numbers and enumerated values must
/// parse. Any violation prints the message and the usage line on stderr
/// and exits with status 2, before the binary starts any work.
#[derive(Debug, Clone)]
pub struct Args {
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Reads `std::env::args` against `usage`.
    pub fn parse(usage: &'static str) -> Args {
        let mut given = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = match takes_value(usage, &flag) {
                Some(false) => None,
                Some(true) => Some(
                    it.next()
                        .unwrap_or_else(|| exit_usage(&format!("{flag} needs a value"), usage)),
                ),
                None => exit_usage(&format!("unknown argument: {flag}"), usage),
            };
            given.push((flag, value));
        }
        Args { usage, given }
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// Every value given for `flag`, in order.
    pub fn all(&self, flag: &str) -> Vec<&str> {
        self.given
            .iter()
            .filter(|(f, _)| f == flag)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// The value of a single-valued `flag`; giving it twice exits.
    pub fn get(&self, flag: &str) -> Option<&str> {
        match self.all(flag)[..] {
            [] => None,
            [v] => Some(v),
            _ => exit_usage(&format!("{flag} given more than once"), self.usage),
        }
    }

    /// Exits, naming it, if any of `others` was given alongside `flag`: a
    /// mode refuses the flags it would ignore instead of dropping them.
    pub fn refuse_with(&self, flag: &str, others: &[&str]) {
        if !self.has(flag) {
            return;
        }
        if let Some(other) = others.iter().find(|o| self.has(o)) {
            exit_usage(
                &format!("{other} cannot be combined with {flag}"),
                self.usage,
            );
        }
    }

    /// The value of `flag` as a number; an unparsable one exits.
    pub fn number<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.choice(flag, |v| v.parse().ok())
    }

    /// The value of `flag` mapped through `parse`; a value it rejects exits
    /// (the usage line names the accepted ones).
    pub fn choice<T>(&self, flag: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        self.get(flag).map(|v| {
            parse(v)
                .unwrap_or_else(|| exit_usage(&format!("{flag}: invalid value {v:?}"), self.usage))
        })
    }
}

/// Whether `flag` takes a value according to `usage`: `--flag <v>` does,
/// `[--flag]` does not; `None` when `usage` has no such flag.
fn takes_value(usage: &str, flag: &str) -> Option<bool> {
    if !flag.starts_with("--") {
        return None;
    }
    usage
        .match_indices(flag)
        .find_map(|(i, _)| match usage[i + flag.len()..].chars().next() {
            Some(' ') => Some(true),
            Some(']') => Some(false),
            _ => None,
        })
}

/// Prints `msg` and `usage` on stderr and exits with status 2.
fn exit_usage(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\nusage: {usage}");
    std::process::exit(2)
}

fn usage(bin: &str, what: &str) -> ! {
    eprintln!(
        "{bin} — regenerates {what}\n\n\
         usage: {bin} [--profile smoke|small|paper] [--csv <path>] [--sparsity <f64>]\n\n\
         profiles: smoke (seconds), small (default, minutes), paper (full scale — GPU-free,\n\
         expect days; provided for completeness)"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.profile, Profile::Small);
        assert!(cli.csv.is_none());
        assert!(cli.sparsity.is_none());
    }

    #[test]
    fn full_flags() {
        let cli = parse(&[
            "--profile",
            "paper",
            "--csv",
            "/tmp/x.csv",
            "--sparsity",
            "0.95",
        ])
        .unwrap();
        assert_eq!(cli.profile, Profile::Paper);
        assert_eq!(cli.csv.as_deref(), Some("/tmp/x.csv"));
        assert_eq!(cli.sparsity, Some(0.95));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse(&["--profile", "huge"]).is_err());
        assert!(parse(&["--sparsity", "1.5"]).is_err());
        assert!(parse(&["--sparsity"]).is_err());
        assert!(parse(&["--csv"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }
}
