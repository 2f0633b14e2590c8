//! Shared plumbing for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this module provides the common CLI surface:
//!
//! ```text
//! <bin> [--profile smoke|small|paper] [--csv <path>] [--sparsity <f64>]
//! ```

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
