//! What every workload returns, and the table that maps names to them.

use std::collections::BTreeMap;

use ndsnn::profile::Profile;

use crate::trace::Tracer;
use crate::{infer, serve, train};

/// Workload names, in the order `all` runs them and BENCHMARK.json lists
/// them.
pub const NAMES: [&str; 6] = [
    "train_ndsnn",
    "train_dense",
    "train_active",
    "serve_light",
    "serve_busy",
    "infer_batch",
];

/// Open-loop arrival rates: fixed in requests per second, never derived
/// from a capacity probe, so two commits receive identical load.
pub const LIGHT_RPS: f64 = 200.0;
pub const BUSY_RPS: f64 = 500.0;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub profile: Profile,
    /// Measured time budget of one run.
    pub seconds: f64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Fewest training repetitions per untraced run.
    pub min_train_reps: usize,
}

impl Scale {
    pub fn full(seconds: f64) -> Scale {
        Scale {
            profile: Profile::Small,
            seconds,
            setup_reps: 9,
            min_train_reps: 2,
        }
    }

    /// Sub-second runs on the Smoke profile, for tests.
    #[cfg(test)]
    pub fn smoke() -> Scale {
        Scale {
            profile: Profile::Smoke,
            seconds: 0.45,
            setup_reps: 2,
            min_train_reps: 2,
        }
    }
}

/// Named pass/fail results; a name checked several times passes only if
/// every check passed.
#[derive(Debug, Default)]
pub struct Checks(Vec<(&'static str, bool, String)>);

impl Checks {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        match self.0.iter_mut().find(|c| c.0 == name) {
            Some(c) if c.1 && !ok => {
                c.1 = false;
                c.2 = detail();
            }
            Some(_) => {}
            None => self
                .0
                .push((name, ok, if ok { String::new() } else { detail() })),
        }
    }

    pub fn all_passed(&self) -> bool {
        self.0.iter().all(|c| c.1)
    }

    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(name, ok, detail)| {
                if *ok {
                    format!("check {name}: ok")
                } else {
                    format!("check {name}: FAILED {detail}")
                }
            })
            .collect()
    }
}

/// One run's result. `metrics` holds the end-to-end metrics of an untraced
/// run, or the per-layer metrics of a traced one (without `peak_rss_mb`,
/// which the caller reads last).
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: training runs, requests, or batches.
    pub attempted: u64,
    pub failed: u64,
    /// Repetitions: training runs, or timed set-ups.
    pub reps: usize,
    pub checks: Checks,
    /// Why the offered load was not the load the workload describes; such
    /// a run's outputs may be correct, but `compare` leaves it out.
    pub invalid: Option<String>,
}

pub fn run(name: &str, seed: u64, scale: Scale, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "train_ndsnn" => train::run(train::Kind::Ndsnn, seed, scale, tracer),
        "train_dense" => train::run(train::Kind::Dense, seed, scale, tracer),
        "train_active" => train::run(train::Kind::Active, seed, scale, tracer),
        "serve_light" => serve::run(LIGHT_RPS, seed, scale, tracer),
        "serve_busy" => serve::run(BUSY_RPS, seed, scale, tracer),
        "infer_batch" => infer::run(seed, scale, tracer),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {}",
            NAMES.join(", ")
        )),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    /// Every workload, untraced and traced, at Smoke size: its correctness
    /// checks pass, no operation fails, and it reports only metrics
    /// BENCHMARK.json lists — every end-to-end one, each nonzero.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        let spec = Spec::load().unwrap();
        for name in NAMES {
            for trace in [false, true] {
                let mut tr = Tracer::new(trace);
                let out = run(name, 3, Scale::smoke(), &mut tr).unwrap();
                let what = format!("{name} trace={trace}: {:?}", out.checks.lines());
                assert!(out.checks.all_passed(), "{what}");
                assert!(out.attempted >= 1 && out.failed == 0, "{what}");
                let table = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                for k in out.metrics.keys() {
                    assert!(table.iter().any(|m| m.name == *k), "{name}: {k} not listed");
                }
                if !trace {
                    for m in table.iter().filter(|m| m.name != "peak_rss_mb") {
                        let v = out.metrics.get(m.name.as_str());
                        assert!(v.is_some_and(|v| *v > 0.0), "{name}: {} = {v:?}", m.name);
                    }
                }
            }
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn checks_keep_the_first_failure() {
        let mut c = Checks::default();
        c.check("a", true, || unreachable!());
        c.check("b", false, || "first".into());
        c.check("b", false, || "second".into());
        c.check("b", true, || unreachable!());
        assert!(!c.all_passed());
        assert_eq!(c.lines(), ["check a: ok", "check b: FAILED first"]);
    }
}
