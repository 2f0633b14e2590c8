//! `ndbench compare PARENT CHANGE`: judges a change against its parent from
//! the `--out` records of runs on each commit.
//!
//! Runs are paired in file order, so run them alternating between the two
//! commits. For each (metric, workload) row the verdict is:
//! - `improved`: at least 10 pairs, the change wins at least 9 in 10 (ties
//!   count for neither), and its median beats the parent's by more than the
//!   parent's interquartile range;
//! - `unresolved`: fewer than 10 pairs, or a side's relative spread exceeds
//!   the bound (unless every change run beats every parent run);
//! - `worse`: the change's median is worse by more than the bound;
//! - `unchanged`: otherwise.
//!
//! Per-layer metrics have no bound; their rows show the numbers only. Runs
//! marked invalid are left out.

use crate::json::{self, Value};
use crate::spec::{Better, Metric, Spec};
use crate::stats::{quartiles, relative_iqr};

pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Verdict plus the change's wins over `pairs` pairs.
pub fn verdict(parent: &[f64], change: &[f64], m: &Metric) -> (Verdict, usize, usize) {
    let beats = |c: f64, p: f64| match m.better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(**c, **p))
        .count();
    let (Some(bound), Some(qp), Some(qc)) = (m.bound, quartiles(parent), quartiles(change)) else {
        return (Verdict::NoBound, wins, pairs);
    };
    let gain = match m.better {
        Better::Lower => qp[1] - qc[1],
        Better::Higher => qc[1] - qp[1],
    };
    let spread = relative_iqr(parent)
        .unwrap_or(0.0)
        .max(relative_iqr(change).unwrap_or(0.0));
    let all_better = change.iter().all(|c| parent.iter().all(|p| beats(*c, *p)));
    let v = if pairs < MIN_PAIRS {
        Verdict::Unresolved
    } else if wins * 10 >= pairs * 9 && gain > qp[2] - qp[0] {
        Verdict::Improved
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if -gain > bound * qp[1].abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (v, wins, pairs)
}

/// One run: its workload and its metric values by name.
type Record = (String, Vec<(String, f64)>);

/// Every valid record in a file.
fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if rec.get("valid") == Some(&Value::Bool(false)) {
            println!("{path}:{}: skipping a run marked invalid", n + 1);
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: record without a workload", n + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}:{}: record without metrics", n + 1))?
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        out.push((workload.to_string(), metrics));
    }
    Ok(out)
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, ms)| ms.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

fn side(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, q2, q3]) => format!("{q2:>12.4} [{q1:.4}, {q3:.4}]"),
        None => "-".into(),
    }
}

/// Prints one row per (metric, workload) present on both sides; returns
/// whether any row is `worse`.
pub fn run(spec: &Spec, parent_path: &str, change_path: &str) -> Result<bool, String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    println!(
        "{:<28} {:<13} {:>34} {:>34} {:>7}  verdict",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut any_worse = false;
    for workload in &spec.workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (p, c) = (
                values(&parent, workload, &m.name),
                values(&change, workload, &m.name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(&p, &c, m);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<28} {:<13} {:>34} {:>34} {:>7}  {}",
                m.name,
                workload,
                side(&p),
                side(&c),
                format!("{wins}/{pairs}"),
                v.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(bound: Option<f64>) -> Metric {
        Metric {
            name: "latency_p50_ms".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound,
        }
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + (i % 5) as f64 * 0.01 * center)
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let (v, wins, pairs) = verdict(&around(10.0, 10), &around(8.0, 10), &latency(Some(0.1)));
        assert_eq!((v, wins, pairs), (Verdict::Improved, 10, 10));
    }

    #[test]
    fn fewer_than_ten_pairs_is_unresolved() {
        let (v, _, pairs) = verdict(&around(10.0, 9), &around(8.0, 12), &latency(Some(0.1)));
        assert_eq!((v, pairs), (Verdict::Unresolved, 9));
    }

    #[test]
    fn regression_beyond_bound_is_worse_and_within_is_unchanged() {
        let m = latency(Some(0.1));
        assert_eq!(
            verdict(&around(10.0, 10), &around(12.0, 10), &m).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&around(10.0, 10), &around(10.5, 10), &m).0,
            Verdict::Unchanged
        );
        // Higher-is-better flips the direction.
        let rate = Metric {
            better: Better::Higher,
            ..latency(Some(0.1))
        };
        assert_eq!(
            verdict(&around(10.0, 10), &around(12.0, 10), &rate).0,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&around(10.0, 10), &around(8.0, 10), &rate).0,
            Verdict::Worse
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        let m = latency(Some(0.1));
        assert_eq!(
            verdict(&noisy, &around(10.0, 10), &m).0,
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run: no regression,
        // though the gain is inside the parent's spread.
        assert_eq!(verdict(&noisy, &around(4.0, 10), &m).0, Verdict::Unchanged);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = around(10.0, 10);
        let (v, wins, _) = verdict(&same, &same, &latency(Some(0.1)));
        assert_eq!((v, wins), (Verdict::Unchanged, 0));
        assert_eq!(verdict(&same, &same, &latency(None)).0, Verdict::NoBound);
    }
}
