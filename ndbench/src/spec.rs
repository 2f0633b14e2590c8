//! The metric and workload table, read from the repository's
//! `BENCHMARK.json` at build time so the binary and the file cannot
//! disagree on a name, unit, direction or bound.

use crate::json::{self, Value};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing {k:?}"));
        let workloads = field("workloads")?
            .as_array()
            .ok_or("workloads is not a list")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("run_seconds is not a number")?,
            workloads,
            end_to_end: metrics(field("end_to_end")?, true)?,
            per_layer: metrics(field("per_layer")?, false)?,
        })
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(list: &Value, bounded: bool) -> Result<Vec<Metric>, String> {
    list.as_array()
        .ok_or("metric list is not a list")?
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("metric field {k:?} missing in {m:?}"))
            };
            let better = match s("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("better must be lower or higher, not {other:?}")),
            };
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("end-to-end metric without a bound: {m:?}"))?,
                )
            } else {
                None
            };
            Ok(Metric {
                name: s("name")?.to_string(),
                unit: s("unit")?.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::NAMES;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let spec = Spec::load().unwrap();
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(spec.workloads, NAMES);
        for w in doc.get("workloads").unwrap().as_array().unwrap() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
            assert_eq!(w.as_object().unwrap().len(), 2);
        }
        let all: Vec<&Metric> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
        for m in &all {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(&m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert_eq!(
                all.iter().filter(|o| o.name == m.name).count(),
                1,
                "{}",
                m.name
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap();
            assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
        }
        let setup = spec.metric("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
    }
}
