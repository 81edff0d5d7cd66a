//! A run's outcome and its printed and written forms.

use std::collections::BTreeMap;

use osim_metrics::json::{obj, Json};

use crate::spec::Spec;
use crate::trace::{self, Span};
use crate::RunCfg;

/// Metric values by name, each with an optional note (sample counts,
/// the percentile actually reported).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<String, (f64, String)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), (value, String::new()));
    }

    pub fn set_noted(&mut self, name: impl Into<String>, value: f64, note: String) {
        self.0.insert(name.into(), (value, note));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn note(&self, name: &str) -> &str {
        self.0.get(name).map_or("", |(_, n)| n)
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs (simulator) or operations (store) whose output was checked.
    pub attempted: u64,
    /// Checked jobs or operations that failed, plus store keys whose final
    /// value was wrong.
    pub failed: u64,
    pub values: Values,
    /// Human-readable ledger lines of a traced run.
    pub ledger: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics `spec` names for this kind of run, as
    /// `(name, value, unit)`; an error names any the run did not produce.
    pub fn selected<'a>(
        &self,
        spec: &'a Spec,
        traced: bool,
    ) -> Result<Vec<(&'a str, f64, &'a str)>, String> {
        spec.metrics(traced)
            .iter()
            .map(|m| {
                self.values
                    .get(&m.name)
                    .map(|v| (m.name.as_str(), v, m.unit.as_str()))
                    .ok_or_else(|| format!("the run produced no value for `{}`", m.name))
            })
            .collect()
    }

    /// The printed report: `name value unit [note]` per metric, the ledger
    /// and self times of a traced run, and last the one-line JSON result.
    pub fn render(&self, spec: &Spec, traced: bool) -> Result<String, String> {
        let selected = self.selected(spec, traced)?;
        let mut out = String::new();
        for (name, value, unit) in &selected {
            let note = self.values.note(name);
            out.push_str(&format!("{name} {value} {unit}"));
            if !note.is_empty() {
                out.push_str(&format!(" ({note})"));
            }
            out.push('\n');
        }
        for line in &self.ledger {
            out.push_str(line);
            out.push('\n');
        }
        if traced {
            for (name, t) in trace::self_times(&self.spans) {
                out.push_str(&format!(
                    "self {name:24} {:12.3} ms self {:12.3} ms total {:8} spans\n",
                    t.self_ms, t.total_ms, t.count
                ));
            }
        }
        out.push_str(&self.result_json(&selected).to_compact());
        out.push('\n');
        Ok(out)
    }

    fn result_json(&self, selected: &[(&str, f64, &str)]) -> Json {
        let metrics = selected
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from_u64(self.attempted)),
            ("failed", Json::from_u64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The self-describing result document `--out` writes and `agree`
    /// reads: the printed result plus workload, seed, run length and mode.
    pub fn document(&self, spec: &Spec, cfg: &RunCfg) -> Result<Json, String> {
        let selected = self.selected(spec, cfg.traced)?;
        let Json::Obj(mut members) = self.result_json(&selected) else {
            unreachable!("result_json builds an object")
        };
        let head = [
            ("workload", Json::Str(cfg.workload.clone())),
            ("seed", Json::from_u64(cfg.seed)),
            ("seconds", Json::from_u64(cfg.seconds)),
            ("traced", Json::Bool(cfg.traced)),
        ];
        members.splice(0..0, head.map(|(k, v)| (k.to_string(), v)));
        Ok(Json::Obj(members))
    }
}
