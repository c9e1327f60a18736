//! Machine-readable (`ANALYSIS.json`) and human-readable report emission.
//!
//! JSON is hand-rolled: the workspace vendors no serde, and the schema is
//! small and flat. Strings are escaped per RFC 8259 minimal rules.

use crate::dpor::{ModelScenarioResult, ModelSelfCheck};
use crate::lints::Violation;

/// Escape a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The complete analyzer outcome, ready for serialization.
pub struct Analysis {
    /// Files the lint pass scanned.
    pub files_scanned: usize,
    /// Lint findings on the real tree (must be empty for a green run).
    pub violations: Vec<Violation>,
    /// Self-check: findings on the bad-fixture corpus (must be non-empty —
    /// proves the lints can still fire).
    pub fixture_violations: usize,
    /// Fixture files exercised by the self-check.
    pub fixture_files: usize,
    /// Model-checker leg: DPOR exploration results plus the implanted-bug
    /// self-check.
    pub model: ModelReport,
}

/// The model-checker leg's outcome.
pub struct ModelReport {
    /// Per-scenario DPOR exploration results.
    pub scenarios: Vec<ModelScenarioResult>,
    /// Implanted-bug self-check verdict.
    pub self_check: ModelSelfCheck,
}

impl ModelReport {
    /// Total interleavings explored across scenarios.
    pub fn explored_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.explored).sum()
    }

    /// Total branches DPOR pruned across scenarios.
    pub fn pruned_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.pruned).sum()
    }

    /// Happens-before races found on real code (must be 0).
    pub fn races_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.races).sum()
    }

    /// Wait-for cycles found on real code (must be 0).
    pub fn cycles_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.cycles).sum()
    }

    /// Lost updates found on real code (must be 0).
    pub fn lost_updates_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.lost_updates).sum()
    }

    /// The sleep-set reduction actually pruned something — a dead DPOR
    /// layer would silently degrade to naive enumeration.
    pub fn reduction_nonzero(&self) -> bool {
        self.pruned_total() > 0
    }

    /// Every scenario clean and exhaustive (or declared bounded), the
    /// reduction alive, and every implanted bug caught.
    pub fn ok(&self) -> bool {
        self.scenarios.iter().all(ModelScenarioResult::ok)
            && self.reduction_nonzero()
            && self.self_check.ok()
    }
}

impl Analysis {
    /// Overall verdict: clean tree, clean model sweep, working self-checks.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.fixture_violations > 0 && self.model.ok()
    }

    /// Serialize to the `ANALYSIS.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"lint_violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
                esc(v.lint),
                esc(&v.file),
                v.line,
                esc(&v.message),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"fixture_selfcheck\": {{\"files\": {}, \"violations\": {}, \"fired\": {}}},\n",
            self.fixture_files,
            self.fixture_violations,
            self.fixture_violations > 0
        ));
        let m = &self.model;
        s.push_str("  \"model_scenarios\": [\n");
        for (i, sc) in m.scenarios.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"p\": {}, \"explored\": {}, \"pruned\": {}, \
                 \"distinct_results\": {}, \"races\": {}, \"lost_updates\": {}, \
                 \"cycles\": {}, \"exhausted\": {}, \"bounded\": {}, \"ok\": {}}}{}\n",
                esc(&sc.name),
                sc.p,
                sc.explored,
                sc.pruned,
                sc.distinct_results,
                sc.races,
                sc.lost_updates,
                sc.cycles,
                sc.exhausted,
                sc.bounded,
                sc.ok(),
                if i + 1 < m.scenarios.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"model\": {{\"explored_total\": {}, \
             \"pruned_total\": {}, \"races_total\": {}, \"cycles_total\": {}, \
             \"lost_updates_total\": {}, \"reduction_nonzero\": {}, \
             \"selfcheck_ok\": {}, \"bad_reduce_witness\": \"{}\", \
             \"cycle_report\": \"{}\", \"ok\": {}}}\n",
            m.explored_total(),
            m.pruned_total(),
            m.races_total(),
            m.cycles_total(),
            m.lost_updates_total(),
            m.reduction_nonzero(),
            m.self_check.ok(),
            esc(&m.self_check.bad_reduce_witness),
            esc(&m.self_check.cycle_report),
            m.ok()
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable summary for the terminal / bench report.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("== sasgd-analysis ==\n\n");
        s.push_str(&format!(
            "lint pass: {} files scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        for v in &self.violations {
            s.push_str(&format!(
                "  [{}] {}:{} {}\n",
                v.lint, v.file, v.line, v.message
            ));
        }
        s.push_str(&format!(
            "lint self-check: {} fixture file(s), {} violation(s) fired ({})\n\n",
            self.fixture_files,
            self.fixture_violations,
            if self.fixture_violations > 0 {
                "ok"
            } else {
                "FAIL: lints are dead"
            }
        ));
        let m = &self.model;
        s.push_str("model checker (DPOR over ModelTransport):\n");
        for sc in &m.scenarios {
            s.push_str(&format!(
                "  {:<34} p={} explored={:>5} pruned={:>5} distinct={} races={} lost={} \
                 cycles={} {}  {}\n",
                sc.name,
                sc.p,
                sc.explored,
                sc.pruned,
                sc.distinct_results,
                sc.races,
                sc.lost_updates,
                sc.cycles,
                if sc.bounded {
                    "bounded"
                } else if sc.exhausted {
                    "exhaustive"
                } else {
                    "TRUNCATED"
                },
                if sc.ok() { "ok" } else { "FAIL" }
            ));
            for r in &sc.reports {
                s.push_str(&format!("      {r}\n"));
            }
            if let Some(w) = &sc.witness {
                s.push_str(&format!("      witness: {w}\n"));
            }
            for e in &sc.errors {
                s.push_str(&format!("      error: {e}\n"));
            }
        }
        let c = &m.self_check;
        s.push_str(&format!(
            "  model self-check: races={} (witness {}, replay {}), lost={}, rmw clean={}, \
             cycle caught={} ({})\n",
            c.bad_reduce_races,
            if c.bad_reduce_witness.is_empty() {
                "MISSING"
            } else {
                &c.bad_reduce_witness
            },
            if c.bad_reduce_replay_confirms {
                "confirms"
            } else {
                "FAILS"
            },
            c.lost_updates_caught,
            c.rmw_clean,
            c.cycle_caught,
            if c.ok() { "ok" } else { "FAIL" }
        ));
        s.push_str(&format!(
            "  model totals: explored={} pruned={} reduction_nonzero={}\n",
            m.explored_total(),
            m.pruned_total(),
            m.reduction_nonzero()
        ));
        s.push_str(&format!(
            "\noverall: {}\n",
            if self.ok() { "OK" } else { "FAIL" }
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn empty_analysis_round_trips() {
        let a = Analysis {
            files_scanned: 3,
            violations: vec![Violation {
                lint: "map-iter",
                file: "crates/x.rs".into(),
                line: 7,
                message: "no \"maps\"".into(),
            }],
            fixture_violations: 5,
            fixture_files: 2,
            model: ModelReport {
                scenarios: Vec::new(),
                self_check: ModelSelfCheck {
                    bad_reduce_races: 0,
                    bad_reduce_witness: String::new(),
                    bad_reduce_replay_confirms: false,
                    lost_updates_caught: 0,
                    lost_update_witness: String::new(),
                    rmw_clean: true,
                    cycle_caught: false,
                    cycle_report: String::new(),
                },
            },
        };
        let j = a.to_json();
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("no \\\"maps\\\""));
        assert!(j.contains("\"selfcheck_ok\": false"));
        assert!(j.contains("\"ok\": false")); // violations present → not ok
    }
}
