//! SARIF 2.1.0 output, for CI code-scanning upload and editor ingestion.
//!
//! One run, one tool (`kvs-lint`), the full rule catalogue under
//! `tool.driver.rules`, and one result per finding: still-failing
//! findings at level `error`, baselined findings at level `warning`
//! (visible debt, not a gate). Paths are emitted as workspace-relative
//! `artifactLocation.uri`s, which is what the GitHub SARIF ingester
//! expects when the checkout is the workspace root.
//!
//! Findings whose message carries a `file:line → file:line` witness
//! chain (the interprocedural rules) additionally emit the chain as a
//! SARIF `codeFlows` thread flow, so code-scanning UIs can step through
//! it hop by hop.

use crate::json::{self, Value};
use crate::rules::{Diagnostic, RULES};
use crate::Outcome;

/// The schema URI embedded in the report.
pub const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders the outcome as a SARIF 2.1.0 document.
pub fn render(outcome: &Outcome) -> String {
    let rules: Vec<Value> = RULES
        .iter()
        .map(|(id, summary)| {
            json::obj(vec![
                ("id", json::s(id)),
                (
                    "shortDescription",
                    json::obj(vec![("text", json::s(summary))]),
                ),
            ])
        })
        .collect();
    let results: Vec<Value> = outcome
        .diagnostics
        .iter()
        .map(|d| result(d, "error"))
        .chain(outcome.baselined.iter().map(|d| result(d, "warning")))
        .collect();
    json::obj(vec![
        ("$schema", json::s(SCHEMA)),
        ("version", json::s("2.1.0")),
        (
            "runs",
            Value::Arr(vec![json::obj(vec![
                (
                    "tool",
                    json::obj(vec![(
                        "driver",
                        json::obj(vec![
                            ("name", json::s("kvs-lint")),
                            ("informationUri", json::s("docs/LINT.md")),
                            ("rules", Value::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Arr(results)),
            ])]),
        ),
    ])
    .to_pretty()
}

fn location(path: &str, line: usize) -> Value {
    json::obj(vec![(
        "physicalLocation",
        json::obj(vec![
            ("artifactLocation", json::obj(vec![("uri", json::s(path))])),
            (
                "region",
                json::obj(vec![("startLine", Value::Num(line.max(1) as f64))]),
            ),
        ]),
    )])
}

/// Extracts the `file:line → file:line → …` witness chain embedded in a
/// diagnostic message, if any. Chains are rendered by the call-graph
/// and CFG witness helpers; every step must parse as
/// `path:line` for the chain to count (a lone `→` in prose does not).
fn witness_chain(message: &str) -> Option<Vec<(String, usize)>> {
    let candidate = message.rsplit(": ").next().unwrap_or(message);
    let steps: Vec<&str> = candidate.split(" → ").map(str::trim).collect();
    if steps.len() < 2 {
        return None;
    }
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        let (path, line) = step.rsplit_once(':')?;
        let line: usize = line.parse().ok()?;
        if path.is_empty() || path.contains(' ') {
            return None;
        }
        out.push((path.to_string(), line));
    }
    Some(out)
}

fn result(d: &Diagnostic, level: &str) -> Value {
    let mut fields = vec![
        ("ruleId", json::s(d.rule)),
        ("level", json::s(level)),
        ("message", json::obj(vec![("text", json::s(&d.message))])),
        ("locations", Value::Arr(vec![location(&d.path, d.line)])),
    ];
    if let Some(chain) = witness_chain(&d.message) {
        let steps: Vec<Value> = chain
            .iter()
            .map(|(path, line)| json::obj(vec![("location", location(path, *line))]))
            .collect();
        fields.push((
            "codeFlows",
            Value::Arr(vec![json::obj(vec![(
                "threadFlows",
                Value::Arr(vec![json::obj(vec![("locations", Value::Arr(steps))])]),
            )])]),
        ));
    }
    json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn outcome() -> Outcome {
        Outcome {
            diagnostics: vec![Diagnostic {
                rule: "KVS-L010",
                path: "crates/net/src/x.rs".to_string(),
                line: 12,
                message: "unbounded channel".to_string(),
            }],
            baselined: vec![Diagnostic {
                rule: "KVS-L007",
                path: "crates/net/src/y.rs".to_string(),
                line: 3,
                message: "frozen lock-across-write".to_string(),
            }],
            waived: Vec::new(),
            waiver_hits: Vec::new(),
            files_scanned: 2,
        }
    }

    #[test]
    fn report_has_the_sarif_2_1_0_shape() {
        let doc = parse(&render(&outcome())).expect("SARIF output must be valid JSON");
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        assert!(doc
            .get("$schema")
            .and_then(Value::as_str)
            .is_some_and(|s| s.contains("sarif-2.1.0")));
        let runs = doc.get("runs").and_then(Value::as_arr).expect("runs array");
        assert_eq!(runs.len(), 1);
        let driver = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .expect("driver");
        assert_eq!(driver.get("name").and_then(Value::as_str), Some("kvs-lint"));
        let rules = driver.get("rules").and_then(Value::as_arr).expect("rules");
        assert_eq!(rules.len(), RULES.len());
        for r in rules {
            assert!(r.get("id").and_then(Value::as_str).is_some());
            assert!(r
                .get("shortDescription")
                .and_then(|d| d.get("text"))
                .and_then(Value::as_str)
                .is_some());
        }
        let results = runs[0]
            .get("results")
            .and_then(Value::as_arr)
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("level").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(
            results[1].get("level").and_then(Value::as_str),
            Some("warning")
        );
        let loc = results[0]
            .get("locations")
            .and_then(Value::as_arr)
            .expect("locations");
        let phys = loc[0].get("physicalLocation").expect("physicalLocation");
        assert_eq!(
            phys.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Value::as_str),
            Some("crates/net/src/x.rs")
        );
        assert_eq!(
            phys.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Value::as_num),
            Some(12.0)
        );
    }

    #[test]
    fn witness_chain_becomes_a_code_flow() {
        let mut oc = outcome();
        oc.diagnostics.push(Diagnostic {
            rule: "KVS-L014",
            path: "crates/net/src/pool.rs".to_string(),
            line: 295,
            message: "non-blocking zone `classify` can reach blocking `sleep`: \
                      crates/net/src/pool.rs:295 → crates/net/src/pool.rs:296"
                .to_string(),
        });
        let doc = parse(&render(&oc)).unwrap();
        let results = doc.get("runs").and_then(Value::as_arr).unwrap()[0]
            .get("results")
            .and_then(Value::as_arr)
            .unwrap();
        let flowed = results
            .iter()
            .find(|r| r.get("ruleId").and_then(Value::as_str) == Some("KVS-L014"))
            .expect("L014 result present");
        let steps = flowed
            .get("codeFlows")
            .and_then(Value::as_arr)
            .expect("codeFlows")[0]
            .get("threadFlows")
            .and_then(Value::as_arr)
            .expect("threadFlows")[0]
            .get("locations")
            .and_then(Value::as_arr)
            .expect("thread flow locations");
        assert_eq!(steps.len(), 2);
        let lines: Vec<f64> = steps
            .iter()
            .map(|s| {
                s.get("location")
                    .and_then(|l| l.get("physicalLocation"))
                    .and_then(|p| p.get("region"))
                    .and_then(|r| r.get("startLine"))
                    .and_then(Value::as_num)
                    .expect("startLine")
            })
            .collect();
        assert_eq!(lines, vec![295.0, 296.0]);
        // Plain-prose findings must not grow a codeFlows section.
        let plain = results
            .iter()
            .find(|r| r.get("ruleId").and_then(Value::as_str) == Some("KVS-L010"))
            .unwrap();
        assert!(plain.get("codeFlows").is_none());
    }

    #[test]
    fn every_result_rule_id_is_declared() {
        let doc = parse(&render(&outcome())).unwrap();
        let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
        let declared: Vec<&str> = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(|r| r.get("id").and_then(Value::as_str))
            .collect();
        for res in runs[0].get("results").and_then(Value::as_arr).unwrap() {
            let id = res.get("ruleId").and_then(Value::as_str).unwrap();
            assert!(declared.contains(&id), "undeclared ruleId {id}");
        }
    }
}
