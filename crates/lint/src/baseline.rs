//! The finding baseline: `lint.baseline.json` at the workspace root.
//!
//! The baseline is the *ratchet* half of the lint story. A waiver
//! (`lint.waivers.toml`) is a justified, permanent exception; the
//! baseline is an **unjustified, frozen debt list**: findings that
//! existed when a rule landed and are tolerated until someone pays them
//! down. The contract:
//!
//! * findings matching a baseline entry are demoted to *baselined* —
//!   reported (SARIF level `warning`) but not failing;
//! * any finding **not** in the baseline fails CI — the debt can never
//!   grow;
//! * any baseline entry matching **no** finding is *stale* and fails CI
//!   as `KVS-L000` — the debt can only shrink, and `--update` re-freezes
//!   the file so the ratchet clicks.
//!
//! Matching is a multiset: each entry covers at most one finding (rule +
//! path + optional raw-line substring, like waivers), so two identical
//! debts need two entries and fixing one of them trips the stale check.
//! The file is plain committed JSON so the diff *is* the review.

use crate::json::{self, Value};
use crate::rules::Diagnostic;

/// Name of the baseline file, resolved relative to the workspace root.
pub const BASELINE_FILE: &str = "lint.baseline.json";

/// One frozen finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule ID of the frozen finding.
    pub rule: String,
    /// Workspace-relative path it occurs in.
    pub path: String,
    /// Substring of the diagnosed raw line; empty matches any line.
    pub contains: String,
}

/// Parses `lint.baseline.json`.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let doc = json::parse(text)?;
    let version = doc
        .get("version")
        .and_then(Value::as_num)
        .ok_or("baseline missing numeric `version`")?;
    if version != 1.0 {
        return Err(format!("unsupported baseline version {version}"));
    }
    let findings = doc
        .get("findings")
        .and_then(Value::as_arr)
        .ok_or("baseline missing `findings` array")?;
    let mut out = Vec::with_capacity(findings.len());
    for (i, f) in findings.iter().enumerate() {
        let field = |key: &str| -> Result<String, String> {
            f.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline finding #{i} missing string `{key}`"))
        };
        let rule = field("rule")?;
        if !crate::rules::RULES.iter().any(|(id, _)| *id == rule) {
            return Err(format!("baseline finding #{i}: unknown rule ID `{rule}`"));
        }
        out.push(Entry {
            rule,
            path: field("path")?,
            // `contains` is optional: an entry may pin rule + path only.
            contains: f
                .get("contains")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        });
    }
    Ok(out)
}

/// Serializes entries back to the committed file format.
pub fn render(entries: &[Entry]) -> String {
    json::obj(vec![
        ("version", Value::Num(1.0)),
        (
            "findings",
            Value::Arr(
                entries
                    .iter()
                    .map(|e| {
                        json::obj(vec![
                            ("rule", json::s(&e.rule)),
                            ("path", json::s(&e.path)),
                            ("contains", json::s(&e.contains)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty()
}

/// Builds the entries that would freeze `failing` as the new baseline.
/// `raw_line` supplies the diagnosed line so the entry stays anchored
/// when surrounding lines move.
pub fn freeze(
    failing: &[Diagnostic],
    raw_line: impl Fn(&str, usize) -> Option<String>,
) -> Vec<Entry> {
    failing
        .iter()
        .map(|d| Entry {
            rule: d.rule.to_string(),
            path: d.path.clone(),
            contains: raw_line(&d.path, d.line)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        })
        .collect()
}

/// Splits post-waiver failing findings into (still-failing, baselined)
/// and appends a `KVS-L000` for every stale entry. Multiset semantics:
/// each entry covers at most one finding.
///
/// `waived` carries the findings the waiver pass already absorbed. An
/// entry that matches no failing finding but *does* match a waived one
/// is counted as used rather than stale: the debt still exists in the
/// tree — a waiver merely outranks the baseline for the same site — so
/// flagging the entry as paid-down would be a lie, and deleting it
/// would let the finding fail the moment the waiver is retired.
pub fn apply(
    failing: Vec<Diagnostic>,
    waived: &[Diagnostic],
    entries: &[Entry],
    baseline_file: &str,
    raw_line: impl Fn(&str, usize) -> Option<String>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let mut used = vec![false; entries.len()];
    let mut still = Vec::new();
    let mut baselined = Vec::new();
    let matches = |used: &[bool], d: &Diagnostic| {
        entries.iter().enumerate().position(|(ix, e)| {
            !used[ix]
                && e.rule == d.rule
                && e.path == d.path
                && (e.contains.is_empty()
                    || raw_line(&d.path, d.line).is_some_and(|raw| raw.contains(&e.contains)))
        })
    };
    for d in failing {
        match matches(&used, &d) {
            Some(ix) => {
                used[ix] = true;
                baselined.push(d);
            }
            None => still.push(d),
        }
    }
    // Waived findings consume entries without demoting anything: the
    // waiver already handled the finding, the baseline entry just must
    // not read as stale while the site it froze is still in the tree.
    for d in waived {
        if let Some(ix) = matches(&used, d) {
            used[ix] = true;
        }
    }
    for (ix, e) in entries.iter().enumerate() {
        if !used[ix] {
            still.push(Diagnostic {
                rule: "KVS-L000",
                path: baseline_file.to_string(),
                line: 1,
                message: format!(
                    "stale baseline entry: no {} finding in `{}` matches `{}` — the debt was \
                     paid down, run `kvs-lint baseline --update` to re-freeze",
                    e.rule, e.path, e.contains
                ),
            });
        }
    }
    (still, baselined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, path: &str, line: usize) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    #[test]
    fn parse_and_render_round_trip() {
        let entries = vec![Entry {
            rule: "KVS-L010".to_string(),
            path: "crates/net/src/x.rs".to_string(),
            contains: "let (tx, rx)".to_string(),
        }];
        let text = render(&entries);
        assert_eq!(parse(&text).unwrap(), entries);
        assert!(parse("{\"version\": 2, \"findings\": []}").is_err());
        assert!(parse("{\"version\": 1}").is_err());
        assert!(
            parse("{\"version\": 1, \"findings\": [{\"rule\": \"NOPE\", \"path\": \"x\"}]}")
                .is_err()
        );
    }

    #[test]
    fn matching_entry_demotes_and_multiset_counts() {
        let entries = vec![Entry {
            rule: "KVS-L010".to_string(),
            path: "a.rs".to_string(),
            contains: String::new(),
        }];
        // Two identical findings, one entry: one demoted, one still fails.
        let (still, base) = apply(
            vec![diag("KVS-L010", "a.rs", 3), diag("KVS-L010", "a.rs", 9)],
            &[],
            &entries,
            BASELINE_FILE,
            |_, _| Some("x.unwrap()".to_string()),
        );
        assert_eq!(base.len(), 1);
        assert_eq!(still.len(), 1);
        assert_eq!(still[0].rule, "KVS-L010");
    }

    #[test]
    fn stale_entry_fails_as_l000() {
        let entries = vec![Entry {
            rule: "KVS-L010".to_string(),
            path: "gone.rs".to_string(),
            contains: "x.unwrap()".to_string(),
        }];
        let (still, base) = apply(Vec::new(), &[], &entries, BASELINE_FILE, |_, _| None);
        assert!(base.is_empty());
        assert_eq!(still.len(), 1);
        assert_eq!(still[0].rule, "KVS-L000");
        assert_eq!(still[0].path, BASELINE_FILE);
    }

    #[test]
    fn entry_covered_by_a_waived_finding_is_not_stale() {
        let entries = vec![Entry {
            rule: "KVS-L010".to_string(),
            path: "a.rs".to_string(),
            contains: "x.unwrap()".to_string(),
        }];
        // The finding was absorbed by a waiver, so nothing is failing —
        // but the site is still in the tree, so the entry is not stale.
        let waived = vec![diag("KVS-L010", "a.rs", 3)];
        let (still, base) = apply(Vec::new(), &waived, &entries, BASELINE_FILE, |_, _| {
            Some("x.unwrap()".to_string())
        });
        assert!(base.is_empty());
        assert!(still.is_empty(), "waived coverage must suppress KVS-L000");
        // A waived finding never demotes: failing diagnostics that miss
        // every remaining entry still fail.
        let (still, base) = apply(
            vec![diag("KVS-L010", "b.rs", 1)],
            &waived,
            &entries,
            BASELINE_FILE,
            |_, _| Some("x.unwrap()".to_string()),
        );
        assert!(base.is_empty());
        assert_eq!(still.len(), 1);
        assert_eq!(still[0].path, "b.rs");
    }
}
