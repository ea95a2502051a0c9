//! The waiver file: `lint.waivers.toml` at the workspace root.
//!
//! A waiver suppresses exactly one class of diagnostic at one site, and it
//! must say *why*. The parser is a strict TOML subset (same philosophy as
//! the chaos-schedule parser): unknown keys, duplicate keys, missing
//! required keys and empty justifications are all hard errors — a waiver
//! file that doesn't mean what it says is worse than no waiver file.
//!
//! ```toml
//! [[waiver]]
//! rule = "KVS-L010"
//! path = "crates/net/src/master.rs"
//! contains = "unbounded::<Event>()"
//! justification = "event volume is bounded by the request window"
//! owner = "net"
//! ```
//!
//! `contains` is matched against the raw text of the diagnosed line; the
//! waiver applies only when rule, path and line content all match. A
//! waiver that matches nothing is *stale* and reported as `KVS-L000`:
//! waivers must not outlive the code they excuse.

use crate::rules::Diagnostic;

/// One parsed `[[waiver]]` entry.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule ID being waived (`KVS-L001` … `KVS-L016`).
    pub rule: String,
    /// Workspace-relative path the waiver applies to.
    pub path: String,
    /// Substring the diagnosed line must contain.
    pub contains: String,
    /// Why the violation is acceptable — the invariant that makes it safe.
    pub justification: String,
    /// Who stands behind the justification.
    pub owner: String,
    /// Line in the waiver file where this entry starts (for staleness
    /// reports).
    pub line: usize,
}

/// Parses the waiver file. Errors carry the offending line number.
pub fn parse(text: &str) -> Result<Vec<Waiver>, (usize, String)> {
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut current: Option<(usize, Vec<(String, String)>)> = None;

    let finish = |entry: Option<(usize, Vec<(String, String)>)>,
                  waivers: &mut Vec<Waiver>|
     -> Result<(), (usize, String)> {
        let Some((start, fields)) = entry else {
            return Ok(());
        };
        let get = |key: &str| -> Result<String, (usize, String)> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| (start, format!("waiver is missing required key `{key}`")))
        };
        let rule = get("rule")?;
        let valid_rule = crate::rules::RULES.iter().any(|(id, _)| *id == rule);
        if !valid_rule {
            return Err((start, format!("unknown rule ID `{rule}`")));
        }
        let justification = get("justification")?;
        if justification.trim().len() < 10 {
            return Err((
                start,
                "justification must actually justify (>= 10 characters)".to_string(),
            ));
        }
        let owner = get("owner")?;
        if owner.trim().is_empty() {
            return Err((start, "owner must not be empty".to_string()));
        }
        waivers.push(Waiver {
            rule,
            path: get("path")?,
            contains: get("contains")?,
            justification,
            owner,
            line: start,
        });
        Ok(())
    };

    for (ix, raw) in text.lines().enumerate() {
        let n = ix + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[waiver]]" {
            finish(current.take(), &mut waivers)?;
            current = Some((n, Vec::new()));
            continue;
        }
        if line.starts_with('[') {
            return Err((n, format!("unknown section `{line}` (only [[waiver]])")));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err((n, format!("expected `key = \"value\"`, got `{line}`")));
        };
        let key = key.trim();
        if !matches!(
            key,
            "rule" | "path" | "contains" | "justification" | "owner"
        ) {
            return Err((n, format!("unknown key `{key}`")));
        }
        let Some((_, fields)) = current.as_mut() else {
            return Err((n, format!("`{key}` outside a [[waiver]] section")));
        };
        if fields.iter().any(|(k, _)| k == key) {
            return Err((n, format!("duplicate key `{key}`")));
        }
        let value = parse_string(value.trim()).map_err(|e| (n, e))?;
        fields.push((key.to_string(), value));
    }
    finish(current.take(), &mut waivers)?;
    Ok(waivers)
}

/// Parses a double-quoted TOML basic string with `\"`, `\\`, `\n`, `\t`
/// escapes. Trailing `#` comments after the closing quote are allowed.
fn parse_string(tok: &str) -> Result<String, String> {
    let Some(rest) = tok.strip_prefix('"') else {
        return Err(format!("expected a quoted string, got `{tok}`"));
    };
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some('"') => break,
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("unsupported escape `\\{:?}`", other)),
            },
            Some(c) => out.push(c),
        }
    }
    let tail: String = chars.collect();
    let tail = tail.trim();
    if !tail.is_empty() && !tail.starts_with('#') {
        return Err(format!("unexpected trailing content `{tail}`"));
    }
    Ok(out)
}

/// Result of applying the waiver file to a diagnostic set.
pub struct Applied {
    /// Diagnostics no waiver matched, plus a `KVS-L000` per stale waiver.
    pub failing: Vec<Diagnostic>,
    /// Suppressed diagnostics with the justification that excused them.
    pub waived: Vec<(Diagnostic, String)>,
    /// How many diagnostics each waiver suppressed, parallel to the
    /// input slice (0 ⇒ that waiver is stale). Feeds `kvs-lint waivers`.
    pub hits: Vec<usize>,
}

/// Splits diagnostics into (still-failing, waived) and appends a
/// `KVS-L000` diagnostic for every stale waiver. `raw_line` resolves
/// `(path, line)` to the raw source text the waiver's `contains` is
/// matched against.
pub fn apply(
    diagnostics: Vec<Diagnostic>,
    waivers: &[Waiver],
    waiver_file: &str,
    raw_line: impl Fn(&str, usize) -> Option<String>,
) -> Applied {
    let mut hits = vec![0usize; waivers.len()];
    let mut failing = Vec::new();
    let mut waived = Vec::new();
    for d in diagnostics {
        let hit = waivers.iter().position(|w| {
            w.rule == d.rule
                && w.path == d.path
                && raw_line(&d.path, d.line).is_some_and(|raw| raw.contains(&w.contains))
        });
        match hit {
            Some(ix) => {
                hits[ix] += 1;
                waived.push((d, waivers[ix].justification.clone()));
            }
            None => failing.push(d),
        }
    }
    for (ix, w) in waivers.iter().enumerate() {
        if hits[ix] == 0 {
            failing.push(Diagnostic {
                rule: "KVS-L000",
                path: waiver_file.to_string(),
                line: w.line,
                message: format!(
                    "stale waiver: no {} diagnostic in `{}` matches `{}` — the code it \
                     excused is gone, delete the waiver",
                    w.rule, w.path, w.contains
                ),
            });
        }
    }
    Applied {
        failing,
        waived,
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# fleet-wide waivers
[[waiver]]
rule = "KVS-L010"
path = "crates/net/src/master.rs"
contains = "unbounded::<Event>()"
justification = "event volume is bounded by the request window"
owner = "net"
"#;

    #[test]
    fn parses_a_valid_waiver() {
        let ws = parse(GOOD).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, "KVS-L010");
        assert_eq!(ws[0].contains, "unbounded::<Event>()");
    }

    #[test]
    fn rejects_unknown_keys_duplicates_and_missing_fields() {
        assert!(parse("[[waiver]]\nrule = \"KVS-L010\"\nwhatever = \"x\"\n").is_err());
        let dup = "[[waiver]]\nrule = \"KVS-L010\"\nrule = \"KVS-L007\"\n";
        assert!(parse(dup).is_err());
        let missing = "[[waiver]]\nrule = \"KVS-L010\"\npath = \"x\"\ncontains = \"y\"\n";
        assert!(parse(missing).is_err());
    }

    #[test]
    fn rejects_empty_justifications_and_unknown_rules() {
        let lazy = "[[waiver]]\nrule = \"KVS-L010\"\npath = \"x\"\ncontains = \"y\"\n\
                    justification = \"ok\"\nowner = \"me\"\n";
        assert!(parse(lazy).is_err());
        let bogus = "[[waiver]]\nrule = \"KVS-L999\"\npath = \"x\"\ncontains = \"y\"\n\
                     justification = \"long enough reason\"\nowner = \"me\"\n";
        assert!(parse(bogus).is_err());
    }

    #[test]
    fn stale_waivers_become_l000() {
        let ws = parse(GOOD).unwrap();
        let applied = apply(Vec::new(), &ws, "lint.waivers.toml", |_, _| None);
        assert!(applied.waived.is_empty());
        assert_eq!(applied.failing.len(), 1);
        assert_eq!(applied.failing[0].rule, "KVS-L000");
        assert_eq!(applied.hits, vec![0]);
    }

    #[test]
    fn matching_waiver_suppresses_and_counts_hits() {
        let ws = parse(GOOD).unwrap();
        let d = Diagnostic {
            rule: "KVS-L010",
            path: "crates/net/src/master.rs".to_string(),
            line: 7,
            message: "m".to_string(),
        };
        let applied = apply(vec![d], &ws, "w.toml", |_, _| {
            Some("let (tx, rx) = unbounded::<Event>();".to_string())
        });
        assert!(applied.failing.is_empty());
        assert_eq!(applied.waived.len(), 1);
        assert_eq!(applied.hits, vec![1]);
    }
}
