//! Path-scoped lint policy.
//!
//! Each lint is enforced only on the paths where its contract actually
//! holds: `wall-clock` polices result-affecting serving code but not the
//! benchmark harness (whose whole job is reading the wall clock), and
//! `lock-discipline` knows the serving stack's declared lock order.
//!
//! The policy lives in `noble-lint.toml` at the repo root. Only the
//! subset of TOML the policy needs is parsed (hand-rolled — the
//! container is offline): `[section]` headers, `key = "string"` and
//! `key = ["a", "b"]` entries, `#` comments. A missing file falls back
//! to [`Policy::default_policy`], which encodes the same scopes.

use std::collections::BTreeMap;
use std::path::Path;

/// Per-lint scope: which repo-relative path prefixes it runs on.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Path prefixes the lint is enforced under.
    pub include: Vec<String>,
    /// Path prefixes carved back out of `include`.
    pub exclude: Vec<String>,
}

impl Scope {
    /// Whether `path` (repo-relative, `/`-separated) is in scope.
    pub fn covers(&self, path: &str) -> bool {
        let included = self.include.iter().any(|p| path.starts_with(p.as_str()));
        let excluded = self.exclude.iter().any(|p| path.starts_with(p.as_str()));
        included && !excluded
    }
}

/// The full policy: per-lint scopes plus shared contract knobs.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Scope per lint name; a lint absent from the map runs nowhere.
    pub scopes: BTreeMap<String, Scope>,
    /// Declared lock-acquisition order (first = outermost). A guard for
    /// a later name must never be held while acquiring an earlier one.
    pub lock_order: Vec<String>,
}

impl Policy {
    /// Scope for `lint`, empty (covers nothing) when unconfigured.
    pub fn scope(&self, lint: &str) -> Scope {
        self.scopes.get(lint).cloned().unwrap_or_default()
    }

    /// The repo's checked-in policy, used when `noble-lint.toml` is
    /// missing. Kept in sync with that file by the `policy_parses`
    /// fixture test.
    pub fn default_policy() -> Policy {
        let mut scopes = BTreeMap::new();
        let serve_core = vec!["crates/serve/src".into(), "crates/core/src".into()];
        scopes.insert(
            "wall-clock".into(),
            Scope {
                include: {
                    let mut v = serve_core.clone();
                    v.push("crates/geo/src".into());
                    v.push("crates/net/src".into());
                    v
                },
                exclude: Vec::new(),
            },
        );
        scopes.insert(
            "unordered-iteration".into(),
            Scope {
                include: vec![
                    "crates/serve/src".into(),
                    "crates/core/src".into(),
                    "crates/geo/src".into(),
                    "crates/nn/src".into(),
                    "crates/linalg/src".into(),
                    "crates/manifold/src".into(),
                    "crates/quantize/src".into(),
                    "crates/datasets/src".into(),
                    "crates/bench/src".into(),
                    "crates/net/src".into(),
                ],
                exclude: Vec::new(),
            },
        );
        scopes.insert(
            "panic-path".into(),
            Scope {
                include: {
                    let mut v = serve_core.clone();
                    v.push("crates/net/src".into());
                    v
                },
                exclude: Vec::new(),
            },
        );
        scopes.insert(
            "lock-discipline".into(),
            Scope {
                include: vec!["crates/serve/src".into(), "crates/net/src".into()],
                exclude: Vec::new(),
            },
        );
        scopes.insert(
            "float-determinism".into(),
            Scope {
                include: vec![
                    "crates/linalg/src".into(),
                    "crates/core/src".into(),
                    "crates/nn/src".into(),
                    "crates/quantize/src".into(),
                ],
                exclude: Vec::new(),
            },
        );
        Policy {
            scopes,
            lock_order: vec![
                "buffers".into(),
                "slots".into(),
                "state".into(),
                "shards".into(),
                "stats".into(),
            ],
        }
    }

    /// A policy that runs every registered lint on every path — what the
    /// fixture suite uses, so fixtures need no path gymnastics.
    pub fn everywhere(lints: &[&'static str]) -> Policy {
        let mut policy = Policy::default_policy();
        policy.scopes = lints
            .iter()
            .map(|&name| {
                (
                    name.to_string(),
                    Scope {
                        include: vec![String::new()],
                        exclude: Vec::new(),
                    },
                )
            })
            .collect();
        policy
    }

    /// Loads `noble-lint.toml` from `root`, falling back to the default
    /// policy when absent.
    ///
    /// # Errors
    ///
    /// A string diagnostic when the file exists but fails to parse.
    pub fn load(root: &Path) -> Result<Policy, String> {
        let path = root.join("noble-lint.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => parse(&text),
            Err(_) => Ok(Policy::default_policy()),
        }
    }
}

/// Parses the policy mini-TOML (see the module docs for the subset).
pub fn parse(text: &str) -> Result<Policy, String> {
    let mut policy = Policy {
        scopes: BTreeMap::new(),
        lock_order: Vec::new(),
    };
    let mut section = String::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        let lineno = i + 1;
        i += 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            policy.scopes.entry(section.clone()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("noble-lint.toml:{lineno}: expected `key = value`"));
        };
        let key = key.trim();
        // Multi-line arrays: keep consuming lines until the closing `]`.
        let mut value = value.trim().to_string();
        while value.starts_with('[') && !value.ends_with(']') {
            let Some(cont) = lines.get(i) else {
                return Err(format!("noble-lint.toml:{lineno}: unterminated array"));
            };
            i += 1;
            let cont = cont.trim();
            if !cont.starts_with('#') {
                value.push_str(cont);
            }
        }
        let values = parse_value(&value).map_err(|e| format!("noble-lint.toml:{lineno}: {e}"))?;
        match (section.as_str(), key) {
            ("", _) => {
                return Err(format!(
                    "noble-lint.toml:{lineno}: `{key}` outside any [lint] section"
                ))
            }
            ("lock-discipline", "order") => policy.lock_order = values,
            (_, "include") => {
                policy.scopes.entry(section.clone()).or_default().include = values;
            }
            (_, "exclude") => {
                policy.scopes.entry(section.clone()).or_default().exclude = values;
            }
            (_, other) => {
                return Err(format!(
                    "noble-lint.toml:{lineno}: unknown key `{other}` in [{section}]"
                ))
            }
        }
    }
    Ok(policy)
}

/// Parses `"a"` or `["a", "b"]` into a string list.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut out = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.push(unquote(part)?);
        }
        return Ok(out);
    }
    Ok(vec![unquote(value)?])
}

fn unquote(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.to_string())
        .ok_or_else(|| format!("expected a quoted string, found `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_order() {
        let policy = parse(
            "# comment\n\
             [wall-clock]\n\
             include = [\"crates/serve/src\", \"crates/core/src\"]\n\
             exclude = [\"crates/serve/src/bench.rs\"]\n\
             [lock-discipline]\n\
             include = [\"crates/serve/src\"]\n\
             order = [\"slots\", \"paged\"]\n",
        )
        .unwrap();
        let scope = policy.scope("wall-clock");
        assert!(scope.covers("crates/serve/src/server.rs"));
        assert!(!scope.covers("crates/serve/src/bench.rs"));
        assert!(!scope.covers("crates/bench/src/lib.rs"));
        assert_eq!(policy.lock_order, vec!["slots", "paged"]);
    }

    #[test]
    fn parses_multi_line_arrays() {
        let policy = parse(
            "[panic-path]\n\
             include = [\n\
                 \"crates/serve/src\",\n\
                 # carve-outs would go here\n\
                 \"crates/core/src\",\n\
             ]\n",
        )
        .unwrap();
        assert!(policy.scope("panic-path").covers("crates/core/src/lib.rs"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("include = [\"a\"]\n").is_err());
        assert!(parse("[x]\ninclude = unquoted\n").is_err());
        assert!(parse("[x]\nmystery = \"a\"\n").is_err());
    }

    #[test]
    fn unconfigured_lint_covers_nothing() {
        let policy = parse("[wall-clock]\ninclude = [\"src\"]\n").unwrap();
        assert!(!policy.scope("panic-path").covers("src/lib.rs"));
    }
}
