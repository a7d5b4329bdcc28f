//! Fixture proof that every lint is live.
//!
//! Each registered lint ships a `fixtures/<lint>/bad.rs` that must fire
//! and a `fixtures/<lint>/good.rs` that must stay silent — the good
//! fixture includes a suppressed-with-reason case, so the allow syntax
//! is exercised per lint too. The loop iterates the registry itself,
//! which doubles as the meta-test: adding a lint without a fixture pair
//! fails here (the fixture files simply don't exist).
//!
//! Two repo-level checks ride along: the real tree must be clean under
//! the checked-in policy (the same gate CI's `--check` runs), and
//! `noble-lint.toml` must stay in sync with `Policy::default_policy()`
//! so a missing config file can never silently weaken the gate.

use noble_lint::diagnostics::Severity;
use noble_lint::policy::Policy;
use noble_lint::source::SourceFile;
use noble_lint::{check_file, lints, run};
use std::path::{Path, PathBuf};

fn fixture_path(lint: &str, which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(lint)
        .join(which)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate dir is two levels below the repo root")
        .to_path_buf()
}

/// Runs exactly one lint over a fixture — the policy scopes only that
/// lint (everywhere), so fixtures never trip neighboring lints — and
/// returns (kept findings, suppression reasons).
fn run_single_lint(lint_name: &'static str, path: &Path) -> (Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let rel = format!(
        "fixtures/{lint_name}/{}",
        path.file_name().unwrap().to_string_lossy()
    );
    let file = SourceFile::parse(&rel, &text);
    let policy = Policy::everywhere(&[lint_name]);
    let registry = lints::registry();
    let names = lints::lint_names();
    let Some((kept, suppressed)) = check_file(&file, &policy, &registry, &names) else {
        return (Vec::new(), Vec::new());
    };
    (
        kept.iter()
            .map(|f| format!("{}:{} {}", f.line, f.lint, f.message))
            .collect(),
        suppressed.iter().map(|s| s.reason.clone()).collect(),
    )
}

#[test]
fn every_lint_fires_on_its_bad_fixture_and_not_on_its_good_one() {
    let registry = lints::registry();
    assert!(
        registry.len() >= 5,
        "expected the five contract lints, found {}",
        registry.len()
    );
    for lint in &registry {
        let name = lint.name();

        let (bad, bad_suppressed) = run_single_lint(name, &fixture_path(name, "bad.rs"));
        assert!(
            !bad.is_empty(),
            "lint `{name}` did not fire on its bad fixture — it is dead"
        );
        assert!(
            bad_suppressed.is_empty(),
            "bad fixture for `{name}` must not carry allows, got {bad_suppressed:?}"
        );

        let (good, good_suppressed) = run_single_lint(name, &fixture_path(name, "good.rs"));
        assert!(
            good.is_empty(),
            "lint `{name}` fired on its good fixture: {good:?}"
        );
        assert!(
            !good_suppressed.is_empty(),
            "good fixture for `{name}` must include a suppressed-with-reason case"
        );
        assert!(
            good_suppressed.iter().all(|r| !r.is_empty()),
            "every suppression in `{name}`'s good fixture must carry a reason"
        );
    }
}

#[test]
fn bad_fixture_findings_are_errors() {
    // `--check` gates on errors only, so a lint demoted to Warning
    // would pass the fixture-fires test above yet never fail CI.
    let registry = lints::registry();
    let names = lints::lint_names();
    for lint in &registry {
        let name = lint.name();
        let path = fixture_path(name, "bad.rs");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let file = SourceFile::parse(&format!("fixtures/{name}/bad.rs"), &text);
        let policy = Policy::everywhere(&[name]);
        let (kept, _) = check_file(&file, &policy, &registry, &names)
            .expect("bad fixture is in scope for its own lint");
        assert!(
            kept.iter().all(|f| f.severity == Severity::Error),
            "findings for `{name}` must be errors so --check fails on them"
        );
    }
}

#[test]
fn the_real_tree_is_clean_under_the_checked_in_policy() {
    let root = repo_root();
    let policy = Policy::load(&root).expect("noble-lint.toml parses");
    let report = run(&root, &policy).expect("repo walk succeeds");
    let errors: Vec<&str> = report
        .findings
        .iter()
        .filter(|r| r.finding.severity == Severity::Error)
        .map(|r| r.rendered.as_str())
        .collect();
    assert!(
        errors.is_empty(),
        "the repo must pass its own lint gate, found:\n{}",
        errors.join("\n")
    );
    assert!(
        report.suppressed.iter().all(|s| !s.reason.is_empty()),
        "every allow in the tree must carry a reason"
    );
    assert!(report.files_scanned > 100, "walk looks truncated");
}

#[test]
fn lowered_precision_modules_are_sanctioned_by_path_scope() {
    // The f32 kernels of the certified screen are carved out of
    // `float-determinism` as a *policy* decision — one scoped exclude
    // for their one module — rather than line allows scattered through
    // the narrowing code. Everything around that module, the screen
    // that calls it included, must stay covered.
    let policy = Policy::load(&repo_root()).expect("noble-lint.toml parses");
    let scope = policy.scope("float-determinism");
    for guarded in [
        "crates/linalg/src/gemm.rs",
        "crates/linalg/src/matrix.rs",
        "crates/nn/src/network.rs",
        "crates/nn/src/serialize.rs",
        "crates/nn/src/screen.rs",
        "crates/core/src/wifi/decode.rs",
    ] {
        assert!(scope.covers(guarded), "{guarded} must stay lint-guarded");
    }
    assert!(
        !scope.covers("crates/linalg/src/lowp.rs"),
        "lowp.rs is the f32 kernel module and must be excluded by path \
         scope, not by line allows"
    );
}

#[test]
fn checked_in_policy_matches_the_builtin_default() {
    // `Policy::load` falls back to `default_policy()` when the file is
    // missing; the two must agree or that fallback silently changes the
    // gate.
    let loaded = Policy::load(&repo_root()).expect("noble-lint.toml parses");
    assert_eq!(
        format!("{loaded:?}"),
        format!("{:?}", Policy::default_policy()),
        "noble-lint.toml drifted from Policy::default_policy()"
    );
}
