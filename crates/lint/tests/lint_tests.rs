//! Integration tests: fixture files exercise every rule end to end, and a
//! regression test pins the real workspace at zero findings.

use fase_lint::report::Finding;
use fase_lint::rules::RuleSet;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    fase_lint::lint_source(name, &source, RuleSet::all())
}

fn rules_fired(findings: &[Finding]) -> BTreeSet<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn determinism_fixture_fires_every_d_rule() {
    let findings = fixture("determinism.rs");
    let rules = rules_fired(&findings);
    assert_eq!(
        rules,
        ["D-time", "D-hash", "D-env", "D-thread"]
            .into_iter()
            .collect(),
        "{findings:#?}"
    );
    // `Instant::now()` in the body, not just the `use`, is flagged.
    assert!(lines_of(&findings, "D-time").contains(&7), "{findings:#?}");
}

#[test]
fn panic_freedom_fixture_fires_every_p_rule_and_exempts_tests() {
    let findings = fixture("panic_freedom.rs");
    let rules = rules_fired(&findings);
    assert_eq!(
        rules,
        ["P-unwrap", "P-expect", "P-panic", "P-index"]
            .into_iter()
            .collect(),
        "{findings:#?}"
    );
    // `fine_variants` (line 26+) and the test module produce nothing.
    assert!(
        findings.iter().all(|f| f.line < 26),
        "sanctioned shapes or test code were flagged: {findings:#?}"
    );
}

#[test]
fn units_fixture_fires_both_u_rules() {
    let findings = fixture("units.rs");
    let rules = rules_fired(&findings);
    assert_eq!(
        rules,
        ["U-cast", "U-nan"].into_iter().collect(),
        "{findings:#?}"
    );
    assert_eq!(lines_of(&findings, "U-cast"), vec![5, 9], "{findings:#?}");
    assert_eq!(
        lines_of(&findings, "U-nan"),
        vec![13, 17, 21],
        "{findings:#?}"
    );
}

#[test]
fn structural_fixture_flags_docs_and_construction_not_patterns() {
    let findings = fixture("structural.rs");
    assert_eq!(
        lines_of(&findings, "S-errdoc"),
        vec![9],
        "only the undocumented fallible fn: {findings:#?}"
    );
    assert_eq!(
        lines_of(&findings, "S-errctor"),
        vec![20],
        "only the construction inside documented_fallible: {findings:#?}"
    );
}

#[test]
fn pragma_fixture_waives_and_reports_hygiene() {
    let findings = fixture("pragmas.rs");
    // Justified waivers suppress everything on lines 5 and 10, and the
    // group-letter waiver covers D-thread on line 19.
    for line in [5, 10, 19] {
        assert!(
            findings.iter().all(|f| f.line != line),
            "line {line} should be waived: {findings:#?}"
        );
    }
    // The unjustified waiver suppresses nothing and is itself a finding.
    assert!(
        lines_of(&findings, "P-unwrap").contains(&14),
        "{findings:#?}"
    );
    assert!(
        lines_of(&findings, "L-pragma").contains(&14),
        "{findings:#?}"
    );
    // Stale and unknown-rule pragmas are findings.
    assert!(
        lines_of(&findings, "L-pragma").contains(&23),
        "{findings:#?}"
    );
    assert!(
        lines_of(&findings, "L-pragma").contains(&28),
        "{findings:#?}"
    );
    // The obs-clock-style D-time waiver (line 34) suppresses the
    // monotonic-clock finding without disarming the rule elsewhere
    // (line 38).
    assert!(
        findings.iter().all(|f| f.line != 34),
        "justified D-time waiver should suppress: {findings:#?}"
    );
    assert!(
        lines_of(&findings, "D-time").contains(&38),
        "unwaived Instant must still fire: {findings:#?}"
    );
}

#[test]
fn locks_fixture_flags_only_discarded_guards() {
    let findings = fixture("locks.rs");
    assert_eq!(
        rules_fired(&findings),
        ["S-lock"].into_iter().collect(),
        "{findings:#?}"
    );
    assert_eq!(
        lines_of(&findings, "S-lock"),
        vec![7, 8, 9],
        "{findings:#?}"
    );
}

#[test]
fn locks_fixture_scopes_an_initializer_guard_to_its_statement() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/locks.rs");
    let source = std::fs::read_to_string(&path).expect("locks fixture");
    let fns = fase_lint::parse::parse(&fase_lint::lexer::lex(&source), &[]);
    let find = |name: &str| fns.iter().find(|f| f.name == name).unwrap();
    // `let first = lock(m).first().copied();` binds a value: its guard
    // is gone before the next `lock(m)`.
    let locks = &find("temporary_in_initializer").locks;
    assert_eq!(locks.len(), 3, "{locks:#?}");
    for pair in locks.windows(2) {
        assert!(pair[0].guard.is_none(), "{locks:#?}");
        assert!(pair[0].scope_end < pair[1].tok, "{locks:#?}");
    }
    // A lock call plus its unwrapping adapter still binds the guard.
    let scoped = &find("scoped").locks[0];
    assert_eq!(scoped.guard.as_deref(), Some("guard"));
}

#[test]
fn clean_fixture_is_silent() {
    let findings = fixture("clean.rs");
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

#[test]
fn json_report_is_well_formed() {
    let findings = fixture("units.rs");
    let json = fase_lint::report::to_json(&findings);
    assert!(json.contains("\"version\": 1"), "{json}");
    assert!(json.contains("\"U-cast\""), "{json}");
    assert!(json.contains("units.rs"), "{json}");
    assert!(json.trim_end().ends_with('}'), "{json}");
}

/// Lints a mini-workspace under `tests/fixtures/<name>/` with every pass
/// (per-file rules, graphs, taint, pragmas).
fn fixture_ws(name: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fase_lint::lint_workspace(&root)
        .unwrap_or_else(|e| panic!("cannot walk fixture {}: {e}", root.display()))
}

fn rule_sites(findings: &[Finding], rule: &str) -> Vec<(String, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

#[test]
fn two_lock_cycle_fixture_reports_one_cycle() {
    let findings = fixture_ws("ws_lock2");
    assert_eq!(
        rule_sites(&findings, "C-lockorder"),
        vec![("crates/serve/src/lib.rs".to_owned(), 13)],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0].message.contains("serve::alpha -> serve::beta"),
        "{findings:#?}"
    );
}

#[test]
fn three_lock_cycle_fixture_closes_through_a_call() {
    let findings = fixture_ws("ws_lock3");
    assert_eq!(
        rule_sites(&findings, "C-lockorder"),
        vec![("crates/serve/src/lib.rs".to_owned(), 14)],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0]
            .message
            .contains("serve::alpha -> serve::beta -> serve::gamma"),
        "{findings:#?}"
    );
}

#[test]
fn lock_held_fixture_flags_recv_but_not_condvar() {
    let findings = fixture_ws("ws_lockheld");
    assert_eq!(
        rule_sites(&findings, "C-lockheld"),
        vec![("crates/serve/src/lib.rs".to_owned(), 9)],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0].message.contains("`queue`") && findings[0].message.contains("recv"),
        "{findings:#?}"
    );
}

#[test]
fn taint_fixture_flags_lineage_entropy_and_merge_order() {
    let findings = fixture_ws("ws_taint");
    // Unseeded ctor (line 11) and fresh entropy (line 23) in specan; the
    // seed-derived ctor stays silent.
    assert_eq!(
        rule_sites(&findings, "D-taint"),
        vec![
            ("crates/serve/src/lib.rs".to_owned(), 5),
            ("crates/serve/src/lib.rs".to_owned(), 9),
            ("crates/serve/src/lib.rs".to_owned(), 15),
            ("crates/specan/src/lib.rs".to_owned(), 11),
            ("crates/specan/src/lib.rs".to_owned(), 23),
        ],
        "{findings:#?}"
    );
    // The non-total comparator in `fuse_scores` is called out by name;
    // the `total_cmp` variant right below it stays silent.
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("partial_cmp") && f.message.contains("fuse_scores")),
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 5, "{findings:#?}");
}

#[test]
fn cancel_fixture_flags_uncancellable_capture_loop() {
    let findings = fixture_ws("ws_cancel");
    assert_eq!(
        rule_sites(&findings, "C-cancel"),
        vec![("crates/specan/src/lib.rs".to_owned(), 12)],
        "{findings:#?}"
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn cancel_fixture_pragma_lands_in_the_waiver_ledger() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_cancel");
    let report = fase_lint::analyze_workspace(&root).unwrap();
    assert_eq!(report.waivers.get("C-cancel"), Some(&1), "{report:#?}");
}

/// Two runs over the same tree must produce byte-identical graph JSON —
/// the property the CI artifact and the content-addressed consumers rely
/// on.
#[test]
fn graph_json_is_byte_identical_across_runs() {
    let root = workspace_root();
    let first = fase_lint::graph_json(&root).unwrap();
    let second = fase_lint::graph_json(&root).unwrap();
    assert_eq!(first, second);
    assert!(first.contains("\"version\": 1"), "{first}");
    assert!(first.contains("\"lock_edges\""), "{first}");
}

/// The workspace itself must stay clean: every violation is either fixed
/// or carries a justified pragma. This is the regression core of the PR —
/// new violations anywhere in the tree fail this test before CI even runs
/// the binary.
#[test]
fn real_workspace_has_zero_findings() {
    let root = workspace_root();
    let findings = fase_lint::lint_workspace(&root)
        .unwrap_or_else(|e| panic!("cannot walk {}: {e}", root.display()));
    assert!(
        findings.is_empty(),
        "workspace violations:\n{}",
        findings
            .iter()
            .map(Finding::human)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}
