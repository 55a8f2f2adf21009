//! The workspace lints itself: running the real engine with the
//! checked-in `lint.toml` over the real crates must come back clean —
//! zero unwaived findings, zero stale waivers, zero stale config
//! entries. This is the same gate `ci.sh` runs via the binary; keeping
//! it in `cargo test` means a violation fails the tier-1 suite too.

use std::path::Path;

use ftcg_lint::engine::lint_root;
use ftcg_lint::LintConfig;

#[test]
fn workspace_lints_clean_with_checked_in_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let src =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at the workspace root");
    let cfg = LintConfig::parse(&src).expect("checked-in lint.toml parses");
    let report = lint_root(&root, &cfg).expect("workspace scan succeeds");
    assert!(
        report.clean(),
        "workspace must lint clean.\nfindings: {:#?}\nstale waivers: {:#?}\n\
         stale config: {:#?}",
        report.findings,
        report.stale_waivers,
        report.stale_config
    );
    // Sanity: the scan actually covered the workspace and the baseline
    // is live — every waiver pins at least one finding (the baseline
    // only ever shrinks, so the floor is the waiver count itself).
    assert!(
        report.files_scanned >= 100,
        "scan covered only {} files — scope regression?",
        report.files_scanned
    );
    assert!(
        report.waived >= cfg.waivers.len(),
        "only {} waived findings for {} waivers — baseline not applied?",
        report.waived,
        cfg.waivers.len()
    );
}

#[test]
fn every_waiver_names_a_known_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let src =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at the workspace root");
    let cfg = LintConfig::parse(&src).expect("checked-in lint.toml parses");
    let known: Vec<&str> = ftcg_lint::rules::RULES.iter().map(|(id, _)| *id).collect();
    for w in &cfg.waivers {
        assert!(
            known.contains(&w.rule.as_str()),
            "waiver for unknown rule `{}` ({}) — typo in lint.toml?",
            w.rule,
            w.file
        );
    }
}
