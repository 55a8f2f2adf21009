//! The rule engine: six token-level passes, each backstopping one of
//! the workspace's load-bearing *dynamic* gates with a *static* check.
//!
//! Contract provenance — which repo guarantee each rule enforces and
//! which existing test/gate it complements:
//!
//! | Rule | Contract | Dynamic backstop it complements |
//! |------|----------|---------------------------------|
//! | `DET-WALLCLOCK` | Traces/journals/artifacts are byte-deterministic and never derived from wall clocks (PRs 5–7). Wall-clock reads are confined to the explicitly non-deterministic metrics sidecar, the CLI (progress line, bench-entry dates), and the cost measurement harness. | `crates/engine/tests/journal.rs`, `crates/engine/tests/telemetry_trace.rs` (byte-identical across threads × shards × resume) |
//! | `DET-HASH-ITER` | Artifact-producing modules never iterate a `HashMap`/`HashSet` (iteration order is randomized per process); ordering comes from `BTreeMap` or explicit sorts. | same determinism suites; `crates/obs/tests/observatory.rs` |
//! | `ALLOC-HOTPATH` | The steady-state solve path performs zero heap allocation (PR 4); hot-path modules may allocate only in cold setup/finish code, each site pinned by a waiver. | `crates/solvers/tests/alloc_gate.rs` (counting allocator, release mode) |
//! | `PANIC-LIB` | Library code outside `#[cfg(test)]` does not `unwrap`/`expect`/`panic!` casually: error paths are typed, surviving sites document an invariant and carry a waiver. | `catch_unwind` job isolation in `crates/engine/src/campaign.rs` (a panic poisons one job, but should never be the designed error path) |
//! | `UNSAFE-AUDIT` | Every `unsafe` block carries a `// SAFETY:` comment *and* its file is on the audited allowlist; crates with no unsafe at all say so via `#![forbid(unsafe_code)]`. | `#![forbid(unsafe_code)]` on all workspace crates (today the allowlist is empty) |
//! | `CAST-NARROW` | `as`-casts to sub-64-bit integers (silent truncation) are confined to audited sites. | `parse_count`-style checked narrowing from the PR 5 spec audit |
//!
//! Passes see only lexed tokens: comments and string contents can
//! never trigger a rule, and `#[cfg(test)]`/`#[test]` items are
//! suppressed wholesale.

pub mod alloc;
pub mod cast;
pub mod det;
pub mod panic_lib;
pub mod unsafe_audit;

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::{Comment, Tok, Token};
use crate::tree::{is_suppressed, LineRange};

/// Everything a rule pass may inspect about one file.
pub struct FileCtx<'a> {
    /// Repo-relative path with `/` separators.
    pub path: &'a str,
    pub tokens: &'a [Token],
    pub comments: &'a [Comment],
    /// Raw source lines (for snippets / waiver needles).
    pub lines: &'a [&'a str],
    /// Test-gated line ranges; findings inside them are dropped.
    pub suppressed: &'a [LineRange],
}

impl<'a> FileCtx<'a> {
    /// The trimmed source text of a 1-indexed line.
    pub fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Like [`FileCtx::snippet`], but while the accumulated text ends in an
    /// opening delimiter (a multi-line macro/method call), appends up to
    /// three continuation lines so the call's message text is visible to
    /// waiver needles.
    pub fn snippet_wide(&self, line: usize) -> String {
        let mut s = self.snippet(line);
        let mut next = line + 1;
        while s.ends_with(['(', '{', '[', ',']) && next <= line + 3 {
            let cont = self.snippet(next);
            if cont.is_empty() {
                break;
            }
            s.push(' ');
            s.push_str(&cont);
            next += 1;
        }
        s
    }

    /// False inside `#[cfg(test)]` / `#[test]` items.
    pub fn active(&self, line: usize) -> bool {
        !is_suppressed(self.suppressed, line)
    }

    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn punct(&self, i: usize) -> Option<char> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    /// Builds a diagnostic anchored at token `i`.
    pub fn diag(&self, rule: &'static str, i: usize, message: String) -> Diagnostic {
        let line = self.tokens.get(i).map(|t| t.line).unwrap_or(0);
        Diagnostic {
            rule,
            file: self.path.to_string(),
            line,
            message,
            snippet: self.snippet_wide(line),
        }
    }
}

/// Runs every rule pass over one file.
pub fn run_all(ctx: &FileCtx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    det::check_wallclock(ctx, cfg, out);
    det::check_hash_iter(ctx, cfg, out);
    alloc::check(ctx, cfg, out);
    panic_lib::check(ctx, cfg, out);
    unsafe_audit::check(ctx, cfg, out);
    cast::check(ctx, cfg, out);
}

/// All rule IDs with one-line summaries, for `--list-rules`.
pub const RULES: &[(&str, &str)] = &[
    (
        "DET-WALLCLOCK",
        "no Instant::now/SystemTime outside allow-listed timing modules (trace byte-determinism, PRs 5-7)",
    ),
    (
        "DET-HASH-ITER",
        "no HashMap/HashSet in deterministic artifact modules; use BTreeMap or sort (PRs 5-7)",
    ),
    (
        "ALLOC-HOTPATH",
        "no heap allocation in hot-path modules; static complement of alloc_gate.rs (PR 4)",
    ),
    (
        "PANIC-LIB",
        "no unwrap/expect/panic! in library code outside #[cfg(test)]; type the error or waive a documented invariant",
    ),
    (
        "UNSAFE-AUDIT",
        "every unsafe block needs a // SAFETY: comment and an allowlist entry",
    ),
    (
        "CAST-NARROW",
        "no as-casts to sub-64-bit integers outside audited waived sites",
    ),
];
