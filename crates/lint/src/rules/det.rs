//! Determinism rules: `DET-WALLCLOCK` and `DET-HASH-ITER`.
//!
//! The repo's trace/journal/artifact bytes are pinned across
//! {threads × shards × kill/resume}; the two classic ways to break
//! that silently are reading a wall clock and iterating a randomized
//! hash table. Both are cheap to detect at the token level.

use super::FileCtx;
use crate::config::{any_match, LintConfig};
use crate::diag::Diagnostic;

/// `DET-WALLCLOCK`: flags `Instant` / `SystemTime` identifiers in any
/// file not on the allow list (metrics sidecar, CLI, the cost
/// measurement harness). Flagging the type
/// name rather than just `::now()` also catches stored `Instant`
/// fields and `use std::time::Instant` imports that would make a
/// later `.elapsed()` invisible.
pub fn check_wallclock(ctx: &FileCtx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if any_match(&cfg.wallclock_allow, ctx.path) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(id) = ctx.ident(i) else { continue };
        if (id == "Instant" || id == "SystemTime") && ctx.active(ctx.tokens[i].line) {
            out.push(ctx.diag(
                "DET-WALLCLOCK",
                i,
                format!(
                    "wall-clock source `{id}` outside the allow-listed timing modules; \
                     traces, journals and artifacts must be byte-deterministic \
                     (add the file to rules.det-wallclock.allow only if its output \
                     is declared non-deterministic, like the metrics sidecar)"
                ),
            ));
        }
    }
}

/// `DET-HASH-ITER`: flags `HashMap` / `HashSet` identifiers inside
/// the configured deterministic artifact modules. Iteration order of
/// std hash tables is randomized per process, so any map that could
/// feed an artifact must be a `BTreeMap` or drain through an explicit
/// sort; lookup-only maps are pinned case by case in the waiver file.
pub fn check_hash_iter(ctx: &FileCtx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !any_match(&cfg.det_modules, ctx.path) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(id) = ctx.ident(i) else { continue };
        if (id == "HashMap" || id == "HashSet") && ctx.active(ctx.tokens[i].line) {
            out.push(ctx.diag(
                "DET-HASH-ITER",
                i,
                format!(
                    "`{id}` in a deterministic artifact module; its iteration order \
                     is randomized — use BTreeMap/BTreeSet or sort before emitting, \
                     or waive a provably lookup-only use"
                ),
            ));
        }
    }
}
