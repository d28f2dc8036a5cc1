//! `wilocator-lint`: workspace static analysis for the WiLocator
//! reproduction.
//!
//! A zero-dependency, offline lint pass (lightweight lexer + line/scope
//! analyzer — deliberately no `syn`, per the vendored-shim constraint)
//! that machine-checks the invariants the serving system depends on and
//! that code review kept re-discovering per flake. Per-file rules run
//! on the blanked line stream; the graph rules run on a workspace-wide
//! symbol table + call graph ([`symbols`], [`callgraph`]) built from
//! the same stream:
//!
//! | rule | slug                | checks |
//! |------|---------------------|--------|
//! | W001 | `unordered_iter`    | no hash-ordered iteration feeding deterministic output |
//! | W002 | `panic_in_library`  | no literal slice index in serving-crate library code |
//! | W003 | `atomic_ordering`   | Relaxed-only metrics atomics; documented snapshot tearing |
//! | W005 | `pragma_hygiene`    | allow pragmas are real, reasoned, and used |
//! | W006 | `span_discipline`   | span-start guards are bound, never discarded or dropped inline |
//! | W007 | `lock_order`        | one global lock order, propagated through call edges; no cycles |
//! | W008 | `unit_dataflow`     | no mixed-unit arithmetic; suffix units flow through parameters |
//! | W009 | `transitive_panic`  | no panic sites reachable from pub serving-crate entry points |
//! | W010 | `raw_sync`          | sync-layer modules import locks/atomics via `crate::sync`, not `std::sync` |
//! | W011 | `metric_hygiene`    | metric families are snake_case with a unit or dimensionless suffix |
//! | W012 | `hot_path_effects`  | budget-annotated hot entry points stay within their denied-effect set |
//! | W013 | `read_path_purity`  | snapshot readers / serve handlers stay effect-free past the blessed read |
//!
//! The panicking calls (`unwrap`, `expect`, `panic!`, `todo!`,
//! `unimplemented!`) are denied by clippy at the serving crates' roots,
//! and the counter each `IngestOutcome`/`FixMethod` lands in is chosen by
//! an exhaustive `match` the compiler checks.
//!
//! W012/W013 run on phase 3 ([`effects`]): an interprocedural effect
//! inference over the lattice `{allocates, acquires_lock,
//! blocks_or_syscalls, reads_clock, panics, unbounded_iteration}`,
//! propagated to a fixpoint over the phase-2 call graph.
//!
//! Run it as `cargo run -p wilocator-lint -- --workspace`; it prints
//! rustc-style diagnostics and exits nonzero on any violation.
//! `--format sarif` emits SARIF 2.1.0; `--fix` (optionally with
//! `--dry-run`) applies conservative rewrites; `--timings` prints
//! per-phase/per-rule wall time to stderr. See DESIGN.md §8 for the
//! rule catalog and the pragma escape hatch.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod callgraph;
pub mod diag;
pub mod effects;
pub mod fix;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod sarif;
pub mod symbols;
pub mod units;

pub use diag::{FixEdit, FixKind, Rule, Violation, ALL_RULES};
pub use lexer::SourceFile;
pub use rules::FileContext;
pub use symbols::SymbolTable;

use pragma::PragmaSet;
use std::path::{Path, PathBuf};

/// Crates whose outputs must replay byte-identically (W001 scope).
pub const DETERMINISTIC_CRATES: [&str; 6] = ["svd", "core", "road", "geo", "baselines", "serve"];
/// Crates on the serving path that must not panic (W002 scope).
pub const SERVING_CRATES: [&str; 4] = ["core", "svd", "obs", "serve"];
/// The lock-free observability crate (W003 scope).
pub const OBSERVABILITY_CRATES: [&str; 1] = ["obs"];
/// Crates with no per-file rule scope of their own that still belong in
/// the workspace symbol table: their functions sit below serving entry
/// points, so W007/W009 must see their bodies.
pub const CALLGRAPH_CRATES: [&str; 1] = ["rf"];
/// Sync-layer modules (W010 scope): files whose synchronization
/// primitives the model checker virtualises under `--cfg
/// wilocator_check`. Matched by path suffix. Keep in step with the
/// `crate::sync` imports in `crates/core` / `crates/obs` and the model
/// suite in `crates/check/tests/model.rs`.
pub const SYNC_LAYER_FILES: [&str; 6] = [
    "crates/core/src/snapshot.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/server.rs",
    "crates/core/src/sync.rs",
    "crates/obs/src/counter.rs",
    "crates/obs/src/sync.rs",
];

/// The rule context for a workspace-relative path like
/// `crates/core/src/server.rs`.
pub fn context_for_path(path: &str) -> FileContext {
    let unixy = path.replace('\\', "/");
    let krate = unixy
        .split('/')
        .skip_while(|s| *s != "crates")
        .nth(1)
        .unwrap_or("");
    FileContext {
        deterministic: DETERMINISTIC_CRATES.contains(&krate),
        serving: SERVING_CRATES.contains(&krate),
        observability: OBSERVABILITY_CRATES.contains(&krate),
        synced: SYNC_LAYER_FILES.iter().any(|f| unixy.ends_with(f)),
    }
}

/// Wall-time of each lint phase and rule, collected by
/// [`analyze_timed`] and printed by the CLI's `--timings` flag.
#[derive(Debug, Default)]
pub struct Timings {
    /// `(phase-or-rule name, elapsed)`, in execution order.
    pub entries: Vec<(String, std::time::Duration)>,
}

impl Timings {
    pub fn add(&mut self, name: &str, d: std::time::Duration) {
        self.entries.push((name.to_string(), d));
    }

    /// Renders an aligned per-phase table with a trailing total.
    pub fn render(&self) -> String {
        let total: std::time::Duration = self.entries.iter().map(|(_, d)| *d).sum();
        let mut out = String::from("phase timings:\n");
        for (name, d) in &self.entries {
            out.push_str(&format!("  {name:<28} {:>9.3} ms\n", d.as_secs_f64() * 1e3));
        }
        out.push_str(&format!(
            "  {:<28} {:>9.3} ms",
            "total",
            total.as_secs_f64() * 1e3
        ));
        out
    }
}

fn timed<T>(timings: &mut Timings, name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let v = f();
    timings.add(name, t0.elapsed());
    v
}

/// Lints a set of lexed files, each under its own context, and returns
/// all violations, deduplicated and sorted by (file, line, rule,
/// message).
pub fn analyze(files: &[(SourceFile, FileContext)]) -> Vec<Violation> {
    analyze_timed(files).0
}

/// [`analyze`], also returning per-phase/per-rule wall time. Phase 1
/// runs rule-major (every file per rule, rather than every rule per
/// file) so the timings attribute cost to rules; rule output is
/// identical either way since per-file rules are independent and the
/// final sort normalizes order.
pub fn analyze_timed(files: &[(SourceFile, FileContext)]) -> (Vec<Violation>, Timings) {
    let mut t = Timings::default();
    let sources: Vec<&SourceFile> = files.iter().map(|(f, _)| f).collect();
    let mut pragmas = timed(&mut t, "pragma scan", || {
        PragmaSet::collect(sources.iter().copied())
    });
    let mut out = Vec::new();
    // Phase 1: per-file rules on the shared blanked line stream (each
    // file was lexed and tokenized exactly once, at parse time).
    timed(&mut t, "W001 unordered_iter", || {
        for (file, _) in files.iter().filter(|(_, c)| c.deterministic) {
            rules::w001_unordered_iter(file, &mut pragmas, &mut out);
        }
    });
    timed(&mut t, "W002 panic_in_library", || {
        for (file, _) in files.iter().filter(|(_, c)| c.serving) {
            rules::w002_panic_in_library(file, &mut pragmas, &mut out);
        }
    });
    timed(&mut t, "W006 span_discipline", || {
        for (file, _) in files.iter().filter(|(_, c)| c.serving) {
            rules::w006_span_discipline(file, &mut pragmas, &mut out);
        }
    });
    timed(&mut t, "W011 metric_hygiene", || {
        for (file, _) in files.iter().filter(|(_, c)| c.serving) {
            rules::w011_metric_hygiene(file, &mut pragmas, &mut out);
        }
    });
    timed(&mut t, "W003 atomic_ordering", || {
        for (file, _) in files.iter().filter(|(_, c)| c.observability) {
            rules::w003_atomic_ordering(file, &mut pragmas, &mut out);
        }
    });
    timed(&mut t, "W010 raw_sync", || {
        for (file, _) in files.iter().filter(|(_, c)| c.synced) {
            rules::w010_raw_sync(file, &mut pragmas, &mut out);
        }
    });
    // Phase 2: workspace symbol table and graph rules.
    let table = timed(&mut t, "symbol table", || {
        symbols::SymbolTable::build(files)
    });
    timed(&mut t, "W007 lock_order", || {
        callgraph::w007_lock_order(&table, &mut pragmas, &mut out);
    });
    timed(&mut t, "W008 unit_dataflow", || {
        units::w008_unit_dataflow(files, &table, &mut pragmas, &mut out);
    });
    timed(&mut t, "W009 transitive_panic", || {
        callgraph::w009_transitive_panic(&table, &mut pragmas, &mut out);
    });
    // Phase 3: interprocedural effect inference.
    timed(&mut t, "W012 hot_path_effects", || {
        effects::w012_hot_path(&sources, &table, &mut pragmas, &mut out);
    });
    timed(&mut t, "W013 read_path_purity", || {
        effects::w013_read_path(&table, &mut pragmas, &mut out);
    });
    // Hygiene last: it needs to know which pragmas the rules consumed.
    timed(&mut t, "W005 pragma_hygiene", || {
        out.extend(pragmas.hygiene_violations());
    });
    timed(&mut t, "fix attach + sort", || {
        fix::attach_fixes(files, &mut out);
        out.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
        out.dedup_by(|a, b| {
            a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
        });
    });
    (out, t)
}

/// Lints one file with every rule enabled — the fixture/self-test entry
/// point.
pub fn analyze_file_all_rules(path: &str, text: &str) -> Vec<Violation> {
    let file = SourceFile::parse(path, text);
    analyze(&[(file, FileContext::all())])
}

/// Walks the workspace at `root` and lints every in-scope crate source
/// file (crate `src/` trees only; integration tests, benches and
/// examples are exercised code, not serving code).
pub fn run_workspace(root: &Path) -> Vec<Violation> {
    run_workspace_timed(root).0
}

/// [`run_workspace`], also returning phase timings (the first entry is
/// the read + lex + tokenize pass over all files).
pub fn run_workspace_timed(root: &Path) -> (Vec<Violation>, Timings) {
    let t0 = std::time::Instant::now();
    let mut files = Vec::new();
    let mut crates: Vec<String> = DETERMINISTIC_CRATES
        .iter()
        .chain(SERVING_CRATES.iter())
        .chain(OBSERVABILITY_CRATES.iter())
        .chain(CALLGRAPH_CRATES.iter())
        .map(|s| s.to_string())
        .collect();
    crates.sort();
    crates.dedup();
    for krate in crates {
        let src = root.join("crates").join(&krate).join("src");
        let mut paths = Vec::new();
        collect_rs(&src, &mut paths);
        paths.sort();
        for p in paths {
            let text = match std::fs::read_to_string(&p) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let ctx = context_for_path(&rel);
            files.push((SourceFile::parse(rel, &text), ctx));
        }
    }
    let lex = t0.elapsed();
    let (out, mut timings) = analyze_timed(&files);
    timings
        .entries
        .insert(0, ("read + lex + tokenize".to_string(), lex));
    (out, timings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_scopes_rules_by_crate() {
        let core = context_for_path("crates/core/src/server.rs");
        assert!(core.deterministic && core.serving && !core.observability && core.synced);
        let obs = context_for_path("crates/obs/src/counter.rs");
        assert!(!obs.deterministic && obs.serving && obs.observability && obs.synced);
        let sim = context_for_path("crates/sim/src/lib.rs");
        assert!(!sim.deterministic && !sim.serving && !sim.observability && !sim.synced);
        let predict = context_for_path("crates/core/src/predict.rs");
        assert!(!predict.synced, "predict.rs is not a sync-layer module");
    }

    #[test]
    fn violations_sort_stably() {
        let src = "fn f(m: std::collections::HashMap<u32, u32>) -> u32 {\n    let mut t = 0.0;\n    for v in m.values() { t += *v as f64; }\n    t[0]\n}\n";
        let v = analyze_file_all_rules("fixture.rs", src);
        assert!(v.windows(2).all(|w| w[0].line <= w[1].line));
        assert!(v.iter().any(|v| v.rule == Rule::UnorderedIter));
        assert!(v.iter().any(|v| v.rule == Rule::PanicInLibrary));
    }
}
