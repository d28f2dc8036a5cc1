//! Phase 2 of the workspace analyzer: graph rules over the symbol table.
//!
//! * **W007 `lock_order`** — derive the partial order of lock
//!   acquisitions: an edge `A → B` means some execution point holds `A`
//!   while acquiring `B`, either directly or through a call whose callee
//!   (transitively) acquires `B`. Any cycle in that graph is two code
//!   paths that can deadlock each other; the rule reports the cycle with
//!   one witness site per edge.
//! * **W009 `transitive_panic`** — any path from a `pub` entry point of
//!   a serving crate to a panic site in a callee. Clippy's panic denies
//!   cover only the serving crates' own code; this closes the gap for
//!   panics that live two or three calls down, typically in the
//!   deterministic geometry crates the serving path leans on.
//!
//! Call edges resolve by callee name against the symbol table with a
//! precision ladder (see [`resolve`]): `Type::name(…)` resolves by impl
//! owner, bare names on the std-alike stoplist (`new`, `get`, `iter`, …)
//! never resolve, and an ambiguous bare name prefers same-crate
//! candidates before going workspace-wide — over-approximate in the
//! right direction for both rules, with the pragma escape hatch for the
//! rare false positive.

use crate::diag::{Rule, Violation};
use crate::pragma::PragmaSet;
use crate::symbols::{CallSite, FnSym, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Callee names that are overwhelmingly std/container methods: resolving
/// them by bare name would wire half the workspace to the other half.
/// Workspace functions sharing one of these names are reached only from
/// within their own analysis (their bodies are still scanned directly).
const STOPLIST: &[&str] = &[
    "abs",
    "add",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_sub",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "dedup_by_key",
    "default",
    "drain",
    "drop",
    "entry",
    "enumerate",
    "eq",
    "exp",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "for_each",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "lock",
    "log10",
    "map",
    "map_err",
    "map_or",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "mul_add",
    "new",
    "next",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "partition_point",
    "pop",
    "position",
    "powf",
    "powi",
    "push",
    "push_back",
    "push_str",
    "read",
    "remove",
    "resize",
    "retain",
    "rev",
    "round",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "sqrt",
    "sum",
    "take",
    "then",
    "then_some",
    "then_with",
    "to_owned",
    "to_string",
    "to_vec",
    "total_cmp",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "wrapping_add",
    "wrapping_sub",
    "write",
    "zip",
];

/// Resolves a call site to candidate function indices.
///
/// Precision ladder:
/// 1. A `Type::name(…)` call resolves against impl owners — to exactly
///    the workspace functions implemented on `Type`, or to nothing when
///    `Type` is foreign (std, a dependency). Qualified calls beat the
///    stoplist: the qualifier already disambiguates.
/// 2. An unqualified stoplisted name never resolves.
/// 3. Otherwise, candidates in the caller's own crate win; only a name
///    with no same-crate candidate resolves workspace-wide. This is what
///    keeps `.inc()` in `core` from wiring the call graph through every
///    `inc` in the tree.
pub fn resolve(table: &SymbolTable, caller: &FnSym, call: &CallSite) -> Vec<usize> {
    let Some(candidates) = table.by_name.get(&call.callee) else {
        return Vec::new();
    };
    if !call.quals.is_empty() {
        let owned: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&j| {
                table.fns[j]
                    .owner
                    .as_ref()
                    .is_some_and(|o| call.quals.contains(o))
            })
            .collect();
        // Same-named types in two crates: the caller's crate wins.
        let local: Vec<usize> = owned
            .iter()
            .copied()
            .filter(|&j| table.fns[j].krate == caller.krate)
            .collect();
        return if local.is_empty() { owned } else { local };
    }
    if STOPLIST.binary_search(&call.callee.as_str()).is_ok() {
        return Vec::new();
    }
    let same_crate: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&j| table.fns[j].krate == caller.krate)
        .collect();
    if same_crate.is_empty() {
        candidates.clone()
    } else {
        same_crate
    }
}

/// The set of lock classes each function may acquire, directly or
/// transitively — a fixpoint over the call graph.
fn transitive_acquires(table: &SymbolTable) -> Vec<BTreeSet<String>> {
    let mut acq: Vec<BTreeSet<String>> = table
        .fns
        .iter()
        .map(|f| f.acquires.iter().map(|a| a.class.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..table.fns.len() {
            let mut gained: Vec<String> = Vec::new();
            for call in &table.fns[i].calls {
                for j in resolve(table, &table.fns[i], call) {
                    for class in &acq[j] {
                        if !acq[i].contains(class) {
                            gained.push(class.clone());
                        }
                    }
                }
            }
            if !gained.is_empty() {
                acq[i].extend(gained);
                changed = true;
            }
        }
        if !changed {
            return acq;
        }
    }
}

/// One lock-order edge with its witness site.
#[derive(Debug, Clone)]
struct LockEdge {
    held: String,
    acquired: String,
    file: String,
    line: usize,
    /// Witness description for the diagnostic.
    via: String,
}

pub fn w007_lock_order(table: &SymbolTable, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    let acq = transitive_acquires(table);

    // Edge set, first-witness-wins with deterministic iteration order.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let add = |edges: &mut BTreeMap<(String, String), LockEdge>, e: LockEdge| {
        let key = (e.held.clone(), e.acquired.clone());
        let replace = match edges.get(&key) {
            None => true,
            Some(old) => (e.file.as_str(), e.line) < (old.file.as_str(), old.line),
        };
        if replace {
            edges.insert(key, e);
        }
    };
    for f in &table.fns {
        for a in &f.acquires {
            for held in &a.held {
                add(
                    &mut edges,
                    LockEdge {
                        held: held.clone(),
                        acquired: a.class.clone(),
                        file: f.file.clone(),
                        line: a.line,
                        via: format!("`{}` acquires `{}`", f.name, a.class),
                    },
                );
            }
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            for j in resolve(table, f, call) {
                for class in &acq[j] {
                    for held in &call.held {
                        add(
                            &mut edges,
                            LockEdge {
                                held: held.clone(),
                                acquired: class.clone(),
                                file: f.file.clone(),
                                line: call.line,
                                via: format!(
                                    "`{}` calls `{}`, which acquires `{}`",
                                    f.name, call.callee, class
                                ),
                            },
                        );
                    }
                }
            }
        }
    }

    // Cycle detection over the class graph. Every cycle is reported once,
    // canonicalized by its lexicographically-smallest rotation.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let classes: BTreeSet<&String> = edges.keys().map(|(h, _)| h).collect();
    for &start in &classes {
        // BFS back to `start` over the edge relation.
        let mut queue: VecDeque<Vec<&String>> = VecDeque::new();
        queue.push_back(vec![start]);
        let mut visited: BTreeSet<&String> = BTreeSet::new();
        while let Some(path) = queue.pop_front() {
            let last = *path.last().unwrap_or(&start);
            for ((held, acquired), _) in edges.range((last.clone(), String::new())..) {
                if held != last {
                    break;
                }
                if acquired == start {
                    let mut cycle: Vec<String> = path.iter().map(|s| (*s).clone()).collect();
                    cycle.push(start.clone());
                    report_cycle(&cycle, &edges, pragmas, &mut reported, out);
                } else if !visited.contains(acquired) {
                    if let Some(next) = classes.get(acquired) {
                        visited.insert(next);
                        let mut p = path.clone();
                        p.push(next);
                        queue.push_back(p);
                    }
                }
            }
        }
    }
}

/// Reports one canonical cycle unless a pragma on any of its witness
/// lines suppresses it.
fn report_cycle(
    cycle: &[String],
    edges: &BTreeMap<(String, String), LockEdge>,
    pragmas: &mut PragmaSet,
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Violation>,
) {
    // `cycle` is [a, …, a]; canonical form rotates the body so the
    // smallest class leads.
    let body = &cycle[..cycle.len() - 1];
    let Some(min_pos) = body
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(i, _)| i)
    else {
        return;
    };
    let canon: Vec<String> = body[min_pos..]
        .iter()
        .chain(body[..min_pos].iter())
        .cloned()
        .collect();
    if !reported.insert(canon.clone()) {
        return;
    }
    // Collect the witness edge for each hop.
    let mut hops: Vec<&LockEdge> = Vec::new();
    for i in 0..canon.len() {
        let held = &canon[i];
        let acquired = &canon[(i + 1) % canon.len()];
        match edges.get(&(held.clone(), acquired.clone())) {
            Some(e) => hops.push(e),
            None => return,
        }
    }
    // A pragma on any witness line dissolves the cycle (and is thereby
    // used, in the W005 sense).
    for hop in &hops {
        if pragmas.allows(Rule::LockOrder, &hop.file, hop.line) {
            return;
        }
    }
    let order = canon
        .iter()
        .chain(canon.first())
        .map(|c| format!("`{c}`"))
        .collect::<Vec<_>>()
        .join(" → ");
    let witness = hops
        .iter()
        .map(|h| format!("{} ({}:{})", h.via, h.file, h.line))
        .collect::<Vec<_>>()
        .join("; ");
    let site = hops
        .iter()
        .min_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)))
        .map(|h| (h.file.clone(), h.line))
        .unwrap_or_default();
    out.push(
        Violation::new(
            Rule::LockOrder,
            &site.0,
            site.1,
            format!("lock-order cycle: {order} — {witness}"),
        )
        .with_note(
            "two paths acquire these locks in opposite order and can deadlock under load; \
             pick one global order (directory before shard, shard before ring), or add \
             `// lint: allow(lock_order) — <why the orders cannot interleave>` at a witness site",
        ),
    );
}

// ---------------------------------------------------------------------------
// W009: transitive panic paths
// ---------------------------------------------------------------------------

pub fn w009_transitive_panic(
    table: &SymbolTable,
    pragmas: &mut PragmaSet,
    out: &mut Vec<Violation>,
) {
    // Entry points: `pub fn` in serving-crate files.
    let entries: Vec<usize> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_pub && f.serving)
        .map(|(i, _)| i)
        .collect();

    // BFS from each entry, remembering the first (shortest, then
    // lexicographically stable) call path to every reachable function.
    // A panic site is reported once, with the first entry path found.
    struct Finding<'a> {
        entry: &'a FnSym,
        path: Vec<String>,
        what: String,
    }
    let mut findings: BTreeMap<(String, usize), Finding<'_>> = BTreeMap::new();
    for &e in &entries {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        queue.push_back(e);
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        seen.insert(e);
        while let Some(i) = queue.pop_front() {
            // Panic sites in callees only: the entry's own body is
            // clippy's jurisdiction (and the callee's file may not even
            // be in a serving crate).
            if i != e {
                for p in &table.fns[i].panics {
                    let key = (table.fns[i].file.clone(), p.line);
                    if findings.contains_key(&key) {
                        continue;
                    }
                    let mut path = vec![table.fns[i].name.clone()];
                    let mut cur = i;
                    while let Some(&prev) = parent.get(&cur) {
                        path.push(table.fns[prev].name.clone());
                        cur = prev;
                        if cur == e {
                            break;
                        }
                    }
                    path.reverse();
                    findings.insert(
                        key,
                        Finding {
                            entry: &table.fns[e],
                            path,
                            what: p.what.clone(),
                        },
                    );
                }
            }
            for call in &table.fns[i].calls {
                for j in resolve(table, &table.fns[i], call) {
                    if seen.insert(j) {
                        parent.insert(j, i);
                        queue.push_back(j);
                    }
                }
            }
        }
    }

    for ((file, line), finding) in findings {
        // Either slug suppresses at the site: a documented local panic
        // invariant (`panic_in_library`) covers its transitive callers.
        if pragmas.allows(Rule::TransitivePanic, &file, line)
            || pragmas.allows(Rule::PanicInLibrary, &file, line)
        {
            continue;
        }
        let chain = finding.path.join("` → `");
        out.push(
            Violation::new(
                Rule::TransitivePanic,
                &file,
                line,
                format!(
                    "`{}` here is reachable from pub serving entry point `{}` via `{chain}`",
                    finding.what, finding.entry.name
                ),
            )
            .with_note(
                "a panic below a serving entry point aborts the request (or poisons the shard lock); \
                 return an error up the chain, make the invariant explicit with \
                 `// lint: allow(transitive_panic) — <invariant>`, or restructure",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;
    use crate::rules::FileContext;
    use crate::symbols::SymbolTable;

    fn run_w007(src: &str) -> Vec<Violation> {
        let file = SourceFile::parse("crates/core/src/t.rs", src);
        let files = vec![(file, FileContext::all())];
        let table = SymbolTable::build(&files);
        let sources: Vec<&SourceFile> = files.iter().map(|(f, _)| f).collect();
        let mut pragmas = PragmaSet::collect(sources);
        let mut out = Vec::new();
        w007_lock_order(&table, &mut pragmas, &mut out);
        out
    }

    #[test]
    fn opposite_orders_cycle() {
        let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
    fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
    }
}
";
        let v = run_w007(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("lock-order cycle"));
        assert!(v[0].message.contains("core::a") && v[0].message.contains("core::b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
    fn ab2(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
    }
}
";
        assert!(run_w007(src).is_empty());
    }

    #[test]
    fn cycle_through_call_edge() {
        let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    fn outer(&self) {
        let ga = self.a.lock();
        self.takes_b_then_a();
    }
    fn takes_b_then_a(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
    }
}
";
        let v = run_w007(src);
        assert!(!v.is_empty(), "call-edge cycle not found");
    }

    fn run_w009(src: &str) -> Vec<Violation> {
        let file = SourceFile::parse("crates/core/src/t.rs", src);
        let files = vec![(file, FileContext::all())];
        let table = SymbolTable::build(&files);
        let sources: Vec<&SourceFile> = files.iter().map(|(f, _)| f).collect();
        let mut pragmas = PragmaSet::collect(sources);
        let mut out = Vec::new();
        w009_transitive_panic(&table, &mut pragmas, &mut out);
        out
    }

    #[test]
    fn panic_two_calls_down_is_found() {
        let src = "\
pub fn serve(x: u32) -> u32 { middle(x) }
fn middle(x: u32) -> u32 { deep(x) }
fn deep(x: u32) -> u32 { maybe(x).unwrap() }
";
        let v = run_w009(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("serve"));
        assert!(v[0].message.contains("deep"));
    }

    #[test]
    fn local_panic_is_w002_territory() {
        let src = "pub fn serve(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(run_w009(src).is_empty());
    }

    #[test]
    fn stoplisted_names_do_not_resolve() {
        let src = "\
pub fn serve(v: Vec<u32>) -> u32 { v.get(0).copied().unwrap_or(0) }
fn get(x: u32) -> u32 { panic!(\"not me\") }
";
        assert!(run_w009(src).is_empty());
    }
}
