//! Phase 3: interprocedural effect inference and the hot-path budget
//! rules W012 (`hot_path_effects`) / W013 (`read_path_purity`).
//!
//! Every workspace function gets a conservative effect set over the
//! six-bit lattice
//!
//! ```text
//! { allocates, acquires_lock, blocks_or_syscalls,
//!   reads_clock, panics, unbounded_iteration }
//! ```
//!
//! ordered by set inclusion; join is bitwise OR, ⊥ is the empty set, ⊤
//! is all six bits. Sets are seeded syntactically per function body —
//! allocation calls (`Vec::new`, `push`, `collect`, `format!`,
//! `Box::new`, …), clock reads (`Instant::now`, `.now_us()`), blocking
//! syscalls (`thread::sleep`, `Condvar` waits, `TcpStream` I/O),
//! unbounded loop headers (`loop`, `while` without a bounded shape) —
//! with lock acquisitions and panic sites reused from the phase-2
//! tables ([`FnSym::acquires`], [`FnSym::panics`]), then propagated to
//! a fixpoint over the call graph: `effects(f) = seeds(f) ⊔
//! ⊔_{g ∈ callees(f)} effects(g)`. The lattice is finite and the
//! transfer function monotone, so the fixpoint exists, is unique, and
//! is independent of iteration order (see `tests/effects_props.rs`).
//!
//! Calls the resolver cannot pin to a workspace function contribute no
//! edge — their effects are covered by the *syntactic* seeds on the
//! call line itself (that is what keeps `v.push(x)` an allocation even
//! though `push` resolves nowhere). Two call shapes genuinely escape
//! that net and default to ⊤: calls through a `dyn Trait` receiver
//! (any impl could be behind the vtable) and calls of a caller
//! parameter (a caller-supplied closure such as the snapshot
//! `builder`). Both are pessimistic by design; a reasoned
//! `// lint: allow(...)` pragma at the call line is the escape hatch.
//!
//! **W012** — a function may declare itself a hot entry point with a
//! budget annotation on the line(s) above its signature:
//!
//! ```text
//! // lint: hot_path(deny: allocates, acquires_lock, reads_clock)
//! pub fn fast_fix(&mut self, ...) -> Fix {
//! ```
//!
//! Every function transitively reachable from the entry must fit the
//! budget. A violation is reported at the entry's signature with the
//! full call chain and a `file:line` witness of the offending site —
//! the same UX as W007's lock-cycle witnesses. A pragma either at the
//! witness line or at any call line along the chain dissolves it.
//!
//! **W013** — `QuerySnapshot` reader methods and the request handlers
//! in `crates/serve/src/service.rs` are implicit entries with a fixed
//! deny set `{acquires_lock, blocks_or_syscalls, unbounded_iteration}`:
//! the read path must never touch ingest locks, block, or loop
//! unboundedly. The documented carve-out — `SnapshotCell::read`'s
//! one-slot read-lock + `Arc` clone — is blessed as a leaf and not
//! descended into. `reads_clock` is deliberately absent from the deny
//! set: the serve layer's latency metering reads the mock-able service
//! clock on purpose.

use crate::callgraph::resolve;
use crate::diag::{Rule, Violation};
use crate::lexer::SourceFile;
use crate::pragma::PragmaSet;
use crate::symbols::{EffectSite, FnSym, SymbolTable};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Heap allocation (or growth) on the line.
pub const ALLOCATES: u8 = 1 << 0;
/// Takes a `Mutex`/`RwLock` (from the phase-2 acquire table).
pub const ACQUIRES_LOCK: u8 = 1 << 1;
/// Sleeps, waits on a condvar, joins a thread, or does socket/file I/O.
pub const BLOCKS_OR_SYSCALLS: u8 = 1 << 2;
/// Reads a wall/monotonic clock (`Instant::now`, clock-trait calls).
pub const READS_CLOCK: u8 = 1 << 3;
/// May panic (from the phase-1 panic table).
pub const PANICS: u8 = 1 << 4;
/// `loop { … }` or a `while` whose condition has no bounded shape.
pub const UNBOUNDED_ITERATION: u8 = 1 << 5;
/// ⊤: all six effects. Assigned to dynamic-dispatch and
/// caller-supplied-closure call sites.
pub const TOP: u8 = 0b11_1111;

/// Name ↔ bit table, in canonical display order.
pub const EFFECT_NAMES: [(&str, u8); 6] = [
    ("allocates", ALLOCATES),
    ("acquires_lock", ACQUIRES_LOCK),
    ("blocks_or_syscalls", BLOCKS_OR_SYSCALLS),
    ("reads_clock", READS_CLOCK),
    ("panics", PANICS),
    ("unbounded_iteration", UNBOUNDED_ITERATION),
];

/// Lattice join: bitwise OR, clamped to the six defined bits.
pub fn join(a: u8, b: u8) -> u8 {
    (a | b) & TOP
}

/// The bit for an effect name, if it names one.
pub fn effect_bit(name: &str) -> Option<u8> {
    EFFECT_NAMES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, b)| b)
}

/// Renders a mask as a comma-separated effect list (`∅` when empty).
pub fn describe(mask: u8) -> String {
    let names: Vec<&str> = EFFECT_NAMES
        .iter()
        .filter(|&&(_, b)| mask & b != 0)
        .map(|&(n, _)| n)
        .collect();
    if names.is_empty() {
        "∅".to_string()
    } else {
        names.join(", ")
    }
}

// ---------------------------------------------------------------------------
// Syntactic seeds
// ---------------------------------------------------------------------------

/// Allocation sources: constructors that take heap, growth methods on
/// collections, and the formatting/boxing macros. Method patterns
/// start with `.` so plain idents never match.
const ALLOC_PATTERNS: &[(&str, &str)] = &[
    ("Vec::new(", "Vec::new"),
    ("Vec::with_capacity(", "Vec::with_capacity"),
    ("vec![", "vec![...]"),
    ("Box::new(", "Box::new"),
    ("Arc::new(", "Arc::new"),
    ("Rc::new(", "Rc::new"),
    ("String::new(", "String::new"),
    ("String::from(", "String::from"),
    ("String::with_capacity(", "String::with_capacity"),
    ("format!(", "format!"),
    (".to_vec()", ".to_vec()"),
    (".to_string()", ".to_string()"),
    (".to_owned()", ".to_owned()"),
    (".collect()", ".collect()"),
    (".collect::<", ".collect()"),
    (".push(", ".push(..)"),
    (".push_str(", ".push_str(..)"),
    (".insert(", ".insert(..)"),
    (".extend(", ".extend(..)"),
    (".entry(", ".entry(..)"),
    (".resize(", ".resize(..)"),
    (".reserve(", ".reserve(..)"),
];

/// Clock reads: the std constructors plus the workspace `Clock` trait
/// surface (`now_us`/`now_s` are its only methods) and `.elapsed()`.
const CLOCK_PATTERNS: &[(&str, &str)] = &[
    ("Instant::now(", "Instant::now"),
    ("SystemTime::now(", "SystemTime::now"),
    (".now_us(", ".now_us()"),
    (".now_s(", ".now_s()"),
    (".elapsed(", ".elapsed()"),
];

/// Blocking / syscall sources: sleeps, condvar waits, thread joins,
/// channel receives, socket and file I/O.
const BLOCK_PATTERNS: &[(&str, &str)] = &[
    ("thread::sleep(", "thread::sleep"),
    (".wait(", "Condvar::wait"),
    (".wait_timeout(", "Condvar::wait_timeout"),
    (".join()", ".join()"),
    (".recv()", ".recv()"),
    (".recv_timeout(", ".recv_timeout(..)"),
    ("TcpStream::", "TcpStream"),
    ("TcpListener::", "TcpListener"),
    ("UdpSocket::", "UdpSocket"),
    ("File::open(", "File::open"),
    ("File::create(", "File::create"),
    ("std::fs::", "std::fs"),
    (".accept()", ".accept()"),
    (".read_to_string(", ".read_to_string(..)"),
    (".read_to_end(", ".read_to_end(..)"),
    (".read_exact(", ".read_exact(..)"),
    (".write_all(", ".write_all(..)"),
    (".flush()", ".flush()"),
];

/// Scans one blanked code line for effect seeds and appends them.
/// Called from the phase-1 body scan so the seeds ride the same pass
/// that already extracts calls, acquires, and panics.
pub fn seed_line(code: &str, lineno: usize, out: &mut Vec<EffectSite>) {
    for &(pat, what) in ALLOC_PATTERNS {
        if code.contains(pat) {
            out.push(EffectSite {
                mask: ALLOCATES,
                line: lineno,
                what: what.to_string(),
            });
        }
    }
    for &(pat, what) in CLOCK_PATTERNS {
        if code.contains(pat) {
            out.push(EffectSite {
                mask: READS_CLOCK,
                line: lineno,
                what: what.to_string(),
            });
        }
    }
    for &(pat, what) in BLOCK_PATTERNS {
        if code.contains(pat) {
            out.push(EffectSite {
                mask: BLOCKS_OR_SYSCALLS,
                line: lineno,
                what: what.to_string(),
            });
        }
    }
    if let Some(what) = unbounded_loop_header(code) {
        out.push(EffectSite {
            mask: UNBOUNDED_ITERATION,
            line: lineno,
            what,
        });
    }
}

/// `loop { … }` is always unbounded. A `while` is unbounded unless its
/// condition has a bounded-range shape: `while let …` (drains a finite
/// pattern/iterator) or a comparison-guarded counter (`while i < n`).
/// `for` loops are never flagged — their iterator is the bound.
fn unbounded_loop_header(code: &str) -> Option<String> {
    if has_keyword(code, "loop") {
        return Some("loop { .. }".to_string());
    }
    if let Some(pos) = keyword_pos(code, "while") {
        let cond = &code[pos + "while".len()..];
        let bounded = cond.trim_start().starts_with("let ")
            || [" < ", " <= ", " > ", " >= ", " != "]
                .iter()
                .any(|op| cond.contains(op));
        if !bounded {
            return Some("while { .. } without bounded shape".to_string());
        }
    }
    None
}

fn has_keyword(code: &str, kw: &str) -> bool {
    keyword_pos(code, kw).is_some()
}

/// Byte offset of `kw` as a standalone token, if present.
fn keyword_pos(code: &str, kw: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(kw) {
        let start = from + rel;
        let end = start + kw.len();
        let before_ok = start == 0 || !crate::lexer::is_ident_char(bytes[start - 1] as char);
        let after_ok = end >= bytes.len() || !crate::lexer::is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            return Some(start);
        }
        from = end;
    }
    None
}

// ---------------------------------------------------------------------------
// Fixpoint
// ---------------------------------------------------------------------------

/// A function's own (intraprocedural) effect mask: its syntactic seeds
/// plus the phase-2 lock/panic tables, plus ⊤ if it has a ⊤ call site.
pub fn local_effects(f: &FnSym) -> u8 {
    let mut m = 0;
    if !f.acquires.is_empty() {
        m |= ACQUIRES_LOCK;
    }
    if !f.panics.is_empty() {
        m |= PANICS;
    }
    for s in &f.effects {
        m |= s.mask;
    }
    if f.calls.iter().any(|c| is_top_call(f, c)) {
        m = TOP;
    }
    m
}

/// A call site the resolver cannot reason about: dynamic dispatch
/// through a `dyn Trait` field (the phase-1 field-type pass plants a
/// `dyn` sentinel qual) or a bare invocation of a caller parameter (a
/// caller-supplied closure). Both default to ⊤. Method calls that
/// merely share a parameter's name (`route.id()` with a param `id`)
/// are not closure invocations — `bare` gates those out.
pub fn is_top_call(caller: &FnSym, call: &crate::symbols::CallSite) -> bool {
    if call.quals.iter().any(|q| q == "dyn") {
        return true;
    }
    call.bare && !call.callee.is_empty() && caller.params.iter().any(|p| p == &call.callee)
}

/// Pure fixpoint over an adjacency list: `out[i] = local[i] ⊔
/// ⊔_{j ∈ edges[i]} out[j]`. Exposed standalone (no symbol table) so
/// the property tests can drive it with randomized graphs.
/// Out-of-range edge targets are ignored. Terminates because the
/// per-node mask only grows and is bounded by ⊤.
pub fn fixpoint(local: &[u8], edges: &[Vec<usize>]) -> Vec<u8> {
    let mut eff: Vec<u8> = local.iter().map(|&m| m & TOP).collect();
    loop {
        let mut changed = false;
        for i in 0..eff.len() {
            let mut m = eff[i];
            for &j in &edges[i] {
                if j < eff.len() {
                    m = join(m, eff[j]);
                }
            }
            if m != eff[i] {
                eff[i] = m;
                changed = true;
            }
        }
        if !changed {
            return eff;
        }
    }
}

/// Infers the transitive effect mask of every function in the table.
/// Indices align with `table.fns`.
pub fn infer(table: &SymbolTable) -> Vec<u8> {
    let local: Vec<u8> = table.fns.iter().map(local_effects).collect();
    let edges: Vec<Vec<usize>> = table
        .fns
        .iter()
        .map(|f| {
            let mut out: Vec<usize> = f.calls.iter().flat_map(|c| resolve(table, f, c)).collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    fixpoint(&local, &edges)
}

// ---------------------------------------------------------------------------
// Budget annotations
// ---------------------------------------------------------------------------

/// A parsed `// lint: hot_path(deny: …)` annotation bound to the
/// function signature it precedes.
struct Budget {
    file: String,
    /// Line of the annotation comment (1-based).
    line: usize,
    /// Denied-effect mask.
    deny: u8,
    /// Index of the annotated function in `table.fns`.
    fn_idx: usize,
}

const HOT_PATH_MARKER: &str = "lint: hot_path(";

/// Collects budget annotations from every file, emitting W012
/// diagnostics for malformed or dangling ones.
fn collect_budgets(
    files: &[&SourceFile],
    table: &SymbolTable,
    out: &mut Vec<Violation>,
) -> Vec<Budget> {
    // (file, sig_line) → fn index, for attaching annotations.
    let mut by_sig: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    for (i, f) in table.fns.iter().enumerate() {
        by_sig.insert((f.file.as_str(), f.sig_line), i);
    }

    let mut budgets = Vec::new();
    for file in files {
        for (idx, line) in file.lines.iter().enumerate() {
            let Some(pos) = line.comment.find(HOT_PATH_MARKER) else {
                continue;
            };
            let lineno = idx + 1;
            let body = &line.comment[pos + HOT_PATH_MARKER.len()..];
            let deny = match parse_deny(body) {
                Ok(mask) => mask,
                Err(why) => {
                    out.push(
                        Violation::new(
                            Rule::HotPathEffects,
                            &file.path,
                            lineno,
                            format!("malformed hot_path budget annotation: {why}"),
                        )
                        .with_note(format!(
                            "grammar: `// lint: hot_path(deny: <effect>[, <effect>]*)` \
                             where <effect> ∈ {{{}}}",
                            EFFECT_NAMES.map(|(n, _)| n).join(", ")
                        )),
                    );
                    continue;
                }
            };
            // Attach to the annotation's own line if it is a trailing
            // comment on the signature, else to the next code line.
            let target = if by_sig.contains_key(&(file.path.as_str(), lineno)) {
                Some(lineno)
            } else {
                file.lines[idx + 1..]
                    .iter()
                    .enumerate()
                    .map(|(k, l)| (lineno + 1 + k, l))
                    .find(|(_, l)| {
                        let t = l.code.trim();
                        !t.is_empty() && !t.starts_with("#[")
                    })
                    .map(|(n, _)| n)
            };
            match target.and_then(|n| by_sig.get(&(file.path.as_str(), n))) {
                Some(&fn_idx) => budgets.push(Budget {
                    file: file.path.clone(),
                    line: lineno,
                    deny,
                    fn_idx,
                }),
                None => out.push(
                    Violation::new(
                        Rule::HotPathEffects,
                        &file.path,
                        lineno,
                        "hot_path budget annotation attaches to no function \
                         signature"
                            .to_string(),
                    )
                    .with_note(
                        "place it on the line(s) directly above `fn …`, or as a \
                         trailing comment on the signature line",
                    ),
                ),
            }
        }
    }
    budgets
}

/// Parses `deny: a, b, c)` (the text after the marker) into a mask.
fn parse_deny(body: &str) -> Result<u8, String> {
    let Some(close) = body.find(')') else {
        return Err("missing closing `)`".to_string());
    };
    let inner = body[..close].trim();
    let Some(list) = inner.strip_prefix("deny:") else {
        return Err("expected `deny:` after `hot_path(`".to_string());
    };
    let mut mask = 0u8;
    let mut any = false;
    for name in list.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        any = true;
        match effect_bit(name) {
            Some(bit) => mask |= bit,
            None => return Err(format!("unknown effect `{name}`")),
        }
    }
    if !any {
        return Err("empty deny list".to_string());
    }
    Ok(mask)
}

// ---------------------------------------------------------------------------
// W012 / W013
// ---------------------------------------------------------------------------

/// One offending site inside a visited function.
struct Offense {
    line: usize,
    bit: u8,
    what: String,
}

/// All denied-effect sites of `f`, sorted by line then bit.
fn offenses(f: &FnSym, deny: u8) -> Vec<Offense> {
    let mut out = Vec::new();
    if deny & ACQUIRES_LOCK != 0 {
        for a in &f.acquires {
            out.push(Offense {
                line: a.line,
                bit: ACQUIRES_LOCK,
                what: format!("acquires lock `{}`", a.class),
            });
        }
    }
    if deny & PANICS != 0 {
        for p in &f.panics {
            out.push(Offense {
                line: p.line,
                bit: PANICS,
                what: format!("may panic: `{}`", p.what),
            });
        }
    }
    for s in &f.effects {
        if s.mask & deny != 0 {
            out.push(Offense {
                line: s.line,
                bit: s.mask & deny,
                what: format!("`{}`", s.what),
            });
        }
    }
    for c in f.calls.iter().filter(|c| is_top_call(f, c)) {
        if deny != 0 {
            out.push(Offense {
                line: c.line,
                bit: deny,
                what: format!(
                    "call of `{}` — dynamic dispatch or caller-supplied \
                     closure, assumed ⊤",
                    c.callee
                ),
            });
        }
    }
    out.sort_by_key(|o| (o.line, o.bit));
    out
}

/// Display name for diagnostics: `Owner::name` or bare `name`.
fn qual_name(f: &FnSym) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

/// BFS from `entry`, reporting the first witness per denied bit.
///
/// Pragma dissolution mirrors W007: an allow pragma for `rule` at the
/// offending site's line suppresses that site, and one at a call line
/// cuts the edge (everything reached only through it goes unreported).
/// Descent is pruned by the inferred masks — a callee whose transitive
/// set is disjoint from the deny mask cannot contain a witness.
#[allow(clippy::too_many_arguments)]
fn check_entry(
    table: &SymbolTable,
    inferred: &[u8],
    pragmas: &mut PragmaSet,
    rule: Rule,
    entry: usize,
    deny: u8,
    report_at: (&str, usize),
    blessed: &dyn Fn(&FnSym) -> bool,
    out: &mut Vec<Violation>,
) {
    let fns = &table.fns;
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut seen = vec![false; fns.len()];
    let mut queue = VecDeque::new();
    seen[entry] = true;
    queue.push_back(entry);
    // Bits already witnessed for this entry (one diagnostic per bit).
    let mut reported: u8 = 0;

    while let Some(i) = queue.pop_front() {
        let f = &fns[i];
        if i != entry && blessed(f) {
            continue;
        }
        for o in offenses(f, deny) {
            let fresh = o.bit & deny & !reported;
            if fresh == 0 {
                continue;
            }
            if pragmas.allows(rule, &f.file, o.line) {
                continue;
            }
            reported |= fresh;
            let mut chain = vec![qual_name(f)];
            let mut cur = i;
            while let Some(&p) = parent.get(&cur) {
                chain.push(qual_name(&fns[p]));
                cur = p;
            }
            chain.reverse();
            let effects_txt = describe(fresh);
            let msg = if i == entry {
                format!(
                    "hot path `{}` denies `{effects_txt}` but {} in its own body ({}:{})",
                    qual_name(f),
                    o.what,
                    f.file,
                    o.line,
                )
            } else {
                format!(
                    "hot path `{}` denies `{effects_txt}`, reached via `{}` — {} ({}:{})",
                    qual_name(&fns[entry]),
                    chain.join("` → `"),
                    o.what,
                    f.file,
                    o.line,
                )
            };
            out.push(
                Violation::new(rule, report_at.0, report_at.1, msg).with_note(format!(
                    "inferred effect set of `{}`: {{{}}}; refactor the effect \
                     off the hot path, or add `// lint: allow({}) — <reason>` \
                     at the witness or a call line on the chain",
                    qual_name(&fns[entry]),
                    describe(inferred[entry]),
                    rule.slug(),
                )),
            );
        }
        for c in &f.calls {
            if is_top_call(f, c) {
                continue; // already reported as an offense above
            }
            let targets = resolve(table, f, c);
            if targets.is_empty() {
                continue;
            }
            // An allow pragma at the call line cuts this edge.
            let mut edge_cut = None;
            for j in targets {
                if seen[j] || inferred[j] & deny == 0 {
                    continue;
                }
                if *edge_cut.get_or_insert_with(|| pragmas.allows(rule, &f.file, c.line)) {
                    continue;
                }
                seen[j] = true;
                parent.insert(j, i);
                queue.push_back(j);
            }
        }
    }
}

/// W012 `hot_path_effects`: every function reachable from a
/// budget-annotated entry point must fit the entry's deny mask.
pub fn w012_hot_path(
    files: &[&SourceFile],
    table: &SymbolTable,
    pragmas: &mut PragmaSet,
    out: &mut Vec<Violation>,
) {
    let budgets = collect_budgets(files, table, out);
    if budgets.is_empty() {
        return;
    }
    let inferred = infer(table);
    for b in &budgets {
        check_entry(
            table,
            &inferred,
            pragmas,
            Rule::HotPathEffects,
            b.fn_idx,
            b.deny,
            (&b.file, b.line),
            &|_| false,
            out,
        );
    }
}

/// W013's fixed deny mask: the read path must never take ingest locks,
/// block, or loop unboundedly. `reads_clock` is sanctioned (latency
/// metering), `allocates` is tolerated (handlers serialize JSON),
/// `panics` is clippy's and W009's beat.
pub const READ_PATH_DENY: u8 = ACQUIRES_LOCK | BLOCKS_OR_SYSCALLS | UNBOUNDED_ITERATION;

/// W013 `read_path_purity`: `QuerySnapshot` reader methods and the
/// `serve` request handlers must stay effect-free beyond the blessed
/// `SnapshotCell::read` leaf (the documented one-slot read-lock +
/// `Arc` clone).
pub fn w013_read_path(table: &SymbolTable, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    let blessed = |f: &FnSym| {
        f.owner.as_deref() == Some("SnapshotCell") && (f.name == "read" || f.name == "epoch")
    };
    let entries: Vec<usize> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.owner.as_deref() == Some("QuerySnapshot")
                || (f.file.ends_with("serve/src/service.rs") && f.is_pub)
        })
        .map(|(i, _)| i)
        .collect();
    if entries.is_empty() {
        return;
    }
    let inferred = infer(table);
    for &e in &entries {
        let f = &table.fns[e];
        check_entry(
            table,
            &inferred,
            pragmas,
            Rule::ReadPathPurity,
            e,
            READ_PATH_DENY,
            (&f.file.clone(), f.sig_line),
            &blessed,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_or() {
        assert_eq!(join(ALLOCATES, READS_CLOCK), ALLOCATES | READS_CLOCK);
        assert_eq!(join(TOP, PANICS), TOP);
        assert_eq!(join(0, 0), 0);
    }

    #[test]
    fn parse_deny_accepts_grammar() {
        assert_eq!(
            parse_deny("deny: allocates, reads_clock)"),
            Ok(ALLOCATES | READS_CLOCK)
        );
        assert!(parse_deny("deny: )").is_err());
        assert!(parse_deny("deny: warp_speed)").is_err());
        assert!(parse_deny("allow: allocates)").is_err());
        assert!(parse_deny("deny: allocates").is_err());
    }

    #[test]
    fn seeds_cover_the_sources() {
        let mut sites = Vec::new();
        seed_line("let v = Vec::new();", 1, &mut sites);
        seed_line("let t = clock.now_us();", 2, &mut sites);
        seed_line("thread::sleep(dt);", 3, &mut sites);
        seed_line("loop {", 4, &mut sites);
        let mask = sites.iter().fold(0, |m, s| m | s.mask);
        assert_eq!(
            mask,
            ALLOCATES | READS_CLOCK | BLOCKS_OR_SYSCALLS | UNBOUNDED_ITERATION
        );
    }

    #[test]
    fn bounded_loops_are_not_flagged() {
        assert!(unbounded_loop_header("while let Some(x) = it.next() {").is_none());
        assert!(unbounded_loop_header("while i < n {").is_none());
        assert!(unbounded_loop_header("for x in xs {").is_none());
        assert!(unbounded_loop_header("while running {").is_some());
        assert!(unbounded_loop_header("loop {").is_some());
    }

    #[test]
    fn fixpoint_propagates_over_chain() {
        // 0 → 1 → 2, with effects only at the leaf.
        let local = vec![0, 0, ALLOCATES | PANICS];
        let edges = vec![vec![1], vec![2], vec![]];
        let eff = fixpoint(&local, &edges);
        assert_eq!(eff, vec![ALLOCATES | PANICS; 3]);
    }

    #[test]
    fn fixpoint_handles_cycles() {
        let local = vec![READS_CLOCK, 0];
        let edges = vec![vec![1], vec![0]];
        assert_eq!(fixpoint(&local, &edges), vec![READS_CLOCK; 2]);
    }
}
