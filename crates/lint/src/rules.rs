//! Rules W001 (unordered iteration), W002 (literal slice index in
//! library code), W003 (atomic orderings / snapshot tearing docs), W006
//! (span guard discipline), W010 (raw sync primitives in sync-layer
//! modules) and W011 (metric family naming hygiene).
//!
//! All of them work on the blanked per-line code text from the lexer, so
//! string literals and comments never trigger matches.

use crate::diag::{Rule, Violation};
use crate::lexer::{is_ident_char, SourceFile};
use crate::pragma::PragmaSet;
use std::collections::BTreeSet;

/// Which rule families apply to a file. Derived from the crate the file
/// lives in (see [`crate::context_for_path`]); fixtures enable everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileContext {
    /// W001: the crate promises byte-identical replay output.
    pub deterministic: bool,
    /// W002: the crate is on the serving path and must not panic.
    pub serving: bool,
    /// W003: the crate is the lock-free observability layer.
    pub observability: bool,
    /// W010: the file's sync primitives are virtualised by the model
    /// checker and must come from `crate::sync`, not `std::sync`.
    pub synced: bool,
}

impl FileContext {
    pub fn all() -> Self {
        Self {
            deterministic: true,
            serving: true,
            observability: true,
            synced: true,
        }
    }
}

// ---------------------------------------------------------------------------
// W001: unordered iteration
// ---------------------------------------------------------------------------

/// Iteration adapters whose results depend on `HashMap`/`HashSet` order.
const ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// How many lines after a flagged iteration to scan for an
/// order-insensitive sink. Rustfmt keeps chained iterator pipelines to a
/// handful of lines; anything further away should use a pragma.
const SINK_WINDOW: usize = 12;

/// Finds identifiers bound to `HashMap`/`HashSet` in a file: struct
/// fields and let-bindings with hash types in their declaration line.
fn hash_idents(file: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in &file.lines {
        if !(line.code.contains("HashMap") || line.code.contains("HashSet")) {
            continue;
        }
        // Fold qualified paths so `x: std::collections::HashMap<…>` parses
        // the same as the imported form.
        let code = &line.code.replace("std::collections::", "");
        if code.trim_start().starts_with("use ") {
            continue;
        }
        // `let [mut] name = HashMap::new()` / `…collect::<HashMap…`
        if let Some(pos) = code.find("let ") {
            let rest = code[pos + 4..].trim_start().trim_start_matches("mut ");
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() {
                out.insert(name);
                continue;
            }
        }
        // `name: HashMap<…>` — struct field, fn param, or typed binding.
        for ty in ["HashMap", "HashSet"] {
            let mut search = 0;
            while let Some(found) = code[search..].find(ty) {
                let at = search + found;
                // Peel reference sigils so `name: &HashMap<…>` and
                // `name: &mut HashMap<…>` parse like `name: HashMap<…>`.
                let before = code[..at].trim_end();
                let before = before
                    .strip_suffix("mut")
                    .map(str::trim_end)
                    .unwrap_or(before)
                    .trim_end_matches('&')
                    .trim_end();
                if let Some(b) = before.strip_suffix(':') {
                    let name: String = b
                        .chars()
                        .rev()
                        .take_while(|&c| is_ident_char(c))
                        .collect::<String>()
                        .chars()
                        .rev()
                        .collect();
                    if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                    {
                        out.insert(name);
                    }
                }
                search = at + ty.len();
            }
        }
    }
    out
}

/// True if the iterator pipeline starting at `start` reaches an
/// order-insensitive sink within the window: an explicit sort, a
/// collect into an ordered container, or a commutative reduction.
fn has_order_insensitive_sink(file: &SourceFile, start: usize) -> bool {
    let end = (start + SINK_WINDOW).min(file.lines.len());
    for line in &file.lines[start..end] {
        let code = &line.code;
        if code.contains(".sort")
            || code.contains("collect::<BTreeMap")
            || code.contains("collect::<BTreeSet")
            || code.contains("collect::<std::collections::BTreeMap")
            || code.contains("collect::<std::collections::BTreeSet")
            || code.contains(".count()")
            || code.contains(".any(")
            || code.contains(".all(")
            || code.contains(".is_empty()")
            || is_integer_sum(code)
        {
            return true;
        }
    }
    false
}

/// `.sum::<uN/iN/usize/isize>()` is commutative and associative; float
/// sums are not associative, so a bare `.sum()` or `.sum::<f64>()` stays
/// order-sensitive.
fn is_integer_sum(code: &str) -> bool {
    for prefix in ["u", "i"] {
        let pat = format!(".sum::<{prefix}");
        if let Some(at) = code.find(&pat) {
            let rest = &code[at + pat.len()..];
            if rest.starts_with("size")
                || rest.starts_with('8')
                || rest.starts_with("16")
                || rest.starts_with("32")
                || rest.starts_with("64")
                || rest.starts_with("128")
            {
                return true;
            }
        }
    }
    false
}

/// The identifier immediately before byte offset `at` in `code`.
pub(crate) fn ident_before(code: &str, at: usize) -> String {
    code[..at]
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<String>()
        .chars()
        .rev()
        .collect()
}

pub fn w001_unordered_iter(file: &SourceFile, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    let idents = hash_idents(file);
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = &line.code;
        let lineno = idx + 1;
        let mut flagged: Option<(String, &str)> = None;
        for m in ITER_METHODS {
            let mut search = 0;
            while let Some(found) = code[search..].find(m) {
                let at = search + found;
                let mut recv = ident_before(code, at);
                // Rustfmt breaks long chains so the adapter starts its own
                // line; the receiver is then the trailing identifier of the
                // nearest preceding code line (`self.by_signature` /
                // `\n    .keys()`), skipping comment-only lines.
                if recv.is_empty() && code[..at].trim().is_empty() {
                    for prev_line in file.lines[..idx].iter().rev().take(3) {
                        let prev = prev_line.code.trim_end();
                        if prev.is_empty() {
                            continue;
                        }
                        recv = ident_before(prev, prev.len());
                        break;
                    }
                }
                if idents.contains(&recv) {
                    flagged = Some((recv, m));
                    break;
                }
                search = at + m.len();
            }
            if flagged.is_some() {
                break;
            }
        }
        // `for x in &map { … }` / `for x in map { … }`
        if flagged.is_none() {
            if let Some(pos) = for_in_target(code) {
                if idents.contains(&pos) {
                    flagged = Some((pos, "for … in"));
                }
            }
        }
        // Inline temporaries: `…collect::<HashSet<_>>()` (or HashMap)
        // immediately re-iterated — no named binding to track, but the
        // order leak is the same.
        if flagged.is_none() {
            for ty in ["collect::<HashSet", "collect::<HashMap"] {
                if !code.contains(ty) {
                    continue;
                }
                let next = file
                    .lines
                    .get(idx + 1)
                    .map(|l| l.code.as_str())
                    .unwrap_or("");
                let reiterated = [".into_iter()", ".iter()", ".drain(", ".values()", ".keys()"]
                    .iter()
                    .any(|m| {
                        code[code.find(ty).unwrap_or(0)..].contains(m)
                            || next.trim_start().starts_with(m.trim_end_matches('('))
                    });
                if reiterated {
                    flagged = Some(("<inline hash collection>".to_string(), ty));
                    break;
                }
            }
        }
        let Some((ident, how)) = flagged else {
            continue;
        };
        if has_order_insensitive_sink(file, idx) {
            continue;
        }
        if pragmas.allows(Rule::UnorderedIter, &file.path, lineno) {
            continue;
        }
        out.push(
            Violation::new(
                Rule::UnorderedIter,
                &file.path,
                lineno,
                format!(
                    "iteration over hash-ordered `{ident}` ({how}) feeds output without an order-insensitive sink"
                ),
            )
            .with_note(
                "sort the items, use a BTreeMap/BTreeSet, or add `// lint: allow(unordered_iter) — <reason>`",
            ),
        );
    }
}

/// For `for pat in <expr> {`, the trailing path segment of `<expr>` when
/// the expression is a bare (possibly referenced/dotted) path; method
/// calls return `None` — the method matcher covers those.
fn for_in_target(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if !trimmed.starts_with("for ") {
        return None;
    }
    let in_at = code.find(" in ")?;
    let mut expr = code[in_at + 4..].trim();
    expr = expr.trim_end_matches('{').trim_end();
    expr = expr.trim_start_matches('&').trim_start_matches("mut ");
    if expr.is_empty() || expr.contains('(') || expr.contains('[') || expr.contains(' ') {
        return None;
    }
    Some(expr.rsplit('.').next().unwrap_or(expr).to_string())
}

// ---------------------------------------------------------------------------
// W002: panic in library code
// ---------------------------------------------------------------------------

/// Flags `expr[<integer literal>]` in non-test code. The panicking calls
/// (`unwrap`, `expect`, `panic!`, `todo!`, `unimplemented!`) are denied
/// by clippy at each serving crate's root; clippy's `indexing_slicing`
/// would also flag every computed index, so literal subscripts stay here.
pub fn w002_panic_in_library(file: &SourceFile, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let Some(subscript) = literal_subscript(&line.code) else {
            continue;
        };
        // Indexing straight out of a `windows`/`chunks` binding has a
        // length guarantee the lexer can see; anything else panics when
        // the collection is shorter than the literal assumes.
        let guarded = file.lines[idx.saturating_sub(6)..=idx]
            .iter()
            .any(|l| l.code.contains(".windows(") || l.code.contains(".chunks("));
        let lineno = idx + 1;
        if guarded || pragmas.allows(Rule::PanicInLibrary, &file.path, lineno) {
            continue;
        }
        out.push(
            Violation::new(
                Rule::PanicInLibrary,
                &file.path,
                lineno,
                format!(
                    "`[{subscript}] indexing` in library code: literal slice index panics when out of bounds"
                ),
            )
            .with_note(
                "propagate the error, restructure to make the case impossible, or add `// lint: allow(panic_in_library) — <invariant>`",
            ),
        );
    }
}

/// Finds `expr[<integer literal>]` on the line and returns the literal.
/// Attribute lines and array type/repeat syntax (`[0u8; 4]`) never match
/// because the bracket content must be digits only and the bracket must
/// follow an expression (ident, `)`, or `]`).
fn literal_subscript(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' && i > 0 {
            let prev = bytes[i - 1] as char;
            if is_ident_char(prev) || prev == ')' || prev == ']' {
                let close = code[i + 1..].find(']')?;
                let inner = &code[i + 1..i + 1 + close];
                if !inner.is_empty() && inner.chars().all(|c| c.is_ascii_digit() || c == '_') {
                    return Some(inner.to_string());
                }
            }
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// W003: atomic orderings and snapshot tearing docs
// ---------------------------------------------------------------------------

const STRONG_ORDERINGS: [&str; 4] = [
    "Ordering::SeqCst",
    "Ordering::AcqRel",
    "Ordering::Acquire",
    "Ordering::Release",
];

pub fn w003_atomic_ordering(file: &SourceFile, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    // Part 1: orderings stronger than Relaxed on the hot path.
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let lineno = idx + 1;
        for strong in STRONG_ORDERINGS {
            if line.code.contains(strong) {
                if pragmas.allows(Rule::AtomicOrdering, &file.path, lineno) {
                    continue;
                }
                out.push(
                    Violation::new(
                        Rule::AtomicOrdering,
                        &file.path,
                        lineno,
                        format!(
                            "`{strong}` on an observability atomic: counters are monotonic ledgers, Relaxed suffices"
                        ),
                    )
                    .with_note(
                        "stronger orderings buy nothing here and cost a fence on weakly-ordered targets; use Ordering::Relaxed",
                    ),
                );
            }
        }
    }
    // Part 2: functions reading >= 2 distinct atomic fields must document
    // the tearing model — Relaxed loads of separate fields are individually
    // atomic but not mutually consistent.
    for func in fn_spans(file) {
        let mut fields = BTreeSet::new();
        for line in &file.lines[func.body_start..func.body_end] {
            let code = &line.code;
            let mut search = 0;
            while let Some(found) = code[search..].find(".load(") {
                let at = search + found;
                if let Some(field) = self_field_of(code, at) {
                    fields.insert(field);
                }
                search = at + ".load(".len();
            }
        }
        if fields.len() < 2 {
            continue;
        }
        let documented = file.lines[..func.sig_line]
            .iter()
            .rev()
            .take_while(|l| l.is_doc || l.code.trim().starts_with("#["))
            .any(|l| {
                let c = l.comment.to_ascii_lowercase();
                c.contains("tear") || c.contains("torn")
            });
        if documented {
            continue;
        }
        let lineno = func.sig_line + 1;
        if pragmas.allows(Rule::AtomicOrdering, &file.path, lineno) {
            continue;
        }
        let list = fields.iter().cloned().collect::<Vec<_>>().join("`, `");
        out.push(
            Violation::new(
                Rule::AtomicOrdering,
                &file.path,
                lineno,
                format!(
                    "reads {} atomic fields (`{list}`) without documenting the tearing model",
                    fields.len()
                ),
            )
            .with_note(
                "Relaxed loads of separate fields are not a consistent snapshot; add a doc comment describing what can tear",
            ),
        );
    }
}

/// For `….load(` at `at`, the `self.<field>` receiver's field name, if the
/// receiver is a (possibly indexed) field of `self`.
fn self_field_of(code: &str, at: usize) -> Option<String> {
    let mut end = at;
    let bytes = code.as_bytes();
    // Skip a trailing `[…]` index on the receiver.
    if end > 0 && bytes[end - 1] == b']' {
        let open = code[..end].rfind('[')?;
        end = open;
    }
    let field = ident_before(code, end);
    if field.is_empty() {
        return None;
    }
    let prefix = &code[..end - field.len()];
    prefix.ends_with("self.").then_some(field)
}

// ---------------------------------------------------------------------------
// W006: span guard discipline
// ---------------------------------------------------------------------------

/// Span-starting calls whose return value is an RAII guard (or a
/// guard-carrying trace context): dropping the value at the end of its
/// own statement closes the span at zero width, silently corrupting
/// every trace it appears in — the call looks instrumented but records
/// nothing.
const SPAN_STARTERS: [&str; 4] = [
    "start_root_span(",
    "start_root_span_keyed(",
    "child_span(",
    "start_span(",
];

pub fn w006_span_discipline(file: &SourceFile, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = &line.code;
        // The span API's own definitions and signatures.
        if code.contains("fn ") {
            continue;
        }
        let Some(starter) = SPAN_STARTERS.iter().find(|p| contains_method_call(code, p)) else {
            continue;
        };
        let lineno = idx + 1;
        let stmt = statement_head(file, idx);
        let discarded = stmt.contains("let _ =") || stmt.contains("let _=");
        let bare = !discarded
            && !stmt.contains('=')
            && !stmt.contains("let ")
            && !stmt.contains("return ")
            && code.trim_end().ends_with(';');
        if !discarded && !bare {
            continue;
        }
        if pragmas.allows(Rule::SpanDiscipline, &file.path, lineno) {
            continue;
        }
        let what = starter.trim_end_matches('(');
        let how = if discarded {
            "its guard is discarded with `let _ = …`"
        } else {
            "its guard is dropped at the end of the statement"
        };
        out.push(
            Violation::new(
                Rule::SpanDiscipline,
                &file.path,
                lineno,
                format!("`{what}` starts a span but {how}: the span closes at zero width"),
            )
            .with_note(
                "bind the guard (`let span = …`) so it lives across the work it measures, or add `// lint: allow(span_discipline) — <reason>`",
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// W010: raw sync primitives in sync-layer modules
// ---------------------------------------------------------------------------

/// `std::sync` items the `crate::sync` façade virtualises. Matching is
/// by prefix so the guard types (`MutexGuard`, `RwLockReadGuard`, …)
/// are covered by their parent primitive's name.
const RAW_SYNC_PREFIXES: [&str; 4] = ["atomic", "Mutex", "RwLock", "Condvar"];

/// Brace-list imports whose every item the façade re-exports can be
/// rewritten `std::sync::` → `crate::sync::` mechanically; a list with
/// anything else (`PoisonError`, `OnceLock`, …) needs a human split.
const FACADE_ITEMS: [&str; 12] = [
    "Arc",
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
    "atomic",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
    "Ordering",
];

/// The offending façade-bypassing items named by a `std::sync::` path
/// starting right after `at` (which points past the prefix), plus
/// whether a whole-line `std::sync::` → `crate::sync::` rewrite is safe.
fn raw_sync_items(rest: &str) -> (Vec<String>, bool) {
    if let Some(list) = rest.strip_prefix('{') {
        let Some(close) = list.find('}') else {
            return (Vec::new(), false);
        };
        let items: Vec<&str> = list[..close]
            .split(',')
            .map(|i| i.split_whitespace().next().unwrap_or(""))
            .filter(|i| !i.is_empty())
            .collect();
        let offending: Vec<String> = items
            .iter()
            .filter(|i| RAW_SYNC_PREFIXES.iter().any(|p| i.starts_with(p)))
            .map(|i| format!("std::sync::{i}"))
            .collect();
        let safe = items.iter().all(|i| FACADE_ITEMS.contains(i));
        (offending, safe)
    } else {
        let item: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if RAW_SYNC_PREFIXES.iter().any(|p| item.starts_with(p)) {
            // `std::sync::atomic::Ordering` alone is façade-identical,
            // but flag the path anyway: the façade re-exports it, so the
            // module has no reason to spell out the raw route.
            let safe = item == "atomic" || FACADE_ITEMS.contains(&item.as_str());
            (vec![format!("std::sync::{item}")], safe)
        } else {
            (Vec::new(), false)
        }
    }
}

/// W010: sync-layer modules (the files whose primitives the model
/// checker swaps out under `--cfg wilocator_check`) must not name
/// `std::sync` locks, condvars or atomics directly — a raw primitive is
/// invisible to the checker, so the protocol it participates in is
/// silently excluded from every model test. `std::sync::Arc`,
/// `PoisonError` and friends stay legal: the façade re-exports `Arc`
/// from `std` by design and poison handling is not virtualised.
pub fn w010_raw_sync(file: &SourceFile, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let lineno = idx + 1;
        let code = &line.code;
        let mut search = 0;
        while let Some(found) = code[search..].find("std::sync::") {
            let at = search + found;
            search = at + "std::sync::".len();
            let (items, safe) = raw_sync_items(&code[search..]);
            if items.is_empty() || pragmas.allows(Rule::RawSync, &file.path, lineno) {
                continue;
            }
            let mut v = Violation::new(
                Rule::RawSync,
                &file.path,
                lineno,
                format!(
                    "`{}` named directly in a sync-layer module",
                    items.join("`, `")
                ),
            )
            .with_note(
                "import it via `crate::sync` so the model checker sees this code under `--cfg wilocator_check`, or add `// lint: allow(raw_sync) — <reason>`",
            );
            if safe {
                v = v.with_fix(
                    crate::diag::FixKind::ReplaceSubstr {
                        find: "std::sync::".to_string(),
                        replace: "crate::sync::".to_string(),
                    },
                    true,
                );
            }
            out.push(v);
            // One diagnostic per line is enough; `--fix` rewrites the
            // first `std::sync::` occurrence and a re-run catches any
            // remaining ones.
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// W011: metric family hygiene
// ---------------------------------------------------------------------------

/// Call sites that register or key a metric family by literal name. The
/// first string argument is the family.
const METRIC_SINKS: [&str; 5] = [
    "metric_key(",
    "add_counter(",
    "add_gauge(",
    "add_histogram(",
    "track(",
];

/// Dimensionless suffixes the Prometheus-style naming convention accepts
/// alongside the W008 physical units: monotone event counts, byte
/// gauges, unitless ratios, and constant info families.
const DIMENSIONLESS_SUFFIXES: [&str; 4] = ["total", "bytes", "ratio", "info"];

/// Extracts the literal first argument of a metric sink call on a raw
/// line, given the byte offset just past the opening parenthesis in the
/// blanked code. Returns the literal's content and `true` when the raw
/// text actually opens a string there (a non-literal first argument —
/// a const or variable — yields `None`).
fn literal_first_arg(raw: &str, pat: &str) -> Option<String> {
    let mut search = 0;
    while let Some(found) = raw[search..].find(pat) {
        let at = search + found;
        search = at + pat.len();
        let rest = &raw[search..];
        let Some(body) = rest.strip_prefix('"') else {
            continue;
        };
        let close = body.find('"')?;
        return Some(body[..close].to_string());
    }
    None
}

/// W011 `metric_hygiene`: metric families registered by literal name
/// must be snake_case and carry a suffix that names either a physical
/// unit from the W008 table (`_us`, `_s`, `_dbm`, …, canonical spelling
/// only) or a dimensionless convention (`_total`, `_bytes`, `_ratio`,
/// `_info`). A family that breaks the convention is invisible to
/// suffix-driven tooling — dashboards that pick formatters by unit, the
/// W008 dataflow rule itself, and every grep for `_us` families.
pub fn w011_metric_hygiene(file: &SourceFile, pragmas: &mut PragmaSet, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        let code = &line.code;
        let lineno = idx + 1;
        for pat in METRIC_SINKS {
            // The blanked form of a literal first argument is `sink("")…`,
            // so requiring `sink("` in the code text skips non-literal
            // arguments and occurrences inside strings or comments.
            let mut has_literal = false;
            let mut s = 0;
            while let Some(found) = code[s..].find(pat) {
                let at = s + found;
                s = at + pat.len();
                let callish =
                    at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
                if callish && code[s..].starts_with('"') {
                    has_literal = true;
                    break;
                }
            }
            if !has_literal {
                continue;
            }
            let Some(arg) = literal_first_arg(&line.raw, pat) else {
                continue;
            };
            // A labelled key like `family{shard="0"}` is policed on the
            // family part only.
            let family = arg.split('{').next().unwrap_or(&arg);
            let Some(problem) = family_problem(family) else {
                continue;
            };
            if pragmas.allows(Rule::MetricHygiene, &file.path, lineno) {
                continue;
            }
            out.push(
                Violation::new(Rule::MetricHygiene, &file.path, lineno, problem).with_note(
                    "name families `snake_case` ending in a canonical W008 unit (`_us`, `_s`, `_dbm`, …) \
                     or `_total`/`_bytes`/`_ratio`/`_info`, or add `// lint: allow(metric_hygiene) — <reason>`",
                ),
            );
            break; // one diagnostic per line
        }
    }
}

/// Why `family` violates the naming convention, or `None` when clean.
fn family_problem(family: &str) -> Option<String> {
    if family.is_empty() {
        return Some("empty metric family name".to_string());
    }
    let snake = family.starts_with(|c: char| c.is_ascii_lowercase())
        && family
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !family.contains("__")
        && !family.ends_with('_');
    if !snake {
        return Some(format!("metric family `{family}` is not snake_case"));
    }
    let Some((_, suffix)) = family.rsplit_once('_') else {
        return Some(format!(
            "metric family `{family}` has no unit suffix: its values are unreadable without one"
        ));
    };
    if DIMENSIONLESS_SUFFIXES.contains(&suffix) {
        return None;
    }
    match crate::units::unit_of(family) {
        // Canonical unit suffix (`_us`, `_s`, `_dbm`, …).
        Some(unit) if unit == suffix => None,
        // An alias the W008 table normalises (`_seconds`, `_micros`, …):
        // legal Rust, but the family string never meets the W008 renamer,
        // so the canon must be enforced here.
        Some(unit) => Some(format!(
            "metric family `{family}` uses non-canonical unit suffix `_{suffix}`: the workspace convention is `_{unit}`"
        )),
        None => Some(format!(
            "metric family `{family}` suffix `_{suffix}` names neither a W008 unit nor a dimensionless convention"
        )),
    }
}

/// True when `pat` (an `ident(` pattern) occurs in `code` as a call whose
/// name is not a suffix of a longer identifier, so `restart_root_span(`
/// never matches `start_root_span(`.
fn contains_method_call(code: &str, pat: &str) -> bool {
    let mut search = 0;
    while let Some(found) = code[search..].find(pat) {
        let at = search + found;
        if at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' ')) {
            return true;
        }
        search = at + pat.len();
    }
    false
}

/// The full statement containing line `idx`, reconstructed by walking
/// back to the nearest statement boundary (previous line empty or ending
/// in `;`, `{`, `}`, `,` or `=>`) and joining the lines. Good enough for
/// rustfmt-formatted code: it sees the `let guard =` head of a wrapped
/// binding without a real parser.
fn statement_head(file: &SourceFile, idx: usize) -> String {
    let mut start = idx;
    while start > 0 {
        let prev = file.lines[start - 1].code.trim_end();
        if prev.is_empty()
            || prev.ends_with(';')
            || prev.ends_with('{')
            || prev.ends_with('}')
            || prev.ends_with(',')
            || prev.ends_with("=>")
        {
            break;
        }
        start -= 1;
    }
    file.lines[start..=idx]
        .iter()
        .map(|l| l.code.trim())
        .collect::<Vec<_>>()
        .join(" ")
}

/// A function's signature line and body span (line indices).
struct FnSpan {
    sig_line: usize,
    body_start: usize,
    body_end: usize,
}

/// Rough function spans via brace tracking: a line containing `fn name(`
/// opens a span at the first `{` at its depth; the span closes when depth
/// returns. Good enough for rustfmt-formatted code.
fn fn_spans(file: &SourceFile) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut depth: i32 = 0;
    let mut open: Vec<(usize, i32)> = Vec::new(); // (sig_line, depth at open)
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let is_fn = code.contains("fn ") && code.contains('(') && !line.is_test;
        if is_fn {
            open.push((idx, depth));
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some(&(sig, d)) = open.last() {
                        if depth <= d {
                            open.pop();
                            spans.push(FnSpan {
                                sig_line: sig,
                                body_start: sig,
                                body_end: idx + 1,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    spans
}
