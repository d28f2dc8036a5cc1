//! Phase 1 of the workspace analyzer: the symbol table.
//!
//! One pass over every lexed file extracts, per function item: its name,
//! crate, visibility, parameter names, call sites, panic sites, and lock
//! acquisitions — including which locks are *held* at each acquisition
//! and call site, via lexical guard-scope tracking (a `let`-bound guard
//! lives to the end of its block or an explicit `drop`; an unbound guard
//! dies at the end of its own statement). The graph rules in
//! [`crate::callgraph`] and [`crate::units`] consume this table; nothing
//! here reports violations.
//!
//! Everything is hand-rolled on top of the blanked line stream from
//! [`crate::lexer`] — deliberately no `syn`, per the vendored-shim
//! constraint. The extraction is approximate in the ways rustfmt-shaped
//! code tolerates: receivers are resolved through a per-function alias
//! map (`let g = &self.shards[i]`, `for lock in &self.shards`, closure
//! parameters over lock containers), multi-line method chains fall back
//! to a short look-behind within the statement, and anything still
//! unresolvable is dropped rather than guessed.

use crate::lexer::{is_ident_char, SourceFile};
use crate::rules::FileContext;
use std::collections::{BTreeMap, BTreeSet};

/// A lock acquisition method and the receiver shape it needs.
const ACQUIRE_METHODS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// Panic-path call shapes. Clippy denies them in serving-crate library
/// code; W009 and the `panics` effect still need to find them in callees.
pub const PANIC_PATTERNS: [(&str, &str); 5] = [
    (".unwrap()", "unwrap()"),
    (".expect(", "expect()"),
    ("panic!(", "panic!"),
    ("unimplemented!(", "unimplemented!"),
    ("todo!(", "todo!"),
];

/// True when `pat` occurs in `code` as a call, not as part of a longer
/// identifier (so `.unwrap()` does not match `.unwrap_or_else(`, and
/// `panic!(` does not match `core::panic!(` prefixed identifiers oddly).
fn contains_call(code: &str, pat: &str) -> bool {
    let mut search = 0;
    while let Some(found) = code[search..].find(pat) {
        let at = search + found;
        let before_ok = if pat.starts_with('.') {
            true
        } else {
            // Macro patterns: previous char must not be an identifier char.
            at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '))
        };
        if before_ok {
            return true;
        }
        search = at + pat.len();
    }
    false
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Crate-qualified lock class, e.g. `core::shards`.
    pub class: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Lock classes held (by `let`-bound guards) at this acquisition.
    pub held: Vec<String>,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee's simple name (last path segment before `(`).
    pub callee: String,
    /// Candidate receiver types: the `Type::` qualifier of a path call
    /// (with `Self` resolved to the enclosing impl's type), or the
    /// declared type(s) of a `x.field.method(…)` receiver's field — a
    /// set, because the same field name may be declared with different
    /// types in different structs. Empty for free-function calls and
    /// receivers whose type is not lexically knowable; those resolve by
    /// bare name.
    pub quals: Vec<String>,
    /// 1-based line of the call.
    pub line: usize,
    /// True for a receiver-less, unqualified call (`f(…)`, not `x.f(…)`
    /// or `T::f(…)`) — the only shape that can invoke a caller-supplied
    /// closure parameter (which the effect engine defaults to ⊤).
    pub bare: bool,
    /// Lock classes held at the call.
    pub held: Vec<String>,
    /// Argument expressions when the whole call fits on one line and the
    /// arguments are simple enough to slice; empty otherwise. Used by
    /// the unit-dataflow rule to match arguments against parameters.
    pub args: Vec<String>,
}

/// One panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// What panics (`unwrap()`, `panic!`, `[N] indexing`, …).
    pub what: String,
}

/// One syntactic effect source inside a function body: a line matching
/// one of the seed tables in [`crate::effects`] (allocation calls,
/// clock reads, blocking syscalls, unbounded loop headers). Lock
/// acquisitions and panic sites are carried by [`FnSym::acquires`] and
/// [`FnSym::panics`] instead — those passes already resolve receivers,
/// which the flat seed tables cannot.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Bitmask over the effect lattice ([`crate::effects`]).
    pub mask: u8,
    /// 1-based line.
    pub line: usize,
    /// What seeded the effect (`Vec::new`, `thread::sleep`, `loop`, …).
    pub what: String,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Simple name (no path, no generics).
    pub name: String,
    /// The type the enclosing `impl` block is for, if any.
    pub owner: Option<String>,
    /// Owning crate (from the file path), `fixture` outside `crates/`.
    pub krate: String,
    pub file: String,
    /// 1-based signature line.
    pub sig_line: usize,
    /// Declared `pub` (exactly — `pub(crate)` etc. are not entry points).
    pub is_pub: bool,
    /// Whether the file sits in a serving crate (W009 entry scope).
    pub serving: bool,
    /// Parameter names in order (`self` receivers skipped, unparseable
    /// patterns recorded as empty strings to keep positions aligned).
    pub params: Vec<String>,
    pub acquires: Vec<Acquire>,
    pub calls: Vec<CallSite>,
    pub panics: Vec<PanicSite>,
    /// Syntactic effect seeds ([`crate::effects`] lattice bits other
    /// than locks and panics, which `acquires`/`panics` carry).
    pub effects: Vec<EffectSite>,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    pub fns: Vec<FnSym>,
    /// Simple fn name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table from every lexed file and its rule context.
    pub fn build(files: &[(SourceFile, FileContext)]) -> Self {
        // Pass A: lock-typed struct names and lock-typed field/binding
        // names, per crate. `struct ShardRing(Mutex<…>)` makes
        // `ShardRing` a lock type; `rings: Vec<ShardRing>` then makes
        // `rings` a lock field.
        let mut lock_types: BTreeSet<String> = BTreeSet::new();
        for (file, _) in files {
            for line in &file.lines {
                let code = &line.code;
                if !(code.contains("Mutex<") || code.contains("RwLock<")) {
                    continue;
                }
                if let Some(name) = struct_name(code) {
                    lock_types.insert(name);
                }
            }
        }
        let mut lock_fields: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (file, _) in files {
            let krate = crate_of_path(&file.path);
            for line in &file.lines {
                let code = &line.code;
                let locky = code.contains("Mutex<")
                    || code.contains("RwLock<")
                    || lock_types.iter().any(|t| contains_type(code, t));
                if !locky || code.trim_start().starts_with("use ") {
                    continue;
                }
                for name in field_names(code) {
                    lock_fields.entry(krate.clone()).or_default().insert(name);
                }
            }
        }

        // Pass A2: struct field name → declared type(s), per crate, so a
        // `self.tracker.trajectory()` call can resolve by the field's
        // type instead of by bare method name.
        let mut field_types: BTreeMap<String, BTreeMap<String, BTreeSet<String>>> = BTreeMap::new();
        for (file, _) in files {
            let krate = crate_of_path(&file.path);
            let map = field_types.entry(krate).or_default();
            let mut struct_depth: Option<i32> = None;
            let mut depth = 0i32;
            for line in &file.lines {
                let code = &line.code;
                if struct_name(code).is_some() {
                    if let Some(open) = code.find('{') {
                        match code.rfind('}') {
                            // `struct S { a: Mutex<u32>, b: … }` on one line.
                            Some(close) if close > open => {
                                collect_field_types(&code[open + 1..close], map);
                            }
                            _ => struct_depth = Some(depth),
                        }
                    }
                    // A header without `{` (where-clause style) is skipped:
                    // qualifying from a misread bound would drop real edges.
                } else if struct_depth.is_some_and(|d| depth > d) {
                    collect_field_types(code, map);
                }
                depth += brace_delta(code);
                if struct_depth.is_some_and(|d| depth <= d) {
                    struct_depth = None;
                }
            }
        }

        // Pass B: function extraction with body events.
        let mut fns = Vec::new();
        for (file, ctx) in files {
            let krate = crate_of_path(&file.path);
            let empty_locks = BTreeSet::new();
            let empty_types = BTreeMap::new();
            let locks = lock_fields.get(&krate).unwrap_or(&empty_locks);
            let types = field_types.get(&krate).unwrap_or(&empty_types);
            extract_fns(file, &krate, ctx.serving, locks, types, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        SymbolTable { fns, by_name }
    }
}

/// The crate a workspace-relative path belongs to (`crates/core/src/…` →
/// `core`); `fixture` for paths outside `crates/`.
pub fn crate_of_path(path: &str) -> String {
    let unixy = path.replace('\\', "/");
    unixy
        .split('/')
        .skip_while(|s| *s != "crates")
        .nth(1)
        .unwrap_or("fixture")
        .to_string()
}

/// `struct Name(…)` / `struct Name {` / `struct Name;` → `Name`.
fn struct_name(code: &str) -> Option<String> {
    let at = code.find("struct ")?;
    if at > 0 && is_ident_char(code[..at].chars().next_back().unwrap_or(' ')) {
        return None;
    }
    let name: String = code[at + "struct ".len()..]
        .trim_start()
        .chars()
        .take_while(|&c| is_ident_char(c))
        .collect();
    (!name.is_empty()).then_some(name)
}

/// True when `ty` appears in `code` as a standalone type name.
/// True when a field's declared type dispatches method calls through a
/// trait object: `dyn T`, `&dyn T`, `&mut dyn T`, or a `Box`/`Arc`/`Rc`
/// directly around `dyn T` (smart pointers auto-deref method calls to
/// the object). A `dyn` buried deeper (`Mutex<Vec<Arc<dyn T>>>`) does
/// not make calls *on the field* dynamic — those go to the container.
fn is_dyn_receiver_type(ty_text: &str) -> bool {
    let t = ty_text.trim().trim_start_matches('&').trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    if t.starts_with("dyn ") {
        return true;
    }
    ["Box<", "Arc<", "Rc<"].iter().any(|wrap| {
        t.strip_prefix(wrap)
            .is_some_and(|rest| rest.trim_start().starts_with("dyn "))
    })
}

fn contains_type(code: &str, ty: &str) -> bool {
    let mut search = 0;
    while let Some(found) = code[search..].find(ty) {
        let at = search + found;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let after = code[at + ty.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            return true;
        }
        search = at + ty.len();
    }
    false
}

/// Field-declaration names on a line: every `name: <type>` shape, the
/// same peeling W001 uses for hash idents. `::` path separators never
/// count, and uppercase-initial heads (type paths like `RwLock::new`)
/// are skipped — field names are snake_case.
fn field_names(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b':' {
            continue;
        }
        if bytes.get(i + 1) == Some(&b':') || (i > 0 && bytes[i - 1] == b':') {
            continue;
        }
        let before = code[..i].trim_end();
        if before.is_empty() {
            continue;
        }
        let name: String = before
            .chars()
            .rev()
            .take_while(|&c| is_ident_char(c))
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        let starts_lower = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
        if !name.is_empty() && starts_lower {
            out.push(name);
        }
    }
    out
}

/// Records `name: Type` field declarations from struct-body text into
/// `map`, `Type` being the first uppercase-initial identifier of the
/// declared type (the outer container, for generics — `Vec<Shard>` is a
/// `Vec`, which owns no workspace impls, so such receivers fall back to
/// nothing rather than to a wrong owner). A field name declared with
/// several types across structs accumulates all of them; resolution
/// takes the union of their owners (over-approximate, the sound
/// direction).
fn collect_field_types(segment: &str, map: &mut BTreeMap<String, BTreeSet<String>>) {
    let bytes = segment.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b':' {
            continue;
        }
        if bytes.get(i + 1) == Some(&b':') || (i > 0 && bytes[i - 1] == b':') {
            continue;
        }
        let before = segment[..i].trim_end();
        let name: String = before
            .chars()
            .rev()
            .take_while(|&c| is_ident_char(c))
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if name.is_empty()
            || !name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        {
            continue;
        }
        // The type runs to the next top-level comma.
        let rest = &segment[i + 1..];
        let mut level = 0i32;
        let mut end = rest.len();
        for (j, c) in rest.char_indices() {
            match c {
                '<' | '(' | '[' => level += 1,
                '>' | ')' | ']' => level -= 1,
                ',' if level <= 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
        }
        let ty = ident_tokens(&rest[..end])
            .into_iter()
            .find(|t| t.chars().next().is_some_and(|c| c.is_ascii_uppercase()));
        if let Some(ty) = ty {
            let entry = map.entry(name).or_default();
            // A trait-object field (`Box<dyn Handler>`, `&dyn Clock`)
            // gets the `dyn` sentinel alongside its container: calls
            // through it are dynamic dispatch, which the effect engine
            // defaults to ⊤ ([`crate::effects`]). Never a real owner —
            // no impl block is ever `impl dyn`-owned in the table.
            if is_dyn_receiver_type(&rest[..end]) {
                entry.insert("dyn".to_string());
            }
            entry.insert(ty);
        }
    }
}

// ---------------------------------------------------------------------------
// Function extraction
// ---------------------------------------------------------------------------

/// Rust keywords that look like calls (`if (…)`, `while (…)`).
const CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "fn", "loop", "else", "in", "let", "move", "unsafe",
];

/// A bound guard currently in scope.
struct HeldGuard {
    class: String,
    /// Brace depth at which the guard's scope closes (guard dies when
    /// depth drops below this).
    depth: i32,
    /// Binding name, for explicit `drop(name)`.
    binding: Option<String>,
}

fn extract_fns(
    file: &SourceFile,
    krate: &str,
    serving: bool,
    locks: &BTreeSet<String>,
    field_types: &BTreeMap<String, BTreeSet<String>>,
    out: &mut Vec<FnSym>,
) {
    // Open function frames: (fn index in `out`, depth at open, alias map,
    // held guards). Nested items stack.
    struct Frame {
        fn_idx: usize,
        depth: i32,
        body_open: bool,
        aliases: BTreeMap<String, String>,
        held: Vec<HeldGuard>,
    }
    let mut frames: Vec<Frame> = Vec::new();
    let mut depth: i32 = 0;
    // Enclosing `impl` blocks: (type name, depth at the impl line,
    // whether the body `{` has opened).
    let mut impls: Vec<(String, i32, bool)> = Vec::new();

    let mut idx = 0;
    while idx < file.lines.len() {
        let line = &file.lines[idx];
        let code = line.code.clone();
        let lineno = idx + 1;

        if !line.is_test {
            if let Some(ty) = impl_type(&code) {
                impls.push((ty, depth, false));
            }
        }

        // New function signature?
        if !line.is_test {
            if let Some((name, is_pub)) = fn_signature(&code) {
                // Collect the full signature text (possibly spanning
                // lines) up to the body `{` or a declaration-only `;`.
                let (params, body_opens, consumed) = parse_signature(file, idx);
                let fn_idx = out.len();
                out.push(FnSym {
                    name,
                    owner: impls.last().map(|(t, _, _)| t.clone()),
                    krate: krate.to_string(),
                    file: file.path.clone(),
                    sig_line: lineno,
                    is_pub,
                    serving,
                    params,
                    acquires: Vec::new(),
                    calls: Vec::new(),
                    panics: Vec::new(),
                    effects: Vec::new(),
                });
                if body_opens {
                    frames.push(Frame {
                        fn_idx,
                        depth,
                        body_open: false,
                        aliases: BTreeMap::new(),
                        held: Vec::new(),
                    });
                }
                // Body text after the opening `{` on the last signature
                // line — the whole body, for a single-line fn — still
                // needs an event scan before we skip past the signature.
                let last = &file.lines[consumed];
                if body_opens && !last.is_test {
                    if let Some(brace) = last.code.find('{') {
                        let tail = last.code[brace + 1..].to_string();
                        if !tail.trim().is_empty() {
                            let mut tail_aliases = BTreeMap::new();
                            let mut tail_held = Vec::new();
                            scan_body_line(
                                file,
                                consumed,
                                &tail,
                                locks,
                                field_types,
                                krate,
                                &mut tail_aliases,
                                &mut tail_held,
                                &mut out[fn_idx],
                            );
                        }
                    }
                }
                // The rest of the signature carries no body events; skip
                // past it (brace bookkeeping still applies).
                for sig_line in &file.lines[idx..=consumed] {
                    depth += brace_delta(&sig_line.code);
                }
                if let Some(frame) = frames.last_mut() {
                    if frame.fn_idx == fn_idx && depth > frame.depth {
                        frame.body_open = true;
                    }
                }
                // A declaration-only signature (trait method) opened no
                // frame; drop the frame if its body never opened.
                if let Some(frame) = frames.last() {
                    if frame.fn_idx == fn_idx && !frame.body_open {
                        frames.pop();
                    }
                }
                idx = consumed + 1;
                continue;
            }
        }

        // Body events for the innermost open function.
        if let Some(frame) = frames.last_mut() {
            if !line.is_test {
                let sym = &mut out[frame.fn_idx];
                scan_body_line(
                    file,
                    idx,
                    &code,
                    locks,
                    field_types,
                    krate,
                    &mut frame.aliases,
                    &mut frame.held,
                    sym,
                );
            }
        }

        depth += brace_delta(&code);

        // Close guards whose scope ended, then close finished frames.
        while let Some(frame) = frames.last_mut() {
            frame.held.retain(|g| g.depth <= depth);
            if frame.body_open && depth <= frame.depth {
                frames.pop();
            } else {
                break;
            }
        }
        // Track impl bodies opening and closing.
        for entry in impls.iter_mut() {
            if !entry.2 && depth > entry.1 {
                entry.2 = true;
            }
        }
        while impls
            .last()
            .is_some_and(|(_, d, open)| *open && depth <= *d)
        {
            impls.pop();
        }
        idx += 1;
    }
}

/// `impl Foo {` / `impl Trait for Foo {` / `impl<T> Foo<T> where …` →
/// the implemented-for type's simple name.
fn impl_type(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("impl")?;
    // `impl` must be the keyword, not a prefix of an identifier.
    if rest.starts_with(|c: char| is_ident_char(c)) {
        return None;
    }
    // Skip generic parameters on `impl<…>`.
    let rest = if let Some(generic) = rest.strip_prefix('<') {
        let mut depth = 1i32;
        let mut cut = generic.len();
        for (i, c) in generic.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &generic[cut.min(generic.len())..]
    } else {
        rest
    };
    // `impl Trait for Type` — the type is what methods hang off.
    let target = match rest.find(" for ") {
        Some(at) => &rest[at + 5..],
        None => rest,
    };
    // First uppercase-initial identifier of the target (peels `&`,
    // `dyn `, generics, paths).
    let mut current = String::new();
    for c in target.chars().chain(std::iter::once(' ')) {
        if is_ident_char(c) {
            current.push(c);
        } else {
            if current
                .chars()
                .next()
                .is_some_and(|f| f.is_ascii_uppercase())
            {
                return Some(current);
            }
            current.clear();
            if c == '{' || c == '<' {
                break;
            }
        }
    }
    None
}

fn brace_delta(code: &str) -> i32 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// `[pub ]fn name` on a line → (name, is_pub). Requires a lowercase `fn `
/// with an identifier start right after, so `impl Fn(…)` never matches.
fn fn_signature(code: &str) -> Option<(String, bool)> {
    let mut search = 0;
    while let Some(found) = code[search..].find("fn ") {
        let at = search + found;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let name: String = code[at + 3..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident_char(c))
            .collect();
        if before_ok && !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            let head = code[..at].trim_end();
            // Exactly-`pub` visibility: `pub fn`, possibly after
            // qualifiers (`pub async fn`, `pub const fn`, …).
            let is_pub = head == "pub"
                || head.ends_with(" pub")
                || head
                    .strip_suffix("async")
                    .or_else(|| head.strip_suffix("const"))
                    .or_else(|| head.strip_suffix("extern"))
                    .map(str::trim_end)
                    .is_some_and(|h| h == "pub" || h.ends_with(" pub"));
            return Some((name, is_pub));
        }
        search = at + 3;
    }
    None
}

/// Parses the parameter list of the signature starting at line `start`,
/// following it across lines to the closing paren. Returns the parameter
/// names, whether a body `{` opens, and the index of the last signature
/// line.
fn parse_signature(file: &SourceFile, start: usize) -> (Vec<String>, bool, usize) {
    let mut text = String::new();
    let mut end = start;
    let mut paren: i32 = 0;
    let mut seen_open = false;
    for (offset, line) in file.lines[start..].iter().enumerate() {
        end = start + offset;
        text.push_str(&line.code);
        text.push(' ');
        for c in line.code.chars() {
            match c {
                '(' => {
                    paren += 1;
                    seen_open = true;
                }
                ')' => paren -= 1,
                _ => {}
            }
        }
        if seen_open && paren <= 0 {
            // Parameter list complete; the body brace may still be on a
            // later line (`) -> LongType\n{`), so keep consuming until
            // `{` or `;`.
            let rest_has_brace = file.lines[start..=end].iter().any(|l| l.code.contains('{'));
            if rest_has_brace || line.code.trim_end().ends_with(';') {
                break;
            }
            let Some(next) = file.lines.get(end + 1) else {
                break;
            };
            let t = next.code.trim();
            if t.starts_with('{') || t.ends_with('{') || t.ends_with(';') {
                text.push_str(&next.code);
                end += 1;
            }
            break;
        }
        if offset > 32 {
            break; // Unbalanced signature; bail rather than scan the file.
        }
    }
    let body_opens = file.lines[start..=end].iter().any(|l| l.code.contains('{'));
    (param_names(&text), body_opens, end)
}

/// Parameter names from a joined signature string.
fn param_names(sig: &str) -> Vec<String> {
    let Some(open) = sig.find('(') else {
        return Vec::new();
    };
    // Slice out the top-level parenthesized list.
    let mut depth = 0i32;
    let mut close = sig.len();
    for (i, c) in sig[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let list = &sig[open + 1..close.min(sig.len())];
    let mut params = Vec::new();
    let mut level = 0i32;
    let mut current = String::new();
    for c in list.chars() {
        match c {
            '<' | '(' | '[' => {
                level += 1;
                current.push(c);
            }
            '>' | ')' | ']' => {
                level -= 1;
                current.push(c);
            }
            ',' if level <= 0 => {
                push_param(&mut params, &current);
                current.clear();
            }
            _ => current.push(c),
        }
    }
    push_param(&mut params, &current);
    params
}

fn push_param(params: &mut Vec<String>, piece: &str) {
    let piece = piece.trim();
    if piece.is_empty() {
        return;
    }
    let head = piece.split(':').next().unwrap_or("").trim();
    let head = head
        .trim_start_matches("mut ")
        .trim_start_matches("ref ")
        .trim();
    if head == "self" || head == "&self" || head == "&mut self" || head.ends_with(" self") {
        return;
    }
    let name: String = head.chars().take_while(|&c| is_ident_char(c)).collect();
    // Patterns (`(a, b): …`, `_`) record an empty placeholder so later
    // parameters keep their positions.
    if name == "_" || name.is_empty() || !piece.contains(':') {
        params.push(String::new());
    } else {
        params.push(name);
    }
}

// ---------------------------------------------------------------------------
// Body-line scanning
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn scan_body_line(
    file: &SourceFile,
    idx: usize,
    code: &str,
    locks: &BTreeSet<String>,
    field_types: &BTreeMap<String, BTreeSet<String>>,
    krate: &str,
    aliases: &mut BTreeMap<String, String>,
    held: &mut Vec<HeldGuard>,
    sym: &mut FnSym,
) {
    let lineno = idx + 1;
    let held_classes = |held: &Vec<HeldGuard>| -> Vec<String> {
        let mut v: Vec<String> = held.iter().map(|g| g.class.clone()).collect();
        v.sort();
        v.dedup();
        v
    };

    // Explicit early release: `drop(guard)`.
    if let Some(arg) = call_argument(code, "drop(") {
        held.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
    }

    // Alias introduction: a binding whose right-hand side mentions a
    // known lock field (or an existing alias) aliases that class.
    if let Some((names, rhs)) = binding_of(code) {
        if let Some(class) = class_in_expr(&rhs, locks, aliases) {
            // Guard acquisitions are handled below; only alias when the
            // RHS is *not* itself an acquisition (`&self.shards[i]`,
            // `self.rings.get(s)`, a `for`-loop item, …).
            if !ACQUIRE_METHODS.iter().any(|m| rhs.contains(m)) {
                for name in names {
                    aliases.insert(name, class.clone());
                }
            }
        }
    }
    // Closure parameters over a lock container: `container.iter().map(|r| …`.
    for (param, class) in closure_aliases(file, idx, locks, aliases) {
        aliases.insert(param, class);
    }

    // Lock acquisitions.
    for method in ACQUIRE_METHODS {
        let mut search = 0;
        while let Some(found) = code[search..].find(method) {
            let at = search + found;
            search = at + method.len();
            let Some(class) = receiver_class(file, idx, code, at, locks, aliases) else {
                continue;
            };
            let class = format!("{krate}::{class}");
            sym.acquires.push(Acquire {
                class: class.clone(),
                line: lineno,
                held: held_classes(held),
            });
            // A `let`-bound guard stays held to the end of its block;
            // a temporary dies at the end of the statement and is never
            // pushed.
            if let Some((names, rhs)) = binding_of(code) {
                if rhs.contains(method) {
                    let depth_after = current_depth_after(file, idx);
                    held.push(HeldGuard {
                        class,
                        depth: depth_after,
                        binding: names.first().cloned(),
                    });
                }
            }
        }
    }

    // Effect seeds (allocation, clock, blocking, unbounded iteration).
    crate::effects::seed_line(code, lineno, &mut sym.effects);

    // Panic sites.
    for (pat, what) in PANIC_PATTERNS {
        if contains_call(code, pat) {
            sym.panics.push(PanicSite {
                line: lineno,
                what: what.to_string(),
            });
        }
    }

    // Call sites.
    for (callee, qual, at) in call_names(code) {
        let args = if callee == "drop" {
            Vec::new()
        } else {
            call_args(code, at)
        };
        // `Self::helper(…)` names the enclosing impl's type. Method
        // calls qualify by receiver when it is knowable: `self.m()` by
        // the enclosing impl's type, `x.field.m()` by `field`'s declared
        // type(s) (bare-local receivers stay on name resolution — a
        // local's type is not lexically knowable).
        let name_start = at - callee.len();
        let is_method = name_start > 0 && code.as_bytes()[name_start - 1] == b'.';
        let quals: Vec<String> = match qual.as_deref() {
            Some("Self") => sym.owner.clone().into_iter().collect(),
            Some(q) => vec![q.to_string()],
            None => {
                if is_method {
                    let mut recv = receiver_path(code, name_start - 1);
                    if recv.is_empty() {
                        // Chained across lines: the previous line carries
                        // the receiver tail.
                        recv = chain_receiver(file, idx);
                    }
                    if recv == "self" {
                        sym.owner.clone().into_iter().collect()
                    } else if let Some((_, field)) = recv.rsplit_once('.') {
                        Some(field)
                            .filter(|f| !f.is_empty() && f.chars().all(is_ident_char))
                            .and_then(|f| field_types.get(f))
                            .map(|tys| tys.iter().cloned().collect())
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    }
                } else {
                    Vec::new()
                }
            }
        };
        sym.calls.push(CallSite {
            callee,
            quals,
            line: lineno,
            bare: qual.is_none() && !is_method,
            held: held_classes(held),
            args,
        });
    }
}

/// The brace depth delta of all lines up to and including `idx`, used to
/// stamp a guard's closing depth. Guards pushed on a line live until the
/// depth drops below the depth *after* that line (so an `if let` guard
/// dies with its block, and a plain `let` dies with the enclosing one).
fn current_depth_after(file: &SourceFile, idx: usize) -> i32 {
    let mut d = 0;
    for line in &file.lines[..=idx] {
        d += brace_delta(&line.code);
    }
    d
}

/// `let [mut] name = <rhs>` / `let Some(name) = <rhs>` /
/// `for name in <rhs>` → (introduced names, rhs text).
fn binding_of(code: &str) -> Option<(Vec<String>, String)> {
    let trimmed = code.trim_start();
    if let Some(rest) = trimmed.strip_prefix("for ") {
        let in_at = rest.find(" in ")?;
        let pat = &rest[..in_at];
        let rhs = rest[in_at + 4..].trim_end_matches('{').trim().to_string();
        return Some((pattern_names(pat), rhs));
    }
    let let_at = find_let(trimmed)?;
    let rest = &trimmed[let_at + 4..];
    let eq = top_level_eq(rest)?;
    let pat = &rest[..eq];
    let rhs = rest[eq + 1..].trim().trim_end_matches(';').to_string();
    Some((pattern_names(pat), rhs))
}

/// Position of a `let ` that starts a binding (start of line, or after
/// `if `/`while `/`else `/`{`).
fn find_let(trimmed: &str) -> Option<usize> {
    for prefix in ["let ", "if let ", "while let ", "else if let "] {
        if trimmed.starts_with(prefix) {
            return Some(prefix.len() - 4);
        }
    }
    None
}

/// The first top-level `=` that is an assignment (not `==`, `=>`, `<=`,
/// `>=`, `!=`).
fn top_level_eq(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        let next = bytes.get(i + 1).copied().unwrap_or(b' ');
        if prev != b'='
            && prev != b'<'
            && prev != b'>'
            && prev != b'!'
            && next != b'='
            && next != b'>'
        {
            return Some(i);
        }
    }
    None
}

/// Identifier names introduced by a binding pattern (`mut x`, `Some(x)`,
/// `(a, b)`, `Ok(mut y)`).
fn pattern_names(pat: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut current = String::new();
    for c in pat.chars().chain(std::iter::once(' ')) {
        if is_ident_char(c) {
            current.push(c);
        } else {
            if !current.is_empty()
                && current != "mut"
                && current != "ref"
                && current != "_"
                && !current
                    .chars()
                    .next()
                    .is_some_and(|f| f.is_ascii_uppercase())
            {
                names.push(current.clone());
            }
            current.clear();
        }
    }
    names
}

/// For `drop(x)`-shaped calls, the single bare-identifier argument.
fn call_argument(code: &str, pat: &str) -> Option<String> {
    let at = code.find(pat)?;
    if at > 0 && is_ident_char(code[..at].chars().next_back().unwrap_or(' ')) {
        return None;
    }
    let rest = &code[at + pat.len()..];
    let close = rest.find(')')?;
    let arg = rest[..close].trim();
    arg.chars()
        .all(is_ident_char)
        .then(|| arg.to_string())
        .filter(|a| !a.is_empty())
}

/// The lock class referenced anywhere in an expression: a known lock
/// field (`self.shards`, `bus_dir`) or an existing alias.
fn class_in_expr(
    expr: &str,
    locks: &BTreeSet<String>,
    aliases: &BTreeMap<String, String>,
) -> Option<String> {
    for token in ident_tokens(expr) {
        if locks.contains(&token) {
            return Some(token);
        }
        if let Some(class) = aliases.get(&token) {
            return Some(class.clone());
        }
    }
    None
}

fn ident_tokens(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for c in s.chars().chain(std::iter::once(' ')) {
        if is_ident_char(c) {
            current.push(c);
        } else {
            if !current.is_empty() && !current.chars().next().is_some_and(|f| f.is_ascii_digit()) {
                out.push(current.clone());
            }
            current.clear();
        }
    }
    out
}

/// Resolves the receiver of an acquisition at byte offset `at` to a lock
/// class: the dotted receiver path is peeled of indexes and tuple
/// projections, each segment is checked against lock fields and aliases,
/// and a multi-line chain falls back to a short look-behind within the
/// statement.
fn receiver_class(
    file: &SourceFile,
    idx: usize,
    code: &str,
    at: usize,
    locks: &BTreeSet<String>,
    aliases: &BTreeMap<String, String>,
) -> Option<String> {
    let recv = receiver_path(code, at);
    // stdio locks are not shared-state locks.
    if recv.contains("stdout") || recv.contains("stderr") || recv.contains("stdin") {
        return None;
    }
    if let Some(class) = class_in_expr(&recv, locks, aliases) {
        return Some(class);
    }
    // Chained across lines: look back a few lines within this statement.
    if recv.is_empty() || code[..at].trim_start().starts_with('.') {
        for prev in file.lines[idx.saturating_sub(4)..idx].iter().rev() {
            let p = prev.code.trim_end();
            if p.ends_with(';') || p.ends_with('{') || p.ends_with('}') {
                break;
            }
            if let Some(class) = class_in_expr(p, locks, aliases) {
                return Some(class);
            }
        }
    }
    None
}

/// The receiver tail carried over from the previous line of a rustfmt
/// method chain (`state\n    .tracker\n    .trajectory()`): the dotted
/// path at the previous line's end, or nothing when that line terminates
/// a statement or ends in a call result.
fn chain_receiver(file: &SourceFile, idx: usize) -> String {
    if idx == 0 {
        return String::new();
    }
    let prev = file.lines[idx - 1].code.trim_end();
    if prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}') || prev.ends_with(')') {
        return String::new();
    }
    receiver_path(prev, prev.len())
}

/// The dotted receiver path immediately before byte offset `at`:
/// identifiers, `.`, numeric tuple projections, and `[…]` indexes (whose
/// contents are skipped).
fn receiver_path(code: &str, at: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = at;
    let mut depth = 0i32;
    while i > 0 {
        let c = bytes[i - 1] as char;
        match c {
            ']' => {
                depth += 1;
                i -= 1;
            }
            '[' if depth > 0 => {
                depth -= 1;
                i -= 1;
            }
            ')' => break, // call-result receivers resolve via look-behind
            _ if depth > 0 => i -= 1,
            _ if is_ident_char(c) || c == '.' => i -= 1,
            _ => break,
        }
    }
    code[i..at].to_string()
}

/// Closure parameters iterating a lock container on this statement:
/// `<container>…|param|` where the statement mentions a lock field.
fn closure_aliases(
    file: &SourceFile,
    idx: usize,
    locks: &BTreeSet<String>,
    aliases: &BTreeMap<String, String>,
) -> Vec<(String, String)> {
    let code = &file.lines[idx].code;
    let Some(open) = code.find('|') else {
        return Vec::new();
    };
    let Some(close_rel) = code[open + 1..].find('|') else {
        return Vec::new();
    };
    let params = &code[open + 1..open + 1 + close_rel];
    if params.contains("||") || params.is_empty() {
        return Vec::new();
    }
    // The container is named either earlier on this line or on the
    // preceding lines of the same statement.
    let mut class = class_in_expr(&code[..open], locks, aliases);
    if class.is_none() {
        for prev in file.lines[idx.saturating_sub(3)..idx].iter().rev() {
            let p = prev.code.trim_end();
            if p.ends_with(';') || p.ends_with('{') || p.ends_with('}') {
                break;
            }
            class = class_in_expr(p, locks, aliases);
            if class.is_some() {
                break;
            }
        }
    }
    let Some(class) = class else {
        return Vec::new();
    };
    pattern_names(params)
        .into_iter()
        .map(|p| (p, class.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// Call-name extraction
// ---------------------------------------------------------------------------

/// Every `name(` call on a line: free functions, `Type::name(`, and
/// `.name(` method calls. Returns (simple name, `Type::` qualifier if
/// any, byte offset of `(`).
fn call_names(code: &str) -> Vec<(String, Option<String>, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' || i == 0 {
            continue;
        }
        let name = crate::rules::ident_before(code, i);
        if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        // Macro invocations (`panic!(`) are panic sites, not calls;
        // keywords are control flow.
        if code[..i].ends_with(&format!("{name}!")) {
            continue;
        }
        let before = code[..i - name.len()].trim_end();
        if before.ends_with('!') || CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // Definitions are not calls.
        if before.ends_with("fn") {
            continue;
        }
        // `Type::name(` — keep the (uppercase-initial) path qualifier;
        // lowercase qualifiers are module paths, which simple-name
        // resolution handles as well as it ever will.
        let qual = code[..i - name.len()]
            .strip_suffix("::")
            .map(|head| crate::rules::ident_before(head, head.len()))
            .filter(|q| q.chars().next().is_some_and(|c| c.is_ascii_uppercase()));
        out.push((name, qual, i));
    }
    out
}

/// Argument expressions of the call whose `(` sits at `open`, when the
/// closing paren is on the same line. Top-level-comma split; nested
/// parens/brackets/generics respected.
fn call_args(code: &str, open: usize) -> Vec<String> {
    let mut depth = 0i32;
    let mut end = None;
    for (i, c) in code[open..].char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(end) = end else {
        return Vec::new();
    };
    let list = &code[open + 1..end];
    if list.trim().is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut level = 0i32;
    let mut current = String::new();
    for c in list.chars() {
        match c {
            '(' | '[' | '{' => {
                level += 1;
                current.push(c);
            }
            ')' | ']' | '}' => {
                level -= 1;
                current.push(c);
            }
            ',' if level <= 0 => {
                out.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    out.push(current.trim().to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;
    use crate::rules::FileContext;

    fn table(src: &str) -> SymbolTable {
        let file = SourceFile::parse("crates/core/src/t.rs", src);
        SymbolTable::build(&[(file, FileContext::all())])
    }

    #[test]
    fn extracts_fns_params_and_visibility() {
        let t = table(
            "pub fn serve(a_dbm: f64, b: u32) -> u32 { helper(a_dbm) }\nfn helper(x_m: f64) -> u32 { 0 }\n",
        );
        assert_eq!(t.fns.len(), 2);
        assert!(t.fns[0].is_pub && !t.fns[1].is_pub);
        assert_eq!(t.fns[0].params, vec!["a_dbm".to_string(), "b".to_string()]);
        assert_eq!(t.fns[0].calls.len(), 1);
        assert_eq!(t.fns[0].calls[0].callee, "helper");
        assert_eq!(t.fns[0].calls[0].args, vec!["a_dbm".to_string()]);
    }

    #[test]
    fn tracks_held_guards_across_acquisitions() {
        let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    fn nested(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(ga);
        let ga2 = self.a.lock();
    }
}
";
        let t = table(src);
        let f = t.fns.iter().find(|f| f.name == "nested").expect("fn");
        assert_eq!(f.acquires.len(), 3);
        assert!(f.acquires[0].held.is_empty());
        assert_eq!(f.acquires[1].held, vec!["core::a".to_string()]);
        // After drop(ga) only b is held.
        assert_eq!(f.acquires[2].held, vec!["core::b".to_string()]);
    }

    #[test]
    fn temporaries_do_not_stay_held() {
        let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    fn temps(&self) {
        self.a.lock().unwrap();
        let gb = self.b.lock();
    }
}
";
        let t = table(src);
        let f = t.fns.iter().find(|f| f.name == "temps").expect("fn");
        assert!(f.acquires[1].held.is_empty(), "{:?}", f.acquires);
    }

    #[test]
    fn guards_die_with_their_block() {
        let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
impl S {
    fn scoped(&self) {
        let idx = {
            let ga = self.a.lock();
            0
        };
        let gb = self.b.lock();
    }
}
";
        let t = table(src);
        let f = t.fns.iter().find(|f| f.name == "scoped").expect("fn");
        let b = f.acquires.iter().find(|a| a.class == "core::b").expect("b");
        assert!(b.held.is_empty(), "{:?}", f.acquires);
    }

    #[test]
    fn aliases_resolve_indexed_and_looped_receivers() {
        let src = "\
struct S { shards: Vec<std::sync::RwLock<u32>> }
impl S {
    fn go(&self) {
        let lock = &self.shards[0];
        let g = lock.write();
        for l in &self.shards {
            l.read();
        }
    }
}
";
        let t = table(src);
        let f = t.fns.iter().find(|f| f.name == "go").expect("fn");
        assert_eq!(f.acquires.len(), 2);
        assert!(f.acquires.iter().all(|a| a.class == "core::shards"));
    }

    #[test]
    fn panic_sites_and_held_calls_are_recorded() {
        let src = "\
struct S { a: std::sync::Mutex<u32> }
impl S {
    fn go(&self) {
        let g = self.a.lock();
        callee_under_lock();
        x.unwrap();
    }
}
";
        let t = table(src);
        let f = t.fns.iter().find(|f| f.name == "go").expect("fn");
        assert_eq!(f.panics.len(), 1);
        let call = f.calls.iter().find(|c| c.callee == "callee_under_lock");
        assert_eq!(call.expect("call").held, vec!["core::a".to_string()]);
    }
}
