//! Rule identifiers and rustc-style diagnostics.

use std::fmt;

/// The lint rules. Each has a code (`W00x`) used in diagnostics and a
/// slug used in `// lint: allow(<slug>) — <reason>` pragmas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// W001: iteration over `HashMap`/`HashSet` in a deterministic crate
    /// without an order-insensitive sink.
    UnorderedIter,
    /// W002: a literal slice index (`v[0]`) in non-test library code of
    /// a serving crate. The panicking calls are clippy's to deny.
    PanicInLibrary,
    /// W003: atomic orderings stronger than `Relaxed`, or undocumented
    /// cross-field atomic read sequences, in `crates/obs`.
    AtomicOrdering,
    /// W005: malformed, unknown, or unused allow pragmas.
    PragmaHygiene,
    /// W006: a span-starting call whose RAII guard is discarded or
    /// dropped at the end of its own statement (zero-width span).
    SpanDiscipline,
    /// W007: a cycle in the interprocedural lock-acquisition order graph
    /// (two paths that take the same locks in opposite order).
    LockOrder,
    /// W008: arithmetic or comparison mixing operands whose identifier
    /// suffixes imply different physical units (`_dbm` + `_m`, …).
    UnitDataflow,
    /// W009: a panic site in a callee reachable from a `pub` entry point
    /// of a serving crate.
    TransitivePanic,
    /// W010: a sync-layer module (one whose primitives the model checker
    /// virtualises) naming `std::sync` lock/atomic types directly
    /// instead of importing them through `crate::sync`.
    RawSync,
    /// W011: a registered metric family whose name is not snake_case or
    /// whose suffix names no unit (W008 table) and no dimensionless
    /// convention (`_total`, `_bytes`, `_ratio`, `_info`).
    MetricHygiene,
    /// W012: a declared hot entry point (one carrying a
    /// `// lint: hot_path(deny: …)` budget annotation) transitively
    /// reaches an effect its budget denies.
    HotPathEffects,
    /// W013: a `QuerySnapshot` reader method or `serve` request handler
    /// carries read-path-hostile effects (ingest locks, blocking,
    /// unbounded iteration) beyond the documented one-slot read-lock +
    /// `Arc` clone.
    ReadPathPurity,
}

pub const ALL_RULES: [Rule; 12] = [
    Rule::UnorderedIter,
    Rule::PanicInLibrary,
    Rule::AtomicOrdering,
    Rule::PragmaHygiene,
    Rule::SpanDiscipline,
    Rule::LockOrder,
    Rule::UnitDataflow,
    Rule::TransitivePanic,
    Rule::RawSync,
    Rule::MetricHygiene,
    Rule::HotPathEffects,
    Rule::ReadPathPurity,
];

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "W001",
            Rule::PanicInLibrary => "W002",
            Rule::AtomicOrdering => "W003",
            Rule::PragmaHygiene => "W005",
            Rule::SpanDiscipline => "W006",
            Rule::LockOrder => "W007",
            Rule::UnitDataflow => "W008",
            Rule::TransitivePanic => "W009",
            Rule::RawSync => "W010",
            Rule::MetricHygiene => "W011",
            Rule::HotPathEffects => "W012",
            Rule::ReadPathPurity => "W013",
        }
    }

    pub fn slug(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered_iter",
            Rule::PanicInLibrary => "panic_in_library",
            Rule::AtomicOrdering => "atomic_ordering",
            Rule::PragmaHygiene => "pragma_hygiene",
            Rule::SpanDiscipline => "span_discipline",
            Rule::LockOrder => "lock_order",
            Rule::UnitDataflow => "unit_dataflow",
            Rule::TransitivePanic => "transitive_panic",
            Rule::RawSync => "raw_sync",
            Rule::MetricHygiene => "metric_hygiene",
            Rule::HotPathEffects => "hot_path_effects",
            Rule::ReadPathPurity => "read_path_purity",
        }
    }

    pub fn from_slug(slug: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.slug() == slug)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A machine-applicable (or suggestion-only) edit attached to a
/// diagnostic. The edit targets the raw text of the violation's line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixKind {
    /// Replace the first occurrence of `find` on the line with `replace`.
    ReplaceSubstr { find: String, replace: String },
    /// Replace the whole line (indentation included) with `new`.
    ReplaceLine { new: String },
    /// Delete the line entirely.
    DeleteLine,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixEdit {
    pub kind: FixKind,
    /// `true`: semantics-preserving, `--fix` applies it. `false`: a
    /// suggestion (e.g. a rename) — shown in the `--fix --dry-run` diff
    /// as a comment, never applied.
    pub safe: bool,
}

/// One diagnostic: rule, location, message, optional help note and fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    pub note: Option<String>,
    pub fix: Option<FixEdit>,
}

impl Violation {
    pub fn new(rule: Rule, file: &str, line: usize, message: impl Into<String>) -> Self {
        Self {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
            note: None,
            fix: None,
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    pub fn with_fix(mut self, kind: FixKind, safe: bool) -> Self {
        self.fix = Some(FixEdit { kind, safe });
        self
    }

    /// Renders the diagnostic in rustc style:
    ///
    /// ```text
    /// error[W001]: iteration over HashMap `by_edge` is order-sensitive
    ///   --> crates/core/src/history.rs:90
    ///   = help: sort the keys or use a BTreeMap
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "error[{}]: {}\n  --> {}:{}",
            self.rule.code(),
            self.message,
            self.file,
            self.line
        );
        if let Some(note) = &self.note {
            out.push_str(&format!("\n  = help: {note}"));
        }
        out
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}
