//! Allow-pragma parsing and bookkeeping.
//!
//! A pragma suppresses one rule on the line it sits on (trailing comment)
//! or, when it occupies its own line, on the next code line:
//!
//! ```text
//! // lint: allow(unordered_iter) — summed into a commutative integer total
//! for v in map.values() { total += v; }
//! ```
//!
//! W005 enforces hygiene: the rule slug must exist, a reason must follow,
//! and the pragma must actually suppress something.

use crate::diag::{Rule, Violation};
use crate::lexer::SourceFile;

/// One parsed pragma occurrence.
#[derive(Debug)]
pub struct Pragma {
    pub file: String,
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// The rule it names, if the slug is valid.
    pub rule: Option<Rule>,
    /// The raw slug text inside `allow(…)`.
    pub slug: String,
    /// The reason text after the closing paren, dashes stripped.
    pub reason: String,
    /// Set when a rule consults this pragma and suppresses a violation.
    pub used: bool,
}

/// All pragmas in a file set, with lookup by (file, line).
#[derive(Debug, Default)]
pub struct PragmaSet {
    pragmas: Vec<Pragma>,
}

const MARKER: &str = "lint: allow(";

impl PragmaSet {
    /// Scans `files` for `lint: allow(…)` comments.
    pub fn collect<'a>(files: impl IntoIterator<Item = &'a SourceFile>) -> Self {
        let mut pragmas = Vec::new();
        for file in files {
            for (idx, line) in file.lines.iter().enumerate() {
                let Some(start) = line.comment.find(MARKER) else {
                    continue;
                };
                let rest = &line.comment[start + MARKER.len()..];
                let (slug, reason) = match rest.find(')') {
                    Some(close) => {
                        let slug = rest[..close].trim().to_string();
                        let tail = rest[close + 1..]
                            .trim_start_matches([' ', '\u{2014}', '-', ':', '\u{2013}'])
                            .trim();
                        (slug, tail.to_string())
                    }
                    None => (rest.trim().to_string(), String::new()),
                };
                pragmas.push(Pragma {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: Rule::from_slug(&slug),
                    slug,
                    reason,
                    used: false,
                });
            }
        }
        Self { pragmas }
    }

    /// True (and marks the pragma used) if a pragma for `rule` covers
    /// 1-based `line` in `file` — either on the line itself or on the
    /// immediately preceding line.
    pub fn allows(&mut self, rule: Rule, file: &str, line: usize) -> bool {
        let mut hit = false;
        for p in &mut self.pragmas {
            if p.rule == Some(rule)
                && p.file == file
                && !p.reason.is_empty()
                && (p.line == line || p.line + 1 == line)
            {
                p.used = true;
                hit = true;
            }
        }
        hit
    }

    /// W005: report malformed (unknown slug / missing reason) and unused
    /// pragmas. Call after every other rule has run.
    pub fn hygiene_violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for p in &self.pragmas {
            if p.rule.is_none() {
                out.push(
                    Violation::new(
                        Rule::PragmaHygiene,
                        &p.file,
                        p.line,
                        format!("pragma names unknown rule `{}`", p.slug),
                    )
                    .with_note("valid slugs: unordered_iter, panic_in_library, atomic_ordering, pragma_hygiene, span_discipline, lock_order, unit_dataflow, transitive_panic, raw_sync, metric_hygiene, hot_path_effects, read_path_purity"),
                );
            } else if p.reason.is_empty() {
                out.push(
                    Violation::new(
                        Rule::PragmaHygiene,
                        &p.file,
                        p.line,
                        format!("pragma `allow({})` carries no reason", p.slug),
                    )
                    .with_note("write `// lint: allow(<rule>) — <why this is sound>`"),
                );
            } else if !p.used {
                out.push(
                    Violation::new(
                        Rule::PragmaHygiene,
                        &p.file,
                        p.line,
                        format!("pragma `allow({})` suppresses nothing", p.slug),
                    )
                    .with_note("delete the stale pragma or move it to the offending line"),
                );
            }
        }
        out
    }
}
