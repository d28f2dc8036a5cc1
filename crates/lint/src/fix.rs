//! The `--fix` engine: derivation, application, and dry-run diffs.
//!
//! Fixes come in two tiers. **Safe** fixes are mechanical and
//! semantics-preserving under the rule's own contract — `--fix` applies
//! them to disk:
//!
//! * W003: a stronger-than-Relaxed ordering on an observability atomic
//!   becomes `Ordering::Relaxed` (the rule's whole claim is that Relaxed
//!   suffices for monotonic counters).
//! * W005: a stale pragma that suppresses nothing is deleted (the whole
//!   line when the pragma stands alone, just the trailing comment when it
//!   rides a code line).
//!
//! **Suggestions** (e.g. W008's suffix-normalizing renames) appear in the
//! `--fix --dry-run` diff as commentary but are never applied: a rename
//! touches every use site and deserves review.
//!
//! Edits target the **raw** line text the lexer retained, so comments and
//! string contents survive untouched. Application is bottom-up per file
//! so earlier edits never shift later line numbers.

use crate::diag::{FixKind, Rule, Violation};
use crate::lexer::SourceFile;
use crate::rules::FileContext;
use std::collections::BTreeMap;
use std::path::Path;

/// Derives fixes for violations that support them, in place. Violations
/// produced with a fix already attached (W008 renames) are left alone.
pub fn attach_fixes(files: &[(SourceFile, FileContext)], violations: &mut [Violation]) {
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|(f, _)| (f.path.as_str(), f)).collect();
    for v in violations.iter_mut() {
        if v.fix.is_some() {
            continue;
        }
        let Some(file) = by_path.get(v.file.as_str()) else {
            continue;
        };
        let Some(line) = file.lines.get(v.line.saturating_sub(1)) else {
            continue;
        };
        match v.rule {
            Rule::AtomicOrdering => {
                // Part-1 messages name the offending ordering in backticks.
                let Some(strong) = v
                    .message
                    .strip_prefix('`')
                    .and_then(|m| m.split('`').next())
                else {
                    continue;
                };
                if strong.starts_with("Ordering::") && line.raw.contains(strong) {
                    v.fix = Some(crate::diag::FixEdit {
                        kind: FixKind::ReplaceSubstr {
                            find: strong.to_string(),
                            replace: "Ordering::Relaxed".to_string(),
                        },
                        safe: true,
                    });
                }
            }
            Rule::PragmaHygiene if v.message.contains("suppresses nothing") => {
                let trimmed = line.raw.trim_start();
                if trimmed.starts_with("//") {
                    v.fix = Some(crate::diag::FixEdit {
                        kind: FixKind::DeleteLine,
                        safe: true,
                    });
                } else if let Some(cut) = comment_start(&line.raw) {
                    v.fix = Some(crate::diag::FixEdit {
                        kind: FixKind::ReplaceLine {
                            new: line.raw[..cut].trim_end().to_string(),
                        },
                        safe: true,
                    });
                }
            }
            _ => {}
        }
    }
}

/// Byte offset where the trailing `//` comment starts on a raw line,
/// using the blanked `code` text (so `//` inside a string never counts).
fn comment_start(raw: &str) -> Option<usize> {
    // The pragma marker lives in the comment; find the last `//` whose
    // remainder carries it.
    let mut best = None;
    let mut search = 0;
    while let Some(found) = raw[search..].find("//") {
        let at = search + found;
        if raw[at..].contains("lint: allow(") {
            best = Some(at);
        }
        search = at + 2;
    }
    best
}

/// One file's worth of pending edits: (1-based line, fix, rule).
type FilePlan<'a> = Vec<(usize, &'a crate::diag::FixEdit, Rule)>;

/// Groups the safe fixes by file, bottom-up within each file.
fn plan(violations: &[Violation], safe_only: bool) -> BTreeMap<&str, FilePlan<'_>> {
    let mut by_file: BTreeMap<&str, FilePlan<'_>> = BTreeMap::new();
    for v in violations {
        let Some(fix) = &v.fix else { continue };
        if safe_only && !fix.safe {
            continue;
        }
        by_file
            .entry(&v.file)
            .or_default()
            .push((v.line, fix, v.rule));
    }
    for edits in by_file.values_mut() {
        edits.sort_by_key(|e| std::cmp::Reverse(e.0));
        edits.dedup_by(|a, b| a.0 == b.0); // one edit per line
    }
    by_file
}

/// Applies an edit to the line vector (0-based index already resolved).
fn apply_edit(lines: &mut Vec<String>, idx: usize, fix: &crate::diag::FixEdit) -> bool {
    match &fix.kind {
        FixKind::ReplaceSubstr { find, replace } => {
            let Some(at) = lines[idx].find(find.as_str()) else {
                return false;
            };
            lines[idx].replace_range(at..at + find.len(), replace);
            true
        }
        FixKind::ReplaceLine { new } => {
            lines[idx] = new.clone();
            true
        }
        FixKind::DeleteLine => {
            lines.remove(idx);
            true
        }
    }
}

/// Applies all safe fixes to disk, resolving each violation's
/// workspace-relative path against `root`. Returns the number of edits
/// applied.
pub fn apply_to_disk(root: &Path, violations: &[Violation]) -> std::io::Result<usize> {
    let mut applied = 0;
    for (rel, edits) in plan(violations, true) {
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path)?;
        let had_trailing_newline = text.ends_with('\n');
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut touched = false;
        for (lineno, fix, _) in edits {
            if lineno == 0 || lineno > lines.len() {
                continue;
            }
            if apply_edit(&mut lines, lineno - 1, fix) {
                applied += 1;
                touched = true;
            }
        }
        if touched {
            let mut out = lines.join("\n");
            if had_trailing_newline {
                out.push('\n');
            }
            std::fs::write(&path, out)?;
        }
    }
    Ok(applied)
}

/// Renders the dry-run report: a unified-style diff of every safe fix,
/// followed by suggestion commentary. Empty when there is nothing to do —
/// which is exactly what CI asserts on a clean tree.
pub fn dry_run(root: &Path, violations: &[Violation]) -> String {
    let mut out = String::new();
    for (rel, edits) in plan(violations, false) {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let lines: Vec<&str> = text.lines().collect();
        // Present top-down for reading, even though application order is
        // bottom-up.
        let mut hunks = String::new();
        let mut suggestions = String::new();
        for (lineno, fix, rule) in edits.iter().rev() {
            let Some(old) = lines.get(lineno - 1) else {
                continue;
            };
            let mut patched = vec![old.to_string()];
            let ok = apply_edit(&mut patched, 0, fix);
            if !ok {
                continue;
            }
            if fix.safe {
                hunks.push_str(&format!("@@ -{lineno} +{lineno} @@ [{}]\n", rule.code()));
                hunks.push_str(&format!("-{old}\n"));
                for new in &patched {
                    hunks.push_str(&format!("+{new}\n"));
                }
                if patched.is_empty() {
                    // DeleteLine: nothing to add.
                }
            } else {
                suggestions.push_str(&format!(
                    "# suggestion [{}] {rel}:{lineno}: {}\n",
                    rule.code(),
                    match &fix.kind {
                        FixKind::ReplaceSubstr { find, replace } =>
                            format!("rename `{find}` to `{replace}` (all use sites)"),
                        FixKind::ReplaceLine { new } => format!("rewrite as `{}`", new.trim()),
                        FixKind::DeleteLine => "delete this line".to_string(),
                    }
                ));
            }
        }
        if !hunks.is_empty() {
            out.push_str(&format!("--- a/{rel}\n+++ b/{rel}\n{hunks}"));
        }
        out.push_str(&suggestions);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::lexer::SourceFile;
    use crate::rules::FileContext;

    fn analyzed(path: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile::parse(path, src);
        analyze(&[(file, FileContext::all())])
    }

    #[test]
    fn stale_pragma_on_own_line_gets_delete_fix() {
        let src =
            "// lint: allow(unordered_iter) — left over from a refactor\nfn f() -> u32 { 0 }\n";
        let v = analyzed("fixture.rs", src);
        let stale = v
            .iter()
            .find(|v| v.message.contains("suppresses nothing"))
            .expect("stale pragma violation");
        let fix = stale.fix.as_ref().expect("fix");
        assert!(fix.safe);
        assert_eq!(fix.kind, FixKind::DeleteLine);
    }

    #[test]
    fn trailing_stale_pragma_strips_only_the_comment() {
        let src = "fn f() -> u32 { 0 } // lint: allow(unordered_iter) — stale\n";
        let v = analyzed("fixture.rs", src);
        let stale = v
            .iter()
            .find(|v| v.message.contains("suppresses nothing"))
            .expect("stale pragma violation");
        match &stale.fix.as_ref().expect("fix").kind {
            FixKind::ReplaceLine { new } => assert_eq!(new, "fn f() -> u32 { 0 }"),
            other => panic!("unexpected fix {other:?}"),
        }
    }

    #[test]
    fn strong_ordering_gets_relaxed_fix() {
        let src = "fn bump(c: &std::sync::atomic::AtomicU64) {\n    c.fetch_add(1, Ordering::SeqCst);\n}\n";
        let v = analyzed("fixture.rs", src);
        let strong = v
            .iter()
            .find(|v| v.rule == Rule::AtomicOrdering)
            .expect("ordering violation");
        match &strong.fix.as_ref().expect("fix").kind {
            FixKind::ReplaceSubstr { find, replace } => {
                assert_eq!(find, "Ordering::SeqCst");
                assert_eq!(replace, "Ordering::Relaxed");
            }
            other => panic!("unexpected fix {other:?}"),
        }
    }

    #[test]
    fn apply_edit_variants() {
        let mut lines = vec!["let a = b;".to_string(), "gone".to_string()];
        assert!(apply_edit(
            &mut lines,
            0,
            &crate::diag::FixEdit {
                kind: FixKind::ReplaceSubstr {
                    find: "b".into(),
                    replace: "c".into()
                },
                safe: true
            }
        ));
        assert_eq!(lines[0], "let a = c;");
        assert!(apply_edit(
            &mut lines,
            1,
            &crate::diag::FixEdit {
                kind: FixKind::DeleteLine,
                safe: true
            }
        ));
        assert_eq!(lines.len(), 1);
    }
}
