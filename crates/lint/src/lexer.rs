//! A lightweight line-oriented lexer for Rust source.
//!
//! The analyzer does not need a full parse tree; it needs, per line:
//! the code text with string/char literals blanked and comments removed
//! (so pattern matches never fire inside literals), the comment text (so
//! pragmas and doc comments can be read), and whether the line sits inside
//! test-only code (`#[cfg(test)]` modules or `#[test]` functions).
//!
//! Comment and string state carries across lines, so block comments and
//! multi-line string literals are handled correctly.

/// One source line after lexing.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code with comments stripped and string/char literal *contents*
    /// blanked (the delimiting quotes are kept so `.expect("")`-style
    /// patterns still show the call shape).
    pub code: String,
    /// The original line text, untouched. The autofix engine edits raw
    /// text, never the blanked form.
    pub raw: String,
    /// Comment text on the line (`//`, `///`, `//!`, or block-comment
    /// content), without the comment markers.
    pub comment: String,
    /// True if the comment is a doc comment (`///`, `//!`, `/**`, `/*!`).
    pub is_doc: bool,
    /// True if the line is inside `#[cfg(test)]` or `#[test]` scope.
    /// Filled in by `mark_test_scopes`.
    pub is_test: bool,
    /// Identifier tokens of `code` with their byte offsets, tokenized
    /// once at parse time. Every later phase (unit scan, effect
    /// seeding, symbol extraction) shares this stream instead of
    /// re-tokenizing the line; digit-initial tokens (numeric literals)
    /// are excluded.
    pub tokens: Vec<(String, usize)>,
}

/// A lexed source file: the path (workspace-relative where possible) and
/// its lines, 0-indexed (line numbers in diagnostics are `index + 1`).
#[derive(Debug)]
pub struct SourceFile {
    pub path: String,
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Lexes `text` into lines, marks test scopes, and tokenizes each
    /// blanked line once for the shared token stream.
    pub fn parse(path: impl Into<String>, text: &str) -> Self {
        let mut lines = lex(text);
        mark_test_scopes(&mut lines);
        for line in &mut lines {
            line.tokens = tokenize(&line.code);
        }
        Self {
            path: path.into(),
            lines,
        }
    }
}

enum Mode {
    Code,
    /// Block comment at a nesting depth; `bool` marks a doc block
    /// comment (`/**` or `/*!`).
    Block(u32, bool),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string literal closed by `"` followed by this many `#`.
    RawStr(u32),
}

fn lex(text: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    for raw in text.lines() {
        let mut line = Line {
            raw: raw.to_string(),
            ..Line::default()
        };
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match mode {
                Mode::Code => match c {
                    '/' if chars.get(i + 1) == Some(&'/') => {
                        // Line comment; `///` and `//!` are doc comments.
                        let rest: String = chars[i + 2..].iter().collect();
                        let doc_body = match rest.strip_prefix('/') {
                            Some(r) if !rest.starts_with("//") => Some(r),
                            _ => rest.strip_prefix('!'),
                        };
                        match doc_body {
                            Some(body) => {
                                line.is_doc = true;
                                line.comment = body.trim().to_string();
                            }
                            None => line.comment = rest.trim().to_string(),
                        }
                        i = chars.len();
                    }
                    '/' if chars.get(i + 1) == Some(&'*') => {
                        // `/**` (but not the empty `/**/`) and `/*!` open
                        // doc block comments.
                        let third = chars.get(i + 2);
                        let doc = third == Some(&'!')
                            || (third == Some(&'*') && chars.get(i + 3) != Some(&'/'));
                        if doc {
                            line.is_doc = true;
                        }
                        mode = Mode::Block(1, doc);
                        i += 2;
                    }
                    '"' => {
                        line.code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Possible raw / byte string: r"…", r#"…"#, br"…", b"…".
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let prev_ident = i > 0 && is_ident_char(chars[i - 1]);
                        if !prev_ident && chars.get(j) == Some(&'"') && (c != 'b' || j > i + 1) {
                            line.code.push('"');
                            mode = Mode::RawStr(hashes);
                            i = j + 1;
                        } else if !prev_ident && c == 'b' && chars.get(i + 1) == Some(&'"') {
                            line.code.push('"');
                            mode = Mode::Str;
                            i += 2;
                        } else {
                            line.code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime. A char literal closes with
                        // a `'` shortly after; a lifetime does not.
                        if chars.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: the escaped character
                            // sits at i + 2 and may itself be `'` (as in
                            // `'\''`), so the closing-quote scan starts
                            // one past it.
                            let mut j = i + 3;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            line.code.push_str("''");
                            i = j + 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            line.code.push_str("''");
                            i += 3;
                        } else {
                            // Lifetime: keep as-is.
                            line.code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        line.code.push(c);
                        i += 1;
                    }
                },
                Mode::Block(depth, doc) => {
                    if doc {
                        line.is_doc = true;
                    }
                    if chars.get(i) == Some(&'*') && chars.get(i + 1) == Some(&'/') {
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(depth - 1, doc)
                        };
                        i += 2;
                    } else if chars.get(i) == Some(&'/') && chars.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1, doc);
                        i += 2;
                    } else {
                        line.comment.push(c);
                        i += 1;
                    }
                }
                Mode::Str => match c {
                    '\\' => i += 2,
                    '"' => {
                        line.code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    }
                    _ => i += 1,
                },
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes as usize {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            line.code.push('"');
                            mode = Mode::Code;
                            i += 1 + hashes as usize;
                        } else {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
        }
        line.comment = line.comment.trim().to_string();
        lines.push(line);
    }
    lines
}

pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Identifier tokens of a blanked code line with their byte offsets.
/// Digit-initial runs (numeric literals) are dropped.
fn tokenize(code: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code
        .char_indices()
        .chain(std::iter::once((code.len(), ' ')))
    {
        if is_ident_char(c) {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            let tok = &code[s..i];
            if !tok.starts_with(|c: char| c.is_ascii_digit()) {
                out.push((tok.to_string(), s));
            }
        }
    }
    out
}

/// Marks lines inside `#[cfg(test)]` scopes and `#[test]` functions.
///
/// Brace-depth tracking over the blanked code text: when an opening brace
/// follows a pending test attribute (within the attribute's item), every
/// line until the matching close is test-only. Nested scopes inherit.
fn mark_test_scopes(lines: &mut [Line]) {
    // Stack entry per open brace: is the scope test-only?
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_test = false;
    for line in lines.iter_mut() {
        let code = line.code.trim().to_string();
        // A line is test code if any enclosing scope is test-only.
        let inherited = stack.iter().any(|&t| t);
        line.is_test = inherited || (pending_test && !code.is_empty());
        if code.starts_with("#[") {
            if code.contains("cfg(test)") || code == "#[test]" || code.starts_with("#[test]") {
                pending_test = true;
            }
            continue;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    // The first brace after a test attribute opens the
                    // attributed item's scope; nested braces inherit from
                    // the stack once it is pushed.
                    let test = pending_test || stack.iter().any(|&t| t);
                    pending_test = false;
                    stack.push(test);
                }
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        // A non-empty, non-attribute line without braces consumes the
        // pending attribute only if it terminates the item (e.g. a
        // semicolon-only item); signatures spanning lines keep it pending.
        if pending_test && !code.is_empty() && code.ends_with(';') {
            pending_test = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::parse(
            "t.rs",
            "let x = \"a // not a comment\"; // real comment\nlet y = 'z';",
        );
        assert_eq!(f.lines[0].code.trim(), "let x = \"\";");
        assert_eq!(f.lines[0].comment, "real comment");
        assert_eq!(f.lines[1].code.trim(), "let y = '';");
    }

    #[test]
    fn block_comments_span_lines() {
        let f = SourceFile::parse("t.rs", "a /* one\ntwo */ b");
        assert_eq!(f.lines[0].code.trim(), "a");
        assert_eq!(f.lines[1].code.trim(), "b");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = SourceFile::parse("t.rs", "let s = r#\"has \"quotes\" and .unwrap()\"#;");
        assert!(!f.lines[0].code.contains("unwrap"));
    }

    #[test]
    fn lifetimes_survive() {
        let f = SourceFile::parse("t.rs", "fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].code.contains("'a"));
    }

    #[test]
    fn cfg_test_scope_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn lib2() {}";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].is_test);
        assert!(f.lines[3].is_test);
        assert!(!f.lines[5].is_test);
    }

    #[test]
    fn test_fn_scope_is_marked() {
        let src = "fn lib() {}\n#[test]\nfn check() {\n    x.unwrap();\n}\nfn lib2() {}";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.lines[3].is_test);
        assert!(!f.lines[5].is_test);
    }

    #[test]
    fn doc_comments_are_flagged() {
        let f = SourceFile::parse("t.rs", "/// docs about tearing\nfn snapshot() {}");
        assert!(f.lines[0].is_doc);
        assert_eq!(f.lines[0].comment, "docs about tearing");
    }

    #[test]
    fn escaped_quote_char_literal_is_blanked() {
        // `'\''` used to leave a stray quote behind, which then read as a
        // lifetime tick and shifted everything after it.
        let f = SourceFile::parse("t.rs", "let q = '\\''; x.unwrap();");
        assert_eq!(f.lines[0].code.trim(), "let q = ''; x.unwrap();");
        let f = SourceFile::parse("t.rs", "let b = b'\\''; x.unwrap();");
        assert_eq!(f.lines[0].code.trim(), "let b = b''; x.unwrap();");
        // Longer escapes still close at the right quote.
        let f = SourceFile::parse("t.rs", "let u = '\\u{1F600}'; y.unwrap();");
        assert_eq!(f.lines[0].code.trim(), "let u = ''; y.unwrap();");
    }

    #[test]
    fn raw_string_hash_counts_must_match() {
        let f = SourceFile::parse("t.rs", "let s = r##\"abc\"# def\"##; z.unwrap();");
        assert_eq!(f.lines[0].code.trim(), "let s = \"\"; z.unwrap();");
        let f = SourceFile::parse("t.rs", "let s = r#\"a\"b\"#; y.unwrap();");
        assert_eq!(f.lines[0].code.trim(), "let s = \"\"; y.unwrap();");
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let f = SourceFile::parse(
            "t.rs",
            "a /* x /* y */ z */ b\n/* one /* two */\nstill */ c",
        );
        assert_eq!(f.lines[0].code.trim(), "a  b");
        assert_eq!(f.lines[1].code.trim(), "");
        assert_eq!(f.lines[2].code.trim(), "c");
    }

    #[test]
    fn block_doc_comments_are_flagged() {
        let f = SourceFile::parse("t.rs", "/** can tear\nacross fields */\nfn snapshot() {}");
        assert!(f.lines[0].is_doc);
        assert!(f.lines[1].is_doc);
        assert!(!f.lines[2].is_doc);
        let f = SourceFile::parse("t.rs", "/* plain */ code()");
        assert!(!f.lines[0].is_doc);
    }

    #[test]
    fn raw_lines_are_retained_verbatim() {
        let src = "let x = \"literal\"; // comment";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.lines[0].raw, src);
    }
}
