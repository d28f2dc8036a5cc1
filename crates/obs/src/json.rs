//! The workspace's one JSON writer: rider answers, the `/debug`
//! sections and the flight recorder's Chrome export all go through it.

use std::fmt::{self, Write};

/// Appends one JSON document to a `String` the caller owns.
///
/// A document costs that buffer's growth and nothing per element:
/// numbers and ids go through `write!`, strings are escaped in place.
/// Members come out in call order, so a deterministic caller writes
/// deterministic bytes. The writer only tracks where the next comma
/// goes; the caller opens and closes containers in order.
///
/// ```
/// use wilocator_obs::JsonWriter;
///
/// let mut out = String::new();
/// let mut w = JsonWriter::new(&mut out);
/// w.open_obj();
/// w.key("stop").string("s2");
/// w.key("etas").open_arr().float(30.5).float(f64::NAN).close_arr();
/// w.close_obj();
/// assert_eq!(out, r#"{"stop":"s2","etas":[30.5,null]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Whether the next key or value follows a sibling.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    /// Opens an object, as a value or after a [`key`](Self::key).
    pub fn open_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn close_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array, as a value or after a [`key`](Self::key).
    pub fn open_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn close_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        let _ = Escaped(self.out).write_str(key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// A string: `v`'s `Display` form, quoted and escaped. Ids and
    /// labels are written straight from their `Display` impls.
    pub fn string(&mut self, v: impl fmt::Display) -> &mut Self {
        self.separate();
        self.out.push('"');
        // Writing into a `String` cannot fail.
        let _ = write!(Escaped(self.out), "{v}");
        self.out.push('"');
        self.comma = true;
        self
    }

    /// A bare literal: `v`'s `Display` form unquoted. For integers,
    /// bools, and numbers the caller formats itself.
    pub fn literal(&mut self, v: impl fmt::Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self.comma = true;
        self
    }

    /// A float in its shortest round-trip form, `null` when not finite
    /// (JSON has no NaN or infinity). An integral value prints without
    /// a decimal point (`120`), which is still a JSON number.
    pub fn float(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.literal(v)
        } else {
            self.literal("null")
        }
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }
}

/// Escapes what is written through it as the inside of a JSON string.
/// Control characters without a short escape become lowercase `\u00xx`.
struct Escaped<'a>(&'a mut String);

impl Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(write: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = String::new();
        write(&mut JsonWriter::new(&mut out));
        out
    }

    #[test]
    fn strings_escape_specials_and_controls() {
        let out = render(|w| {
            w.string("a\"b\\c\nd\te\u{1}f\u{1f}\rg");
        });
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u001f\\rg\"");
    }

    #[test]
    fn floats_round_trip_shortest_and_null_when_not_finite() {
        let out = render(|w| {
            w.open_arr();
            for v in [120.0, 0.1, -0.5, 1e21, f64::NAN, f64::INFINITY] {
                w.float(v);
            }
            w.close_arr();
        });
        assert_eq!(out, "[120,0.1,-0.5,1000000000000000000000,null,null]");
    }

    #[test]
    fn containers_nest_with_commas_between_siblings_only() {
        let out = render(|w| {
            w.open_obj();
            w.key("stop").string(format_args!("s{}", 2));
            w.key("delta").literal(-42).key("fired").literal(true);
            w.key("empty").open_arr().close_arr();
            w.key("arrivals").open_arr();
            w.open_obj().key("bus").literal(1).close_obj();
            w.open_obj().close_obj().literal("null");
            w.close_arr();
            w.key("s").literal(format_args!("{:.2}", 12.3456));
            w.close_obj();
        });
        assert_eq!(
            out,
            r#"{"stop":"s2","delta":-42,"fired":true,"empty":[],"arrivals":[{"bus":1},{},null],"s":12.35}"#
        );
    }
}
