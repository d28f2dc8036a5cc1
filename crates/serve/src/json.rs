//! Hand-rolled JSON emission for the rider endpoints.
//!
//! The repo's policy is zero external dependencies, so responses are
//! built with a minimal writer instead of a serialization framework
//! (the `tracedump` crate hand-rolls its Chrome-trace JSON the same
//! way). Output is deterministic: object keys are emitted in the order
//! the caller writes them, and floats use Rust's shortest round-trip
//! `{}` formatting, so a deterministic replay yields byte-identical
//! bodies — which the golden response tests rely on.

use wilocator_obs::write_json_str;

/// Appends `v` as a JSON number — shortest round-trip form, `null` for
/// non-finite values (JSON has no NaN/Inf).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        // `{}` prints integral floats without a decimal point ("120"),
        // which is still valid JSON and deterministic.
        out.push_str(&format!("{v}"));
        debug_assert!(!out[start..].is_empty());
    } else {
        out.push_str("null");
    }
}

/// An object writer: `{"k":v,…}` with caller-ordered keys.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Opens `{`.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_json_str(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string member.
    pub fn str_field(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        write_json_str(&mut self.buf, v);
        self
    }

    /// Adds a float member.
    pub fn f64_field(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        write_f64(&mut self.buf, v);
        self
    }

    /// Adds an unsigned-integer member.
    pub fn u64_field(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a signed-integer member.
    pub fn i64_field(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a boolean member.
    pub fn bool_field(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value member (object, array, literal).
    pub fn raw_field(mut self, k: &str, raw: &str) -> Self {
        self.key(k);
        self.buf.push_str(raw);
        self
    }

    /// Closes `}` and returns the text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

/// An array writer over pre-rendered element values.
#[derive(Debug, Default)]
pub struct JsonArr {
    items: Vec<String>,
}

impl JsonArr {
    /// An empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pre-rendered JSON value.
    pub fn push_raw(&mut self, raw: String) {
        self.items.push(raw);
    }

    /// Renders `[…]`.
    pub fn finish(self) -> String {
        let mut out = String::from("[");
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(item);
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_shortest() {
        let mut out = String::new();
        write_f64(&mut out, 120.0);
        out.push(' ');
        write_f64(&mut out, 0.1);
        out.push(' ');
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "120 0.1 null");
    }

    #[test]
    fn signed_and_bool_members() {
        let obj = JsonObj::new()
            .i64_field("delta", -42)
            .bool_field("fired", true)
            .bool_field("quiet", false)
            .finish();
        assert_eq!(obj, "{\"delta\":-42,\"fired\":true,\"quiet\":false}");
    }

    #[test]
    fn objects_and_arrays_compose() {
        let mut arr = JsonArr::new();
        arr.push_raw(
            JsonObj::new()
                .u64_field("bus", 1)
                .f64_field("eta_s", 30.5)
                .finish(),
        );
        arr.push_raw("null".to_string());
        let obj = JsonObj::new()
            .str_field("stop", "s2")
            .raw_field("arrivals", &arr.finish())
            .finish();
        assert_eq!(
            obj,
            "{\"stop\":\"s2\",\"arrivals\":[{\"bus\":1,\"eta_s\":30.5},null]}"
        );
    }
}
