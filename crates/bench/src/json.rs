//! A tiny pretty-printing JSON writer.
//!
//! The build environment is offline, so `serde_json` is unavailable; the
//! bench outputs are flat figure/series records, for which a push-down
//! writer is entirely sufficient. Output is valid JSON with two-space
//! indentation.

/// A run manifest embedded in every `results/*.json` artifact: enough to
/// reproduce the run (seed, config summary + hash) and to tell which build
/// produced it (git revision, schema version).
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Artifact schema version; bump when the JSON shape changes.
    pub schema: u32,
    /// Master seed of the runs behind the artifact.
    pub seed: u64,
    /// Human-readable configuration summary.
    pub config: String,
    /// FNV-1a hash of `config` (quick equality check across artifacts).
    pub config_hash: u64,
    /// Git revision of the producing tree ("unknown" outside a checkout).
    pub git_rev: String,
}

/// Current manifest schema version.
pub const MANIFEST_SCHEMA: u32 = 1;

impl Manifest {
    /// Build a manifest for `seed` and a config summary string.
    pub fn new(seed: u64, config: impl Into<String>) -> Self {
        let config = config.into();
        Manifest {
            schema: MANIFEST_SCHEMA,
            seed,
            config_hash: fnv1a(config.as_bytes()),
            config,
            git_rev: git_rev(),
        }
    }

    /// Emit as a `"manifest": {...}` field on the writer's current object.
    pub fn emit(&self, w: &mut Writer) {
        w.field("manifest");
        w.open_object();
        w.field("schema");
        w.uint(self.schema as u64);
        w.field("seed");
        w.uint(self.seed);
        w.field("config");
        w.string(&self.config);
        w.field("config_hash");
        w.string(&format!("{:016x}", self.config_hash));
        w.field("git_rev");
        w.string(&self.git_rev);
        w.close_object();
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The producing git revision, resolved once per process ("unknown" when
/// git or the repository is unavailable).
fn git_rev() -> String {
    use std::sync::OnceLock;
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
    .clone()
}

/// Incremental JSON writer. Call the `open_*`/`close_*`/value methods in
/// document order; commas and indentation are inserted automatically.
#[derive(Default)]
pub struct Writer {
    out: String,
    depth: usize,
    /// Whether a value has already been written at the current nesting level
    /// (controls comma insertion).
    has_item: Vec<bool>,
    /// A field name was just written; the next value goes on the same line.
    after_field: bool,
}

impl Writer {
    /// Create an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    fn pre_value(&mut self) {
        if self.after_field {
            self.after_field = false;
            return;
        }
        if let Some(has) = self.has_item.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    fn close_container(&mut self, close: char) {
        self.depth -= 1;
        if self.has_item.pop() == Some(true) {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
        self.out.push(close);
    }

    /// Begin an object (`{`).
    pub fn open_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.depth += 1;
        self.has_item.push(false);
    }

    /// End the current object (`}`).
    pub fn close_object(&mut self) {
        self.close_container('}');
    }

    /// Begin an array (`[`).
    pub fn open_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.depth += 1;
        self.has_item.push(false);
    }

    /// End the current array (`]`). Short arrays of plain numbers stay on
    /// one line.
    pub fn close_array(&mut self) {
        self.close_container(']');
    }

    /// Write an object field name; the next write supplies its value.
    pub fn field(&mut self, name: &str) {
        self.pre_value();
        self.out.push('"');
        escape_into(&mut self.out, name);
        self.out.push_str("\": ");
        self.after_field = true;
    }

    /// Write a string value.
    pub fn string(&mut self, s: &str) {
        self.pre_value();
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    /// Write a numeric value. Integral floats print without an exponent or
    /// trailing fraction noise; non-finite values become `null` (JSON has no
    /// NaN/Infinity).
    pub fn number(&mut self, v: f64) {
        self.pre_value();
        self.out.push_str(&render_number(v));
    }

    /// Write an array of numbers inline on one line: `[2, 1.5]`.
    pub fn compact_array(&mut self, values: &[f64]) {
        self.pre_value();
        self.out.push('[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(&render_number(v));
        }
        self.out.push(']');
    }

    /// Write an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.pre_value();
        self.out.push_str(&format!("{v}"));
    }

    /// Write a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Finish, returning the document (with a trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

fn render_number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_with_fields() {
        let mut w = Writer::new();
        w.open_object();
        w.field("a");
        w.number(1.0);
        w.field("b");
        w.string("x\"y");
        w.close_object();
        let doc = w.finish();
        assert_eq!(doc, "{\n  \"a\": 1,\n  \"b\": \"x\\\"y\"\n}\n");
    }

    #[test]
    fn compact_array_stays_inline() {
        let mut w = Writer::new();
        w.open_array();
        w.compact_array(&[2.0, 1.5]);
        w.compact_array(&[4.0, 3.25]);
        w.close_array();
        let doc = w.finish();
        assert!(doc.contains("[2, 1.5]"), "got: {doc}");
        assert!(doc.contains("[4, 3.25]"), "got: {doc}");
    }

    #[test]
    fn non_finite_becomes_null() {
        let mut w = Writer::new();
        w.open_array();
        w.number(f64::NAN);
        w.close_array();
        assert!(w.finish().contains("null"));
    }

    #[test]
    fn empty_object() {
        let mut w = Writer::new();
        w.open_object();
        w.close_object();
        assert_eq!(w.finish(), "{}\n");
    }
}
