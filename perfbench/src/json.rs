//! A minimal JSON object writer (the workspace has no serde).

/// An ordered JSON object under construction.
#[derive(Default, Clone)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits (`null` when not finite).
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Add a field whose value is already JSON.
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.fields.push((key.to_string(), json));
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, quote(v))
    }

    /// Add a number field.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, number(v))
    }

    /// Add a boolean field.
    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_numbers_with_all_digits() {
        let o = Obj::new()
            .num("a", 1.0)
            .num("b", 0.123456789)
            .str("c", "x\"y")
            .bool("d", true);
        assert_eq!(
            o.render(),
            r#"{"a": 1, "b": 0.123456789, "c": "x\"y", "d": true}"#
        );
        assert_eq!(number(f64::NAN), "null");
    }
}
