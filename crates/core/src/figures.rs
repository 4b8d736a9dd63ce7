//! Figure/table result containers and rendering.
//!
//! Every experiment produces a [`FigureResult`]: labeled rows with the
//! measured value, the paper's reported value where the paper gives one,
//! and free-form notes. Results render as ASCII tables with bars (the
//! shape of the original figures) and serialize to JSON for
//! EXPERIMENTS.md regeneration.

/// One bar/row of a figure.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Row label (environment name).
    pub label: String,
    /// Measured value.
    pub value: f64,
    /// The paper's reported value for this row, if the paper states one.
    pub paper: Option<f64>,
    /// Extra detail for the table.
    pub detail: Option<String>,
}

impl FigureRow {
    /// Plain row.
    pub fn new(label: impl Into<String>, value: f64) -> Self {
        FigureRow {
            label: label.into(),
            value,
            paper: None,
            detail: None,
        }
    }

    /// Attach the paper's reported value.
    pub fn with_paper(mut self, paper: f64) -> Self {
        self.paper = Some(paper);
        self
    }

    /// Attach a detail string.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

/// A reproduced figure or table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Experiment id ("fig1" ... "fig8", "tab-mem", "abl-*").
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// Unit of the value column.
    pub unit: String,
    /// The rows.
    pub rows: Vec<FigureRow>,
    /// Methodological notes.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// New empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>, unit: impl Into<String>) -> Self {
        FigureResult {
            id: id.into(),
            title: title.into(),
            unit: unit.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: FigureRow) {
        self.rows.push(row);
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Value of the row with the given label.
    pub fn value_of(&self, label: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.label == label).map(|r| r.value)
    }

    /// Render an ASCII table with proportional bars.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.id, self.title));
        out.push_str(&format!("(unit: {})\n", self.unit));
        let max = self
            .rows
            .iter()
            .map(|r| r.value)
            .fold(0.0_f64, f64::max) // simlint: allow(float-fold-order) -- running max, order-insensitive
            .max(1e-12);
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        for row in &self.rows {
            let bar_len = ((row.value / max) * 40.0).round() as usize;
            let paper = row
                .paper
                .map(|p| format!(" (paper: {p:.2})"))
                .unwrap_or_default();
            let detail = row
                .detail
                .as_deref()
                .map(|d| format!("  [{d}]"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {:label_w$}  {:>10.3} {}{}{}\n",
                row.label,
                row.value,
                "#".repeat(bar_len),
                paper,
                detail,
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json::string(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json::string(&self.title)));
        out.push_str(&format!("  \"unit\": {},\n", json::string(&self.unit)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", json::string(&row.label)));
            out.push_str(&format!("      \"value\": {},\n", json::number(row.value)));
            match row.paper {
                Some(p) => out.push_str(&format!("      \"paper\": {},\n", json::number(p))),
                None => out.push_str("      \"paper\": null,\n"),
            }
            match &row.detail {
                Some(d) => out.push_str(&format!("      \"detail\": {}\n", json::string(d))),
                None => out.push_str("      \"detail\": null\n"),
            }
            out.push_str(if i + 1 < self.rows.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"notes\": [\n");
        for (i, note) in self.notes.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                json::string(note),
                if i + 1 < self.notes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        out
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, json::ParseError> {
        let value = json::parse(s)?;
        let obj = value.as_object()?;
        let mut fig = FigureResult::new(
            obj.get_str("id")?,
            obj.get_str("title")?,
            obj.get_str("unit")?,
        );
        for row in obj.get_array("rows")? {
            let r = row.as_object()?;
            fig.push(FigureRow {
                label: r.get_str("label")?.to_string(),
                value: r.get_number("value")?,
                paper: r.get_opt_number("paper")?,
                detail: r.get_opt_str("detail")?.map(str::to_string),
            });
        }
        for note in obj.get_array("notes")? {
            fig.note(note.as_str()?);
        }
        Ok(fig)
    }
}

/// Minimal JSON emit/parse support for [`FigureResult`] — enough for the
/// well-formed documents this crate itself produces, with no external
/// dependencies.
pub mod json {
    use std::collections::BTreeMap;
    use std::fmt;

    pub use vgrid_simobs::json::{number, string};

    /// Error raised when a document cannot be parsed as a figure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseError(pub String);

    impl fmt::Display for ParseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "JSON parse error: {}", self.0)
        }
    }

    impl std::error::Error for ParseError {}

    fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError(msg.into()))
    }

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    /// Typed accessor wrapper over an object map.
    pub struct Object<'a>(&'a BTreeMap<String, Value>);

    impl Value {
        pub fn as_object(&self) -> Result<Object<'_>, ParseError> {
            match self {
                Value::Object(m) => Ok(Object(m)),
                other => err(format!("expected object, found {other:?}")),
            }
        }

        pub fn as_str(&self) -> Result<&str, ParseError> {
            match self {
                Value::String(s) => Ok(s),
                other => err(format!("expected string, found {other:?}")),
            }
        }
    }

    impl Object<'_> {
        fn get(&self, key: &str) -> Result<&Value, ParseError> {
            match self.0.get(key) {
                Some(v) => Ok(v),
                None => err(format!("missing key {key:?}")),
            }
        }

        pub fn get_str(&self, key: &str) -> Result<&str, ParseError> {
            self.get(key)?.as_str()
        }

        pub fn get_opt_str(&self, key: &str) -> Result<Option<&str>, ParseError> {
            match self.0.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => v.as_str().map(Some),
            }
        }

        pub fn get_number(&self, key: &str) -> Result<f64, ParseError> {
            match self.get(key)? {
                Value::Number(n) => Ok(*n),
                other => err(format!("expected number at {key:?}, found {other:?}")),
            }
        }

        pub fn get_opt_number(&self, key: &str) -> Result<Option<f64>, ParseError> {
            match self.0.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(Value::Number(n)) => Ok(Some(*n)),
                Some(other) => err(format!("expected number at {key:?}, found {other:?}")),
            }
        }

        pub fn get_array(&self, key: &str) -> Result<&[Value], ParseError> {
            match self.get(key)? {
                Value::Array(items) => Ok(items),
                other => err(format!("expected array at {key:?}, found {other:?}")),
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err("trailing characters after document");
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&mut self) -> Result<u8, ParseError> {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(&b) => Ok(b),
                None => err("unexpected end of input"),
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                err(format!("expected {:?} at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, ParseError> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::String(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                _ => self.number_value(),
            }
        }

        fn object(&mut self) -> Result<Value, ParseError> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                let val = self.value()?;
                map.insert(key, val);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return err("unterminated string"),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self
                            .bytes
                            .get(self.pos)
                            .copied()
                            .ok_or_else(|| ParseError("unterminated escape".into()))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| ParseError("truncated \\u escape".into()))?;
                                self.pos += 4;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex)
                                        .map_err(|_| ParseError("bad \\u escape".into()))?,
                                    16,
                                )
                                .map_err(|_| ParseError("bad \\u escape".into()))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| ParseError("bad \\u code point".into()))?,
                                );
                            }
                            _ => return err("unknown escape"),
                        }
                    }
                    Some(_) => {
                        // Consume one UTF-8 character.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| ParseError("invalid UTF-8".into()))?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number_value(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| ParseError("invalid number".into()))?;
            match text.parse::<f64>() {
                Ok(n) => Ok(Value::Number(n)),
                Err(_) => err(format!("invalid number {text:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        let mut f = FigureResult::new("fig1", "Relative performance of 7z", "slowdown");
        f.push(FigureRow::new("native", 1.0).with_paper(1.0));
        f.push(FigureRow::new("VMwarePlayer", 1.16).with_paper(1.15));
        f.push(
            FigureRow::new("QEMU", 2.2)
                .with_paper(2.2)
                .with_detail("kqemu enabled"),
        );
        f.note("50 repetitions");
        f
    }

    #[test]
    fn render_contains_rows_and_notes() {
        let s = sample().render();
        assert!(s.contains("fig1"));
        assert!(s.contains("QEMU"));
        assert!(s.contains("paper: 2.20"));
        assert!(s.contains("kqemu"));
        assert!(s.contains("note: 50 repetitions"));
    }

    #[test]
    fn bars_scale_with_values() {
        let s = sample().render();
        let native_line = s.lines().find(|l| l.contains("native")).unwrap();
        let qemu_line = s.lines().find(|l| l.contains("QEMU")).unwrap();
        let hashes = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert!(hashes(qemu_line) > hashes(native_line));
    }

    #[test]
    fn json_roundtrip() {
        let f = sample();
        let back = FigureResult::from_json(&f.to_json()).unwrap();
        assert_eq!(back.id, f.id);
        assert_eq!(back.rows.len(), f.rows.len());
        assert_eq!(back.rows[1].paper, Some(1.15));
    }

    #[test]
    fn value_of_finds_rows() {
        let f = sample();
        assert_eq!(f.value_of("native"), Some(1.0));
        assert_eq!(f.value_of("nope"), None);
    }
}
