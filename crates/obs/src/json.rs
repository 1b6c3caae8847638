//! A minimal JSON value type, parser and renderer.
//!
//! The workspace deliberately carries no external dependencies, so the
//! observability layer brings its own JSON — the only codec in the
//! workspace. It renders the Chrome traces, the JSONL event logs, the
//! chaos, fleet and certify reports and the benchmark's result line,
//! pins the golden fixtures, and carries campaign checkpoints and fleet
//! shard results across disks and process boundaries. Objects preserve
//! insertion order (rendering is deterministic). An unsigned integer
//! literal parses to an exact [`Json::Int`], so 64-bit fingerprints and
//! checksums survive a round trip; every other number is an `f64`.
//! Parsing accepts exactly the JSON grammar — no comments, no trailing
//! commas, no leading zeros — and rejects nesting deeper than
//! [`MAX_DEPTH`], so hostile input costs an error, never the stack.

/// A JSON value. Objects are ordered key/value lists (insertion order is
/// preserved through a parse/render round trip).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, kept exact; the parser reads every
    /// unsigned integer literal that fits `u64` as one.
    Int(u64),
    /// Any other number. An integral value renders without a fraction,
    /// so it parses back as an [`Int`](Json::Int).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets (replacing) or appends an object field. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_string(), value)),
            }
        }
    }

    /// The numeric value, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value, if an [`Int`](Json::Int) — so never a number
    /// written with a sign, a fraction or an exponent, or beyond `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// An exact integer.
    pub fn int(v: u64) -> Json {
        Json::Int(v)
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with `indent`-space indentation (human-facing files).
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(n) => out.push_str(&render_number(*n)),
            Json::Str(s) => escape(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_seq(
                out,
                indent,
                depth,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes an array (every key `None`) or an object between `open` and
/// `close`, one entry per line when indenting.
fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    };
    let empty = entries.len() == 0;
    out.push(open);
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        if let Some(key) = key {
            escape(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, indent, depth + 1);
    }
    if !empty {
        newline(out, depth);
    }
    out.push(close);
}

/// Renders a number the way JSON expects: integers without a fraction,
/// everything else through Rust's shortest-roundtrip float formatting.
fn render_number(n: f64) -> String {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else if n.is_finite() {
        format!("{n}")
    } else {
        // JSON has no Inf/NaN; null is the least-wrong rendering.
        "null".to_string()
    }
}

/// Appends `s` as a quoted JSON string literal.
fn escape(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What was wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`parse_json`] accepts.
/// The parser recurses once per level, and this bound keeps a hostile
/// document well inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns the first [`JsonError`] encountered, including nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The body of an array or object, one nesting level deeper: the
    /// opening bracket (already peeked), `entry (, entry)*` or nothing,
    /// then `close`.
    fn seq(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                entry(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(self.err("expected ',' or a closing bracket")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.seq(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        self.seq(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':', "expected ':'")?;
            p.skip_ws();
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let bytes = self.bytes;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run of input between them
            // is whole UTF-8 characters.
            let rest = &bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or(JsonError { pos: bytes.len(), msg: "unterminated string" })?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex =
                        bytes.get(self.pos..self.pos + 4).and_then(|h| std::str::from_utf8(h).ok());
                    let code = hex
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed for the ASCII-only
                    // documents this crate emits; lone surrogates read
                    // as U+FFFD.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("unknown escape")),
            });
        }
    }

    /// Consumes a run of decimal digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`; an
    /// unsigned integer that fits `u64` becomes a [`Json::Int`].
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(self.err("expected a digit")),
            n if n > 1 && self.bytes[int_start] == b'0' => {
                return Err(JsonError { pos: int_start, msg: "leading zero" })
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        // `u64` parsing refuses a sign, a fraction and an exponent, so
        // exactly the unsigned integer literals within range are exact.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        text.parse::<u64>()
            .map(Json::Int)
            .or_else(|_| text.parse::<f64>().map(Json::Num))
            .map_err(|_| JsonError { pos: start, msg: "bad number" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"\\\n","d":null,"e":true},"f":[]}"#;
        let v = parse_json(text).expect("parses");
        assert_eq!(parse_json(&v.render()).expect("re-parses"), v);
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\"\\\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        // 100 000 open brackets overflowed a 2 MiB stack before nesting
        // was bounded; now they are one more malformed document.
        let deep = "[".repeat(100_000);
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "{\"a\" 1}",
            "01",
            "-01",
            "00",
            "1.",
            "1.e5",
            "-",
            "1e",
            &deep,
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.pos, MAX_DEPTH);
        assert!(parse_json(&format!("{{\"a\":{}}}", nest(MAX_DEPTH))).is_err());
    }

    #[test]
    fn unsigned_integers_are_exact() {
        // An FNV offset basis: above 2^53, so an f64 would round it.
        let v = parse_json("14695981039346656037").expect("parses");
        assert_eq!(v, Json::int(14_695_981_039_346_656_037));
        assert_eq!(v.as_u64(), Some(14_695_981_039_346_656_037));
        assert_eq!(v.render(), "14695981039346656037");
        assert_eq!(Json::int(u64::MAX).render(), u64::MAX.to_string());
        for (text, num) in
            [("-3", -3.0), ("0.5", 0.5), ("2e3", 2000.0), ("18446744073709551616", 2f64.powi(64))]
        {
            let v = parse_json(text).expect("parses");
            assert_eq!((v.as_u64(), v.as_f64()), (None, Some(num)), "{text}");
        }
        assert_eq!(parse_json("0").expect("parses").as_u64(), Some(0));
    }

    #[test]
    fn preserves_object_order() {
        let v = parse_json(r#"{"z":1,"a":2,"m":3}"#).expect("parses");
        assert_eq!(v.render(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut v = parse_json(r#"{"a":1}"#).expect("parses");
        v.set("a", Json::int(2));
        v.set("b", Json::Str("x".into()));
        assert_eq!(v.render(), r#"{"a":2,"b":"x"}"#);
    }

    #[test]
    fn pretty_rendering_parses_back() {
        let v = parse_json(r#"{"a":[1,{"b":true}],"c":"s"}"#).expect("parses");
        let pretty = v.render_pretty(2);
        assert_eq!(parse_json(&pretty).expect("re-parses"), v);
    }

    #[test]
    fn unicode_survives() {
        let v = parse_json("\"caf\u{e9} \\u00e9\"").expect("parses");
        assert_eq!(v.as_str(), Some("café é"));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::int(u64::MAX / 2).render(), parse_json(&Json::int(u64::MAX / 2).render()).unwrap().render());
    }
}
