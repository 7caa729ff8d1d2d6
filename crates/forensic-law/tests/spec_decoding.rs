//! Seeded properties of the spec decoder.
//!
//! `ActionSpec::from_json_line` decodes a line straight into its fields;
//! `json::parse` followed by `ActionSpec::from_json_value` builds a tree
//! first. The two must agree on every line — the same spec, or the same
//! error text — and `json::parse` must accept and reject exactly what
//! the character-at-a-time reader it replaced did (kept below as
//! [`reference`]). Lines come from a deterministic xorshift generator
//! with a constant seed, mixing well-formed specs with adversarial
//! pieces, and every prefix of every line is checked as well, so a
//! failure reproduces exactly.

use forensic_law::provenance::push_escaped;
use forensic_law::spec::json::{self, Value};
use forensic_law::spec::{ActionSpec, SpecError};

/// Deterministic xorshift64* generator — the only randomness source in
/// this suite.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n`.
    fn gen_range(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.gen_range(100) < percent
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.gen_range(options.len())]
    }
}

const KEYS: [&str; 16] = [
    "actor",
    "directed",
    "data",
    "when",
    "where",
    "flags",
    "describe",
    "acter",
    "",
    "extra",
    // Escaped spellings of known keys, and near misses.
    r"act\u006fr",
    r"\u0064ata",
    r"wh\u0065re",
    r"flags\n",
    r"descr\tibe",
    "dëscribe",
];

const WORDS: [&str; 12] = [
    "leo",
    "private",
    "content",
    "headers",
    "stored",
    "realtime",
    "isp",
    "device",
    "consent",
    "rate-only",
    "martian",
    "",
];

/// String bodies, as they appear between the quotes.
const STRING_PIECES: [&str; 22] = [
    "seized laptop",
    r#"tab\there \"quoted\""#,
    r"back\\slash\/",
    r"\b\f\n\r",
    r"\u0041\u00e9\u4e2d",
    // Valid escapes that decode to a lone surrogate are refused.
    r"\ud83d\ude00",
    r"\uD800",
    r"\u12",
    r"\u12G4",
    r"\u+041",
    r"\u-041",
    r"\x",
    "é à ü",
    "中文",
    "🔍📁",
    "\u{7f}\u{1}",
    "\t raw tab",
    "ends in backslash \\",
    r"\u00",
    r"\",
    "a\"b",
    "",
];

const NUMBERS: [&str; 12] = [
    "0", "-0", "7", "01", "1.5", "1.", "-", "1e", "1e+3", "2.5E-2", "--1", "1.2.3",
];

const WS: [&str; 6] = ["", "", " ", "\t", "\r\n", "\n "];

fn ws(rng: &mut Rng) -> &'static str {
    rng.pick(&WS)
}

fn gen_string(rng: &mut Rng, out: &mut String) {
    out.push('"');
    if rng.chance(50) {
        out.push_str(rng.pick(&WORDS));
    } else {
        for _ in 0..1 + rng.gen_range(3) {
            out.push_str(rng.pick(&STRING_PIECES));
        }
    }
    out.push('"');
}

fn gen_value(rng: &mut Rng, depth: usize, out: &mut String) {
    let roll = if depth >= 3 {
        rng.gen_range(6)
    } else {
        rng.gen_range(9)
    };
    match roll {
        0..=2 => gen_string(rng, out),
        3 => out.push_str(rng.pick(&["true", "false", "null", "tru", "nul", "falsey"])),
        4 | 5 => out.push_str(rng.pick(&NUMBERS)),
        6 | 7 => {
            out.push('[');
            out.push_str(ws(rng));
            let n = rng.gen_range(4);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                    out.push_str(ws(rng));
                }
                gen_value(rng, depth + 1, out);
                out.push_str(ws(rng));
            }
            out.push(']');
        }
        _ => gen_object(rng, depth + 1, out),
    }
}

fn gen_object(rng: &mut Rng, depth: usize, out: &mut String) {
    out.push('{');
    out.push_str(ws(rng));
    let n = rng.gen_range(7);
    for i in 0..n {
        if i > 0 {
            out.push(',');
            out.push_str(ws(rng));
        }
        let key = rng.pick(&KEYS);
        out.push('"');
        out.push_str(key);
        out.push('"');
        out.push_str(ws(rng));
        out.push(':');
        out.push_str(ws(rng));
        // Mostly the type the key wants, so deeper members get read.
        match (key, rng.gen_range(4)) {
            ("flags", 0..=2) => {
                out.push('[');
                for j in 0..rng.gen_range(4) {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    if rng.chance(85) {
                        gen_string(rng, out);
                    } else {
                        gen_value(rng, depth + 1, out);
                    }
                }
                out.push(']');
            }
            ("directed", 0..=2) => out.push_str(rng.pick(&["true", "false"])),
            (_, 0..=1) => gen_string(rng, out),
            _ => gen_value(rng, depth, out),
        }
        out.push_str(ws(rng));
    }
    out.push('}');
}

/// JSON-significant characters (and a multibyte one) for mutations.
const MUTATIONS: [char; 14] = [
    '"', '\\', '{', '}', '[', ']', ',', ':', 'u', ' ', '\n', '0', 'é', '🔍',
];

fn gen_line(rng: &mut Rng) -> String {
    let mut line = String::new();
    line.push_str(ws(rng));
    match rng.gen_range(10) {
        0 => gen_value(rng, 1, &mut line),
        _ => gen_object(rng, 0, &mut line),
    }
    line.push_str(ws(rng));
    if rng.chance(10) {
        line.push_str(rng.pick(&["x", "}", "{}", ",", "\"", "0"]));
    }
    // Mutate a few characters: insert, replace or delete.
    if rng.chance(40) {
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..1 + rng.gen_range(3) {
            let at = rng.gen_range(chars.len() + 1);
            let c = rng.pick(&MUTATIONS);
            match rng.gen_range(3) {
                0 => chars.insert(at, c),
                1 if at < chars.len() => chars[at] = c,
                _ if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.push(c),
            }
        }
        line = chars.into_iter().collect();
    }
    line
}

/// Lines every run checks, whatever the generator draws.
const FIXED: [&str; 16] = [
    "",
    "   ",
    "{}",
    "[]",
    "null",
    r#""leo""#,
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider", "flags": ["as-provider"]}"#,
    "{\"actor\"\t:\r\n\"leo\" ,\n\"flags\":[ \"consent\" ,\"exigent\" ] }",
    r#"{"flags": ["consent"], "flags": ["exigent"], "actor": "admin", "actor": "leo"}"#,
    r#"{"extra": {"nested": [1, {"deeper": [true, null]}]}, "actor": 3}"#,
    r#"{"actor": 3, "extra": {"nested": [1, "#,
    r#"{"describe": "\ud83d\ude00 \u00e9 🔍 中文"}"#,
    r#"{"describe": "x"} {"#,
    r#"{"act\u006fr": "private", "\u0064irected": true}"#,
    r#"{"flags": ["consent", 1, "bad \u12"]}"#,
];

/// The decoder's answer reduced to what callers can observe.
fn outcome(result: Result<ActionSpec, SpecError>) -> Result<ActionSpec, String> {
    result.map_err(|e| e.to_string())
}

fn check_readers(line: &str) {
    let direct = outcome(ActionSpec::from_json_line(line));
    let via_tree = outcome(json::parse(line).and_then(ActionSpec::from_json_value));
    assert_eq!(direct, via_tree, "decoders disagree on {line:?}");
}

fn check(line: &str) {
    check_readers(line);
    let tree = json::parse(line).map_err(|e| e.to_string());
    let old = reference::parse(line).map_err(|e| e.to_string());
    assert_eq!(
        tree, old,
        "json::parse differs from the reference on {line:?}"
    );
}

fn check_with_prefixes(line: &str) {
    for (at, _) in line.char_indices() {
        check(&line[..at]);
    }
    check(line);
}

#[test]
fn direct_decoding_agrees_with_the_value_tree_on_every_prefix() {
    for line in FIXED {
        check_with_prefixes(line);
    }
    let mut rng = Rng::new(0x5EC_DEC0DE);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..2_000 {
        let line = gen_line(&mut rng);
        check_with_prefixes(&line);
        match ActionSpec::from_json_line(&line) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    // The generator must exercise both sides, not only error paths.
    assert!(ok > 200 && err > 200, "{ok} accepted, {err} rejected");
}

/// The nesting limit lives in the lexer, so both readers accept
/// nesting up to it and refuse one level more with the same error, on
/// every prefix. (The reference reader has no limit, so it is not
/// consulted here.)
#[test]
fn both_readers_share_the_nesting_limit() {
    let limit = json::MAX_NESTING;
    for (open, close) in [("[", "]"), (r#"{"k": "#, "}")] {
        // The line's own object is the first level.
        for depth in [limit - 1, limit, 3 * limit] {
            let line = format!(
                r#"{{"actor": "leo", "extra": {}1{}}}"#,
                open.repeat(depth),
                close.repeat(depth)
            );
            check_readers(&line);
            for (at, _) in line.char_indices() {
                check_readers(&line[..at]);
            }
            let refused = json::parse(&line).is_err_and(|e| e.to_string().contains("nesting"));
            assert_eq!(refused, depth >= limit, "depth {depth}: {line}");
        }
    }
}

/// `push_escaped` (the one string escaper) and the reader are inverses
/// on strings full of quotes, backslashes and control characters.
#[test]
fn escaped_strings_parse_back_to_themselves() {
    const ALPHABET: [char; 12] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'a', 'é', '中', '🔍',
    ];
    let mut rng = Rng::new(0xE5C_A9ED);
    for _ in 0..2_000 {
        let len = rng.gen_range(40);
        let text: String = (0..len).map(|_| rng.pick(&ALPHABET)).collect();
        let mut quoted = String::from("\"");
        push_escaped(&mut quoted, &text);
        quoted.push('"');
        assert_eq!(json::parse(&quoted), Ok(Value::String(text.clone())));
        let line = format!(r#"{{"describe": {quoted}}}"#);
        let spec = ActionSpec::from_json_line(&line).expect("escaped line decodes");
        assert_eq!(spec.describe.as_deref(), Some(text.as_str()));
    }
}

/// The reader `json::parse` replaced: it consumed one character at a
/// time, re-validating the rest of the input as UTF-8 for each (so it
/// took time quadratic in the line length). Kept verbatim as the oracle
/// for what the reader accepts and rejects, and with which text.
mod reference {
    use super::{SpecError, Value};

    pub fn parse(text: &str) -> Result<Value, SpecError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(SpecError::new(format!(
                "unexpected trailing input at byte {pos}"
            )));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, SpecError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(SpecError::new("unexpected end of input")),
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
            Some(c) => Err(SpecError::new(format!(
                "unexpected character '{}' at byte {pos}",
                *c as char
            ))),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, SpecError> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(SpecError::new(format!("invalid literal at byte {pos}")))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, SpecError> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len()
            && (bytes[*pos].is_ascii_digit()
                || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| SpecError::new(format!("invalid number at byte {start}")))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, SpecError> {
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(SpecError::new("unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| SpecError::new("invalid \\u escape"))?;
                            out.push(hex);
                            *pos += 4;
                        }
                        _ => return Err(SpecError::new("invalid escape")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| SpecError::new("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, SpecError> {
        *pos += 1;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(SpecError::new("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, SpecError> {
        *pos += 1;
        let mut pairs = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(SpecError::new("expected a string key"));
            }
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(SpecError::new("expected ':' after key"));
            }
            *pos += 1;
            let value = parse_value(bytes, pos)?;
            pairs.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(SpecError::new("expected ',' or '}' in object")),
            }
        }
    }
}
