//! Textual scenario specifications for batch assessment and the wire
//! protocol.
//!
//! The `lexforensica assess-batch` subcommand — and the `wire` crate's
//! request payload — read one JSON object per line (JSONL). Each object
//! describes an investigative action with the same vocabulary the
//! `assess` subcommand's flags use:
//!
//! ```json
//! {"actor": "leo", "data": "headers", "when": "realtime", "where": "isp"}
//! {"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider", "flags": ["as-provider"]}
//! ```
//!
//! Recognized keys (all optional; defaults mirror `assess`):
//!
//! | key        | values                                                                        | default    |
//! |------------|-------------------------------------------------------------------------------|------------|
//! | `actor`    | `leo`, `admin`, `private`, `provider`, `employer`                             | `leo`      |
//! | `directed` | `true`/`false` — actor acts at government direction                            | `false`    |
//! | `data`     | `content`, `headers`, `subscriber`, `records`                                  | `content`  |
//! | `when`     | `realtime`, `stored`, `stored-unopened`                                        | `realtime` |
//! | `where`    | `isp`, `own-network`, `wireless`, `wireless-enc`, `device`, `provider`, `public`, `media`, `remote` | `isp` |
//! | `flags`    | array drawn from `public-protocol`, `rate-only`, `hash-search`, `consent`, `exigent`, `probation`, `plain-view`, `as-provider` | `[]` |
//! | `describe` | free text, echoed in the output line                                           | derived    |
//!
//! Unknown keys and unknown values are errors — a batch run reports them
//! with the offending line number and continues with the remaining lines.
//!
//! # Decoding
//!
//! The reader is a deliberately small, std-only JSON reader (objects,
//! arrays, strings, booleans, numbers, null); the workspace builds
//! offline with no serialization dependency. It is one linear lexer
//! ([`json`]) with two consumers:
//!
//! - [`ActionSpec::from_json_line`], the request path (`assess-batch`,
//!   the wire server, `replay`), walks a line's tokens straight into
//!   the spec's fields. Keys are compared as borrowed slices, a string
//!   without escapes is read without a copy, and no [`json::Value`]
//!   tree is built, so decoding costs time linear in the line length.
//! - [`json::parse`] builds a [`json::Value`] tree for documents that
//!   nest a spec (the planner's problem files), handed on to
//!   [`ActionSpec::from_json_value`].
//!
//! Both report the same error for the same line. A syntax error
//! anywhere on the line wins, and so does nesting deeper than
//! [`json::MAX_NESTING`] arrays and objects; otherwise the first key or
//! type error in source order does. A repeated key keeps its last
//! value, except that repeated `flags` arrays accumulate. Vocabulary
//! words are checked afterwards, by [`ActionSpec::to_action`].

use crate::prelude::*;

/// Why a specification line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl SpecError {
    /// A rejection with the given reason. Public so downstream parsers
    /// built on [`json`] (the planner's problem files) report their own
    /// defects in the same error shape.
    pub fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

/// One scenario line, as written: raw vocabulary strings plus flags.
///
/// Build the corresponding engine input with [`ActionSpec::to_action`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionSpec {
    /// Who acts (`leo`, `admin`, `private`, `provider`, `employer`).
    pub actor: String,
    /// Whether the actor acts at government direction.
    pub directed: bool,
    /// What is collected (`content`, `headers`, `subscriber`, `records`).
    pub data: String,
    /// When (`realtime`, `stored`, `stored-unopened`).
    pub when: String,
    /// Where (`isp`, `device`, `provider`, …).
    pub location: String,
    /// Method/circumstance flags (`public-protocol`, `rate-only`, …).
    pub flags: Vec<String>,
    /// Optional free-text description.
    pub describe: Option<String>,
}

impl Default for ActionSpec {
    fn default() -> Self {
        ActionSpec {
            actor: "leo".into(),
            directed: false,
            data: "content".into(),
            when: "realtime".into(),
            location: "isp".into(),
            flags: Vec::new(),
            describe: None,
        }
    }
}

impl ActionSpec {
    /// Parses one JSONL line in one linear pass, straight into the
    /// spec's fields. It answers exactly as [`json::parse`] followed by
    /// [`ActionSpec::from_json_value`] would, error text included (see
    /// the [module docs](self) for which error wins).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for syntactically invalid JSON, a non-object
    /// top level, unknown keys, or wrongly typed values. Vocabulary
    /// validity (e.g. an unknown actor name) is checked later, by
    /// [`ActionSpec::to_action`].
    pub fn from_json_line(line: &str) -> Result<Self, SpecError> {
        let mut lexer = json::Lexer::new(line);
        let mut spec = ActionSpec::default();
        // The first key or type error, held until the whole line has
        // lexed: a syntax error anywhere on the line takes precedence.
        let mut fault = None;
        match lexer.token()? {
            json::Token::ObjectStart => {
                let mut first = true;
                while let Some(key) = lexer.next_key(first)? {
                    first = false;
                    let token = lexer.token()?;
                    if fault.is_some() {
                        lexer.skip(token)?;
                    } else {
                        fault = spec.read_member(&key, token, &mut lexer)?;
                    }
                }
            }
            other => {
                lexer.skip(other)?;
                fault = Some(SpecError::new(NOT_AN_OBJECT));
            }
        }
        lexer.finish()?;
        match fault {
            None => Ok(spec),
            Some(error) => Err(error),
        }
    }

    /// Reads one member's value, starting at `token`, into `self`. The
    /// outer error is a syntax error; a key or type error comes back as
    /// `Ok(Some(..))`, with the value read past.
    fn read_member<'a>(
        &mut self,
        key: &str,
        token: json::Token<'a>,
        lexer: &mut json::Lexer<'a>,
    ) -> Result<Option<SpecError>, SpecError> {
        use json::Token;
        match (key, token) {
            ("actor", Token::String(s)) => self.actor = s.into_owned(),
            ("directed", Token::Bool(b)) => self.directed = b,
            ("data", Token::String(s)) => self.data = s.into_owned(),
            ("when", Token::String(s)) => self.when = s.into_owned(),
            ("where", Token::String(s)) => self.location = s.into_owned(),
            ("describe", Token::String(s)) => self.describe = Some(s.into_owned()),
            ("flags", Token::ArrayStart) => {
                let mut fault = None;
                let mut first = true;
                while lexer.next_item(first)? {
                    first = false;
                    match lexer.token()? {
                        Token::String(flag) if fault.is_none() => {
                            self.flags.push(flag.into_owned())
                        }
                        other => {
                            lexer.skip(other)?;
                            fault.get_or_insert_with(|| SpecError::new(FLAG_NOT_A_STRING));
                        }
                    }
                }
                return Ok(fault);
            }
            (_, token) => {
                lexer.skip(token)?;
                return Ok(Some(member_error(key)));
            }
        }
        Ok(None)
    }

    /// Parses an already-decoded JSON value — the entry point for
    /// callers (like the planner's problem files) that embed a spec
    /// object *inside* a larger JSON document rather than one per line.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for a non-object value, unknown keys, or
    /// wrongly typed values, exactly as [`ActionSpec::from_json_line`].
    pub fn from_json_value(value: json::Value) -> Result<Self, SpecError> {
        use json::Value;
        let Value::Object(pairs) = value else {
            return Err(SpecError::new(NOT_AN_OBJECT));
        };
        let mut spec = ActionSpec::default();
        for (key, value) in pairs {
            match (key.as_str(), value) {
                ("actor", Value::String(s)) => spec.actor = s,
                ("directed", Value::Bool(b)) => spec.directed = b,
                ("data", Value::String(s)) => spec.data = s,
                ("when", Value::String(s)) => spec.when = s,
                ("where", Value::String(s)) => spec.location = s,
                ("describe", Value::String(s)) => spec.describe = Some(s),
                ("flags", Value::Array(items)) => {
                    for item in items {
                        let Value::String(flag) = item else {
                            return Err(SpecError::new(FLAG_NOT_A_STRING));
                        };
                        spec.flags.push(flag);
                    }
                }
                (key, _) => return Err(member_error(key)),
            }
        }
        Ok(spec)
    }

    /// A one-line human summary, used to label batch output.
    pub fn summary(&self) -> String {
        if let Some(text) = &self.describe {
            return text.clone();
        }
        let mut s = format!(
            "{} collects {} {} at {}",
            self.actor, self.data, self.when, self.location
        );
        if !self.flags.is_empty() {
            s.push_str(&format!(" [{}]", self.flags.join(", ")));
        }
        s
    }

    /// Builds the engine input this specification describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the field when any vocabulary word is
    /// unrecognized.
    pub fn to_action(&self) -> Result<InvestigativeAction, SpecError> {
        let actor = parse_actor(&self.actor, self.directed)
            .ok_or_else(|| SpecError::new(format!("unknown actor \"{}\"", self.actor)))?;
        let category = parse_category(&self.data)
            .ok_or_else(|| SpecError::new(format!("unknown data class \"{}\"", self.data)))?;
        let temporality = parse_temporality(&self.when)
            .ok_or_else(|| SpecError::new(format!("unknown temporality \"{}\"", self.when)))?;
        let location = parse_location(&self.location)
            .ok_or_else(|| SpecError::new(format!("unknown location \"{}\"", self.location)))?;

        let mut builder =
            InvestigativeAction::builder(actor, DataSpec::new(category, temporality, location));
        builder.describe(self.summary());
        for flag in &self.flags {
            match flag.as_str() {
                "public-protocol" => builder.joining_public_protocol(),
                "rate-only" => builder.rate_observation_only(),
                "hash-search" => builder.exhaustive_forensic_search(),
                "consent" => builder.with_consent(Consent::by(ConsentAuthority::TargetSelf)),
                "exigent" => builder.with_exigency(Exigency::ImminentEvidenceDestruction),
                "probation" => builder.target_on_probation(),
                "plain-view" => builder.plain_view(),
                "as-provider" => builder.target_operates_as_provider(),
                other => return Err(SpecError::new(format!("unknown flag \"{other}\""))),
            };
        }
        Ok(builder.build())
    }
}

/// One well-formed JSONL scenario line, ready to assess.
#[derive(Debug, Clone)]
pub struct SpecLine {
    /// 1-based input line number.
    pub line: usize,
    /// The human-readable summary ([`ActionSpec::summary`]).
    pub summary: String,
    /// The engine input the line describes.
    pub action: InvestigativeAction,
}

/// One rejected JSONL line, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based input line number.
    pub line: usize,
    /// Why the line was rejected.
    pub error: SpecError,
}

impl LineError {
    /// This rejection in the shared located-error shape.
    pub fn located(&self) -> LocatedError {
        LocatedError::at_line(self.line, &self.error)
    }
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.located().fmt(f)
    }
}

impl std::error::Error for LineError {}

/// A defect at a known position in a structured input, in the one
/// report shape every batch surface uses: `"<place>: <reason>"`.
///
/// `assess-batch` reports malformed JSONL lines as `line 7: …`; the
/// `replay` subcommand reports journal defects as `record 1042: …` or
/// `seg-….lxj offset 4242: …`. Sharing the constructor (rather than
/// each command formatting its own) is what keeps the two surfaces
/// diffable and greppable the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedError {
    /// Where the defect is — `line 7`, `record 1042`,
    /// `seg-….lxj offset 4242`.
    pub place: String,
    /// What is wrong there.
    pub reason: String,
}

impl LocatedError {
    /// A defect at an arbitrary place (`record 1042`, `… offset 17`).
    pub fn new(place: impl std::fmt::Display, reason: impl std::fmt::Display) -> LocatedError {
        LocatedError {
            place: place.to_string(),
            reason: reason.to_string(),
        }
    }

    /// A defect on a 1-based input line.
    pub fn at_line(line: usize, reason: impl std::fmt::Display) -> LocatedError {
        LocatedError::new(format_args!("line {line}"), reason)
    }
}

impl std::fmt::Display for LocatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.place, self.reason)
    }
}

impl std::error::Error for LocatedError {}

/// The result of parsing a whole JSONL document: the well-formed lines
/// plus every rejection, each tagged with its line number.
#[derive(Debug, Clone, Default)]
pub struct JsonlBatch {
    /// Well-formed lines, in input order.
    pub lines: Vec<SpecLine>,
    /// Malformed lines, in input order.
    pub errors: Vec<LineError>,
}

impl JsonlBatch {
    /// Whether every non-blank line parsed.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Parses a JSONL document from raw bytes, reporting every malformed
/// line (bad UTF-8, truncated JSON, unknown keys or vocabulary) with its
/// 1-based line number instead of stopping at the first failure. Blank
/// lines are skipped; a trailing `\r` (CRLF input) is tolerated.
///
/// Taking bytes rather than `&str` is deliberate: a single bad-UTF-8
/// line in a large batch file must cost one [`LineError`], not the whole
/// document.
pub fn parse_jsonl(input: &[u8]) -> JsonlBatch {
    let mut batch = JsonlBatch::default();
    for (idx, raw) in input.split(|b| *b == b'\n').enumerate() {
        let line = idx + 1;
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        if raw.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        let result = std::str::from_utf8(raw)
            .map_err(|e| SpecError::new(format!("invalid UTF-8: {e}")))
            .and_then(ActionSpec::from_json_line)
            .and_then(|spec| {
                let action = spec.to_action()?;
                Ok((spec, action))
            });
        match result {
            Ok((spec, action)) => batch.lines.push(SpecLine {
                line,
                summary: spec.summary(),
                action,
            }),
            Err(error) => batch.errors.push(LineError { line, error }),
        }
    }
    batch
}

const NOT_AN_OBJECT: &str = "expected a JSON object";

const FLAG_NOT_A_STRING: &str = "\"flags\" must be a string";

/// Why member `key` was rejected: a recognised key whose value has the
/// wrong type, or a key the vocabulary does not have.
fn member_error(key: &str) -> SpecError {
    SpecError::new(match key {
        "actor" | "data" | "when" | "where" | "describe" => format!("\"{key}\" must be a string"),
        "directed" => format!("\"{key}\" must be a boolean"),
        "flags" => format!("\"{key}\" must be an array of strings"),
        other => format!("unknown key \"{other}\""),
    })
}

/// Parses an actor word from the shared CLI/JSONL vocabulary.
pub fn parse_actor(value: &str, directed: bool) -> Option<Actor> {
    let base = match value {
        "leo" => Actor::law_enforcement(),
        "admin" => Actor::system_administrator(),
        "private" => Actor::private_individual(),
        "provider" => Actor::new(ActorKind::ServiceProvider),
        "employer" => Actor::new(ActorKind::GovernmentEmployer),
        _ => return None,
    };
    Some(if directed {
        base.directed_by_government()
    } else {
        base
    })
}

/// Parses a data-class word from the shared CLI/JSONL vocabulary.
pub fn parse_category(value: &str) -> Option<ContentClass> {
    Some(match value {
        "content" => ContentClass::Content,
        "headers" => ContentClass::NonContentAddressing,
        "subscriber" => ContentClass::SubscriberRecords,
        "records" => ContentClass::TransactionalRecords,
        _ => return None,
    })
}

/// Parses a temporality word from the shared CLI/JSONL vocabulary.
pub fn parse_temporality(value: &str) -> Option<Temporality> {
    Some(match value {
        "realtime" => Temporality::RealTime,
        "stored" => Temporality::stored_opened(),
        "stored-unopened" => Temporality::stored_unopened(),
        _ => return None,
    })
}

/// Parses a location word from the shared CLI/JSONL vocabulary.
pub fn parse_location(value: &str) -> Option<DataLocation> {
    Some(match value {
        "isp" => DataLocation::InTransit(TransmissionMedium::PublicWiredInternet),
        "own-network" => DataLocation::InTransit(TransmissionMedium::OwnNetwork),
        "wireless" => DataLocation::InTransit(TransmissionMedium::WirelessUnencrypted),
        "wireless-enc" => DataLocation::InTransit(TransmissionMedium::WirelessEncrypted),
        "device" => DataLocation::SuspectDevice,
        "provider" => DataLocation::ProviderStorage,
        "public" => DataLocation::PublicForum,
        "media" => DataLocation::LawfullyObtainedMedia,
        "remote" => DataLocation::RemoteComputer,
        _ => return None,
    })
}

/// A small JSON reader: one linear lexer under two consumers.
/// [`json::parse`] builds a [`json::Value`] tree — for callers with
/// richer documents (the planner's problem files nest a spec object
/// under a `"goal"` key), which decode once and hand sub-values to
/// [`ActionSpec::from_json_value`].
/// [`ActionSpec::from_json_line`] walks the same tokens straight into
/// its fields and builds no tree.
pub mod json {
    use super::SpecError;
    use std::borrow::Cow;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number.
        Number(f64),
        /// A string, with escapes resolved.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, in source order.
        Object(Vec<(String, Value)>),
    }

    /// How deeply arrays and objects may nest. The lexer refuses the
    /// container that would open one level deeper, so both readers
    /// reject such a line with the same error, and neither the tree
    /// [`parse`] builds (nor its recursive drop) can overflow the
    /// stack of the thread decoding it.
    pub const MAX_NESTING: usize = 128;

    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error, and so is nesting deeper than [`MAX_NESTING`].
    pub fn parse(text: &str) -> Result<Value, SpecError> {
        let mut lexer = Lexer::new(text);
        let token = lexer.token()?;
        let value = lexer.build(token)?;
        lexer.finish()?;
        Ok(value)
    }

    /// The start of one JSON value: a whole scalar, or the opening
    /// bracket of a container whose members the caller reads next with
    /// [`Lexer::next_key`] or [`Lexer::next_item`].
    #[derive(Debug)]
    pub(crate) enum Token<'a> {
        Null,
        Bool(bool),
        Number(f64),
        /// Borrowed from the input unless it held an escape.
        String(Cow<'a, str>),
        ObjectStart,
        ArrayStart,
    }

    /// One forward pass over a JSON text. Every byte is read once: a
    /// string scans to its next `"` or `\` and takes the run between
    /// as one slice of the (already valid UTF-8) input. The JSON
    /// syntax, the escapes, the nesting limit and every syntax error
    /// text live here.
    #[derive(Debug)]
    pub(crate) struct Lexer<'a> {
        text: &'a str,
        pos: usize,
        /// Containers opened and not yet closed.
        depth: usize,
    }

    impl<'a> Lexer<'a> {
        pub(crate) fn new(text: &'a str) -> Self {
            Lexer {
                text,
                pos: 0,
                depth: 0,
            }
        }

        fn peek(&self) -> Option<u8> {
            self.text.as_bytes().get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        /// Reads the next value's token, after any whitespace.
        pub(crate) fn token(&mut self) -> Result<Token<'a>, SpecError> {
            self.skip_ws();
            match self.peek() {
                None => Err(SpecError::new("unexpected end of input")),
                Some(b'{') => self.open(Token::ObjectStart),
                Some(b'[') => self.open(Token::ArrayStart),
                Some(b'"') => self.string().map(Token::String),
                Some(b't') => self.literal("true", Token::Bool(true)),
                Some(b'f') => self.literal("false", Token::Bool(false)),
                Some(b'n') => self.literal("null", Token::Null),
                Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
                Some(c) => Err(SpecError::new(format!(
                    "unexpected character '{}' at byte {}",
                    c as char, self.pos
                ))),
            }
        }

        /// Opens the container whose bracket is at `pos`, unless that
        /// would nest deeper than [`MAX_NESTING`].
        fn open(&mut self, token: Token<'a>) -> Result<Token<'a>, SpecError> {
            if self.depth == MAX_NESTING {
                return Err(SpecError::new(format!(
                    "nesting deeper than {MAX_NESTING} levels at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            self.pos += 1;
            Ok(token)
        }

        /// Steps to the next member of the object whose `{` was just
        /// read (`first`) or whose last member's value was: its key,
        /// with the `:` after it consumed, or `None` past the `}`.
        pub(crate) fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, SpecError> {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(None);
                }
                _ if first => {}
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                _ => return Err(SpecError::new("expected ',' or '}' in object")),
            }
            if self.peek() != Some(b'"') {
                return Err(SpecError::new("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(SpecError::new("expected ':' after key"));
            }
            self.pos += 1;
            Ok(Some(key))
        }

        /// Steps to the next element of the array whose `[` was just
        /// read (`first`) or whose last element was: `true` if one
        /// follows, `false` past the `]`.
        pub(crate) fn next_item(&mut self, first: bool) -> Result<bool, SpecError> {
            self.skip_ws();
            match self.peek() {
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    Ok(false)
                }
                _ if first => Ok(true),
                Some(b',') => {
                    self.pos += 1;
                    Ok(true)
                }
                _ => Err(SpecError::new("expected ',' or ']' in array")),
            }
        }

        /// Checks that nothing but whitespace follows the value read.
        pub(crate) fn finish(&mut self) -> Result<(), SpecError> {
            self.skip_ws();
            if self.pos == self.text.len() {
                Ok(())
            } else {
                Err(SpecError::new(format!(
                    "unexpected trailing input at byte {}",
                    self.pos
                )))
            }
        }

        /// Reads the rest of the value `token` starts into a tree. It
        /// recurses once per open container, so [`MAX_NESTING`] bounds
        /// its stack.
        fn build(&mut self, token: Token<'a>) -> Result<Value, SpecError> {
            Ok(match token {
                Token::Null => Value::Null,
                Token::Bool(b) => Value::Bool(b),
                Token::Number(n) => Value::Number(n),
                Token::String(s) => Value::String(s.into_owned()),
                Token::ArrayStart => {
                    let mut items = Vec::new();
                    while self.next_item(items.is_empty())? {
                        let token = self.token()?;
                        items.push(self.build(token)?);
                    }
                    Value::Array(items)
                }
                Token::ObjectStart => {
                    let mut pairs = Vec::new();
                    while let Some(key) = self.next_key(pairs.is_empty())? {
                        let token = self.token()?;
                        pairs.push((key.into_owned(), self.build(token)?));
                    }
                    Value::Object(pairs)
                }
            })
        }

        /// Reads past the rest of the value `token` starts, checking
        /// its syntax without building anything. Open containers are
        /// tracked on a heap stack, not the call stack.
        pub(crate) fn skip(&mut self, mut token: Token<'a>) -> Result<(), SpecError> {
            // One entry per open container: `true` for an object.
            let mut open: Vec<bool> = Vec::new();
            loop {
                let mut first = match token {
                    Token::ObjectStart => {
                        open.push(true);
                        true
                    }
                    Token::ArrayStart => {
                        open.push(false);
                        true
                    }
                    _ => false,
                };
                // Close finished containers until one has a value next.
                loop {
                    let Some(&object) = open.last() else {
                        return Ok(());
                    };
                    let more = if object {
                        self.next_key(first)?.is_some()
                    } else {
                        self.next_item(first)?
                    };
                    if more {
                        break;
                    }
                    open.pop();
                    first = false;
                }
                token = self.token()?;
            }
        }

        fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, SpecError> {
            if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(token)
            } else {
                Err(SpecError::new(format!(
                    "invalid literal at byte {}",
                    self.pos
                )))
            }
        }

        fn number(&mut self) -> Result<Token<'a>, SpecError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            self.text[start..self.pos]
                .parse::<f64>()
                .map(Token::Number)
                .map_err(|_| SpecError::new(format!("invalid number at byte {start}")))
        }

        /// Reads the string whose opening `"` is at `pos`.
        fn string(&mut self) -> Result<Cow<'a, str>, SpecError> {
            let bytes = self.text.as_bytes();
            self.pos += 1;
            let mut run = self.pos;
            let mut unescaped: Option<String> = None;
            loop {
                let Some(stop) = bytes[self.pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                else {
                    return Err(SpecError::new("unterminated string"));
                };
                self.pos += stop;
                // `"` and `\` are ASCII, so the run ends on a char
                // boundary (and starts on one: see `escape`).
                let text = &self.text[run..self.pos];
                if bytes[self.pos] == b'"' {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                let out = unescaped.get_or_insert_with(String::new);
                out.push_str(text);
                self.pos += 1;
                out.push(self.escape()?);
                run = self.pos;
            }
        }

        /// Decodes the escape whose backslash was just read, leaving
        /// `pos` past it. A `\u` escape takes four bytes that parse as
        /// hex, so they are ASCII and `pos` stays on a char boundary.
        fn escape(&mut self) -> Result<char, SpecError> {
            let bytes = self.text.as_bytes();
            let ch = match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let ch = bytes
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| SpecError::new("invalid \\u escape"))?;
                    self.pos += 4;
                    ch
                }
                _ => return Err(SpecError::new("invalid escape")),
            };
            self.pos += 1;
            Ok(ch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_assess_subcommand() {
        let spec = ActionSpec::from_json_line("{}").unwrap();
        assert_eq!(spec, ActionSpec::default());
        let action = spec.to_action().unwrap();
        assert_eq!(action.data().category, ContentClass::Content);
        assert_eq!(action.data().temporality, Temporality::RealTime);
    }

    #[test]
    fn full_line_round_trips() {
        let spec = ActionSpec::from_json_line(
            r#"{"actor": "admin", "data": "headers", "when": "stored", "where": "own-network",
                "flags": ["rate-only", "probation"], "describe": "ops review"}"#,
        )
        .unwrap();
        assert_eq!(spec.actor, "admin");
        assert_eq!(spec.flags, vec!["rate-only", "probation"]);
        assert_eq!(spec.summary(), "ops review");
        let action = spec.to_action().unwrap();
        assert!(action.method().rate_observation_only);
        assert!(action.circumstances().target_on_probation);
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = ActionSpec::from_json_line(r#"{"acter": "leo"}"#).unwrap_err();
        assert!(err.to_string().contains("acter"));
    }

    #[test]
    fn unknown_vocabulary_is_an_error_at_build_time() {
        let spec = ActionSpec::from_json_line(r#"{"actor": "martian"}"#).unwrap();
        let err = spec.to_action().unwrap_err();
        assert!(err.to_string().contains("martian"));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(ActionSpec::from_json_line("{not json").is_err());
        assert!(ActionSpec::from_json_line(r#"["array"]"#).is_err());
        assert!(ActionSpec::from_json_line(r#"{"actor": "leo"} extra"#).is_err());
    }

    #[test]
    fn directed_modifier_applies() {
        let spec = ActionSpec::from_json_line(r#"{"actor": "private", "directed": true}"#).unwrap();
        let action = spec.to_action().unwrap();
        assert!(action.actor().is_government_actor());
    }

    #[test]
    fn string_escapes_resolve() {
        let spec = ActionSpec::from_json_line(r#"{"describe": "tab\there \"quoted\" A"}"#).unwrap();
        assert_eq!(spec.describe.as_deref(), Some("tab\there \"quoted\" A"));
    }

    #[test]
    fn jsonl_reports_line_numbers_for_every_failure_kind() {
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"actor\": \"leo\", \"data\": \"headers\"}\n"); // 1: ok
        input.extend_from_slice(b"\n"); // 2: blank, skipped
        input.extend_from_slice(b"{\"actor\": \"leo\"\n"); // 3: truncated JSON
        input.extend_from_slice(b"{\"actor\": \"l\xff\xfeo\"}\n"); // 4: bad UTF-8
        input.extend_from_slice(b"{\"acter\": \"leo\"}\n"); // 5: unknown field
        input.extend_from_slice(b"{\"where\": \"device\"}\r\n"); // 6: ok, CRLF
        let batch = parse_jsonl(&input);
        assert!(!batch.is_clean());
        assert_eq!(
            batch.lines.iter().map(|l| l.line).collect::<Vec<_>>(),
            vec![1, 6]
        );
        let errors: Vec<(usize, String)> = batch
            .errors
            .iter()
            .map(|e| (e.line, e.to_string()))
            .collect();
        assert_eq!(errors.len(), 3);
        assert!(errors[0].1.starts_with("line 3:"), "{errors:?}");
        assert!(errors[1].1.starts_with("line 4:"), "{errors:?}");
        assert!(errors[1].1.contains("invalid UTF-8"), "{errors:?}");
        assert!(errors[2].1.starts_with("line 5:"), "{errors:?}");
        assert!(errors[2].1.contains("acter"), "{errors:?}");
    }

    #[test]
    fn jsonl_truncated_string_is_rejected_with_its_line() {
        let batch = parse_jsonl(b"{\"describe\": \"cut off");
        assert!(batch.lines.is_empty());
        assert_eq!(batch.errors.len(), 1);
        assert_eq!(batch.errors[0].line, 1);
        assert!(
            batch.errors[0].error.to_string().contains("unterminated"),
            "{}",
            batch.errors[0]
        );
    }

    #[test]
    fn jsonl_unknown_vocabulary_is_a_line_error_not_a_panic() {
        let batch = parse_jsonl(b"{\"where\": \"narnia\"}\n{}\n");
        assert_eq!(batch.lines.len(), 1);
        assert_eq!(batch.errors.len(), 1);
        assert!(batch.errors[0].to_string().contains("narnia"));
    }

    #[test]
    fn jsonl_of_blank_lines_is_clean_and_empty() {
        let batch = parse_jsonl(b"\n  \n\r\n");
        assert!(batch.is_clean());
        assert!(batch.lines.is_empty());
    }

    #[test]
    fn plain_view_flag_marks_the_discovery() {
        let spec = ActionSpec::from_json_line(
            r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device",
                "flags": ["plain-view"]}"#,
        )
        .unwrap();
        let action = spec.to_action().unwrap();
        assert!(action.circumstances().plain_view_during_lawful_presence);
    }

    #[test]
    fn from_json_value_accepts_a_nested_object() {
        let doc = json::parse(r#"{"goal": {"actor": "leo", "data": "subscriber"}}"#).unwrap();
        let json::Value::Object(pairs) = doc else {
            panic!("expected object");
        };
        let (_, inner) = pairs.into_iter().next().unwrap();
        let spec = ActionSpec::from_json_value(inner).unwrap();
        assert_eq!(spec.data, "subscriber");
        assert!(ActionSpec::from_json_value(json::Value::Null).is_err());
    }

    /// A request just under the wire's 1 MiB frame limit decodes in
    /// linear time. Re-validating the rest of the line for every
    /// character read made this one line take some 22 s in a release
    /// build; linear decoding takes milliseconds even in a debug build.
    #[test]
    fn a_thousand_kib_description_decodes_within_a_second() {
        let mut text = String::new();
        while text.len() < 1000 * 1024 {
            text.push_str("seized laptop \u{e9} \u{1f50d} \"tab\"\there\n");
        }
        let mut escaped = String::new();
        crate::provenance::push_escaped(&mut escaped, &text);
        let line = format!(r#"{{"actor": "leo", "describe": "{escaped}"}}"#);
        let start = std::time::Instant::now();
        let spec = ActionSpec::from_json_line(&line).unwrap();
        let elapsed = start.elapsed();
        assert!(
            spec.describe.as_deref() == Some(text.as_str()),
            "decoded text differs"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "decoding {} bytes took {elapsed:?}",
            line.len()
        );
    }

    /// Values the spec does not use are read past without recursion,
    /// up to the nesting limit; past it, both readers refuse the line
    /// at the first bracket too deep, before reading any further.
    #[test]
    fn deeply_nested_unknown_values_are_skipped_without_recursion() {
        // `{` is level 1, so the limit leaves `MAX_NESTING - 1` brackets.
        let fits = json::MAX_NESTING - 1;
        let line = format!(r#"{{"extra": {}{}}}"#, "[".repeat(fits), "]".repeat(fits));
        let err = ActionSpec::from_json_line(&line).unwrap_err();
        assert_eq!(err.to_string(), "unknown key \"extra\"");
        let too_deep = "nesting deeper than 128 levels at byte 137";
        let depth = 200_000;
        let line = format!(r#"{{"extra": {}{}}}"#, "[".repeat(depth), "]".repeat(depth));
        let err = ActionSpec::from_json_line(&line).unwrap_err();
        assert_eq!(err.to_string(), too_deep);
        assert_eq!(json::parse(&line).unwrap_err().to_string(), too_deep);
        let unclosed = format!(r#"{{"extra": {}"#, "[".repeat(depth));
        let err = ActionSpec::from_json_line(&unclosed).unwrap_err();
        assert_eq!(err.to_string(), too_deep);
    }

    /// Precedence: a syntax error anywhere beats any key or type error,
    /// and among those the first in source order wins.
    #[test]
    fn syntax_errors_outrank_the_first_key_error() {
        let cases = [
            (
                r#"{"acter": "leo", "data": 7"#,
                "expected ',' or '}' in object",
            ),
            (
                r#"{"acter": "leo"} trailing"#,
                "unexpected trailing input at byte 17",
            ),
            (r#"["leo", tru]"#, "invalid literal at byte 8"),
            (
                r#"{"data": 7, "acter": "leo"}"#,
                "\"data\" must be a string",
            ),
            (
                r#"{"flags": ["consent", 3, {}], "directed": "yes"}"#,
                "\"flags\" must be a string",
            ),
            (r#"{"directed": null}"#, "\"directed\" must be a boolean"),
            (
                r#"{"flags": "consent"}"#,
                "\"flags\" must be an array of strings",
            ),
            (r#"{"actor": "leo", "x\ty": 1}"#, "unknown key \"x\ty\""),
            ("\"leo\"", "expected a JSON object"),
        ];
        for (line, expected) in cases {
            let err = ActionSpec::from_json_line(line).unwrap_err();
            assert_eq!(err.to_string(), expected, "{line}");
        }
    }

    #[test]
    fn repeated_keys_keep_the_last_value_and_accumulate_flags() {
        let spec = ActionSpec::from_json_line(
            r#"{"actor": "admin", "flags": ["consent"], "actor": "private", "flags": [], "flags": ["exigent"]}"#,
        )
        .unwrap();
        assert_eq!(spec.actor, "private");
        assert_eq!(spec.flags, vec!["consent", "exigent"]);
    }

    #[test]
    fn summary_without_description_lists_fields_and_flags() {
        let spec = ActionSpec::from_json_line(r#"{"flags": ["rate-only"]}"#).unwrap();
        assert_eq!(
            spec.summary(),
            "leo collects content realtime at isp [rate-only]"
        );
    }
}
