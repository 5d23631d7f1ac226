//! The text request/response protocol carried inside frames.
//!
//! Requests are single frames; the first word selects the command:
//!
//! ```text
//! PING
//! CREATE STREAM <name> <field>:<type>[,<field>:<type>...]
//! CREATE TABLE <name> <field>:<type>[,...] KEY <field>
//! CAPTURE <table> TRIGGER|JOURNAL
//! REGISTER QUERY <name> <cql...>
//! INGEST <stream> <ts-ms> <v1>,<v2>,...
//! INSERT <table> <v1>,<v2>,...
//! SUBSCRIBE <query>
//! UNSUBSCRIBE <query>
//! GET <query>
//! PUMP
//! STATS
//! QUIT
//! ```
//!
//! Replies are `OK[ detail]`, `ROW <row>` (one per result row, before a
//! closing `OK <n> rows`, or `OK <n> rows evicted=<m>` when the query's
//! view dropped its `m` oldest rows at its cap — see
//! [`VIEW_ROWS`](crate::hub::VIEW_ROWS)), `UPDATE <query> +|- <row>` (subscription
//! push; `-` marks a retraction delta from `on_query_updates`), or
//! `ERR <kind> <message>` where `<kind>` is the machine-readable
//! [`evdb_types::Error::kind`] (`overloaded`, `not_found`, `parse`, …)
//! plus the protocol-level `proto` for malformed requests.
//!
//! Ingest payload values are typed by the target schema, comma
//! separated: `INT`/`FLOAT`/`TIMESTAMP` as decimal text, `BOOL` as
//! `true`/`false`, `STR` as raw text (commas and leading/trailing
//! whitespace need the quoted form `'a, b'`, `''` escaping a quote),
//! `BYTES` as `x'<hex>'`, and `NULL` for any nullable field. Rows in
//! replies render values the same way, so a transcript reads uniformly.
//!
//! Inside a quoted string, `\n`, `\r`, and `\\` are escape sequences
//! for newline, carriage return, and backslash (any other `\x` is
//! literal). [`render_value`] always emits those escapes, so a
//! rendered row is guaranteed newline-free no matter what the column
//! holds — which is what keeps one-row-per-line delivery framing (SSE
//! `data:` events, HTTP `/query` bodies, newline-framed TCP replies)
//! immune to hostile string values, round-trippable via
//! [`parse_record`].

use std::fmt::Write;
use std::sync::Arc;

use evdb_types::{DataType, Error, Record, Result, Schema, TimestampMs, Value};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe → `PONG`.
    Ping,
    /// Declare a free-standing stream.
    CreateStream { name: String, schema: Arc<Schema> },
    /// Create a table (primary key by field name).
    CreateTable {
        name: String,
        schema: Arc<Schema>,
        key: String,
    },
    /// Capture a table's changes into a stream.
    Capture { table: String, journal: bool },
    /// Register a CQL continuous query.
    RegisterQuery { name: String, cql: String },
    /// Stage one event on a stream (admission-controlled).
    Ingest {
        stream: String,
        ts: TimestampMs,
        values: String,
    },
    /// Insert a row into a table (trigger captures run in-transaction,
    /// so `Reject` rolls the write back).
    Insert { table: String, values: String },
    /// Start streaming a query's update deltas to this session.
    Subscribe { query: String },
    /// Stop streaming a query to this session.
    Unsubscribe { query: String },
    /// Read a query's current materialized rows.
    Get { query: String },
    /// Drain the staged buffer through the pipeline once.
    Pump,
    /// One-line ingest accounting summary.
    Stats,
    /// Close the session.
    Quit,
}

/// Parse one request frame. `Err` carries a human message; the caller
/// wraps it as `ERR proto …`.
pub fn parse_request(line: &str) -> std::result::Result<Request, String> {
    let line = line.trim();
    let (cmd, rest) = split_word(line);
    match cmd.to_ascii_uppercase().as_str() {
        "PING" => expect_empty(rest, Request::Ping),
        "QUIT" => expect_empty(rest, Request::Quit),
        "PUMP" => expect_empty(rest, Request::Pump),
        "STATS" => expect_empty(rest, Request::Stats),
        "CREATE" => {
            let (what, rest) = split_word(rest);
            match what.to_ascii_uppercase().as_str() {
                "STREAM" => {
                    let (name, spec) = split_word(rest);
                    if name.is_empty() || spec.is_empty() {
                        return Err("usage: CREATE STREAM <name> <field>:<type>,...".into());
                    }
                    Ok(Request::CreateStream {
                        name: name.to_string(),
                        schema: parse_schema(spec)?,
                    })
                }
                "TABLE" => {
                    let (name, rest) = split_word(rest);
                    let Some((spec, key)) = rest.rsplit_once(" KEY ") else {
                        return Err(
                            "usage: CREATE TABLE <name> <field>:<type>,... KEY <field>".into()
                        );
                    };
                    if name.is_empty() {
                        return Err("CREATE TABLE needs a name".into());
                    }
                    Ok(Request::CreateTable {
                        name: name.to_string(),
                        schema: parse_schema(spec.trim())?,
                        key: key.trim().to_string(),
                    })
                }
                other => Err(format!("unknown CREATE target '{other}'")),
            }
        }
        "CAPTURE" => {
            let (table, mech) = split_word(rest);
            let journal = match mech.trim().to_ascii_uppercase().as_str() {
                "TRIGGER" => false,
                "JOURNAL" => true,
                other => return Err(format!("unknown capture mechanism '{other}'")),
            };
            Ok(Request::Capture {
                table: table.to_string(),
                journal,
            })
        }
        "REGISTER" => {
            let (what, rest) = split_word(rest);
            if !what.eq_ignore_ascii_case("QUERY") {
                return Err(format!("unknown REGISTER target '{what}'"));
            }
            let (name, cql) = split_word(rest);
            if name.is_empty() || cql.is_empty() {
                return Err("usage: REGISTER QUERY <name> <cql>".into());
            }
            Ok(Request::RegisterQuery {
                name: name.to_string(),
                cql: cql.to_string(),
            })
        }
        "INGEST" => {
            let (stream, rest) = split_word(rest);
            let (ts, values) = split_word(rest);
            let ts: i64 = ts
                .parse()
                .map_err(|_| format!("bad timestamp '{ts}' (milliseconds expected)"))?;
            if stream.is_empty() || values.is_empty() {
                return Err("usage: INGEST <stream> <ts-ms> <v1>,<v2>,...".into());
            }
            Ok(Request::Ingest {
                stream: stream.to_string(),
                ts: TimestampMs(ts),
                values: values.to_string(),
            })
        }
        "INSERT" => {
            let (table, values) = split_word(rest);
            if table.is_empty() || values.is_empty() {
                return Err("usage: INSERT <table> <v1>,<v2>,...".into());
            }
            Ok(Request::Insert {
                table: table.to_string(),
                values: values.to_string(),
            })
        }
        "SUBSCRIBE" => one_name(rest, "SUBSCRIBE <query>").map(|query| Request::Subscribe { query }),
        "UNSUBSCRIBE" => {
            one_name(rest, "UNSUBSCRIBE <query>").map(|query| Request::Unsubscribe { query })
        }
        "GET" => one_name(rest, "GET <query>").map(|query| Request::Get { query }),
        "" => Err("empty request".into()),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

fn expect_empty(rest: &str, req: Request) -> std::result::Result<Request, String> {
    if rest.is_empty() {
        Ok(req)
    } else {
        Err(format!("unexpected trailing input '{rest}'"))
    }
}

fn one_name(rest: &str, usage: &str) -> std::result::Result<String, String> {
    let (name, tail) = split_word(rest);
    if name.is_empty() || !tail.is_empty() {
        return Err(format!("usage: {usage}"));
    }
    Ok(name.to_string())
}

/// Parse `field:type[,field:type...]` into a schema. A trailing `?`
/// on the type marks the field nullable.
pub fn parse_schema(spec: &str) -> std::result::Result<Arc<Schema>, String> {
    let mut fields = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let Some((name, ty)) = part.split_once(':') else {
            return Err(format!("bad field spec '{part}' (want name:type)"));
        };
        let (ty, nullable) = match ty.strip_suffix('?') {
            Some(t) => (t, true),
            None => (ty, false),
        };
        let dtype = match ty.trim().to_ascii_uppercase().as_str() {
            "BOOL" => DataType::Bool,
            "INT" => DataType::Int,
            "FLOAT" => DataType::Float,
            "STR" => DataType::Str,
            "BYTES" => DataType::Bytes,
            "TIMESTAMP" | "TS" => DataType::Timestamp,
            other => return Err(format!("unknown type '{other}'")),
        };
        fields.push(if nullable {
            evdb_types::FieldDef::nullable(name.trim(), dtype)
        } else {
            evdb_types::FieldDef::required(name.trim(), dtype)
        });
    }
    Schema::new(fields).map_err(|e| e.to_string())
}

/// Split a value list on commas, honoring `'...'` quoting (with `''`
/// escapes) so string values may contain commas.
fn split_values(s: &str) -> std::result::Result<Vec<&str>, String> {
    let bytes = s.as_bytes();
    let mut parts = Vec::new();
    let mut start = 0;
    let mut i = 0;
    let mut in_quote = false;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if in_quote && bytes.get(i + 1) == Some(&b'\'') => i += 1, // escaped quote
            b'\'' => in_quote = !in_quote,
            b',' if !in_quote => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if in_quote {
        return Err("unterminated quoted string".into());
    }
    parts.push(&s[start..]);
    Ok(parts)
}

/// Parse one comma-separated value list against `schema`.
pub fn parse_record(schema: &Schema, values: &str) -> Result<Record> {
    let parts = split_values(values).map_err(Error::Schema)?;
    if parts.len() != schema.len() {
        return Err(Error::Schema(format!(
            "expected {} values, got {}",
            schema.len(),
            parts.len()
        )));
    }
    let mut out = Vec::with_capacity(parts.len());
    for (part, field) in parts.iter().zip(schema.fields()) {
        out.push(parse_value(part.trim(), field.dtype)?);
    }
    Ok(Record::new(out))
}

fn parse_value(text: &str, dtype: DataType) -> Result<Value> {
    if text == "NULL" {
        return Ok(Value::Null);
    }
    let bad = |what: &str| Error::Schema(format!("bad {what} value '{text}'"));
    match dtype {
        DataType::Bool => match text {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(bad("BOOL")),
        },
        DataType::Int => text.parse().map(Value::Int).map_err(|_| bad("INT")),
        DataType::Float => text.parse().map(Value::Float).map_err(|_| bad("FLOAT")),
        DataType::Timestamp => text
            .strip_prefix('@')
            .unwrap_or(text)
            .parse()
            .map(|ms| Value::Timestamp(TimestampMs(ms)))
            .map_err(|_| bad("TIMESTAMP")),
        DataType::Str => {
            let inner = match text.strip_prefix('\'').and_then(|t| t.strip_suffix('\'')) {
                Some(inner) => unescape_quoted(inner),
                None => text.to_string(),
            };
            Ok(Value::str(inner))
        }
        DataType::Bytes => {
            let hex = text
                .strip_prefix("x'")
                .and_then(|t| t.strip_suffix('\''))
                .ok_or_else(|| bad("BYTES (want x'<hex>')"))?;
            if hex.len() % 2 != 0 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(bad("BYTES hex"));
            }
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("checked hex"))
                .collect();
            Ok(Value::bytes(bytes))
        }
    }
}

/// Decode the quoted-string body: `''` → `'`, `\n`/`\r`/`\\` →
/// newline / carriage return / backslash; any other `\x` stays
/// literal (lenient, so pre-escape clients still round-trip).
fn unescape_quoted(inner: &str) -> String {
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            // Quotes inside the body come in pairs (split_values keeps
            // the frame balanced); fold each pair to one.
            '\'' => {
                chars.next();
                out.push('\'');
            }
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            },
            c => out.push(c),
        }
    }
    out
}

/// Render one value in the protocol's ingest-compatible form. The
/// result never contains `\n` or `\r` — newline-unsafe strings take
/// the quoted form with escapes — so one-row-per-line framing (SSE
/// events, `/query` bodies, line frames) survives any column value.
pub fn render_value(v: &Value) -> String {
    let mut out = String::new();
    render_value_into(v, &mut out);
    out
}

/// [`render_value`], appended to `out`.
fn render_value_into(v: &Value, out: &mut String) {
    match v {
        // Strings quote only when the raw form would not parse back
        // (commas, quotes, escapes, newlines, surrounding whitespace,
        // or look-alikes).
        Value::Str(s) => {
            let plain = !s.is_empty()
                && !s.contains([',', '\'', '\\', '\n', '\r'])
                && s.trim() == s.as_ref()
                && s.as_ref() != "NULL";
            if plain {
                out.push_str(s);
                return;
            }
            out.reserve(s.len() + 2);
            out.push('\'');
            for c in s.chars() {
                match c {
                    '\'' => out.push_str("''"),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('\'');
        }
        // Display already matches the parse forms; writing to a String
        // cannot fail.
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

/// Render a row as a comma-separated value list (the `ROW`/`UPDATE`
/// payload form, re-ingestable via `parse_record`).
pub fn render_row(record: &Record) -> String {
    let mut out = String::new();
    render_row_into(record, &mut out);
    out
}

/// [`render_row`], appended to `out`: no allocation beyond growing the
/// caller's buffer, so a caller that reuses one renders for free.
pub fn render_row_into(record: &Record, out: &mut String) {
    for (i, v) in record.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_value_into(v, out);
    }
}

/// Render the standard error reply for an engine error.
pub fn render_err(e: &Error) -> String {
    format!("ERR {} {e}", e.kind())
}

/// Render the error reply for a malformed request.
pub fn render_proto_err(msg: &str) -> String {
    format!("ERR proto {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_core_commands() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("  pump  ").unwrap(), Request::Pump);
        let r = parse_request("INGEST ticks 100 AAPL,1.5").unwrap();
        assert_eq!(
            r,
            Request::Ingest {
                stream: "ticks".into(),
                ts: TimestampMs(100),
                values: "AAPL,1.5".into()
            }
        );
        assert!(matches!(
            parse_request("REGISTER QUERY v SELECT count() AS n FROM t [ROWS 2]").unwrap(),
            Request::RegisterQuery { .. }
        ));
    }

    #[test]
    fn malformed_requests_error_without_panic() {
        for bad in [
            "",
            "FROB",
            "INGEST",
            "INGEST s notanumber 1",
            "CREATE STREAM",
            "CREATE TABLE t a:int",   // missing KEY
            "CREATE STREAM s a:blob", // unknown type
            "SUBSCRIBE a b",
            "PING extra",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn schema_spec_round_trip() {
        let s = parse_schema("sym:str,px:float,n:int?,ok:bool,at:ts").unwrap();
        assert_eq!(s.len(), 5);
        assert!(s.fields()[2].nullable);
        assert_eq!(s.fields()[4].dtype, DataType::Timestamp);
    }

    #[test]
    fn record_parse_and_render_round_trip() {
        let schema = parse_schema("sym:str,px:float,n:int,ok:bool,at:ts,raw:bytes").unwrap();
        let rec = parse_record(&schema, "'A,B''s',1.5,-3,true,@99,x'0aff'").unwrap();
        assert_eq!(rec.get(0), Some(&Value::str("A,B's")));
        assert_eq!(rec.get(1), Some(&Value::Float(1.5)));
        assert_eq!(rec.get(4), Some(&Value::Timestamp(TimestampMs(99))));
        let rendered = render_row(&rec);
        let back = parse_record(&schema, &rendered).unwrap();
        assert_eq!(back, rec, "render must re-parse identically: {rendered}");
        // The buffer form appends exactly the same text.
        let mut buf = String::from("ROW ");
        render_row_into(&rec, &mut buf);
        assert_eq!(buf, format!("ROW {rendered}"));
    }

    #[test]
    fn newline_unsafe_strings_render_escaped_and_round_trip() {
        let schema = parse_schema("a:str,b:int").unwrap();
        for hostile in [
            "line1\nline2",
            "cr\rhere",
            "crlf\r\nboth",
            "back\\slash",
            "\\n literal-then\nreal",
            "mix,'quote'\n\\",
        ] {
            let rec = Record::new(vec![Value::str(hostile), Value::Int(1)]);
            let rendered = render_row(&rec);
            assert!(
                !rendered.contains(['\n', '\r']),
                "rendered rows must be newline-free: {rendered:?}"
            );
            let back = parse_record(&schema, &rendered).unwrap();
            assert_eq!(back, rec, "escape round trip failed for {hostile:?}");
        }
    }

    #[test]
    fn raw_newline_in_quoted_input_still_parses() {
        // Legacy/length-framed clients may send the raw byte; parsing
        // keeps accepting it even though our renderer never emits it.
        let schema = parse_schema("a:str").unwrap();
        let rec = parse_record(&schema, "'a\nb'").unwrap();
        assert_eq!(rec.get(0), Some(&Value::str("a\nb")));
    }

    #[test]
    fn plain_strings_render_unquoted() {
        let schema = parse_schema("a:str,b:int").unwrap();
        let rec = parse_record(&schema, "hello,42").unwrap();
        assert_eq!(render_row(&rec), "hello,42");
    }

    #[test]
    fn value_count_mismatch_is_schema_error() {
        let schema = parse_schema("a:int,b:int").unwrap();
        assert_eq!(parse_record(&schema, "1").unwrap_err().kind(), "schema");
        assert_eq!(parse_record(&schema, "1,2,3").unwrap_err().kind(), "schema");
    }
}
