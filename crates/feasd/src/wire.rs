//! The line-delimited-JSON front-end.
//!
//! One request is one JSON object on one line. [`query_from_json`] reads its
//! members straight into per-field slots, and [`serve`](crate::serve) writes
//! the answer or error straight into its reply buffer; the serving path
//! builds no tree. The reader is a minimal hand-rolled recursive-descent
//! JSON scanner (objects, strings, numbers, booleans, null — the container
//! has no serde); [`json_to_node`] runs it into a [`conduit_node::Node`].
//! Keys are literal names: `"tasks/"` is an unknown key, not `tasks` (a
//! `Node` reads a `/` as a path). Unknown keys and nested values are dropped;
//! of a repeated key the last one counts. `tasks`, `cells_per_task` and
//! `image_side` must fit the `u32` of a table key. Request shape (`device`,
//! `priority`, `images` optional):
//!
//! ```json
//! {"ask":"feasibility","renderer":"volume_rendering","image_side":1024,
//!  "cells_per_task":200,"tasks":64,"budget_s":10.0,"images":100,
//!  "device":"parallel","priority":"must-render"}
//! {"ask":"plan","cells_per_task":200,"tasks":64,"budget_s":10.0,"images":100}
//! ```

use crate::service::{Answer, Ask, Query};
use conduit_node::{Node, Value};
use perfmodel::fstable::DeviceClass;
use perfmodel::mapping::RenderConfig;
use perfmodel::sample::RendererKind;
use sched::Priority;
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Parse or validation failure for one request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

fn werr(message: impl Into<String>) -> WireError {
    WireError { message: message.into() }
}

// ---------------------------------------------------------------- JSON in

/// Deepest object nesting a line may have. The wire format is flat; the
/// bound keeps a hostile line from overflowing the stack, in the parser or
/// in the drop of the tree it would build.
const MAX_DEPTH: usize = 32;

/// Most keys one object may have: `Node` looks a key up by scanning its
/// siblings, so [`json_to_node`] would take quadratic time on an unbounded
/// object. The request reader holds the same limit.
const MAX_KEYS: usize = 64;

/// One value as the scanner reads it: a string, borrowed from the line
/// unless it holds an escape, or any other value as its node.
enum Json<'a> {
    Str(Cow<'a, str>),
    Node(Node),
}

impl Json<'_> {
    fn into_node(self) -> Node {
        match self {
            Json::Str(s) => Node::Leaf(Value::Str(s.into_owned())),
            Json::Node(node) => node,
        }
    }
}

struct Parser<'a> {
    line: &'a str,
    pos: usize,
    /// Objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(werr(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Json<'a>, WireError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_node_object().map(Json::Node),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_literal("true", Node::Leaf(Value::Bool(true))),
            Some(b'f') => self.parse_literal("false", Node::Leaf(Value::Bool(false))),
            Some(b'n') => self.parse_literal("null", Node::Empty),
            Some(b'[') => Err(werr("arrays are not part of the query wire format")),
            Some(_) => self.parse_number().map(Json::Node),
            None => Err(werr("unexpected end of line")),
        }
    }

    fn parse_literal(&mut self, lit: &str, node: Node) -> Result<Json<'a>, WireError> {
        if self.line.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(Json::Node(node))
        } else {
            Err(werr(format!("expected `{lit}` at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<Cow<'a, str>, WireError> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // The run up to the next quote or escape. Both are ASCII, so it
            // ends on a char boundary of `line`; only the first run can meet
            // an empty `out`, as every escape pushes a character.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                self.pos += 1;
            }
            let run = &self.line[start..self.pos];
            if out.is_empty() {
                out = Cow::Borrowed(run);
            } else {
                out.to_mut().push_str(run);
            }
            let esc = match self.peek() {
                None => return Err(werr("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.line.as_bytes().get(self.pos + 1).copied(),
            };
            self.pos += 2;
            out.to_mut().push(match esc.ok_or_else(|| werr("unterminated escape"))? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                other => return Err(werr(format!("unsupported escape `\\{}`", other as char))),
            });
        }
    }

    fn parse_number(&mut self) -> Result<Node, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = &self.line[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Node::Leaf(Value::I64(i)));
            }
        }
        let f = text.parse::<f64>().map_err(|_| werr(format!("bad number `{text}`")))?;
        Ok(Node::Leaf(Value::F64(f)))
    }

    /// An object: `member` reads the value of each key, after its `:`.
    fn parse_object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        for _ in 0..MAX_KEYS {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(werr(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
        Err(werr(format!("more than {MAX_KEYS} keys in one object")))
    }

    fn parse_node_object(&mut self) -> Result<Node, WireError> {
        let mut node = Node::Object(Vec::new());
        self.parse_object(|p, key| {
            // A `/` in a key nests too: `fetch_mut` reads it as a path.
            if p.depth + key.matches('/').count() > MAX_DEPTH {
                return Err(werr(format!("nesting deeper than {MAX_DEPTH} at byte {}", p.pos)));
            }
            *node.fetch_mut(&key) = p.parse_value()?.into_node();
            Ok(())
        })?;
        Ok(node)
    }

    /// Only whitespace may follow the value.
    fn finish(mut self) -> Result<(), WireError> {
        self.skip_ws();
        if self.pos != self.line.len() {
            return Err(werr(format!("trailing garbage at byte {}", self.pos)));
        }
        Ok(())
    }
}

/// Parse one JSON line into a conduit node.
pub fn json_to_node(line: &str) -> Result<Node, WireError> {
    let mut p = Parser { line, pos: 0, depth: 0 };
    let node = p.parse_value()?.into_node();
    p.finish()?;
    Ok(node)
}

/// The request's fields: the slots [`query_from_json`] fills.
const FIELDS: [&str; 9] = [
    "ask",
    "renderer",
    "device",
    "priority",
    "image_side",
    "cells_per_task",
    "tasks",
    "budget_s",
    "images",
];

/// Parse one JSON line straight to a [`Query`].
pub fn query_from_json(line: &str) -> Result<Query, WireError> {
    let mut p = Parser { line, pos: 0, depth: 0 };
    let mut slots: [Option<Json>; 9] = Default::default();
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.parse_object(|p, key| {
            let value = p.parse_value()?;
            if let Some(i) = FIELDS.iter().position(|f| *f == key) {
                slots[i] = Some(value);
            }
            Ok(())
        })?;
    } else {
        // Any other value has no fields: validation names the first missing.
        p.parse_value()?;
    }
    p.finish()?;

    let get = |key: &str| slots[FIELDS.iter().position(|f| *f == key)?].as_ref();
    let text = |key| match get(key) {
        Some(Json::Str(s)) => Some(&**s),
        _ => None,
    };
    let node = |key| match get(key) {
        Some(Json::Node(n)) => Some(n),
        _ => None,
    };
    // `TableKey` holds each count in a `u32`: a larger one would be
    // answered for its truncation.
    let count = |key: &'static str| {
        let v = node(key).and_then(Node::as_i64);
        let v = v.ok_or_else(|| werr(format!("missing integer field `{key}`")))?;
        match u32::try_from(v) {
            Ok(v) => Ok(v as usize),
            Err(_) if v < 0 => Err(werr(format!("field `{key}` must be non-negative"))),
            Err(_) => Err(werr(format!("field `{key}` must be at most {}", u32::MAX))),
        }
    };
    let device = match text("device") {
        None => DeviceClass::Parallel,
        Some(s) => DeviceClass::parse(s).ok_or_else(|| werr(format!("unknown device `{s}`")))?,
    };
    let priority = match text("priority") {
        None => Priority::Normal,
        Some(s) => Priority::parse(s).ok_or_else(|| werr(format!("unknown priority `{s}`")))?,
    };
    let budget_s = node("budget_s").and_then(Node::as_f64);
    let budget_s = budget_s.ok_or_else(|| werr("missing numeric field `budget_s`"))?;
    if !(budget_s.is_finite() && budget_s >= 0.0) {
        return Err(werr("budget_s must be finite and non-negative"));
    }
    let images = match node("images").and_then(Node::as_f64) {
        None => 1.0,
        Some(i) if i.is_finite() && i >= 0.0 => i,
        Some(_) => return Err(werr("images must be finite and non-negative")),
    };
    let ask = match text("ask").unwrap_or("feasibility") {
        "feasibility" => {
            let label = text("renderer").ok_or_else(|| werr("missing string field `renderer`"))?;
            let renderer = RendererKind::parse(label)
                .ok_or_else(|| werr(format!("unknown renderer `{label}`")))?;
            let side = count("image_side")?;
            let pixels = side.checked_mul(side).ok_or_else(|| werr("image_side is too large"))?;
            let cells_per_task = count("cells_per_task")?;
            let config = RenderConfig { renderer, cells_per_task, pixels, tasks: count("tasks")? };
            Ask::Feasibility { config, budget_s, images }
        }
        "plan" => {
            let cells_per_task = count("cells_per_task")?;
            Ask::Plan { cells_per_task, tasks: count("tasks")?, budget_s, images }
        }
        other => return Err(werr(format!("unknown ask `{other}`"))),
    };
    Ok(Query { device, priority, ask })
}

// --------------------------------------------------------------- JSON out

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append one answer object to `out` (no newline). Writing into a `String`
/// cannot fail; `{:?}` is the shortest form of a float that reads back.
pub(crate) fn write_answer(out: &mut String, a: &Answer) {
    let _ = write!(out, "{{\"feasible\":{}", a.feasible);
    let (i, p, b) = (a.images_possible, a.per_frame_s, a.build_s);
    for (key, x) in [("images_possible", i), ("per_frame_s", p), ("build_s", b)] {
        let _ = if x.is_finite() {
            write!(out, ",\"{key}\":{x:?}")
        } else {
            write!(out, ",\"{key}\":null")
        };
    }
    out.push_str(",\"renderer\":");
    push_quoted(out, a.renderer.name());
    let _ = write!(out, ",\"image_side\":{},\"source\":", a.image_side);
    push_quoted(out, a.source.label());
    let _ = write!(out, ",\"generation\":{}}}", a.generation);
}

/// Append one `{"error": ...}` object to `out` (no newline): it keeps the
/// reply stream in lockstep with its requests.
pub(crate) fn write_error(out: &mut String, message: &str) {
    out.push_str("{\"error\":");
    push_quoted(out, message);
    out.push('}');
}

/// One JSON answer line.
pub fn answer_to_json(a: &Answer) -> String {
    let mut out = String::with_capacity(192); // a typical answer, in one allocation
    write_answer(&mut out, a);
    out
}

/// One JSON error line.
pub fn error_to_json(message: &str) -> String {
    let mut out = String::new();
    write_error(&mut out, message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Source;
    use crate::{generate, serve, Feasd, FeasdConfig, Lattice, TrafficConfig};
    use perfmodel::fstable::TableKey;
    use perfmodel::mapping::MappingConstants;
    use proptest::prelude::*;
    use std::io::{BufRead, Write};

    // ------------------------------------------------------------- oracle
    //
    // The tree path the reader and the writers replaced, verbatim but for
    // the `u32` bound `get_usize` shares with `count` in `query_from_json`:
    // every line through `json_to_node` and `query_from_node`, every reply
    // through a `Node` and `node_to_json`.

    fn get_usize(node: &Node, key: &str) -> Result<usize, WireError> {
        let v = node
            .get_i64(key)
            .or_else(|| node.get_f64(key).map(|f| f as i64))
            .ok_or_else(|| werr(format!("missing integer field `{key}`")))?;
        let v =
            usize::try_from(v).map_err(|_| werr(format!("field `{key}` must be non-negative")))?;
        if v > u32::MAX as usize {
            return Err(werr(format!("field `{key}` must be at most {}", u32::MAX)));
        }
        Ok(v)
    }

    fn get_f64(node: &Node, key: &str) -> Result<f64, WireError> {
        node.get_f64(key)
            .or_else(|| node.get_i64(key).map(|i| i as f64))
            .ok_or_else(|| werr(format!("missing numeric field `{key}`")))
    }

    fn query_from_node(node: &Node) -> Result<Query, WireError> {
        let device = match node.get_str("device") {
            None => DeviceClass::Parallel,
            Some(s) => {
                DeviceClass::parse(s).ok_or_else(|| werr(format!("unknown device `{s}`")))?
            }
        };
        let priority = match node.get_str("priority") {
            None => Priority::Normal,
            Some(s) => Priority::parse(s).ok_or_else(|| werr(format!("unknown priority `{s}`")))?,
        };
        let budget_s = get_f64(node, "budget_s")?;
        if !(budget_s.is_finite() && budget_s >= 0.0) {
            return Err(werr("budget_s must be finite and non-negative"));
        }
        let images =
            match node.get_f64("images").or_else(|| node.get_i64("images").map(|i| i as f64)) {
                None => 1.0,
                Some(i) if i.is_finite() && i >= 0.0 => i,
                Some(_) => return Err(werr("images must be finite and non-negative")),
            };
        let ask = match node.get_str("ask").unwrap_or("feasibility") {
            "feasibility" => {
                let renderer_label = node
                    .get_str("renderer")
                    .ok_or_else(|| werr("missing string field `renderer`"))?;
                let renderer = RendererKind::parse(renderer_label)
                    .ok_or_else(|| werr(format!("unknown renderer `{renderer_label}`")))?;
                let side = get_usize(node, "image_side")?;
                let pixels =
                    side.checked_mul(side).ok_or_else(|| werr("image_side is too large"))?;
                Ask::Feasibility {
                    config: RenderConfig {
                        renderer,
                        cells_per_task: get_usize(node, "cells_per_task")?,
                        pixels,
                        tasks: get_usize(node, "tasks")?,
                    },
                    budget_s,
                    images,
                }
            }
            "plan" => Ask::Plan {
                cells_per_task: get_usize(node, "cells_per_task")?,
                tasks: get_usize(node, "tasks")?,
                budget_s,
                images,
            },
            other => return Err(werr(format!("unknown ask `{other}`"))),
        };
        Ok(Query { device, priority, ask })
    }

    fn answer_to_node(a: &Answer) -> Node {
        let mut node = Node::new();
        node.set("feasible", a.feasible);
        node.set("images_possible", a.images_possible);
        node.set("per_frame_s", a.per_frame_s);
        node.set("build_s", a.build_s);
        node.set("renderer", a.renderer.name());
        node.set("image_side", a.image_side as i64);
        node.set("source", a.source.label());
        node.set("generation", a.generation as i64);
        node
    }

    fn escape_into(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
    }

    fn node_to_json(node: &Node) -> String {
        let mut out = String::new();
        render(node, &mut out);
        out
    }

    fn render(node: &Node, out: &mut String) {
        match node {
            Node::Empty => out.push_str("null"),
            Node::Leaf(Value::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
            Node::Leaf(Value::I64(i)) => {
                out.push_str(&i.to_string());
            }
            Node::Leaf(Value::F64(f)) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Node::Leaf(Value::Str(s)) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Node::Leaf(_) => out.push_str("null"),
            Node::Object(children) => {
                out.push('{');
                for (i, (k, v)) in children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    render(v, out);
                }
                out.push('}');
            }
            Node::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(v, out);
                }
                out.push(']');
            }
        }
    }

    fn oracle_query(line: &str) -> Result<Query, WireError> {
        query_from_node(&json_to_node(line)?)
    }

    fn oracle_error(message: &str) -> String {
        let mut node = Node::new();
        node.set("error", message);
        node_to_json(&node)
    }

    /// `serve` as it was, through the oracle.
    fn serve_oracle(service: &Feasd, input: &str) -> Vec<u8> {
        let mut output = Vec::new();
        for line in input.as_bytes().lines() {
            let line = line.expect("utf-8");
            if line.trim().is_empty() {
                continue;
            }
            let reply = match oracle_query(&line) {
                Err(e) => oracle_error(&format!("bad query: {e}")),
                Ok(query) => match service.submit(query) {
                    Err(shed) => oracle_error(&format!(
                        "shed at pressure level {} ({} priority)",
                        shed.level,
                        shed.priority.label()
                    )),
                    Ok(ticket) => {
                        let mut answered = service.pump();
                        match answered.iter().position(|(t, _)| *t == ticket) {
                            Some(i) => node_to_json(&answer_to_node(&answered.swap_remove(i).1)),
                            None => oracle_error("answer lost"),
                        }
                    }
                },
            };
            writeln!(output, "{reply}").expect("in-memory write");
        }
        output
    }

    // ------------------------------------------------------------- inputs

    /// A request line as the benchmark writes one.
    fn request_line(q: &Query) -> String {
        let head =
            format!("\"device\":\"{}\",\"priority\":\"{}\"", q.device.label(), q.priority.label());
        match q.ask {
            Ask::Feasibility { config, budget_s, images } => format!(
                "{{\"ask\":\"feasibility\",{head},\"renderer\":\"{}\",\"image_side\":{},\
                 \"cells_per_task\":{},\"tasks\":{},\"budget_s\":{budget_s},\"images\":{images}}}",
                config.renderer.name(),
                (config.pixels as f64).sqrt().round() as u64,
                config.cells_per_task,
                config.tasks
            ),
            Ask::Plan { cells_per_task, tasks, budget_s, images } => format!(
                "{{\"ask\":\"plan\",{head},\"cells_per_task\":{cells_per_task},\"tasks\":{tasks},\
                 \"budget_s\":{budget_s},\"images\":{images}}}"
            ),
        }
    }

    /// The benchmark's traffic: a quarter off the lattice, a tenth plans.
    fn traffic(queries: usize, seed: u64) -> Vec<Query> {
        let cfg = TrafficConfig {
            off_lattice: 0.25,
            plan_fraction: 0.10,
            ..TrafficConfig::uniform(queries, seed, 1000.0)
        };
        generate(&cfg, &Lattice::service_default()).into_iter().map(|e| e.query).collect()
    }

    /// The benchmark's malformed kinds, 0–5; any other `kind` keeps the line.
    fn malformed(kind: u8, valid: &str) -> String {
        match kind {
            0 => valid[..valid.len() / 2].to_string(),
            1 => valid.replace("\"budget_s\":", "\"budget_s\":-"),
            2 => valid.replace("\"tasks\":", "\"ranks\":"),
            3 => valid.replace("\"ask\":\"", "\"ask\":\"un"),
            4 => "[1,2,3]".to_string(),
            5 => "not json at all".to_string(),
            _ => valid.to_string(),
        }
    }

    /// `line` with one more member, first or last: one of the nine fields or
    /// an unknown key, set to a value of a kind the reader tells apart. A
    /// field already present is then repeated.
    fn with_member(line: &str, field: u8, value: u8, last: bool) -> String {
        const KEYS: [&str; 10] = [
            "ask",
            "renderer",
            "device",
            "priority",
            "image_side",
            "cells_per_task",
            "tasks",
            "budget_s",
            "images",
            "note",
        ];
        const VALUES: [&str; 16] = [
            "6.5",
            "-1",
            "0",
            "1e300",
            "-0.0",
            "4294967296",
            "9223372036854775808",
            "null",
            "true",
            r#""64""#,
            r#""serial""#,
            r#""plan""#,
            r#""ray_tracing""#,
            r#"{"a":1}"#,
            "{}",
            r#""a\"b""#,
        ];
        let member = format!("\"{}\":{}", KEYS[field as usize % 10], VALUES[value as usize % 16]);
        match (last, line.find('{'), line.rfind('}')) {
            (false, Some(i), _) => format!("{}{member},{}", &line[..=i], &line[i + 1..]),
            (true, _, Some(i)) => format!("{},{member}{}", &line[..i], &line[i..]),
            _ => line.to_string(),
        }
    }

    /// `tests/prop_decoders.rs`'s damage: `(kind, at, len, bit)` truncates
    /// at `at`, flips bit `bit` of byte `at`, or splices `len` bytes from
    /// `at` back in elsewhere.
    type Damage = (u8, u32, u32, u8);

    fn damages() -> impl Strategy<Value = Vec<Damage>> {
        proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..5)
    }

    fn damage(valid: &[u8], steps: &[Damage]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        for &(kind, at, len, bit) in steps {
            if bytes.is_empty() {
                break;
            }
            let at = at as usize % bytes.len();
            match kind % 3 {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= 1 << (bit % 8),
                _ => {
                    let piece = bytes[at..(at + len as usize % 64).min(bytes.len())].to_vec();
                    let to = (at * 31 + bit as usize) % (bytes.len() + 1);
                    bytes.splice(to..to, piece);
                }
            }
        }
        bytes
    }

    /// Whether a key of `line`, at any depth, is empty or holds a `/`: the
    /// lines on which `Node` paths and literal keys part ways. Exact for a
    /// line that parses, where every `"` opens or closes a string or is
    /// escaped inside one.
    fn has_path_key(line: &str) -> bool {
        let b = line.as_bytes();
        let mut i = 0;
        while let Some(open) = b[i..].iter().position(|&c| c == b'"').map(|o| i + o) {
            let mut close = open + 1;
            while close < b.len() && b[close] != b'"' {
                close += if b[close] == b'\\' { 2 } else { 1 };
            }
            if close >= b.len() {
                return false;
            }
            let key = &b[open + 1..close];
            let after = line[close + 1..].trim_start_matches([' ', '\t', '\r', '\n']);
            if after.starts_with(':') && (key.is_empty() || key.contains(&b'/')) {
                return true;
            }
            i = close + 1;
        }
        false
    }

    fn service(cfg: FeasdConfig) -> Feasd {
        Feasd::new(sched::demo::ground_truth(), MappingConstants::default(), cfg)
    }

    // -------------------------------------------------------------- tests

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Benchmark lines, its malformed kinds, lines with a member added
        /// or repeated, and damaged copies read to the same `Query` or the
        /// same error as through the tree.
        #[test]
        fn the_slot_reader_answers_as_the_node_oracle(
            seed in any::<u64>(),
            kind in 0u8..10,
            member in (any::<u8>(), any::<u8>(), any::<bool>()),
            steps in damages(),
        ) {
            for q in traffic(4, seed) {
                let valid = request_line(&q);
                let bad = malformed(kind, &valid);
                let edited = with_member(&bad, member.0, member.1, member.2);
                let damaged = String::from_utf8_lossy(&damage(edited.as_bytes(), &steps)).into_owned();
                for line in [&valid, &bad, &edited, &damaged] {
                    if has_path_key(line) {
                        continue;
                    }
                    let got = query_from_json(line).map(|q| format!("{q:?}"));
                    let want = oracle_query(line).map(|q| format!("{q:?}"));
                    prop_assert_eq!(&got, &want, "{line}: {got:?} != {want:?}");
                }
            }
        }
    }

    #[test]
    fn serve_writes_the_oracle_loops_bytes() {
        let cfg = || FeasdConfig {
            batch_max: 4,
            queue_budget: 16,
            pool: dpp::Device::Serial,
            ..FeasdConfig::default()
        };
        let (fast, oracle) = (service(cfg()), service(cfg()));
        // A must-render backlog puts the ladder at its top: the chunk's first
        // lines are shed or lose their answer to the backlog, then it drains.
        for s in [&fast, &oracle] {
            for q in traffic(400, 3) {
                assert!(s.submit(Query { priority: Priority::MustRender, ..q }).is_ok());
            }
        }
        let mut chunk = String::new();
        for (i, q) in traffic(2000, 7).iter().enumerate() {
            let line = request_line(q);
            if i % 100 == 99 {
                // Cut before its last member and ended by CRLF, then a blank
                // line: the error names the byte where the request ended.
                chunk += &line[..line.rfind(',').unwrap_or(0)];
                chunk += "\r\n  \n";
            } else {
                chunk += &malformed(if i % 50 == 0 { (i / 50 % 6) as u8 } else { 6 }, &line);
                chunk += "\n";
            }
        }
        chunk.truncate(chunk.trim_end().len());

        let mut got = Vec::new();
        serve(&fast, chunk.as_bytes(), &mut got).expect("in-memory io");
        let want = serve_oracle(&oracle, &chunk);
        let (got, want) =
            (String::from_utf8(got).expect("utf-8"), String::from_utf8(want).expect("utf-8"));
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "reply {i}");
        }
        assert_eq!(got, want);
        assert_eq!(got.lines().count(), 2000);
        for needle in [
            "{\"error\":\"bad query: ",
            "{\"error\":\"shed at pressure level ",
            "{\"error\":\"answer lost\"}",
            "\"source\":\"table\"",
            "\"source\":\"model\"",
        ] {
            assert!(got.contains(needle), "no reply has {needle}");
        }
    }

    #[test]
    fn the_writers_write_the_oracles_bytes() {
        for (x, generation) in [
            (0.25, 1),
            (123.5, 3),
            (0.1 + 0.2, 7),
            (1e-300, 1 << 40),
            (1e300, 0),
            (-0.0, 2),
            (f64::MIN_POSITIVE / 3.0, 5),
            (f64::NAN, 1),
            (f64::INFINITY, 1),
            (f64::NEG_INFINITY, 1),
        ] {
            let a = Answer {
                feasible: x > 1.0,
                images_possible: x,
                per_frame_s: 1.0 / x,
                build_s: x * 0.5,
                renderer: RendererKind::Rasterization,
                image_side: 4096,
                source: Source::Model,
                generation,
            };
            assert_eq!(answer_to_json(&a), node_to_json(&answer_to_node(&a)));
        }
        for message in ["", "plain", "q\"uote\\back\nnl\ttab\rcr", "né → ü\u{1}", "\\\\\"\""] {
            assert_eq!(error_to_json(message), oracle_error(message));
        }
    }

    #[test]
    fn a_count_past_u32_is_refused_not_truncated() {
        let line = |tasks: u64| {
            format!(
                r#"{{"ask":"feasibility","renderer":"volume_rendering","image_side":1024,"cells_per_task":200,"tasks":{tasks},"budget_s":10.0,"images":100}}"#
            )
        };
        // The table key truncates: 2³² + 64 tasks and 64 tasks are one key,
        // so the parent answered the first line with the second's answer.
        let config = |tasks| RenderConfig {
            renderer: RendererKind::VolumeRendering,
            cells_per_task: 200,
            pixels: 1024 * 1024,
            tasks,
        };
        let key = |tasks| TableKey::from_config(&config(tasks), DeviceClass::Parallel);
        assert_eq!(key(4_294_967_360), key(64));

        let feasd = service(FeasdConfig { pool: dpp::Device::Serial, ..FeasdConfig::default() });
        let mut out = Vec::new();
        let input = format!("{}\n{}\n", line(4_294_967_360), line(64));
        serve(&feasd, input.as_bytes(), &mut out).expect("in-memory io");
        let out = String::from_utf8(out).expect("utf-8");
        let replies: Vec<&str> = out.lines().collect();
        assert_eq!(
            replies[0],
            r#"{"error":"bad query: field `tasks` must be at most 4294967295"}"#
        );
        assert!(replies[1].contains("\"source\":\"table\""), "{}", replies[1]);
        assert!(query_from_json(&line(u32::MAX.into())).is_ok());

        // The other two counts, in both asks.
        let plan = |cells: u64, tasks: u64| {
            format!(r#"{{"ask":"plan","cells_per_task":{cells},"tasks":{tasks},"budget_s":1}}"#)
        };
        let too_big = 1u64 << 32;
        for (line, field) in [
            (line(64).replace("1024", &too_big.to_string()), "image_side"),
            (line(64).replace("200", &too_big.to_string()), "cells_per_task"),
            (plan(too_big, 64), "cells_per_task"),
            (plan(200, too_big), "tasks"),
        ] {
            let err = query_from_json(&line).expect_err(&line);
            assert_eq!(err.message, format!("field `{field}` must be at most 4294967295"));
        }
    }

    #[test]
    fn keys_are_literal_names() {
        // The tree read `tasks/` as the path `tasks`, and an empty key as the
        // root, replacing every member before it.
        let slashed = r#"{"ask":"plan","cells_per_task":200,"tasks/":64,"budget_s":5}"#;
        let emptied = r#"{"ask":"plan","cells_per_task":200,"tasks":64,"budget_s":5,"":0}"#;
        assert!(oracle_query(slashed).is_ok());
        assert_eq!(
            query_from_json(slashed).expect_err("unknown key").message,
            "missing integer field `tasks`"
        );
        assert!(oracle_query(emptied).is_err());
        assert!(query_from_json(emptied).is_ok());
        assert!(has_path_key(slashed) && has_path_key(emptied));
        // Values are not keys.
        assert!(!has_path_key(r#"{"a":"b/c","d":"","e\"":1}"#));
    }

    #[test]
    fn feasibility_query_round_trips_through_the_node_layer() {
        let line = r#"{"ask":"feasibility","renderer":"volume_rendering","image_side":1024,
                       "cells_per_task":200,"tasks":64,"budget_s":10.0,"images":100,
                       "priority":"must-render","device":"serial"}"#
            .replace('\n', " ");
        let q = query_from_json(&line).expect("parses");
        assert_eq!(q.priority, Priority::MustRender);
        assert_eq!(q.device, DeviceClass::Serial);
        match q.ask {
            Ask::Feasibility { config, budget_s, images } => {
                assert_eq!(config.renderer, RendererKind::VolumeRendering);
                assert_eq!(config.pixels, 1024 * 1024);
                assert_eq!(config.tasks, 64);
                assert_eq!(budget_s, 10.0);
                assert_eq!(images, 100.0);
            }
            other => panic!("wrong ask: {other:?}"),
        }
    }

    #[test]
    fn defaults_apply_and_plan_parses() {
        let q = query_from_json(r#"{"ask":"plan","cells_per_task":200,"tasks":64,"budget_s":5}"#)
            .expect("parses");
        assert_eq!(q.priority, Priority::Normal);
        assert_eq!(q.device, DeviceClass::Parallel);
        assert!(matches!(q.ask, Ask::Plan { images, .. } if images == 1.0));
    }

    #[test]
    fn malformed_lines_are_rejected_with_reasons() {
        for (line, needle) in [
            ("{", "expected"),
            (r#"{"budget_s": "ten"}"#, "missing numeric field `budget_s`"),
            (r#"{"ask":"feasibility","budget_s":1}"#, "renderer"),
            (r#"{"ask":"teleport","budget_s":1}"#, "unknown ask"),
            (r#"{"ask":"plan","cells_per_task":-3,"tasks":1,"budget_s":1}"#, "non-negative"),
            (r#"{"a":1} trailing"#, "trailing"),
            (r#"[1,2]"#, "arrays"),
        ] {
            let err = query_from_json(line).expect_err(line);
            assert!(err.message.contains(needle), "`{line}` -> {err}");
        }
    }

    #[test]
    fn hostile_shapes_are_refused_not_crashed_on() {
        let deep = r#"{"a":"#.repeat(200_000);
        let slashed = format!(r#"{{"{}":1}}"#, "a/".repeat(200_000));
        let wide: String =
            (0..20_000).map(|i| format!(r#""k{i}":1,"#)).collect::<String>() + r#""z":1}"#;
        let wide = format!("{{{wide}");
        for (line, needle) in [
            (deep.as_str(), "nesting deeper than 32"),
            (slashed.as_str(), "nesting deeper than 32"),
            (&wide, "more than 64 keys"),
        ] {
            let err = json_to_node(line).expect_err("refused");
            assert!(err.message.contains(needle), "{err}");
        }
        // The request reader holds the same limits; its keys do not nest.
        for (line, needle) in
            [(deep.as_str(), "nesting deeper than 32"), (&wide, "more than 64 keys")]
        {
            let err = query_from_json(line).expect_err("refused");
            assert!(err.message.contains(needle), "{err}");
        }
        // The limits are far from anything the wire format uses.
        let nested = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(json_to_node(&nested).is_ok());
    }

    #[test]
    fn an_image_side_whose_square_overflows_is_refused() {
        let line = |side: &str| {
            format!(
                r#"{{"renderer":"ray_tracing","image_side":{side},"cells_per_task":100,"tasks":8,"budget_s":1}}"#
            )
        };
        for side in ["8589934592", "1e300"] {
            let err = query_from_json(&line(side)).expect_err(side);
            assert!(err.message.contains("image_side"), "{err}");
        }
        assert!(query_from_json(&line("4096")).is_ok());
    }

    #[test]
    fn answer_renders_one_json_line() {
        let a = Answer {
            feasible: true,
            images_possible: 123.5,
            per_frame_s: 0.25,
            build_s: 0.0,
            renderer: RendererKind::RayTracing,
            image_side: 512,
            source: Source::Table,
            generation: 3,
        };
        let line = answer_to_json(&a);
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        for needle in [
            "\"feasible\":true",
            "\"renderer\":\"ray_tracing\"",
            "\"source\":\"table\"",
            "\"generation\":3",
        ] {
            assert!(line.contains(needle), "{line}");
        }
        // The reply is itself parseable by the request parser's node layer.
        let node = json_to_node(&line).expect("parses back");
        assert_eq!(node.get_f64("images_possible"), Some(123.5));
        assert_eq!(node.get_i64("image_side"), Some(512));
    }

    #[test]
    fn string_escapes_round_trip() {
        // Multi-byte characters on both sides of an escape: the run copy has
        // to land on char boundaries.
        let node = json_to_node(r#"{"msg":"a\"b\\c\nd","né":"ü\tö→"}"#).expect("parses");
        assert_eq!(node.get_str("msg"), Some("a\"b\\c\nd"));
        assert_eq!(node.get_str("né"), Some("ü\tö→"));
        let line = error_to_json("a\"b\\c\nd");
        let back = json_to_node(&line).expect("parses back");
        assert_eq!(back.get_str("error"), Some("a\"b\\c\nd"));
        // A string without an escape is borrowed from the line.
        let mut p = Parser { line: r#""plain""#, pos: 0, depth: 0 };
        assert!(matches!(p.parse_string(), Ok(Cow::Borrowed("plain"))));
    }
}
