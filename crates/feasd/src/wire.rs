//! The line-delimited-JSON front-end, bridged through the conduit layer.
//!
//! One request is one JSON object on one line; it is parsed into a
//! [`conduit_node::Node`] (the same hierarchy the in situ pipeline publishes
//! data through), validated into a [`Query`], and the [`Answer`] goes back
//! out as a `Node` rendered to one JSON line. The parser is a minimal
//! hand-rolled recursive-descent JSON reader (objects, strings, numbers,
//! booleans, null) — the container has no serde, and the service needs no
//! more than this.
//!
//! Request shape (`device`, `priority`, `images` optional):
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
use std::fmt;

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
/// siblings, so an unbounded object would parse in quadratic time.
const MAX_KEYS: usize = 64;

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

    fn parse_value(&mut self) -> Result<Node, WireError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'"') => Ok(Node::Leaf(Value::Str(self.parse_string()?))),
            Some(b't') | Some(b'f') => self.parse_bool(),
            Some(b'n') => {
                self.parse_literal("null")?;
                Ok(Node::Empty)
            }
            Some(b'[') => Err(werr("arrays are not part of the query wire format")),
            Some(_) => self.parse_number(),
            None => Err(werr("unexpected end of line")),
        }
    }

    fn parse_literal(&mut self, lit: &str) -> Result<(), WireError> {
        if self.line.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(werr(format!("expected `{lit}` at byte {}", self.pos)))
        }
    }

    fn parse_bool(&mut self) -> Result<Node, WireError> {
        if self.peek() == Some(b't') {
            self.parse_literal("true")?;
            Ok(Node::Leaf(Value::Bool(true)))
        } else {
            self.parse_literal("false")?;
            Ok(Node::Leaf(Value::Bool(false)))
        }
    }

    fn parse_string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(werr("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| werr("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => {
                            return Err(werr(format!("unsupported escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary of `line`.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.line[start..self.pos]);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Node, WireError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
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

    fn parse_object(&mut self) -> Result<Node, WireError> {
        self.expect(b'{')?;
        let mut node = Node::Object(Vec::new());
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(node);
        }
        self.depth += 1;
        for _ in 0..MAX_KEYS {
            self.skip_ws();
            let key = self.parse_string()?;
            // A `/` in a key nests too: `fetch_mut` reads it as a path.
            if self.depth + key.matches('/').count() > MAX_DEPTH {
                return Err(werr(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos)));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            *node.fetch_mut(&key) = value;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(node);
                }
                _ => return Err(werr(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
        Err(werr(format!("more than {MAX_KEYS} keys in one object")))
    }
}

/// Parse one JSON line into a conduit node.
pub fn json_to_node(line: &str) -> Result<Node, WireError> {
    let mut p = Parser { line, pos: 0, depth: 0 };
    let node = p.parse_value()?;
    p.skip_ws();
    if p.pos != line.len() {
        return Err(werr(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(node)
}

// --------------------------------------------------------------- JSON out

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

/// Render a node of scalar leaves / objects as one compact JSON line.
/// Arrays-of-scalars are not part of the answer wire and render as `null`.
pub fn node_to_json(node: &Node) -> String {
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
            // `{:e}` keeps the shortest-round-trip property persist relies
            // on; plain Display for the common finite case reads better.
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

// ----------------------------------------------------------- Query/Answer

fn get_usize(node: &Node, key: &str) -> Result<usize, WireError> {
    let v = node
        .get_i64(key)
        .or_else(|| node.get_f64(key).map(|f| f as i64))
        .ok_or_else(|| werr(format!("missing integer field `{key}`")))?;
    usize::try_from(v).map_err(|_| werr(format!("field `{key}` must be non-negative")))
}

fn get_f64(node: &Node, key: &str) -> Result<f64, WireError> {
    node.get_f64(key)
        .or_else(|| node.get_i64(key).map(|i| i as f64))
        .ok_or_else(|| werr(format!("missing numeric field `{key}`")))
}

/// Validate a parsed request node into a [`Query`].
pub fn query_from_node(node: &Node) -> Result<Query, WireError> {
    let device = match node.get_str("device") {
        None => DeviceClass::Parallel,
        Some(s) => DeviceClass::parse(s).ok_or_else(|| werr(format!("unknown device `{s}`")))?,
    };
    let priority = match node.get_str("priority") {
        None => Priority::Normal,
        Some(s) => Priority::parse(s).ok_or_else(|| werr(format!("unknown priority `{s}`")))?,
    };
    let budget_s = get_f64(node, "budget_s")?;
    if !(budget_s.is_finite() && budget_s >= 0.0) {
        return Err(werr("budget_s must be finite and non-negative"));
    }
    let images = match node.get_f64("images").or_else(|| node.get_i64("images").map(|i| i as f64)) {
        None => 1.0,
        Some(i) if i.is_finite() && i >= 0.0 => i,
        Some(_) => return Err(werr("images must be finite and non-negative")),
    };
    let ask = match node.get_str("ask").unwrap_or("feasibility") {
        "feasibility" => {
            let renderer_label =
                node.get_str("renderer").ok_or_else(|| werr("missing string field `renderer`"))?;
            let renderer = RendererKind::parse(renderer_label)
                .ok_or_else(|| werr(format!("unknown renderer `{renderer_label}`")))?;
            let side = get_usize(node, "image_side")?;
            let pixels = side.checked_mul(side).ok_or_else(|| werr("image_side is too large"))?;
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

/// Parse one JSON line straight to a [`Query`].
pub fn query_from_json(line: &str) -> Result<Query, WireError> {
    query_from_node(&json_to_node(line)?)
}

/// Render an answer as a conduit node (the inverse direction of
/// [`query_from_node`]).
pub fn answer_to_node(a: &Answer) -> Node {
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

/// One JSON answer line.
pub fn answer_to_json(a: &Answer) -> String {
    node_to_json(&answer_to_node(a))
}

/// One JSON error line (keeps the reply stream in lockstep with requests).
pub fn error_to_json(message: &str) -> String {
    let mut node = Node::new();
    node.set("error", message);
    node_to_json(&node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Source;

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
        for (line, needle) in [
            (deep.as_str(), "nesting deeper than 32"),
            (slashed.as_str(), "nesting deeper than 32"),
            (&format!("{{{wide}"), "more than 64 keys"),
        ] {
            let err = json_to_node(line).expect_err("refused");
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
        let mut out = Node::new();
        out.set("msg", "a\"b\\c\nd");
        let line = node_to_json(&out);
        let back = json_to_node(&line).expect("parses back");
        assert_eq!(back.get_str("msg"), Some("a\"b\\c\nd"));
    }
}
