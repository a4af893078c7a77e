//! A Conduit-style hierarchical node tree (Chapter IV's data interface).
//!
//! Conduit's three properties that mattered to Strawman are reproduced:
//!
//! * **Bit-width styled leaf types** — typed scalar and array leaves
//!   (`i64`, `f64`, `f32[]`, `u32[]`, …), not stringly-typed blobs.
//! * **Separation of description from data** — array leaves can reference
//!   externally owned buffers ([`Node::set_external_f32`] takes an
//!   `Arc<Vec<f32>>`): publishing simulation state is a pointer copy, the
//!   zero-copy requirement R11.
//! * **Runtime focus** — paths are resolved at runtime
//!   (`node.set("fields/e/values", …)`), with introspection (`has_path`,
//!   `keys`) instead of compile-time codegen.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;
use std::sync::Arc;

/// A typed array leaf that is either owned or a zero-copy external view.
#[derive(Debug, Clone)]
pub enum ArrayRef<T> {
    Owned(Vec<T>),
    External(Arc<Vec<T>>),
}

impl<T> ArrayRef<T> {
    pub fn as_slice(&self) -> &[T] {
        match self {
            ArrayRef::Owned(v) => v,
            ArrayRef::External(a) => a,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for zero-copy external references.
    pub fn is_external(&self) -> bool {
        matches!(self, ArrayRef::External(_))
    }
}

/// Leaf values. Bit-width-specific numeric types, strings, and typed arrays.
#[derive(Debug, Clone)]
pub enum Value {
    Bool(bool),
    I64(i64),
    F64(f64),
    Str(String),
    F32Array(ArrayRef<f32>),
    F64Array(ArrayRef<f64>),
    I32Array(ArrayRef<i32>),
    U32Array(ArrayRef<u32>),
    U8Array(ArrayRef<u8>),
}

/// A node in the hierarchy: empty, a leaf, an ordered object, or a list.
#[derive(Debug, Clone, Default)]
pub enum Node {
    #[default]
    Empty,
    Leaf(Value),
    Object(Vec<(String, Node)>),
    List(Vec<Node>),
}

impl Node {
    pub fn new() -> Node {
        Node::Empty
    }

    /// Descend a `a/b/c` path, creating intermediate objects, and return the
    /// final node for mutation.
    pub fn fetch_mut(&mut self, path: &str) -> &mut Node {
        let mut cur = self;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            if !matches!(cur, Node::Object(_)) {
                *cur = Node::Object(Vec::new());
            }
            let Node::Object(children) = cur else { unreachable!() };
            let pos = children.iter().position(|(k, _)| k == part);
            let pos = match pos {
                Some(p) => p,
                None => {
                    children.push((part.to_string(), Node::Empty));
                    children.len() - 1
                }
            };
            cur = &mut children[pos].1;
        }
        cur
    }

    /// Get the node at a path, if present.
    pub fn get(&self, path: &str) -> Option<&Node> {
        let mut cur = self;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            let Node::Object(children) = cur else { return None };
            cur = &children.iter().find(|(k, _)| k == part)?.1;
        }
        Some(cur)
    }

    pub fn has_path(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Set a leaf value at a path.
    pub fn set(&mut self, path: &str, value: impl Into<Value>) {
        *self.fetch_mut(path) = Node::Leaf(value.into());
    }

    /// Set an external (zero-copy) f32 array at a path.
    pub fn set_external_f32(&mut self, path: &str, data: Arc<Vec<f32>>) {
        *self.fetch_mut(path) = Node::Leaf(Value::F32Array(ArrayRef::External(data)));
    }

    /// Set an external (zero-copy) u32 array at a path.
    pub fn set_external_u32(&mut self, path: &str, data: Arc<Vec<u32>>) {
        *self.fetch_mut(path) = Node::Leaf(Value::U32Array(ArrayRef::External(data)));
    }

    /// Append a child to this node, converting it to a list, and return the
    /// fresh child (the `actions.append()` idiom of the paper's Listing 4.2).
    pub fn append(&mut self) -> &mut Node {
        if !matches!(self, Node::List(_)) {
            *self = Node::List(Vec::new());
        }
        let Node::List(items) = self else { unreachable!() };
        items.push(Node::Empty);
        let last = items.len() - 1;
        &mut items[last]
    }

    /// Iterate list children (empty iterator for non-lists).
    pub fn items(&self) -> impl Iterator<Item = &Node> {
        match self {
            Node::List(items) => items.iter(),
            _ => [].iter(),
        }
    }

    /// Keys of an object node.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Node::Object(children) => children.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    // --- Typed leaf accessors. ---

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Node::Leaf(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Node::Leaf(Value::I64(v)) => Some(*v),
            Node::Leaf(Value::F64(v)) => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Node::Leaf(Value::F64(v)) => Some(*v),
            Node::Leaf(Value::I64(v)) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_f32s(&self) -> Option<&[f32]> {
        match self {
            Node::Leaf(Value::F32Array(a)) => Some(a.as_slice()),
            _ => None,
        }
    }

    pub fn as_u32s(&self) -> Option<&[u32]> {
        match self {
            Node::Leaf(Value::U32Array(a)) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// Convenience: string at path.
    pub fn get_str(&self, path: &str) -> Option<&str> {
        self.get(path)?.as_str()
    }

    pub fn get_i64(&self, path: &str) -> Option<i64> {
        self.get(path)?.as_i64()
    }

    pub fn get_f64(&self, path: &str) -> Option<f64> {
        self.get(path)?.as_f64()
    }

    pub fn get_f32s(&self, path: &str) -> Option<&[f32]> {
        self.get(path)?.as_f32s()
    }

    pub fn get_u32s(&self, path: &str) -> Option<&[u32]> {
        self.get(path)?.as_u32s()
    }

    /// True if any array leaf below this node is external (zero-copy).
    pub fn has_external_data(&self) -> bool {
        match self {
            Node::Leaf(Value::F32Array(a)) => a.is_external(),
            Node::Leaf(Value::F64Array(a)) => a.is_external(),
            Node::Leaf(Value::I32Array(a)) => a.is_external(),
            Node::Leaf(Value::U32Array(a)) => a.is_external(),
            Node::Leaf(Value::U8Array(a)) => a.is_external(),
            Node::Leaf(_) | Node::Empty => false,
            Node::Object(children) => children.iter().any(|(_, n)| n.has_external_data()),
            Node::List(items) => items.iter().any(|n| n.has_external_data()),
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(node: &Node, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match node {
                Node::Empty => writeln!(f, "{pad}~"),
                Node::Leaf(v) => match v {
                    Value::Bool(b) => writeln!(f, "{pad}{b}"),
                    Value::I64(i) => writeln!(f, "{pad}{i}"),
                    Value::F64(x) => writeln!(f, "{pad}{x}"),
                    Value::Str(s) => writeln!(f, "{pad}\"{s}\""),
                    Value::F32Array(a) => writeln!(f, "{pad}f32[{}]", a.len()),
                    Value::F64Array(a) => writeln!(f, "{pad}f64[{}]", a.len()),
                    Value::I32Array(a) => writeln!(f, "{pad}i32[{}]", a.len()),
                    Value::U32Array(a) => writeln!(f, "{pad}u32[{}]", a.len()),
                    Value::U8Array(a) => writeln!(f, "{pad}u8[{}]", a.len()),
                },
                Node::Object(children) => {
                    for (k, c) in children {
                        writeln!(f, "{pad}{k}:")?;
                        go(c, indent + 1, f)?;
                    }
                    Ok(())
                }
                Node::List(items) => {
                    for (i, c) in items.iter().enumerate() {
                        writeln!(f, "{pad}- [{i}]")?;
                        go(c, indent + 1, f)?;
                    }
                    Ok(())
                }
            }
        }
        go(self, 0, f)
    }
}

// --- Into<Value> conversions for ergonomic `set` calls. ---

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::F64(v as f64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<Vec<f32>> for Value {
    fn from(v: Vec<f32>) -> Value {
        Value::F32Array(ArrayRef::Owned(v))
    }
}
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Value {
        Value::F64Array(ArrayRef::Owned(v))
    }
}
impl From<Vec<i32>> for Value {
    fn from(v: Vec<i32>) -> Value {
        Value::I32Array(ArrayRef::Owned(v))
    }
}
impl From<Vec<u32>> for Value {
    fn from(v: Vec<u32>) -> Value {
        Value::U32Array(ArrayRef::Owned(v))
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::U8Array(ArrayRef::Owned(v))
    }
}
impl From<Arc<Vec<f32>>> for Value {
    fn from(v: Arc<Vec<f32>>) -> Value {
        Value::F32Array(ArrayRef::External(v))
    }
}
impl From<Arc<Vec<u32>>> for Value {
    fn from(v: Arc<Vec<u32>>) -> Value {
        Value::U32Array(ArrayRef::External(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_paths() {
        let mut n = Node::new();
        n.set("state/time", 1.25f64);
        n.set("state/cycle", 7i64);
        n.set("topology/type", "unstructured");
        assert_eq!(n.get_f64("state/time"), Some(1.25));
        assert_eq!(n.get_i64("state/cycle"), Some(7));
        assert_eq!(n.get_str("topology/type"), Some("unstructured"));
        assert!(n.has_path("state"));
        assert!(!n.has_path("state/missing"));
        assert_eq!(n.get("state").unwrap().keys(), vec!["time", "cycle"]);
    }

    #[test]
    fn external_arrays_are_zero_copy() {
        let data = Arc::new(vec![1.0f32, 2.0, 3.0]);
        let mut n = Node::new();
        n.set_external_f32("fields/e/values", data.clone());
        assert_eq!(n.get_f32s("fields/e/values"), Some(&[1.0, 2.0, 3.0][..]));
        assert!(n.has_external_data());
        // The Arc is shared, not copied: 1 (ours) + 1 (node's).
        assert_eq!(Arc::strong_count(&data), 2);
        drop(n);
        assert_eq!(Arc::strong_count(&data), 1);
    }

    #[test]
    fn owned_arrays_are_not_external() {
        let mut n = Node::new();
        n.set("vals", vec![1.0f32, 2.0]);
        assert!(!n.has_external_data());
        assert_eq!(n.get_f32s("vals").unwrap().len(), 2);
    }

    #[test]
    fn append_builds_action_lists() {
        let mut actions = Node::new();
        let add = actions.append();
        add.set("action", "AddPlot");
        add.set("var", "p");
        let draw = actions.append();
        draw.set("action", "DrawPlots");
        let names: Vec<_> = actions.items().map(|a| a.get_str("action").unwrap()).collect();
        assert_eq!(names, vec!["AddPlot", "DrawPlots"]);
    }

    #[test]
    fn numeric_coercions() {
        let mut n = Node::new();
        n.set("a", 3i32);
        assert_eq!(n.get_f64("a"), Some(3.0));
        n.set("b", 2.5f32);
        assert_eq!(n.get_f64("b"), Some(2.5));
        n.set("c", true);
        assert!(matches!(n.get("c"), Some(Node::Leaf(Value::Bool(true)))));
    }

    #[test]
    fn display_summarizes_arrays() {
        let mut n = Node::new();
        n.set("coords/x", vec![0.0f32; 100]);
        let s = n.to_string();
        assert!(s.contains("f32[100]"), "{s}");
        assert!(s.contains("coords"), "{s}");
    }

    #[test]
    fn overwrite_replaces_leaf() {
        let mut n = Node::new();
        n.set("k", 1i64);
        n.set("k", "two");
        assert_eq!(n.get_str("k"), Some("two"));
    }
}
