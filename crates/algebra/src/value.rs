//! The universe of the algebra (paper §2.2.1): atomic XPath values, nodes,
//! and ordered tuple sequences; tuples map attributes to values.

use std::borrow::Cow;
use std::sync::Arc;

use xmlstore::{NodeId, XmlStore};
use xpath_syntax::xvalue;

/// A runtime value: the union of the atomic XPath types, document nodes
/// and (nested) tuple sequences.
#[derive(Debug)]
pub enum Value {
    /// Absent / unbound attribute slot.
    Null,
    /// Boolean.
    Bool(bool),
    /// IEEE-754 double.
    Num(f64),
    /// String (shared — cloning a tuple must be cheap). The count is
    /// atomic, so values stay `Send`; whether an `Rc` payload pays off in
    /// the single-threaded engine is an open measurement.
    Str(Arc<str>),
    /// A document node.
    Node(NodeId),
    /// A materialised nested tuple sequence (value of a nested attribute).
    Seq(Arc<Vec<Tuple>>),
}

impl Clone for Value {
    #[inline]
    fn clone(&self) -> Value {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(*b),
            Value::Num(n) => Value::Num(*n),
            Value::Str(s) => Value::Str(Arc::clone(s)),
            Value::Node(n) => Value::Node(*n),
            Value::Seq(ts) => Value::Seq(Arc::clone(ts)),
        }
    }

    /// Frames are copied slot by slot with `Vec::clone_from` on every
    /// tuple the pipeline produces, and nearly all slots hold nodes,
    /// numbers or nothing: assign those in place, without building a
    /// temporary and without the reference-count path.
    #[inline]
    fn clone_from(&mut self, source: &Value) {
        match source {
            Value::Null => *self = Value::Null,
            Value::Bool(b) => *self = Value::Bool(*b),
            Value::Num(n) => *self = Value::Num(*n),
            Value::Node(n) => *self = Value::Node(*n),
            shared => *self = shared.clone(),
        }
    }
}

/// A tuple: a register frame indexed by attribute slots (the attribute
/// manager assigns the slots at code-generation time, paper §5.1).
pub type Tuple = Vec<Value>;

impl Value {
    /// String conversion per XPath `string()`; nodes use their
    /// string-value, which needs the store.
    pub fn to_str(&self, store: &dyn XmlStore) -> String {
        self.as_str(store).into_owned()
    }

    /// [`Value::to_str`] for readers that only look at the string
    /// (comparisons, string functions, number conversion): borrows from
    /// the value or from the store wherever either can lend the text.
    pub fn as_str<'a>(&'a self, store: &'a dyn XmlStore) -> Cow<'a, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Num(n) => Cow::Owned(xvalue::number_to_string(*n)),
            Value::Str(s) => Cow::Borrowed(s),
            Value::Node(n) => store.string_value_ref(*n),
            Value::Seq(ts) => {
                // string() of a node sequence: string-value of the first
                // node in document order (empty for an empty sequence).
                // Sequences store the node in their `cn` slot by
                // convention; find the first node value.
                crate::docorder::first_node_in_doc_order(ts, store)
                    .map(|n| store.string_value_ref(n))
                    .unwrap_or_default()
            }
        }
    }

    /// Number conversion per XPath `number()`.
    pub fn to_num(&self, store: &dyn XmlStore) -> f64 {
        match self {
            Value::Null => f64::NAN,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Num(n) => *n,
            Value::Str(s) => xvalue::string_to_number(s),
            Value::Node(_) | Value::Seq(_) => xvalue::string_to_number(&self.as_str(store)),
        }
    }

    /// Boolean conversion per XPath `boolean()`.
    pub fn to_bool(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => xvalue::number_to_boolean(*n),
            Value::Str(s) => xvalue::string_to_boolean(s),
            Value::Node(_) => true,
            Value::Seq(ts) => !ts.is_empty(),
        }
    }

    /// The node held by this value, if it is one.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Value::Node(n) => Some(*n),
            _ => None,
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Compile-time constants embedded in plans.
#[derive(Clone, Debug, PartialEq)]
pub enum Const {
    /// Boolean constant.
    Bool(bool),
    /// Numeric constant.
    Num(f64),
    /// String constant.
    Str(String),
}

impl Const {
    /// Lift into a runtime value.
    pub fn to_value(&self) -> Value {
        match self {
            Const::Bool(b) => Value::Bool(*b),
            Const::Num(n) => Value::Num(*n),
            Const::Str(s) => Value::Str(Arc::from(s.as_str())),
        }
    }
}

/// The result of a complete query: one of the four XPath 1.0 types.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// Node-set (duplicate-free; order unspecified per XPath 1.0 §2.1 —
    /// our engines return document order for determinism).
    Nodes(Vec<NodeId>),
    /// Boolean result.
    Bool(bool),
    /// Numeric result.
    Num(f64),
    /// String result.
    Str(String),
}

/// A typed runtime failure of a governed execution: the query was stopped
/// cooperatively by the resource governor instead of exhausting process
/// memory or spinning forever. Compilation failures are a different type
/// (`PipelineError` in the compiler crate); these errors can only arise
/// while a plan is running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A materializing operator pushed the query over its memory budget.
    MemoryExceeded {
        /// The configured budget in bytes.
        limit: u64,
        /// The total that the failing allocation would have brought the
        /// query to (always `> limit`).
        requested: u64,
    },
    /// The query materialized more tuples than its tuple budget allows.
    TuplesExceeded {
        /// The configured budget.
        limit: u64,
    },
    /// The wall-clock deadline passed (observed at a governor tick).
    DeadlineExceeded {
        /// The configured timeout in milliseconds.
        timeout_millis: u64,
    },
    /// The cancellation token was raised (observed at a governor tick).
    Cancelled,
    /// The storage layer failed mid-query: an I/O error or detected
    /// corruption while reading the paged store. The detail string carries
    /// the page/slot coordinates reported by the store.
    Storage {
        /// Rendered storage-error message (includes coordinates).
        detail: String,
        /// True for I/O failures, false for corruption — callers map the
        /// two classes to distinct exit codes.
        io: bool,
    },
    /// The query reads a `$` variable the execution context does not
    /// bind (XPath 1.0 §3.1).
    UnboundVariable {
        /// The variable's name, without the `$`.
        name: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::MemoryExceeded { limit, requested } => {
                write!(f, "memory budget exceeded: needed {requested} bytes, limit {limit}")
            }
            QueryError::TuplesExceeded { limit } => {
                write!(f, "tuple budget exceeded: limit {limit} materialized tuples")
            }
            QueryError::DeadlineExceeded { timeout_millis } => {
                write!(f, "deadline exceeded: query ran past its {timeout_millis}ms timeout")
            }
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::Storage { detail, .. } => write!(f, "storage failure: {detail}"),
            QueryError::UnboundVariable { name } => write!(f, "unbound variable ${name}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl QueryOutput {
    /// Boolean conversion of the whole result.
    pub fn to_bool(&self) -> bool {
        match self {
            QueryOutput::Nodes(ns) => !ns.is_empty(),
            QueryOutput::Bool(b) => *b,
            QueryOutput::Num(n) => xvalue::number_to_boolean(*n),
            QueryOutput::Str(s) => xvalue::string_to_boolean(s),
        }
    }

    /// The node-set, if this is one.
    pub fn as_nodes(&self) -> Option<&[NodeId]> {
        match self {
            QueryOutput::Nodes(ns) => Some(ns),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::parse_document;

    #[test]
    fn conversions_against_store() {
        let store = parse_document("<a>12<b>34</b></a>").unwrap();
        let a = store.first_child(store.root()).unwrap();
        let v = Value::Node(a);
        assert_eq!(v.to_str(&store), "1234");
        assert_eq!(v.to_num(&store), 1234.0);
        assert!(v.to_bool());
    }

    #[test]
    fn scalar_conversions() {
        let store = parse_document("<a/>").unwrap();
        assert_eq!(Value::Bool(true).to_str(&store), "true");
        assert_eq!(Value::Bool(false).to_num(&store), 0.0);
        assert_eq!(Value::Num(3.0).to_str(&store), "3");
        assert!(Value::Str(Arc::from("0")).to_bool(), "non-empty string is true");
        assert!(!Value::Num(0.0).to_bool());
        assert!(Value::Null.to_num(&store).is_nan());
        assert!(!Value::Null.to_bool());
    }

    #[test]
    fn seq_string_takes_first_in_doc_order() {
        let store = parse_document("<r><a>first</a><b>second</b></r>").unwrap();
        let r = store.first_child(store.root()).unwrap();
        let a = store.first_child(r).unwrap();
        let b = store.next_sibling(a).unwrap();
        // Sequence deliberately out of document order.
        let seq = Value::Seq(Arc::new(vec![vec![Value::Node(b)], vec![Value::Node(a)]]));
        assert_eq!(seq.to_str(&store), "first");
        assert!(seq.to_bool());
        let empty = Value::Seq(Arc::new(vec![]));
        assert_eq!(empty.to_str(&store), "");
        assert!(!empty.to_bool());
    }

    #[test]
    fn const_lifting() {
        assert!(matches!(Const::Bool(true).to_value(), Value::Bool(true)));
        assert!(matches!(Const::Num(2.0).to_value(), Value::Num(n) if n == 2.0));
        assert!(matches!(Const::Str("x".into()).to_value(), Value::Str(s) if &*s == "x"));
    }

    #[test]
    fn query_output_bool() {
        assert!(QueryOutput::Nodes(vec![NodeId(1)]).to_bool());
        assert!(!QueryOutput::Nodes(vec![]).to_bool());
        assert!(!QueryOutput::Str(String::new()).to_bool());
        assert!(QueryOutput::Num(0.5).to_bool());
    }
}
