//! Logical algebra over ordered tuple sequences — the target of the XPath
//! translation (paper §2.2, Fig. 1).
//!
//! * [`value`] — the universe: atomic XPath values, nodes, tuple sequences,
//! * [`ops`] — the sequence-valued operator IR (σ, Π^D, χ, d-join, ⋉, ▷,
//!   Υ, ⊕, Sort, Tmp^cs, …),
//! * [`scalar`] — the subscript language (with nested aggregations 𝔄),
//! * [`attrmgr`] — attribute-name → register-slot resolution with safe
//!   aliasing for renames (paper §5.1),
//! * [`explain`] — query-tree rendering in the paper's notation.

pub mod attrmgr;
pub mod docorder;
pub mod explain;
pub mod ops;
pub mod scalar;
pub mod value;

pub use attrmgr::{AttrManager, Slot};
pub use docorder::DocOrderKeys;
pub use explain::explain;
pub use ops::{Attr, LogicalOp, ProbeKind, ProbeSpec, StepMode};
pub use scalar::{
    AggExpr, AggFunc, CmpMode, ConstCmp, ConvKind, KernelExpr, NodeFn, NumFn, ScalarExpr, StrFn,
};
pub use value::{Const, QueryError, QueryOutput, Tuple, Value};
