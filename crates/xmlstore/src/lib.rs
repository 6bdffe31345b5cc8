//! XML substrate for the algebraic XPath engine.
//!
//! This crate plays the role of the Natix storage system in the paper
//! (*Full-fledged Algebraic XPath Processing in Natix*, ICDE 2005): it owns
//! the persistent representation of XML documents and the navigation
//! primitives the physical algebra evaluates against.
//!
//! Contents:
//! * [`node`] / [`store`] — the node model and the [`store::XmlStore`]
//!   navigation trait shared by all stores and both engines,
//! * [`arena`] — in-memory arena store and its event builder,
//! * [`parser`] — a from-scratch XML 1.0 parser,
//! * [`serialize`] — XML writer,
//! * [`axes`] — all XPath axes as iterators in axis order,
//! * [`index`] — the (order, subtree-size) structural interval index and
//!   its range-scan axis kernels,
//! * [`page`] / [`buffer`] / [`diskstore`] — 8 KiB slotted pages, a
//!   pin/unpin LRU buffer manager and the paged on-disk store,
//! * [`gen`] — the paper's document generators (breadth-first trees and a
//!   synthetic DBLP).
//!
//! Namespace handling: qualified names are stored verbatim and the
//! `namespace` axis yields no nodes (the evaluation documents of the paper
//! are namespace-free; this keeps the storage model faithful to what the
//! experiments exercise).
//!
//! Robustness: everything read back from disk is treated as untrusted
//! bytes (DESIGN.md §13). This crate is lint-gated against `unwrap`/
//! `expect` outside test code — decode failures must surface as typed
//! [`error::DiskError`] values, never panics — and against `unsafe`: the
//! one exception is the hardware CRC32C kernel in [`crc`], which carries
//! the crate's only `#[allow(unsafe_code)]`.

#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod axes;
pub mod buffer;
pub mod crc;
pub mod diskstore;
pub mod error;
pub mod fault;
pub mod gen;
pub mod index;
pub mod node;
pub mod page;
pub mod parser;
pub mod serialize;
pub mod stats;
pub mod store;
pub mod tmp;
pub mod update;

pub use arena::{ArenaBuilder, ArenaStore, NameTable, ORDER_GAP_SHIFT};
pub use axes::{axis_nodes, indexed_axis_nodes, Axis, AxisCursor, AxisIter};
pub use diskstore::VALUE_CAP;
pub use error::{DiskError, StorageFault};
pub use fault::{IoFailPoint, RepairFailPoint};
pub use index::{RangeScan, StructuralIndex};
pub use node::{NameId, NodeId, NodeKind};
pub use parser::{parse_document, parse_document_with_limits, ParseLimits, XmlError};
pub use serialize::{to_xml, to_xml_node};
pub use stats::{StoreStats, TagStat};
pub use store::{ContentKind, NoIndex, NodeRec, PagePin, XmlStore};
pub use update::{RepairMode, RepairStats, UpdateError};
