//! # natix — algebraic XPath 1.0 processing
//!
//! A Rust reproduction of *Full-fledged Algebraic XPath Processing in
//! Natix* (Brantner, Helmer, Kanne, Moerkotte — ICDE 2005): the first
//! complete translation of XPath 1.0 into a database algebra over ordered
//! tuple sequences, executed by an iterator-based physical engine directly
//! against paged document storage.
//!
//! ```
//! use natix::{Document, Engine};
//!
//! let doc = Document::parse("<a><b>1</b><b>2</b></a>").unwrap();
//! let session = Engine::new().session();
//! let out = session.evaluate(doc.store(), "count(/a/b)").unwrap();
//! assert_eq!(out, natix::QueryOutput::Num(2.0));
//! ```
//!
//! The crate is a facade over the workspace:
//! * [`xmlstore`] — documents: arena store, paged disk store, parser, axes,
//! * [`xpath_syntax`] — the XPath front-end (phases 1–4 of the compiler),
//! * [`algebra`] — the logical algebra (paper Fig. 1),
//! * [`compiler`] — the translation 𝒯[·] (canonical §3 / improved §4),
//! * [`nqe`] — the physical algebra and NVM (phase 6 + execution),
//! * [`interp`] — baseline main-memory interpreters (the paper's
//!   comparison subjects).

pub mod engine;
pub mod service;

pub use algebra::{explain, LogicalOp, QueryError, QueryOutput, ScalarExpr, Value};
pub use compiler::{
    parse_duration, parse_mem_size, CompiledQuery, PipelineError, QueryTrace, ResourceLimits,
    TranslateOptions,
};
pub use engine::{
    plan_weight, static_context_hash, BatchBase, CacheStats, CommitReceipt, Engine, EngineConfig,
    PinnedDoc, PlanCache, Session, WriteBatch,
};
pub use nqe::{build_physical, AnalyzeReport, FailPoint, Json, PhysicalQuery, ResourceGovernor};
pub use service::{QueryService, ServiceConfig};
pub use telemetry::{
    expr_hash, Histogram, LoggedQuery, MetricsRegistry, QueryLogger, QueryRecord, Telemetry,
};
pub use xmlstore::diskstore::VerifyReport;
pub use xmlstore::{
    Axis, DiskError, NodeId, NodeKind, ParseLimits, RepairFailPoint, RepairMode, RepairStats,
    UpdateError, XmlStore,
};

use std::path::Path;

/// Unified error type of the facade.
#[derive(Debug)]
pub enum NatixError {
    /// XML parsing failed.
    Xml(xmlstore::XmlError),
    /// Query compilation failed.
    Compile(PipelineError),
    /// Execution stopped by the resource governor (budget, deadline,
    /// cancellation), or refused for an unbound `$` variable.
    Resource(QueryError),
    /// Disk store I/O or corruption.
    Disk(xmlstore::diskstore::DiskError),
    /// An update operation or write batch failed (typed; the service
    /// renders these as `ERR update <class>` lines).
    Update(xmlstore::UpdateError),
}

impl std::fmt::Display for NatixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NatixError::Xml(e) => write!(f, "{e}"),
            NatixError::Compile(e) => write!(f, "{e}"),
            NatixError::Resource(e) => write!(f, "{e}"),
            NatixError::Disk(e) => write!(f, "{e}"),
            NatixError::Update(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NatixError {}

impl From<xmlstore::XmlError> for NatixError {
    fn from(e: xmlstore::XmlError) -> Self {
        NatixError::Xml(e)
    }
}

impl From<PipelineError> for NatixError {
    fn from(e: PipelineError) -> Self {
        match e {
            PipelineError::Resource(e) => NatixError::Resource(e),
            other => NatixError::Compile(other),
        }
    }
}

impl From<QueryError> for NatixError {
    fn from(e: QueryError) -> Self {
        match e {
            // A mid-query storage fault is a disk problem, not a budget
            // trip: reconstruct the error class so callers (and the CLI's
            // exit codes) keep the I/O-vs-corruption distinction. The
            // page/slot coordinates are embedded in the detail string.
            QueryError::Storage { detail, io: true } => {
                NatixError::Disk(DiskError::io(std::io::Error::other(detail)))
            }
            QueryError::Storage { detail, io: false } => {
                NatixError::Disk(DiskError::corrupt(detail))
            }
            other => NatixError::Resource(other),
        }
    }
}

impl From<xmlstore::diskstore::DiskError> for NatixError {
    fn from(e: xmlstore::diskstore::DiskError) -> Self {
        NatixError::Disk(e)
    }
}

impl From<xmlstore::UpdateError> for NatixError {
    fn from(e: xmlstore::UpdateError) -> Self {
        NatixError::Update(e)
    }
}

/// An XML document held in one of the two stores.
///
/// The variants differ in size (the disk store carries its loaded
/// indexes inline), but a `Document` is built once per registration and
/// lives behind an `Arc` in the engine registry — never in bulk
/// collections — so boxing would only add an indirection to every
/// navigation call.
#[allow(clippy::large_enum_variant)]
pub enum Document {
    /// Main-memory arena store.
    Arena(xmlstore::ArenaStore),
    /// Paged on-disk store behind the buffer manager.
    Disk(xmlstore::diskstore::DiskStore),
}

impl Document {
    /// Parse XML text into the in-memory store (default [`ParseLimits`]).
    pub fn parse(xml: &str) -> Result<Document, NatixError> {
        Ok(Document::Arena(xmlstore::parse_document(xml)?))
    }

    /// Parse with explicit bounds on document shape (nesting depth, name
    /// length, attribute and entity counts). Exceeding a bound is a typed
    /// [`NatixError::Xml`], never a panic or stack overflow.
    pub fn parse_with_limits(xml: &str, limits: &ParseLimits) -> Result<Document, NatixError> {
        Ok(Document::Arena(xmlstore::parse_document_with_limits(xml, limits)?))
    }

    /// Persist an in-memory document as a page file and reopen it through
    /// the buffer manager (`buffer_pages` resident frames).
    pub fn persist(&self, path: &Path, buffer_pages: usize) -> Result<Document, NatixError> {
        match self {
            Document::Arena(a) => Ok(Document::Disk(xmlstore::diskstore::DiskStore::create_from(
                a,
                path,
                buffer_pages,
            )?)),
            Document::Disk(_) => Err(NatixError::Disk(DiskError::io(std::io::Error::other(
                "document is already on disk",
            )))),
        }
    }

    /// Open an existing page file.
    pub fn open(path: &Path, buffer_pages: usize) -> Result<Document, NatixError> {
        Ok(Document::Disk(xmlstore::diskstore::DiskStore::open(path, buffer_pages)?))
    }

    /// Open an existing page file with its persistent indexes disabled:
    /// no structural index, no content probes — every axis navigates by
    /// cursor, exactly the pre-index behaviour. The baseline side of
    /// index benchmarks and differential tests.
    pub fn open_plain(path: &Path, buffer_pages: usize) -> Result<Document, NatixError> {
        Ok(Document::Disk(xmlstore::diskstore::DiskStore::open_plain(path, buffer_pages)?))
    }

    /// The underlying store.
    pub fn store(&self) -> &dyn XmlStore {
        match self {
            Document::Arena(a) => a,
            Document::Disk(d) => d,
        }
    }
}

/// Parse-time bounds derived from a resource budget: any parse-limit
/// field set on `limits` overrides the corresponding [`ParseLimits`]
/// default, so the CLI/REPL budget surface covers document loading too.
pub fn parse_limits_of(limits: &ResourceLimits) -> ParseLimits {
    let mut p = ParseLimits::default();
    if let Some(d) = limits.max_parse_depth {
        p.max_depth = d;
    }
    if let Some(l) = limits.max_name_len {
        p.max_name_len = l;
    }
    if let Some(c) = limits.max_attr_count {
        p.max_attrs = c;
    }
    if let Some(e) = limits.max_entity_expansions {
        p.max_entity_expansions = e;
    }
    p
}

/// Open a store file and run a full integrity check: every page checksum,
/// every node record and link, the complete name dictionary and all
/// string chains. Returns the exact verification counts, or the first
/// fault with its page/slot coordinates.
pub fn verify_store(path: &Path, buffer_pages: usize) -> Result<VerifyReport, NatixError> {
    let store = xmlstore::diskstore::DiskStore::open(path, buffer_pages)?;
    Ok(store.verify()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_roundtrip() {
        let doc = Document::parse("<a><b>x</b></a>").unwrap();
        let session = Engine::new().session();
        assert_eq!(
            session.evaluate(doc.store(), "string(/a/b)").unwrap(),
            QueryOutput::Str("x".into())
        );
        let plan = session.explain(doc.store(), "/a/b").unwrap();
        assert!(plan.contains("Υ["));
    }

    #[test]
    fn error_paths() {
        assert!(Document::parse("<a>").is_err());
        let doc = Document::parse("<a/>").unwrap();
        let session = Engine::new().session();
        assert!(session.evaluate(doc.store(), "///").is_err());
        assert!(session.evaluate(doc.store(), "bogus()").is_err());
    }
}
