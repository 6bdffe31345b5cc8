//! NQE — the Natix Query Execution engine (paper §5.2): an iterator-based
//! physical algebra executing translated XPath plans directly against the
//! storage interface, plus the NVM bytecode machine for scalar subscripts.
//!
//! * [`iter`] — one physical iterator per logical operator,
//! * [`governor`] — the per-query resource budget (memory, tuples,
//!   deadline, cancellation) charged by every materialising iterator,
//! * [`nvm`] — the register VM evaluating subscripts (with nested
//!   iterator access and smart aggregation),
//! * [`codegen`] — physical plan → iterators + NVM programs (slot
//!   resolution through the attribute manager),
//! * [`exec`] — the executor and the [`exec::evaluate`] convenience entry
//!   point.

pub mod analyze;
pub mod codegen;
pub mod exec;
pub mod governor;
pub mod iter;
pub mod json;
pub mod nvm;
pub mod profile;

pub use analyze::{
    execute_observed, explain_analyze, explain_analyze_governed, AnalyzeReport, CardinalityCheck,
    StorageReport,
};
pub use codegen::{build_physical, build_physical_profiled, FrameInfo, PhysicalQuery};
pub use exec::{evaluate, evaluate_governed, evaluate_with, Runtime};
pub use governor::{
    group_key_bytes, tuple_bytes, value_bytes, ChargeLedger, FailPoint, ResourceGovernor,
    DEFAULT_TICK_INTERVAL,
};
pub use json::Json;
pub use profile::{OpStats, Profile};
