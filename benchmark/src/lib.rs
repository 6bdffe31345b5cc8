//! The repository's one benchmark (see `README.md` beside this crate):
//! six workloads over the whole engine, end-to-end metrics from an
//! untraced run, per-layer metrics and a span file from a traced run,
//! every answer checked against the baseline interpreter.
//!
//! Everything here reaches the engine from outside, through public
//! functions of `natix` and its crates; nothing outside `benchmark/`
//! changes for it.

pub mod alloc;
pub mod counting;
pub mod inputs;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
