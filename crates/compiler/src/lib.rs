//! Translation of XPath 1.0 into the logical algebra — the paper's core
//! contribution (§3 canonical translation, §4 improved translation).
//!
//! Entry point: [`compile`] (query string → [`CompiledQuery`]), or
//! [`translate`] for an already-analyzed AST. [`TranslateOptions`] selects
//! between the canonical and improved translations and exposes each §4
//! improvement separately for ablation studies.

pub mod cost;
pub mod options;
pub mod physical;
pub mod pipeline;
pub mod trace;
pub mod translate;

pub use cost::{Decision, OpEstimate, OptimizerTrace};
pub use options::{parse_duration, parse_mem_size, CostMode, ResourceLimits, TranslateOptions};
pub use pipeline::{
    compile, compile_ast, compile_ast_with_stats, compile_traced, compile_traced_with_stats,
    compile_with_stats, cost_active, PipelineError,
};
pub use trace::{PhaseTiming, QueryTrace};
pub use translate::{translate, CompileError, CompiledQuery};
