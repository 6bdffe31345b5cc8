//! Executor: runs a physical query against a store, providing the
//! top-level execution context (context node, `$` variables, resource
//! governor) that binds the plan's free attributes (paper §2.2.2).

use std::collections::HashMap;

use xmlstore::{NodeId, XmlStore};

use algebra::{QueryError, QueryOutput, Tuple, Value};
use compiler::{compile_with_stats, PipelineError, ResourceLimits, TranslateOptions};

use crate::codegen::{build_physical, PhysicalQuery};
use crate::governor::{tuple_bytes, ChargeLedger, ResourceGovernor};

/// Shared read-only state available to every iterator and NVM program.
pub struct Runtime<'a> {
    /// The document store.
    pub store: &'a dyn XmlStore,
    /// `$` variable bindings.
    pub vars: &'a HashMap<String, Value>,
    /// The execution budget (memory/tuples/deadline/cancellation).
    pub gov: &'a ResourceGovernor,
}

/// Convert a drained storage fault into a typed query error.
fn storage_err(store: &dyn XmlStore) -> Option<QueryError> {
    store
        .take_storage_fault()
        .map(|f| QueryError::Storage { detail: f.message, io: f.is_io })
}

impl PhysicalQuery {
    /// Execute against `store` with `ctx` as the context node, without
    /// resource limits. An unlimited governor cannot trip, but the
    /// storage layer still can: an I/O failure or detected corruption
    /// while reading a paged store surfaces as [`QueryError::Storage`].
    ///
    /// A `PhysicalQuery` is bound to one store: node tests resolve
    /// interned names on first execution, so reuse the object only
    /// against the same store.
    pub fn execute(
        &mut self,
        store: &dyn XmlStore,
        vars: &HashMap<String, Value>,
        ctx: NodeId,
    ) -> Result<QueryOutput, QueryError> {
        let gov = ResourceGovernor::unlimited();
        self.execute_governed(store, vars, ctx, &gov)
    }

    /// Execute under a resource governor. Over-budget, timed-out and
    /// cancelled executions unwind cooperatively: iterators stop
    /// producing once the governor trips, the plan closes (releasing
    /// every transient charge), and the trip surfaces here as a typed
    /// [`QueryError`]. Storage faults (I/O failure or detected corruption
    /// in a paged store) unwind the same way: the store records the first
    /// fault and returns inert values, the tuple loop notices the trip,
    /// the plan closes, and the fault surfaces as
    /// [`QueryError::Storage`] with `mem_used() == 0`.
    pub fn execute_governed(
        &mut self,
        store: &dyn XmlStore,
        vars: &HashMap<String, Value>,
        ctx: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<QueryOutput, QueryError> {
        // XPath 1.0 §3.1: a variable with no binding is an error, not an
        // empty value.
        let (PhysicalQuery::Sequence { vars: read, .. } | PhysicalQuery::Scalar { vars: read, .. }) =
            &*self;
        if let Some(name) = read.iter().find(|name| !vars.contains_key(*name)) {
            return Err(QueryError::UnboundVariable { name: name.clone() });
        }
        let rt = Runtime { store, vars, gov };
        gov.check_now();
        // A fault left over from an earlier (already reported) execution
        // must not poison this one.
        store.take_storage_fault();
        match self {
            PhysicalQuery::Sequence { root, frame, result, ordered, .. } => {
                let mut seed: Tuple = vec![Value::Null; frame.width];
                seed[frame.cn] = Value::Node(ctx);
                seed[frame.cp] = Value::Num(1.0);
                seed[frame.cs] = Value::Num(1.0);
                root.open(&rt, &seed);
                // The result accumulator is a materialisation like any
                // other: charge it so unbounded node-sets cannot evade
                // the budget by reaching the top of the plan. A block of
                // nodes per charge, the rest before the plan closes: a
                // charge per node cost more than the sort.
                const BLOCK: usize = 64;
                const NODE: u64 = std::mem::size_of::<NodeId>() as u64;
                let mut ledger = ChargeLedger::new();
                let mut nodes: Vec<NodeId> = Vec::new();
                let mut charged = 0;
                let mut t = Tuple::new();
                while gov.ok() && !store.storage_tripped() && root.next(&rt, &mut t) {
                    if let Some(n) = t[*result].as_node() {
                        nodes.push(n);
                        if nodes.len() - charged == BLOCK {
                            if !ledger.charge(gov, BLOCK as u64 * NODE) {
                                break;
                            }
                            charged = nodes.len();
                        }
                    }
                }
                if gov.ok() && nodes.len() > charged {
                    ledger.charge(gov, (nodes.len() - charged) as u64 * NODE);
                }
                root.close(&rt);
                ledger.release_all(gov);
                if let Some(e) = gov.error() {
                    return Err(e);
                }
                // XPath 1.0 node-sets are unordered (paper §2.1); we
                // return document order for determinism, as the plan
                // delivers it where the compiler proved so.
                if !*ordered {
                    algebra::docorder::sort_dedup(&mut nodes, store);
                }
                // Checked last: the document-order sort reads `order()`
                // and can itself hit a damaged page.
                if let Some(e) = storage_err(store) {
                    return Err(e);
                }
                Ok(QueryOutput::Nodes(nodes))
            }
            PhysicalQuery::Scalar { pred, frame, stats, .. } => {
                let mut seed: Tuple = vec![Value::Null; frame.width];
                seed[frame.cn] = Value::Node(ctx);
                seed[frame.cp] = Value::Num(1.0);
                seed[frame.cs] = Value::Num(1.0);
                let t0 = stats.as_ref().map(|_| std::time::Instant::now());
                let value = pred.eval(&rt, &seed);
                pred.release();
                if let (Some(stats), Some(t0)) = (stats, t0) {
                    let mut s = stats.lock();
                    s.nanos += t0.elapsed().as_nanos() as u64;
                    s.opens += 1;
                    s.tuples += 1;
                }
                if let Some(e) = gov.error() {
                    return Err(e);
                }
                let out = match value {
                    Value::Bool(b) => QueryOutput::Bool(b),
                    Value::Num(n) => QueryOutput::Num(n),
                    Value::Str(s) => QueryOutput::Str(s.to_string()),
                    Value::Node(n) => QueryOutput::Nodes(vec![n]),
                    Value::Null => QueryOutput::Str(String::new()),
                    Value::Seq(ts) => {
                        // Transient charge for inspecting the sequence —
                        // symmetric with the Sequence arm's accumulator.
                        let mut ledger = ChargeLedger::new();
                        let mut charged = 0u64;
                        for t in ts.iter() {
                            charged += tuple_bytes(t);
                        }
                        let fits = ledger.charge(gov, charged);
                        let mut nodes: Vec<NodeId> =
                            ts.iter().flat_map(|t| t.iter().filter_map(|v| v.as_node())).collect();
                        ledger.release_all(gov);
                        if !fits {
                            return Err(gov.error().expect("charge failed"));
                        }
                        algebra::docorder::sort_dedup(&mut nodes, store);
                        QueryOutput::Nodes(nodes)
                    }
                };
                if let Some(e) = storage_err(store) {
                    return Err(e);
                }
                Ok(out)
            }
        }
    }
}

/// One-stop evaluation: compile `query`, lower it, execute it with the
/// document node as context.
pub fn evaluate(
    store: &dyn XmlStore,
    query: &str,
    opts: &TranslateOptions,
) -> Result<QueryOutput, PipelineError> {
    evaluate_with(store, query, opts, store.root(), &HashMap::new())
}

/// Evaluation with an explicit context node and variable bindings.
pub fn evaluate_with(
    store: &dyn XmlStore,
    query: &str,
    opts: &TranslateOptions,
    ctx: NodeId,
    vars: &HashMap<String, Value>,
) -> Result<QueryOutput, PipelineError> {
    let stats = store.structural_index().map(|idx| idx.stats());
    let (compiled, _) = compile_with_stats(query, opts, stats)?;
    let mut phys = build_physical(&compiled);
    Ok(phys.execute(store, vars, ctx)?)
}

/// Evaluation under resource limits: compile, lower, and execute with a
/// fresh governor for `limits`. Budget trips surface as
/// [`PipelineError::Resource`].
pub fn evaluate_governed(
    store: &dyn XmlStore,
    query: &str,
    opts: &TranslateOptions,
    limits: &ResourceLimits,
    ctx: NodeId,
    vars: &HashMap<String, Value>,
) -> Result<QueryOutput, PipelineError> {
    let stats = store.structural_index().map(|idx| idx.stats());
    let (compiled, _) = compile_with_stats(query, opts, stats)?;
    let mut phys = build_physical(&compiled);
    let gov = ResourceGovernor::new(*limits);
    Ok(phys.execute_governed(store, vars, ctx, &gov)?)
}
