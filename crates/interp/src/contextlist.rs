//! A main-memory, context-list XPath 1.0 interpreter — the baseline the
//! paper compares against (Xalan / xsltproc, §6). It evaluates location
//! steps over explicit context lists, recursing per expression.
//!
//! Two configurations:
//! * **context-list** (default): intermediate node lists are sorted into
//!   document order and de-duplicated after every step — the behaviour of
//!   a well-implemented interpreter;
//! * **naive**: no intermediate de-duplication (duplicates multiply
//!   across steps) — the pre-Gottlob exponential evaluation strategy the
//!   paper's improved translation is measured against.

use std::collections::HashMap;

use xmlstore::{axis_nodes, Axis, NodeId, NodeKind, XmlStore};
use xpath_syntax::xvalue;
use xpath_syntax::{
    CompOp, Expr, KindTest, NodeTest, PathExpr, PathStart, Predicate, Step, XPathType,
};

use algebra::{QueryOutput, Value};

/// Interpreter configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterpOptions {
    /// De-duplicate (and document-order) intermediate context lists after
    /// every location step.
    pub dedup_between_steps: bool,
}

impl InterpOptions {
    /// Xalan-like behaviour.
    pub fn context_list() -> InterpOptions {
        InterpOptions { dedup_between_steps: true }
    }

    /// Worst-case naive behaviour.
    pub fn naive() -> InterpOptions {
        InterpOptions { dedup_between_steps: false }
    }
}

/// Errors raised by the interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterpError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

fn err<T>(m: impl Into<String>) -> Result<T, InterpError> {
    Err(InterpError { message: m.into() })
}

/// Evaluation context: node, position, size.
#[derive(Clone, Copy, Debug)]
struct Ctx {
    node: NodeId,
    pos: usize,
    size: usize,
}

/// The interpreter.
pub struct Interpreter<'a> {
    store: &'a dyn XmlStore,
    vars: &'a HashMap<String, Value>,
    opts: InterpOptions,
}

thread_local! {
    static NO_VARS: &'static HashMap<String, Value> =
        Box::leak(Box::new(HashMap::new()));
}

impl<'a> Interpreter<'a> {
    /// New interpreter over `store`.
    pub fn new(store: &'a dyn XmlStore, opts: InterpOptions) -> Interpreter<'a> {
        Interpreter { store, vars: NO_VARS.with(|v| *v), opts }
    }

    /// Provide `$` variable bindings.
    pub fn with_vars(
        store: &'a dyn XmlStore,
        opts: InterpOptions,
        vars: &'a HashMap<String, Value>,
    ) -> Interpreter<'a> {
        Interpreter { store, vars, opts }
    }

    /// Evaluate a query string with `ctx` as the context node. The input
    /// goes through the same front-end as the algebraic engine (parse,
    /// semantic analysis, constant folding).
    pub fn evaluate(&self, query: &str, ctx: NodeId) -> Result<QueryOutput, InterpError> {
        let ast =
            xpath_syntax::frontend(query).map_err(|e| InterpError { message: e.to_string() })?;
        self.eval(&ast, Ctx { node: ctx, pos: 1, size: 1 })
    }

    /// Evaluate an analyzed AST.
    pub fn evaluate_ast(&self, ast: &Expr, ctx: NodeId) -> Result<QueryOutput, InterpError> {
        self.eval(ast, Ctx { node: ctx, pos: 1, size: 1 })
    }

    fn eval(&self, e: &Expr, ctx: Ctx) -> Result<QueryOutput, InterpError> {
        Ok(match e {
            Expr::Number(n) => QueryOutput::Num(*n),
            Expr::Literal(s) => QueryOutput::Str(s.clone()),
            Expr::VarRef(v) => match self.vars.get(v) {
                Some(Value::Bool(b)) => QueryOutput::Bool(*b),
                Some(Value::Num(n)) => QueryOutput::Num(*n),
                Some(Value::Str(s)) => QueryOutput::Str(s.to_string()),
                Some(Value::Node(n)) => QueryOutput::Nodes(vec![*n]),
                _ => return err(format!("unbound variable ${v}")),
            },
            Expr::Or(a, b) => QueryOutput::Bool(self.eval_bool(a, ctx)? || self.eval_bool(b, ctx)?),
            Expr::And(a, b) => {
                QueryOutput::Bool(self.eval_bool(a, ctx)? && self.eval_bool(b, ctx)?)
            }
            Expr::Compare(op, a, b) => {
                let va = self.eval(a, ctx)?;
                let vb = self.eval(b, ctx)?;
                QueryOutput::Bool(self.compare(*op, &va, &vb))
            }
            Expr::Arith(op, a, b) => {
                let x = self.eval_num(a, ctx)?;
                let y = self.eval_num(b, ctx)?;
                QueryOutput::Num(op.apply(x, y))
            }
            Expr::Neg(a) => QueryOutput::Num(-self.eval_num(a, ctx)?),
            Expr::Union(parts) => {
                let mut nodes = Vec::new();
                for p in parts {
                    nodes.extend(self.eval_nodes(p, ctx)?);
                }
                self.order_dedup(&mut nodes);
                QueryOutput::Nodes(nodes)
            }
            Expr::Path(p) => QueryOutput::Nodes(self.eval_path(p, ctx)?),
            Expr::Filter(inner, preds) => {
                let mut nodes = self.eval_nodes(inner, ctx)?;
                // Filter-expression predicates run in document order.
                self.order_dedup(&mut nodes);
                for p in preds {
                    nodes = self.filter(nodes, p)?;
                }
                QueryOutput::Nodes(nodes)
            }
            Expr::FunctionCall(name, args) => self.eval_call(name, args, ctx)?,
        })
    }

    fn eval_bool(&self, e: &Expr, ctx: Ctx) -> Result<bool, InterpError> {
        Ok(self.eval(e, ctx)?.to_bool())
    }

    fn eval_num(&self, e: &Expr, ctx: Ctx) -> Result<f64, InterpError> {
        Ok(self.to_num(&self.eval(e, ctx)?))
    }

    fn eval_str(&self, e: &Expr, ctx: Ctx) -> Result<String, InterpError> {
        Ok(self.to_str(&self.eval(e, ctx)?))
    }

    fn eval_nodes(&self, e: &Expr, ctx: Ctx) -> Result<Vec<NodeId>, InterpError> {
        match self.eval(e, ctx)? {
            QueryOutput::Nodes(ns) => Ok(ns),
            other => err(format!("expected a node-set, got {other:?}")),
        }
    }

    // ----- conversions ----------------------------------------------------

    fn to_str(&self, v: &QueryOutput) -> String {
        match v {
            QueryOutput::Nodes(ns) => {
                // First node in document order.
                ns.iter()
                    .min_by_key(|&&n| self.store.order(n))
                    .map(|&n| self.store.string_value(n))
                    .unwrap_or_default()
            }
            QueryOutput::Bool(b) => if *b { "true" } else { "false" }.to_owned(),
            QueryOutput::Num(n) => xvalue::number_to_string(*n),
            QueryOutput::Str(s) => s.clone(),
        }
    }

    fn to_num(&self, v: &QueryOutput) -> f64 {
        match v {
            QueryOutput::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            QueryOutput::Num(n) => *n,
            _ => xvalue::string_to_number(&self.to_str(v)),
        }
    }

    // ----- comparisons (XPath §3.4) ----------------------------------------

    fn compare(&self, op: CompOp, a: &QueryOutput, b: &QueryOutput) -> bool {
        use QueryOutput::*;
        match (a, b) {
            (Nodes(na), Nodes(nb)) => {
                // Existential over pairs of string-values.
                let svb: Vec<String> = nb.iter().map(|&n| self.store.string_value(n)).collect();
                na.iter().any(|&x| {
                    let sa = self.store.string_value(x);
                    svb.iter().any(|sb| match op {
                        CompOp::Eq => &sa == sb,
                        CompOp::Ne => &sa != sb,
                        _ => op.apply_numbers(
                            xvalue::string_to_number(&sa),
                            xvalue::string_to_number(sb),
                        ),
                    })
                })
            }
            (Nodes(ns), prim) | (prim, Nodes(ns)) => {
                let flipped = matches!(b, Nodes(_)) && !matches!(a, Nodes(_));
                let op = if flipped { op.flip() } else { op };
                match prim {
                    Bool(pb) => {
                        let eb = !ns.is_empty();
                        match op {
                            CompOp::Eq => eb == *pb,
                            CompOp::Ne => eb != *pb,
                            _ => op.apply_numbers(eb as u8 as f64, *pb as u8 as f64),
                        }
                    }
                    Num(pn) => ns.iter().any(|&n| {
                        op.apply_numbers(xvalue::string_to_number(&self.store.string_value(n)), *pn)
                    }),
                    Str(ps) => ns.iter().any(|&n| {
                        let sv = self.store.string_value(n);
                        match op {
                            CompOp::Eq => &sv == ps,
                            CompOp::Ne => &sv != ps,
                            _ => op.apply_numbers(
                                xvalue::string_to_number(&sv),
                                xvalue::string_to_number(ps),
                            ),
                        }
                    }),
                    Nodes(_) => unreachable!("matched above"),
                }
            }
            _ => {
                // Primitive vs primitive.
                match op {
                    CompOp::Eq | CompOp::Ne => {
                        let eq = match (a, b) {
                            (Bool(_), _) | (_, Bool(_)) => a.to_bool() == b.to_bool(),
                            (Num(_), _) | (_, Num(_)) => self.to_num(a) == self.to_num(b),
                            _ => self.to_str(a) == self.to_str(b),
                        };
                        if op == CompOp::Eq {
                            eq
                        } else {
                            !eq
                        }
                    }
                    _ => op.apply_numbers(self.to_num(a), self.to_num(b)),
                }
            }
        }
    }

    // ----- paths ------------------------------------------------------------

    fn order_dedup(&self, nodes: &mut Vec<NodeId>) {
        nodes.sort_by_key(|&n| self.store.order(n));
        nodes.dedup();
    }

    fn eval_path(&self, p: &PathExpr, ctx: Ctx) -> Result<Vec<NodeId>, InterpError> {
        let mut cur: Vec<NodeId> = match &p.start {
            PathStart::Root => vec![self.store.root()],
            PathStart::ContextNode => vec![ctx.node],
            PathStart::Expr(e) => self.eval_nodes(e, ctx)?,
        };
        for step in &p.steps {
            let mut next = Vec::new();
            for &cn in &cur {
                next.extend(self.eval_step(cn, step)?);
            }
            if self.opts.dedup_between_steps {
                self.order_dedup(&mut next);
            }
            cur = next;
        }
        if !self.opts.dedup_between_steps {
            // Naive mode still returns a set at the very end.
            self.order_dedup(&mut cur);
        }
        Ok(cur)
    }

    fn eval_step(&self, cn: NodeId, step: &Step) -> Result<Vec<NodeId>, InterpError> {
        let mut nodes: Vec<NodeId> = axis_nodes(self.store, step.axis, cn)
            .into_iter()
            .filter(|&n| self.node_test(n, step.axis, &step.node_test))
            .collect();
        for pred in &step.predicates {
            nodes = self.filter(nodes, pred)?;
        }
        Ok(nodes)
    }

    fn node_test(&self, n: NodeId, axis: Axis, test: &NodeTest) -> bool {
        let store = self.store;
        let principal = axis.principal_kind();
        match test {
            NodeTest::Name(name) => {
                store.kind(n) == principal
                    && store.intern_lookup(name) == store.name(n)
                    && store.name(n).is_some()
            }
            NodeTest::Wildcard => store.kind(n) == principal,
            NodeTest::NsWildcard(p) => {
                store.kind(n) == principal && store.node_name(n).starts_with(&format!("{p}:"))
            }
            NodeTest::Kind(KindTest::Node) => true,
            NodeTest::Kind(KindTest::Text) => store.kind(n) == NodeKind::Text,
            NodeTest::Kind(KindTest::Comment) => store.kind(n) == NodeKind::Comment,
            NodeTest::Kind(KindTest::Pi(target)) => {
                store.kind(n) == NodeKind::ProcessingInstruction
                    && target.as_ref().is_none_or(|t| store.node_name(n) == *t)
            }
        }
    }

    /// Apply one predicate to a context list (positions are 1-based over
    /// the list as given — axis order for steps, document order for
    /// filter expressions).
    fn filter(&self, nodes: Vec<NodeId>, pred: &Predicate) -> Result<Vec<NodeId>, InterpError> {
        let size = nodes.len();
        let mut out = Vec::with_capacity(size);
        for (i, n) in nodes.into_iter().enumerate() {
            let c = Ctx { node: n, pos: i + 1, size };
            let keep = match xpath_syntax::static_type(&pred.expr) {
                XPathType::Number => self.eval_num(&pred.expr, c)? == c.pos as f64,
                _ => self.eval_bool(&pred.expr, c)?,
            };
            if keep {
                out.push(n);
            }
        }
        Ok(out)
    }

    // ----- function library -------------------------------------------------

    fn eval_call(&self, name: &str, args: &[Expr], ctx: Ctx) -> Result<QueryOutput, InterpError> {
        Ok(match name {
            "last" => QueryOutput::Num(ctx.size as f64),
            "position" => QueryOutput::Num(ctx.pos as f64),
            "count" => QueryOutput::Num(self.eval_nodeset_arg(&args[0], ctx)?.len() as f64),
            "sum" => {
                let ns = self.eval_nodeset_arg(&args[0], ctx)?;
                // Folded from +0: `Iterator::sum` starts from -0.0, which
                // an empty node-set would return as is.
                QueryOutput::Num(ns.iter().fold(0.0, |sum, &n| {
                    sum + xvalue::string_to_number(&self.store.string_value(n))
                }))
            }
            "exists" => QueryOutput::Bool(!self.eval_nodeset_arg(&args[0], ctx)?.is_empty()),
            "id" => {
                let mut out = Vec::new();
                match self.eval(&args[0], ctx)? {
                    QueryOutput::Nodes(ns) => {
                        for n in ns {
                            for tok in self.store.string_value(n).split_ascii_whitespace() {
                                if let Some(hit) = self.store.element_by_id(tok) {
                                    out.push(hit);
                                }
                            }
                        }
                    }
                    other => {
                        for tok in self.to_str(&other).split_ascii_whitespace() {
                            if let Some(hit) = self.store.element_by_id(tok) {
                                out.push(hit);
                            }
                        }
                    }
                }
                self.order_dedup(&mut out);
                QueryOutput::Nodes(out)
            }
            "local-name" | "name" => {
                let ns = self.eval_nodeset_arg(&args[0], ctx)?;
                let first = ns.iter().min_by_key(|&&n| self.store.order(n));
                let qname = first.map(|&n| self.store.node_name(n)).unwrap_or_default();
                QueryOutput::Str(match name {
                    "local-name" => xvalue::local_name(&qname).to_owned(),
                    _ => qname,
                })
            }
            "namespace-uri" => QueryOutput::Str(String::new()),
            "string" => QueryOutput::Str(self.eval_str(&args[0], ctx)?),
            "concat" => {
                let mut out = String::new();
                for a in args {
                    out.push_str(&self.eval_str(a, ctx)?);
                }
                QueryOutput::Str(out)
            }
            "starts-with" => QueryOutput::Bool(
                self.eval_str(&args[0], ctx)?.starts_with(&self.eval_str(&args[1], ctx)?),
            ),
            "contains" => QueryOutput::Bool(
                self.eval_str(&args[0], ctx)?.contains(&self.eval_str(&args[1], ctx)?),
            ),
            "substring-before" => QueryOutput::Str(xvalue::substring_before(
                &self.eval_str(&args[0], ctx)?,
                &self.eval_str(&args[1], ctx)?,
            )),
            "substring-after" => QueryOutput::Str(xvalue::substring_after(
                &self.eval_str(&args[0], ctx)?,
                &self.eval_str(&args[1], ctx)?,
            )),
            "substring" => {
                let s = self.eval_str(&args[0], ctx)?;
                let start = self.eval_num(&args[1], ctx)?;
                let len = if args.len() > 2 {
                    Some(self.eval_num(&args[2], ctx)?)
                } else {
                    None
                };
                QueryOutput::Str(xvalue::xpath_substring(&s, start, len))
            }
            "string-length" => {
                QueryOutput::Num(xvalue::string_length(&self.eval_str(&args[0], ctx)?))
            }
            "normalize-space" => {
                QueryOutput::Str(xvalue::normalize_space(&self.eval_str(&args[0], ctx)?))
            }
            "translate" => QueryOutput::Str(xvalue::translate(
                &self.eval_str(&args[0], ctx)?,
                &self.eval_str(&args[1], ctx)?,
                &self.eval_str(&args[2], ctx)?,
            )),
            "boolean" => QueryOutput::Bool(self.eval_bool(&args[0], ctx)?),
            "not" => QueryOutput::Bool(!self.eval_bool(&args[0], ctx)?),
            "true" => QueryOutput::Bool(true),
            "false" => QueryOutput::Bool(false),
            "lang" => {
                let want = self.eval_str(&args[0], ctx)?.to_ascii_lowercase();
                let mut cur = Some(ctx.node);
                let mut result = false;
                while let Some(n) = cur {
                    if self.store.kind(n) == NodeKind::Element {
                        if let Some(v) = self.store.attribute_value(n, "xml:lang") {
                            let v = v.to_ascii_lowercase();
                            result = v == want
                                || (v.starts_with(&want)
                                    && v.as_bytes().get(want.len()) == Some(&b'-'));
                            break;
                        }
                    }
                    cur = self.store.parent(n);
                }
                QueryOutput::Bool(result)
            }
            "number" => QueryOutput::Num(self.eval_num(&args[0], ctx)?),
            "floor" => QueryOutput::Num(self.eval_num(&args[0], ctx)?.floor()),
            "ceiling" => QueryOutput::Num(self.eval_num(&args[0], ctx)?.ceil()),
            "round" => QueryOutput::Num(xvalue::xpath_round(self.eval_num(&args[0], ctx)?)),
            other => return err(format!("unknown function `{other}()`")),
        })
    }

    fn eval_nodeset_arg(&self, e: &Expr, ctx: Ctx) -> Result<Vec<NodeId>, InterpError> {
        let mut ns = self.eval_nodes(e, ctx)?;
        if !self.opts.dedup_between_steps {
            self.order_dedup(&mut ns);
        }
        Ok(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::parse_document;

    fn store() -> xmlstore::ArenaStore {
        parse_document(r#"<r><a id="1"><b>x</b><b>y</b></a><a id="2"><b>z</b></a><c>7</c></r>"#)
            .unwrap()
    }

    fn run(q: &str) -> QueryOutput {
        let s = store();
        Interpreter::new(&s, InterpOptions::context_list())
            .evaluate(q, s.root())
            .unwrap()
    }

    #[test]
    fn basic_paths() {
        assert_eq!(run("count(/r/a)"), QueryOutput::Num(2.0));
        assert_eq!(run("count(//b)"), QueryOutput::Num(3.0));
        assert_eq!(run("string(/r/a[2]/b)"), QueryOutput::Str("z".into()));
        assert_eq!(run("string(/r/a[@id='1']/b[2])"), QueryOutput::Str("y".into()));
    }

    #[test]
    fn positional_and_last() {
        assert_eq!(run("string(/r/a[last()]/@id)"), QueryOutput::Str("2".into()));
        assert_eq!(run("count(/r/a/b[position()=1])"), QueryOutput::Num(2.0));
    }

    #[test]
    fn comparisons() {
        assert_eq!(run("/r/c = 7"), QueryOutput::Bool(true));
        assert_eq!(run("/r/c < 7"), QueryOutput::Bool(false));
        assert_eq!(run("/r/a/b = 'y'"), QueryOutput::Bool(true));
        assert_eq!(run("/r/a/b != /r/a/b"), QueryOutput::Bool(true));
    }

    #[test]
    fn functions() {
        assert_eq!(run("normalize-space('  q  w ')"), QueryOutput::Str("q w".into()));
        assert_eq!(run("sum(/r/c)"), QueryOutput::Num(7.0));
        assert_eq!(run("string(id('2')/@id)"), QueryOutput::Str("2".into()));
        assert_eq!(run("name(/r/a[1])"), QueryOutput::Str("a".into()));
    }

    #[test]
    fn naive_mode_agrees_on_results() {
        let s = store();
        let naive = Interpreter::new(&s, InterpOptions::naive());
        let cl = Interpreter::new(&s, InterpOptions::context_list());
        for q in [
            "count(//b)",
            "count(/r/a/b/parent::a)",
            "string(/r/a[2]/b[1])",
        ] {
            assert_eq!(
                naive.evaluate(q, s.root()).unwrap(),
                cl.evaluate(q, s.root()).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn unknown_variable_errors() {
        let s = store();
        let it = Interpreter::new(&s, InterpOptions::context_list());
        assert!(it.evaluate("/r/a[@id = $missing]", s.root()).is_err());
    }
}
