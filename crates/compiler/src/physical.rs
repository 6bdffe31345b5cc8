//! The physical phase, last of the compiler (paper §5.1: translate →
//! optimize → prune → physical). It decides once, on the
//! plan, what code generation then lowers one to one, so EXPLAIN shows
//! it, the cost pass prices it and the plan cache holds it:
//!
//! - a fusable `Π^D[a](Υ[a:c/ppd::t](X))` becomes one set-mode Υ
//!   (DESIGN.md §12 "Set-at-a-time steps"), its scan hint reset to
//!   `Auto`, since set mode takes none;
//! - a kernel-shaped aggregate becomes a [`ScalarExpr::Kernel`]
//!   (DESIGN.md §5 "Predicate kernels");
//! - a χ^mat whose aggregates all became kernels becomes a χ.

use algebra::scalar::{AggExpr, AggFunc, CmpMode, ConstCmp, KernelExpr};
use algebra::{ConvKind, LogicalOp, ScalarExpr, ScanHint};

use crate::translate::CompiledQuery;

/// What [`physical`] rewrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lowered {
    /// Π^D operators folded into a set-mode Υ.
    pub set_steps: usize,
    /// Aggregates turned into kernels.
    pub kernels: usize,
}

/// Run the physical phase over a query.
pub fn physical(mut q: CompiledQuery) -> (CompiledQuery, Lowered) {
    // Decided on the whole plan first, then rewritten in place: the
    // sites' addresses stay valid because every operator below a
    // rewritten one keeps its box.
    let sites: Vec<*const LogicalOp> =
        fusable_sites(&q).into_iter().map(|s| s as *const _).collect();
    let mut done = Lowered { set_steps: sites.len(), kernels: 0 };
    match &mut q {
        CompiledQuery::Sequence(plan) => lower(plan, &sites, &mut done.kernels),
        CompiledQuery::Scalar(e) => lower_scalar(e, &sites, &mut done.kernels),
    }
    (q, done)
}

fn lower(op: &mut LogicalOp, sites: &[*const LogicalOp], kernels: &mut usize) {
    if sites.contains(&(op as *const LogicalOp)) {
        let LogicalOp::DedupBy { input, .. } = std::mem::replace(op, LogicalOp::Singleton) else {
            unreachable!("a set site is a Π^D");
        };
        *op = *input;
        if let LogicalOp::UnnestMap { hint, set, .. } = op {
            (*hint, *set) = (ScanHint::Auto, true);
        }
    }
    if let Some(e) = op.subscript_mut() {
        lower_scalar(e, sites, kernels);
    }
    if matches!(op, LogicalOp::MemoMap { expr, .. } if kernels_only(expr)) {
        // A hit would save one bounded walk per kernel, and the keys (the
        // candidates) barely repeat: hashing and storing every value
        // costs more than it saves.
        let LogicalOp::MemoMap { input, attr, expr, .. } =
            std::mem::replace(op, LogicalOp::Singleton)
        else {
            unreachable!()
        };
        *op = LogicalOp::MapExpr { input, attr, expr };
    }
    op.inputs_mut().for_each(|c| lower(c, sites, kernels));
}

fn lower_scalar(e: &mut ScalarExpr, sites: &[*const LogicalOp], kernels: &mut usize) {
    let ScalarExpr::Agg(agg) = e else {
        return e.operands_mut().for_each(|o| lower_scalar(o, sites, kernels));
    };
    match kernel_shape(agg) {
        Some(kernel) => {
            *kernels += 1;
            *e = ScalarExpr::Kernel(Box::new(kernel));
        }
        None => lower(&mut agg.plan, sites, kernels),
    }
}

// ===================== Predicate kernels =====================
//
// The translators emit `[step]`, `[step θ literal]` and `[count(step) θ k]`
// as an aggregate over one step per candidate; the phase turns those into
// kernels. Every other aggregate keeps its nested plan, which is also the
// kernels' oracle.

/// `agg` as a kernel, if it is one: not independent, `Exists` or `Count`,
/// over one probe-free step on an axis Υ walks with its cursor (not the
/// four interval axes its range scans serve), optionally under one σ
/// comparing the step's node with a constant, aggregating the step's
/// attribute. The cost pass's probe rule narrows this one matcher.
pub(crate) fn kernel_shape(agg: &AggExpr) -> Option<KernelExpr> {
    use LogicalOp as L;
    if agg.independent || !matches!(agg.func, AggFunc::Exists | AggFunc::Count) {
        return None;
    }
    let (join, pred) = match &*agg.plan {
        L::Select { input, pred } => (&**input, Some(pred)),
        plan => (plan, None),
    };
    let L::DJoin { left, right } = join else {
        return None;
    };
    let L::MapExpr { input: seed, attr: c, expr: ScalarExpr::Attr(source) } = &**left else {
        return None;
    };
    let L::UnnestMap { input: leaf, context, attr: o, axis, test, probe: None, .. } = &**right
    else {
        return None;
    };
    let leaves = matches!(**seed, L::Singleton) && matches!(**leaf, L::Singleton);
    if !leaves || context != c || *o != agg.over || axis.is_interval() {
        return None;
    }
    let cmp = match pred {
        Some(pred) => Some(const_compare(pred, o)?),
        None => None,
    };
    Some(KernelExpr {
        func: agg.func,
        source: source.clone(),
        context: context.clone(),
        attr: o.clone(),
        axis: *axis,
        test: test.clone(),
        cmp,
    })
}

/// `pred` as `o θ const` or `const θ o`, with `o` bare or under the
/// conversion the comparison mode applies to it anyway (`string()` in
/// string mode, `number()` in number mode).
fn const_compare(pred: &ScalarExpr, o: &str) -> Option<ConstCmp> {
    let ScalarExpr::Compare { op, mode, lhs, rhs } = pred else {
        return None;
    };
    let reads_o = |e: &ScalarExpr| {
        let bare = match (e, mode) {
            (ScalarExpr::Convert(ConvKind::ToString, inner), CmpMode::Str)
            | (ScalarExpr::Convert(ConvKind::ToNumber, inner), CmpMode::Num) => &**inner,
            _ => e,
        };
        matches!(bare, ScalarExpr::Attr(a) if a == o)
    };
    let (constant, constant_first) = match (&**lhs, &**rhs) {
        (ScalarExpr::Const(c), e) if reads_o(e) => (c, true),
        (e, ScalarExpr::Const(c)) if reads_o(e) => (c, false),
        _ => return None,
    };
    Some(ConstCmp {
        op: *op,
        mode: *mode,
        constant: constant.clone(),
        constant_first,
    })
}

/// Does `e` (lowered) hold a kernel, and no aggregate left with a nested
/// plan? A χ^mat over such a subscript runs as a plain χ.
fn kernels_only(e: &ScalarExpr) -> bool {
    fn all(e: &ScalarExpr, found: &mut bool) -> bool {
        match e {
            ScalarExpr::Kernel(_) => {
                *found = true;
                true
            }
            ScalarExpr::Agg(_) => false,
            _ => e.operands().all(|o| all(o, found)),
        }
    }
    let mut found = false;
    all(e, &mut found) && found
}

// ===================== Set-at-a-time sites =====================
//
// `Π^D[a](Υ[a:c/axis::test](X))` over a ppd axis runs as one set-mode Υ,
// which emits each node once, in document order, on the frame of X's
// first tuple. Against Υ + Π^D its output is permuted, and its frames
// differ in the attributes X defines; a site is fused only where no
// consumer above can tell ([`permutable`]). One walk down the plan,
// carrying the chain of consumers above the current operator on the
// stack, decides that per site; it allocates only when it finds one.

/// The Π^D operators of `q` that become a set-mode Υ.
fn fusable_sites(q: &CompiledQuery) -> Vec<&LogicalOp> {
    let mut sites = Vec::new();
    match q {
        CompiledQuery::Sequence(plan) => {
            // The executor reads the result from `cn`.
            let end = Above { reader: Reader::Result("cn"), up: None };
            walk(plan, &end, &mut sites);
        }
        CompiledQuery::Scalar(expr) => walk_aggs(expr, &mut sites),
    }
    sites
}

/// One consumer of a stream, and the consumers of *its* output.
struct Above<'s, 'p> {
    reader: Reader<'p>,
    up: Option<&'s Above<'s, 'p>>,
}

#[derive(Clone, Copy)]
enum Reader<'p> {
    /// An operator reading its input tuples through its own attributes
    /// and subscripts; its output flows on to `up` (a semi-join's match
    /// side flows nowhere: only the predicate reads it).
    Op(&'p LogicalOp),
    /// A d-join's dependent side, seeded with every tuple: it may read
    /// any attribute anywhere in it; its output flows on to `up`.
    Seeded(&'p LogicalOp),
    /// The end of a plan: the executor or an aggregate reads this one
    /// attribute.
    Result(&'p str),
    /// The stream is one of several runs `up` reads back to back: a
    /// d-join's dependent side (one run per left tuple) or a ∪ part.
    Seam,
}

impl Above<'_, '_> {
    /// The chain from this consumer up.
    fn chain(&self) -> impl Iterator<Item = &Above<'_, '_>> {
        std::iter::successors(Some(self), |a| a.up)
    }

    /// Does this consumer read `attr`?
    fn reads(&self, attr: &str) -> bool {
        match self.reader {
            Reader::Op(op) => op.own_reads(&mut |a| a == attr),
            Reader::Seeded(plan) => plan.any_read(&mut |a| a == attr),
            Reader::Result(a) => a == attr,
            Reader::Seam => false,
        }
    }

    /// Does this consumer (re)define `attr` for the consumers above it?
    fn defines(&self, attr: &str) -> bool {
        match self.reader {
            Reader::Op(op) => op.own_attr().is_some_and(|a| a == attr),
            Reader::Seeded(plan) => plan_defines_any(plan, &mut |a| a == attr),
            Reader::Result(_) | Reader::Seam => false,
        }
    }

    /// The last consumer from this one up to `here` (exclusive) that
    /// defines `attr`: the definition `here` reads.
    fn last_definer(&self, attr: &str, here: &Above<'_, '_>) -> Option<&Above<'_, '_>> {
        self.chain()
            .take_while(|a| !std::ptr::eq(*a, here))
            .filter(|a| a.defines(attr))
            .last()
    }
}

/// May the stream `below` produces, once a Π^D
/// on `key` has dropped its repeats, reach the consumers from `above` up
/// in any order, each `key` on the frame of any of its tuples? The
/// consumers up to the first Π^D above must not
/// - read an attribute `below` defines, other than `key`, before a
///   consumer redefines it;
/// - count positions (a counter, a grouped Tmp^cs) unless each group is
///   one run whatever the order, with no seam or sort since the Π^D:
///   groups of `key` itself, or of an attribute a non-ppd step (one
///   parent per result) derives from such an attribute on the way.
///
/// That Π^D ends the check if the same holds for it, with its own key —
/// a permuted input then changes its output only in ways its consumers
/// cannot tell either.
fn permutable<'p>(
    key: &str,
    below: &'p LogicalOp,
    above: &Above<'_, 'p>,
    sites: &[&'p LogicalOp],
) -> bool {
    let mut seam = false;
    for here in above.chain() {
        let reads_below = |d: &str| here.reads(d) && above.last_definer(d, here).is_none();
        if plan_defines_any(below, &mut |d| d != key && reads_below(d)) {
            return false;
        }
        match here.reader {
            Reader::Seam | Reader::Op(LogicalOp::SortBy { .. }) => seam = true,
            Reader::Op(op @ LogicalOp::DedupBy { input, attr }) => {
                return sites.iter().any(|s| std::ptr::eq(*s, op))
                    || here.up.is_none_or(|up| permutable(attr, input, up, sites));
            }
            Reader::Op(
                LogicalOp::CounterMap { reset_on: group, .. }
                | LogicalOp::TmpCs { group: group @ Some(_), .. },
            ) => {
                let one_run = |g: &String| keyed(g, key, above, here);
                if seam || !group.as_ref().is_some_and(one_run) {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// Is `g` at `here` the attribute `key`, or derived from it by non-ppd
/// steps between the start of the chain `above` and `here`? Distinct
/// nodes have disjoint child, attribute and self results, so each such
/// `g` lies within the run of one `key`.
fn keyed(g: &str, key: &str, above: &Above<'_, '_>, here: &Above<'_, '_>) -> bool {
    match above.last_definer(g, here) {
        None => g == key,
        Some(def) => matches!(def.reader, Reader::Op(LogicalOp::UnnestMap { axis, context, .. })
            if !axis.is_ppd() && keyed(context, key, above, def)),
    }
}

/// Record the fusable sites of `op`'s subtree.
fn walk<'p>(op: &'p LogicalOp, above: &Above<'_, 'p>, sites: &mut Vec<&'p LogicalOp>) {
    use LogicalOp as L;
    if let L::DedupBy { input, attr } = op {
        if let L::UnnestMap { attr: a, axis, probe: None, .. } = &**input {
            if a == attr && axis.is_ppd() && permutable(attr, input, above, sites) {
                sites.push(op);
            }
        }
    }
    let here = Above { reader: Reader::Op(op), up: Some(above) };
    let seam = Above { reader: Reader::Seam, up: Some(above) };
    match op {
        L::Singleton => {}
        L::Select { input, pred: e }
        | L::MapExpr { input, expr: e, .. }
        | L::MemoMap { input, expr: e, .. }
        | L::TokenizeMap { input, expr: e, .. } => {
            walk_aggs(e, sites);
            walk(input, &here, sites);
        }
        L::DedupBy { input, .. }
        | L::Rename { input, .. }
        | L::CounterMap { input, .. }
        | L::UnnestMap { input, .. }
        | L::SortBy { input, .. }
        | L::TmpCs { input, .. }
        | L::MemoX { input, .. } => walk(input, &here, sites),
        L::DJoin { left, right } | L::Cross { left, right } => {
            walk(right, &seam, sites);
            let seeded = Above { reader: Reader::Seeded(right), up: Some(above) };
            walk(left, &seeded, sites);
        }
        L::SemiJoin { left, right, pred } | L::AntiJoin { left, right, pred } => {
            walk_aggs(pred, sites);
            walk(left, &here, sites);
            walk(right, &Above { reader: Reader::Op(op), up: None }, sites);
        }
        L::Concat { parts } => parts.iter().for_each(|part| walk(part, &seam, sites)),
    }
}

/// Walk the nested plans of a subscript; each ends at its aggregate.
fn walk_aggs<'p>(e: &'p ScalarExpr, sites: &mut Vec<&'p LogicalOp>) {
    match e {
        ScalarExpr::Agg(agg) => {
            let end = Above { reader: Reader::Result(&agg.over), up: None };
            walk(&agg.plan, &end, sites);
        }
        _ => e.operands().for_each(|o| walk_aggs(o, sites)),
    }
}

/// `f` over the attributes `plan` defines until it returns true. Nested
/// aggregate plans run in frames of their own, so their definitions
/// never reach `plan`'s output.
fn plan_defines_any(plan: &LogicalOp, f: &mut dyn FnMut(&str) -> bool) -> bool {
    plan.own_attr().is_some_and(|a| f(a)) || plan.inputs().any(|c| plan_defines_any(c, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TranslateOptions;
    use crate::pipeline::{compile, compile_with_stats};
    use crate::translate::translate;
    use algebra::explain::{explain, explain_scalar};
    use algebra::ProbeKind;
    use xmlstore::gen::{generate_dblp, DblpParams};
    use xmlstore::{Axis, XmlStore};
    use xpath_syntax::NodeTest;

    const FIG5: [&str; 4] = [
        "/child::xdoc/descendant::*/ancestor::*/descendant::*/attribute::id",
        "/child::xdoc/descendant::*/preceding-sibling::*/following::*/attribute::id",
        "/child::xdoc/descendant::*/ancestor::*/ancestor::*/attribute::id",
        "/child::xdoc/child::*/parent::*/descendant::*/attribute::id",
    ];

    /// The EXPLAIN text of a compiled query.
    fn explained(q: &CompiledQuery) -> String {
        match q {
            CompiledQuery::Sequence(plan) => explain(plan),
            CompiledQuery::Scalar(e) => explain_scalar(e),
        }
    }

    /// The set-mode rows of `q`'s compiled plan.
    fn set_rows(q: &CompiledQuery) -> Vec<String> {
        let text = explained(q);
        text.lines()
            .filter(|l| l.contains(" (set, "))
            .map(|l| l.trim().to_owned())
            .collect()
    }

    fn sites(q: &str, opts: &TranslateOptions) -> usize {
        set_rows(&compile(q, opts).unwrap()).len()
    }

    /// `Π^D[c2](Υ[c2:c1/descendant::*](χ[c1:root(cn)](□)))`.
    fn site() -> LogicalOp {
        let start = LogicalOp::map(
            LogicalOp::Singleton,
            "c1",
            ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
        );
        LogicalOp::dedup(
            LogicalOp::unnest_map(start, "c1", "c2", Axis::Descendant, NodeTest::Wildcard),
            "c2",
        )
    }

    fn to_cn(plan: LogicalOp, from: &str) -> CompiledQuery {
        CompiledQuery::Sequence(LogicalOp::Rename {
            input: Box::new(plan),
            from: from.into(),
            to: "cn".into(),
        })
    }

    #[test]
    fn fig5_improved_plans_fuse_eight_sites() {
        // Pruning proves the first descendant step (from the one root)
        // duplicate-free, so q1–q3 lose that Π^D before this phase runs.
        let per_query: Vec<usize> =
            FIG5.iter().map(|q| sites(q, &TranslateOptions::improved())).collect();
        assert_eq!(per_query, [2, 2, 2, 2]);
        // q4's parent step and every recursive step; never the top Π^D[cn]
        // (a Π sits between it and the last Υ).
        let q4 = set_rows(&compile(FIG5[3], &TranslateOptions::improved()).unwrap());
        let absorbed: Vec<&str> =
            q4.iter().filter_map(|l| l.split_once(" (set, ")).map(|(_, d)| d).collect();
        assert_eq!(absorbed, ["Π^D[c5])", "Π^D[c4])"]);
    }

    /// The cost pass pins a scan hint on every interval-axis Υ; set mode
    /// takes none, so EXPLAIN must not show one on a set-mode row. In
    /// `count(//author)` pruning leaves no Π^D, so the hinted Υ runs per
    /// context, as shown; below nested contexts one Π^D stays, and fuses.
    #[test]
    fn set_mode_rows_on_an_indexed_store_show_no_hint() {
        let store = generate_dblp(DblpParams { records: 50, seed: 42 });
        let stats = store.structural_index().map(|idx| idx.stats());
        let opts = TranslateOptions::cost_based();
        for (query, fused) in [("count(//author)", 0), ("count(//*/descendant::author)", 1)] {
            let (q, opt) = compile_with_stats(query, &opts, stats).unwrap();
            let opt = opt.expect("the cost pass ran");
            assert!(opt.decisions.iter().any(|d| d.rule == "scan-kernel"), "{opt:?}");
            let text = explained(&q);
            assert!(text.contains(" hint="), "`{query}`: a hint runs somewhere:\n{text}");
            let rows = set_rows(&q);
            assert_eq!(rows.len(), fused, "`{query}`: {rows:?}");
            assert!(rows.iter().all(|r| !r.contains("hint=")), "set mode takes no hint: {rows:?}");
        }
    }

    #[test]
    fn canonical_plans_never_fuse_and_the_walk_allocates_nothing() {
        let more = [
            "//a/ancestor::b",
            "/xdoc/*[descendant::c]/following::*",
            "//a | //b",
        ];
        let canonical = TranslateOptions::canonical();
        for q in FIG5.iter().chain(&more) {
            let plan = translate(&xpath_syntax::frontend(q).unwrap(), &canonical).unwrap();
            let found = fusable_sites(&plan);
            assert!(found.is_empty(), "`{q}`");
            assert_eq!(found.capacity(), 0, "`{q}`: no site, no allocation");
            assert_eq!(sites(q, &canonical), 0, "`{q}`");
        }
    }

    #[test]
    fn a_read_of_an_attribute_defined_below_the_step_blocks_fusion() {
        // χ[v:c1] above the Π^D reads the step's context attribute.
        let reads_context = LogicalOp::map(site(), "v", ScalarExpr::attr("c1"));
        assert!(fusable_sites(&to_cn(reads_context, "c2")).is_empty());
        // Reading the step's own result is fine.
        let reads_result = LogicalOp::map(site(), "v", ScalarExpr::attr("c2"));
        assert_eq!(fusable_sites(&to_cn(reads_result, "c2")).len(), 1);
        // So is a read the plan's end makes of the result alone.
        assert_eq!(fusable_sites(&to_cn(site(), "c2")).len(), 1);
        // And a read of c1 once χ[c1:0] has redefined it.
        let redefined = LogicalOp::map(site(), "c1", ScalarExpr::num(0.0));
        let reads_new = LogicalOp::map(redefined, "v", ScalarExpr::attr("c1"));
        assert_eq!(fusable_sites(&to_cn(reads_new, "c2")).len(), 1);
    }

    #[test]
    fn probes_and_operators_between_dedup_and_step_block_fusion() {
        let LogicalOp::DedupBy { input, .. } = site() else {
            unreachable!()
        };
        let with = |f: &dyn Fn(LogicalOp) -> LogicalOp| {
            fusable_sites(&to_cn(LogicalOp::dedup(f((*input).clone()), "c2"), "c2")).len()
        };
        assert_eq!(with(&|step| step), 1);
        let probed = |mut step| {
            if let LogicalOp::UnnestMap { probe, .. } = &mut step {
                *probe = Some(algebra::ProbeSpec {
                    kind: ProbeKind::Attribute,
                    name: "id".into(),
                    value: "1".into(),
                });
            }
            step
        };
        assert_eq!(with(&probed), 0, "a content-index probe");
        assert_eq!(with(&|step| LogicalOp::select(step, ScalarExpr::boolean(true))), 0, "σ");
        assert_eq!(with(&|step| counter(step, Some("c1"))), 0, "a counter");
    }

    /// `site()` under `Υ[c3:c2/axis::*]` and `above`, read out through `c3`.
    fn under(axis: Axis, above: impl FnOnce(LogicalOp) -> LogicalOp) -> usize {
        let step = LogicalOp::unnest_map(site(), "c2", "c3", axis, NodeTest::Wildcard);
        fusable_sites(&to_cn(above(step), "c3")).len()
    }

    fn counter(input: LogicalOp, reset_on: Option<&str>) -> LogicalOp {
        LogicalOp::CounterMap {
            input: Box::new(input),
            attr: "cp".into(),
            reset_on: reset_on.map(Into::into),
        }
    }

    #[test]
    fn counters_above_may_only_group_by_runs_the_order_keeps() {
        let counted = |axis, reset_on| under(axis, |step| counter(step, reset_on));
        assert_eq!(counted(Axis::Child, Some("c2")), 1, "grouped by the step's result");
        assert_eq!(counted(Axis::Parent, Some("c2")), 1, "…whatever comes after it");
        assert_eq!(counted(Axis::Child, Some("c3")), 1, "grouped by children of the result");
        assert_eq!(counted(Axis::SelfAxis, Some("c3")), 1);
        assert_eq!(counted(Axis::Child, None), 0, "one count across the permuted stream");
        // Contexts [B, A], A ⊃ {a1, B, a3}, B ⊃ {b1}: per context the
        // parents of b1, a1, B, a3 are B, A, A, A (a3 counts 3); in
        // document order a1, B, b1, a3 they are A, A, B, A (a3 counts 1).
        assert_eq!(counted(Axis::Parent, Some("c3")), 0, "parents do not form one run each");
        assert_eq!(counted(Axis::Ancestor, Some("c3")), 0);
        // Between the site and the counter, runs of c2 are broken by a
        // sort or by the seams of a d-join's dependent side.
        let sorted = |step| {
            counter(LogicalOp::SortBy { input: Box::new(step), attr: "c3".into() }, Some("c2"))
        };
        assert_eq!(under(Axis::Child, sorted), 0, "a sort");
        let start = LogicalOp::map(LogicalOp::Singleton, "c0", ScalarExpr::attr("cn"));
        let per_tuple = counter(LogicalOp::djoin(start, site()), Some("c2"));
        assert_eq!(fusable_sites(&to_cn(per_tuple, "c2")).len(), 0, "one run per left tuple");
    }

    #[test]
    fn a_dedup_above_ends_the_check_only_if_its_own_output_may_be_permuted() {
        // Π^D[c3](σ(Υ[c3:c2/ancestor::*](site))): not a site, but the
        // check for the one below stops there when Π^D[c3]'s consumers
        // read only c3 …
        let dedup =
            |step| LogicalOp::dedup(LogicalOp::select(step, ScalarExpr::boolean(true)), "c3");
        assert_eq!(under(Axis::Ancestor, dedup), 1);
        // … and fails when they read c2 (which c2 a c3 keeps depends on
        // the order c2 arrives in) or count across its output (the order
        // of c3 depends on it too).
        let reads_c2 = |step| LogicalOp::map(dedup(step), "v", ScalarExpr::attr("c2"));
        assert_eq!(under(Axis::Ancestor, reads_c2), 0);
        assert_eq!(under(Axis::Ancestor, |step| counter(dedup(step), None)), 0);
    }

    #[test]
    fn the_walk_reaches_djoin_and_semijoin_right_sides() {
        let start = LogicalOp::map(
            LogicalOp::Singleton,
            "c1",
            ScalarExpr::RootOf(Box::new(ScalarExpr::attr("cn"))),
        );
        let dependent = LogicalOp::dedup(
            LogicalOp::unnest_map(
                LogicalOp::Singleton,
                "c1",
                "c2",
                Axis::Ancestor,
                NodeTest::Wildcard,
            ),
            "c2",
        );
        let djoin = LogicalOp::djoin(start.clone(), dependent);
        assert_eq!(fusable_sites(&to_cn(djoin, "c2")).len(), 1);
        let semi = |pred_attr: &str| {
            let plan = LogicalOp::SemiJoin {
                left: Box::new(start.clone()),
                right: Box::new(site()),
                pred: ScalarExpr::attr(pred_attr),
            };
            fusable_sites(&to_cn(plan, "c1")).len()
        };
        assert_eq!(semi("c2"), 1, "the predicate reads the match side's result");
        assert_eq!(semi("c1"), 0, "…or an attribute the match side defines below the step");
    }

    /// The kernel rows of a query's compiled plan, and whether a χ^mat
    /// is left in it.
    fn kernel_rows(q: &str, opts: &TranslateOptions) -> (usize, bool) {
        let text = explained(&compile(q, opts).unwrap());
        let labels = || text.lines().map(str::trim);
        (
            labels().filter(|l| l.contains(" (kernel, ")).count(),
            labels().any(|l| l.starts_with("χ^mat")),
        )
    }

    #[test]
    fn fig10_predicate_rows_run_as_kernels() {
        const FIG10: [&str; 13] = [
            "/dblp/article/title",
            "/dblp/*/title",
            "/dblp/article[position() = 3]/title",
            "/dblp/article[position() < 100]/title",
            "/dblp/article[position() = last()]/title",
            "/dblp/article[position()=last()-10]/title",
            "/dblp/article/title | /dblp/inproceedings/title",
            "/dblp/article[count(author)=4]/@key",
            "/dblp/article[year='1991']/@key",
            "/dblp/inproceedings[year='1991']/@key",
            "/dblp/*[author='Guido Moerkotte']/@key",
            "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
            "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title",
        ];
        for opts in [TranslateOptions::canonical(), TranslateOptions::improved()] {
            for (row, q) in FIG10.iter().enumerate() {
                let want = usize::from(row >= 7);
                assert_eq!(kernel_rows(q, &opts), (want, false), "row {} `{q}` {opts:?}", row + 1);
            }
        }
        // Two kernels in one subscript; and what keeps its nested plan
        // (and so its χ^mat): a path, a descendant step, a positional
        // predicate inside, a sum, a parent step under its Π^D.
        let improved = TranslateOptions::improved();
        assert_eq!(kernel_rows("/dblp/*[year='1991' and author]/@key", &improved), (2, false));
        for q in [
            "/dblp/*[.//i='M']/@key",
            "/dblp/*[descendant::author]/@key",
            "/dblp/*[author[2]]/@key",
            "/dblp/*[sum(year) > 1990]/@key",
            "//i[parent::author='Guido Moerkotte']",
        ] {
            assert_eq!(kernel_rows(q, &improved), (0, true), "`{q}`");
        }
    }
}
