//! Navigation operators: Υ (unnest-map over an axis + node test, §3.2),
//! Υ as a lookup where a step reaches at most one node per context, and
//! the tokenising unnest used by `id()` (§3.6.3).

use std::collections::VecDeque;

use xmlstore::{
    Axis, AxisCursor, ContentKind, NodeId, NodeKind, PagePin, RangeScan, StructuralIndex,
};
use xpath_syntax::NodeTest;

use algebra::attrmgr::Slot;
use algebra::{ProbeKind, ProbeSpec, Tuple, Value};

use crate::exec::Runtime;
use crate::governor::{tuple_bytes, ChargeLedger};
use crate::iter::group::SeenSet;
use crate::iter::nodetest::ResolvedTest;
use crate::iter::{CompiledPred, Gauge, PhysIter};

/// Per-context traversal state of Υ: a compiled range scan where the
/// store's interval index covers the axis, the pointer-chasing cursor
/// otherwise.
enum Scan {
    Range(RangeScan),
    /// The operator's [`AxisCursor`] is walking this context.
    Cursor,
    /// Candidates pre-computed from the content index's postings,
    /// already axis- and test-filtered, in document order.
    Probe(std::vec::IntoIter<(u32, NodeId)>),
}

/// Where a set-mode Υ is in its evaluation (see [`SetStep`]).
#[derive(Clone, Copy, Default)]
enum Phase {
    /// Nothing drained yet this open.
    #[default]
    Drain,
    /// descendant[-or-self]: one forward pass over the kept contexts'
    /// subtree intervals, `cur..=end` being the one in progress.
    Intervals,
    /// following / preceding: one forward pass over `cur..=end`, skipping
    /// attributes and the ancestors of rank `anc_of`.
    Span { anc_of: u32 },
    /// Collect mode: emit the marked ranks from `cur` on.
    Marked,
    /// No index, or an unranked context: per-context walks, the shared
    /// seen-set dropping repeats.
    Fallback,
    /// No context: nothing to emit.
    Done,
}

/// State of a Υ that absorbed the Π^D on its own output (the physical
/// phase fuses `Π^D[a](Υ[a:c/axis::test](X))` for the nine ppd axes, DESIGN.md §12
/// "Set-at-a-time steps"): the step runs once per *context set* instead
/// of once per context, and every result node comes out once, in
/// document order, on the frame of the input's first tuple.
#[derive(Default)]
struct SetStep {
    phase: Phase,
    /// Context ranks: drained in input order, then sorted and
    /// deduplicated. Reused across opens.
    ranks: Vec<u32>,
    /// Bytes of `ranks` charged this open (4 per drained context).
    ranks_bytes: u64,
    /// Interval mode: `ranks[covered..next_ctx]` lie inside the interval
    /// in progress; `ranks[next_ctx..]` come after it.
    covered: usize,
    next_ctx: usize,
    /// The rank pass in progress: `cur..=end` (empty when `cur > end`).
    cur: u32,
    end: u32,
    /// This open's seed, to restart the input when a drain meets a
    /// context the index does not rank.
    seed: Tuple,
    /// Collect-mode marks, and the fallback's first-occurrence filter.
    seen: SeenSet,
    ledger: ChargeLedger,
    /// Statistics (all opens): context tuples drained, contexts walked
    /// or scanned after pruning, ranks visited by scans and walks, words
    /// of the largest collect-mode bitset, fallback duplicates dropped.
    contexts: u64,
    contexts_kept: u64,
    ranks_scanned: u64,
    bitset_words: u64,
    dropped: u64,
}

impl SetStep {
    /// Back to `Drain`, returning every charge (each open and close).
    fn reset(&mut self, rt: &Runtime<'_>) {
        self.phase = Phase::Drain;
        self.seen.reset();
        self.ledger.release_all(rt.gov);
        self.ranks_bytes = 0;
    }

    /// Charge 4 bytes per drained context rank, one block of 64 at a
    /// time (`flush`: the partial block at the end of the drain).
    fn charge_ranks(&mut self, rt: &Runtime<'_>, flush: bool) -> bool {
        let owed = 4 * self.ranks.len() as u64 - self.ranks_bytes;
        if owed == 0 || (!flush && owed < 256) {
            return true;
        }
        self.ranks_bytes += owed;
        self.ledger.charge(rt.gov, owed)
    }
}

/// Υ_{c:c₀/axis::test} — for each input tuple, emit one tuple per node
/// reached over the axis (in axis order) that passes the node test. The
/// axis cursor navigates the store directly — there is no intermediate
/// node materialisation (paper §5.2.2).
///
/// In set mode ([`UnnestMapIter::set_at_a_time`]) the operator also does
/// the work of the Π^D above it, one staircase pass per context set.
pub struct UnnestMapIter {
    input: Box<dyn PhysIter>,
    ctx: Slot,
    out: Slot,
    axis: Axis,
    test: NodeTest,
    /// Content-index pre-filter (`step[@a='v']` / `step[e='v']`): when
    /// the store's persistent content index covers the key, candidates
    /// come from its postings instead of an axis scan. A lossless
    /// narrowing — the predicate above still verifies every candidate.
    probe: Option<ProbeSpec>,
    /// The probe's postings, fetched once per execution: outer `None` =
    /// not yet fetched, inner `None` = the store cannot answer for this
    /// key (no content index, uncovered name, over-length value) and
    /// every context falls back to the plain scan.
    postings: Option<Option<Vec<(u32, NodeId)>>>,
    resolved: Option<ResolvedTest>,
    /// The input tuple whose axis is being walked: the input fills it,
    /// every output is a copy of it plus the step's node.
    frame: Tuple,
    /// The walk over `frame`'s context node; `None` between contexts.
    scan: Option<Scan>,
    /// The one cursor behind every `Scan::Cursor` of this operator,
    /// re-aimed per context so the page it holds carries over; let go in
    /// `close`.
    cursor: AxisCursor,
    /// Set mode's state; `None` for the per-context Υ.
    set: Option<Box<SetStep>>,
    /// Walk each context's children from the last one back (a child step
    /// under a tail window, [`UnnestMapIter::reversed`]).
    reverse: bool,
    /// Statistics: context nodes (set mode: kept contexts) served by an
    /// interval range scan.
    pub range_scans: u64,
    /// Statistics: context nodes on an interval axis that fell back to
    /// the cursor (store without an index, or unranked node).
    pub cursor_fallbacks: u64,
    /// Statistics: context nodes served by a content-index probe.
    pub index_probes: u64,
    /// Statistics: postings examined across all probe windows.
    pub probe_postings: u64,
}

impl UnnestMapIter {
    /// New unnest-map.
    pub fn new(
        input: Box<dyn PhysIter>,
        ctx: Slot,
        out: Slot,
        axis: Axis,
        test: NodeTest,
        probe: Option<ProbeSpec>,
    ) -> UnnestMapIter {
        UnnestMapIter {
            input,
            ctx,
            out,
            axis,
            test,
            probe,
            postings: None,
            resolved: None,
            frame: Tuple::new(),
            scan: None,
            cursor: AxisCursor::default(),
            set: None,
            reverse: false,
            range_scans: 0,
            cursor_fallbacks: 0,
            index_probes: 0,
            probe_postings: 0,
        }
    }

    /// Υ in set mode: `Π^D[out](Υ[out:ctx/axis::test](input))` as one
    /// operator. Output: each node the axis reaches from any context
    /// once, in ascending document order where the store's index ranks
    /// every context, on the frame of the input's first tuple — so only
    /// plans that read no attribute defined below the step may use it
    /// (the compiler's physical phase decides, DESIGN.md §12).
    pub fn set_at_a_time(
        input: Box<dyn PhysIter>,
        ctx: Slot,
        out: Slot,
        axis: Axis,
        test: NodeTest,
    ) -> UnnestMapIter {
        UnnestMapIter {
            set: Some(Box::default()),
            ..UnnestMapIter::new(input, ctx, out, axis, test, None)
        }
    }

    /// This per-context child step, walking each context's children in
    /// reverse document order (the physical phase reverses the step
    /// under a tail window, DESIGN.md §12 "Positional windows").
    pub fn reversed(self) -> UnnestMapIter {
        debug_assert!(self.axis == Axis::Child && self.set.is_none());
        UnnestMapIter { reverse: true, ..self }
    }

    /// Set mode, first `next` of an open: drain the input's context
    /// nodes into the rank vector (tuples after the first pass through
    /// `scratch`), then prepare the pass this axis takes. `false`: the
    /// governor stopped the drain.
    fn drain(&mut self, rt: &Runtime<'_>, scratch: &mut Tuple) -> bool {
        let set = self.set.as_deref_mut().expect("set mode");
        let Some(idx) = rt.store.structural_index() else {
            set.phase = Phase::Fallback;
            return true;
        };
        set.ranks.clear();
        let mut first = true;
        loop {
            if !rt.gov.tick() {
                return false;
            }
            // The first tuple is the frame every output is built on.
            let tuple = if first {
                &mut self.frame
            } else {
                &mut *scratch
            };
            if !self.input.next(rt, tuple) {
                break;
            }
            first = false;
            set.contexts += 1;
            let Some(node) = tuple.get(self.ctx).and_then(|v| v.as_node()) else {
                continue; // unbound context yields nothing
            };
            let Some(rank) = idx.rank_of(node) else {
                // Start over, one context at a time.
                self.input.close(rt);
                self.input.open(rt, &set.seed);
                set.phase = Phase::Fallback;
                return true;
            };
            set.ranks.push(rank);
            if !set.charge_ranks(rt, false) {
                return false;
            }
        }
        if !set.charge_ranks(rt, true) {
            return false;
        }
        set.ranks.sort_unstable();
        set.ranks.dedup();
        let Some(&hi) = set.ranks.last() else {
            set.phase = Phase::Done;
            return true;
        };
        if !self.axis.is_interval() {
            return self.collect(rt, idx);
        }
        (set.cur, set.end) = (1, 0);
        set.phase = match self.axis {
            Axis::Descendant | Axis::DescendantOrSelf => {
                set.next_ctx = 0;
                Phase::Intervals
            }
            // following(c) = every non-attribute rank after c's subtree,
            // so the union is everything after the earliest subtree end.
            Axis::Following => {
                let end = set.ranks.iter().map(|&r| r + idx.size_at(r)).fold(u32::MAX, u32::min);
                (set.cur, set.end) = (end + 1, (idx.len() - 1) as u32);
                set.contexts_kept += 1;
                self.range_scans += 1;
                Phase::Span { anc_of: u32::MAX }
            }
            // Preceding: preceding(c) ⊆ preceding(m) for every c ≤ m, as a
            // rank whose subtree ends before c ends before m.
            _ => {
                if hi > 0 {
                    (set.cur, set.end) = (0, hi - 1);
                }
                set.contexts_kept += 1;
                self.range_scans += 1;
                Phase::Span { anc_of: hi }
            }
        };
        true
    }

    /// Collect mode (ancestor[-or-self], parent, the sibling axes): one
    /// cursor walk per kept context marks the rank bitset; the marks are
    /// emitted afterwards in rank order. A walk that reaches a marked
    /// node stops: an earlier walk went on from there.
    fn collect(&mut self, rt: &Runtime<'_>, idx: &StructuralIndex) -> bool {
        let set = self.set.as_deref_mut().expect("set mode");
        if !set.seen.arm(idx.len(), &mut set.ledger, rt.gov) {
            return false;
        }
        set.bitset_words = set.bitset_words.max(set.seen.words() as u64);
        let n = set.ranks.len();
        // Sibling walks run from the first context per parent
        // (following-sibling, ascending) or the last (preceding-sibling,
        // descending).
        let descending = self.axis == Axis::PrecedingSibling;
        for i in 0..n {
            let c = set.ranks[if descending { n - 1 - i } else { i }];
            match self.axis {
                Axis::FollowingSibling | Axis::PrecedingSibling if set.seen.is_marked(c) => {
                    continue; // an earlier walk from a sibling passed here
                }
                Axis::AncestorOrSelf if !set.seen.mark(c) => continue,
                _ => {}
            }
            set.contexts_kept += 1;
            let axis = if self.axis == Axis::AncestorOrSelf {
                Axis::Ancestor // self is marked above
            } else {
                self.axis
            };
            self.cursor.start(rt.store, axis, idx.node_at(c));
            while let Some(node) = self.cursor.advance(rt.store) {
                set.ranks_scanned += 1;
                if !rt.gov.tick() {
                    return false;
                }
                // Every node a walk reaches from a ranked context is
                // ranked in an intact store.
                let Some(rank) = idx.rank_of(node) else {
                    continue;
                };
                if !set.seen.mark(rank) {
                    break;
                }
            }
        }
        // The bitset holds the contexts' work now.
        set.ledger.release(rt.gov, set.ranks_bytes);
        set.ranks_bytes = 0;
        set.phase = Phase::Marked;
        set.cur = 0;
        true
    }

    /// Set mode after the drain: the next result rank, or `None` when the
    /// pass is over (or the governor tripped).
    fn next_rank(&mut self, rt: &Runtime<'_>, idx: &StructuralIndex) -> Option<u32> {
        let set = self.set.as_deref_mut().expect("set mode");
        let dos = self.axis == Axis::DescendantOrSelf;
        loop {
            match set.phase {
                Phase::Intervals => {
                    if set.cur > set.end {
                        // The next uncovered context opens an interval
                        // that swallows every context inside it.
                        let &c = set.ranks.get(set.next_ctx)?;
                        let end = c + idx.size_at(c);
                        set.covered = set.next_ctx + 1;
                        set.next_ctx =
                            set.covered + set.ranks[set.covered..].partition_point(|&r| r <= end);
                        set.contexts_kept += 1;
                        self.range_scans += 1;
                        (set.cur, set.end) = (c + 1, end);
                        if dos {
                            return Some(c);
                        }
                        continue;
                    }
                    let r = set.cur;
                    set.cur += 1;
                    set.ranks_scanned += 1;
                    if !rt.gov.tick() {
                        return None;
                    }
                    if idx.kind_at(r) != NodeKind::Attribute {
                        return Some(r);
                    }
                    // Attributes are not descendants, but an attribute
                    // context is its own descendant-or-self.
                    if dos && set.ranks[set.covered..set.next_ctx].binary_search(&r).is_ok() {
                        return Some(r);
                    }
                }
                Phase::Span { anc_of } => {
                    if set.cur > set.end {
                        return None;
                    }
                    let r = set.cur;
                    set.cur += 1;
                    set.ranks_scanned += 1;
                    if !rt.gov.tick() {
                        return None;
                    }
                    // `r < anc_of` always; its subtree reaching `anc_of`
                    // makes it an ancestor (never so for `u32::MAX`).
                    if idx.kind_at(r) != NodeKind::Attribute && r + idx.size_at(r) < anc_of {
                        return Some(r);
                    }
                }
                Phase::Marked => {
                    let r = set.seen.next_marked(set.cur)?;
                    set.cur = r + 1;
                    if !rt.gov.tick() {
                        return None;
                    }
                    return Some(r);
                }
                Phase::Drain | Phase::Fallback | Phase::Done => return None,
            }
        }
    }
}

impl PhysIter for UnnestMapIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.scan = None;
        if self.resolved.is_none() {
            self.resolved = Some(ResolvedTest::resolve(&self.test, self.axis, rt));
        }
        if let Some(set) = &mut self.set {
            set.reset(rt);
            set.seed.clone_from(seed);
        }
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        let Some(set) = &self.set else {
            return self.next_per_context(rt, out);
        };
        if matches!(self.resolved, Some(ResolvedTest::Impossible)) {
            return false;
        }
        if matches!(set.phase, Phase::Drain) && !self.drain(rt, out) {
            return false;
        }
        if matches!(self.set.as_deref().map(|set| set.phase), Some(Phase::Fallback)) {
            // Υ + Π^D: the per-context walks, through the seen-set.
            let idx = rt.store.structural_index();
            while self.next_per_context(rt, out) {
                let set = self.set.as_deref_mut().expect("set mode");
                match set.seen.insert(&out[self.out], idx, &mut set.ledger, rt) {
                    Some(true) => return true,
                    Some(false) => set.dropped += 1,
                    None => return false,
                }
            }
            return false;
        }
        let idx = rt.store.structural_index().expect("only the fallback runs without an index");
        while let Some(rank) = self.next_rank(rt, idx) {
            if self.resolved.as_ref().expect("opened").matches_rank(rank, idx, rt) {
                out.clone_from(&self.frame);
                out[self.out] = Value::Node(idx.node_at(rank));
                return true;
            }
        }
        false
    }

    fn skip_group(&mut self) {
        // Per context only: a set-mode Υ's output has no context groups.
        if self.set.is_none() {
            self.scan = None;
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.scan = None;
        self.cursor.release();
        if let Some(set) = &mut self.set {
            set.reset(rt);
        }
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("range_scans", self.range_scans));
        out.push(("cursor_fallbacks", self.cursor_fallbacks));
        out.push(("index_probes", self.index_probes));
        out.push(("probe_postings", self.probe_postings));
        if let Some(set) = &self.set {
            out.push(("contexts", set.contexts));
            out.push(("contexts_kept", set.contexts_kept));
            out.push(("ranks_scanned", set.ranks_scanned));
            out.push(("bitset_words", set.bitset_words));
            out.push(("dup_dropped", set.dropped));
            out.push(("bitset_keys", set.seen.bitset_keys));
            out.push(("hash_keys", set.seen.hash_keys));
            set.ledger.gauges(out);
        }
    }
}

impl UnnestMapIter {
    /// The per-context Υ: walk each input tuple's context in axis order.
    /// A set-mode Υ that falls back comes here too.
    fn next_per_context(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        let resolved = self.resolved.as_ref().expect("opened");
        if matches!(resolved, ResolvedTest::Impossible) {
            return false;
        }
        loop {
            if let Some(scan) = &mut self.scan {
                // The axis scan is the engine's innermost unbounded loop:
                // tick per advance so deadlines and cancellation are
                // observed even when nothing matches the node test.
                let mut found = None;
                match scan {
                    Scan::Range(range) => {
                        // One virtual call per output tuple, not per hop:
                        // the scan loop itself is pure rank arithmetic.
                        let idx = rt.store.structural_index().expect("scan implies index");
                        while rt.gov.tick() {
                            let Some(rank) = range.advance(idx) else {
                                break;
                            };
                            if resolved.matches_rank(rank, idx, rt) {
                                found = Some(idx.node_at(rank));
                                break;
                            }
                        }
                    }
                    Scan::Cursor => {
                        while rt.gov.tick() {
                            let Some(n) = self.cursor.advance(rt.store) else {
                                break;
                            };
                            if resolved.matches(self.cursor.kind(), self.cursor.name(), rt) {
                                found = Some(n);
                                break;
                            }
                        }
                    }
                    Scan::Probe(cands) => {
                        // Candidates are already axis- and test-filtered,
                        // so every advance emits: tick per output tuple.
                        if rt.gov.tick() {
                            found = cands.next().map(|(_, n)| n);
                        }
                    }
                }
                if let Some(n) = found {
                    out.clone_from(&self.frame);
                    out[self.out] = Value::Node(n);
                    return true;
                }
                if !rt.gov.ok() {
                    return false;
                }
                self.scan = None;
            }
            if !self.input.next(rt, &mut self.frame) {
                return false;
            }
            let Some(node) = self.frame.get(self.ctx).and_then(|v| v.as_node()) else {
                continue; // unbound context yields nothing
            };
            // A probe annotation takes precedence over either scan
            // kernel: the candidates come straight from the content
            // index's postings clipped to the context's subtree window.
            if let Some(spec) = &self.probe {
                if self.postings.is_none() {
                    let kind = match spec.kind {
                        ProbeKind::Attribute => ContentKind::Attribute,
                        ProbeKind::Element => ContentKind::Element,
                    };
                    self.postings = Some(rt.store.content_probe(kind, &spec.name, &spec.value));
                }
                if let Some(Some(post)) = &self.postings {
                    if let Some(mut cands) = probe_window(
                        rt,
                        post,
                        spec.kind,
                        self.axis,
                        node,
                        resolved,
                        &mut self.probe_postings,
                    ) {
                        self.index_probes += 1;
                        if self.reverse {
                            cands.reverse();
                        }
                        self.scan = Some(Scan::Probe(cands.into_iter()));
                        continue;
                    }
                }
            }
            let probed =
                rt.store.structural_index().and_then(|idx| idx.range_scan(self.axis, node));
            let scan = match probed {
                Some(range) => {
                    self.range_scans += 1;
                    Scan::Range(range)
                }
                // Child steps take no range scan: a reversed one starts
                // here, at the context's last child.
                None if self.reverse => {
                    self.cursor.start_children_reversed(rt.store, node);
                    Scan::Cursor
                }
                None => {
                    if self.axis.is_interval() {
                        self.cursor_fallbacks += 1;
                    }
                    self.cursor.start(rt.store, self.axis, node);
                    Scan::Cursor
                }
            };
            self.scan = Some(scan);
        }
    }
}

/// Υ as a lookup (the physical phase decides, DESIGN.md §12 "Lookup
/// steps"): a per-context step on an axis that reaches at most one node
/// from each context — `attribute::QName`, `parent::test`, `self::test`.
/// Each input tuple arrives straight in `out`; one lookup in the store
/// finds its node, which goes into the step's slot in place, and a
/// context without one drops the tuple. No scan state and no frame of
/// its own. Records are read through [`xmlstore::XmlStore::node`] on a
/// held page, as the axis cursor reads them, so a paged store pays one
/// buffer-manager call per page change.
pub struct LookupIter {
    input: Box<dyn PhysIter>,
    ctx: Slot,
    out: Slot,
    axis: Axis,
    test: NodeTest,
    resolved: Option<ResolvedTest>,
    /// The page of the record read last, let go in `close`.
    pin: PagePin,
}

impl LookupIter {
    /// New lookup; `axis` is `attribute` (with a name test), `parent` or
    /// `self`.
    pub fn new(
        input: Box<dyn PhysIter>,
        ctx: Slot,
        out: Slot,
        axis: Axis,
        test: NodeTest,
    ) -> LookupIter {
        debug_assert!(matches!(
            (axis, &test),
            (Axis::Parent | Axis::SelfAxis, _) | (Axis::Attribute, NodeTest::Name(_))
        ));
        LookupIter {
            input,
            ctx,
            out,
            axis,
            test,
            resolved: None,
            pin: PagePin::default(),
        }
    }

    /// The node the step reaches from `n`, if it passes the test.
    fn find(&mut self, rt: &Runtime<'_>, n: NodeId) -> Option<NodeId> {
        let (store, pin) = (rt.store, &mut self.pin);
        let resolved = self.resolved.as_ref().expect("opened");
        let rec = store.node(n, pin);
        let (hit, rec) = match self.axis {
            Axis::SelfAxis => (n, rec),
            Axis::Parent => {
                let p = rec.parent()?;
                (p, store.node(p, pin))
            }
            _ => {
                // The element's attributes, up to the one of the test's
                // name: no other carries it.
                if rec.kind() != NodeKind::Element {
                    return None;
                }
                let mut next = rec.first_attribute();
                while let Some(a) = next {
                    let rec = store.node(a, pin);
                    if resolved.matches(rec.kind(), rec.name(), rt) {
                        return Some(a);
                    }
                    next = rec.next_sibling();
                }
                return None;
            }
        };
        resolved.matches(rec.kind(), rec.name(), rt).then_some(hit)
    }
}

impl PhysIter for LookupIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        if self.resolved.is_none() {
            self.resolved = Some(ResolvedTest::resolve(&self.test, self.axis, rt));
        }
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if matches!(self.resolved, Some(ResolvedTest::Impossible)) {
            return false;
        }
        while self.input.next(rt, out) {
            // One tick per context, as for a scan that finds nothing.
            if !rt.gov.tick() {
                return false;
            }
            let Some(n) = out.get(self.ctx).and_then(|v| v.as_node()) else {
                continue; // unbound context yields nothing
            };
            if let Some(hit) = self.find(rt, n) {
                out[self.out] = Value::Node(hit);
                return true;
            }
        }
        false
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.pin.release();
    }
}

/// Compute one context's probe candidates: clip the rank-sorted
/// postings to the context's subtree window, map element postings to
/// their parent (the step's candidate), then keep only candidates that
/// actually lie on the axis and pass the node test. `None` when the
/// store has no structural index or the context is unranked — the
/// caller falls back to the plain scan kernels.
fn probe_window(
    rt: &Runtime<'_>,
    postings: &[(u32, NodeId)],
    kind: ProbeKind,
    axis: Axis,
    ctx: NodeId,
    resolved: &ResolvedTest,
    examined: &mut u64,
) -> Option<Vec<(u32, NodeId)>> {
    let idx = rt.store.structural_index()?;
    let (lo, hi) = idx.subtree_range(ctx)?;
    let start = postings.partition_point(|&(r, _)| r < lo);
    let end = postings.partition_point(|&(r, _)| r <= hi);
    let window = &postings[start..end];
    *examined += window.len() as u64;
    // Attribute postings carry the owning element; element postings
    // carry the value-matching element, whose parent is the candidate.
    let mut cands: Vec<(u32, NodeId)> = match kind {
        ProbeKind::Attribute => window.to_vec(),
        ProbeKind::Element => {
            let mut parents = Vec::with_capacity(window.len());
            for &(_, n) in window {
                if let Some(p) = rt.store.parent(n) {
                    if let Some(pr) = idx.rank_of(p) {
                        parents.push((pr, p));
                    }
                }
            }
            parents.sort_unstable_by_key(|&(r, _)| r);
            parents.dedup_by_key(|&mut (r, _)| r);
            parents
        }
    };
    cands.retain(|&(r, n)| {
        let on_axis = match axis {
            Axis::Child => rt.store.parent(n) == Some(ctx),
            Axis::Descendant => r > lo,
            Axis::DescendantOrSelf => true,
            // The optimizer only annotates the three axes above.
            _ => false,
        };
        on_axis && resolved.matches_rank(r, idx, rt)
    });
    Some(cands)
}

/// Υ_{t:tokenize(e)} — one tuple per whitespace-separated token of the
/// string subscript (`id()` support, §3.6.3).
pub struct TokenizeIter {
    input: Box<dyn PhysIter>,
    out: Slot,
    expr: CompiledPred,
    /// The input tuple being tokenised.
    frame: Tuple,
    pending: VecDeque<Tuple>,
    ledger: ChargeLedger,
}

impl TokenizeIter {
    /// New tokenizer.
    pub fn new(input: Box<dyn PhysIter>, out: Slot, expr: CompiledPred) -> TokenizeIter {
        TokenizeIter {
            input,
            out,
            expr,
            frame: Tuple::new(),
            pending: VecDeque::new(),
            ledger: ChargeLedger::new(),
        }
    }
}

impl PhysIter for TokenizeIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.pending.clear();
        self.ledger.release_all(rt.gov);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        loop {
            if !rt.gov.tick() {
                return false;
            }
            if let Some(t) = self.pending.pop_front() {
                self.ledger.release(rt.gov, tuple_bytes(&t));
                *out = t;
                return true;
            }
            if !self.input.next(rt, &mut self.frame) {
                return false;
            }
            let s = self.expr.eval(rt, &self.frame);
            for token in s.as_str(rt.store).split_ascii_whitespace() {
                let mut t = self.frame.clone();
                t[self.out] = Value::Str(token.into());
                if !self.ledger.charge_tuple(rt.gov, &t) {
                    return false;
                }
                self.pending.push_back(t);
            }
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.expr.release();
        self.pending.clear();
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        self.ledger.gauges(out);
    }
}
