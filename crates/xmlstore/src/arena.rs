//! In-memory arena document store.
//!
//! Nodes live in one contiguous `Vec`; links are indices. Document order is
//! assigned while building (the builder runs in document order by
//! construction) so order comparison is a single integer compare.
//!
//! Order keys are *sparse*: a fresh build stamps node `i` with
//! `i << ORDER_GAP_SHIFT`, leaving a gap of `2^20` keys between adjacent
//! nodes. Structural updates then allocate midpoint keys inside the gap
//! instead of renumbering the document — the incremental repair path
//! (DESIGN.md §18). Each midpoint split halves the local gap, so ~20
//! pathological same-spot inserts exhaust it; the repair then relabels the
//! smallest enclosing element subtree with fresh strides, escalating up
//! the ancestor chain, and falls back to a full key renumber (counted in
//! [`RepairStats::full_renumbers`]) only when even the root interval is
//! dense.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use crate::fault::RepairFailPoint;
use crate::index::StructuralIndex;
use crate::node::{NameId, NodeId, NodeKind};
use crate::store::{NodeRec, PagePin, XmlStore, NIL};
use crate::update::{RepairMode, RepairStats, UpdateError};

/// log2 of the key gap left between adjacent nodes by a full (re)build.
pub const ORDER_GAP_SHIFT: u32 = 20;
/// The key gap itself.
pub(crate) const ORDER_GAP: u64 = 1 << ORDER_GAP_SHIFT;
/// A subtree relabel only claims an interval when it can hand every node
/// at least this much headroom; thinner intervals escalate to the parent.
const RELABEL_MIN_STRIDE: u64 = 1 << 10;

#[derive(Clone, Debug)]
struct NodeData {
    kind: NodeKind,
    name: u32, // NameId or NIL
    value: Option<Box<str>>,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    prev_sibling: u32,
    first_attr: u32,
    last_attr: u32,
    order: u64,
}

impl NodeData {
    fn new(kind: NodeKind, order: u64) -> NodeData {
        NodeData {
            kind,
            name: NIL,
            value: None,
            parent: NIL,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            prev_sibling: NIL,
            first_attr: NIL,
            last_attr: NIL,
            order,
        }
    }
}

/// Interning name dictionary shared by builder and store.
#[derive(Default, Clone, Debug)]
pub struct NameTable {
    map: HashMap<Box<str>, NameId>,
    names: Vec<Box<str>>,
}

impl NameTable {
    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.into());
        self.map.insert(name.into(), id);
        id
    }

    /// Look up without interning.
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.map.get(name).copied()
    }

    /// Resolve an id back to text. Panics on foreign ids.
    pub fn text(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names were interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate names in id order (used by the disk serializer).
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|s| s.as_ref())
    }
}

/// Completed, immutable in-memory document.
#[derive(Clone, Debug)]
pub struct ArenaStore {
    nodes: Vec<NodeData>,
    names: NameTable,
    id_index: HashMap<Box<str>, NodeId>,
    index: StructuralIndex,
    repair_mode: RepairMode,
    repair_stats: RepairStats,
    /// Incremental repairs attempted since the failpoint was armed.
    repair_attempts: u64,
    repair_failpoint: RepairFailPoint,
    /// Derived on the first incremental repair; `None` until then and
    /// after a `renumber`.
    book: Option<RepairBook>,
}

/// What keeps removal and move repairs free of whole-document scans.
#[derive(Clone, Debug, Default)]
struct RepairBook {
    /// `depth_counts[d]`: ranked nodes at depth `d` (the document node is
    /// depth 0), without trailing zeros, so the last index is the
    /// statistics' `max_depth`.
    depth_counts: Vec<u64>,
    /// `id` values that have, or had, more than one owning attribute.
    /// Any other value has exactly one owner, so its id-index entry
    /// needs no document-order rescan when that owner leaves or moves.
    shared_ids: HashSet<Box<str>>,
}

impl RepairBook {
    /// Add `rel_counts[i]` nodes at depth `base + i` (remove them when
    /// `remove`), then drop the empty depths at the bottom.
    fn shift(&mut self, base: u32, rel_counts: &[u64], remove: bool) {
        let base = base as usize;
        if self.depth_counts.len() < base + rel_counts.len() {
            self.depth_counts.resize(base + rel_counts.len(), 0);
        }
        for (i, &c) in rel_counts.iter().enumerate() {
            let slot = &mut self.depth_counts[base + i];
            if remove {
                assert!(
                    *slot >= c,
                    "depth histogram holds no node to remove at depth {}",
                    base + i
                );
                *slot -= c;
            } else {
                *slot += c;
            }
        }
        while self.depth_counts.last() == Some(&0) {
            self.depth_counts.pop();
        }
    }

    fn max_depth(&self) -> u32 {
        self.depth_counts.len().saturating_sub(1) as u32
    }
}

impl ArenaStore {
    /// Access to the name dictionary (used by the disk serializer).
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// How structural updates maintain the index (incremental by default).
    pub fn repair_mode(&self) -> RepairMode {
        self.repair_mode
    }

    /// Switch between incremental repair and full renumbering. The two
    /// modes produce identical stores (the differential tests assert it);
    /// `FullRenumber` exists for benchmarking and as a safety valve.
    pub fn set_repair_mode(&mut self, mode: RepairMode) {
        self.repair_mode = mode;
    }

    /// Counters of how updates were absorbed since the store was built.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair_stats
    }

    /// Number of `id` values the repair book treats as shared (`None`
    /// before the first incremental repair derives the book).
    #[cfg(test)]
    pub(crate) fn shared_id_count(&self) -> Option<usize> {
        self.book.as_ref().map(|b| b.shared_ids.len())
    }

    /// Arm (or clear) deterministic repair-abort injection. Repairs are
    /// counted from here on, and only while a failpoint is armed.
    pub fn set_repair_failpoint(&mut self, fp: RepairFailPoint) {
        self.repair_failpoint = fp;
        self.repair_attempts = 0;
    }

    #[inline]
    fn data(&self, n: NodeId) -> &NodeData {
        &self.nodes[n.index()]
    }

    fn opt(v: u32) -> Option<NodeId> {
        (v != NIL).then_some(NodeId(v))
    }

    // ----- update support (see crate::update for the public API) ---------

    pub(crate) fn set_value_raw(&mut self, n: NodeId, content: &str) {
        self.nodes[n.index()].value = Some(content.into());
    }

    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    fn push_node(&mut self, kind: NodeKind, name: Option<NameId>, value: Option<&str>) -> u32 {
        let mut data = NodeData::new(kind, 0);
        data.name = name.map_or(NIL, |x| x.0);
        data.value = value.map(Into::into);
        let idx = self.nodes.len() as u32;
        // Grow by a sixteenth, not by doubling: write batches keep and
        // reuse whole stores (the engine's retained snapshots), so a
        // doubled node array would be carried by every one of them.
        if self.nodes.len() == self.nodes.capacity() {
            self.nodes.reserve_exact(self.nodes.len() / 16 + 16);
        }
        self.nodes.push(data);
        idx
    }

    pub(crate) fn alloc_attribute(&mut self, owner: NodeId, name: NameId, value: &str) -> NodeId {
        let idx = self.push_node(NodeKind::Attribute, Some(name), Some(value));
        self.nodes[idx as usize].parent = owner.0;
        let o = &mut self.nodes[owner.index()];
        if o.first_attr == NIL {
            o.first_attr = idx;
        } else {
            let last = o.last_attr;
            self.nodes[last as usize].next_sibling = idx;
            self.nodes[idx as usize].prev_sibling = last;
        }
        self.nodes[owner.index()].last_attr = idx;
        NodeId(idx)
    }

    pub(crate) fn alloc_child(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        name: Option<NameId>,
        value: Option<&str>,
    ) -> NodeId {
        let idx = self.push_node(kind, name, value);
        self.nodes[idx as usize].parent = parent.0;
        let p = &mut self.nodes[parent.index()];
        if p.first_child == NIL {
            p.first_child = idx;
        } else {
            let last = p.last_child;
            self.nodes[last as usize].next_sibling = idx;
            self.nodes[idx as usize].prev_sibling = last;
        }
        self.nodes[parent.index()].last_child = idx;
        NodeId(idx)
    }

    pub(crate) fn alloc_before(
        &mut self,
        parent: NodeId,
        sibling: NodeId,
        kind: NodeKind,
        name: Option<NameId>,
        value: Option<&str>,
    ) -> NodeId {
        let idx = self.push_node(kind, name, value);
        self.nodes[idx as usize].parent = parent.0;
        let prev = self.nodes[sibling.index()].prev_sibling;
        self.nodes[idx as usize].next_sibling = sibling.0;
        self.nodes[idx as usize].prev_sibling = prev;
        self.nodes[sibling.index()].prev_sibling = idx;
        if prev == NIL {
            self.nodes[parent.index()].first_child = idx;
        } else {
            self.nodes[prev as usize].next_sibling = idx;
        }
        NodeId(idx)
    }

    pub(crate) fn unlink(&mut self, n: NodeId) {
        let (parent, prev, next) = {
            let d = self.data(n);
            (d.parent, d.prev_sibling, d.next_sibling)
        };
        if prev != NIL {
            self.nodes[prev as usize].next_sibling = next;
        } else if parent != NIL {
            self.nodes[parent as usize].first_child = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sibling = prev;
        } else if parent != NIL {
            self.nodes[parent as usize].last_child = prev;
        }
        let d = &mut self.nodes[n.index()];
        d.parent = NIL;
        d.prev_sibling = NIL;
        d.next_sibling = NIL;
    }

    pub(crate) fn unlink_attribute(&mut self, owner: NodeId, attr: NodeId) {
        let (prev, next) = {
            let d = self.data(attr);
            (d.prev_sibling, d.next_sibling)
        };
        if prev != NIL {
            self.nodes[prev as usize].next_sibling = next;
        } else {
            self.nodes[owner.index()].first_attr = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sibling = prev;
        } else {
            self.nodes[owner.index()].last_attr = prev;
        }
        let d = &mut self.nodes[attr.index()];
        d.parent = NIL;
        d.prev_sibling = NIL;
        d.next_sibling = NIL;
    }

    /// Re-derive document order with a pre-order pass over the reachable
    /// tree (attributes right after their element), and rebuild the ID
    /// index so removed elements no longer resolve.
    pub(crate) fn renumber(&mut self) {
        let id_name = self.names.lookup("id");
        let mut seq = 0u64;
        let mut id_index = HashMap::new();
        // Iterative pre-order walk.
        let mut stack: Vec<u32> = vec![0];
        while let Some(idx) = stack.pop() {
            self.nodes[idx as usize].order = seq << ORDER_GAP_SHIFT;
            seq += 1;
            // Attributes directly after the element.
            let mut a = self.nodes[idx as usize].first_attr;
            while a != NIL {
                self.nodes[a as usize].order = seq << ORDER_GAP_SHIFT;
                seq += 1;
                if let Some(id_name) = id_name {
                    if self.nodes[a as usize].name == id_name.0 {
                        if let Some(v) = self.nodes[a as usize].value.clone() {
                            id_index.entry(v).or_insert(NodeId(idx));
                        }
                    }
                }
                a = self.nodes[a as usize].next_sibling;
            }
            // Children pushed in reverse so the leftmost pops first.
            let mut kids = Vec::new();
            let mut c = self.nodes[idx as usize].first_child;
            while c != NIL {
                kids.push(c);
                c = self.nodes[c as usize].next_sibling;
            }
            for &k in kids.iter().rev() {
                stack.push(k);
            }
        }
        self.id_index = id_index;
        // Structural updates invalidate every interval: re-derive the
        // index from the renumbered tree (tombstones stay unranked).
        self.index = StructuralIndex::build(&*self);
        self.book = None;
    }

    // ----- incremental repair (DESIGN.md §18) -----------------------------
    //
    // Every public update op in `crate::update` ends in one of the three
    // `repair_*` entry points below. In `RepairMode::FullRenumber` they
    // defer to `renumber()`; in the default incremental mode they splice
    // the structural index, adjust ancestor sizes and statistics exactly,
    // allocate a sparse order key from the local gap, and patch the id
    // index — all O(touched + tail-shift) with no tree walk.
    //
    // On an injected `RepairAborted` the store's index is *undefined*;
    // callers (the engine's `WriteBatch`) must discard the store. That is
    // the point: atomicity lives at the snapshot layer, not here.

    /// Count a repair attempt against an armed failpoint, honoring the
    /// injected abort point.
    fn note_repair_attempt(&mut self) -> Result<(), UpdateError> {
        let Some(at) = self.repair_failpoint.fail_repair_at else {
            return Ok(());
        };
        self.repair_attempts += 1;
        if self.repair_attempts == at {
            return Err(UpdateError::RepairAborted);
        }
        Ok(())
    }

    /// The repair book, derived the first time a store needs it (parse
    /// and build never pay for it). Repairs call this before they touch
    /// the index, so the book describes the index they start from.
    fn book(&mut self) -> &mut RepairBook {
        let book = self.book.take().unwrap_or_else(|| self.derive_book());
        self.book.insert(book)
    }

    /// One pass over the index: nodes per depth, and the `id` values
    /// more than one attribute carries.
    fn derive_book(&self) -> RepairBook {
        let id_name = self.names.lookup("id").map(|i| i.0);
        let mut book = RepairBook::default();
        let mut owners: HashMap<&str, u32> = HashMap::new();
        let mut ends: Vec<u32> = Vec::new();
        for r in 0..self.index.len() as u32 {
            while ends.last().is_some_and(|&e| r > e) {
                ends.pop();
            }
            let depth = ends.len();
            if book.depth_counts.len() <= depth {
                book.depth_counts.resize(depth + 1, 0);
            }
            book.depth_counts[depth] += 1;
            ends.push(r + self.index.size_at(r));
            if self.index.kind_at(r) == NodeKind::Attribute
                && id_name.is_some()
                && self.index.name_at(r).map(|n| n.0) == id_name
            {
                if let Some(v) = self.nodes[self.index.node_at(r).index()].value.as_deref() {
                    *owners.entry(v).or_insert(0) += 1;
                }
            }
        }
        book.shared_ids =
            owners.into_iter().filter(|&(_, c)| c > 1).map(|(v, _)| v.into()).collect();
        book
    }

    /// Rank of a node that must be reachable (repair precondition).
    fn rank_checked(&self, n: NodeId) -> u32 {
        match self.index.rank_of(n) {
            Some(r) => r,
            None => unreachable!("repair target {n} must be ranked"),
        }
    }

    /// Document-order rank the freshly linked node `n` must occupy.
    /// Derived purely from sibling/parent links and existing intervals.
    fn insertion_rank(&self, n: NodeId) -> u32 {
        let d = &self.nodes[n.index()];
        if d.kind == NodeKind::Attribute {
            // Attributes rank right after their element, in attr order.
            if d.prev_sibling != NIL {
                self.rank_checked(NodeId(d.prev_sibling)) + 1
            } else {
                self.rank_checked(NodeId(d.parent)) + 1
            }
        } else if d.prev_sibling != NIL {
            // After the previous sibling's whole subtree.
            let pr = self.rank_checked(NodeId(d.prev_sibling));
            pr + self.index.size_at(pr) + 1
        } else {
            // First child: after the parent and its attributes.
            let pr = self.rank_checked(NodeId(d.parent));
            let mut r = pr + 1;
            let mut a = self.nodes[d.parent as usize].first_attr;
            while a != NIL {
                r += 1;
                a = self.nodes[a as usize].next_sibling;
            }
            r
        }
    }

    /// Give the nodes at ranks `[rank, rank+count)` fresh order keys
    /// between their rank neighbours, relabeling an enclosing subtree
    /// (or, ultimately, the whole key space) when the local gap is spent.
    fn assign_gap_keys(&mut self, rank: u32, count: u32) {
        let lo = self.nodes[self.index.node_at(rank - 1).index()].order;
        let hi_rank = rank + count;
        let hi = if (hi_rank as usize) < self.index.len() {
            self.nodes[self.index.node_at(hi_rank).index()].order
        } else {
            u64::MAX
        };
        let c = u64::from(count);
        if hi == u64::MAX {
            // Append at the document tail: stamp fresh full gaps.
            if let Some(top) = lo.checked_add(ORDER_GAP.saturating_mul(c)) {
                if top < u64::MAX {
                    for i in 0..count {
                        let n = self.index.node_at(rank + i);
                        self.nodes[n.index()].order = lo + ORDER_GAP * u64::from(i + 1);
                    }
                    return;
                }
            }
        } else {
            let stride = (hi - lo) / (c + 1);
            if stride >= 1 {
                for i in 0..count {
                    let n = self.index.node_at(rank + i);
                    self.nodes[n.index()].order = lo + stride * u64::from(i + 1);
                }
                return;
            }
        }
        self.relabel_for_space(rank);
    }

    /// The gap at `rank` is exhausted: restamp the smallest enclosing
    /// element subtree that still has key headroom, escalating upward.
    /// Reaching the document node means the whole key space is dense —
    /// rewrite every key from the (already correct) index in one pass.
    fn relabel_for_space(&mut self, rank: u32) {
        let mut anc = self.nodes[self.index.node_at(rank).index()].parent;
        while anc != NIL && self.nodes[anc as usize].kind != NodeKind::Document {
            if let Some(ar) = self.index.rank_of(NodeId(anc)) {
                let span_nodes = self.index.size_at(ar);
                let base = self.nodes[anc as usize].order;
                let hi_rank = ar + span_nodes + 1;
                let hi = if (hi_rank as usize) < self.index.len() {
                    self.nodes[self.index.node_at(hi_rank).index()].order
                } else {
                    u64::MAX
                };
                let stride = ((hi - base) / (u64::from(span_nodes) + 1)).min(ORDER_GAP);
                if stride >= RELABEL_MIN_STRIDE {
                    for i in 1..=span_nodes {
                        let n = self.index.node_at(ar + i);
                        self.nodes[n.index()].order = base + stride * u64::from(i);
                    }
                    self.repair_stats.relabels += 1;
                    return;
                }
            }
            anc = self.nodes[anc as usize].parent;
        }
        self.renumber_keys_from_index();
        self.repair_stats.full_renumbers += 1;
    }

    /// Full key renumber *without* a tree walk or index rebuild: the
    /// index is intact, so keys are just ranks scaled back to full gaps.
    fn renumber_keys_from_index(&mut self) {
        for r in 0..self.index.len() as u32 {
            let n = self.index.node_at(r);
            self.nodes[n.index()].order = u64::from(r) << ORDER_GAP_SHIFT;
        }
    }

    /// Absorb the freshly allocated-and-linked node `n` (element, text or
    /// attribute) into index, statistics, order keys and id index.
    pub(crate) fn repair_after_insert(&mut self, n: NodeId) -> Result<(), UpdateError> {
        if self.repair_mode == RepairMode::FullRenumber {
            self.renumber();
            self.repair_stats.full_renumbers += 1;
            return Ok(());
        }
        self.note_repair_attempt()?;
        self.book();
        let (kind, name) = {
            let d = &self.nodes[n.index()];
            (d.kind, d.name)
        };
        let rank = self.insertion_rank(n);
        self.index.splice_insert(rank, n, kind, (name != NIL).then_some(NameId(name)));
        // Ancestors: every one grows by a node; element ancestors also
        // grow their per-tag subtree sums.
        let mut depth = 0u32;
        let mut elem_anc = 0i64;
        let mut anc_tags: Vec<u32> = Vec::new();
        let mut a = self.nodes[n.index()].parent;
        while a != NIL {
            if let Some(ar) = self.index.rank_of(NodeId(a)) {
                self.index.add_size(ar, 1);
            }
            if self.nodes[a as usize].kind == NodeKind::Element {
                elem_anc += 1;
                if self.nodes[a as usize].name != NIL {
                    anc_tags.push(self.nodes[a as usize].name);
                }
            }
            depth += 1;
            a = self.nodes[a as usize].parent;
        }
        self.assign_gap_keys(rank, 1);
        {
            let st = self.index.stats_mut();
            st.node_count += 1;
            match kind {
                NodeKind::Element => st.element_count += 1,
                NodeKind::Attribute => st.attribute_count += 1,
                NodeKind::Text => st.text_count += 1,
                _ => {}
            }
            st.add_subtree_total(elem_anc);
        }
        let book = self.book();
        book.shift(depth, &[1], false);
        let max_depth = book.max_depth();
        self.index.stats_mut().set_max_depth(max_depth);
        if matches!(kind, NodeKind::Element | NodeKind::Attribute) && name != NIL {
            let t = self.names.text(NameId(name));
            self.index.stats_mut().tag_adjust(t, 1, 0);
        }
        for nm in anc_tags {
            let t = self.names.text(NameId(nm));
            self.index.stats_mut().tag_adjust(t, 0, 1);
        }
        self.index.stats_mut().refresh_derived();
        if kind == NodeKind::Attribute && self.names.lookup("id").map(|i| i.0) == Some(name) {
            if let Some(v) = self.nodes[n.index()].value.clone() {
                self.id_add(&v, NodeId(self.nodes[n.index()].parent));
            }
        }
        self.repair_stats.incremental += 1;
        Ok(())
    }

    /// Remove the subtree (or single attribute: `attr_owner` set) rooted
    /// at `n`: unlink, splice its rank interval out, shrink ancestors and
    /// statistics, and re-elect any id-index winners that lived inside.
    pub(crate) fn repair_remove(
        &mut self,
        n: NodeId,
        attr_owner: Option<NodeId>,
    ) -> Result<(), UpdateError> {
        if self.repair_mode == RepairMode::FullRenumber {
            match attr_owner {
                Some(o) => self.unlink_attribute(o, n),
                None => self.unlink(n),
            }
            self.renumber();
            self.repair_stats.full_renumbers += 1;
            return Ok(());
        }
        self.note_repair_attempt()?;
        self.book();
        let rank = self.rank_checked(n);
        let s = self.index.size_at(rank);
        let count = s + 1;

        // Ancestor chain, walked before the unlink severs it.
        let mut base_depth = 0u32;
        let mut elem_anc = 0i64;
        let mut anc_tags: Vec<u32> = Vec::new();
        let mut a = self.nodes[n.index()].parent;
        while a != NIL {
            if let Some(ar) = self.index.rank_of(NodeId(a)) {
                self.index.add_size(ar, -i64::from(count));
            }
            if self.nodes[a as usize].kind == NodeKind::Element {
                elem_anc += 1;
                if self.nodes[a as usize].name != NIL {
                    anc_tags.push(self.nodes[a as usize].name);
                }
            }
            base_depth += 1;
            a = self.nodes[a as usize].parent;
        }

        // One pass over the doomed interval: per-kind and per-tag counts,
        // id entries whose winner lives inside, and nodes per relative
        // depth (via an interval stack) for the depth histogram.
        let id_name = self.names.lookup("id").map(|i| i.0);
        let (mut node_d, mut elem_d, mut attr_d, mut text_d) = (0u64, 0u64, 0u64, 0u64);
        let mut sub_total_d: i64 = -(elem_anc * i64::from(count));
        let mut tag_deltas: Vec<(u32, i64, i64)> = Vec::new();
        let mut rescan_ids: Vec<Box<str>> = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        let mut rel_counts: Vec<u64> = Vec::new();
        for r in rank..=rank + s {
            while ends.last().is_some_and(|&e| r > e) {
                ends.pop();
            }
            if rel_counts.len() <= ends.len() {
                rel_counts.push(0);
            }
            rel_counts[ends.len()] += 1;
            ends.push(r + self.index.size_at(r));
            let d = &self.nodes[self.index.node_at(r).index()];
            node_d += 1;
            match d.kind {
                NodeKind::Element => {
                    elem_d += 1;
                    let size = i64::from(self.index.size_at(r));
                    sub_total_d -= size;
                    if d.name != NIL {
                        tag_deltas.push((d.name, -1, -size));
                    }
                }
                NodeKind::Attribute => {
                    attr_d += 1;
                    if d.name != NIL {
                        tag_deltas.push((d.name, -1, 0));
                        if Some(d.name) == id_name {
                            if let Some(v) = d.value.as_deref() {
                                if self.id_index.get(v).copied() == Some(NodeId(d.parent)) {
                                    rescan_ids.push(v.into());
                                }
                            }
                        }
                    }
                }
                NodeKind::Text => text_d += 1,
                _ => {}
            }
        }

        match attr_owner {
            Some(o) => self.unlink_attribute(o, n),
            None => self.unlink(n),
        }
        let _ = self.index.splice_remove(rank, count);

        {
            let st = self.index.stats_mut();
            st.node_count -= node_d;
            st.element_count -= elem_d;
            st.attribute_count -= attr_d;
            st.text_count -= text_d;
            st.add_subtree_total(sub_total_d);
        }
        for nm in anc_tags {
            let t = self.names.text(NameId(nm));
            self.index.stats_mut().tag_adjust(t, 0, -i64::from(count));
        }
        for (nm, cd, sd) in tag_deltas {
            let t = self.names.text(NameId(nm));
            self.index.stats_mut().tag_adjust(t, cd, sd);
        }
        let book = self.book();
        book.shift(base_depth, &rel_counts, true);
        let max_depth = book.max_depth();
        self.index.stats_mut().set_max_depth(max_depth);
        self.index.stats_mut().refresh_derived();
        for v in rescan_ids {
            self.id_release(&v);
        }
        self.repair_stats.incremental += 1;
        Ok(())
    }

    /// Relocate the subtree rooted at `n` to become the last child of
    /// `new_parent`: splice its rank block out, relink, splice it back in
    /// at the new position, and shift the ancestor deltas across.
    /// Validation (child kind, cycles, root constraints) happens in
    /// `crate::update::move_subtree`.
    pub(crate) fn repair_move(&mut self, n: NodeId, new_parent: NodeId) -> Result<(), UpdateError> {
        if self.repair_mode == RepairMode::FullRenumber {
            self.unlink(n);
            self.link_last_child(new_parent, n);
            self.renumber();
            self.repair_stats.full_renumbers += 1;
            return Ok(());
        }
        self.note_repair_attempt()?;
        self.book();
        let rank = self.rank_checked(n);
        let s = self.index.size_at(rank);
        let count = s + 1;

        // Old ancestors shed the block.
        let mut old_depth = 0u32;
        let mut old_elem_anc = 0i64;
        let mut old_anc_tags: Vec<u32> = Vec::new();
        let mut a = self.nodes[n.index()].parent;
        while a != NIL {
            if let Some(ar) = self.index.rank_of(NodeId(a)) {
                self.index.add_size(ar, -i64::from(count));
            }
            if self.nodes[a as usize].kind == NodeKind::Element {
                old_elem_anc += 1;
                if self.nodes[a as usize].name != NIL {
                    old_anc_tags.push(self.nodes[a as usize].name);
                }
            }
            old_depth += 1;
            a = self.nodes[a as usize].parent;
        }

        // Block scan: nodes per relative depth (for the depth histogram)
        // and every id value inside (a shared value's winner may change
        // when ranks move; a value with one owner keeps it).
        let id_name = self.names.lookup("id").map(|i| i.0);
        let mut rel_counts: Vec<u64> = Vec::new();
        let mut block_ids: Vec<Box<str>> = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        for r in rank..=rank + s {
            while ends.last().is_some_and(|&e| r > e) {
                ends.pop();
            }
            if rel_counts.len() <= ends.len() {
                rel_counts.push(0);
            }
            rel_counts[ends.len()] += 1;
            ends.push(r + self.index.size_at(r));
            let d = &self.nodes[self.index.node_at(r).index()];
            if d.kind == NodeKind::Attribute && Some(d.name) == id_name {
                if let Some(v) = d.value.as_deref() {
                    block_ids.push(v.into());
                }
            }
        }

        let block = self.index.splice_remove(rank, count);
        self.unlink(n);
        self.link_last_child(new_parent, n);
        let new_rank = self.insertion_rank(n);
        self.index.splice_insert_block(new_rank, block);

        // New ancestors absorb the block.
        let mut new_depth = 0u32;
        let mut new_elem_anc = 0i64;
        let mut new_anc_tags: Vec<u32> = Vec::new();
        let mut a = self.nodes[n.index()].parent;
        while a != NIL {
            if let Some(ar) = self.index.rank_of(NodeId(a)) {
                self.index.add_size(ar, i64::from(count));
            }
            if self.nodes[a as usize].kind == NodeKind::Element {
                new_elem_anc += 1;
                if self.nodes[a as usize].name != NIL {
                    new_anc_tags.push(self.nodes[a as usize].name);
                }
            }
            new_depth += 1;
            a = self.nodes[a as usize].parent;
        }

        self.assign_gap_keys(new_rank, count);
        self.index
            .stats_mut()
            .add_subtree_total((new_elem_anc - old_elem_anc) * i64::from(count));
        for nm in old_anc_tags {
            let t = self.names.text(NameId(nm));
            self.index.stats_mut().tag_adjust(t, 0, -i64::from(count));
        }
        for nm in new_anc_tags {
            let t = self.names.text(NameId(nm));
            self.index.stats_mut().tag_adjust(t, 0, i64::from(count));
        }
        let book = self.book();
        book.shift(old_depth, &rel_counts, true);
        book.shift(new_depth, &rel_counts, false);
        let max_depth = book.max_depth();
        self.index.stats_mut().set_max_depth(max_depth);
        self.index.stats_mut().refresh_derived();
        for v in block_ids {
            if self.book().shared_ids.contains(&v) {
                self.id_rescan(&v);
            }
        }
        self.repair_stats.incremental += 1;
        Ok(())
    }

    /// Attach the (unlinked) node `n` as the last child of `parent`.
    pub(crate) fn link_last_child(&mut self, parent: NodeId, n: NodeId) {
        self.nodes[n.index()].parent = parent.0;
        let p = &mut self.nodes[parent.index()];
        if p.first_child == NIL {
            p.first_child = n.0;
        } else {
            let last = p.last_child;
            self.nodes[last as usize].next_sibling = n.0;
            self.nodes[n.index()].prev_sibling = last;
        }
        self.nodes[parent.index()].last_child = n.0;
    }

    /// Offer `owner` as the element for id `value`; first-in-document-
    /// order wins, decided by index rank.
    fn id_consider(&mut self, value: &str, owner: NodeId) {
        let Some(new_r) = self.index.rank_of(owner) else {
            return;
        };
        match self.id_index.get(value) {
            Some(&cur) => {
                let cur_r = self.index.rank_of(cur).unwrap_or(u32::MAX);
                if new_r < cur_r {
                    self.id_index.insert(value.into(), owner);
                }
            }
            None => {
                self.id_index.insert(value.into(), owner);
            }
        }
    }

    /// A new `id` attribute carrying `value` now belongs to `owner`: a
    /// value that already resolves gains a second owner.
    fn id_add(&mut self, value: &str, owner: NodeId) {
        if self.id_index.contains_key(value) {
            self.book().shared_ids.insert(value.into());
        }
        self.id_consider(value, owner);
    }

    /// The winner for `value` lost its `id` attribute: a value with a
    /// single owner simply stops resolving, a shared one is re-elected.
    fn id_release(&mut self, value: &str) {
        if self.book().shared_ids.contains(value) {
            self.id_rescan(value);
        } else {
            self.id_index.remove(value);
        }
    }

    /// Re-elect the id-index winner for `value` by scanning ranks in
    /// document order (run only for shared values whose winner was
    /// removed or relocated — rare, so the linear scan is acceptable).
    fn id_rescan(&mut self, value: &str) {
        self.id_index.remove(value);
        let Some(id_name) = self.names.lookup("id") else {
            return;
        };
        for r in 0..self.index.len() as u32 {
            if self.index.kind_at(r) != NodeKind::Attribute {
                continue;
            }
            let d = &self.nodes[self.index.node_at(r).index()];
            if d.name == id_name.0 && d.value.as_deref() == Some(value) {
                self.id_index.insert(value.into(), NodeId(d.parent));
                return;
            }
        }
    }

    /// Replace an attribute's value, keeping the id index honest when the
    /// attribute is named `id` (overwriting an id used to leave the index
    /// stale). In-place: no structural or order changes.
    pub(crate) fn set_attr_value_with_id_fix(&mut self, attr: NodeId, value: &str) {
        let name = self.nodes[attr.index()].name;
        let is_id = name != NIL && self.names.lookup("id").map(|i| i.0) == Some(name);
        let old = self.nodes[attr.index()].value.clone();
        let rekeys = is_id && self.index.rank_of(attr).is_some() && old.as_deref() != Some(value);
        if rekeys {
            // Derived from the owners before the overwrite.
            self.book();
        }
        self.set_value_raw(attr, value);
        if rekeys {
            let owner = NodeId(self.nodes[attr.index()].parent);
            if let Some(old) = old {
                if self.id_index.get(old.as_ref()).copied() == Some(owner) {
                    self.id_release(&old);
                }
            }
            self.id_add(value, owner);
        }
    }
}

impl XmlStore for ArenaStore {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn kind(&self, n: NodeId) -> NodeKind {
        self.data(n).kind
    }

    fn name(&self, n: NodeId) -> Option<NameId> {
        let v = self.data(n).name;
        (v != NIL).then_some(NameId(v))
    }

    fn value(&self, n: NodeId) -> Option<String> {
        self.data(n).value.as_deref().map(str::to_owned)
    }

    fn value_ref(&self, n: NodeId) -> Option<Cow<'_, str>> {
        self.data(n).value.as_deref().map(Cow::Borrowed)
    }

    /// Borrows whenever the string-value is one stored string: content
    /// nodes, and elements whose subtree text is a single text child (the
    /// `year`/`author`/`title` leaf case). Only mixed content allocates.
    fn string_value_ref(&self, n: NodeId) -> Cow<'_, str> {
        let node = self.data(n);
        if !matches!(node.kind, NodeKind::Document | NodeKind::Element) {
            return Cow::Borrowed(node.value.as_deref().unwrap_or_default());
        }
        let mut only = None;
        let mut child = node.first_child;
        while child != NIL {
            let c = &self.nodes[child as usize];
            match c.kind {
                NodeKind::Text if only.is_none() => only = c.value.as_deref(),
                NodeKind::Text | NodeKind::Element => return Cow::Owned(self.string_value(n)),
                _ => {}
            }
            child = c.next_sibling;
        }
        Cow::Borrowed(only.unwrap_or_default())
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        Self::opt(self.data(n).parent)
    }

    fn first_child(&self, n: NodeId) -> Option<NodeId> {
        Self::opt(self.data(n).first_child)
    }

    fn last_child(&self, n: NodeId) -> Option<NodeId> {
        Self::opt(self.data(n).last_child)
    }

    fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        Self::opt(self.data(n).next_sibling)
    }

    fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        Self::opt(self.data(n).prev_sibling)
    }

    fn first_attribute(&self, n: NodeId) -> Option<NodeId> {
        Self::opt(self.data(n).first_attr)
    }

    fn node(&self, n: NodeId, _pin: &mut PagePin) -> NodeRec {
        let d = self.data(n);
        // Same "none" encoding on both sides: a plain copy.
        NodeRec {
            kind: d.kind,
            name: d.name,
            parent: d.parent,
            first_child: d.first_child,
            last_child: d.last_child,
            next_sibling: d.next_sibling,
            prev_sibling: d.prev_sibling,
            first_attribute: d.first_attr,
        }
    }

    fn order(&self, n: NodeId) -> u64 {
        self.data(n).order
    }

    fn intern_lookup(&self, name: &str) -> Option<NameId> {
        self.names.lookup(name)
    }

    fn name_text(&self, id: NameId) -> String {
        self.names.text(id).to_owned()
    }

    fn element_by_id(&self, idval: &str) -> Option<NodeId> {
        self.id_index.get(idval).copied()
    }

    fn structural_index(&self) -> Option<&StructuralIndex> {
        Some(&self.index)
    }
}

/// Event-style builder producing an [`ArenaStore`].
///
/// Calls must arrive in document order: `start_element`, then its
/// `attribute`s, then content, then `end_element`. The XML parser and the
/// synthetic generators both drive this interface.
pub struct ArenaBuilder {
    nodes: Vec<NodeData>,
    names: NameTable,
    stack: Vec<u32>,
    id_index: HashMap<Box<str>, NodeId>,
    id_name: NameId,
    order: u32,
}

impl Default for ArenaBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ArenaBuilder {
    /// Fresh builder containing only the document node.
    pub fn new() -> ArenaBuilder {
        let mut names = NameTable::default();
        let id_name = names.intern("id");
        let doc = NodeData::new(NodeKind::Document, 0);
        ArenaBuilder {
            nodes: vec![doc],
            names,
            stack: vec![0],
            id_index: HashMap::new(),
            id_name,
            order: 1,
        }
    }

    fn next_order(&mut self) -> u64 {
        let o = u64::from(self.order) << ORDER_GAP_SHIFT;
        self.order += 1;
        o
    }

    fn append_child(&mut self, mut data: NodeData) -> NodeId {
        let Some(&parent) = self.stack.last() else {
            panic!("builder stack underflow");
        };
        let idx = self.nodes.len() as u32;
        data.parent = parent;
        let p = &mut self.nodes[parent as usize];
        if p.first_child == NIL {
            p.first_child = idx;
        } else {
            let last = p.last_child;
            self.nodes[last as usize].next_sibling = idx;
            data.prev_sibling = last;
        }
        self.nodes[parent as usize].last_child = idx;
        self.nodes.push(data);
        NodeId(idx)
    }

    /// Open an element; subsequent content goes under it until
    /// [`ArenaBuilder::end_element`].
    pub fn start_element(&mut self, name: &str) -> NodeId {
        let order = self.next_order();
        let name = self.names.intern(name);
        let mut data = NodeData::new(NodeKind::Element, order);
        data.name = name.0;
        let id = self.append_child(data);
        self.stack.push(id.0);
        id
    }

    /// Attach an attribute to the currently open element. Must be called
    /// before any child content is added.
    pub fn attribute(&mut self, name: &str, value: &str) -> NodeId {
        let Some(&owner) = self.stack.last() else {
            panic!("attribute outside element");
        };
        assert!(
            self.nodes[owner as usize].kind == NodeKind::Element,
            "attribute outside element"
        );
        assert!(
            self.nodes[owner as usize].first_child == NIL,
            "attributes must precede child content"
        );
        let order = self.next_order();
        let name_id = self.names.intern(name);
        let mut data = NodeData::new(NodeKind::Attribute, order);
        data.name = name_id.0;
        data.value = Some(value.into());
        data.parent = owner;
        let idx = self.nodes.len() as u32;
        let o = &mut self.nodes[owner as usize];
        if o.first_attr == NIL {
            o.first_attr = idx;
        } else {
            let last = o.last_attr;
            self.nodes[last as usize].next_sibling = idx;
            data.prev_sibling = last;
        }
        self.nodes[owner as usize].last_attr = idx;
        if name_id == self.id_name {
            self.id_index.entry(value.into()).or_insert(NodeId(owner));
        }
        self.nodes.push(data);
        NodeId(idx)
    }

    /// Close the currently open element.
    pub fn end_element(&mut self) {
        assert!(self.stack.len() > 1, "end_element without start_element");
        self.stack.pop();
    }

    fn leaf(&mut self, kind: NodeKind, value: &str) -> NodeId {
        let order = self.next_order();
        let mut data = NodeData::new(kind, order);
        data.value = Some(value.into());
        self.append_child(data)
    }

    /// Append a text node. Empty text is dropped (no-op) to match the XPath
    /// data model, which has no empty text nodes.
    pub fn text(&mut self, content: &str) -> Option<NodeId> {
        if content.is_empty() {
            return None;
        }
        Some(self.leaf(NodeKind::Text, content))
    }

    /// Append a comment node.
    pub fn comment(&mut self, content: &str) -> NodeId {
        self.leaf(NodeKind::Comment, content)
    }

    /// Append a processing instruction.
    pub fn processing_instruction(&mut self, target: &str, content: &str) -> NodeId {
        let order = self.next_order();
        let name = self.names.intern(target);
        let mut data = NodeData::new(NodeKind::ProcessingInstruction, order);
        data.name = name.0;
        data.value = Some(content.into());
        self.append_child(data)
    }

    /// Finish building: freeze the arena and derive the structural
    /// interval index. Panics if elements are still open.
    pub fn finish(self) -> ArenaStore {
        assert_eq!(self.stack.len(), 1, "unclosed elements at finish()");
        let mut store = ArenaStore {
            nodes: self.nodes,
            names: self.names,
            id_index: self.id_index,
            index: StructuralIndex::empty(),
            repair_mode: RepairMode::Incremental,
            repair_stats: RepairStats::default(),
            repair_attempts: 0,
            repair_failpoint: RepairFailPoint::none(),
            book: None,
        };
        store.index = StructuralIndex::build(&store);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArenaStore {
        let mut b = ArenaBuilder::new();
        b.start_element("root");
        b.attribute("id", "0");
        b.start_element("a");
        b.attribute("id", "1");
        b.text("hello");
        b.end_element();
        b.comment("note");
        b.start_element("b");
        b.processing_instruction("php", "echo");
        b.end_element();
        b.end_element();
        b.finish()
    }

    #[test]
    fn structure_links() {
        let s = sample();
        let root_el = s.first_child(s.root()).unwrap();
        assert_eq!(s.kind(root_el), NodeKind::Element);
        assert_eq!(s.node_name(root_el), "root");
        let a = s.first_child(root_el).unwrap();
        assert_eq!(s.node_name(a), "a");
        let comment = s.next_sibling(a).unwrap();
        assert_eq!(s.kind(comment), NodeKind::Comment);
        let b = s.next_sibling(comment).unwrap();
        assert_eq!(s.node_name(b), "b");
        assert_eq!(s.next_sibling(b), None);
        assert_eq!(s.prev_sibling(b), Some(comment));
        assert_eq!(s.last_child(root_el), Some(b));
        assert_eq!(s.parent(a), Some(root_el));
    }

    #[test]
    fn attributes_not_on_child_axis() {
        let s = sample();
        let root_el = s.first_child(s.root()).unwrap();
        let attr = s.first_attribute(root_el).unwrap();
        assert_eq!(s.kind(attr), NodeKind::Attribute);
        assert_eq!(s.parent(attr), Some(root_el));
        let a = s.first_child(root_el).unwrap();
        assert_ne!(a, attr);
    }

    #[test]
    fn document_order_is_preorder_with_attrs_after_element() {
        let s = sample();
        let root_el = s.first_child(s.root()).unwrap();
        let attr = s.first_attribute(root_el).unwrap();
        let a = s.first_child(root_el).unwrap();
        assert!(s.order(s.root()) < s.order(root_el));
        assert!(s.order(root_el) < s.order(attr));
        assert!(s.order(attr) < s.order(a));
    }

    #[test]
    fn id_index_first_wins() {
        let mut b = ArenaBuilder::new();
        b.start_element("r");
        b.start_element("x");
        b.attribute("id", "k");
        b.end_element();
        b.start_element("y");
        b.attribute("id", "k");
        b.end_element();
        b.end_element();
        let s = b.finish();
        let hit = s.element_by_id("k").unwrap();
        assert_eq!(s.node_name(hit), "x");
        assert_eq!(s.element_by_id("zzz"), None);
    }

    #[test]
    fn empty_text_dropped() {
        let mut b = ArenaBuilder::new();
        b.start_element("r");
        assert!(b.text("").is_none());
        b.end_element();
        let s = b.finish();
        let r = s.first_child(s.root()).unwrap();
        assert_eq!(s.first_child(r), None);
    }

    #[test]
    fn pi_has_target_name_and_content() {
        let s = sample();
        let root_el = s.first_child(s.root()).unwrap();
        let b = s.last_child(root_el).unwrap();
        let pi = s.first_child(b).unwrap();
        assert_eq!(s.kind(pi), NodeKind::ProcessingInstruction);
        assert_eq!(s.node_name(pi), "php");
        assert_eq!(s.value(pi).as_deref(), Some("echo"));
    }

    #[test]
    fn element_count_counts_only_elements() {
        let s = sample();
        assert_eq!(s.element_count(), 3);
    }
}
