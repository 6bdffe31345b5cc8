//! Document updates on the arena store.
//!
//! Natix stores documents in "recoverable, updatable form" (paper
//! §5.2.2). The substrate supports:
//!
//! * in-place content updates (text/comment/PI content, attribute
//!   values) — no structural change, document order untouched;
//! * structural updates (insert element/text, remove subtree, add or
//!   remove attributes, relocate a subtree) — sibling links are spliced
//!   and the structural index is repaired *incrementally*: gap-based
//!   sparse order keys, localized subtree relabels, and a counted full
//!   renumber only when the key space is exhausted (DESIGN.md §18).
//!   [`RepairMode::FullRenumber`] restores the old O(n) rebuild-per-op
//!   behavior for benchmarking and differential testing.
//!
//! All `NodeId`s remain stable across updates; removed subtrees become
//! unreachable but keep their slots (tombstones), so dense side tables
//! keyed by `NodeId` stay valid. `node_count` keeps counting slots;
//! reachability is what changes.
//!
//! Errors are typed ([`UpdateError`]) and carry a stable machine-readable
//! [`class`](UpdateError::class) so service clients can dispatch on
//! `ERR update <class>` lines without parsing prose.

use crate::arena::ArenaStore;
use crate::node::{NodeId, NodeKind};
use crate::store::XmlStore;

/// How [`ArenaStore`] keeps its structural index consistent across
/// structural updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairMode {
    /// Splice the index and allocate sparse order keys — O(touched) plus
    /// a tail shift, the default.
    #[default]
    Incremental,
    /// Rebuild order, index, statistics and id index from scratch after
    /// every structural op — O(n), the pre-epoch behavior. Kept as a
    /// benchmark baseline and differential oracle.
    FullRenumber,
}

/// Counters of how structural updates were absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Ops absorbed by an incremental splice.
    pub incremental: u64,
    /// Incremental ops that additionally relabeled an enclosing subtree's
    /// order keys because the local gap was exhausted.
    pub relabels: u64,
    /// Full renumbers: every op in [`RepairMode::FullRenumber`], plus the
    /// counted fallback when even relabeling cannot find key headroom.
    pub full_renumbers: u64,
}

/// Errors raised by update operations, engine write batches and the
/// service's `update` protocol. Each variant maps to a stable class
/// token rendered as `ERR update <class>` by the line protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The op requires an element (or document) target.
    NotAnElement {
        /// Kind actually found.
        kind: NodeKind,
        /// What the op was trying to do.
        op: &'static str,
    },
    /// The op requires a child-axis node (element/text/comment/PI).
    NotAChildNode {
        /// Kind actually found.
        kind: NodeKind,
        /// What the op was trying to do.
        op: &'static str,
    },
    /// The node kind carries no content (elements, the document).
    ContentlessNode {
        /// Kind actually found.
        kind: NodeKind,
    },
    /// The document node already has a root element.
    RootOccupied,
    /// The insertion point has no parent.
    NoParent,
    /// Moving a subtree under one of its own descendants (or itself).
    CycleWouldForm,
    /// The target node is unreachable (a tombstone left by an earlier
    /// removal).
    DetachedTarget(NodeId),
    /// The store is an immutable snapshot (disk-backed documents, or a
    /// reader's pinned epoch); updates need a write batch on the
    /// registry's live arena document.
    ImmutableSnapshot,
    /// Another write batch already holds the document's writer lock.
    WriterConflict(String),
    /// No document with this name is registered.
    UnknownDocument(String),
    /// The document was re-registered while the write batch ran; the
    /// batch's updates apply to the replaced document and are refused.
    DocumentReplaced(String),
    /// An update path selected no target node.
    TargetNotFound(String),
    /// A previous op in this batch failed; the batch only rolls back.
    BatchPoisoned,
    /// Injected incremental-repair abort (fault testing). The store the
    /// repair ran on must be discarded.
    RepairAborted,
}

impl UpdateError {
    /// Stable machine-readable class token (the `ERR update <class>`
    /// word in the line protocol).
    pub fn class(&self) -> &'static str {
        match self {
            UpdateError::NotAnElement { .. } => "not-an-element",
            UpdateError::NotAChildNode { .. } => "not-a-child-node",
            UpdateError::ContentlessNode { .. } => "contentless-node",
            UpdateError::RootOccupied => "root-occupied",
            UpdateError::NoParent => "no-parent",
            UpdateError::CycleWouldForm => "cycle",
            UpdateError::DetachedTarget(_) => "detached-target",
            UpdateError::ImmutableSnapshot => "immutable-snapshot",
            UpdateError::WriterConflict(_) => "writer-conflict",
            UpdateError::UnknownDocument(_) => "unknown-document",
            UpdateError::DocumentReplaced(_) => "document-replaced",
            UpdateError::TargetNotFound(_) => "target-not-found",
            UpdateError::BatchPoisoned => "batch-poisoned",
            UpdateError::RepairAborted => "repair-aborted",
        }
    }
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.class())?;
        match self {
            UpdateError::NotAnElement { kind, op } => {
                write!(f, "{op} requires an element, got a {kind:?} node")
            }
            UpdateError::NotAChildNode { kind, op } => {
                write!(f, "{op} requires a child-axis node, got a {kind:?} node")
            }
            UpdateError::ContentlessNode { kind } => {
                write!(f, "a {kind:?} node has no content to set")
            }
            UpdateError::RootOccupied => {
                write!(f, "the document node already has a root element")
            }
            UpdateError::NoParent => write!(f, "insertion point has no parent"),
            UpdateError::CycleWouldForm => {
                write!(f, "cannot move a subtree under itself")
            }
            UpdateError::DetachedTarget(n) => {
                write!(f, "target {n} was already removed from the document")
            }
            UpdateError::ImmutableSnapshot => {
                write!(f, "this document snapshot is immutable; open a write batch")
            }
            UpdateError::WriterConflict(doc) => {
                write!(f, "another write batch holds the writer lock on '{doc}'")
            }
            UpdateError::UnknownDocument(doc) => {
                write!(f, "no document named '{doc}' is registered")
            }
            UpdateError::DocumentReplaced(doc) => {
                write!(f, "'{doc}' was re-registered while the batch ran; nothing was published")
            }
            UpdateError::TargetNotFound(path) => {
                write!(f, "no node matches '{path}'")
            }
            UpdateError::BatchPoisoned => {
                write!(f, "an earlier op in this batch failed; only rollback is possible")
            }
            UpdateError::RepairAborted => {
                write!(f, "injected index-repair abort; the working store is discarded")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl ArenaStore {
    fn require_ranked(&self, n: NodeId) -> Result<(), UpdateError> {
        match self.structural_index() {
            Some(idx) if idx.rank_of(n).is_none() => Err(UpdateError::DetachedTarget(n)),
            _ => Ok(()),
        }
    }

    /// Replace the content of a text, comment, PI or attribute node.
    /// In-place: no structural or order changes. Overwriting an `id`
    /// attribute's value keeps the id index consistent.
    pub fn set_content(&mut self, n: NodeId, content: &str) -> Result<(), UpdateError> {
        match self.kind(n) {
            NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction => {
                self.set_value_raw(n, content);
                Ok(())
            }
            NodeKind::Attribute => {
                self.set_attr_value_with_id_fix(n, content);
                Ok(())
            }
            other => Err(UpdateError::ContentlessNode { kind: other }),
        }
    }

    /// Set (or add) an attribute on an element. Adding splices the index;
    /// overwriting an existing attribute is in-place.
    pub fn set_attribute(
        &mut self,
        element: NodeId,
        name: &str,
        value: &str,
    ) -> Result<NodeId, UpdateError> {
        if self.kind(element) != NodeKind::Element {
            return Err(UpdateError::NotAnElement {
                kind: self.kind(element),
                op: "set-attribute",
            });
        }
        self.require_ranked(element)?;
        let name_id = self.intern(name);
        if let Some(existing) = self.attribute_named(element, name_id) {
            self.set_attr_value_with_id_fix(existing, value);
            return Ok(existing);
        }
        let attr = self.alloc_attribute(element, name_id, value);
        self.repair_after_insert(attr)?;
        Ok(attr)
    }

    /// Insert a new element as the last child of `parent`.
    pub fn append_element(&mut self, parent: NodeId, name: &str) -> Result<NodeId, UpdateError> {
        if !matches!(self.kind(parent), NodeKind::Element | NodeKind::Document) {
            return Err(UpdateError::NotAnElement {
                kind: self.kind(parent),
                op: "append-element",
            });
        }
        if self.kind(parent) == NodeKind::Document && self.first_child(parent).is_some() {
            return Err(UpdateError::RootOccupied);
        }
        self.require_ranked(parent)?;
        let name_id = self.intern(name);
        let node = self.alloc_child(parent, NodeKind::Element, Some(name_id), None);
        self.repair_after_insert(node)?;
        Ok(node)
    }

    /// Insert a new text node as the last child of `parent`.
    pub fn append_text(&mut self, parent: NodeId, content: &str) -> Result<NodeId, UpdateError> {
        if self.kind(parent) != NodeKind::Element {
            return Err(UpdateError::NotAnElement { kind: self.kind(parent), op: "append-text" });
        }
        self.require_ranked(parent)?;
        let node = self.alloc_child(parent, NodeKind::Text, None, Some(content));
        self.repair_after_insert(node)?;
        Ok(node)
    }

    /// Insert a new element immediately before `sibling`.
    pub fn insert_element_before(
        &mut self,
        sibling: NodeId,
        name: &str,
    ) -> Result<NodeId, UpdateError> {
        if !self.kind(sibling).is_child_kind() {
            return Err(UpdateError::NotAChildNode {
                kind: self.kind(sibling),
                op: "insert-before",
            });
        }
        let Some(parent) = self.parent(sibling) else {
            return Err(UpdateError::NoParent);
        };
        self.require_ranked(sibling)?;
        let name_id = self.intern(name);
        let node = self.alloc_before(parent, sibling, NodeKind::Element, Some(name_id), None);
        self.repair_after_insert(node)?;
        Ok(node)
    }

    /// Detach the subtree rooted at `n` (elements, text, comments, PIs).
    /// The nodes become unreachable; their ids are not reused.
    pub fn remove_subtree(&mut self, n: NodeId) -> Result<(), UpdateError> {
        if !self.kind(n).is_child_kind() {
            return Err(UpdateError::NotAChildNode { kind: self.kind(n), op: "remove-subtree" });
        }
        self.require_ranked(n)?;
        self.repair_remove(n, None)
    }

    /// Remove an attribute from its element.
    pub fn remove_attribute(&mut self, element: NodeId, name: &str) -> Result<bool, UpdateError> {
        if self.kind(element) != NodeKind::Element {
            return Err(UpdateError::NotAnElement {
                kind: self.kind(element),
                op: "remove-attribute",
            });
        }
        self.require_ranked(element)?;
        let Some(name_id) = self.intern_lookup(name) else {
            return Ok(false);
        };
        let Some(attr) = self.attribute_named(element, name_id) else {
            return Ok(false);
        };
        self.repair_remove(attr, Some(element))?;
        Ok(true)
    }

    /// Relocate the subtree rooted at `n` to become the last child of
    /// `new_parent`. Refuses cycles (moving a node under itself or a
    /// descendant) — the error class the service surfaces as
    /// `ERR update cycle`.
    pub fn move_subtree(&mut self, n: NodeId, new_parent: NodeId) -> Result<(), UpdateError> {
        if !self.kind(n).is_child_kind() {
            return Err(UpdateError::NotAChildNode { kind: self.kind(n), op: "move-subtree" });
        }
        if !matches!(self.kind(new_parent), NodeKind::Element | NodeKind::Document) {
            return Err(UpdateError::NotAnElement {
                kind: self.kind(new_parent),
                op: "move-subtree",
            });
        }
        self.require_ranked(n)?;
        self.require_ranked(new_parent)?;
        if n == new_parent || self.is_ancestor(n, new_parent) {
            return Err(UpdateError::CycleWouldForm);
        }
        if self.kind(new_parent) == NodeKind::Document {
            if let Some(existing) = self.first_child(new_parent) {
                if existing != n {
                    return Err(UpdateError::RootOccupied);
                }
            }
        }
        self.repair_move(n, new_parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::{axis_nodes, Axis};
    use crate::index::StructuralIndex;
    use crate::parser::parse_document;
    use crate::serialize::to_xml;

    fn doc() -> ArenaStore {
        parse_document(r#"<r><a x="1">one</a><b>two</b></r>"#).unwrap()
    }

    fn orders_valid(s: &ArenaStore) {
        // Reachable nodes must have strictly increasing pre-order keys:
        // parent < attributes < children, siblings ascending.
        let idx = s.structural_index().unwrap();
        for rank in 1..idx.len() as u32 {
            assert!(
                s.order(idx.node_at(rank - 1)) < s.order(idx.node_at(rank)),
                "order keys must ascend with rank"
            );
        }
        let mut stack = vec![s.root()];
        while let Some(n) = stack.pop() {
            if let Some(p) = s.parent(n) {
                assert!(s.order(p) < s.order(n), "parent order must precede");
            }
            let mut c = s.first_child(n);
            while let Some(ch) = c {
                stack.push(ch);
                c = s.next_sibling(ch);
            }
        }
    }

    /// The repair differential: the incrementally maintained index must
    /// equal a from-scratch rebuild over the same store — arrays, sizes,
    /// statistics and fingerprint.
    fn index_matches_rebuild(s: &ArenaStore) {
        let rebuilt = StructuralIndex::build(s);
        assert_eq!(
            s.structural_index().unwrap(),
            &rebuilt,
            "incremental repair diverged from a full rebuild"
        );
    }

    #[test]
    fn in_place_content_updates() {
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let a = s.first_child(r).unwrap();
        let text = s.first_child(a).unwrap();
        s.set_content(text, "uno").unwrap();
        assert_eq!(s.string_value(a), "uno");
        let attr = s.first_attribute(a).unwrap();
        s.set_content(attr, "9").unwrap();
        assert_eq!(s.attribute_value(a, "x").as_deref(), Some("9"));
        // Elements reject content updates.
        let e = s.set_content(a, "nope").unwrap_err();
        assert_eq!(e.class(), "contentless-node");
    }

    #[test]
    fn set_attribute_overwrites_or_adds() {
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let a = s.first_child(r).unwrap();
        s.set_attribute(a, "x", "2").unwrap();
        assert_eq!(s.attribute_value(a, "x").as_deref(), Some("2"));
        s.set_attribute(a, "y", "new").unwrap();
        assert_eq!(s.attribute_value(a, "y").as_deref(), Some("new"));
        // Overwriting keeps one attribute per name (XML 1.0 §3.1): a
        // lookup step finds the attribute by name alone.
        s.set_attribute(a, "y", "newer").unwrap();
        let names: Vec<String> =
            axis_nodes(&s, Axis::Attribute, a).into_iter().map(|n| s.node_name(n)).collect();
        assert_eq!(names, ["x", "y"]);
        orders_valid(&s);
        index_matches_rebuild(&s);
        assert_eq!(to_xml(&s), r#"<r><a x="2" y="newer">one</a><b>two</b></r>"#);
    }

    #[test]
    fn append_and_insert_elements() {
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let c = s.append_element(r, "c").unwrap();
        s.append_text(c, "three").unwrap();
        let b = axis_nodes(&s, Axis::Child, r)[1];
        s.insert_element_before(b, "mid").unwrap();
        orders_valid(&s);
        index_matches_rebuild(&s);
        assert_eq!(to_xml(&s), r#"<r><a x="1">one</a><mid/><b>two</b><c>three</c></r>"#);
    }

    #[test]
    fn remove_subtree_and_attribute() {
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let a = s.first_child(r).unwrap();
        s.remove_subtree(a).unwrap();
        orders_valid(&s);
        index_matches_rebuild(&s);
        assert_eq!(to_xml(&s), "<r><b>two</b></r>");
        let b = s.first_child(r).unwrap();
        assert!(!s.remove_attribute(b, "nope").unwrap());
        let mut s2 = doc();
        let r2 = s2.first_child(s2.root()).unwrap();
        let a2 = s2.first_child(r2).unwrap();
        assert!(s2.remove_attribute(a2, "x").unwrap());
        index_matches_rebuild(&s2);
        assert_eq!(to_xml(&s2), "<r><a>one</a><b>two</b></r>");
    }

    #[test]
    fn removed_targets_are_detached() {
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let a = s.first_child(r).unwrap();
        s.remove_subtree(a).unwrap();
        assert_eq!(s.remove_subtree(a).unwrap_err().class(), "detached-target");
        assert_eq!(s.append_element(a, "x").unwrap_err().class(), "detached-target");
        assert_eq!(s.set_attribute(a, "k", "v").unwrap_err().class(), "detached-target");
    }

    #[test]
    fn move_subtree_relocates_and_rejects_cycles() {
        let mut s = parse_document(r#"<r><a><b>inner</b></a><c/></r>"#).unwrap();
        let r = s.first_child(s.root()).unwrap();
        let a = s.first_child(r).unwrap();
        let b = s.first_child(a).unwrap();
        let c = s.next_sibling(a).unwrap();
        // Moving an ancestor under its descendant must refuse.
        assert_eq!(s.move_subtree(a, b).unwrap_err().class(), "cycle");
        assert_eq!(s.move_subtree(a, a).unwrap_err().class(), "cycle");
        // Legal move: <b> leaves <a> and lands under <c>.
        s.move_subtree(b, c).unwrap();
        orders_valid(&s);
        index_matches_rebuild(&s);
        assert_eq!(to_xml(&s), "<r><a/><c><b>inner</b></c></r>");
        // And back again.
        s.move_subtree(b, a).unwrap();
        index_matches_rebuild(&s);
        assert_eq!(to_xml(&s), "<r><a><b>inner</b></a><c/></r>");
    }

    #[test]
    fn structural_index_repaired_after_updates() {
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let c = s.append_element(r, "c").unwrap();
        s.append_text(c, "three").unwrap();
        let a = s.first_child(r).unwrap();
        s.remove_subtree(a).unwrap();
        let idx = s.structural_index().unwrap();
        // Reachable nodes only: the removed subtree's slots are unranked.
        assert!(idx.rank_of(a).is_none(), "tombstones have no rank");
        // Order keys ascend with rank, and every interval axis still
        // matches the cursor on the mutated tree.
        for rank in 0..idx.len() as u32 {
            let n = idx.node_at(rank);
            if rank > 0 {
                assert!(s.order(idx.node_at(rank - 1)) < s.order(n));
            }
            for axis in [
                Axis::Descendant,
                Axis::DescendantOrSelf,
                Axis::Following,
                Axis::Preceding,
            ] {
                assert_eq!(
                    crate::axes::indexed_axis_nodes(&s, axis, n),
                    axis_nodes(&s, axis, n),
                    "{axis} from rank {rank} after updates"
                );
            }
        }
        orders_valid(&s);
        index_matches_rebuild(&s);
        let st = s.repair_stats();
        assert_eq!(st.incremental, 3, "three structural ops, all incremental");
        assert_eq!(st.full_renumbers, 0);
    }

    #[test]
    fn full_renumber_mode_produces_identical_store() {
        let run = |mode: RepairMode| {
            let mut s = doc();
            s.set_repair_mode(mode);
            let r = s.first_child(s.root()).unwrap();
            let c = s.append_element(r, "c").unwrap();
            s.append_text(c, "3").unwrap();
            let a = s.first_child(r).unwrap();
            s.set_attribute(a, "id", "k").unwrap();
            let b = axis_nodes(&s, Axis::Child, r)[1];
            s.insert_element_before(b, "mid").unwrap();
            s.remove_subtree(b).unwrap();
            s
        };
        let inc = run(RepairMode::Incremental);
        let full = run(RepairMode::FullRenumber);
        assert_eq!(to_xml(&inc), to_xml(&full));
        assert_eq!(
            inc.structural_index().unwrap().stats(),
            full.structural_index().unwrap().stats(),
            "both modes must derive identical statistics"
        );
        assert_eq!(inc.element_by_id("k"), full.element_by_id("k"));
        assert!(inc.repair_stats().incremental > 0);
        assert_eq!(full.repair_stats().incremental, 0);
        assert!(full.repair_stats().full_renumbers > 0);
        index_matches_rebuild(&inc);
    }

    #[test]
    fn gap_exhaustion_relabels_then_renumbers() {
        // Hammer the same insertion point: each insert-before halves the
        // local gap, so the ~20 gap bits run out and the repair must
        // relabel (or ultimately renumber) — while staying correct.
        let mut s = parse_document("<r><pivot/></r>").unwrap();
        let r = s.first_child(s.root()).unwrap();
        let mut target = s.first_child(r).unwrap();
        for i in 0..64 {
            target = s.insert_element_before(target, &format!("e{i}")).unwrap();
            orders_valid(&s);
        }
        index_matches_rebuild(&s);
        let st = s.repair_stats();
        assert_eq!(st.incremental, 64);
        assert!(
            st.relabels + st.full_renumbers > 0,
            "64 same-spot inserts must exhaust a 2^20 gap at least once: {st:?}"
        );
    }

    #[test]
    fn id_index_follows_content_overwrites() {
        // Overwriting an id value used to leave the id index stale.
        let mut s = parse_document(r#"<r><x id="one"/><y id="two"/></r>"#).unwrap();
        let r = s.first_child(s.root()).unwrap();
        let x = s.first_child(r).unwrap();
        let y = s.next_sibling(x).unwrap();
        assert_eq!(s.element_by_id("one"), Some(x));
        // Overwrite via set_attribute.
        s.set_attribute(x, "id", "uno").unwrap();
        assert_eq!(s.element_by_id("one"), None, "old id must stop resolving");
        assert_eq!(s.element_by_id("uno"), Some(x));
        // Overwrite via set_content on the attribute node.
        let y_attr = s.first_attribute(y).unwrap();
        s.set_content(y_attr, "dos").unwrap();
        assert_eq!(s.element_by_id("two"), None);
        assert_eq!(s.element_by_id("dos"), Some(y));
        // First-in-document-order still wins on collision.
        s.set_content(y_attr, "uno").unwrap();
        assert_eq!(s.element_by_id("uno"), Some(x), "x precedes y in document order");
        // And when the winner renames away, the loser is re-elected.
        s.set_attribute(x, "id", "gone").unwrap();
        assert_eq!(s.element_by_id("uno"), Some(y));
    }

    #[test]
    fn queries_see_updates() {
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let c = s.append_element(r, "b").unwrap();
        s.append_text(c, "again").unwrap();
        // The axes reflect the new structure and order.
        let bs = axis_nodes(&s, Axis::Descendant, r)
            .into_iter()
            .filter(|&n| s.node_name(n) == "b")
            .count();
        assert_eq!(bs, 2);
        orders_valid(&s);
    }

    #[test]
    fn document_root_constraints() {
        let mut s = doc();
        assert_eq!(s.append_element(s.root(), "second-root").unwrap_err().class(), "root-occupied");
        let r = s.first_child(s.root()).unwrap();
        assert!(s.remove_subtree(r).is_ok(), "removing the root element is allowed");
        assert_eq!(to_xml(&s), "");
        // Now a new root may be appended.
        assert!(s.append_element(s.root(), "fresh").is_ok());
        assert_eq!(to_xml(&s), "<fresh/>");
        index_matches_rebuild(&s);
    }

    #[test]
    fn repair_failpoint_aborts_nth_repair() {
        use crate::fault::RepairFailPoint;
        let mut s = doc();
        s.set_repair_failpoint(RepairFailPoint { fail_repair_at: Some(2) });
        let r = s.first_child(s.root()).unwrap();
        s.append_element(r, "c").unwrap();
        let e = s.append_element(r, "d").unwrap_err();
        assert_eq!(e, UpdateError::RepairAborted);
        // The store is now poisoned by contract; callers discard it. The
        // only guarantee here is the typed error (no panic).
    }

    #[test]
    fn repair_failpoint_counts_from_arming() {
        use crate::fault::RepairFailPoint;
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        // Repairs before the failpoint is armed do not count toward it.
        s.append_element(r, "c").unwrap();
        s.append_element(r, "d").unwrap();
        s.set_repair_failpoint(RepairFailPoint { fail_repair_at: Some(2) });
        s.append_element(r, "e").unwrap();
        assert_eq!(s.append_element(r, "f").unwrap_err(), UpdateError::RepairAborted);
    }

    #[test]
    fn serialize_reparse_roundtrip_after_each_mutation_kind() {
        // After every kind of mutation, serializing and reparsing must
        // reproduce the same serialized form (the store stays a valid
        // XPath data model instance).
        let mut s = doc();
        let roundtrip = |s: &ArenaStore| {
            let xml = to_xml(s);
            let re = parse_document(&xml).unwrap();
            assert_eq!(to_xml(&re), xml, "serialize→reparse must be a fixpoint");
            index_matches_rebuild(s);
        };
        let r = s.first_child(s.root()).unwrap();
        let a = s.first_child(r).unwrap();
        let t = s.first_child(a).unwrap();
        s.set_content(t, "uno").unwrap();
        roundtrip(&s);
        s.set_attribute(a, "x", "2").unwrap();
        roundtrip(&s);
        s.set_attribute(a, "fresh", "f").unwrap();
        roundtrip(&s);
        let c = s.append_element(r, "c").unwrap();
        roundtrip(&s);
        s.append_text(c, "three").unwrap();
        roundtrip(&s);
        s.insert_element_before(c, "mid").unwrap();
        roundtrip(&s);
        s.remove_attribute(a, "x").unwrap();
        roundtrip(&s);
        s.move_subtree(c, a).unwrap();
        roundtrip(&s);
        s.remove_subtree(a).unwrap();
        roundtrip(&s);
    }

    #[test]
    fn persist_after_update_roundtrips() {
        use crate::diskstore::DiskStore;
        use crate::tmp::TempPath;
        let mut s = doc();
        let r = s.first_child(s.root()).unwrap();
        let c = s.append_element(r, "c").unwrap();
        s.append_text(c, "3").unwrap();
        let t = TempPath::new(".natix");
        let disk = DiskStore::create_from(&s, t.path(), 4).unwrap();
        assert_eq!(to_xml(&disk), to_xml(&s));
    }

    /// Every `id` value resolves as a full rebuild of the id index (the
    /// `renumber` walk over the same node ids) resolves it.
    fn ids_match_rebuild(s: &ArenaStore, values: &[String]) {
        let mut rebuilt = s.clone();
        rebuilt.renumber();
        for v in values {
            assert_eq!(s.element_by_id(v), rebuilt.element_by_id(v), "id {v}");
        }
    }

    #[test]
    fn unique_ids_stay_unshared_through_record_removals() {
        // A DBLP-shaped document: every record owns a unique id and
        // reaches the document's max depth.
        let mut b = crate::arena::ArenaBuilder::new();
        b.start_element("dblp");
        for i in 0..20 {
            b.start_element("article");
            b.attribute("id", &format!("r{i}"));
            b.start_element("title");
            b.text("t");
            b.end_element();
            b.end_element();
        }
        b.end_element();
        let mut s = b.finish();
        let values: Vec<String> = (0..20).map(|i| format!("r{i}")).collect();
        let dblp = s.first_child(s.root()).unwrap();
        for _ in 0..5 {
            let record = s.first_child(dblp).unwrap();
            s.remove_subtree(record).unwrap();
            let rebuilt = StructuralIndex::build(&s);
            assert_eq!(s.structural_index().unwrap(), &rebuilt);
            ids_match_rebuild(&s, &values);
        }
        assert_eq!(s.shared_id_count(), Some(0), "unique ids never need a rescan");
    }

    #[test]
    fn depth_histogram_and_shared_ids_match_rebuild_under_random_updates() {
        let mut rng = 0x2026_1017_u64;
        let mut next = move |n: u64| {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n.max(1)
        };
        let mut b = crate::arena::ArenaBuilder::new();
        b.start_element("r");
        for i in 0..6 {
            b.start_element("a");
            b.attribute("id", &format!("v{}", i % 3));
            b.start_element("b");
            b.start_element("c");
            b.text("deep");
            b.end_element();
            b.end_element();
            b.end_element();
        }
        b.end_element();
        let mut s = b.finish();
        let values: Vec<String> = (0..5).map(|i| format!("v{i}")).collect();
        for step in 0..300 {
            let idx = s.structural_index().unwrap();
            let target = idx.node_at(next(idx.len() as u64) as u32);
            let other = idx.node_at(next(idx.len() as u64) as u32);
            let value = &values[next(values.len() as u64) as usize];
            // Typed errors (wrong kind, cycle, root occupied) skip the op.
            let _ = match next(7) {
                0 => s.append_element(target, "d").map(drop),
                1 => s.insert_element_before(target, "e").map(drop),
                2 => s.set_attribute(target, "id", value).map(drop),
                3 => s.remove_attribute(target, "id").map(drop),
                4 if idx.len() > 30 => s.remove_subtree(target),
                5 => s.move_subtree(target, other),
                _ => s.set_content(target, value),
            };
            let rebuilt = StructuralIndex::build(&s);
            assert_eq!(s.structural_index().unwrap(), &rebuilt, "step {step}");
            ids_match_rebuild(&s, &values);
        }
        assert!(s.repair_stats().incremental > 100, "{:?}", s.repair_stats());
    }
}
