//! The thirteen XPath 1.0 axes as iterators in *axis order*.
//!
//! Forward axes yield document order; reverse axes (`ancestor`,
//! `ancestor-or-self`, `preceding`, `preceding-sibling`, `parent`) yield
//! reverse document order, so `position()` counted over an axis iterator is
//! already the XPath proximity position.
//!
//! The `namespace` axis is accepted but yields nothing: the stores do not
//! materialise namespace nodes (see crate docs).

use crate::node::{NameId, NodeId, NodeKind};
use crate::store::{NodeRec, PagePin, XmlStore};

/// An XPath axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Axis {
    Child,
    Descendant,
    Parent,
    Ancestor,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
    Attribute,
    Namespace,
    SelfAxis,
    DescendantOrSelf,
    AncestorOrSelf,
}

impl Axis {
    /// Parse an axis name as written in XPath (full names only; the
    /// abbreviations of the paper's Fig. 5 are handled by the bench crate).
    pub fn from_name(name: &str) -> Option<Axis> {
        Some(match name {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "attribute" => Axis::Attribute,
            "namespace" => Axis::Namespace,
            "self" => Axis::SelfAxis,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            _ => return None,
        })
    }

    /// Canonical axis name.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::Attribute => "attribute",
            Axis::Namespace => "namespace",
            Axis::SelfAxis => "self",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::AncestorOrSelf => "ancestor-or-self",
        }
    }

    /// True for reverse axes (axis order = reverse document order).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
        )
    }

    /// Principal node kind of the axis (XPath §2.3): attributes for the
    /// attribute axis, elements otherwise (namespace axis unsupported).
    pub fn principal_kind(self) -> NodeKind {
        match self {
            Axis::Attribute => NodeKind::Attribute,
            _ => NodeKind::Element,
        }
    }

    /// Paper §4.1: axes that *potentially produce duplicates* (ppd) when
    /// applied to a duplicate-free context sequence.
    pub fn is_ppd(self) -> bool {
        matches!(
            self,
            Axis::Following
                | Axis::FollowingSibling
                | Axis::Preceding
                | Axis::PrecedingSibling
                | Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Descendant
                | Axis::DescendantOrSelf
        )
    }

    /// The axes whose result from one node is a rank interval of the
    /// structural index (a subtree or what precedes / follows it), so a
    /// range scan serves them.
    #[inline]
    pub fn is_interval(self) -> bool {
        matches!(
            self,
            Axis::Descendant | Axis::DescendantOrSelf | Axis::Following | Axis::Preceding
        )
    }

    /// True if, from any single context node, the axis result is guaranteed
    /// duplicate-free *and* in document order already (used by the engines
    /// to skip per-node sorting).
    pub fn single_node_result_sorted(self) -> bool {
        !self.is_reverse()
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deepest last descendant of `n` (the node that ends `n`'s subtree in
/// document order), or `n` itself if it has no children.
fn deepest_last(store: &dyn XmlStore, pin: &mut PagePin, mut n: NodeId) -> NodeId {
    while let Some(c) = store.node(n, pin).last_child() {
        n = c;
    }
    n
}

/// Next node in document preorder after the node whose record is `rec`,
/// optionally skipping that node's subtree. Attributes are not visited
/// (they are not on the child axis); starting *from* an attribute climbs
/// to its owner first.
fn next_preorder(
    store: &dyn XmlStore,
    pin: &mut PagePin,
    rec: NodeRec,
    skip_children: bool,
) -> Option<NodeId> {
    let mut rec = if rec.kind() == NodeKind::Attribute {
        // Doc order continues with the owner's children.
        let owner = store.node(rec.parent()?, pin);
        if owner.first_child().is_some() {
            return owner.first_child();
        }
        owner
    } else {
        if !skip_children && rec.first_child().is_some() {
            return rec.first_child();
        }
        rec
    };
    loop {
        if rec.next_sibling().is_some() {
            return rec.next_sibling();
        }
        rec = store.node(rec.parent()?, pin);
    }
}

/// What the cursor yields next. Every walk state names the node to yield;
/// its record is read once, when it is yielded, and the successor is
/// worked out from that record.
#[derive(Default)]
enum State {
    /// Yield at most one node (`self`, `parent`).
    Once(Option<NodeId>),
    /// Chains along one link: parent, next sibling (children, attributes,
    /// following siblings), previous sibling.
    Ancestors(Option<NodeId>),
    NextSiblings(Option<NodeId>),
    PrevSiblings(Option<NodeId>),
    /// Preorder walk inside the subtree rooted at `root`.
    Subtree {
        root: NodeId,
        next: Option<NodeId>,
    },
    /// Document-order walk for `following`.
    Following(Option<NodeId>),
    /// Reverse document-order walk for `preceding` (skipping ancestors):
    /// consume the previous-sibling subtrees of each ancestor-or-self node,
    /// each subtree in reverse preorder.
    Preceding {
        /// Ancestor-or-self node whose previous siblings are next.
        anc: Option<NodeId>,
        /// Active subtree walk: (subtree root, node to yield next).
        walk: Option<(NodeId, NodeId)>,
    },
    #[default]
    Done,
}

/// Store-free axis cursor: holds the traversal state, kind and name of
/// the node it yielded last and the page that node's record came from
/// ([`PagePin`]), so physical operators can embed it without borrowing
/// the store. Every advance takes the store explicitly and reads each
/// visited record once, through [`XmlStore::node`]; on a paged store a
/// walk therefore costs one buffer-manager call per page change.
///
/// One cursor serves any number of walks: [`AxisCursor::start`] re-aims
/// it and keeps the held page, which the next context's records usually
/// share. [`AxisCursor::release`] (or dropping the cursor) lets the page
/// go. The default cursor is at rest: nothing to yield, no page held.
pub struct AxisCursor {
    state: State,
    /// Kind and name of the node yielded last. Only these two fields of
    /// its record are kept: copying the whole record out of the store's
    /// return slot costs more than the store call itself.
    kind: NodeKind,
    name: Option<NameId>,
    pin: PagePin,
}

impl Default for AxisCursor {
    fn default() -> AxisCursor {
        AxisCursor {
            state: State::Done,
            kind: NodeRec::INERT.kind(),
            name: None,
            pin: PagePin::default(),
        }
    }
}

impl AxisCursor {
    /// Start the `axis` from context node `n`.
    pub fn new(store: &dyn XmlStore, axis: Axis, n: NodeId) -> AxisCursor {
        let mut cursor = AxisCursor::default();
        cursor.start(store, axis, n);
        cursor
    }

    /// Re-aim at the `axis` from context node `n`, keeping the held page.
    /// The context's record is read only by the axes that need it.
    pub fn start(&mut self, store: &dyn XmlStore, axis: Axis, n: NodeId) {
        let pin = &mut self.pin;
        self.state = match axis {
            Axis::SelfAxis => State::Once(Some(n)),
            Axis::Parent => State::Once(store.node(n, pin).parent()),
            Axis::Child => State::NextSiblings(store.node(n, pin).first_child()),
            Axis::Ancestor => State::Ancestors(store.node(n, pin).parent()),
            Axis::AncestorOrSelf => State::Ancestors(Some(n)),
            Axis::FollowingSibling => match store.node(n, pin) {
                rec if rec.kind() == NodeKind::Attribute => State::Done,
                rec => State::NextSiblings(rec.next_sibling()),
            },
            Axis::PrecedingSibling => match store.node(n, pin) {
                rec if rec.kind() == NodeKind::Attribute => State::Done,
                rec => State::PrevSiblings(rec.prev_sibling()),
            },
            Axis::Attribute => match store.node(n, pin) {
                // Attributes chain through their next-sibling links.
                rec if rec.kind() == NodeKind::Element => {
                    State::NextSiblings(rec.first_attribute())
                }
                _ => State::Done,
            },
            Axis::Namespace => State::Done,
            Axis::Descendant => State::Subtree { root: n, next: store.node(n, pin).first_child() },
            Axis::DescendantOrSelf => State::Subtree { root: n, next: Some(n) },
            Axis::Following => {
                let rec = store.node(n, pin);
                State::Following(next_preorder(store, pin, rec, true))
            }
            Axis::Preceding => {
                let rec = store.node(n, pin);
                let start = if rec.kind() == NodeKind::Attribute {
                    rec.parent().unwrap_or(n)
                } else {
                    n
                };
                State::Preceding { anc: Some(start), walk: None }
            }
        };
    }

    /// Re-aim at the children of `n` in reverse document order: from its
    /// last child back over the preceding siblings (a tail window's
    /// reversed child step).
    pub fn start_children_reversed(&mut self, store: &dyn XmlStore, n: NodeId) {
        self.state = State::PrevSiblings(store.node(n, &mut self.pin).last_child());
    }

    /// Stop walking and let the held page go.
    pub fn release(&mut self) {
        self.state = State::Done;
        self.pin.release();
    }

    /// Kind of the node the last [`AxisCursor::advance`] yielded (node
    /// tests read it here instead of asking the store again).
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Name of the node the last [`AxisCursor::advance`] yielded.
    pub fn name(&self) -> Option<NameId> {
        self.name
    }

    /// Next node on the axis, or `None` when exhausted.
    pub fn advance(&mut self, store: &dyn XmlStore) -> Option<NodeId> {
        let pin = &mut self.pin;
        // Every arm reads the record of the node it yields exactly once
        // and works the successor out from it.
        let (n, rec) = match &mut self.state {
            State::Done => return None,
            State::Once(n) => {
                let n = n.take()?;
                (n, store.node(n, pin))
            }
            State::Ancestors(cur) => {
                let n = (*cur)?;
                let rec = store.node(n, pin);
                *cur = rec.parent();
                (n, rec)
            }
            State::NextSiblings(cur) => {
                let n = (*cur)?;
                let rec = store.node(n, pin);
                *cur = rec.next_sibling();
                (n, rec)
            }
            State::PrevSiblings(cur) => {
                let n = (*cur)?;
                let rec = store.node(n, pin);
                *cur = rec.prev_sibling();
                (n, rec)
            }
            State::Subtree { root, next } => {
                let n = (*next)?;
                let rec = store.node(n, pin);
                // Preorder successor bounded by `root`.
                *next = rec.first_child().or_else(|| {
                    let (mut up, mut up_rec) = (n, rec);
                    loop {
                        if up == *root {
                            break None;
                        }
                        if up_rec.next_sibling().is_some() {
                            break up_rec.next_sibling();
                        }
                        up = up_rec.parent()?;
                        up_rec = store.node(up, pin);
                    }
                });
                (n, rec)
            }
            State::Following(cur) => {
                let n = (*cur)?;
                let rec = store.node(n, pin);
                *cur = next_preorder(store, pin, rec, false);
                (n, rec)
            }
            State::Preceding { anc, walk } => loop {
                if let Some((root, cur)) = *walk {
                    let rec = store.node(cur, pin);
                    *walk = match (rec.prev_sibling(), rec.parent()) {
                        // Subtree done when its root was yielded; either
                        // way the walk continues below the previous
                        // sibling, if any.
                        (Some(ps), _) => {
                            let root = if cur == root { ps } else { root };
                            Some((root, deepest_last(store, pin, ps)))
                        }
                        (None, _) if cur == root => None,
                        // Reverse preorder step inside the subtree.
                        (None, Some(p)) => Some((root, p)),
                        // Unreachable on an intact store (we are strictly
                        // inside the subtree rooted at `root`); on a
                        // corrupted one the missing parent link ends the
                        // walk instead of panicking.
                        (None, None) => None,
                    };
                    break (cur, rec);
                }
                let Some(a) = anc.take() else {
                    self.state = State::Done;
                    return None;
                };
                let above = store.node(a, pin);
                *anc = above.parent();
                if let Some(ps) = above.prev_sibling() {
                    *walk = Some((ps, deepest_last(store, pin, ps)));
                }
            },
        };
        (self.kind, self.name) = (rec.kind(), rec.name());
        Some(n)
    }
}

/// Iterator adaptor over [`AxisCursor`] for callers that can hold the
/// store borrow.
pub struct AxisIter<'a> {
    store: &'a dyn XmlStore,
    cursor: AxisCursor,
}

impl<'a> AxisIter<'a> {
    /// Start the `axis` from context node `n`.
    pub fn new(store: &'a dyn XmlStore, axis: Axis, n: NodeId) -> AxisIter<'a> {
        AxisIter { store, cursor: AxisCursor::new(store, axis, n) }
    }
}

impl<'a> Iterator for AxisIter<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.cursor.advance(self.store)
    }
}

/// Convenience: collect an axis into a vector (tests, interpreters).
pub fn axis_nodes(store: &dyn XmlStore, axis: Axis, n: NodeId) -> Vec<NodeId> {
    AxisIter::new(store, axis, n).collect()
}

/// Like [`axis_nodes`], but preferring the store's structural interval
/// index: the four interval axes become range scans
/// ([`StructuralIndex::range_scan`](crate::index::StructuralIndex::range_scan)),
/// everything else — and every store without an index — goes through the
/// cursor. Axis order is identical by construction; the differential
/// suites assert it.
pub fn indexed_axis_nodes(store: &dyn XmlStore, axis: Axis, n: NodeId) -> Vec<NodeId> {
    if let Some(idx) = store.structural_index() {
        if let Some(mut scan) = idx.range_scan(axis, n) {
            let mut out = Vec::new();
            while let Some(rank) = scan.advance(idx) {
                out.push(idx.node_at(rank));
            }
            return out;
        }
    }
    axis_nodes(store, axis, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{ArenaBuilder, ArenaStore};
    use crate::store::XmlStore;

    /// <r><a><b/><c><d/></c></a><e/><f><g/></f></r>
    fn sample() -> (ArenaStore, std::collections::HashMap<&'static str, NodeId>) {
        let mut b = ArenaBuilder::new();
        let mut m = std::collections::HashMap::new();
        m.insert("r", b.start_element("r"));
        m.insert("a", b.start_element("a"));
        m.insert("b", b.start_element("b"));
        b.end_element();
        m.insert("c", b.start_element("c"));
        m.insert("d", b.start_element("d"));
        b.end_element();
        b.end_element();
        b.end_element();
        m.insert("e", b.start_element("e"));
        b.end_element();
        m.insert("f", b.start_element("f"));
        m.insert("g", b.start_element("g"));
        b.end_element();
        b.end_element();
        b.end_element();
        (b.finish(), m)
    }

    fn names(s: &ArenaStore, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| s.node_name(n)).collect()
    }

    #[test]
    fn child_axis() {
        let (s, m) = sample();
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Child, m["r"])), ["a", "e", "f"]);
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Child, m["b"])), Vec::<String>::new());
    }

    #[test]
    fn descendant_axis_in_doc_order() {
        let (s, m) = sample();
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Descendant, m["a"])), ["b", "c", "d"]);
        assert_eq!(
            names(&s, &axis_nodes(&s, Axis::Descendant, m["r"])),
            ["a", "b", "c", "d", "e", "f", "g"]
        );
    }

    #[test]
    fn descendant_or_self_includes_self_first() {
        let (s, m) = sample();
        assert_eq!(names(&s, &axis_nodes(&s, Axis::DescendantOrSelf, m["c"])), ["c", "d"]);
    }

    #[test]
    fn ancestor_axes_reverse_order() {
        let (s, m) = sample();
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Ancestor, m["d"])), ["c", "a", "r", ""]);
        assert_eq!(
            names(&s, &axis_nodes(&s, Axis::AncestorOrSelf, m["d"])),
            ["d", "c", "a", "r", ""]
        );
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Parent, m["d"])), ["c"]);
    }

    #[test]
    fn sibling_axes() {
        let (s, m) = sample();
        assert_eq!(names(&s, &axis_nodes(&s, Axis::FollowingSibling, m["a"])), ["e", "f"]);
        assert_eq!(names(&s, &axis_nodes(&s, Axis::PrecedingSibling, m["f"])), ["e", "a"]);
    }

    #[test]
    fn following_axis_excludes_descendants() {
        let (s, m) = sample();
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Following, m["a"])), ["e", "f", "g"]);
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Following, m["d"])), ["e", "f", "g"]);
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Following, m["g"])), Vec::<String>::new());
    }

    #[test]
    fn preceding_axis_excludes_ancestors_reverse_order() {
        let (s, m) = sample();
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Preceding, m["e"])), ["d", "c", "b", "a"]);
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Preceding, m["d"])), ["b"]);
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Preceding, m["a"])), Vec::<String>::new());
    }

    #[test]
    fn self_axis() {
        let (s, m) = sample();
        assert_eq!(axis_nodes(&s, Axis::SelfAxis, m["c"]), vec![m["c"]]);
    }

    #[test]
    fn attribute_axis_only_from_elements() {
        let mut b = ArenaBuilder::new();
        b.start_element("x");
        b.attribute("p", "1");
        b.attribute("q", "2");
        b.text("t");
        b.end_element();
        let s = b.finish();
        let x = s.first_child(s.root()).unwrap();
        let attrs = axis_nodes(&s, Axis::Attribute, x);
        assert_eq!(names(&s, &attrs), ["p", "q"]);
        let t = s.first_child(x).unwrap();
        assert!(axis_nodes(&s, Axis::Attribute, t).is_empty());
    }

    #[test]
    fn axes_from_attribute_node() {
        let mut b = ArenaBuilder::new();
        b.start_element("r");
        b.start_element("x");
        b.attribute("p", "1");
        b.start_element("y");
        b.end_element();
        b.end_element();
        b.start_element("z");
        b.end_element();
        b.end_element();
        let s = b.finish();
        let r = s.first_child(s.root()).unwrap();
        let x = s.first_child(r).unwrap();
        let p = s.first_attribute(x).unwrap();
        // parent of attribute is the owner element
        assert_eq!(axis_nodes(&s, Axis::Parent, p), vec![x]);
        // attributes have no siblings on the sibling axes
        assert!(axis_nodes(&s, Axis::FollowingSibling, p).is_empty());
        assert!(axis_nodes(&s, Axis::PrecedingSibling, p).is_empty());
        // following of the attribute includes the owner's subtree
        assert_eq!(names(&s, &axis_nodes(&s, Axis::Following, p)), ["y", "z"]);
        // preceding of the attribute = preceding of the owner
        assert_eq!(axis_nodes(&s, Axis::Preceding, p), axis_nodes(&s, Axis::Preceding, x));
    }

    #[test]
    fn axis_partition_property() {
        // self ∪ ancestor ∪ descendant ∪ preceding ∪ following partitions
        // the non-attribute nodes of the document (XPath §2.2).
        let (s, m) = sample();
        for &n in m.values() {
            let mut all: Vec<NodeId> = Vec::new();
            for ax in [
                Axis::SelfAxis,
                Axis::Ancestor,
                Axis::Descendant,
                Axis::Preceding,
                Axis::Following,
            ] {
                all.extend(axis_nodes(&s, ax, n));
            }
            all.sort();
            let mut expect: Vec<NodeId> = (0..s.node_count() as u32)
                .map(NodeId)
                .filter(|&x| s.kind(x) != NodeKind::Attribute)
                .collect();
            expect.sort();
            all.dedup();
            assert_eq!(all, expect, "partition failed for {}", s.node_name(n));
        }
    }

    #[test]
    fn axis_parse_roundtrip() {
        for ax in [
            Axis::Child,
            Axis::Descendant,
            Axis::Parent,
            Axis::Ancestor,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::Following,
            Axis::Preceding,
            Axis::Attribute,
            Axis::Namespace,
            Axis::SelfAxis,
            Axis::DescendantOrSelf,
            Axis::AncestorOrSelf,
        ] {
            assert_eq!(Axis::from_name(ax.name()), Some(ax));
        }
        assert_eq!(Axis::from_name("sideways"), None);
    }

    #[test]
    fn ppd_classification_matches_paper() {
        use Axis::*;
        for ax in [
            Following,
            FollowingSibling,
            Preceding,
            PrecedingSibling,
            Parent,
            Ancestor,
            AncestorOrSelf,
            Descendant,
            DescendantOrSelf,
        ] {
            assert!(ax.is_ppd(), "{ax} should be ppd");
        }
        for ax in [Child, Attribute, SelfAxis, Namespace] {
            assert!(!ax.is_ppd(), "{ax} should not be ppd");
        }
    }
}
