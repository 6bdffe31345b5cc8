//! The [`XmlStore`] trait: the narrow navigation interface both query
//! engines evaluate against.
//!
//! This mirrors the role of the Natix page-buffer navigation primitives
//! (paper §5.2.2): location steps and node tests are resolved directly
//! against the stored representation — no separate main-memory DOM is built.

use std::borrow::Cow;

use crate::buffer::{BufferStats, PageRef};
use crate::error::StorageFault;
use crate::index::StructuralIndex;
use crate::node::{NameId, NodeId, NodeKind};

/// What a content-index key addresses: attribute values or the text
/// content of leaf-ish elements (see [`XmlStore::content_probe`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentKind {
    /// `name` is an attribute name; postings are the owning elements of
    /// attributes whose value equals the probe value.
    Attribute,
    /// `name` is an element name; postings are elements with that name,
    /// no element children, and a string-value equal to the probe value.
    Element,
}

/// "No node" / "no name" in a [`NodeRec`] field — and in the arena's
/// nodes and the page file's records, which is what lets both stores fill
/// a `NodeRec` without translating.
pub(crate) const NIL: u32 = u32::MAX;

/// The fixed fields of one node's record, read together by
/// [`XmlStore::node`]: everything navigation and node tests look at,
/// nothing that needs a second page (the value, the order key).
///
/// Links and the name are kept as the stores keep them — a `u32` with an
/// all-ones "none" — and handed out as `Option`s by the accessors, so the
/// record is 32 bytes that a store fills with plain word copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRec {
    pub(crate) kind: NodeKind,
    pub(crate) name: u32,
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) last_child: u32,
    pub(crate) next_sibling: u32,
    pub(crate) prev_sibling: u32,
    pub(crate) first_attribute: u32,
}

fn link(v: u32) -> Option<NodeId> {
    (v != NIL).then_some(NodeId(v))
}

fn raw(v: Option<NodeId>) -> u32 {
    v.map_or(NIL, |n| n.0)
}

impl NodeRec {
    /// What a paged store answers after a storage fault: an unnamed text
    /// node without links, so every walk over it ends.
    pub const INERT: NodeRec = NodeRec {
        kind: NodeKind::Text,
        name: NIL,
        parent: NIL,
        first_child: NIL,
        last_child: NIL,
        next_sibling: NIL,
        prev_sibling: NIL,
        first_attribute: NIL,
    };

    /// [`XmlStore::kind`].
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// [`XmlStore::name`].
    pub fn name(&self) -> Option<NameId> {
        (self.name != NIL).then_some(NameId(self.name))
    }

    /// [`XmlStore::parent`].
    pub fn parent(&self) -> Option<NodeId> {
        link(self.parent)
    }

    /// [`XmlStore::first_child`].
    pub fn first_child(&self) -> Option<NodeId> {
        link(self.first_child)
    }

    /// [`XmlStore::last_child`].
    pub fn last_child(&self) -> Option<NodeId> {
        link(self.last_child)
    }

    /// [`XmlStore::next_sibling`].
    pub fn next_sibling(&self) -> Option<NodeId> {
        link(self.next_sibling)
    }

    /// [`XmlStore::prev_sibling`].
    pub fn prev_sibling(&self) -> Option<NodeId> {
        link(self.prev_sibling)
    }

    /// [`XmlStore::first_attribute`].
    pub fn first_attribute(&self) -> Option<NodeId> {
        link(self.first_attribute)
    }
}

/// Holds at most one buffer page on behalf of a walk, so that
/// consecutive [`XmlStore::node`] calls landing on one page cost one
/// buffer-manager call between them. The page stays pinned (it cannot
/// be chosen as an eviction victim) for as long as it is held: until a
/// `node` call needs a different page, until [`PagePin::release`], or
/// until the value is dropped. Main-memory stores never fill it.
///
/// A pin belongs to the store that filled it; release it before handing
/// the same value to another store.
#[derive(Default)]
pub struct PagePin {
    /// The held page and its number in the store's file.
    pub(crate) held: Option<(u32, PageRef)>,
}

impl PagePin {
    /// Let the held page go, if any.
    pub fn release(&mut self) {
        self.held = None;
    }
}

impl std::fmt::Debug for PagePin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagePin")
            .field("page", &self.held.as_ref().map(|(no, _)| no))
            .finish()
    }
}

/// Read interface over one stored XML document.
///
/// Implemented by [`ArenaStore`](crate::arena::ArenaStore) (main memory) and
/// [`DiskStore`](crate::diskstore::DiskStore) (slotted pages behind a buffer
/// manager). All navigation used by the physical algebra goes through this
/// trait, so plans are storage-agnostic.
///
/// `Sync` is a supertrait: the Exchange operator shares one store across
/// its worker threads. Both implementations already qualify — the arena
/// is immutable after build, and the disk store's buffer manager and
/// fault latch are lock-protected.
pub trait XmlStore: Sync {
    /// The document node (always [`NodeId::DOCUMENT`]).
    fn root(&self) -> NodeId {
        NodeId::DOCUMENT
    }

    /// Total number of nodes (including the document node and attributes).
    fn node_count(&self) -> usize;

    /// Kind of `n`.
    fn kind(&self, n: NodeId) -> NodeKind;

    /// Interned name of `n` (elements, attributes, PI targets).
    fn name(&self, n: NodeId) -> Option<NameId>;

    /// Textual content of `n` (text, comment, attribute, PI payload).
    /// `None` for elements and the document node.
    fn value(&self, n: NodeId) -> Option<String>;

    /// Parent node. Attributes report their owning element as parent even
    /// though they are not on its child axis.
    fn parent(&self, n: NodeId) -> Option<NodeId>;

    /// First node on the child axis (attributes excluded).
    fn first_child(&self, n: NodeId) -> Option<NodeId>;

    /// Last node on the child axis.
    fn last_child(&self, n: NodeId) -> Option<NodeId>;

    /// Next sibling on the child axis (or within the attribute list, for
    /// attribute nodes).
    fn next_sibling(&self, n: NodeId) -> Option<NodeId>;

    /// Previous sibling (see [`XmlStore::next_sibling`]).
    fn prev_sibling(&self, n: NodeId) -> Option<NodeId>;

    /// First attribute of an element, if any.
    fn first_attribute(&self, n: NodeId) -> Option<NodeId>;

    /// Kind, name and every link of `n` in one call. Paged stores answer
    /// from the page `pin` holds when `n`'s record lies on it and swap
    /// the held page otherwise, so a walk that carries one `pin` costs
    /// one buffer-manager call per page change instead of one per field.
    /// Agrees field by field with the eight plain accessors; this
    /// default composes them and leaves `pin` alone.
    fn node(&self, n: NodeId, pin: &mut PagePin) -> NodeRec {
        let _ = pin;
        NodeRec {
            kind: self.kind(n),
            name: self.name(n).map_or(NIL, |id| id.0),
            parent: raw(self.parent(n)),
            first_child: raw(self.first_child(n)),
            last_child: raw(self.last_child(n)),
            next_sibling: raw(self.next_sibling(n)),
            prev_sibling: raw(self.prev_sibling(n)),
            first_attribute: raw(self.first_attribute(n)),
        }
    }

    /// Document-order rank of `n`. Ranks totally order all nodes of the
    /// document; attributes rank after their element and before its children.
    fn order(&self, n: NodeId) -> u64;

    /// Resolve a textual name to its interned id, if the name occurs in the
    /// document at all. Name tests against unknown names match nothing.
    fn intern_lookup(&self, name: &str) -> Option<NameId>;

    /// Resolve an interned name back to text.
    fn name_text(&self, id: NameId) -> String;

    /// The element whose `id` attribute (DTD-less approximation of an ID
    /// attribute, as in the paper's generated documents) equals `idval`.
    fn element_by_id(&self, idval: &str) -> Option<NodeId>;

    /// XPath string-value of `n`: concatenated descendant text for elements
    /// and the document node, the content otherwise.
    fn string_value(&self, n: NodeId) -> String {
        match self.kind(n) {
            NodeKind::Document | NodeKind::Element => {
                let mut out = String::new();
                self.collect_text(n, &mut out);
                out
            }
            _ => self.value(n).unwrap_or_default(),
        }
    }

    /// [`XmlStore::value`] without the copy where the store can lend the
    /// text: main-memory stores borrow it, paged stores (whose bytes live
    /// in evictable buffer frames) keep the owned default.
    fn value_ref(&self, n: NodeId) -> Option<Cow<'_, str>> {
        self.value(n).map(Cow::Owned)
    }

    /// [`XmlStore::string_value`] without the copy where the store can
    /// lend the text (see [`XmlStore::value_ref`]). Comparisons and
    /// conversions read through this; only callers that keep the string
    /// need the owned form.
    fn string_value_ref(&self, n: NodeId) -> Cow<'_, str> {
        Cow::Owned(self.string_value(n))
    }

    /// Append the concatenated text content of the subtree rooted at `n`.
    fn collect_text(&self, n: NodeId, out: &mut String) {
        let mut child = self.first_child(n);
        while let Some(c) = child {
            match self.kind(c) {
                NodeKind::Text => {
                    if let Some(v) = self.value(c) {
                        out.push_str(&v);
                    }
                }
                NodeKind::Element => self.collect_text(c, out),
                _ => {}
            }
            child = self.next_sibling(c);
        }
    }

    /// Name of `n` as text ("" if unnamed), i.e. the XPath `name()` result.
    fn node_name(&self, n: NodeId) -> String {
        self.name(n).map(|id| self.name_text(id)).unwrap_or_default()
    }

    /// Attribute of element `n` with the given interned name.
    fn attribute_named(&self, n: NodeId, name: NameId) -> Option<NodeId> {
        let mut a = self.first_attribute(n);
        while let Some(att) = a {
            if self.name(att) == Some(name) {
                return Some(att);
            }
            a = self.next_sibling(att);
        }
        None
    }

    /// Convenience: attribute string value by textual name.
    fn attribute_value(&self, n: NodeId, name: &str) -> Option<String> {
        let id = self.intern_lookup(name)?;
        self.attribute_named(n, id).and_then(|a| self.value(a))
    }

    /// The structural interval index over this document, if the store
    /// maintains one (see [`StructuralIndex`]). `None` means consumers
    /// must navigate with cursors and `order()` lookups.
    fn structural_index(&self) -> Option<&StructuralIndex> {
        None
    }

    /// Equality probe against a persistent content index, if the store
    /// maintains one (only [`DiskStore`](crate::diskstore::DiskStore)
    /// does). Returns the matching postings as `(document-order rank,
    /// node)` pairs sorted ascending by rank:
    ///
    /// * [`ContentKind::Attribute`] — owning elements of attributes named
    ///   `name` whose value equals `value` exactly;
    /// * [`ContentKind::Element`] — elements named `name` with no element
    ///   children whose string-value equals `value` exactly.
    ///
    /// `None` means the key is not covered (no index, an uncovered
    /// element name, or an over-length value) and the caller must fall back
    /// to a scan. `Some(vec![])` is a definitive miss.
    fn content_probe(
        &self,
        kind: ContentKind,
        name: &str,
        value: &str,
    ) -> Option<Vec<(u32, NodeId)>> {
        let _ = (kind, name, value);
        None
    }

    /// True if `a` strictly precedes `b` in document order. O(1) on
    /// indexed stores.
    fn doc_lt(&self, a: NodeId, b: NodeId) -> bool {
        if let Some(lt) = self.structural_index().and_then(|idx| idx.doc_lt(a, b)) {
            return lt;
        }
        self.order(a) < self.order(b)
    }

    /// True if `anc` is an ancestor of `n` (proper; `n` itself excluded).
    /// An interval containment check on indexed stores, a parent-chain
    /// walk otherwise.
    fn is_ancestor(&self, anc: NodeId, n: NodeId) -> bool {
        if let Some(contained) = self.structural_index().and_then(|idx| idx.is_ancestor(anc, n)) {
            return contained;
        }
        let mut cur = self.parent(n);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// True once the store has recorded a storage fault (I/O failure or
    /// detected corruption) while serving navigation. Cheap; executors
    /// poll it in their tuple loops the way they poll the governor.
    fn storage_tripped(&self) -> bool {
        false
    }

    /// Drain the recorded storage fault, if any. After a drain the store
    /// reports untripped again (a reopened query starts clean).
    fn take_storage_fault(&self) -> Option<StorageFault> {
        None
    }

    /// Buffer-manager statistics for stores that read through one
    /// (page hits/misses/evictions, checksum verification counters).
    /// `None` for main-memory stores.
    fn buffer_stats(&self) -> Option<BufferStats> {
        None
    }

    /// Number of element nodes (used by generators/tests).
    fn element_count(&self) -> usize {
        (0..self.node_count() as u32)
            .filter(|&i| self.kind(NodeId(i)) == NodeKind::Element)
            .count()
    }
}

/// Delegating wrapper that hides the inner store's structural index.
///
/// Benchmarks and differential tests wrap an indexed store in `NoIndex`
/// to exercise the cursor/hash/comparator fallback paths against the
/// very same document in the same process.
pub struct NoIndex<'a>(pub &'a dyn XmlStore);

impl XmlStore for NoIndex<'_> {
    fn root(&self) -> NodeId {
        self.0.root()
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn kind(&self, n: NodeId) -> NodeKind {
        self.0.kind(n)
    }

    fn name(&self, n: NodeId) -> Option<NameId> {
        self.0.name(n)
    }

    fn value(&self, n: NodeId) -> Option<String> {
        self.0.value(n)
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.0.parent(n)
    }

    fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.0.first_child(n)
    }

    fn last_child(&self, n: NodeId) -> Option<NodeId> {
        self.0.last_child(n)
    }

    fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.0.next_sibling(n)
    }

    fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.0.prev_sibling(n)
    }

    fn first_attribute(&self, n: NodeId) -> Option<NodeId> {
        self.0.first_attribute(n)
    }

    fn node(&self, n: NodeId, pin: &mut PagePin) -> NodeRec {
        self.0.node(n, pin)
    }

    fn order(&self, n: NodeId) -> u64 {
        self.0.order(n)
    }

    fn intern_lookup(&self, name: &str) -> Option<NameId> {
        self.0.intern_lookup(name)
    }

    fn name_text(&self, id: NameId) -> String {
        self.0.name_text(id)
    }

    fn element_by_id(&self, idval: &str) -> Option<NodeId> {
        self.0.element_by_id(idval)
    }

    fn storage_tripped(&self) -> bool {
        self.0.storage_tripped()
    }

    fn take_storage_fault(&self) -> Option<StorageFault> {
        self.0.take_storage_fault()
    }

    fn buffer_stats(&self) -> Option<BufferStats> {
        self.0.buffer_stats()
    }
}

#[cfg(test)]
mod tests {
    use crate::arena::ArenaBuilder;
    use crate::store::{NoIndex, XmlStore};

    #[test]
    fn string_value_concatenates_descendant_text() {
        let mut b = ArenaBuilder::new();
        b.start_element("a");
        b.text("x");
        b.start_element("b");
        b.text("y");
        b.end_element();
        b.text("z");
        b.end_element();
        let store = b.finish();
        assert_eq!(store.string_value(store.root()), "xyz");
    }

    #[test]
    fn borrowed_accessors_agree_with_the_owned_ones() {
        use crate::node::NodeId;
        use std::borrow::Cow;
        let store = crate::parse_document(
            r#"<r k="v"><leaf>one</leaf><mixed>a<b>b</b>c</mixed><two>x<!--c-->y</two><e/></r>"#,
        )
        .unwrap();
        let plain = NoIndex(&store);
        for i in 0..store.node_count() as u32 {
            let n = NodeId(i);
            assert_eq!(store.string_value_ref(n), store.string_value(n), "node {i}");
            assert_eq!(store.value_ref(n).as_deref(), store.value(n).as_deref(), "node {i}");
            // A store without an override serves the same text, owned.
            assert_eq!(plain.string_value_ref(n), store.string_value(n), "node {i}");
        }
        let r = store.first_child(store.root()).unwrap();
        let leaf = store.first_child(r).unwrap();
        let mixed = store.next_sibling(leaf).unwrap();
        assert!(matches!(store.string_value_ref(leaf), Cow::Borrowed("one")));
        assert!(matches!(store.string_value_ref(mixed), Cow::Owned(_)));
        assert!(matches!(
            store.value_ref(store.first_attribute(r).unwrap()),
            Some(Cow::Borrowed("v"))
        ));
    }

    #[test]
    fn node_agrees_with_the_plain_accessors_on_every_store() {
        use crate::diskstore::{create_store_file, DiskStore};
        use crate::gen::{generate_dblp, generate_tree, DblpParams, TreeParams};
        use crate::node::NodeId;
        use crate::store::PagePin;
        let docs = [
            generate_dblp(DblpParams { records: 300, seed: 7 }),
            generate_tree(TreeParams::small(700)),
            crate::parse_document(
                r#"<r a="1" b="2">t<!--c--><?pi d?><m x="y">one<i>two</i>three</m><e/></r>"#,
            )
            .unwrap(),
        ];
        for arena in &docs {
            let t = crate::tmp::TempPath::new(".natix");
            create_store_file(arena, t.path()).unwrap();
            // Two frames: the carried pin holds one while the plain
            // accessors come and go through the other.
            let disk = DiskStore::open(t.path(), 2).unwrap();
            let plain = DiskStore::open_plain(t.path(), 2).unwrap();
            let unindexed = NoIndex(arena);
            let stores: [&dyn XmlStore; 4] = [arena, &unindexed, &disk, &plain];
            for (s, store) in stores.into_iter().enumerate() {
                let count = store.node_count() as u32;
                assert_eq!(count as usize, arena.node_count());
                // One pin for the whole sweep, in id order and back.
                let mut pin = PagePin::default();
                for i in (0..count).chain((0..count).rev()) {
                    let n = NodeId(i);
                    let rec = store.node(n, &mut pin);
                    let at = format!("store {s}, node {i}");
                    assert_eq!(rec.kind(), store.kind(n), "{at}");
                    assert_eq!(rec.name(), store.name(n), "{at}");
                    assert_eq!(rec.parent(), store.parent(n), "{at}");
                    assert_eq!(rec.first_child(), store.first_child(n), "{at}");
                    assert_eq!(rec.last_child(), store.last_child(n), "{at}");
                    assert_eq!(rec.next_sibling(), store.next_sibling(n), "{at}");
                    assert_eq!(rec.prev_sibling(), store.prev_sibling(n), "{at}");
                    assert_eq!(rec.first_attribute(), store.first_attribute(n), "{at}");
                }
                assert!(!store.storage_tripped(), "store {s}");
            }
        }
    }

    #[test]
    fn attribute_value_lookup() {
        let mut b = ArenaBuilder::new();
        b.start_element("a");
        b.attribute("id", "7");
        b.attribute("k", "v");
        b.end_element();
        let store = b.finish();
        let a = store.first_child(store.root()).unwrap();
        assert_eq!(store.attribute_value(a, "k").as_deref(), Some("v"));
        assert_eq!(store.attribute_value(a, "id").as_deref(), Some("7"));
        assert_eq!(store.attribute_value(a, "missing"), None);
    }

    #[test]
    fn is_ancestor_excludes_self() {
        let mut b = ArenaBuilder::new();
        b.start_element("a");
        b.start_element("b");
        b.end_element();
        b.end_element();
        let store = b.finish();
        let a = store.first_child(store.root()).unwrap();
        let bn = store.first_child(a).unwrap();
        assert!(store.is_ancestor(a, bn));
        assert!(store.is_ancestor(store.root(), bn));
        assert!(!store.is_ancestor(a, a));
        assert!(!store.is_ancestor(bn, a));
    }

    #[test]
    fn no_index_wrapper_hides_the_index_but_agrees_on_semantics() {
        let mut b = ArenaBuilder::new();
        b.start_element("a");
        b.start_element("b");
        b.end_element();
        b.end_element();
        let store = b.finish();
        assert!(store.structural_index().is_some());
        let plain = NoIndex(&store);
        assert!(plain.structural_index().is_none());
        let a = store.first_child(store.root()).unwrap();
        let bn = store.first_child(a).unwrap();
        assert_eq!(plain.is_ancestor(a, bn), store.is_ancestor(a, bn));
        assert_eq!(plain.doc_lt(a, bn), store.doc_lt(a, bn));
        assert_eq!(plain.order(bn), store.order(bn));
        assert_eq!(plain.node_name(a), store.node_name(a));
    }
}
