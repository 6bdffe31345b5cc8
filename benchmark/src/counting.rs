//! `CountingStore`: an `XmlStore` that counts calls by class and delegates
//! every required method *and* `structural_index`/`content_probe` to the
//! store it wraps, so the engine picks the same kernels and plans as on
//! the bare store (unlike `xmlstore::NoIndex`, which hides the index).
//! Neither store overrides the trait's provided methods (`string_value`,
//! `attribute_named`, …), so those run here on top of the counted calls.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use xmlstore::buffer::BufferStats;
use xmlstore::{ContentKind, NameId, NodeId, NodeKind, StorageFault, StructuralIndex, XmlStore};

/// The call classes, in the order of [`StoreCalls`]' counters; a class
/// `c` is reported as `xmlstore.<c>_calls_per_op`.
pub const CALL_CLASSES: [&str; 5] = ["nav", "value", "name", "order", "probe"];

/// `kind`, `parent`, `first_child`, `last_child`, `next_sibling`,
/// `prev_sibling`, `first_attribute`.
const NAV: usize = 0;
/// `value`.
const VALUE: usize = 1;
/// `name`, `intern_lookup`, `name_text`, `element_by_id`.
const NAME: usize = 2;
/// `order`.
const ORDER: usize = 3;
/// `content_probe`.
const PROBE: usize = 4;

/// Calls seen so far, one counter per class of [`CALL_CLASSES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCalls(pub [u64; 5]);

impl StoreCalls {
    /// Calls made since `earlier`.
    pub fn since(&self, earlier: &StoreCalls) -> StoreCalls {
        StoreCalls(std::array::from_fn(|k| self.0[k] - earlier.0[k]))
    }

    /// The calls of two stores together.
    pub fn plus(&self, other: &StoreCalls) -> StoreCalls {
        StoreCalls(std::array::from_fn(|k| self.0[k] + other.0[k]))
    }
}

/// The counting wrapper.
pub struct CountingStore<'a> {
    inner: &'a dyn XmlStore,
    calls: [AtomicU64; 5],
}

impl<'a> CountingStore<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn XmlStore) -> CountingStore<'a> {
        CountingStore { inner, calls: Default::default() }
    }

    /// The counters now.
    pub fn calls(&self) -> StoreCalls {
        StoreCalls(std::array::from_fn(|k| self.calls[k].load(Relaxed)))
    }

    /// Count one call of `class` and pass its result on.
    fn count<T>(&self, class: usize, v: T) -> T {
        self.calls[class].fetch_add(1, Relaxed);
        v
    }
}

impl XmlStore for CountingStore<'_> {
    fn root(&self) -> NodeId {
        self.inner.root()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn kind(&self, n: NodeId) -> NodeKind {
        self.count(NAV, self.inner.kind(n))
    }

    fn name(&self, n: NodeId) -> Option<NameId> {
        self.count(NAME, self.inner.name(n))
    }

    fn value(&self, n: NodeId) -> Option<String> {
        self.count(VALUE, self.inner.value(n))
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.count(NAV, self.inner.parent(n))
    }

    fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.count(NAV, self.inner.first_child(n))
    }

    fn last_child(&self, n: NodeId) -> Option<NodeId> {
        self.count(NAV, self.inner.last_child(n))
    }

    fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.count(NAV, self.inner.next_sibling(n))
    }

    fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.count(NAV, self.inner.prev_sibling(n))
    }

    fn first_attribute(&self, n: NodeId) -> Option<NodeId> {
        self.count(NAV, self.inner.first_attribute(n))
    }

    fn order(&self, n: NodeId) -> u64 {
        self.count(ORDER, self.inner.order(n))
    }

    fn intern_lookup(&self, name: &str) -> Option<NameId> {
        self.count(NAME, self.inner.intern_lookup(name))
    }

    fn name_text(&self, id: NameId) -> String {
        self.count(NAME, self.inner.name_text(id))
    }

    fn element_by_id(&self, idval: &str) -> Option<NodeId> {
        self.count(NAME, self.inner.element_by_id(idval))
    }

    fn structural_index(&self) -> Option<&StructuralIndex> {
        self.inner.structural_index()
    }

    fn content_probe(
        &self,
        kind: ContentKind,
        name: &str,
        value: &str,
    ) -> Option<Vec<(u32, NodeId)>> {
        self.count(PROBE, self.inner.content_probe(kind, name, value))
    }

    fn storage_tripped(&self) -> bool {
        self.inner.storage_tripped()
    }

    fn take_storage_fault(&self) -> Option<StorageFault> {
        self.inner.take_storage_fault()
    }

    fn buffer_stats(&self) -> Option<BufferStats> {
        self.inner.buffer_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_class_and_keeps_the_index() {
        let store = xmlstore::parse_document("<a k='v'><b>x</b><b>y</b></a>").unwrap();
        let counted = CountingStore::new(&store);
        assert!(counted.structural_index().is_some());
        let a = counted.first_child(counted.root()).unwrap();
        assert_eq!(counted.string_value(a), "xy");
        assert_eq!(counted.attribute_value(a, "k").as_deref(), Some("v"));
        let c = counted.calls();
        assert!(c.0[NAV] > 0 && c.0[VALUE] == 3 && c.0[NAME] > 0, "{c:?}");
        assert_eq!(c.0[ORDER], 0);
        assert_eq!(counted.calls().since(&c), StoreCalls::default());
    }
}
