//! Node tests resolved against a concrete store, shared by Υ and the
//! predicate kernels. The two `matches` forms are `#[inline]`: they run
//! once per node inside scan loops that live in other modules, and a
//! call per node costs Υ measurably.

use xmlstore::{Axis, NameId, NodeKind, StructuralIndex};
use xpath_syntax::{KindTest, NodeTest};

use crate::exec::Runtime;

/// Node test resolved against a concrete store (name → `NameId`).
#[derive(Clone, Debug)]
pub(crate) enum ResolvedTest {
    /// A name that does not occur in the document: matches nothing.
    Impossible,
    /// Principal-kind node with this interned name.
    Name(NodeKind, NameId),
    /// Any node of the principal kind (`*`).
    AnyPrincipal(NodeKind),
    /// `prefix:*` — principal kind, textual name starts with `prefix:`.
    Prefix(NodeKind, String),
    /// `node()`
    AnyNode,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction(target?)`
    Pi(Option<NameId>),
}

impl ResolvedTest {
    pub(crate) fn resolve(test: &NodeTest, axis: Axis, rt: &Runtime<'_>) -> ResolvedTest {
        let principal = axis.principal_kind();
        match test {
            NodeTest::Name(n) => match rt.store.intern_lookup(n) {
                Some(id) => ResolvedTest::Name(principal, id),
                None => ResolvedTest::Impossible,
            },
            NodeTest::Wildcard => ResolvedTest::AnyPrincipal(principal),
            NodeTest::NsWildcard(p) => ResolvedTest::Prefix(principal, format!("{p}:")),
            NodeTest::Kind(KindTest::Node) => ResolvedTest::AnyNode,
            NodeTest::Kind(KindTest::Text) => ResolvedTest::Text,
            NodeTest::Kind(KindTest::Comment) => ResolvedTest::Comment,
            NodeTest::Kind(KindTest::Pi(None)) => ResolvedTest::Pi(None),
            NodeTest::Kind(KindTest::Pi(Some(target))) => match rt.store.intern_lookup(target) {
                Some(id) => ResolvedTest::Pi(Some(id)),
                None => ResolvedTest::Impossible,
            },
        }
    }

    /// The test against a candidate's kind and name as the cursor read
    /// them — no further store call except for the rare `prefix:*` test,
    /// which needs name text.
    #[inline]
    pub(crate) fn matches(&self, kind: NodeKind, name: Option<NameId>, rt: &Runtime<'_>) -> bool {
        match self {
            ResolvedTest::Impossible => false,
            ResolvedTest::Name(principal, id) => kind == *principal && name == Some(*id),
            ResolvedTest::AnyPrincipal(principal) => kind == *principal,
            ResolvedTest::Prefix(principal, prefix) => {
                kind == *principal
                    && name.is_some_and(|id| rt.store.name_text(id).starts_with(prefix))
            }
            ResolvedTest::AnyNode => true,
            ResolvedTest::Text => kind == NodeKind::Text,
            ResolvedTest::Comment => kind == NodeKind::Comment,
            ResolvedTest::Pi(target) => {
                kind == NodeKind::ProcessingInstruction && target.is_none_or(|t| name == Some(t))
            }
        }
    }

    /// Same test against the index's dense per-rank arrays — the range
    /// scan's inner loop never touches the store except for the rare
    /// `prefix:*` test, which needs name text.
    #[inline]
    pub(crate) fn matches_rank(&self, rank: u32, idx: &StructuralIndex, rt: &Runtime<'_>) -> bool {
        match self {
            ResolvedTest::Impossible => false,
            ResolvedTest::Name(kind, id) => {
                idx.kind_at(rank) == *kind && idx.name_at(rank) == Some(*id)
            }
            ResolvedTest::AnyPrincipal(kind) => idx.kind_at(rank) == *kind,
            ResolvedTest::Prefix(kind, prefix) => {
                idx.kind_at(rank) == *kind
                    && rt.store.node_name(idx.node_at(rank)).starts_with(prefix)
            }
            ResolvedTest::AnyNode => true,
            ResolvedTest::Text => idx.kind_at(rank) == NodeKind::Text,
            ResolvedTest::Comment => idx.kind_at(rank) == NodeKind::Comment,
            ResolvedTest::Pi(target) => {
                idx.kind_at(rank) == NodeKind::ProcessingInstruction
                    && target.is_none_or(|t| idx.name_at(rank) == Some(t))
            }
        }
    }
}
