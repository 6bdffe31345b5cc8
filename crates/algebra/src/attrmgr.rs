//! The attribute manager (paper §5.1): resolves symbolic attribute names
//! to register slots at code-generation time, and turns renaming
//! projections into slot *aliases* (no copies) whenever that is safe.
//!
//! Aliasing `to → from` is safe when both names are assigned exactly once
//! in the whole plan (the rename being `to`'s only assignment): then the
//! two names always hold the same value and can share one register. When
//! a name is reassigned (e.g. `cn` is rebound per predicate context), the
//! rename compiles to a register copy instead.

use std::collections::HashMap;

use crate::ops::{Attr, LogicalOp};

/// Slot index into the tuple register frame.
pub type Slot = usize;

/// Attribute-name → slot resolver for one plan.
#[derive(Debug, Default)]
pub struct AttrManager {
    slots: HashMap<Attr, Slot>,
    next: Slot,
    assignment_counts: HashMap<Attr, usize>,
}

impl AttrManager {
    /// Build a manager for `plan`, pre-counting assignments so alias
    /// safety can be decided per rename.
    pub fn for_plan(plan: &LogicalOp) -> AttrManager {
        let mut mgr = AttrManager::default();
        count_assignments(plan, &mut mgr.assignment_counts);
        mgr
    }

    /// Resolve (or allocate) the slot of `name`.
    pub fn slot(&mut self, name: &str) -> Slot {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.next;
        self.next += 1;
        self.slots.insert(name.to_owned(), s);
        s
    }

    /// Handle a rename `to := from`. Returns `None` if the manager aliased
    /// the two names to one slot (no code needed), or `Some((from_slot,
    /// to_slot))` if the code generator must emit a copy.
    pub fn rename(&mut self, from: &str, to: &str) -> Option<(Slot, Slot)> {
        let from_assignments = self.assignment_counts.get(from).copied().unwrap_or(0);
        let to_assignments = self.assignment_counts.get(to).copied().unwrap_or(0);
        let to_known = self.slots.contains_key(to);
        if from_assignments <= 1 && to_assignments <= 1 && !to_known {
            // Single-assignment on both sides: alias.
            let s = self.slot(from);
            self.slots.insert(to.to_owned(), s);
            None
        } else {
            let f = self.slot(from);
            let t = self.slot(to);
            if f == t {
                None
            } else {
                Some((f, t))
            }
        }
    }

    /// Width of the register frame (number of distinct slots).
    pub fn frame_width(&self) -> usize {
        self.next
    }

    /// Names currently mapped (diagnostics).
    pub fn mapped(&self) -> impl Iterator<Item = (&str, Slot)> {
        self.slots.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

fn bump(counts: &mut HashMap<Attr, usize>, name: &Attr) {
    *counts.entry(name.clone()).or_insert(0) += 1;
}

fn count_assignments(plan: &LogicalOp, counts: &mut HashMap<Attr, usize>) {
    if let Some(a) = plan.own_attr() {
        bump(counts, a);
    }
    if let Some(e) = plan.subscript() {
        count_in_scalar(e, counts);
    }
    for c in plan.inputs() {
        count_assignments(c, counts);
    }
}

fn count_in_scalar(e: &crate::scalar::ScalarExpr, counts: &mut HashMap<Attr, usize>) {
    // Nested plans inside aggregations also assign attributes; they share
    // the register frame, so their assignments count too.
    match e {
        crate::scalar::ScalarExpr::Agg(agg) => count_assignments(&agg.plan, counts),
        _ => e.operands().for_each(|o| count_in_scalar(o, counts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarExpr;
    use xmlstore::Axis;
    use xpath_syntax::NodeTest;

    #[test]
    fn slots_are_stable_and_dense() {
        let plan = LogicalOp::Singleton;
        let mut m = AttrManager::for_plan(&plan);
        let a = m.slot("a");
        let b = m.slot("b");
        assert_ne!(a, b);
        assert_eq!(m.slot("a"), a);
        assert_eq!(m.frame_width(), 2);
    }

    #[test]
    fn single_assignment_rename_aliases() {
        // Plan: Rename(c1 → cn) over one step; both names assigned once.
        let plan = LogicalOp::Rename {
            input: Box::new(LogicalOp::unnest_map(
                LogicalOp::Singleton,
                "c0",
                "c1",
                Axis::Child,
                NodeTest::Wildcard,
            )),
            from: "c1".into(),
            to: "cn2".into(),
        };
        let mut m = AttrManager::for_plan(&plan);
        assert_eq!(m.rename("c1", "cn2"), None, "aliased, no copy");
        assert_eq!(m.slot("c1"), m.slot("cn2"));
    }

    #[test]
    fn reassigned_target_forces_copy() {
        // cn assigned twice (two maps) → rename to cn must copy.
        let plan = LogicalOp::map(
            LogicalOp::map(LogicalOp::Singleton, "cn", ScalarExpr::num(1.0)),
            "cn",
            ScalarExpr::num(2.0),
        );
        let mut m = AttrManager::for_plan(&plan);
        let r = m.rename("x", "cn");
        assert!(r.is_some(), "copy required");
        let (f, t) = r.unwrap();
        assert_ne!(f, t);
    }

    #[test]
    fn nested_plan_assignments_counted() {
        let nested = LogicalOp::map(LogicalOp::Singleton, "v", ScalarExpr::num(1.0));
        let plan = LogicalOp::select(
            LogicalOp::map(LogicalOp::Singleton, "v", ScalarExpr::num(2.0)),
            ScalarExpr::Agg(crate::scalar::AggExpr {
                func: crate::scalar::AggFunc::Count,
                plan: Box::new(nested),
                over: "v".into(),
                independent: true,
            }),
        );
        let m = AttrManager::for_plan(&plan);
        assert_eq!(m.assignment_counts.get("v"), Some(&2));
    }
}
