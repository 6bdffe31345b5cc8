//! Join operators: the dependency join (d-join, §3.1.1) and the
//! semi-/anti-joins of the node-set comparison translation (§3.6.2).

use algebra::attrmgr::Slot;
use algebra::Tuple;

use crate::exec::Runtime;
use crate::governor::ChargeLedger;
use crate::iter::{CompiledPred, Gauge, PhysIter};

/// `<>` — d-join: for every left tuple, re-open the dependent side seeded
/// with that tuple and stream its results. This is the free-variable
/// binding mechanism of the canonical translation.
pub struct DJoinIter {
    left: Box<dyn PhysIter>,
    right: Box<dyn PhysIter>,
    /// The left tuple the dependent side is currently opened with.
    left_frame: Tuple,
    right_active: bool,
    /// Statistics: dependent-side re-opens (one per left tuple).
    pub reopens: u64,
}

impl DJoinIter {
    /// New d-join.
    pub fn new(left: Box<dyn PhysIter>, right: Box<dyn PhysIter>) -> DJoinIter {
        DJoinIter {
            left,
            right,
            left_frame: Tuple::new(),
            right_active: false,
            reopens: 0,
        }
    }
}

impl PhysIter for DJoinIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.left.open(rt, seed);
        self.right_active = false;
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        loop {
            if !rt.gov.tick() {
                return false;
            }
            if self.right_active {
                if self.right.next(rt, out) {
                    return true;
                }
                self.right.close(rt);
                self.right_active = false;
            }
            if !self.left.next(rt, &mut self.left_frame) {
                return false;
            }
            self.right.open(rt, &self.left_frame);
            self.reopens += 1;
            self.right_active = true;
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.left.close(rt);
        if self.right_active {
            self.right.close(rt);
            self.right_active = false;
        }
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("reopens", self.reopens));
    }
}

/// ⋉_p / ▷_p — semi-join and anti-join. The match side is evaluated once
/// per open (it has no dependency on left tuples, only on the enclosing
/// seed) and materialised; each probe tuple is emitted when a match
/// exists (`anti = false`) or when none does (`anti = true`). The probe
/// loop terminates on the first match — the existential early exit of
/// §5.2.5 at the join level.
pub struct SemiJoinIter {
    left: Box<dyn PhysIter>,
    right: Box<dyn PhysIter>,
    pred: CompiledPred,
    /// Slots the match side defines: its values are merged into the probe
    /// tuple before predicate evaluation (tuple concatenation `∘`).
    right_defined: Vec<Slot>,
    anti: bool,
    seed: Tuple,
    /// The probe tuple `∘` one match-side row, for the predicate.
    merged: Tuple,
    right_mat: Option<Vec<Tuple>>,
    ledger: ChargeLedger,
    /// Statistics: total match-side tuples materialised (all opens).
    pub right_materialized: u64,
}

impl SemiJoinIter {
    /// New semi-join (`anti = false`) or anti-join (`anti = true`).
    pub fn new(
        left: Box<dyn PhysIter>,
        right: Box<dyn PhysIter>,
        pred: CompiledPred,
        right_defined: Vec<Slot>,
        anti: bool,
    ) -> SemiJoinIter {
        SemiJoinIter {
            left,
            right,
            pred,
            right_defined,
            anti,
            seed: Tuple::new(),
            merged: Tuple::new(),
            right_mat: None,
            ledger: ChargeLedger::new(),
            right_materialized: 0,
        }
    }
}

impl PhysIter for SemiJoinIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.left.open(rt, seed);
        self.seed.clone_from(seed);
        self.right_mat = None;
        self.ledger.release_all(rt.gov);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if !rt.gov.ok() {
            return false;
        }
        if self.right_mat.is_none() {
            self.right.open(rt, &self.seed);
            let mut mat = Vec::new();
            let mut row = Tuple::new();
            while self.right.next(rt, &mut row) {
                if !self.ledger.charge_tuple(rt.gov, &row) {
                    break;
                }
                mat.push(std::mem::take(&mut row));
            }
            self.right.close(rt);
            if !rt.gov.ok() {
                return false;
            }
            self.right_materialized += mat.len() as u64;
            self.right_mat = Some(mat);
        }
        'probe: loop {
            if !rt.gov.tick() || !self.left.next(rt, out) {
                return false;
            }
            let mat = self.right_mat.as_ref().expect("materialised above");
            // Every row overwrites the same match-side slots, so one copy
            // of the probe tuple serves all of them.
            self.merged.clone_from(out);
            for rtup in mat {
                for &s in &self.right_defined {
                    self.merged[s] = rtup[s].clone();
                }
                if self.pred.eval(rt, &self.merged).to_bool() {
                    if self.anti {
                        continue 'probe;
                    }
                    return true;
                }
            }
            if self.anti {
                return true;
            }
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.left.close(rt);
        self.pred.release();
        self.right_mat = None;
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("right_materialized", self.right_materialized));
        self.ledger.gauges(out);
    }
}
