//! Tuple-at-a-time pipeline operators: □, σ, χ, renaming copies, the
//! positional counter map (with group reset, §4.3.1), the positional
//! window that replaces it under a positional σ, and ⊕.

use algebra::attrmgr::Slot;
use algebra::{Tuple, Value};

use crate::exec::Runtime;
use crate::iter::{CompiledPred, GroupKey, PhysIter};

/// □ — one tuple: the seed (the outer binding), which makes the dependent
/// branch of a d-join see the left tuple's attributes.
pub struct SingletonIter {
    seed: Tuple,
    done: bool,
}

impl SingletonIter {
    /// New singleton scan of the given frame width (used before the first
    /// `open` seeds it).
    pub fn new() -> SingletonIter {
        SingletonIter { seed: Tuple::new(), done: true }
    }
}

impl Default for SingletonIter {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysIter for SingletonIter {
    fn open(&mut self, _rt: &Runtime<'_>, seed: &Tuple) {
        self.seed.clone_from(seed);
        self.done = false;
    }

    fn next(&mut self, _rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if self.done {
            return false;
        }
        self.done = true;
        // The seed is spent once emitted: trade buffers instead of
        // copying; the next `open` refills whichever buffer this keeps.
        std::mem::swap(out, &mut self.seed);
        true
    }
}

/// σ — selection.
pub struct SelectIter {
    input: Box<dyn PhysIter>,
    pred: CompiledPred,
}

impl SelectIter {
    /// New selection.
    pub fn new(input: Box<dyn PhysIter>, pred: CompiledPred) -> SelectIter {
        SelectIter { input, pred }
    }
}

impl PhysIter for SelectIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        loop {
            if !rt.gov.tick() || !self.input.next(rt, out) {
                return false;
            }
            if self.pred.eval(rt, out).to_bool() {
                return true;
            }
        }
    }

    fn skip_group(&mut self) {
        self.input.skip_group();
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.pred.release();
    }
}

/// χ — map: extend the tuple with a computed attribute.
pub struct MapIter {
    input: Box<dyn PhysIter>,
    out: Slot,
    expr: CompiledPred,
}

impl MapIter {
    /// New map.
    pub fn new(input: Box<dyn PhysIter>, out: Slot, expr: CompiledPred) -> MapIter {
        MapIter { input, out, expr }
    }
}

impl PhysIter for MapIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if !self.input.next(rt, out) {
            return false;
        }
        out[self.out] = self.expr.eval(rt, out);
        true
    }

    fn skip_group(&mut self) {
        self.input.skip_group();
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.expr.release();
    }
}

/// Π_{a':a} compiled to a register copy (emitted only when the attribute
/// manager could not alias the two names, paper §5.1).
pub struct RenameCopyIter {
    input: Box<dyn PhysIter>,
    from: Slot,
    to: Slot,
}

impl RenameCopyIter {
    /// New copy-rename.
    pub fn new(input: Box<dyn PhysIter>, from: Slot, to: Slot) -> RenameCopyIter {
        RenameCopyIter { input, from, to }
    }
}

impl PhysIter for RenameCopyIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if !self.input.next(rt, out) {
            return false;
        }
        out[self.to] = out[self.from].clone();
        true
    }

    fn skip_group(&mut self) {
        self.input.skip_group();
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
    }
}

/// χ_cp:counter++ — the position counter (§3.3.3); resets when the
/// grouping attribute changes (stacked translation, §4.3.1).
pub struct CounterIter {
    input: Box<dyn PhysIter>,
    out: Slot,
    reset_on: Option<Slot>,
    count: f64,
    last_group: Option<GroupKey>,
}

impl CounterIter {
    /// New counter map.
    pub fn new(input: Box<dyn PhysIter>, out: Slot, reset_on: Option<Slot>) -> CounterIter {
        CounterIter { input, out, reset_on, count: 0.0, last_group: None }
    }
}

impl PhysIter for CounterIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.count = 0.0;
        self.last_group = None;
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if !self.input.next(rt, out) {
            return false;
        }
        if let Some(slot) = self.reset_on {
            let key = GroupKey::of(out.get(slot).unwrap_or(&Value::Null), rt);
            if self.last_group.as_ref() != Some(&key) {
                self.count = 0.0;
                self.last_group = Some(key);
            }
        }
        self.count += 1.0;
        out[self.out] = Value::Num(self.count);
        true
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
    }
}

/// W — a positional window (DESIGN.md §12 "Positional windows"): counts
/// each group's tuples as [`CounterIter`] does and keeps positions
/// `lo..=hi`. Past `hi` it skips the rest of the group (its input's
/// [`PhysIter::skip_group`]), or ends the stream when it counts the whole
/// input. Below a tail window the Υ runs reversed, so the count is the
/// position from the group's end.
pub struct WindowIter {
    input: Box<dyn PhysIter>,
    lo: u64,
    hi: u64,
    group: Option<Slot>,
    count: u64,
    last_group: Option<GroupKey>,
    /// The window is empty, or it has no group and `hi` was reached: the
    /// stream is over.
    done: bool,
}

impl WindowIter {
    /// New window keeping positions `lo..=hi` (1-based) of each group.
    pub fn new(input: Box<dyn PhysIter>, lo: u64, hi: u64, group: Option<Slot>) -> WindowIter {
        WindowIter {
            input,
            lo,
            hi,
            group,
            count: 0,
            last_group: None,
            done: false,
        }
    }
}

impl PhysIter for WindowIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.count = 0;
        self.last_group = None;
        // An empty window keeps nothing of any group.
        self.done = self.lo > self.hi;
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        loop {
            if self.done || !rt.gov.tick() || !self.input.next(rt, out) {
                return false;
            }
            if let Some(slot) = self.group {
                let key = GroupKey::of(out.get(slot).unwrap_or(&Value::Null), rt);
                if self.last_group.as_ref() != Some(&key) {
                    self.count = 0;
                    self.last_group = Some(key);
                }
            }
            self.count += 1;
            if self.count >= self.hi {
                match self.group {
                    Some(_) => self.input.skip_group(),
                    None => self.done = true,
                }
            }
            if (self.lo..=self.hi).contains(&self.count) {
                return true;
            }
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
    }
}

/// ⊕ — sequence concatenation.
pub struct ConcatIter {
    parts: Vec<Box<dyn PhysIter>>,
    seed: Tuple,
    idx: usize,
    opened: bool,
}

impl ConcatIter {
    /// New concatenation.
    pub fn new(parts: Vec<Box<dyn PhysIter>>) -> ConcatIter {
        ConcatIter { parts, seed: Tuple::new(), idx: 0, opened: false }
    }
}

impl PhysIter for ConcatIter {
    fn open(&mut self, _rt: &Runtime<'_>, seed: &Tuple) {
        self.seed.clone_from(seed);
        self.idx = 0;
        self.opened = false;
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        while self.idx < self.parts.len() {
            if !rt.gov.tick() {
                return false;
            }
            if !self.opened {
                self.parts[self.idx].open(rt, &self.seed);
                self.opened = true;
            }
            if self.parts[self.idx].next(rt, out) {
                return true;
            }
            self.parts[self.idx].close(rt);
            self.idx += 1;
            self.opened = false;
        }
        false
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        // An early close can leave the current part open mid-stream.
        if self.opened {
            self.parts[self.idx].close(rt);
            self.opened = false;
        }
    }
}
