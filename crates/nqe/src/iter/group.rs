//! Materialising operators: duplicate elimination, document-order sort
//! and the context-size operator Tmp^cs/Tmp^cs_c (§5.2.4).
//!
//! Every buffer here is charged against the runtime's resource governor
//! (DESIGN.md §11): tuples are charged as they are parked and released as
//! they are handed downstream or the operator closes.

use std::collections::{HashSet, VecDeque};

use xmlstore::StructuralIndex;

use algebra::attrmgr::Slot;
use algebra::{Tuple, Value};

use crate::exec::Runtime;
use crate::governor::{group_key_bytes, tuple_bytes, ChargeLedger, ResourceGovernor};
use crate::iter::{Gauge, GroupKey, PhysIter};

/// The seen-set behind every duplicate elimination — Π^D and set-mode Υ
/// (DESIGN.md §12) share it. Nodes the store's index ranks land in a
/// bitset over document-order ranks: ⌈n/64⌉ words, charged once per
/// open when the first rank arrives, kept allocated across opens and
/// zeroed in place when re-armed. Scalars, and nodes a store cannot
/// rank, land in a hash set charged per key.
#[derive(Default)]
pub(crate) struct SeenSet {
    words: Vec<u64>,
    /// The bitset is charged and zeroed for the current open.
    armed: bool,
    hash: HashSet<GroupKey>,
    /// Statistics: distinct keys recorded in the rank bitset (all opens).
    pub(crate) bitset_keys: u64,
    /// Statistics: distinct keys recorded in the hash set (all opens).
    pub(crate) hash_keys: u64,
}

impl SeenSet {
    /// Forget every key. Called at open and close, beside the owner's
    /// `ledger.release_all`, which returns what [`SeenSet::arm`] and
    /// [`SeenSet::insert`] charged.
    pub(crate) fn reset(&mut self) {
        self.armed = false;
        self.hash.clear();
    }

    /// Charge and zero the bitset for an index of `ranks` nodes, once per
    /// open. `false`: the governor refused the charge.
    pub(crate) fn arm(
        &mut self,
        ranks: usize,
        ledger: &mut ChargeLedger,
        gov: &ResourceGovernor,
    ) -> bool {
        if !self.armed {
            let words = ranks.div_ceil(64);
            if !ledger.charge(gov, (words * 8) as u64) {
                return false;
            }
            self.words.clear();
            self.words.resize(words, 0);
            self.armed = true;
        }
        true
    }

    /// Words of the armed bitset.
    pub(crate) fn words(&self) -> usize {
        if self.armed {
            self.words.len()
        } else {
            0
        }
    }

    /// Set `rank`'s bit (the bitset must be armed); `true` if it was
    /// clear.
    #[inline]
    pub(crate) fn mark(&mut self, rank: u32) -> bool {
        let (word, bit) = ((rank / 64) as usize, rank % 64);
        let fresh = self.words[word] & (1 << bit) == 0;
        self.words[word] |= 1 << bit;
        self.bitset_keys += u64::from(fresh);
        fresh
    }

    /// True if `rank`'s bit is set (the bitset must be armed).
    #[inline]
    pub(crate) fn is_marked(&self, rank: u32) -> bool {
        self.words[(rank / 64) as usize] & (1 << (rank % 64)) != 0
    }

    /// The first marked rank at or after `from`.
    pub(crate) fn next_marked(&self, from: u32) -> Option<u32> {
        let mut word = (from / 64) as usize;
        let mut bits = self.words.get(word)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(word as u32 * 64 + bits.trailing_zeros());
            }
            word += 1;
            bits = *self.words.get(word)?;
        }
    }

    /// Record `v`: `Some(true)` for its first occurrence this open,
    /// `Some(false)` for a duplicate, `None` when the governor refused a
    /// charge.
    pub(crate) fn insert(
        &mut self,
        v: &Value,
        idx: Option<&StructuralIndex>,
        ledger: &mut ChargeLedger,
        rt: &Runtime<'_>,
    ) -> Option<bool> {
        if let Some(idx) = idx {
            if let Some(rank) = v.as_node().and_then(|n| idx.rank_of(n)) {
                if !self.arm(idx.len(), ledger, rt.gov) {
                    return None;
                }
                return Some(self.mark(rank));
            }
        }
        let key = GroupKey::of(v, rt);
        let key_bytes = group_key_bytes(&key);
        if !self.hash.insert(key) {
            return Some(false);
        }
        if !ledger.charge(rt.gov, key_bytes) {
            return None;
        }
        self.hash_keys += 1;
        Some(true)
    }
}

/// Π^D_a — duplicate elimination on one attribute, keeping the first
/// occurrence and all other attributes. Keys go through the shared
/// [`SeenSet`]: a rank bitset for nodes on indexed stores, a hash set
/// otherwise.
pub struct DedupIter {
    input: Box<dyn PhysIter>,
    slot: Slot,
    seen: SeenSet,
    ledger: ChargeLedger,
    /// Statistics: input tuples dropped as duplicates (all opens).
    pub dropped: u64,
}

impl DedupIter {
    /// New duplicate elimination.
    pub fn new(input: Box<dyn PhysIter>, slot: Slot) -> DedupIter {
        DedupIter {
            input,
            slot,
            seen: SeenSet::default(),
            ledger: ChargeLedger::new(),
            dropped: 0,
        }
    }
}

impl PhysIter for DedupIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.seen.reset();
        self.ledger.release_all(rt.gov);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        let idx = rt.store.structural_index();
        loop {
            if !rt.gov.tick() || !self.input.next(rt, out) {
                return false;
            }
            let key = out.get(self.slot).unwrap_or(&Value::Null);
            match self.seen.insert(key, idx, &mut self.ledger, rt) {
                Some(true) => return true,
                Some(false) => self.dropped += 1,
                None => return false,
            }
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.seen.reset();
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("dup_dropped", self.dropped));
        out.push(("bitset_keys", self.seen.bitset_keys));
        out.push(("hash_keys", self.seen.hash_keys));
        self.ledger.gauges(out);
    }
}

/// Sort_a — materialise and sort by document order of the node attribute
/// (filter expressions with positional predicates, §3.4.2). Stable; tuples
/// with unbound attributes sort last.
pub struct SortIter {
    input: Box<dyn PhysIter>,
    slot: Slot,
    buffer: Option<Vec<Tuple>>,
    pos: usize,
    ledger: ChargeLedger,
    /// Statistics: total tuples materialised for sorting (all opens).
    pub sorted_tuples: u64,
    /// Statistics: number of sort materialisations (one per consumed
    /// open).
    pub sort_runs: u64,
}

impl SortIter {
    /// New sort.
    pub fn new(input: Box<dyn PhysIter>, slot: Slot) -> SortIter {
        SortIter {
            input,
            slot,
            buffer: None,
            pos: 0,
            ledger: ChargeLedger::new(),
            sorted_tuples: 0,
            sort_runs: 0,
        }
    }
}

impl PhysIter for SortIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.buffer = None;
        self.pos = 0;
        self.ledger.release_all(rt.gov);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        if !rt.gov.ok() {
            return false;
        }
        if self.buffer.is_none() {
            let mut buf = Vec::new();
            let mut row = Tuple::new();
            while self.input.next(rt, &mut row) {
                if !self.ledger.charge_tuple(rt.gov, &row) {
                    break;
                }
                buf.push(std::mem::take(&mut row));
            }
            self.input.close(rt);
            if !rt.gov.ok() {
                return false;
            }
            self.sorted_tuples += buf.len() as u64;
            self.sort_runs += 1;
            let slot = self.slot;
            // Decorate-sort-undecorate: one key extraction per tuple
            // (index ranks where available, `order()` otherwise), then
            // an unstable integer sort on (key, input position) — the
            // position tiebreak reproduces the stable order exactly
            // without store calls inside the comparator.
            let keys = algebra::DocOrderKeys::new(rt.store);
            let mut keyed: Vec<((u64, usize), Tuple)> = buf
                .into_iter()
                .enumerate()
                .map(|(pos, t)| {
                    let key =
                        t.get(slot).and_then(|v| v.as_node()).map_or(u64::MAX, |n| keys.key(n));
                    ((key, pos), t)
                })
                .collect();
            keyed.sort_unstable_by_key(|(k, _)| *k);
            self.buffer = Some(keyed.into_iter().map(|(_, t)| t).collect());
        }
        let buf = self.buffer.as_mut().expect("filled above");
        if self.pos < buf.len() {
            self.ledger.release(rt.gov, tuple_bytes(&buf[self.pos]));
            // A sorted row is handed out once: trade buffers.
            std::mem::swap(out, &mut buf[self.pos]);
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.buffer = None;
        self.pos = 0;
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("sort_input", self.sorted_tuples));
        out.push(("sort_runs", self.sort_runs));
        self.ledger.gauges(out);
    }
}

/// Tmp^cs / Tmp^cs_c (paper §5.2.4): materialise one context group at a
/// time, annotate every tuple of the group with the context size, replay.
/// A single implementation covers both variants — `group = None` treats
/// the whole input as one context.
pub struct TmpCsIter {
    input: Box<dyn PhysIter>,
    cs: Slot,
    group: Option<Slot>,
    buf: VecDeque<Tuple>,
    lookahead: Option<Tuple>,
    exhausted: bool,
    ledger: ChargeLedger,
    /// Statistics: total tuples materialised into group buffers.
    pub materialized: u64,
    /// Statistics: number of context groups materialised.
    pub groups: u64,
}

impl TmpCsIter {
    /// New context-size operator.
    pub fn new(input: Box<dyn PhysIter>, cs: Slot, group: Option<Slot>) -> TmpCsIter {
        TmpCsIter {
            input,
            cs,
            group,
            buf: VecDeque::new(),
            lookahead: None,
            exhausted: false,
            ledger: ChargeLedger::new(),
            materialized: 0,
            groups: 0,
        }
    }

    fn fill_group(&mut self, rt: &Runtime<'_>) {
        let first = match self.lookahead.take() {
            Some(t) => t,
            None => {
                let mut t = Tuple::new();
                if !self.input.next(rt, &mut t) {
                    self.exhausted = true;
                    return;
                }
                t
            }
        };
        let group_key =
            self.group.map(|slot| GroupKey::of(first.get(slot).unwrap_or(&Value::Null), rt));
        let mut group = vec![first];
        loop {
            if !rt.gov.tick() {
                self.exhausted = true;
                return;
            }
            let mut t = Tuple::new();
            if !self.input.next(rt, &mut t) {
                self.exhausted = true;
                break;
            }
            let same = match (&group_key, self.group) {
                (Some(k), Some(slot)) => {
                    &GroupKey::of(t.get(slot).unwrap_or(&Value::Null), rt) == k
                }
                _ => true,
            };
            if same {
                group.push(t);
            } else {
                self.lookahead = Some(t);
                break;
            }
        }
        let cs = Value::Num(group.len() as f64);
        self.materialized += group.len() as u64;
        self.groups += 1;
        for mut t in group {
            t[self.cs] = cs.clone();
            if !self.ledger.charge_tuple(rt.gov, &t) {
                self.exhausted = true;
                return;
            }
            self.buf.push_back(t);
        }
    }
}

impl PhysIter for TmpCsIter {
    fn open(&mut self, rt: &Runtime<'_>, seed: &Tuple) {
        self.input.open(rt, seed);
        self.buf.clear();
        self.lookahead = None;
        self.exhausted = false;
        self.ledger.release_all(rt.gov);
    }

    fn next(&mut self, rt: &Runtime<'_>, out: &mut Tuple) -> bool {
        loop {
            if !rt.gov.ok() {
                return false;
            }
            if let Some(t) = self.buf.pop_front() {
                self.ledger.release(rt.gov, tuple_bytes(&t));
                *out = t;
                return true;
            }
            if self.exhausted && self.lookahead.is_none() {
                return false;
            }
            self.fill_group(rt);
            if self.buf.is_empty() && self.exhausted && self.lookahead.is_none() {
                return false;
            }
        }
    }

    fn close(&mut self, rt: &Runtime<'_>) {
        self.input.close(rt);
        self.buf.clear();
        self.lookahead = None;
        self.ledger.release_all(rt.gov);
    }

    fn gauges(&self, out: &mut Vec<Gauge>) {
        out.push(("materialized", self.materialized));
        out.push(("groups", self.groups));
        self.ledger.gauges(out);
    }
}
