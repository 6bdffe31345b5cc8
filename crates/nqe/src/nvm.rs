//! The Natix Virtual Machine (paper §5.2.2): a register bytecode that
//! evaluates the non-sequence-valued subscripts of the physical operators.
//!
//! Scalar expressions compile to small programs; nested sequence-valued
//! sub-plans (aggregations, paper §5.2.3) are reached through the
//! `EvalNested` command, which pulls a nested iterator and aggregates its
//! tuples — with premature termination for `exists()` ("smart
//! aggregation", §5.2.5).

use xmlstore::{Axis, AxisCursor, NodeKind};
use xpath_syntax::xvalue;
use xpath_syntax::{ArithOp, CompOp};

use algebra::attrmgr::Slot;
use algebra::scalar::{CmpMode, NodeFn, NumFn, StrFn};
use algebra::{Tuple, Value};

use crate::exec::Runtime;
use crate::iter::NestedEval;

/// Register index.
pub type Reg = usize;

/// NVM instructions.
#[derive(Clone, Debug)]
pub enum Instr {
    /// `dst ← const`. The constant is lifted to a [`Value`] once at code
    /// generation, so loading a string is a reference-count bump.
    LoadConst { dst: Reg, value: Value },
    /// `dst ← tuple[slot]`
    LoadSlot { dst: Reg, slot: Slot },
    /// `dst ← vars[name]` (Null if unbound).
    LoadVar { dst: Reg, name: String },
    /// `dst ← a <op> b` (numeric).
    Arith {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst ← -a`
    Neg { dst: Reg, a: Reg },
    /// `dst ← a <op> b` under the given comparison mode.
    Cmp {
        op: CompOp,
        mode: CmpMode,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst ← not a`
    Not { dst: Reg, a: Reg },
    /// `dst ← number(a)`
    ToNumber { dst: Reg, a: Reg },
    /// `dst ← string(a)`
    ToString { dst: Reg, a: Reg },
    /// `dst ← boolean(a)`
    ToBoolean { dst: Reg, a: Reg },
    /// String function over argument registers.
    StrOp { f: StrFn, dst: Reg, args: Vec<Reg> },
    /// Numeric function.
    NumOp { f: NumFn, dst: Reg, a: Reg },
    /// Node function (name / local-name / namespace-uri).
    NodeOp { f: NodeFn, dst: Reg, a: Reg },
    /// `dst ← lang(a)` relative to the node in `ctx` (a tuple slot).
    Lang { dst: Reg, a: Reg, ctx: Slot },
    /// `dst ← deref(a)` — element with ID `string(a)`, Null if absent.
    Deref { dst: Reg, a: Reg },
    /// `dst ← root(a)` — the document node.
    RootOf { dst: Reg, a: Reg },
    /// Copy a register.
    Move { dst: Reg, src: Reg },
    /// Skip to `target` if `boolean(cond)` is true (short-circuit `or`).
    JumpIfTrue { cond: Reg, target: usize },
    /// Skip to `target` if `boolean(cond)` is false (short-circuit `and`).
    JumpIfFalse { cond: Reg, target: usize },
    /// `dst ← aggregate(nested[idx])` seeded with the current tuple.
    EvalNested { dst: Reg, idx: usize },
}

/// A compiled NVM program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Instruction stream.
    pub instrs: Vec<Instr>,
    /// Register count.
    pub nregs: usize,
    /// Register holding the final value.
    pub result: Reg,
}

/// Run a program against `tuple`. `nested` supplies the nested iterator
/// plans referenced by `EvalNested`; `regs` is the caller's register
/// file, reset here and reused from run to run.
pub fn run(
    prog: &Program,
    rt: &Runtime<'_>,
    tuple: &Tuple,
    nested: &mut [NestedEval],
    regs: &mut Vec<Value>,
) -> Value {
    regs.clear();
    regs.resize(prog.nregs, Value::Null);
    let store = rt.store;
    let mut pc = 0usize;
    while pc < prog.instrs.len() {
        match &prog.instrs[pc] {
            Instr::LoadConst { dst, value } => regs[*dst] = value.clone(),
            Instr::LoadSlot { dst, slot } => {
                regs[*dst] = tuple.get(*slot).cloned().unwrap_or(Value::Null)
            }
            Instr::LoadVar { dst, name } => {
                regs[*dst] = rt.vars.get(name).cloned().unwrap_or(Value::Null)
            }
            Instr::Arith { op, dst, a, b } => {
                let x = regs[*a].to_num(store);
                let y = regs[*b].to_num(store);
                regs[*dst] = Value::Num(op.apply(x, y));
            }
            Instr::Neg { dst, a } => regs[*dst] = Value::Num(-regs[*a].to_num(store)),
            Instr::Cmp { op, mode, dst, a, b } => {
                regs[*dst] = Value::Bool(compare(*op, *mode, &regs[*a], &regs[*b], rt));
            }
            Instr::Not { dst, a } => regs[*dst] = Value::Bool(!regs[*a].to_bool()),
            Instr::ToNumber { dst, a } => regs[*dst] = Value::Num(regs[*a].to_num(store)),
            Instr::ToString { dst, a } => {
                let v = match &regs[*a] {
                    Value::Str(s) => Value::Str(s.clone()),
                    other => Value::Str(other.as_str(store).as_ref().into()),
                };
                regs[*dst] = v;
            }
            Instr::ToBoolean { dst, a } => regs[*dst] = Value::Bool(regs[*a].to_bool()),
            Instr::StrOp { f, dst, args } => {
                regs[*dst] = str_op(*f, args, regs, rt);
            }
            Instr::NumOp { f, dst, a } => {
                let x = regs[*a].to_num(store);
                regs[*dst] = Value::Num(match f {
                    NumFn::Floor => x.floor(),
                    NumFn::Ceiling => x.ceil(),
                    NumFn::Round => xvalue::xpath_round(x),
                });
            }
            Instr::NodeOp { f, dst, a } => {
                regs[*dst] = Value::Str(
                    match (&regs[*a], f) {
                        (Value::Node(n), NodeFn::Name) => store.node_name(*n),
                        (Value::Node(n), NodeFn::LocalName) => {
                            xvalue::local_name(&store.node_name(*n)).to_owned()
                        }
                        // Names are stored verbatim (no namespace expansion).
                        (Value::Node(_), NodeFn::NamespaceUri) => String::new(),
                        _ => String::new(),
                    }
                    .into(),
                );
            }
            Instr::Lang { dst, a, ctx } => {
                let matched = match tuple.get(*ctx).and_then(|v| v.as_node()) {
                    Some(n) => lang_matches(rt, n, &regs[*a].as_str(store)),
                    None => false,
                };
                regs[*dst] = Value::Bool(matched);
            }
            Instr::Deref { dst, a } => {
                let found = store.element_by_id(&regs[*a].as_str(store));
                regs[*dst] = found.map_or(Value::Null, Value::Node);
            }
            Instr::RootOf { dst, a } => {
                // Single-document stores: the root is store.root()
                // regardless of the operand (which only anchors the
                // document in a multi-document setting).
                let _ = a;
                regs[*dst] = Value::Node(store.root());
            }
            Instr::Move { dst, src } => regs[*dst] = regs[*src].clone(),
            Instr::JumpIfTrue { cond, target } => {
                if regs[*cond].to_bool() {
                    pc = *target;
                    continue;
                }
            }
            Instr::JumpIfFalse { cond, target } => {
                if !regs[*cond].to_bool() {
                    pc = *target;
                    continue;
                }
            }
            Instr::EvalNested { dst, idx } => {
                regs[*dst] = nested[*idx].evaluate(rt, tuple);
            }
        }
        pc += 1;
    }
    std::mem::replace(&mut regs[prog.result], Value::Null)
}

pub(crate) fn compare(op: CompOp, mode: CmpMode, a: &Value, b: &Value, rt: &Runtime<'_>) -> bool {
    let store = rt.store;
    let mode = if mode == CmpMode::Dyn {
        // Runtime dispatch (variables of unknown type): booleans win,
        // then numbers, then strings — mirroring XPath §3.4.
        match (a, b) {
            (Value::Bool(_), _) | (_, Value::Bool(_)) => CmpMode::Bool,
            (Value::Num(_), _) | (_, Value::Num(_)) => CmpMode::Num,
            _ => {
                if matches!(op, CompOp::Eq | CompOp::Ne) {
                    CmpMode::Str
                } else {
                    CmpMode::Num
                }
            }
        }
    } else {
        mode
    };
    match mode {
        CmpMode::Num => op.apply_numbers(a.to_num(store), b.to_num(store)),
        CmpMode::Bool => {
            let (x, y) = (a.to_bool(), b.to_bool());
            match op {
                CompOp::Eq => x == y,
                CompOp::Ne => x != y,
                // Relational on booleans goes through numbers (XPath §3.4).
                _ => op.apply_numbers(x as u8 as f64, y as u8 as f64),
            }
        }
        CmpMode::Str => {
            let (x, y) = (a.as_str(store), b.as_str(store));
            match op {
                CompOp::Eq => x == y,
                CompOp::Ne => x != y,
                _ => op.apply_numbers(xvalue::string_to_number(&x), xvalue::string_to_number(&y)),
            }
        }
        CmpMode::Dyn => unreachable!("Dyn resolved above"),
    }
}

fn str_op(f: StrFn, args: &[Reg], regs: &[Value], rt: &Runtime<'_>) -> Value {
    let store = rt.store;
    let s = |i: usize| regs[args[i]].as_str(store);
    match f {
        StrFn::Concat => {
            let mut out = String::new();
            for &r in args {
                out.push_str(&regs[r].as_str(store));
            }
            Value::Str(out.into())
        }
        StrFn::Contains => Value::Bool(s(0).contains(&*s(1))),
        StrFn::StartsWith => Value::Bool(s(0).starts_with(&*s(1))),
        StrFn::SubstringBefore => Value::Str(xvalue::substring_before(&s(0), &s(1)).into()),
        StrFn::SubstringAfter => Value::Str(xvalue::substring_after(&s(0), &s(1)).into()),
        StrFn::Substring => {
            let start = regs[args[1]].to_num(store);
            let len = args.get(2).map(|&r| regs[r].to_num(store));
            Value::Str(xvalue::xpath_substring(&s(0), start, len).into())
        }
        StrFn::StringLength => Value::Num(xvalue::string_length(&s(0))),
        StrFn::NormalizeSpace => Value::Str(xvalue::normalize_space(&s(0)).into()),
        StrFn::Translate => Value::Str(xvalue::translate(&s(0), &s(1), &s(2)).into()),
    }
}

/// `lang()` per XPath §4.3: the nearest `xml:lang` on ancestor-or-self,
/// case-insensitive, allowing a suffix after `-`.
fn lang_matches(rt: &Runtime<'_>, node: xmlstore::NodeId, want: &str) -> bool {
    let store = rt.store;
    let mut cursor = AxisCursor::new(store, Axis::AncestorOrSelf, node);
    while let Some(n) = cursor.advance(store) {
        if cursor.kind() != NodeKind::Element {
            continue;
        }
        if let Some(v) = store.attribute_value(n, "xml:lang") {
            let v = v.to_ascii_lowercase();
            let want = want.to_ascii_lowercase();
            return v == want
                || (v.starts_with(&want) && v.as_bytes().get(want.len()) == Some(&b'-'));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xmlstore::{parse_document, XmlStore};

    fn rt_fixture() -> (xmlstore::ArenaStore, HashMap<String, Value>) {
        (
            parse_document(r#"<a xml:lang="en-US"><b id="k1">7</b></a>"#).unwrap(),
            HashMap::new(),
        )
    }

    #[test]
    fn basic_arith_program() {
        let (store, vars) = rt_fixture();
        let gov = crate::governor::ResourceGovernor::unlimited();
        let rt = Runtime { store: &store, vars: &vars, gov: &gov };
        let prog = Program {
            instrs: vec![
                Instr::LoadConst { dst: 0, value: Value::Num(4.0) },
                Instr::LoadConst { dst: 1, value: Value::Num(38.0) },
                Instr::Arith { op: ArithOp::Add, dst: 2, a: 0, b: 1 },
            ],
            nregs: 3,
            result: 2,
        };
        let v = run(&prog, &rt, &vec![], &mut [], &mut Vec::new());
        assert!(matches!(v, Value::Num(n) if n == 42.0));
    }

    #[test]
    fn slot_load_and_compare() {
        let (store, vars) = rt_fixture();
        let gov = crate::governor::ResourceGovernor::unlimited();
        let rt = Runtime { store: &store, vars: &vars, gov: &gov };
        let b = {
            let a = store.first_child(store.root()).unwrap();
            store.first_child(a).unwrap()
        };
        let tuple = vec![Value::Node(b)];
        let prog = Program {
            instrs: vec![
                Instr::LoadSlot { dst: 0, slot: 0 },
                Instr::ToNumber { dst: 1, a: 0 },
                Instr::LoadConst { dst: 2, value: Value::Num(7.0) },
                Instr::Cmp { op: CompOp::Eq, mode: CmpMode::Num, dst: 3, a: 1, b: 2 },
            ],
            nregs: 4,
            result: 3,
        };
        let v = run(&prog, &rt, &tuple, &mut [], &mut Vec::new());
        assert!(matches!(v, Value::Bool(true)));
    }

    #[test]
    fn deref_finds_elements_by_id() {
        let (store, vars) = rt_fixture();
        let gov = crate::governor::ResourceGovernor::unlimited();
        let rt = Runtime { store: &store, vars: &vars, gov: &gov };
        let prog = Program {
            instrs: vec![
                Instr::LoadConst { dst: 0, value: Value::Str("k1".into()) },
                Instr::Deref { dst: 1, a: 0 },
            ],
            nregs: 2,
            result: 1,
        };
        match run(&prog, &rt, &vec![], &mut [], &mut Vec::new()) {
            Value::Node(n) => assert_eq!(store.node_name(n), "b"),
            other => panic!("{other:?}"),
        }
        let prog_missing = Program {
            instrs: vec![
                Instr::LoadConst { dst: 0, value: Value::Str("zzz".into()) },
                Instr::Deref { dst: 1, a: 0 },
            ],
            nregs: 2,
            result: 1,
        };
        assert!(run(&prog_missing, &rt, &vec![], &mut [], &mut Vec::new()).is_null());
    }

    #[test]
    fn lang_checks_ancestors() {
        let (store, vars) = rt_fixture();
        let gov = crate::governor::ResourceGovernor::unlimited();
        let rt = Runtime { store: &store, vars: &vars, gov: &gov };
        let b = {
            let a = store.first_child(store.root()).unwrap();
            store.first_child(a).unwrap()
        };
        let tuple = vec![Value::Node(b)];
        for (lang, expect) in [("en", true), ("en-us", true), ("EN", true), ("de", false)] {
            let prog = Program {
                instrs: vec![
                    Instr::LoadConst { dst: 0, value: Value::Str(lang.into()) },
                    Instr::Lang { dst: 1, a: 0, ctx: 0 },
                ],
                nregs: 2,
                result: 1,
            };
            assert!(
                matches!(run(&prog, &rt, &tuple, &mut [], &mut Vec::new()), Value::Bool(b) if b == expect),
                "lang({lang})"
            );
        }
    }

    #[test]
    fn dyn_compare_dispatches_on_runtime_types() {
        let (store, vars) = rt_fixture();
        let gov = crate::governor::ResourceGovernor::unlimited();
        let rt = Runtime { store: &store, vars: &vars, gov: &gov };
        let cmp = |a: Value, b: Value, op: CompOp| {
            let prog = Program {
                instrs: vec![
                    Instr::LoadConst { dst: 0, value: a },
                    Instr::LoadConst { dst: 1, value: b },
                    Instr::Cmp { op, mode: CmpMode::Dyn, dst: 2, a: 0, b: 1 },
                ],
                nregs: 3,
                result: 2,
            };
            matches!(run(&prog, &rt, &vec![], &mut [], &mut Vec::new()), Value::Bool(true))
        };
        // bool beats number: true = 1 → boolean(1)=true.
        assert!(cmp(Value::Bool(true), Value::Num(1.0), CompOp::Eq));
        assert!(cmp(Value::Bool(true), Value::Num(0.5), CompOp::Eq));
        // number vs string: numeric comparison.
        assert!(cmp(Value::Num(2.0), Value::Str("2".into()), CompOp::Eq));
        // string vs string eq: string comparison.
        assert!(!cmp(Value::Str("2.0".into()), Value::Str("2".into()), CompOp::Eq));
        // string vs string relational: numeric.
        assert!(cmp(Value::Str("1".into()), Value::Str("10".into()), CompOp::Lt));
    }

    #[test]
    fn short_circuit_jumps() {
        let (store, vars) = rt_fixture();
        let gov = crate::governor::ResourceGovernor::unlimited();
        let rt = Runtime { store: &store, vars: &vars, gov: &gov };
        // r0 = false; if false jump over the part that would set r0=true.
        let prog = Program {
            instrs: vec![
                Instr::LoadConst { dst: 0, value: Value::Bool(false) },
                Instr::JumpIfFalse { cond: 0, target: 3 },
                Instr::LoadConst { dst: 0, value: Value::Bool(true) },
            ],
            nregs: 1,
            result: 0,
        };
        assert!(matches!(run(&prog, &rt, &vec![], &mut [], &mut Vec::new()), Value::Bool(false)));
    }
}
