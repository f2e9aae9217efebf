//! Concrete evaluation of a synthesized model.
//!
//! §5 Accuracy: *"we generate random inputs (i.e., packets) to both
//! NFactor model and the original program, and test whether they output
//! the same result."* This module is the model side of that experiment:
//! [`ModelState::step`] runs one packet through the table over the
//! store ([`crate::store`]) — find the entry whose flow and state
//! matches hold, apply its rewrites, commit its state transition; if
//! nothing matches, the low-priority default **drop** fires. The
//! compiled engine keeps the same store and falls back to this step on
//! it in place.
//!
//! Term evaluation mirrors the interpreter exactly (same euclidean `%`,
//! the same stable `hash`), so model-vs-program equivalence is
//! well-defined.

use crate::model::{Entry, FlowAction, Model};
use crate::store::{ModelState, Writes};
use nf_packet::Packet;
use nfl_interp::value::{stable_hash, Value};
use nfl_lang::BinOp;
use nfl_symex::{MapOp, SymVal};
use std::fmt;

/// Errors during model evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A term could not be evaluated to a concrete value.
    Stuck(String),
    /// A field write failed (out of range).
    Field(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Stuck(m) => write!(f, "cannot evaluate term: {m}"),
            EvalError::Field(m) => write!(f, "field write failed: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Result of pushing one packet through the model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStep {
    /// The forwarded packet, if any (`None` = dropped).
    pub output: Option<Packet>,
    /// Index of the `(table, entry)` that fired, if any.
    pub fired: Option<(usize, usize)>,
}

impl ModelState {
    /// Run one packet through `model`, mutating the state: the first
    /// entry (in table order) whose config, flow and state matches hold
    /// fires; if none does, the default drop. Everything the fired entry
    /// computes is evaluated against the pre-state, then committed
    /// through [`commit`](Self::commit), so [`revert`](Self::revert)
    /// undoes the step.
    pub fn step(&mut self, model: &Model, pkt: &Packet) -> Result<ModelStep, EvalError> {
        self.begin_step();
        for (ti, table) in model.tables.iter().enumerate() {
            // Configuration condition must hold for this deployment.
            if !all_true(self, &table.config, pkt)? {
                continue;
            }
            for (ei, entry) in table.entries.iter().enumerate() {
                if entry_matches(self, entry, pkt)? {
                    let out = fire(self, entry, pkt)?;
                    return Ok(ModelStep {
                        output: out,
                        fired: Some((ti, ei)),
                    });
                }
            }
        }
        // Default action: drop (§3.2).
        Ok(ModelStep {
            output: None,
            fired: None,
        })
    }

    /// Evaluate a symbolic term against packet + state.
    pub fn eval(&self, term: &SymVal, pkt: &Packet) -> Result<Value, EvalError> {
        eval_on(self, term, pkt)
    }
}

fn entry_matches(st: &ModelState, entry: &Entry, pkt: &Packet) -> Result<bool, EvalError> {
    Ok(all_true(st, &entry.flow_match, pkt)? && all_true(st, &entry.state_match, pkt)?)
}

fn all_true(st: &ModelState, lits: &[SymVal], pkt: &Packet) -> Result<bool, EvalError> {
    for lit in lits {
        match eval_on(st, lit, pkt)? {
            Value::Bool(true) => {}
            Value::Bool(false) => return Ok(false),
            other => {
                return Err(EvalError::Stuck(format!(
                    "match literal evaluated to {other}"
                )))
            }
        }
    }
    Ok(true)
}

fn fire(st: &mut ModelState, entry: &Entry, pkt: &Packet) -> Result<Option<Packet>, EvalError> {
    // Evaluate everything against the PRE state, then commit.
    let output = match &entry.flow_action {
        FlowAction::Drop => None,
        FlowAction::Forward { rewrites } => {
            let mut out = pkt.clone();
            for (field, term) in rewrites {
                let v = eval_on(st, term, pkt)?;
                let iv = v.as_int().ok_or_else(|| {
                    EvalError::Stuck(format!("rewrite of {field} to non-int {v}"))
                })?;
                let uv = u64::try_from(iv)
                    .map_err(|_| EvalError::Field(format!("negative value {iv}")))?;
                out.set(*field, uv)
                    .map_err(|e| EvalError::Field(e.to_string()))?;
            }
            Some(out)
        }
    };
    let mut writes = Writes::default();
    for (name, term) in &entry.state_action.updates {
        let v = eval_on(st, term, pkt)?;
        writes.slots.push((st.slot_target(name)?, v));
    }
    for op in &entry.state_action.map_ops {
        match op {
            MapOp::Insert { map, key, value } => {
                let k = eval_on(st, key, pkt)?
                    .as_key()
                    .ok_or_else(|| EvalError::Stuck("unkeyable map key".into()))?;
                let v = eval_on(st, value, pkt)?;
                writes.maps.push((st.map_target(map)?, k, Some(v)));
            }
            MapOp::Remove { map, key } => {
                let k = eval_on(st, key, pkt)?
                    .as_key()
                    .ok_or_else(|| EvalError::Stuck("unkeyable map key".into()))?;
                writes.maps.push((st.map_target(map)?, k, None));
            }
        }
    }
    st.commit(&mut writes);
    Ok(output)
}

/// Evaluate a symbolic term against packet + the state in `st`.
fn eval_on(st: &ModelState, term: &SymVal, pkt: &Packet) -> Result<Value, EvalError> {
    match term {
        SymVal::Int(v) => Ok(Value::Int(*v)),
        SymVal::Bool(b) => Ok(Value::Bool(*b)),
        SymVal::Str(s) => Ok(Value::Str(s.clone())),
        SymVal::Var(name) => {
            if let Some(path) = name.strip_prefix("pkt.") {
                let field = nf_packet::Field::from_path(path)
                    .ok_or_else(|| EvalError::Stuck(format!("unknown field {path}")))?;
                let raw = pkt
                    .get(field)
                    .map_err(|e| EvalError::Stuck(e.to_string()))?;
                Ok(Value::Int(raw as i64))
            } else if let Some(cfg) = name.strip_prefix("cfg:") {
                st.configs
                    .get(cfg)
                    .cloned()
                    .ok_or_else(|| EvalError::Stuck(format!("config `{cfg}` unset")))
            } else if let Some(stv) = name.strip_prefix("st:") {
                st.scalar(stv)
                    .cloned()
                    .ok_or_else(|| EvalError::Stuck(format!("state `{stv}` unset")))
            } else {
                Err(EvalError::Stuck(format!("free variable `{name}`")))
            }
        }
        SymVal::Tuple(es) => {
            let mut items = Vec::new();
            for e in es {
                let v = eval_on(st, e, pkt)?;
                items.push(
                    v.as_int()
                        .ok_or_else(|| EvalError::Stuck("tuple of non-int".into()))?,
                );
            }
            Ok(Value::Tuple(items))
        }
        SymVal::Array(es) => {
            let mut items = Vec::new();
            for e in es {
                items.push(eval_on(st, e, pkt)?);
            }
            Ok(Value::Array(items))
        }
        SymVal::Bin(op, a, b) => {
            // Short-circuit logic mirrors the interpreter: the right
            // side of `proto == 6 && tcp.flags & 2 != 0` must not be
            // evaluated on a UDP packet.
            if matches!(op, BinOp::And | BinOp::Or) {
                let va = eval_on(st, a, pkt)?
                    .as_bool()
                    .ok_or_else(|| EvalError::Stuck("logic on non-bool".into()))?;
                return match (op, va) {
                    (BinOp::And, false) => Ok(Value::Bool(false)),
                    (BinOp::Or, true) => Ok(Value::Bool(true)),
                    _ => {
                        let vb = eval_on(st, b, pkt)?
                            .as_bool()
                            .ok_or_else(|| EvalError::Stuck("logic on non-bool".into()))?;
                        Ok(Value::Bool(vb))
                    }
                };
            }
            let va = eval_on(st, a, pkt)?;
            let vb = eval_on(st, b, pkt)?;
            eval_bin(*op, &va, &vb)
        }
        SymVal::Not(a) => match eval_on(st, a, pkt)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EvalError::Stuck(format!("not of {other}"))),
        },
        SymVal::Neg(a) => match eval_on(st, a, pkt)? {
            Value::Int(v) => Ok(Value::Int(-v)),
            other => Err(EvalError::Stuck(format!("neg of {other}"))),
        },
        SymVal::Hash(a) => {
            let v = eval_on(st, a, pkt)?;
            Ok(Value::Int(stable_hash(&v)))
        }
        SymVal::Min(a, b) | SymVal::Max(a, b) => {
            let is_min = matches!(term, SymVal::Min(..));
            let x = eval_on(st, a, pkt)?
                .as_int()
                .ok_or_else(|| EvalError::Stuck("min/max of non-int".into()))?;
            let y = eval_on(st, b, pkt)?
                .as_int()
                .ok_or_else(|| EvalError::Stuck("min/max of non-int".into()))?;
            Ok(Value::Int(if is_min { x.min(y) } else { x.max(y) }))
        }
        SymVal::MapGet(map, key) => {
            let k = eval_on(st, key, pkt)?
                .as_key()
                .ok_or_else(|| EvalError::Stuck("unkeyable key".into()))?;
            st.map(map)
                .and_then(|m| m.get(&k))
                .cloned()
                .ok_or_else(|| EvalError::Stuck(format!("{map}[{k}] missing")))
        }
        SymVal::MapContains(map, key) => {
            let k = eval_on(st, key, pkt)?
                .as_key()
                .ok_or_else(|| EvalError::Stuck("unkeyable key".into()))?;
            Ok(Value::Bool(st.map(map).is_some_and(|m| m.contains_key(&k))))
        }
        SymVal::ArrayGet(base, idx) => {
            let b = eval_on(st, base, pkt)?;
            let i = eval_on(st, idx, pkt)?
                .as_int()
                .ok_or_else(|| EvalError::Stuck("array index".into()))?;
            match b {
                Value::Array(items) => {
                    let ix = usize::try_from(i)
                        .map_err(|_| EvalError::Stuck("negative index".into()))?;
                    items
                        .get(ix)
                        .cloned()
                        .ok_or_else(|| EvalError::Stuck("array OOB".into()))
                }
                other => Err(EvalError::Stuck(format!("indexing {other}"))),
            }
        }
        SymVal::Proj(base, i) => {
            let b = eval_on(st, base, pkt)?;
            match b {
                Value::Tuple(items) => items
                    .get(*i)
                    .map(|v| Value::Int(*v))
                    .ok_or_else(|| EvalError::Stuck("tuple OOB".into())),
                other => Err(EvalError::Stuck(format!("projecting {other}"))),
            }
        }
    }
}

/// Apply a binary operator to two concrete values, with the exact
/// semantics the model evaluator (and the interpreter it mirrors) uses:
/// euclidean `%`, wrapping integer arithmetic, structural `==`. Public
/// so alternative execution backends (`nf-compile`) share one
/// definition of the arithmetic instead of re-implementing it.
pub fn eval_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod | BitAnd | BitOr => {
            let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
                return Err(EvalError::Stuck(format!("arith on {a}, {b}")));
            };
            let r = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(EvalError::Stuck("div by zero".into()));
                    }
                    x.wrapping_div(y)
                }
                Mod => {
                    if y == 0 {
                        return Err(EvalError::Stuck("mod by zero".into()));
                    }
                    x.rem_euclid(y)
                }
                BitAnd => x & y,
                BitOr => x | y,
                _ => unreachable!(),
            };
            Ok(Value::Int(r))
        }
        Eq => Ok(Value::Bool(a == b)),
        Ne => Ok(Value::Bool(a != b)),
        Lt | Le | Gt | Ge => {
            let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
                return Err(EvalError::Stuck(format!("ordering {a}, {b}")));
            };
            Ok(Value::Bool(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            }))
        }
        And | Or => {
            let (Some(x), Some(y)) = (a.as_bool(), b.as_bool()) else {
                return Err(EvalError::Stuck("logic on non-bools".into()));
            };
            Ok(Value::Bool(if op == And { x && y } else { x || y }))
        }
        In | NotIn => Err(EvalError::Stuck(
            "raw in/notin should be MapContains".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;
    use nfl_symex::SymExec;

    fn model_of(src: &str) -> Model {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        Model::from_paths("t", &stats.paths)
    }

    fn tcp(sport: u16, dport: u16) -> Packet {
        Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            sport,
            parse_ipv4("3.3.3.3").unwrap(),
            dport,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn port_filter_model_behaves() {
        let m = model_of(
            r#"
            config PORT = 80;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == PORT { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#,
        );
        let mut st = ModelState::default().with_config("PORT", Value::Int(80));
        let hit = st.step(&m, &tcp(1, 80)).unwrap();
        assert!(hit.output.is_some());
        let miss = st.step(&m, &tcp(1, 81)).unwrap();
        assert!(miss.output.is_none());
    }

    #[test]
    fn nat_model_installs_and_reuses_mapping() {
        let m = model_of(
            r#"
            state nat = map();
            state next = 10000;
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k not in nat {
                    nat[k] = next;
                    next = next + 1;
                }
                pkt.tcp.sport = nat[k];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        let mut st = ModelState::default()
            .with_scalar("next", Value::Int(10000))
            .with_map("nat");
        let r1 = st.step(&m, &tcp(5555, 80)).unwrap();
        assert_eq!(
            r1.output.unwrap().get(nf_packet::Field::TcpSport).unwrap(),
            10000
        );
        assert_eq!(st.scalar("next"), Some(&Value::Int(10001)));
        // Same flow hits the existing-connection entry, same rewrite.
        let r2 = st.step(&m, &tcp(5555, 80)).unwrap();
        assert_eq!(
            r2.output.unwrap().get(nf_packet::Field::TcpSport).unwrap(),
            10000
        );
        let next = st.scalar("next");
        assert_eq!(next, Some(&Value::Int(10001)), "no double install");
        assert_ne!(r1.fired, r2.fired, "different entries fired");
        // New flow gets the next port.
        let r3 = st.step(&m, &tcp(7777, 80)).unwrap();
        assert_eq!(
            r3.output.unwrap().get(nf_packet::Field::TcpSport).unwrap(),
            10001
        );
    }

    #[test]
    fn revert_undoes_the_committed_step() {
        let m = model_of(
            r#"
            state nat = map();
            state next = 10000;
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k not in nat {
                    nat[k] = next;
                    next = next + 1;
                }
                pkt.tcp.sport = nat[k];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        // `nat` starts undeclared: the first insert materialises it, and
        // reverting that step must remove the map again.
        let mut st = ModelState::default().with_scalar("next", Value::Int(10000));
        let fresh = st.clone();
        let g = st.generation();
        st.step(&m, &tcp(5555, 80)).unwrap();
        assert_eq!(st.generation(), g + 1);
        st.revert();
        assert_eq!(st, fresh);
        assert!(st.map("nat").is_none());
        // Over live state: install two flows, step a third, revert it.
        st.step(&m, &tcp(1, 80)).unwrap();
        st.step(&m, &tcp(2, 80)).unwrap();
        let before = st.clone();
        st.step(&m, &tcp(3, 80)).unwrap();
        assert_ne!(st, before);
        st.revert();
        assert_eq!(st, before);
        assert_eq!(st.scalar("next"), Some(&Value::Int(10002)));
        // An existing-flow hit commits nothing but the rewrite.
        st.step(&m, &tcp(1, 80)).unwrap();
        st.revert();
        assert_eq!(st, before);
    }

    #[test]
    fn default_drop_when_nothing_matches() {
        let m = model_of(
            r#"
            config PORT = 80;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == PORT { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#,
        );
        // Deliberately leave the config unset for the drop entry's
        // evaluation: with PORT=99 nothing forwards.
        let mut st = ModelState::default().with_config("PORT", Value::Int(99));
        let r = st.step(&m, &tcp(1, 80)).unwrap();
        assert!(r.output.is_none());
    }

    #[test]
    fn hash_mode_matches_interpreter_hash() {
        let m = model_of(
            r#"
            config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
            fn cb(pkt: packet) {
                let server = servers[hash(pkt.ip.src) % len(servers)];
                pkt.ip.dst = server[0];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        let mut st = ModelState::default();
        let p = tcp(1, 80);
        let out = st.step(&m, &p).unwrap().output.unwrap();
        let h = stable_hash(&Value::Int(i64::from(p.ip_src)));
        let expected = if h % 2 == 0 { 0x01010101u64 } else { 0x02020202 };
        assert_eq!(out.get(nf_packet::Field::IpDst).unwrap(), expected);
    }

    #[test]
    fn ttl_decrement_arithmetic() {
        let m = model_of(
            r#"
            fn cb(pkt: packet) {
                pkt.ip.ttl = pkt.ip.ttl - 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        let mut st = ModelState::default();
        let mut p = tcp(1, 80);
        p.ip_ttl = 64;
        let out = st.step(&m, &p).unwrap().output.unwrap();
        assert_eq!(out.ip_ttl, 63);
    }

    #[test]
    fn stuck_on_missing_config() {
        let m = model_of(
            r#"
            config PORT = 80;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == PORT { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#,
        );
        let mut st = ModelState::default(); // PORT unset
        assert!(st.step(&m, &tcp(1, 80)).is_err());
    }
}
