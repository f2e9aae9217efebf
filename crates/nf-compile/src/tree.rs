//! The field-test decision tree.
//!
//! Flow-match literals that compare a single packet field against a
//! constant (after configuration folding) are lowered into shared
//! dispatch nodes — [`Node::Exact`] for `pkt.f == c` and masked
//! prefix tests `(pkt.f & m) == c`, [`Node::Range`] for
//! `pkt.f < c` / `<=` / `>` / `>=` interval tests — so one field read
//! classifies every entry that tests that field at once, instead of the
//! reference evaluator's entry-by-entry scan. Literals that do not fit
//! (negations, multi-field terms, hash/map terms) stay *residual* and
//! are evaluated per-entry at the leaves, in their original order.
//!
//! ## Missing-layer children
//!
//! `pkt.get` is fallible for transport fields (`tcp.flags` on a UDP
//! packet, ports on a non-TCP/UDP packet), and the reference evaluator
//! only ever reads such a field when entry-order short-circuiting
//! actually reaches the literal. A tree node would hoist that read. So
//! nodes over fallible fields carry a `missing` child: when the field
//! read fails, classification continues with every candidate's tests on
//! that field demoted back to residual literals — which then evaluate
//! (and fail) in exactly the reference order.

use crate::compile::PredLit;
use crate::expr::CExpr;
use nf_packet::Field;
use nfl_lang::BinOp;

/// A single-field test a tree node can evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// `(pkt.field & mask) == value`; `mask == -1` is a plain equality.
    Exact {
        /// Bit mask applied before comparing (`-1` = all bits).
        mask: i64,
        /// The value to match.
        value: i64,
    },
    /// `lo <= pkt.field <= hi` (inclusive, clamped to the field domain).
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

/// A classified flow-match literal: which field it reads and what it
/// requires of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldTest {
    /// The packet field the test reads.
    pub field: Field,
    /// The constraint on that field.
    pub kind: TestKind,
}

/// Fields whose `Packet::get` can fail (missing transport layer).
/// Nodes over these fields need a missing-layer child.
pub fn fallible(f: Field) -> bool {
    matches!(
        f,
        Field::TcpSport | Field::TcpDport | Field::TcpFlags | Field::TcpSeq | Field::TcpAck
    )
}

/// Classify a lowered flow literal as a tree test, if it has one of the
/// recognised single-field shapes. Anything else (including tests whose
/// interval is empty — always false — or covers the whole domain) stays
/// residual; correctness never depends on classification succeeding.
pub fn classify(e: &CExpr) -> Option<FieldTest> {
    let (op, lhs, rhs) = match e {
        CExpr::Bin(op, a, b) => (*op, a.as_ref(), b.as_ref()),
        _ => return None,
    };
    // Normalise to (op, field-side, constant).
    let (op, fs, c) = match (lhs.as_const_int(), rhs.as_const_int()) {
        (None, Some(c)) => (op, lhs, c),
        (Some(c), None) => (flip(op)?, rhs, c),
        _ => return None,
    };
    // The field side: a bare field read, or a masked field read.
    let (field, mask) = match fs {
        CExpr::Pkt(f) => (*f, -1i64),
        CExpr::Bin(BinOp::BitAnd, a, b) => match (a.as_ref(), b.as_ref()) {
            (CExpr::Pkt(f), m) | (m, CExpr::Pkt(f)) => (*f, m.as_const_int()?),
            _ => return None,
        },
        _ => return None,
    };
    let fmax = field.max_value() as i64;
    match (op, mask) {
        (BinOp::Eq, _) => Some(FieldTest {
            field,
            kind: TestKind::Exact { mask, value: c },
        }),
        // Interval tests only apply to the unmasked field.
        (BinOp::Lt, -1) => range(field, 0, c.saturating_sub(1), fmax),
        (BinOp::Le, -1) => range(field, 0, c, fmax),
        (BinOp::Gt, -1) => range(field, c.saturating_add(1), fmax, fmax),
        (BinOp::Ge, -1) => range(field, c, fmax, fmax),
        _ => None,
    }
}

/// Mirror a comparison so the field lands on the left.
fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

fn range(field: Field, lo: i64, hi: i64, fmax: i64) -> Option<FieldTest> {
    let (lo, hi) = (lo.max(0), hi.min(fmax));
    // Empty (always-false) and full-domain (always-true) intervals gain
    // nothing from a split; leave them residual.
    if lo > hi || (lo == 0 && hi == fmax) {
        return None;
    }
    Some(FieldTest {
        field,
        kind: TestKind::Range { lo, hi },
    })
}

/// One dispatch node of the compiled tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Dispatch on `(pkt.field & mask)`: sorted arms, binary-searched.
    Exact {
        /// The field read at this node.
        field: Field,
        /// Mask applied before matching (`-1` = all bits).
        mask: i64,
        /// `(masked value, child)` arms, sorted by value.
        arms: Vec<(i64, usize)>,
        /// Child for packets matching no arm.
        default: usize,
        /// Child taken when the field read fails (missing layer).
        missing: Option<usize>,
    },
    /// Dispatch on which interval segment `pkt.field` falls into.
    Range {
        /// The field read at this node.
        field: Field,
        /// Interior segment boundaries, ascending; segment `i` is
        /// `[cuts[i-1], cuts[i] - 1]` (with 0 and the field max at the
        /// ends), child `i` handles it.
        cuts: Vec<i64>,
        /// One child per segment (`cuts.len() + 1`).
        children: Vec<usize>,
        /// Child taken when the field read fails.
        missing: Option<usize>,
    },
    /// Terminal: candidate entries in global priority order, each with
    /// the indices of its not-yet-proven flow literals.
    Leaf {
        /// Candidates, in match priority order.
        cands: Vec<LeafCand>,
    },
}

/// A candidate entry at a leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafCand {
    /// Index into the program's flattened entry list.
    pub entry: usize,
    /// Indices (into the entry's flow-literal list, ascending) of the
    /// literals the path to this leaf did *not* prove; they evaluate
    /// here, in original order.
    pub residuals: Vec<usize>,
    /// What the candidate must satisfy here, in evaluation order: one
    /// interned obligation per residual, then the entry's state tags.
    /// Empty until [`compile`](fn@crate::compile) interns the predicates.
    pub lits: Vec<PredLit>,
}

/// A candidate under construction: one entry plus its outstanding flow
/// literals, each either still tree-consumable or residual.
#[derive(Debug, Clone)]
pub struct Cand {
    /// Index into the flattened entry list.
    pub entry: usize,
    /// `(literal index, classified test)`; `None` = residual.
    pub lits: Vec<(usize, Option<FieldTest>)>,
}

/// Split-key candidates, ordered for deterministic tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SplitKey {
    Exact(Field, i64),
    Range(Field),
}

/// Build the decision tree over `cands`, appending nodes to `arena` and
/// returning the root index.
pub fn build(arena: &mut Vec<Node>, cands: Vec<Cand>) -> usize {
    // Count, per split key, how many candidates carry a matching test.
    let mut counts: Vec<(SplitKey, usize)> = Vec::new();
    for c in &cands {
        let mut seen: Vec<SplitKey> = Vec::new();
        for (_, t) in &c.lits {
            let Some(t) = t else { continue };
            let key = match t.kind {
                TestKind::Exact { mask, .. } => SplitKey::Exact(t.field, mask),
                TestKind::Range { .. } => SplitKey::Range(t.field),
            };
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        for key in seen {
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => counts.push((key, 1)),
            }
        }
    }
    let Some(&(key, _)) = counts
        .iter()
        .max_by_key(|(k, n)| (*n, std::cmp::Reverse(*k)))
    else {
        // No tree-consumable test anywhere: terminal.
        return push(arena, leaf(cands));
    };
    match key {
        SplitKey::Exact(field, mask) => split_exact(arena, cands, field, mask),
        SplitKey::Range(field) => split_range(arena, cands, field),
    }
}

fn push(arena: &mut Vec<Node>, n: Node) -> usize {
    arena.push(n);
    arena.len() - 1
}

fn leaf(cands: Vec<Cand>) -> Node {
    Node::Leaf {
        cands: cands
            .into_iter()
            .map(|c| LeafCand {
                entry: c.entry,
                residuals: c.lits.iter().map(|(i, _)| *i).collect(),
                lits: Vec::new(),
            })
            .collect(),
    }
}

/// The first literal of `c` carrying an exact test with this exact
/// `(field, mask)` key, if any.
fn first_exact(c: &Cand, field: Field, mask: i64) -> Option<(usize, i64)> {
    c.lits.iter().enumerate().find_map(|(pos, (_, t))| match t {
        Some(FieldTest {
            field: f,
            kind: TestKind::Exact { mask: m, value },
        }) if *f == field && *m == mask => Some((pos, *value)),
        _ => None,
    })
}

/// The first literal of `c` carrying a range test on `field`.
fn first_range(c: &Cand, field: Field) -> Option<(usize, i64, i64)> {
    c.lits.iter().enumerate().find_map(|(pos, (_, t))| match t {
        Some(FieldTest {
            field: f,
            kind: TestKind::Range { lo, hi },
        }) if *f == field => Some((pos, *lo, *hi)),
        _ => None,
    })
}

/// A copy of `cands` with every test on `field` demoted to residual —
/// the candidate set for a missing-layer child, where those literals
/// must evaluate in reference order instead.
fn demote_field(cands: &[Cand], field: Field) -> Vec<Cand> {
    cands
        .iter()
        .map(|c| Cand {
            entry: c.entry,
            lits: c
                .lits
                .iter()
                .map(|&(i, t)| match t {
                    Some(ft) if ft.field == field => (i, None),
                    other => (i, other),
                })
                .collect(),
        })
        .collect()
}

fn split_exact(arena: &mut Vec<Node>, cands: Vec<Cand>, field: Field, mask: i64) -> usize {
    let missing = fallible(field).then(|| {
        let demoted = demote_field(&cands, field);
        build(arena, demoted)
    });
    let mut arm_values: Vec<i64> = Vec::new();
    for c in &cands {
        if let Some((_, v)) = first_exact(c, field, mask) {
            if !arm_values.contains(&v) {
                arm_values.push(v);
            }
        }
    }
    arm_values.sort_unstable();
    let mut arms = Vec::with_capacity(arm_values.len());
    for &v in &arm_values {
        let sub: Vec<Cand> = cands
            .iter()
            .filter_map(|c| match first_exact(c, field, mask) {
                Some((pos, value)) => (value == v).then(|| {
                    let mut lits = c.lits.clone();
                    lits.remove(pos); // proved true by taking this arm
                    Cand {
                        entry: c.entry,
                        lits,
                    }
                }),
                None => Some(c.clone()), // no test here: passes through
            })
            .collect();
        arms.push((v, build(arena, sub)));
    }
    let default_cands: Vec<Cand> = cands
        .iter()
        .filter(|c| first_exact(c, field, mask).is_none())
        .cloned()
        .collect();
    let default = build(arena, default_cands);
    push(
        arena,
        Node::Exact {
            field,
            mask,
            arms,
            default,
            missing,
        },
    )
}

fn split_range(arena: &mut Vec<Node>, cands: Vec<Cand>, field: Field) -> usize {
    let missing = fallible(field).then(|| {
        let demoted = demote_field(&cands, field);
        build(arena, demoted)
    });
    let fmax = field.max_value() as i64;
    // Segment boundaries: every participating interval's lo and hi+1.
    let mut cuts: Vec<i64> = Vec::new();
    for c in &cands {
        if let Some((_, lo, hi)) = first_range(c, field) {
            if lo > 0 {
                cuts.push(lo);
            }
            if hi < fmax {
                cuts.push(hi + 1);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut children = Vec::with_capacity(cuts.len() + 1);
    for seg in 0..=cuts.len() {
        let seg_lo = if seg == 0 { 0 } else { cuts[seg - 1] };
        let seg_hi = if seg == cuts.len() {
            fmax
        } else {
            cuts[seg] - 1
        };
        let sub: Vec<Cand> = cands
            .iter()
            .filter_map(|c| match first_range(c, field) {
                Some((pos, lo, hi)) => (lo <= seg_lo && seg_hi <= hi).then(|| {
                    let mut lits = c.lits.clone();
                    lits.remove(pos); // segment lies inside the interval
                    Cand {
                        entry: c.entry,
                        lits,
                    }
                }),
                None => Some(c.clone()),
            })
            .collect();
        children.push(build(arena, sub));
    }
    push(
        arena,
        Node::Range {
            field,
            cuts,
            children,
            missing,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq(f: Field, c: i64) -> CExpr {
        CExpr::Bin(
            BinOp::Eq,
            Box::new(CExpr::Pkt(f)),
            Box::new(CExpr::Const(nfl_interp::Value::Int(c))),
        )
    }

    #[test]
    fn classify_plain_equality() {
        assert_eq!(
            classify(&eq(Field::TcpDport, 80)),
            Some(FieldTest {
                field: Field::TcpDport,
                kind: TestKind::Exact {
                    mask: -1,
                    value: 80
                }
            })
        );
    }

    #[test]
    fn classify_masked_prefix() {
        let e = CExpr::Bin(
            BinOp::Eq,
            Box::new(CExpr::Bin(
                BinOp::BitAnd,
                Box::new(CExpr::Pkt(Field::IpSrc)),
                Box::new(CExpr::Const(nfl_interp::Value::Int(0xFFFF0000))),
            )),
            Box::new(CExpr::Const(nfl_interp::Value::Int(0x0A000000))),
        );
        assert_eq!(
            classify(&e),
            Some(FieldTest {
                field: Field::IpSrc,
                kind: TestKind::Exact {
                    mask: 0xFFFF0000,
                    value: 0x0A000000
                }
            })
        );
    }

    #[test]
    fn classify_interval_and_flip() {
        // pkt.ip.ttl < 2  →  [0, 1]
        let lt = CExpr::Bin(
            BinOp::Lt,
            Box::new(CExpr::Pkt(Field::IpTtl)),
            Box::new(CExpr::Const(nfl_interp::Value::Int(2))),
        );
        assert_eq!(
            classify(&lt),
            Some(FieldTest {
                field: Field::IpTtl,
                kind: TestKind::Range { lo: 0, hi: 1 }
            })
        );
        // 2 <= pkt.ip.ttl  →  [2, 255]
        let flipped = CExpr::Bin(
            BinOp::Le,
            Box::new(CExpr::Const(nfl_interp::Value::Int(2))),
            Box::new(CExpr::Pkt(Field::IpTtl)),
        );
        assert_eq!(
            classify(&flipped),
            Some(FieldTest {
                field: Field::IpTtl,
                kind: TestKind::Range { lo: 2, hi: 255 }
            })
        );
    }

    #[test]
    fn classify_rejects_ne_and_empty_ranges() {
        let ne = CExpr::Bin(
            BinOp::Ne,
            Box::new(CExpr::Pkt(Field::IpTtl)),
            Box::new(CExpr::Const(nfl_interp::Value::Int(7))),
        );
        assert_eq!(classify(&ne), None);
        // ttl < 0 is unsatisfiable: residual, not an empty tree arm.
        let empty = CExpr::Bin(
            BinOp::Lt,
            Box::new(CExpr::Pkt(Field::IpTtl)),
            Box::new(CExpr::Const(nfl_interp::Value::Int(0))),
        );
        assert_eq!(classify(&empty), None);
    }

    #[test]
    fn build_terminates_and_reaches_all_entries() {
        // Entry 0: proto == 6; entry 1: ttl < 2; entry 2: no tests.
        let cands = vec![
            Cand {
                entry: 0,
                lits: vec![(0, classify(&eq(Field::IpProto, 6)))],
            },
            Cand {
                entry: 1,
                lits: vec![(
                    0,
                    Some(FieldTest {
                        field: Field::IpTtl,
                        kind: TestKind::Range { lo: 0, hi: 1 },
                    }),
                )],
            },
            Cand {
                entry: 2,
                lits: vec![],
            },
        ];
        let mut arena = Vec::new();
        let root = build(&mut arena, cands);
        assert!(root < arena.len());
        let mut found = std::collections::BTreeSet::new();
        for n in &arena {
            if let Node::Leaf { cands } = n {
                for c in cands {
                    found.insert(c.entry);
                }
            }
        }
        assert_eq!(found, [0usize, 1, 2].into_iter().collect());
    }
}
