//! Service-chain policy composition — the paper's §4 PGA application.
//!
//! *"Consider two service chaining policies: `{FW, IDS}` and `{LB}`.
//! What should be the right order after composition, `{FW, IDS, LB}` or
//! `{FW, LB, IDS}`? … PGA … generates the input and output space
//! constraints of each NF based on its behavior model."*
//!
//! The models make the answer computable: an NF that **rewrites** a
//! field must come *after* any NF that **matches** on that field,
//! otherwise the match sees translated values the policy never spoke
//! about. [`recommend_order`] extracts per-model field footprints
//! (matched / rewritten), builds the interference constraints, and
//! topologically sorts — reporting the paper's `{FW, IDS, LB}` for the
//! motivating example because the LB rewrites `ip.dst`/`tcp.dport`,
//! which both the FW and the IDS match on.

use nf_model::{FlowAction, Model};
use nf_packet::Field;
use nfl_symex::SymVal;
use std::collections::BTreeSet;
use std::fmt;

/// The field footprint of one model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Fields any entry matches on.
    pub matched: BTreeSet<Field>,
    /// Fields any forwarding entry rewrites.
    pub rewritten: BTreeSet<Field>,
}

fn fields_of(term: &SymVal, out: &mut BTreeSet<Field>) {
    for v in term.free_vars() {
        if let SymVal::Pkt(f) = v {
            out.insert(*f);
        }
    }
}

/// Compute a model's matched/rewritten field sets.
pub fn footprint(model: &Model) -> Footprint {
    let mut fp = Footprint::default();
    for t in &model.tables {
        for e in &t.entries {
            for lit in e.flow_match.iter().chain(&e.state_match) {
                fields_of(lit, &mut fp.matched);
            }
            if let FlowAction::Forward { rewrites } = &e.flow_action {
                for (f, _) in rewrites {
                    fp.rewritten.insert(*f);
                }
            }
        }
    }
    fp
}

/// The composition decision for one candidate chain.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// NF names in the recommended order.
    pub order: Vec<String>,
    /// Human-readable constraints that forced the order
    /// (`"LB rewrites ip.dst which IDS matches → IDS before LB"`).
    pub constraints: Vec<String>,
    /// True when some constraint set is cyclic and the order is a
    /// best-effort (the operator must split the chain).
    pub has_conflict: bool,
}

impl fmt::Display for ChainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "recommended order: {{{}}}", self.order.join(", "))?;
        for c in &self.constraints {
            writeln!(f, "  - {c}")?;
        }
        if self.has_conflict {
            writeln!(f, "  ! conflicting constraints — order is best-effort")?;
        }
        Ok(())
    }
}

/// Recommend an order for `nfs` (name, model). Precedence: if A rewrites
/// a field B matches on, B goes before A (B must see pre-rewrite
/// headers). Ties keep the given order, so policy-specified partial
/// orders (`{FW, IDS}`) survive composition.
pub fn recommend_order(nfs: &[(&str, &Model)]) -> ChainReport {
    let fps: Vec<Footprint> = nfs.iter().map(|(_, m)| footprint(m)).collect();
    let n = nfs.len();
    // edge a→b means "a must run before b".
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut constraints = Vec::new();
    for (a, fa) in fps.iter().enumerate() {
        for (b, fb) in fps.iter().enumerate() {
            if a == b {
                continue;
            }
            let clash: Vec<Field> = fb.rewritten.intersection(&fa.matched).copied().collect();
            // b rewrites fields a matches ⇒ a before b (but only if a
            // does not itself rewrite fields b matches — that would be a
            // cycle reported below).
            if !clash.is_empty() {
                edges.push((a, b));
                constraints.push(format!(
                    "{} rewrites {} which {} matches on → {} before {}",
                    nfs[b].0,
                    clash
                        .iter()
                        .map(|f| f.path().to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    nfs[a].0,
                    nfs[a].0,
                    nfs[b].0
                ));
            }
        }
    }
    // Kahn's algorithm, stable w.r.t. the input order.
    let mut indeg = vec![0usize; n];
    for &(_, b) in &edges {
        indeg[b] += 1;
    }
    let mut order = Vec::new();
    let mut placed = vec![false; n];
    let mut has_conflict = false;
    while order.len() < n {
        let next = (0..n).find(|&i| !placed[i] && indeg[i] == 0);
        match next {
            Some(i) => {
                placed[i] = true;
                order.push(nfs[i].0.to_string());
                for &(a, b) in &edges {
                    if a == i && !placed[b] {
                        indeg[b] -= 1;
                    }
                }
            }
            None => {
                // Cycle: place the first unplaced NF and continue.
                has_conflict = true;
                let i = (0..n).find(|&i| !placed[i]).unwrap();
                placed[i] = true;
                indeg[i] = 0;
                order.push(nfs[i].0.to_string());
                for &(a, b) in &edges {
                    if a == i && !placed[b] && indeg[b] > 0 {
                        indeg[b] -= 1;
                    }
                }
            }
        }
    }
    ChainReport {
        order,
        constraints,
        has_conflict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfactor_core::Pipeline;

    fn model_of(name: &str, src: &str) -> Model {
        Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(src)
            .unwrap()
            .model
    }

    #[test]
    fn paper_example_fw_ids_lb() {
        let fw = model_of("FW", &nf_corpus::firewall::source());
        let ids = model_of("IDS", &nf_corpus::snort::source(5));
        let lb = model_of("LB", &nf_corpus::fig1_lb::source());
        let report = recommend_order(&[("FW", &fw), ("IDS", &ids), ("LB", &lb)]);
        // The paper's question: {FW, IDS, LB} or {FW, LB, IDS}? The LB
        // rewrites addresses/ports the FW and IDS match on, so it goes
        // last.
        assert_eq!(
            report.order,
            vec!["FW".to_string(), "IDS".to_string(), "LB".to_string()],
            "{report}"
        );
        assert!(!report.has_conflict);
        assert!(
            report.constraints.iter().any(|c| c.contains("LB rewrites")),
            "{report}"
        );
    }

    #[test]
    fn footprints_are_sensible() {
        let lb = model_of("LB", &nf_corpus::fig1_lb::source());
        let fp = footprint(&lb);
        assert!(fp.rewritten.contains(&Field::IpDst));
        assert!(fp.rewritten.contains(&Field::TcpDport));
        assert!(fp.matched.contains(&Field::TcpDport));
        let fw = model_of("FW", &nf_corpus::firewall::source());
        let ffw = footprint(&fw);
        assert!(ffw.rewritten.is_empty(), "firewalls do not rewrite");
        assert!(ffw.matched.contains(&Field::IpSrc));
    }

    #[test]
    fn stable_when_no_interference() {
        let fw = model_of("FW", &nf_corpus::firewall::source());
        let report = recommend_order(&[("A", &fw), ("B", &fw)]);
        assert_eq!(report.order, vec!["A".to_string(), "B".to_string()]);
        assert!(report.constraints.is_empty());
    }

    #[test]
    fn cycle_detected_between_mutual_rewriters() {
        let lb = model_of("LB", &nf_corpus::fig1_lb::source());
        let nat = model_of("NAT", &nf_corpus::nat::source());
        // Both rewrite addresses both match on → conflict expected.
        let report = recommend_order(&[("LB", &lb), ("NAT", &nat)]);
        assert!(report.has_conflict, "{report}");
        assert_eq!(report.order.len(), 2);
    }
}
