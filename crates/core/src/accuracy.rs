//! The §5 accuracy experiments.
//!
//! Two checks, exactly as the paper runs them:
//!
//! 1. **Path-set equality** — "we use symbolic execution to exercise all
//!    possible execution paths on both sides. We have compared and
//!    confirmed that the two sets of paths are the same."
//!    [`path_sets_equal`] compares the canonical forwarding behaviour of
//!    the slice's paths against the original program's paths (log-only
//!    state noise filtered out).
//!
//! 2. **Random differential testing** — "we generate random inputs (i.e.,
//!    packets) to both NFactor model and the original program, and test
//!    whether they output the same result. We repeat the experiments for
//!    1000 times." [`differential_test`] runs the interpreter (program
//!    side) and the model evaluator (model side) on the same seeded
//!    packet stream and diffs outputs packet by packet.

use crate::pipeline::Synthesis;
use nf_model::ModelState;
use nf_packet::{Packet, PacketGen};
use nfl_interp::{Interp, Value};
use nfl_symex::{ExplorationStats, SymExec};
use std::collections::BTreeSet;

/// Outcome of the differential test.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Packets compared.
    pub trials: usize,
    /// Packets where model and program agreed exactly.
    pub agreements: usize,
    /// First few disagreements, for debugging: `(trial, program-out,
    /// model-out)`.
    pub mismatches: Vec<(usize, Option<Packet>, Option<Packet>)>,
}

impl AccuracyReport {
    /// Did every trial agree?
    pub fn perfect(&self) -> bool {
        self.agreements == self.trials
    }
}

/// Initialise a [`ModelState`] from the NF's declared initial values —
/// the interpreter's freshly-evaluated globals are the single source of
/// truth so both sides of the experiment start identically.
pub fn initial_model_state(syn: &Synthesis, interp: &Interp) -> ModelState {
    let mut st = ModelState::default();
    for item in &syn.nf_loop.program.configs {
        if let Some(v) = interp.global(&item.name) {
            st.configs.insert(item.name.clone(), v.clone());
        }
    }
    for item in &syn.nf_loop.program.states {
        st = match interp.global(&item.name) {
            Some(Value::Map(_)) => st.with_map(&item.name),
            Some(v) => st.with_scalar(&item.name, v.clone()),
            None => st,
        };
    }
    st
}

/// Run the §5 random-packet differential test: `trials` packets from a
/// seeded generator through both the original program (interpreter) and
/// the synthesized model (evaluator), comparing the forwarded packet (or
/// drop) each time.
pub fn differential_test(
    syn: &Synthesis,
    seed: u64,
    trials: usize,
) -> Result<AccuracyReport, String> {
    let mut interp = Interp::new(&syn.nf_loop).map_err(|e| e.to_string())?;
    let mut model_state = initial_model_state(syn, &interp);
    let mut gen = PacketGen::new(seed);
    let mut agreements = 0usize;
    let mut mismatches = Vec::new();
    for trial in 0..trials {
        let pkt = gen.next_packet();
        let prog = interp.process(&pkt).map_err(|e| format!("trial {trial}: {e}"))?;
        let model = model_state
            .step(&syn.model, &pkt)
            .map_err(|e| format!("trial {trial}: {e}"))?;
        let prog_out = prog.outputs.first().cloned();
        if prog_out == model.output {
            agreements += 1;
        } else if mismatches.len() < 8 {
            mismatches.push((trial, prog_out, model.output.clone()));
        }
    }
    Ok(AccuracyReport {
        trials,
        agreements,
        mismatches,
    })
}

/// Canonicalise an exploration's *forwarding* path set: per path, the
/// sorted constraints plus the output rewrites, ignoring state variables
/// that are not output-impacting (log counters exist in the original
/// program's paths but are rightly absent from the slice's).
///
/// `vocabulary` restricts which constraint literals count: the original
/// program's paths additionally split on log-only branches (the decoder
/// statistics in snort, the bookkeeping guards in balance); projecting
/// both sides onto the slice's literal vocabulary merges those splits —
/// this is what "the two sets of paths are the same" means for a
/// *forwarding* model.
fn forwarding_set(
    stats: &ExplorationStats,
    ois: &BTreeSet<String>,
    vocabulary: Option<&BTreeSet<String>>,
) -> BTreeSet<String> {
    stats
        .paths
        .iter()
        .map(|p| {
            let mut cs: Vec<String> = p
                .constraints
                .iter()
                .map(|c| c.to_string())
                .filter(|c| vocabulary.map(|v| v.contains(c)).unwrap_or(true))
                .collect();
            cs.sort();
            cs.dedup();
            let outs: Vec<String> = p
                .outputs
                .iter()
                .map(|o| {
                    let mut rw: Vec<String> = o
                        .rewrites()
                        .iter()
                        .map(|(f, v)| format!("{}={v}", f.path()))
                        .collect();
                    rw.sort();
                    rw.join(",")
                })
                .collect();
            let mut sts: Vec<String> = p
                .state_updates
                .iter()
                .filter(|(k, _)| ois.contains(*k))
                .map(|(k, v)| format!("{k}:={v}"))
                .collect();
            sts.sort();
            let mut maps: Vec<String> = p.map_ops.iter().map(|m| m.to_string()).collect();
            maps.sort();
            format!(
                "C[{}] O[{}] S[{}] M[{}]",
                cs.join("&&"),
                outs.join(";"),
                sts.join(";"),
                maps.join(";")
            )
        })
        .collect()
}

/// The §5 path-set equality check: explore the original per-packet
/// function and compare its forwarding path set with the slice's,
/// modulo splits on non-forwarding branches.
pub fn path_sets_equal(syn: &Synthesis) -> Result<bool, String> {
    let orig = SymExec::new(&syn.nf_loop)
        .with_limits(syn.exploration_limits())
        .explore()
        .map_err(|e| e.to_string())?;
    let ois: BTreeSet<String> = syn.classes.ois_vars.iter().cloned().collect();
    // The slice's constraint vocabulary defines which literals are
    // forwarding-relevant.
    let vocabulary: BTreeSet<String> = syn
        .exploration
        .paths
        .iter()
        .flat_map(|p| p.constraints.iter().map(|c| c.to_string()))
        .collect();
    let a = forwarding_set(&orig, &ois, Some(&vocabulary));
    let b = forwarding_set(&syn.exploration, &ois, Some(&vocabulary));
    Ok(a == b)
}

impl Synthesis {
    /// The limits used for the slice exploration (reused for the
    /// comparison run).
    pub fn exploration_limits(&self) -> nfl_symex::PathLimits {
        nfl_symex::PathLimits::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;

    fn synth(name: &str, src: &str) -> crate::pipeline::Synthesis {
        Pipeline::builder().name(name).build().unwrap().synthesize(src).unwrap()
    }

    const NAT_SRC: &str = r#"
        config NAT_PORT = 80;
        state nat = map();
        state next_port = 10000;
        state stat = 0;
        fn cb(pkt: packet) {
            stat = stat + 1;
            if pkt.tcp.dport == NAT_PORT {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k not in nat {
                    nat[k] = next_port;
                    next_port = next_port + 1;
                }
                pkt.tcp.sport = nat[k];
                send(pkt);
            }
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn thousand_packet_differential_nat() {
        let syn = synth("nat", NAT_SRC);
        let report = differential_test(&syn, 2016, 1000).unwrap();
        assert!(
            report.perfect(),
            "mismatches: {:?}",
            report.mismatches
        );
        assert_eq!(report.trials, 1000);
    }

    #[test]
    fn path_sets_match_for_nat() {
        let syn = synth("nat", NAT_SRC);
        assert!(path_sets_equal(&syn).unwrap());
    }

    #[test]
    fn differential_is_seed_deterministic() {
        let syn = synth("nat", NAT_SRC);
        let a = differential_test(&syn, 7, 100).unwrap();
        let b = differential_test(&syn, 7, 100).unwrap();
        assert_eq!(a.agreements, b.agreements);
    }

    #[test]
    fn ttl_filter_differential() {
        let src = r#"
            fn cb(pkt: packet) {
                if pkt.ip.ttl > 1 {
                    pkt.ip.ttl = pkt.ip.ttl - 1;
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#;
        let syn = synth("ttl", src);
        let report = differential_test(&syn, 99, 500).unwrap();
        assert!(report.perfect(), "{:?}", report.mismatches);
    }
}
