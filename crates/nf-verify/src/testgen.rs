//! BUZZ-style model-guided test generation — the paper's §4 Testing.
//!
//! *"BUZZ creates the testing packets by using the NF models. However,
//! their model is generated manually from domain knowledge so it may not
//! be complete or even accurate. NFactor is complementary to BUZZ: the
//! NFactor model can be used to guide the generation of testing
//! packets."*
//!
//! For every model entry we ask the SMT-lite solver for a concrete packet
//! satisfying the entry's flow match (with configs pinned to the
//! deployment's values). Entries guarded by state (`k in nat`) get a
//! *setup sequence*: the generator walks the model FSM and first emits
//! packets driving the mutating transition that establishes the state.
//! Each test is replayed against the concrete NF (the interpreter), and
//! the observed action is checked against the model's promise —
//! compliance testing.

use nf_model::{Entry, Model};
use nf_packet::{Field, Packet};
use nfactor_core::accuracy::initial_model_state;
use nfactor_core::Synthesis;
use nfl_interp::Interp;
use nfl_symex::{Solver, SymVal};
use std::collections::HashMap;
use std::fmt;

/// One generated test.
#[derive(Debug, Clone)]
pub struct TestPacket {
    /// Which `(table, entry)` the test targets.
    pub target: (usize, usize),
    /// Setup packets to drive the NF into the required state.
    pub setup: Vec<Packet>,
    /// The probe packet itself.
    pub probe: Packet,
    /// Whether the model says the probe is forwarded.
    pub expect_forward: bool,
}

/// Result of replaying generated tests against the concrete NF.
#[derive(Debug, Clone)]
pub struct ComplianceReport {
    /// Tests generated and executed.
    pub tests: Vec<TestPacket>,
    /// Entries for which no test could be generated (unsatisfiable or
    /// outside the solver fragment).
    pub ungenerated: usize,
    /// `(test index, expected forward?, observed forward?)` mismatches.
    pub violations: Vec<(usize, bool, bool)>,
}

impl ComplianceReport {
    /// Did every generated test behave as the model promised?
    pub fn compliant(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ComplianceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} tests generated ({} entries ungeneratable), {} violations",
            self.tests.len(),
            self.ungenerated,
            self.violations.len()
        )
    }
}

/// Build a packet from a solver assignment (keyed by rendered variable
/// name): each packet-field variable sets its field.
fn packet_of_model(assignment: &HashMap<String, i64>) -> Packet {
    let mut pkt = Packet::tcp(0x0a000001, 40000, 0x0b000001, 80, nf_packet::TcpFlags(0));
    for (var, value) in assignment {
        if let SymVal::Pkt(field) = SymVal::var(var) {
            if *value >= 0 {
                let _ = pkt.set(field, *value as u64);
            }
        }
    }
    pkt
}

fn field_domain(var: &str) -> (i64, i64) {
    match SymVal::var(var) {
        SymVal::Pkt(f) => (0, f.max_value().min(i64::MAX as u64) as i64),
        _ => (0, i64::MAX / 4),
    }
}

/// Substitute pinned configuration values into a term so the solver sees
/// concrete constants where the deployment has them.
fn pin_configs(term: &SymVal, configs: &HashMap<String, i64>) -> SymVal {
    match term {
        SymVal::Cfg(c) => match configs.get(c) {
            Some(val) => SymVal::Int(*val),
            None => term.clone(),
        },
        SymVal::Tuple(es) => SymVal::Tuple(es.iter().map(|e| pin_configs(e, configs)).collect()),
        SymVal::Array(es) => SymVal::Array(es.iter().map(|e| pin_configs(e, configs)).collect()),
        SymVal::Bin(op, a, b) => SymVal::bin(*op, pin_configs(a, configs), pin_configs(b, configs)),
        SymVal::Not(a) => SymVal::negate(pin_configs(a, configs)),
        SymVal::Neg(a) => SymVal::Neg(Box::new(pin_configs(a, configs))),
        SymVal::Hash(a) => SymVal::Hash(Box::new(pin_configs(a, configs))),
        SymVal::Min(a, b) => SymVal::Min(
            Box::new(pin_configs(a, configs)),
            Box::new(pin_configs(b, configs)),
        ),
        SymVal::Max(a, b) => SymVal::Max(
            Box::new(pin_configs(a, configs)),
            Box::new(pin_configs(b, configs)),
        ),
        SymVal::MapGet(m, k) => SymVal::MapGet(m.clone(), Box::new(pin_configs(k, configs))),
        SymVal::MapContains(m, k) => {
            SymVal::MapContains(m.clone(), Box::new(pin_configs(k, configs)))
        }
        SymVal::ArrayGet(a, b) => SymVal::ArrayGet(
            Box::new(pin_configs(a, configs)),
            Box::new(pin_configs(b, configs)),
        ),
        SymVal::Proj(a, i) => SymVal::Proj(Box::new(pin_configs(a, configs)), *i),
        other => other.clone(),
    }
}

/// The map-membership requirements of an entry's state match:
/// `(map name, key fields, polarity)` — key must be a tuple (or single
/// var) of packet fields for setup synthesis to work.
fn membership_requirements(entry: &Entry) -> Vec<(String, Vec<Field>, bool)> {
    let mut out = Vec::new();
    for lit in &entry.state_match {
        let (map, key, polarity) = match lit {
            SymVal::MapContains(m, k) => (m, k, true),
            SymVal::Not(inner) => match &**inner {
                SymVal::MapContains(m, k) => (m, k, false),
                _ => continue,
            },
            _ => continue,
        };
        if let Some(fields) = key.key_fields() {
            out.push((map.clone(), fields, polarity));
        }
    }
    out
}

/// Does the entry insert into `map` (making it a setup *donor*)?
fn inserts_into(entry: &Entry, map: &str) -> bool {
    entry
        .state_action
        .map_ops
        .iter()
        .any(|op| matches!(op, nfl_symex::MapOp::Insert { map: m, .. } if m == map))
}

/// Generate a probe for one entry from its flow match alone. Returns
/// `None` when unsatisfiable or outside the solver fragment.
fn generate_probe(
    entry: &Entry,
    configs: &HashMap<String, i64>,
    extra: &[SymVal],
    solver: &Solver,
) -> Option<Packet> {
    let mut constraints: Vec<SymVal> = entry
        .flow_match
        .iter()
        .map(|l| pin_configs(l, configs))
        .collect();
    constraints.extend_from_slice(extra);
    let assignment = solver.model(&constraints, field_domain)?;
    Some(packet_of_model(&assignment))
}

/// Generate tests for every entry of `model`, with `configs` pinned and
/// `initial` as the NF's starting state. Entries whose state match
/// requires map membership get a BUZZ-style *setup sequence*: a donor
/// entry that inserts into the required map is probed first; the model
/// is stepped to learn the inserted key; the probe's key fields are then
/// pinned to that key.
pub fn generate_tests(
    model: &Model,
    configs: &HashMap<String, i64>,
    initial: &nf_model::ModelState,
) -> (Vec<TestPacket>, usize) {
    let solver = Solver;
    let mut tests = Vec::new();
    let mut ungenerated = 0usize;
    // Pre-generate donor probes: entries with no membership requirement
    // that insert into some map.
    let donors: Vec<(Packet, &Entry)> = model
        .tables
        .iter()
        .flat_map(|t| &t.entries)
        .filter(|e| membership_requirements(e).iter().all(|(_, _, pos)| !pos))
        .filter_map(|e| generate_probe(e, configs, &[], &solver).map(|p| (p, e)))
        .collect();
    for (ti, table) in model.tables.iter().enumerate() {
        // Skip tables whose config condition contradicts the pins.
        let cfg_lits: Vec<SymVal> = table
            .config
            .iter()
            .map(|l| pin_configs(l, configs))
            .collect();
        if solver.check(&cfg_lits) == nfl_symex::Verdict::Unsat {
            continue;
        }
        for (ei, entry) in table.entries.iter().enumerate() {
            let requirements = membership_requirements(entry);
            let positives: Vec<_> = requirements.iter().filter(|(_, _, p)| *p).collect();
            let (setup, extra_constraints): (Vec<Packet>, Vec<SymVal>) = if positives.is_empty() {
                (Vec::new(), Vec::new())
            } else {
                // One positive requirement supported per entry (NF
                // entries in the corpus never need two distinct maps
                // pre-populated by different flows).
                let (map, key_fields, _) = positives[0];
                let Some((donor_pkt, _)) = donors.iter().find(|(_, d)| inserts_into(d, map)) else {
                    ungenerated += 1;
                    continue;
                };
                // Step the model to learn the key the donor installs.
                let mut st = initial.clone();
                if st.step(model, donor_pkt).is_err() {
                    ungenerated += 1;
                    continue;
                }
                let Some(entries) = st.map(map) else {
                    ungenerated += 1;
                    continue;
                };
                let Some(first_key) = entries.keys().min() else {
                    ungenerated += 1;
                    continue;
                };
                let key_vals: Vec<i64> = match first_key {
                    nfl_interp::ValueKey::Tuple(t) => t.clone(),
                    nfl_interp::ValueKey::Int(v) => vec![*v],
                    _ => {
                        ungenerated += 1;
                        continue;
                    }
                };
                if key_vals.len() != key_fields.len() {
                    ungenerated += 1;
                    continue;
                }
                let pins: Vec<SymVal> = key_fields
                    .iter()
                    .zip(&key_vals)
                    .map(|(f, v)| {
                        SymVal::Bin(
                            nfl_lang::BinOp::Eq,
                            Box::new(SymVal::Pkt(*f)),
                            Box::new(SymVal::Int(*v)),
                        )
                    })
                    .collect();
                (vec![donor_pkt.clone()], pins)
            };
            let Some(probe) = generate_probe(entry, configs, &extra_constraints, &solver) else {
                ungenerated += 1;
                continue;
            };
            tests.push(TestPacket {
                target: (ti, ei),
                setup,
                probe,
                expect_forward: !entry.flow_action.is_drop(),
            });
        }
    }
    (tests, ungenerated)
}

/// Generate tests from a synthesis and replay them against the concrete
/// NF — §4's compliance testing, with the model guiding packet creation.
pub fn compliance_test(syn: &Synthesis) -> Result<ComplianceReport, String> {
    // Pin configs to the deployment's declared initial values.
    let interp0 = Interp::new(&syn.nf_loop).map_err(|e| e.to_string())?;
    let model_state = initial_model_state(syn, &interp0);
    let configs: HashMap<String, i64> = model_state
        .configs
        .iter()
        .filter_map(|(k, v)| v.as_int().map(|i| (k.clone(), i)))
        .collect();
    let (tests, ungenerated) = generate_tests(&syn.model, &configs, &model_state);
    let mut violations = Vec::new();
    for (i, t) in tests.iter().enumerate() {
        // Fresh NF per test so state setup is controlled.
        let mut interp = Interp::new(&syn.nf_loop).map_err(|e| e.to_string())?;
        for s in &t.setup {
            interp.process(s).map_err(|e| e.to_string())?;
        }
        let r = interp.process(&t.probe).map_err(|e| e.to_string())?;
        let observed_forward = !r.dropped;
        // State-guarded pairs share the probe packet, so a setup that
        // already forwards makes "expect" ambiguous only when the entry
        // is drop-on-established — compare directly; mismatches are
        // violations by definition of the model.
        if observed_forward != t.expect_forward {
            violations.push((i, t.expect_forward, observed_forward));
        }
    }
    Ok(ComplianceReport {
        tests,
        ungenerated,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfactor_core::Pipeline;

    #[test]
    fn firewall_compliance_holds() {
        let syn = Pipeline::builder()
            .name("fw")
            .build()
            .unwrap()
            .synthesize(&nf_corpus::firewall::source())
            .unwrap();
        let report = compliance_test(&syn).unwrap();
        assert!(!report.tests.is_empty());
        assert!(report.compliant(), "{report}: {:?}", report.violations);
    }

    #[test]
    fn nat_compliance_holds_with_setup() {
        let syn = Pipeline::builder()
            .name("nat")
            .build()
            .unwrap()
            .synthesize(&nf_corpus::nat::source())
            .unwrap();
        let report = compliance_test(&syn).unwrap();
        assert!(report.compliant(), "{report}: {:?}", report.violations);
        // At least one generated test needed a state setup packet.
        assert!(
            report.tests.iter().any(|t| !t.setup.is_empty()),
            "NAT's existing-connection entry needs setup"
        );
    }

    #[test]
    fn snort_compliance_covers_block_and_forward() {
        let syn = Pipeline::builder()
            .name("snort")
            .build()
            .unwrap()
            .synthesize(&nf_corpus::snort::source(8))
            .unwrap();
        let report = compliance_test(&syn).unwrap();
        assert!(report.compliant(), "{report}: {:?}", report.violations);
        let fwd = report.tests.iter().filter(|t| t.expect_forward).count();
        let drop = report.tests.iter().filter(|t| !t.expect_forward).count();
        assert!(fwd >= 1 && drop >= 1, "fwd={fwd} drop={drop}");
    }

    #[test]
    fn generated_probe_satisfies_match() {
        let syn = Pipeline::builder()
            .name("fw")
            .build()
            .unwrap()
            .synthesize(&nf_corpus::firewall::source())
            .unwrap();
        let report = compliance_test(&syn).unwrap();
        // Spot-check: every probe targeting a forward entry is actually
        // forwarded by a fresh NF when its setup ran (already asserted
        // by compliance, but verify the probe structure too).
        for t in &report.tests {
            assert!(t.probe.get(Field::IpSrc).is_ok());
        }
    }

    #[test]
    fn detects_noncompliant_implementation() {
        // Synthesize the model from one NF but replay against a *broken*
        // variant — compliance must fail (this is the point of §4's
        // compliance testing).
        let good = Pipeline::builder()
            .name("fw")
            .build()
            .unwrap()
            .synthesize(&nf_corpus::firewall::source())
            .unwrap();
        let broken_src = nf_corpus::firewall::source().replace(
            "if pkt.tcp.dport == ALLOW_PORT {",
            "if pkt.tcp.dport == 81 {",
        );
        let broken = Pipeline::builder()
            .name("fw-broken")
            .build()
            .unwrap()
            .synthesize(&broken_src)
            .unwrap();
        // Replay good-model tests on the broken implementation.
        let interp_ok = Interp::new(&broken.nf_loop).unwrap();
        let model_state = initial_model_state(&good, &interp_ok);
        let configs: HashMap<String, i64> = model_state
            .configs
            .iter()
            .filter_map(|(k, v)| v.as_int().map(|i| (k.clone(), i)))
            .collect();
        let (tests, _) = generate_tests(&good.model, &configs, &model_state);
        let mut violations = 0;
        for t in &tests {
            let mut interp = Interp::new(&broken.nf_loop).unwrap();
            for s in &t.setup {
                interp.process(s).unwrap();
            }
            let r = interp.process(&t.probe).unwrap();
            if r.dropped == t.expect_forward {
                violations += 1;
            }
        }
        assert!(violations > 0, "broken allow-port must be caught");
    }
}
