//! Per-path witness testing: for every execution path the symbolic
//! engine claims exists, the solver must produce a concrete packet, and
//! the interpreter must actually take that path (same forward/drop
//! decision). This validates engine + solver against the ground-truth
//! interpreter at path granularity — finer than the §5 random test.

use nfactor::core::{Pipeline, Synthesis};
use nfactor::interp::Interp;
use nfactor::packet::{Packet, TcpFlags};
use nfactor::symex::{Solver, SymVal};
use std::collections::HashMap;

fn pin(term: &SymVal, configs: &HashMap<String, i64>) -> SymVal {
    match term {
        SymVal::Cfg(c) => configs
            .get(c)
            .map(|val| SymVal::Int(*val))
            .unwrap_or_else(|| term.clone()),
        SymVal::Tuple(es) => SymVal::Tuple(es.iter().map(|e| pin(e, configs)).collect()),
        SymVal::Array(es) => SymVal::Array(es.iter().map(|e| pin(e, configs)).collect()),
        SymVal::Bin(op, a, b) => SymVal::bin(*op, pin(a, configs), pin(b, configs)),
        SymVal::Not(a) => SymVal::negate(pin(a, configs)),
        SymVal::Hash(a) => SymVal::Hash(Box::new(pin(a, configs))),
        SymVal::Min(a, b) => SymVal::Min(Box::new(pin(a, configs)), Box::new(pin(b, configs))),
        SymVal::Max(a, b) => SymVal::Max(Box::new(pin(a, configs)), Box::new(pin(b, configs))),
        other => other.clone(),
    }
}

fn witness_packet(assignment: &HashMap<String, i64>) -> Packet {
    let mut pkt = Packet::tcp(0x0b000001, 40000, 0x0c000001, 9999, TcpFlags(0));
    pkt.ip_ttl = 64;
    for (var, value) in assignment {
        if let (SymVal::Pkt(field), Ok(v)) = (SymVal::var(var), u64::try_from(*value)) {
            let _ = pkt.set(field, v);
        }
    }
    pkt
}

fn check_stateless_paths(syn: &Synthesis) -> (usize, usize) {
    let solver = Solver;
    let configs: HashMap<String, i64> = {
        let interp = Interp::new(&syn.nf_loop).unwrap();
        syn.nf_loop
            .program
            .configs
            .iter()
            .filter_map(|c| {
                interp
                    .global(&c.name)
                    .and_then(|v| v.as_int())
                    .map(|v| (c.name.clone(), v))
            })
            .collect()
    };
    let mut witnessed = 0;
    let mut skipped = 0;
    for path in &syn.exploration.paths {
        // Stateless check: skip paths whose condition involves state.
        if path.constraints.iter().any(|c| c.mentions().state) {
            skipped += 1;
            continue;
        }
        let pinned: Vec<SymVal> = path.constraints.iter().map(|c| pin(c, &configs)).collect();
        let Some(assignment) = solver.model(&pinned, |v| match SymVal::var(v) {
            SymVal::Pkt(f) => (0, f.max_value().min(i64::MAX as u64) as i64),
            _ => (0, i64::MAX / 4),
        }) else {
            skipped += 1;
            continue;
        };
        let pkt = witness_packet(&assignment);
        let mut interp = Interp::new(&syn.nf_loop).unwrap();
        let result = interp.process(&pkt).unwrap();
        assert_eq!(
            result.dropped,
            path.is_drop(),
            "witness {pkt} for path `{}` took a different action",
            path.canonical()
        );
        witnessed += 1;
    }
    (witnessed, skipped)
}

#[test]
fn router_paths_all_witnessed() {
    let syn = Pipeline::builder()
        .name("router")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::router::source())
        .unwrap();
    let (witnessed, skipped) = check_stateless_paths(&syn);
    assert_eq!(skipped, 0, "router is stateless");
    assert_eq!(witnessed, syn.exploration.paths.len());
    assert!(witnessed >= 4, "ttl-expiry, acl, two routes, no-route");
}

#[test]
fn snort_paths_all_witnessed() {
    let syn = Pipeline::builder()
        .name("snort")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::snort::source(12))
        .unwrap();
    let (witnessed, _) = check_stateless_paths(&syn);
    assert_eq!(witnessed, 3, "block1 / block2 / forward all witnessed");
}

#[test]
fn firewall_stateless_fraction_witnessed() {
    let syn = Pipeline::builder()
        .name("fw")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::firewall::source())
        .unwrap();
    let (witnessed, skipped) = check_stateless_paths(&syn);
    // Every inbound path consults the pinhole map first (state-dependent,
    // skipped); only the outbound path is purely stateless.
    assert_eq!(witnessed, 1, "witnessed {witnessed}, skipped {skipped}");
    assert_eq!(skipped, 3, "pinhole-check, allow-port, blocked paths");
}
