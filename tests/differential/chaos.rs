//! The chaos differential: under a deterministic fault plan, every
//! packet the run does *not* exclude (quarantined at eval or dropped at
//! dispatch) must behave byte-identically to a fault-free run over the
//! surviving input — same outputs, same merged state — for every corpus
//! NF, every backend, shard counts {1, 4}, threaded and sequential
//! modes. Fault containment must be invisible to the packets that
//! survive it.
//!
//! The reference is the *same* engine's single-shard run over the input
//! with the excluded seqs filtered out, so the comparison is positional
//! (reference seqs shift left past each hole) and state equality is
//! full: both sides run the same backend.

use crate::harness::{engines_from_synthesis, mode_config, DiffEngine, Mode};
use nfactor::packet::{Packet, PacketGen};
use nfactor::shard::Backend;
use nfactor::shard::{RunConfig, SliceSource};
use nfactor::support::fault::FaultPlan;

const PACKETS: usize = 250;
const SEED: u64 = 0x7717;

/// Fixed plans covering every fault kind, wildcard shards, points that
/// do and do not fire at low shard counts, bursts absorbed by retry
/// (`:64`) and bursts that exhaust the deadline into a drop.
const PLANS: &[&str] = &[
    "panic@1:3",
    "err@0:0,err@0:1,err@0:2,panic@*:7",
    "delay@*:5:50,garbage@1:2",
    "ring-overflow@0:1,ring-overflow@1:4:64",
    "panic@0:2,err@1:3,garbage@2:1,ring-overflow@0:5",
];

fn run_under_faults(
    de: &DiffEngine,
    mode: Mode,
    packets: &[Packet],
    faults: &FaultPlan,
) -> Result<nfactor::shard::ShardRun, nfactor::shard::ShardError> {
    let cfg = mode_config(mode).with_faults(faults.clone());
    de.engine.run_with(SliceSource::new(packets), &cfg)
}

fn chaos(name: &str, src: &str) {
    let (_, engines) = engines_from_synthesis(
        name,
        src,
        &[Backend::Interp, Backend::Model, Backend::Compiled],
        &[1, 4],
    );
    let packets = PacketGen::new(SEED).batch(PACKETS);
    for spec in PLANS {
        let faults =
            FaultPlan::parse(spec).unwrap_or_else(|e| panic!("{name}: plan `{spec}`: {e}"));
        for de in &engines {
            for mode in [Mode::Threaded, Mode::Sequential] {
                let run = run_under_faults(de, mode, &packets, &faults).unwrap_or_else(|e| {
                    panic!("{name}: {}/{mode:?} under `{spec}`: {e}", de.label)
                });
                // Accounting: nothing vanishes without a ledger entry.
                assert_eq!(
                    run.offered(),
                    packets.len() as u64,
                    "{name}: {}/{mode:?} under `{spec}`: \
                     processed + quarantined + dropped != offered",
                    de.label
                );
                // The survivors must match a fault-free run over the
                // same surviving input, positionally.
                let excluded = run.excluded_seqs();
                let kept: Vec<Packet> = packets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| excluded.binary_search(&(*i as u64)).is_err())
                    .map(|(_, p)| p.clone())
                    .collect();
                let reference = de
                    .engine
                    .run_with(SliceSource::new(&kept), &RunConfig::single())
                    .unwrap_or_else(|e| panic!("{name}: {} fault-free reference: {e}", de.label));
                assert_eq!(
                    run.outputs.len(),
                    reference.outputs.len(),
                    "{name}: {}/{mode:?} under `{spec}`: surviving output count",
                    de.label
                );
                for (j, (got, want)) in run.outputs.iter().zip(&reference.outputs).enumerate() {
                    assert_eq!(
                        (&got.outputs, got.dropped),
                        (&want.outputs, want.dropped),
                        "{name}: {}/{mode:?} under `{spec}`: surviving packet #{j} \
                         (arrival seq {}) diverges from the fault-free reference",
                        de.label,
                        got.seq
                    );
                }
                assert_eq!(
                    run.merged, reference.merged,
                    "{name}: {}/{mode:?} under `{spec}`: merged state diverges \
                     from the fault-free reference",
                    de.label
                );
            }
        }
    }
}

#[test]
fn chaos_firewall() {
    chaos("firewall", &nfactor::corpus::firewall::source());
}

#[test]
fn chaos_portknock() {
    chaos("portknock", &nfactor::corpus::portknock::source());
}

#[test]
fn chaos_ratelimiter() {
    chaos("ratelimiter", &nfactor::corpus::ratelimiter::source());
}

#[test]
fn chaos_router() {
    chaos("router", &nfactor::corpus::router::source());
}

#[test]
fn chaos_snort() {
    chaos("snort", &nfactor::corpus::snort::source(25));
}

#[test]
fn chaos_fig1_lb() {
    chaos("fig1-lb", &nfactor::corpus::fig1_lb::source());
}

#[test]
fn chaos_nat() {
    chaos("nat", &nfactor::corpus::nat::source());
}

#[test]
fn chaos_balance() {
    chaos("balance", &nfactor::corpus::balance::source(6));
}
