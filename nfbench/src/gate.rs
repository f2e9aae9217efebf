//! Correctness gates, run untimed before the timed loop.
//!
//! * [`golden`]: synthesis of every corpus NF still yields the `.nfm`
//!   text checked in under `tests/golden/` — a hand-reviewed reference,
//!   never output of the code under test.
//! * [`three_way`]: on the interpreter-sized prefix of the trace, the
//!   interpreter (the reference), the model and the compiled engine
//!   produce identical per-packet outputs and identical merged state
//!   over the model's own state variables.
//! * [`RunShape`]: what every timed run is checked against.

use crate::workload::BACKENDS;
use nfactor::core::{Pipeline, Synthesis};
use nfactor::corpus;
use nfactor::interp::Value;
use nfactor::model::to_text;
use nfactor::packet::NfwReader;
use nfactor::shard::{RunConfig, ShardEngine, ShardRun};
use std::path::Path;

/// The golden renderings and the sources they were produced from.
fn golden_corpus() -> Vec<(&'static str, String)> {
    vec![
        ("fig1_lb", corpus::fig1_lb::source()),
        ("firewall", corpus::firewall::source()),
        ("nat", corpus::nat::source()),
        ("portknock", corpus::portknock::source()),
        ("ratelimiter", corpus::ratelimiter::source()),
        ("router", corpus::router::source()),
        ("balance10", corpus::balance::source(10)),
        ("snort25", corpus::snort::source(25)),
    ]
}

/// Check every corpus NF's synthesized `.nfm` text against the
/// `== nfm ==` section of `dir/<name>.txt`.
pub fn golden(dir: &Path) -> Result<(), String> {
    for (name, src) in golden_corpus() {
        let path = dir.join(format!("{name}.txt"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("golden {}: {e}", path.display()))?;
        let expected = text
            .split_once("== nfm ==\n")
            .map(|(_, nfm)| nfm)
            .ok_or_else(|| format!("golden {}: no `== nfm ==` section", path.display()))?;
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .and_then(|p| p.synthesize(&src))
            .map_err(|e| format!("golden {name}: {e}"))?;
        if to_text(&syn.model) != expected {
            return Err(format!(
                "golden {name}: synthesized .nfm differs from {}",
                path.display()
            ));
        }
    }
    Ok(())
}

/// A synthesized model must be complete: a truncated (budget-stopped)
/// model would make every downstream number meaningless.
pub fn complete(syn: &Synthesis) -> Result<(), String> {
    match syn.model.completeness.reason() {
        Some(reason) => Err(format!("{}: model truncated: {reason}", syn.name)),
        None => Ok(()),
    }
}

/// Run the engines (in [`BACKENDS`] order, the interpreter first) over
/// the `.nfw` trace at `path`, retaining outputs, and require identical
/// output signatures and identical merged state on the model's state
/// variables.
pub fn three_way(syn: &Synthesis, engines: &[ShardEngine], path: &Path) -> Result<(), String> {
    let mut scope = syn.model.state_scalars();
    scope.extend(syn.model.state_maps());
    let cfg = RunConfig::sequential();
    let mut runs = Vec::with_capacity(engines.len());
    for engine in engines {
        let reader = open(path)?;
        runs.push(engine.run_with(reader, &cfg).map_err(|e| e.to_string())?);
    }
    let (reference, others) = runs.split_first().ok_or("no engines to compare")?;
    let ref_sig = reference.output_signature();
    let ref_state = scoped(&reference.merged, &scope);
    for (run, (_, label)) in others.iter().zip(&BACKENDS[1..]) {
        let sig = run.output_signature();
        if sig != ref_sig {
            let at = ref_sig
                .iter()
                .zip(&sig)
                .position(|(a, b)| a != b)
                .unwrap_or(ref_sig.len().min(sig.len()));
            return Err(format!(
                "{}: {label} diverges from the interpreter at packet {at}",
                syn.name
            ));
        }
        if scoped(&run.merged, &scope) != ref_state {
            return Err(format!(
                "{}: {label} merged state diverges from the interpreter",
                syn.name
            ));
        }
    }
    Ok(())
}

fn scoped(
    merged: &std::collections::BTreeMap<String, Value>,
    scope: &[String],
) -> Vec<(String, Value)> {
    merged
        .iter()
        .filter(|(k, _)| scope.contains(k))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

pub fn open(path: &Path) -> Result<NfwReader, String> {
    let p = path.to_str().ok_or("trace path is not UTF-8")?;
    NfwReader::open(p).map_err(|e| format!("{p}: {e}"))
}

/// The observable shape every timed run of one backend over one
/// stream must repeat: its accounting and the sizes of its merged maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunShape {
    pub offered: u64,
    pub forwarded: u64,
    pub quarantined: u64,
    pub dropped: u64,
    pub fallbacks: u64,
    pub map_sizes: Vec<(String, usize)>,
}

impl RunShape {
    pub fn of(run: &ShardRun) -> RunShape {
        let f = run.fault_summary();
        RunShape {
            offered: run.offered(),
            forwarded: run.forwarded,
            quarantined: f.quarantined,
            dropped: f.dropped,
            fallbacks: f.fallbacks,
            map_sizes: run
                .merged
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::Map(m) => Some((k.clone(), m.len())),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Live map entries in the merged state.
    pub fn live_entries(&self) -> usize {
        self.map_sizes.iter().map(|(_, n)| n).sum()
    }

    /// Check a timed run: every packet offered, failures exactly the
    /// injected ones, and (after the first run) the same outcome as the
    /// first run.
    pub fn check(
        &self,
        packets: u64,
        expect: &Expected,
        first: Option<&RunShape>,
    ) -> Result<(), String> {
        if self.offered != packets {
            return Err(format!("offered {} of {packets} packets", self.offered));
        }
        if self.dropped != 0 {
            return Err(format!("{} packets dropped at dispatch", self.dropped));
        }
        if (self.quarantined, self.fallbacks) != (expect.quarantined, expect.fallbacks) {
            return Err(format!(
                "quarantined {} / fallbacks {}, but the fault plan injects {} / {}",
                self.quarantined, self.fallbacks, expect.quarantined, expect.fallbacks
            ));
        }
        match first {
            Some(first) if first != self => Err(format!(
                "run outcome changed between timed runs: {self:?} vs first {first:?}"
            )),
            _ => Ok(()),
        }
    }
}

/// The failures a fault plan must produce on one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expected {
    pub quarantined: u64,
    pub fallbacks: u64,
}
