//! Regenerate the paper's **§4 Applications** demonstrations, with the
//! model-checking speedup measurement.
//!
//! ```text
//! cargo run --release -p bench --bin applications
//! ```
//!
//! * **Verification (1)** — "Running model checking using symbolic
//!   execution on our model can significantly reduce the overhead
//!   compared to original execution, as we show in our evaluation":
//!   we time exhaustive path exploration on the original program vs. on
//!   the slice the model is built from.
//! * **Verification (2)** — stateful HSA reachability over the models.
//! * **Composition** — the `{FW, IDS} + {LB}` ordering question.
//! * **Testing** — model-guided compliance tests.

use nf_packet::Field;
use nfactor_core::Pipeline;
use nfl_symex::{PathLimits, SymExec};
use std::time::Instant;

fn main() {
    // ---------- Verification 1: model checking speedup ----------
    println!("=== §4 Verification (1): model checking via the slice ===");
    let src = nf_corpus::snort::source(120);
    let syn = Pipeline::builder()
        .name("snort")
        .build()
        .unwrap()
        .synthesize(&src)
        .expect("snort");
    let t_orig = Instant::now();
    let orig = SymExec::new(&syn.nf_loop)
        .with_limits(PathLimits {
            max_paths: 1001,
            track_executed: false,
            ..PathLimits::default()
        })
        .explore()
        .expect("orig");
    let orig_time = t_orig.elapsed();
    let t_slice = Instant::now();
    let sliced = SymExec::new(&syn.sliced_loop).explore().expect("slice");
    let slice_time = t_slice.elapsed();
    println!(
        "original: {}{} paths in {:?}",
        if orig.exhausted { "" } else { ">" },
        orig.paths.len(),
        orig_time
    );
    println!(
        "slice:    {} paths in {:?}  (speedup ×{})",
        sliced.paths.len(),
        slice_time,
        orig_time.as_micros().max(1) / slice_time.as_micros().max(1)
    );

    // ---------- Verification 2: stateful reachability ----------
    println!("\n=== §4 Verification (2): stateful HSA over the FW model ===");
    let fw = Pipeline::builder()
        .name("fw")
        .build()
        .unwrap()
        .synthesize(&nf_corpus::firewall::source())
        .expect("fw");
    let mut state = nf_model::ModelState::default()
        .with_config("PROTECTED_NET", nfl_interp::Value::Int(0x0a000000))
        .with_config("PROTECTED_MASK", nfl_interp::Value::Int(0xff000000))
        .with_config("ALLOW_PORT", nfl_interp::Value::Int(80))
        .with_scalar("out_count", nfl_interp::Value::Int(0))
        .with_scalar("in_count", nfl_interp::Value::Int(0))
        .with_scalar("blocked_count", nfl_interp::Value::Int(0))
        .with_map("pinholes");
    let nf = nf_verify::hsa::StatefulNf {
        model: fw.model.clone(),
        state: state.clone(),
    };
    let outside = nf_verify::hsa::HeaderSpace::all().with(
        Field::IpSrc,
        nf_verify::hsa::IntervalSet::range(0x0b000000, 0xffffffff),
    );
    let through = nf.reachable_through(&outside);
    println!(
        "fresh state: outside→inside reaches through {} space(s), all on the allow port: {}",
        through.len(),
        through
            .iter()
            .all(|s| s.get(Field::TcpDport).contains(80) && s.get(Field::TcpDport).size() == 1)
    );
    state.insert_entry(
        "pinholes",
        nfl_interp::ValueKey::Tuple(vec![0x08080808, 443, 0x0a000005, 5000]),
        nfl_interp::Value::Int(1),
    );
    let nf_open = nf_verify::hsa::StatefulNf {
        model: fw.model.clone(),
        state,
    };
    let reply = nf_verify::hsa::HeaderSpace::all()
        .with_point(Field::IpSrc, 0x08080808)
        .with_point(Field::TcpSport, 443)
        .with_point(Field::IpDst, 0x0a000005)
        .with_point(Field::TcpDport, 5000);
    println!(
        "pinholed state: reply reachable = {} (fresh state: {})",
        !nf_open.reachable_through(&reply).is_empty(),
        !nf.reachable_through(&reply).is_empty()
    );

    // ---------- Composition ----------
    println!("\n=== §4 Composition: {{FW, IDS}} + {{LB}} ===");
    let ids = Pipeline::builder()
        .name("ids")
        .build()
        .unwrap()
        .synthesize(&nf_corpus::snort::source(10))
        .expect("ids");
    let lb = Pipeline::builder()
        .name("lb")
        .build()
        .unwrap()
        .synthesize(&nf_corpus::fig1_lb::source())
        .expect("lb");
    let report =
        nf_verify::recommend_order(&[("FW", &fw.model), ("IDS", &ids.model), ("LB", &lb.model)]);
    println!("{report}");

    // ---------- Testing ----------
    println!("=== §4 Testing: model-guided compliance ===");
    for (name, syn) in [("fw", &fw), ("ids", &ids), ("lb", &lb)] {
        match nf_verify::compliance_test(syn) {
            Ok(rep) => println!(
                "{name}: {} tests, {} ungeneratable, compliant = {}",
                rep.tests.len(),
                rep.ungenerated,
                rep.compliant()
            ),
            Err(e) => println!("{name}: generation error: {e}"),
        }
    }
}
