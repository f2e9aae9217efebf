//! # NFactor — automatic synthesis of NF forwarding models
//!
//! A from-scratch Rust reproduction of *"Automatic Synthesis of NF Models
//! by Program Analysis"* (Wu, Zhang, Banerjee — HotNets-XV, 2016).
//!
//! NFactor takes the **source code of a network function** — a load
//! balancer, NAT, firewall, IDS — and automatically synthesizes its
//! **forwarding model**: per-configuration tables of stateful
//! match/action entries (an OpenFlow-like abstraction with state), via
//! program slicing and symbolic execution.
//!
//! ## Quick start
//!
//! ```
//! use nfactor::core::Pipeline;
//!
//! let src = r#"
//!     config PORT = 80;
//!     state hits = 0;
//!     fn cb(pkt: packet) {
//!         if pkt.tcp.dport == PORT {
//!             hits = hits + 1;
//!             send(pkt);
//!         }
//!     }
//!     fn main() { sniff(cb); }
//! "#;
//! let pipeline = Pipeline::builder().name("port-filter").build().unwrap();
//! let synthesis = pipeline.synthesize(src).unwrap();
//! println!("{}", synthesis.render_model());
//! assert_eq!(synthesis.model.entry_count(), 2); // forward + default drop
//!
//! // The same pipeline drives the sharded execution runtime:
//! use nfactor::packet::PacketGen;
//! use nfactor::shard::{Backend, RunConfig, ShardEngine, SliceSource};
//!
//! let pipeline = Pipeline::builder().name("port-filter").shards(4).build().unwrap();
//! let engine = ShardEngine::from_source(&pipeline, src, Backend::Interp).unwrap();
//! let packets = PacketGen::new(7).batch(100);
//! let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
//! assert_eq!(run.total_pkts(), 100);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`lang`] | `nfl-lang` | the NFL language: lexer, parser, AST, types |
//! | [`analysis`] | `nfl-analysis` | CFG, dominators, PDG, inlining, Fig. 4 structure normalisation |
//! | [`interp`] | `nfl-interp` | concrete interpreter + dynamic traces |
//! | [`slicer`] | `nfl-slicer` | static & dynamic backward slicing, StateAlyzer classes |
//! | [`lint`] | `nfl-lint` | diagnostics passes (`NFL0xx`) + cross-flow sharding analysis |
//! | [`query`] | `nf-query` | incremental red-green query engine over the lint pipeline, watch diffing, LSP server |
//! | [`symex`] | `nfl-symex` | symbolic execution + SMT-lite solver |
//! | [`packet`] | `nf-packet` | Ethernet/IPv4/TCP/UDP substrate, packet generator |
//! | [`tcp`] | `nf-tcp` | TCP FSM + socket unfolding (Fig. 4d → Fig. 5) |
//! | [`model`] | `nf-model` | the model: tables, evaluator, Figure 6 renderer, FSM |
//! | [`compile`] | `nf-compile` | models lowered to a flattened XFSM dispatch engine (decision trees, state arenas) |
//! | [`core`] | `nfactor-core` | the pipeline (Algorithm 1) + §5 accuracy experiments |
//! | [`corpus`] | `nf-corpus` | the analysed NFs, incl. paper-scale snort/balance generators |
//! | [`verify`] | `nf-verify` | §4 applications: stateful HSA, chain composition, test generation |
//! | [`fuzz`] | `nf-fuzz` | seeded fuzzing harness: grammar/mutation inputs, crash + differential oracles |
//! | [`support`] | `nf-support` | zero-dep substrate: JSON, bench harness, budgets, property testing |
//! | [`trace`] | `nf-trace` | observability: spans, metrics registry, Chrome trace JSON, mockable clock |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nf_compile as compile;
pub use nf_corpus as corpus;
pub use nf_fuzz as fuzz;
pub use nf_model as model;
pub use nf_packet as packet;
pub use nf_query as query;
pub use nf_shard as shard;
pub use nf_support as support;
pub use nf_tcp as tcp;
pub use nf_trace as trace;
pub use nf_verify as verify;
pub use nfactor_core as core;
pub use nfl_analysis as analysis;
pub use nfl_interp as interp;
pub use nfl_lang as lang;
pub use nfl_lint as lint;
pub use nfl_slicer as slicer;
pub use nfl_symex as symex;
