//! The streaming differential oracle: replaying a workload from a
//! binary `.nfw` trace file must be observationally identical to
//! running the same packets from an in-memory slice — same per-packet
//! outputs in arrival order, same merged final state — across shard
//! counts and with skew-aware rebalancing both off and on.
//!
//! This is the end-to-end check on the `.nfw` round trip (writer →
//! file → chunked reader) *through the engine*: the unit tests in
//! `nf-packet` prove the bytes survive, this suite proves the engine
//! cannot tell the two sources apart even while the rebalancer is
//! actively re-steering fresh flows.

use crate::harness::Mode;
use nfactor::core::Pipeline;
use nfactor::packet::{NfwReader, NfwWriter, PacketGen};
use nfactor::shard::{Backend, RunConfig, ShardEngine, SliceSource};

const PACKETS: usize = 100_000;
const SEED: u64 = 0x57EA4;

/// A throwaway `.nfw` path in the system temp dir, removed on drop so
/// a failing assertion does not leave 8 MB files behind.
struct TempTrace(std::path::PathBuf);

impl TempTrace {
    fn new(tag: &str) -> TempTrace {
        let mut p = std::env::temp_dir();
        p.push(format!("nfactor-stream-{}-{tag}.nfw", std::process::id()));
        TempTrace(p)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is utf-8")
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn nfw_stream_matches_in_memory_slice() {
    // One trace file, shared by every configuration below.
    let trace = TempTrace::new("ratelimiter");
    let packets = PacketGen::new(SEED).batch(PACKETS);
    let mut writer = NfwWriter::create(trace.path(), SEED).expect("create .nfw");
    for pkt in &packets {
        writer.push(pkt).expect("push packet");
    }
    assert_eq!(writer.finish().expect("finish .nfw"), PACKETS as u64);

    let src = nfactor::corpus::ratelimiter::source();
    for shards in [1usize, 4] {
        let pipeline = Pipeline::builder()
            .name("ratelimiter")
            .shards(shards)
            .build()
            .expect("builder");
        let engine =
            ShardEngine::from_source(&pipeline, &src, Backend::Interp).expect("build engine");
        for rebalance in [false, true] {
            for mode in [Mode::Threaded, Mode::Sequential] {
                let cfg = crate::harness::mode_config(mode).with_rebalance(rebalance);
                let label = format!("shards={shards} rebalance={rebalance} {mode:?}");

                let reader = NfwReader::open(trace.path()).expect("open .nfw");
                assert_eq!(reader.seed(), SEED);
                assert_eq!(reader.count(), PACKETS as u64);
                let from_file = engine
                    .run_with(reader, &cfg)
                    .unwrap_or_else(|e| panic!("{label}: file run: {e}"));

                let from_slice = engine
                    .run_with(SliceSource::new(&packets), &cfg)
                    .unwrap_or_else(|e| panic!("{label}: slice run: {e}"));

                assert_eq!(from_file.total_pkts(), PACKETS as u64, "{label}");
                assert_eq!(
                    from_file.output_signature(),
                    from_slice.output_signature(),
                    "{label}: outputs diverge between .nfw and slice"
                );
                assert_eq!(
                    from_file.merged, from_slice.merged,
                    "{label}: merged state diverges between .nfw and slice"
                );
            }
        }
    }
}

/// A sequential streaming run must also match `RunConfig::single` fed
/// from the same file — the batched streaming path introduces no
/// batch-boundary effects even against the unbatched reference.
#[test]
fn nfw_stream_matches_single_reference() {
    let trace = TempTrace::new("single-ref");
    let packets = PacketGen::new(SEED ^ 1).batch(20_000);
    let mut writer = NfwWriter::create(trace.path(), SEED ^ 1).expect("create .nfw");
    for pkt in &packets {
        writer.push(pkt).expect("push packet");
    }
    writer.finish().expect("finish .nfw");

    let src = nfactor::corpus::ratelimiter::source();
    let pipeline = Pipeline::builder()
        .name("ratelimiter")
        .shards(4)
        .build()
        .expect("builder");
    let engine = ShardEngine::from_source(&pipeline, &src, Backend::Interp).expect("build engine");

    let single = engine
        .run_with(
            NfwReader::open(trace.path()).expect("open"),
            &RunConfig::single(),
        )
        .expect("single run");
    let sequential = engine
        .run_with(
            NfwReader::open(trace.path()).expect("open"),
            &RunConfig::sequential().with_rebalance(true),
        )
        .expect("sequential run");
    assert_eq!(single.output_signature(), sequential.output_signature());
    assert_eq!(single.merged, sequential.merged);
}
