//! The sharding differential oracle: for every corpus NF, a sharded
//! run (4 shards, state placed per the lint's ShardingReport)
//! must be observationally identical to the single-threaded
//! interpreter — same per-packet outputs in arrival order, same merged
//! final state.
//!
//! The per-flow NFs (firewall, portknock, ratelimiter, router, snort)
//! exercise partitioned dispatch — including portknock/ratelimiter's
//! source-IP-only key and the firewall's direction-symmetric pinhole
//! key; the shared NFs (fig1-lb, nat, balance) exercise the global-lock
//! fallback, where one evaluator steps every packet in arrival order on
//! the calling thread and the run joins that one evaluator.
//!
//! Generated NFs (`gen_program` seeds 1–300) run the same oracle
//! whenever their plan partitions, over traffic that carries the values
//! the grammar rewrites fields to.

use crate::harness::{engines_from_synthesis, for_each_backend_pair, DiffEngine, Mode, StateScope};
use nfactor::core::Pipeline;
use nfactor::fuzz::grammar::REWRITES;
use nfactor::packet::{Field, Packet, PacketGen, TcpFlags};
use nfactor::shard::{Backend, ShardEngine};
use nfactor::support::rng::Rng;

const SHARDS: usize = 4;
const PACKETS: usize = 400;

fn oracle(name: &str, src: &str, expect_partitioned: bool) {
    let pipeline = Pipeline::builder()
        .name(name)
        .shards(SHARDS)
        .build()
        .unwrap_or_else(|e| panic!("{name}: builder: {e}"));
    let engine = ShardEngine::from_source(&pipeline, src, Backend::Interp)
        .unwrap_or_else(|e| panic!("{name}: build: {e}"));
    assert_eq!(
        engine.plan().partitioned(),
        expect_partitioned,
        "{name}: unexpected plan mode: {}",
        engine.plan().render_table()
    );
    let packets = PacketGen::new(0xD1FF).batch(PACKETS);
    for_each_backend_pair(
        name,
        &[DiffEngine {
            label: format!("interp/{SHARDS}"),
            engine,
        }],
        // Single first: it is the reference the other two must match.
        &[Mode::Single, Mode::Threaded, Mode::Sequential],
        &packets,
        &StateScope::Full,
    );
}

#[test]
fn shard_differential_firewall() {
    oracle("firewall", &nfactor::corpus::firewall::source(), true);
}

#[test]
fn shard_differential_portknock() {
    oracle("portknock", &nfactor::corpus::portknock::source(), true);
}

#[test]
fn shard_differential_ratelimiter() {
    oracle("ratelimiter", &nfactor::corpus::ratelimiter::source(), true);
}

#[test]
fn shard_differential_router() {
    oracle("router", &nfactor::corpus::router::source(), true);
}

#[test]
fn shard_differential_snort() {
    oracle("snort", &nfactor::corpus::snort::source(25), true);
}

#[test]
fn shard_differential_fig1_lb() {
    oracle("fig1-lb", &nfactor::corpus::fig1_lb::source(), false);
}

#[test]
fn shard_differential_nat() {
    oracle("nat", &nfactor::corpus::nat::source(), false);
}

#[test]
fn shard_differential_balance() {
    oracle("balance", &nfactor::corpus::balance::source(6), false);
}

/// The model backend shards identically: the synthesized ratelimiter
/// model run on 4 shards matches its own single-threaded evaluation.
#[test]
fn shard_differential_model_backend() {
    let pipeline = Pipeline::builder()
        .name("ratelimiter")
        .shards(SHARDS)
        .build()
        .expect("builder");
    let engine = ShardEngine::from_source(
        &pipeline,
        &nfactor::corpus::ratelimiter::source(),
        Backend::Model,
    )
    .expect("synthesize + build");
    for_each_backend_pair(
        "ratelimiter",
        &[DiffEngine {
            label: format!("model/{SHARDS}"),
            engine,
        }],
        &[Mode::Single, Mode::Threaded],
        &PacketGen::new(99).batch(200),
        &StateScope::Full,
    );
}

/// A map written under `pkt.ip.src` but probed under `pkt.ip.dst` is
/// an *open* mirror pair: the write for endpoint X and the probe for
/// endpoint X see different other-endpoints, so no flow-tuple hash can
/// co-locate them. The lint demotes such maps to `shared` (global
/// lock), and under that plan the sharded run must equal the
/// single-threaded reference — including the adversarial packet pair
/// that used to diverge under the old mirror-canonicalised dispatch.
#[test]
fn mirror_pair_single_field_key_is_shared_and_consistent() {
    let src = r#"
        state m = map();
        fn cb(pkt: packet) {
            if pkt.ip.dst in m { send(pkt); } else { drop(pkt); }
            m[pkt.ip.src] = 1;
        }
        fn main() { sniff(cb); }
    "#;
    let pipeline = Pipeline::builder()
        .name("mirror")
        .shards(SHARDS)
        .build()
        .unwrap();
    let engine = ShardEngine::from_source(&pipeline, src, Backend::Interp).unwrap();
    assert!(
        !engine.plan().partitioned(),
        "open mirror pairs must fall back to the shared plan: {}",
        engine.plan().render_table()
    );
    // The historical divergence witness: packet 1 (5 -> 3) records
    // m[5]; packet 2 (7 -> 5) probes m[5]. Under the old partitioned
    // plan these landed on different shards and the probe missed.
    let mut gen = PacketGen::new(1);
    let mut packets = Vec::new();
    for (s, d) in [(5u64, 3u64), (7, 5)] {
        let mut p = gen.next_packet();
        p.set(Field::IpSrc, s).unwrap();
        p.set(Field::IpDst, d).unwrap();
        packets.push(p);
    }
    packets.extend(PacketGen::new(0xD1FF).batch(PACKETS));
    for_each_backend_pair(
        "mirror",
        &[DiffEngine {
            label: format!("interp/{SHARDS}"),
            engine,
        }],
        &[Mode::Single, Mode::Threaded, Mode::Sequential],
        &packets,
        &StateScope::Full,
    );
}

/// Run `src` on every backend at 4 shards, threaded and sequentially,
/// against the same backend on one shard over `packets`, and require
/// the plan to fall back to the global lock.
fn every_backend_shards_like_one(name: &str, src: &str, packets: &[Packet]) {
    let backends = [Backend::Interp, Backend::Model, Backend::Compiled];
    let (_, engines) = engines_from_synthesis(name, src, &backends, &[SHARDS]);
    for de in &engines {
        for_each_backend_pair(
            name,
            std::slice::from_ref(de),
            &[Mode::Single, Mode::Threaded, Mode::Sequential],
            packets,
            &StateScope::Full,
        );
        assert!(
            !de.engine.plan().partitioned(),
            "{name} on {}: a key read after a rewrite must not partition: {}",
            de.label,
            de.engine.plan().render_table()
        );
    }
}

/// A key read after the NF rewrote its field is not the field the
/// dispatcher hashed: after `pkt.ip.dst = 5` every packet keys `m` on 5,
/// on whichever shard its arriving `ip.dst` sent it to. The lint makes
/// `m` shared, so the NF runs under the global lock. Partitioned on
/// `ip.dst`, 64 packets with distinct destinations each missed first on
/// their shard: 4 drops at 4 shards against 1 on one.
#[test]
fn rewritten_key_field_is_shared_and_consistent() {
    let src = r#"
        state m = map();
        fn cb(pkt: packet) {
            pkt.ip.dst = 5;
            if pkt.ip.dst in m { send(pkt); } else { m[pkt.ip.dst] = 1; }
        }
        fn main() { sniff(cb); }
    "#;
    let mut packets = PacketGen::new(1).batch(64);
    for (i, p) in packets.iter_mut().enumerate() {
        p.set(Field::IpDst, 0x0a0a_0000 + i as u64).unwrap();
    }
    every_backend_shards_like_one("rewrite", src, &packets);
}

/// The generated NF of `gen_program` seed 26: a flow seen before has
/// its `tcp.sport` rewritten to 10000 and is then recorded under
/// `(ip.src, tcp.sport)`. Each of 8 sources sends sport 5555 twice,
/// then 10000: the second packet writes `(src, 10000)` on the shard
/// that `(src, 5555)` hashes to, and the third, which arrives with
/// 10000, looks it up on another. Partitioned, both shards wrote the
/// entry and the join failed: `partitioned m0 key ... written by
/// multiple shards`.
#[test]
fn rewritten_generated_key_is_shared_and_consistent() {
    let src = "\
state s0 = 6;
state m0 = map();
fn cb(pkt: packet) {
    if (pkt.ip.src, pkt.tcp.sport) in m0 {
        pkt.tcp.sport = 10000;
        m0[(pkt.ip.src, pkt.tcp.sport)] = 38;
        return;
    } else {
        if pkt.tcp.sport <= 65535 {
            pkt.ip.dst = 16843009;
            m0[(pkt.ip.src, pkt.tcp.sport)] = 44;
            send(pkt);
            return;
        } else {
            m0[(pkt.ip.src, pkt.tcp.sport)] = 238;
            send(pkt);
            return;
        }
    }
}
fn main() { sniff(cb); }
";
    let packets: Vec<Packet> = (1..=8u32)
        .flat_map(|s| {
            [5555, 5555, 10000]
                .map(|sport| Packet::tcp(0x0a00_0000 + s, sport, 0x0303_0303, 80, TcpFlags::ack()))
        })
        .collect();
    every_backend_shards_like_one("gen26", src, &packets);
}

/// Generated NFs shard like one: every `gen_program` seed in 1..=300
/// whose plan partitions runs threaded and sequentially at 4 shards
/// exactly as on one shard. The stream sends each of 60 generated
/// packets twice as it is, then twice per value the grammar rewrites a
/// field to ([`REWRITES`]), so packets arrive carrying the values the
/// NF writes into other packets: a key read after a rewrite collides
/// with them. Seed 26 partitioned such a key before the lint's field
/// rule and ended in a merge error.
#[test]
fn generated_nfs_shard_like_one() {
    let mut packets = Vec::new();
    for p in PacketGen::new(0x5EED).batch(60) {
        packets.extend([p.clone(), p.clone()]);
        for &(field, values) in REWRITES {
            for &v in values {
                let mut q = p.clone();
                q.set(field, v).unwrap();
                packets.extend([q.clone(), q]);
            }
        }
    }
    let mut partitioned = 0;
    for seed in 1..=300 {
        let name = format!("gen{seed}");
        let src = nfactor::fuzz::gen_program(&mut Rng::new(seed)).source;
        let pipeline = Pipeline::builder()
            .name(&name)
            .shards(SHARDS)
            .build()
            .unwrap_or_else(|e| panic!("{name}: builder: {e}"));
        let engine = ShardEngine::from_source(&pipeline, &src, Backend::Interp)
            .unwrap_or_else(|e| panic!("{name}: build: {e}\n{src}"));
        if !engine.plan().partitioned() {
            continue;
        }
        partitioned += 1;
        for_each_backend_pair(
            &name,
            &[DiffEngine {
                label: format!("interp/{SHARDS}"),
                engine,
            }],
            &[Mode::Single, Mode::Threaded, Mode::Sequential],
            &packets,
            &StateScope::Full,
        );
    }
    // 295 of the 300 partition; the sweep must not go vacuous.
    assert!(
        partitioned >= 250,
        "only {partitioned} of 300 NFs partition"
    );
}

/// A log-only scalar is merged by summing per-shard deltas, which is
/// exact only for additive updates. An overwritten scalar (`last = 7`)
/// and an increment that reads other state (`b = b + a`) are therefore
/// `shared`, and the NF runs under the global lock like the single
/// reference. Under a partitioned plan the delta sum made `last` 4 × 7
/// on 4 busy shards, and `b` a sum of per-shard partial sums.
#[test]
fn non_additive_log_scalars_are_shared_and_consistent() {
    oracle(
        "overwrite",
        r#"
        state seen = map();
        state last = 0;
        fn cb(pkt: packet) {
            seen[pkt.ip.src] = 1;
            last = 7;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#,
        false,
    );
    oracle(
        "chained",
        r#"
        state seen = map();
        state a = 0;
        state b = 0;
        fn cb(pkt: packet) {
            seen[pkt.ip.src] = 1;
            a = a + 1;
            b = b + a;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#,
        false,
    );
}

/// A log-only map is merged by summing each entry's per-shard deltas,
/// so an entry overwrite (`m[ttl] = 7`) makes the map `shared`, and the
/// NF runs under the global lock like the single reference. Under a
/// partitioned plan the delta sum merged `m = {64: 28}` on 4 busy
/// shards, against `{64: 7}` on one.
#[test]
fn non_additive_log_map_is_shared_and_consistent() {
    oracle(
        "entry-overwrite",
        r#"
        state m = map();
        fn cb(pkt: packet) {
            m[pkt.ip.ttl] = 7;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#,
        false,
    );
}
