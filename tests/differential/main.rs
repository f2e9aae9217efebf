//! Differential oracles over the sharded runtime and its backends.
//!
//! * [`harness`] — the reusable machinery: build engines per
//!   backend × shard count, run them in every mode, and assert
//!   pairwise-identical observable behaviour (per-packet outputs in
//!   arrival order + merged final state).
//! * [`sharded`] — sharded ≡ single-threaded for every corpus NF on the
//!   interpreter backend (the PR-5 oracle, now harness-driven), plus
//!   the pinned known divergences (mirror-pair single-field keys, keys
//!   read after a field rewrite) and a sweep over grammar-generated NFs.
//! * [`three_way`] — interpreter ≡ model ≡ compiled for every corpus
//!   NF, across shard counts {1, 4} and both run modes.
//! * [`chaos`] — under deterministic fault injection, the packets a run
//!   does not quarantine or drop behave byte-identically to a
//!   fault-free run over the surviving input.
//! * [`stream`] — a 100k-packet binary `.nfw` trace replayed through
//!   the batched streaming path is indistinguishable from the same
//!   packets run from an in-memory slice, with rebalancing off and on.

mod chaos;
mod harness;
mod sharded;
mod stream;
mod three_way;

use nfactor::packet::{Field, PacketGen};
use nfactor::shard::dispatch_values;
use nfactor::support::check::{check, tuple3, uint_range, Config};

/// Property: the dispatch hash is a function of the dispatch fields
/// alone — mutating any non-key byte of the packet (TTL, sequence
/// numbers, payload, ethernet addresses) never re-steers it.
#[test]
fn dispatch_ignores_non_key_bytes() {
    use nfactor::lint::DispatchKey;
    let five_tuple = DispatchKey::new(
        vec![
            Field::IpSrc,
            Field::IpDst,
            Field::IpProto,
            Field::TcpSport,
            Field::TcpDport,
        ],
        false,
    );
    let non_key = [
        Field::EthSrc,
        Field::EthDst,
        Field::IpTtl,
        Field::IpId,
        Field::TcpSeq,
        Field::TcpAck,
        Field::PayloadByte0,
        Field::PayloadByte1,
    ];
    let (cfg, gen) = (
        Config::with_cases(128),
        tuple3(
            uint_range(0, u64::MAX),
            uint_range(0, non_key.len() as u64 - 1),
            uint_range(0, 1 << 16),
        ),
    );
    check(
        "dispatch_ignores_non_key_bytes",
        &cfg,
        &gen,
        |&(seed, which, raw)| {
            let pkt = PacketGen::new(seed).next_packet();
            let before = dispatch_values(&five_tuple, &pkt);
            let field = non_key[which as usize];
            let mut mutated = pkt.clone();
            let value = raw % (field.max_value() + 1).max(1);
            if mutated.set(field, value).is_ok() {
                assert_eq!(
                    before,
                    dispatch_values(&five_tuple, &mutated),
                    "mutating {field:?} re-steered the packet"
                );
            }
        },
    );
}
