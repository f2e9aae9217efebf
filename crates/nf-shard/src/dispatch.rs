//! RSS-style packet steering: hash the lint-derived dispatch fields to
//! pick a shard.
//!
//! Soundness rests on one property: the shard a packet is steered to
//! must be a function of the map entry it will touch. A *plain* key
//! hashes the raw field values of the dispatch key — those values are
//! components of the entry key, so the property holds. A *symmetric*
//! key canonicalises direction first: the firewall writes a pinhole
//! with `(dst, dport, src, sport)` and probes it with
//! `(src, sport, dst, dport)`, so the engine hashes the lexicographic
//! minimum of the field values and their mirrored values — a flow and
//! its reply direction then agree on the shard, whichever side is seen.
//!
//! Packets missing a dispatch field (an ICMP packet has no ports) read
//! the field as 0: every such packet still steers deterministically,
//! and the interpreter's own guards decide what to do with it.

use nf_packet::{Field, Packet};
use nfl_lint::{mirror_field, DispatchKey};

/// 64-bit FNV-1a over a sequence of field values — the reference form
/// the tests pin [`dispatch_hash`]'s allocation-free path against.
#[cfg(test)]
fn fnv1a(values: &[u64]) -> u64 {
    fnv1a_fold(values.iter().copied())
}

/// [`fnv1a`] over an iterator, so the per-packet hash path never
/// materialises the value sequence (see [`dispatch_hash`]).
fn fnv1a_fold(values: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Read `f` from `pkt`, defaulting to 0 when the packet's protocol does
/// not carry the field.
fn field_value(pkt: &Packet, f: Field) -> u64 {
    pkt.get(f).unwrap_or(0)
}

/// The values a dispatch key hashes for `pkt`: the canonical direction
/// for symmetric keys, the raw field values otherwise.
pub fn dispatch_values(key: &DispatchKey, pkt: &Packet) -> Vec<u64> {
    canonical(key, pkt).collect()
}

/// [`dispatch_values`] into `out`, replacing what it held, so one
/// buffer serves every packet.
pub fn dispatch_values_into(key: &DispatchKey, pkt: &Packet, out: &mut Vec<u64>) {
    out.clear();
    out.extend(canonical(key, pkt));
}

/// The full 64-bit dispatch hash of `pkt` under `key` — the quantity
/// [`shard_of`] reduces modulo the shard count. The skew-aware
/// rebalancer keys its seen-flow table on this, so two packets steer
/// together iff they hash identically.
pub fn dispatch_hash(key: &DispatchKey, pkt: &Packet) -> u64 {
    // This runs once per packet on the dispatcher thread, so it hashes
    // the values as they are read instead of materialising them.
    fnv1a_fold(canonical(key, pkt))
}

/// The dispatch values of `pkt` under `key`, read in order without
/// allocating: for a symmetric key, the mirrored values when they sort
/// before the forward ones.
fn canonical<'k>(key: &'k DispatchKey, pkt: &'k Packet) -> impl Iterator<Item = u64> + 'k {
    let mirrored = key.symmetric() && reversed(key, pkt);
    key.fields()
        .iter()
        .map(move |&f| field_value(pkt, if mirrored { mirror_field(f) } else { f }))
}

/// Whether the mirrored values of `key` sort before the forward ones,
/// compared field by field exactly as `reverse < forward` compares the
/// two sequences.
fn reversed(key: &DispatchKey, pkt: &Packet) -> bool {
    for &f in key.fields() {
        let (fw, rv) = (field_value(pkt, f), field_value(pkt, mirror_field(f)));
        if rv != fw {
            return rv < fw;
        }
    }
    false
}

/// The shard (in `0..shards`) that owns `pkt` under `key`.
pub fn shard_of(key: &DispatchKey, pkt: &Packet, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (dispatch_hash(key, pkt) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::PacketGen;

    fn plain(fields: Vec<Field>) -> DispatchKey {
        DispatchKey::new(fields, false)
    }

    #[test]
    fn dispatch_is_deterministic_and_in_range() {
        let key = plain(vec![Field::IpSrc, Field::TcpSport]);
        let mut gen = PacketGen::new(7);
        for _ in 0..200 {
            let pkt = gen.next_packet();
            let s = shard_of(&key, &pkt, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(&key, &pkt, 4));
        }
    }

    #[test]
    fn non_key_fields_do_not_steer() {
        let key = plain(vec![Field::IpSrc]);
        let mut gen = PacketGen::new(7);
        for _ in 0..100 {
            let mut pkt = gen.next_packet();
            let before = shard_of(&key, &pkt, 8);
            pkt.set(Field::IpTtl, 1).unwrap();
            let _ = pkt.set(Field::TcpDport, 9999);
            assert_eq!(before, shard_of(&key, &pkt, 8));
        }
    }

    /// The allocation-free hash path must agree bit-for-bit with
    /// hashing the materialised [`dispatch_values`] sequence — the
    /// rebalancer's seen-flow table and the telemetry hot-key sketches
    /// both key on these values, so the two views must never drift.
    #[test]
    fn hash_matches_materialized_values() {
        let keys = [
            plain(vec![Field::IpSrc, Field::TcpSport]),
            DispatchKey::new(
                vec![Field::IpSrc, Field::TcpSport, Field::IpDst, Field::TcpDport],
                true,
            ),
            DispatchKey::new(vec![Field::IpSrc, Field::IpDst], true),
        ];
        let mut gen = PacketGen::new(0xD15);
        for _ in 0..300 {
            let pkt = gen.next_packet();
            for key in &keys {
                assert_eq!(
                    dispatch_hash(key, &pkt),
                    fnv1a(&dispatch_values(key, &pkt)),
                    "hash diverges from materialised values"
                );
            }
        }
    }

    #[test]
    fn symmetric_key_colocates_reverse_flow() {
        let key = DispatchKey::new(
            vec![Field::IpSrc, Field::TcpSport, Field::IpDst, Field::TcpDport],
            true,
        );
        let mut gen = PacketGen::new(11);
        for _ in 0..100 {
            let pkt = gen.next_packet();
            let mut rev = pkt.clone();
            let (src, dst) = (
                field_value(&pkt, Field::IpSrc),
                field_value(&pkt, Field::IpDst),
            );
            rev.set(Field::IpSrc, dst).unwrap();
            rev.set(Field::IpDst, src).unwrap();
            let (sp, dp) = (
                field_value(&pkt, Field::TcpSport),
                field_value(&pkt, Field::TcpDport),
            );
            if rev.set(Field::TcpSport, dp).is_ok() && rev.set(Field::TcpDport, sp).is_ok() {
                assert_eq!(shard_of(&key, &pkt, 8), shard_of(&key, &rev, 8));
            }
        }
    }

    #[test]
    fn spread_is_not_degenerate() {
        // 4 shards, 400 random packets keyed by src: every shard should
        // see some traffic.
        let key = plain(vec![Field::IpSrc]);
        let mut gen = PacketGen::new(3);
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            seen[shard_of(&key, &gen.next_packet(), 4)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "{seen:?}");
    }
}
