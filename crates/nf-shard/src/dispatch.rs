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

/// Keys of up to this many fields read their values into arrays on the
/// stack. A key the lint derives names flow fields, of which there are
/// five, so it fits unless it repeats one; a longer key reads into two
/// `Vec`s instead.
const STACK_FIELDS: usize = 8;

/// 64-bit FNV-1a over a sequence of field values.
pub(crate) fn fnv1a(values: &[u64]) -> u64 {
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
    Steering::new(key).with_values(pkt, <[u64]>::to_vec)
}

/// The full 64-bit dispatch hash of `pkt` under `key` — the quantity
/// [`shard_of`] reduces modulo the shard count. The skew-aware
/// rebalancer keys its seen-flow table on this, so two packets steer
/// together iff they hash identically. This prepares the key for every
/// call; the dispatcher prepares it once per run.
pub fn dispatch_hash(key: &DispatchKey, pkt: &Packet) -> u64 {
    Steering::new(key).with_values(pkt, fnv1a)
}

/// A dispatch key prepared for steering packets: its fields and, for a
/// symmetric key, where each field's mirror is read from.
pub(crate) struct Steering<'k> {
    key: &'k DispatchKey,
    /// Per field of a symmetric key, in key order; empty for a plain key.
    mirrors: Vec<Mirror>,
}

/// Where a symmetric key's field's mirrored value comes from.
#[derive(Clone, Copy)]
enum Mirror {
    /// The mirrored field is the key's field at this position, so its
    /// value was read with the forward values. Every field of a
    /// mirror-closed key (every symmetric key the lint derives) is one.
    At(usize),
    /// The mirrored field is not in the key: read it from the packet.
    Read(Field),
}

impl<'k> Steering<'k> {
    pub(crate) fn new(key: &'k DispatchKey) -> Steering<'k> {
        let fields = key.fields();
        let mirror = |&f: &Field| {
            let m = mirror_field(f);
            match fields.iter().position(|&k| k == m) {
                Some(at) => Mirror::At(at),
                None => Mirror::Read(m),
            }
        };
        let mirrors = if key.symmetric() {
            fields.iter().map(mirror).collect()
        } else {
            Vec::new()
        };
        Steering { key, mirrors }
    }

    /// Call `f` on [`dispatch_values`] without allocating them: each
    /// field of the key is read once into an array on the stack, and for
    /// a symmetric key the mirrored values are gathered into a second
    /// one; the mirrored values are chosen when they sort before the
    /// forward ones. The dispatcher hashes the values and, when its
    /// hot-key sketch takes the flow in, copies them, all from one read.
    pub(crate) fn with_values<R>(&self, pkt: &Packet, f: impl FnOnce(&[u64]) -> R) -> R {
        let n = self.key.fields().len();
        if n <= STACK_FIELDS {
            let (mut fw, mut rv) = ([0; STACK_FIELDS], [0; STACK_FIELDS]);
            f(self.canonical(pkt, &mut fw[..n], &mut rv[..n]))
        } else {
            f(self.canonical(pkt, &mut vec![0; n], &mut vec![0; n]))
        }
    }

    /// Read the forward values of `pkt` into `fw` and, for a symmetric
    /// key, the mirrored values into `rv`, and return the canonical
    /// ones: the mirrored values when they sort before the forward ones.
    fn canonical<'b>(&self, pkt: &Packet, fw: &'b mut [u64], rv: &'b mut [u64]) -> &'b [u64] {
        for (v, &f) in fw.iter_mut().zip(self.key.fields()) {
            *v = field_value(pkt, f);
        }
        if self.mirrors.is_empty() {
            return fw;
        }
        for (v, &m) in rv.iter_mut().zip(&self.mirrors) {
            *v = match m {
                Mirror::At(at) => fw[at],
                Mirror::Read(f) => field_value(pkt, f),
            };
        }
        if *rv < *fw {
            rv
        } else {
            fw
        }
    }
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

    /// The dispatch values by definition: the key's field values, or for
    /// a symmetric key the lexicographic minimum of them and their
    /// mirrored values.
    fn reference_values(key: &DispatchKey, pkt: &Packet) -> Vec<u64> {
        let read = |f: fn(Field) -> Field| -> Vec<u64> {
            key.fields()
                .iter()
                .map(|&k| field_value(pkt, f(k)))
                .collect()
        };
        let forward = read(|f| f);
        if key.symmetric() {
            forward.min(read(mirror_field))
        } else {
            forward
        }
    }

    /// The stack-array path must agree bit-for-bit with hashing the
    /// values by definition — the rebalancer's seen-flow table and the
    /// telemetry hot-key sketches both key on the hash, and the sketch
    /// renders the values, so the two views must never drift. A key
    /// longer than the stack arrays takes the same definition.
    #[test]
    fn hash_matches_materialized_values() {
        let mut long = Field::ALL.to_vec();
        long.push(Field::IpSrc);
        let keys = [
            plain(vec![Field::IpSrc, Field::TcpSport]),
            DispatchKey::new(
                vec![Field::IpSrc, Field::TcpSport, Field::IpDst, Field::TcpDport],
                true,
            ),
            DispatchKey::new(
                vec![
                    Field::IpSrc,
                    Field::IpDst,
                    Field::TcpSport,
                    Field::TcpDport,
                    Field::IpProto,
                ],
                true,
            ),
            DispatchKey::new(vec![Field::IpSrc, Field::IpDst], true),
            DispatchKey::new(long, true),
        ];
        let mut gen = PacketGen::new(0xD15);
        for _ in 0..300 {
            let pkt = gen.next_packet();
            for key in &keys {
                let want = reference_values(key, &pkt);
                assert_eq!(dispatch_values(key, &pkt), want, "{}", key.render());
                assert_eq!(
                    dispatch_hash(key, &pkt),
                    fnv1a(&want),
                    "hash diverges from materialised values"
                );
            }
        }
        // FNV-1a itself, over each value's little-endian bytes.
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[7]), 0x4bd7_a317_074c_5b62);
        assert_eq!(fnv1a(&[1, 2]), 0x7717_9803_63c8_e066);
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
