//! Seeded grammar-based NFL program generation.
//!
//! Programs are drawn from a restricted grammar chosen so that every
//! generated NF is *model-comparable*: decision trees over packet fields
//! and map membership, at most one `send` per path, additive-only state
//! arithmetic (no `/`, `%`, or subtraction, whose overflow semantics
//! differ between the concrete interpreter and the model evaluator).
//! Within that fragment the differential oracle can demand bit-exact
//! agreement between `nfl-interp` and the synthesized model.

use nf_packet::Field;
use nf_support::rng::Rng;
use std::fmt::Write;

/// Packet fields the generator reads, with the constant pool each is
/// compared against (all within the field's wire domain, and overlapping
/// the values `PacketGen` emits so both branch sides get exercised).
const FIELDS: &[(&str, &[u64])] = &[
    ("pkt.ip.src", &[0x0a000001, 0x0a000002, 0x0a000003]),
    ("pkt.ip.dst", &[0x03030303, 0x01010101, 0x02020202]),
    ("pkt.ip.ttl", &[1, 32, 64, 128]),
    ("pkt.tcp.sport", &[1024, 40000, 65535]),
    ("pkt.tcp.dport", &[80, 443, 8080]),
];

/// Fields the generator rewrites, with in-domain replacement values.
pub const REWRITES: &[(Field, &[u64])] = &[
    (Field::IpDst, &[0x01010101, 0x02020202]),
    (Field::IpTtl, &[1, 63]),
    (Field::TcpDport, &[8080, 9090]),
    (Field::TcpSport, &[10000, 20000]),
];

const CMPS: &[&str] = &["==", "!=", "<", "<=", ">", ">="];

/// Maximum nesting depth of the decision tree.
const MAX_DEPTH: usize = 3;
/// Maximum state-update / rewrite actions per leaf.
const MAX_ACTIONS: usize = 2;

/// A generated NF: its source text plus what the generator used, so the
/// harness can bias the packet stream toward the interesting region.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// NFL source text.
    pub source: String,
    /// Whether the program declares a state map.
    pub has_map: bool,
}

struct Gen<'a> {
    rng: &'a mut Rng,
    n_configs: usize,
    n_scalars: usize,
    has_map: bool,
    /// The single key expression used for every `m0` access — the type
    /// checker requires one consistent key shape per map.
    map_key: &'static str,
    out: String,
}

impl Gen<'_> {
    fn pick<'p, T: ?Sized>(&mut self, pool: &'p [&'p T]) -> &'p T {
        pool[self.rng.gen_index(pool.len())]
    }

    fn field_cond(&mut self) -> String {
        let (field, consts) = FIELDS[self.rng.gen_index(FIELDS.len())];
        let cmp = self.pick(CMPS);
        // Sometimes compare against a `config` so the pipeline's cfgVar
        // classification and per-config model tables get exercised.
        if self.n_configs > 0 && self.rng.gen_index(4) == 0 {
            let c = self.rng.gen_index(self.n_configs);
            format!("{field} {cmp} C{c}")
        } else {
            let c = consts[self.rng.gen_index(consts.len())];
            format!("{field} {cmp} {c}")
        }
    }

    fn cond(&mut self) -> String {
        if self.has_map && self.rng.gen_index(3) == 0 {
            let key = self.map_key;
            if self.rng.gen_index(2) == 0 {
                format!("{key} in m0")
            } else {
                format!("{key} not in m0")
            }
        } else {
            self.field_cond()
        }
    }

    fn action(&mut self, indent: usize) {
        let pad = "    ".repeat(indent);
        match self.rng.gen_index(3) {
            0 if self.n_scalars > 0 => {
                let s = self.rng.gen_index(self.n_scalars);
                let inc = 1 + self.rng.gen_below(16);
                let _ = writeln!(self.out, "{pad}s{s} = s{s} + {inc};");
            }
            1 if self.has_map => {
                let key = self.map_key;
                let v = self.rng.gen_below(256);
                let _ = writeln!(self.out, "{pad}m0[{key}] = {v};");
            }
            _ => {
                let (field, vals) = REWRITES[self.rng.gen_index(REWRITES.len())];
                let v = vals[self.rng.gen_index(vals.len())];
                let _ = writeln!(self.out, "{pad}pkt.{} = {v};", field.path());
            }
        }
    }

    fn leaf(&mut self, indent: usize) {
        let pad = "    ".repeat(indent);
        for _ in 0..self.rng.gen_index(MAX_ACTIONS + 1) {
            self.action(indent);
        }
        // Half the leaves forward, half drop (fall through without send).
        if self.rng.gen_index(2) == 0 {
            let _ = writeln!(self.out, "{pad}send(pkt);");
        }
        let _ = writeln!(self.out, "{pad}return;");
    }

    fn tree(&mut self, depth: usize, indent: usize) {
        let branch = depth > 0 && self.rng.gen_index(3) != 0;
        if !branch {
            self.leaf(indent);
            return;
        }
        let pad = "    ".repeat(indent);
        let cond = self.cond();
        let _ = writeln!(self.out, "{pad}if {cond} {{");
        self.tree(depth - 1, indent + 1);
        let _ = writeln!(self.out, "{pad}}} else {{");
        self.tree(depth - 1, indent + 1);
        let _ = writeln!(self.out, "{pad}}}");
    }
}

/// Generate one NFL program from the seeded stream in `rng`.
pub fn gen_program(rng: &mut Rng) -> GenProgram {
    let n_configs = rng.gen_index(3);
    let n_scalars = rng.gen_index(3);
    let has_map = rng.gen_index(2) == 0;
    let map_key = match rng.gen_index(3) {
        0 => "(pkt.ip.src, pkt.tcp.sport)",
        1 => "pkt.ip.src",
        _ => "(pkt.ip.src, pkt.ip.dst)",
    };
    let mut g = Gen {
        rng,
        n_configs,
        n_scalars,
        has_map,
        map_key,
        out: String::new(),
    };
    for i in 0..n_configs {
        let v = g.rng.gen_below(65536);
        let _ = writeln!(g.out, "config C{i} = {v};");
    }
    for i in 0..n_scalars {
        let v = g.rng.gen_below(256);
        let _ = writeln!(g.out, "state s{i} = {v};");
    }
    if has_map {
        let _ = writeln!(g.out, "state m0 = map();");
    }
    let _ = writeln!(g.out, "fn cb(pkt: packet) {{");
    let depth = 1 + g.rng.gen_index(MAX_DEPTH);
    g.tree(depth, 1);
    let _ = writeln!(g.out, "}}");
    let _ = writeln!(g.out, "fn main() {{ sniff(cb); }}");
    GenProgram {
        source: g.out,
        has_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_parse_and_check() {
        let mut rng = Rng::new(7);
        for i in 0..200 {
            let p = gen_program(&mut rng);
            nfl_lang::parse_and_check(&p.source)
                .unwrap_or_else(|e| panic!("case {i}: {e}\n{}", p.source));
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a: Vec<String> = {
            let mut rng = Rng::new(11);
            (0..20).map(|_| gen_program(&mut rng).source).collect()
        };
        let b: Vec<String> = {
            let mut rng = Rng::new(11);
            (0..20).map(|_| gen_program(&mut rng).source).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn no_division_or_modulo_in_generated_code() {
        // The differential oracle relies on the additive-only fragment.
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let p = gen_program(&mut rng);
            assert!(!p.source.contains('/'), "{}", p.source);
            assert!(!p.source.contains('%'), "{}", p.source);
            assert!(!p.source.contains(" - "), "{}", p.source);
        }
    }
}
