//! A minimal property-testing harness.
//!
//! The shape follows QuickCheck: a [`Gen`] pairs a generator closure with
//! a shrinker, [`check`] runs a property over many generated inputs, and
//! on failure shrinks the counterexample with a bounded number of
//! candidate steps before panicking with the minimal input found.
//!
//! Determinism: the RNG seed is derived from the property name and
//! [`Config::seed`], so a failing case reproduces under
//! `cargo test <name>` with no ambient state. Properties are plain
//! closures that panic on failure (`assert!`/`assert_eq!` work as-is);
//! the harness catches the unwind, which keeps ported test bodies
//! idiomatic Rust instead of a macro DSL.

use crate::rng::Rng;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed mixed with the property name.
    pub seed: u64,
    /// Maximum number of shrink candidates to try after a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: 0x4e46_6163746f72, // "NFactor"
            max_shrink_steps: 2048,
        }
    }
}

impl Config {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }
}

type GenFn<T> = Rc<dyn Fn(&mut Rng) -> T>;
type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A value generator with an attached shrinker.
#[derive(Clone)]
pub struct Gen<T> {
    gen: GenFn<T>,
    shrink: ShrinkFn<T>,
}

impl<T: Clone + 'static> Gen<T> {
    /// Build from a raw closure; no shrinking.
    pub fn new(f: impl Fn(&mut Rng) -> T + 'static) -> Gen<T> {
        Gen {
            gen: Rc::new(f),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// Attach a shrinker producing smaller candidate values.
    pub fn with_shrink(self, f: impl Fn(&T) -> Vec<T> + 'static) -> Gen<T> {
        Gen {
            gen: self.gen,
            shrink: Rc::new(f),
        }
    }

    /// Draw one value.
    pub fn sample(&self, rng: &mut Rng) -> T {
        (self.gen)(rng)
    }

    /// Shrink candidates for a value, smallest-first by construction.
    pub fn shrink(&self, v: &T) -> Vec<T> {
        (self.shrink)(v)
    }

    /// Transform generated values. `map` cannot invert `f`, so mapped
    /// generators drop shrinking unless the caller re-attaches a
    /// target-domain shrinker with [`Gen::with_shrink`]. (The tuple/vec
    /// combinators below keep structural shrinking.)
    pub fn map<U: Clone + 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let g = self.gen;
        Gen {
            gen: Rc::new(move |rng| f(g(rng))),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// A generator that always yields `v`.
    pub fn just(v: T) -> Gen<T> {
        Gen::new(move |_| v.clone())
    }

    /// Choose uniformly between alternative generators of the same type.
    pub fn one_of(choices: Vec<Gen<T>>) -> Gen<T> {
        assert!(!choices.is_empty(), "one_of(empty)");
        let shrinkers: Vec<ShrinkFn<T>> = choices.iter().map(|g| g.shrink.clone()).collect();
        let gens: Vec<GenFn<T>> = choices.iter().map(|g| g.gen.clone()).collect();
        Gen {
            gen: Rc::new(move |rng| {
                let i = rng.gen_index(gens.len());
                gens[i](rng)
            }),
            // A value could have come from any branch; union the
            // candidates each branch's shrinker offers.
            shrink: Rc::new(move |v| shrinkers.iter().flat_map(|s| s(v)).collect()),
        }
    }
}

/// Shrink candidates for an integer: 0, then binary steps toward 0.
fn shrink_i64(v: i64) -> Vec<i64> {
    if v == 0 {
        return Vec::new();
    }
    let mut out = vec![0];
    let mut step = v;
    loop {
        step /= 2;
        let cand = v - step;
        if cand == v || out.contains(&cand) {
            break;
        }
        out.push(cand);
        if step == 0 {
            break;
        }
    }
    out
}

/// Uniform `i64` in `[lo, hi]`, shrinking toward the in-range value
/// closest to zero.
pub fn int_range(lo: i64, hi: i64) -> Gen<i64> {
    let origin = lo.max(0).min(hi);
    Gen::new(move |rng| rng.gen_range_i64(lo, hi)).with_shrink(move |&v| {
        shrink_i64(v - origin)
            .into_iter()
            .map(|d| origin + d)
            .filter(|c| (lo..=hi).contains(c) && *c != v)
            .collect()
    })
}

/// Uniform `u64` in `[lo, hi]`, shrinking toward `lo`.
pub fn uint_range(lo: u64, hi: u64) -> Gen<u64> {
    Gen::new(move |rng| rng.gen_range_u64(lo, hi)).with_shrink(move |&v| {
        let mut out = Vec::new();
        if v > lo {
            out.push(lo);
            let mut step = v - lo;
            loop {
                step /= 2;
                let cand = v - step;
                if cand != v && cand > lo && !out.contains(&cand) {
                    out.push(cand);
                }
                if step == 0 {
                    break;
                }
            }
        }
        out
    })
}

/// Any `u8`.
pub fn any_u8() -> Gen<u8> {
    uint_range(0, u8::MAX as u64).map_int(|v| v as u8)
}

/// Any `u16`.
pub fn any_u16() -> Gen<u16> {
    uint_range(0, u16::MAX as u64).map_int(|v| v as u16)
}

/// Any `u32`.
pub fn any_u32() -> Gen<u32> {
    uint_range(0, u32::MAX as u64).map_int(|v| v as u32)
}

/// Any `u64`.
pub fn any_u64() -> Gen<u64> {
    uint_range(0, u64::MAX)
}

/// Any `i64`.
pub fn any_i64() -> Gen<i64> {
    int_range(i64::MIN, i64::MAX)
}

/// Either boolean, shrinking `true` to `false`.
pub fn any_bool() -> Gen<bool> {
    Gen::new(|rng| rng.gen_bool(0.5)).with_shrink(|&v| if v { vec![false] } else { Vec::new() })
}

impl Gen<u64> {
    /// Integer-preserving map that keeps the unsigned shrinker working by
    /// shrinking in the source domain and converting candidates.
    pub fn map_int<U>(self, f: impl Fn(u64) -> U + 'static + Copy) -> Gen<U>
    where
        U: Clone + Into<u64> + 'static,
    {
        let g = self.gen.clone();
        let s = self.shrink.clone();
        Gen {
            gen: Rc::new(move |rng| f(g(rng))),
            shrink: Rc::new(move |v: &U| {
                let back: u64 = (*v).clone().into();
                s(&back).into_iter().map(f).collect()
            }),
        }
    }
}

/// Vector of `inner`, with length drawn from `[min_len, max_len]`.
/// Shrinks by dropping chunks, dropping single elements, then shrinking
/// elements pointwise.
pub fn vec_of<T: Clone + 'static>(inner: Gen<T>, min_len: usize, max_len: usize) -> Gen<Vec<T>> {
    assert!(min_len <= max_len);
    let inner2 = inner.clone();
    Gen::new(move |rng| {
        let n = rng.gen_range_u64(min_len as u64, max_len as u64) as usize;
        (0..n).map(|_| inner.sample(rng)).collect()
    })
    .with_shrink(move |v: &Vec<T>| {
        let mut out: Vec<Vec<T>> = Vec::new();
        // Halves first (biggest cuts).
        if v.len() > min_len {
            let half = (v.len() / 2).max(min_len);
            if half < v.len() {
                out.push(v[..half].to_vec());
                out.push(v[v.len() - half..].to_vec());
            }
            // Then drop one element at a time.
            for i in 0..v.len() {
                let mut smaller = v.clone();
                smaller.remove(i);
                out.push(smaller);
            }
        }
        // Then shrink elements in place.
        for (i, e) in v.iter().enumerate() {
            for cand in inner2.shrink(e) {
                let mut copy = v.clone();
                copy[i] = cand;
                out.push(copy);
            }
        }
        out
    })
}

/// Pair generator with component-wise shrinking.
pub fn tuple2<A: Clone + 'static, B: Clone + 'static>(ga: Gen<A>, gb: Gen<B>) -> Gen<(A, B)> {
    let (ga2, gb2) = (ga.clone(), gb.clone());
    Gen::new(move |rng| (ga.sample(rng), gb.sample(rng))).with_shrink(move |(a, b)| {
        let mut out = Vec::new();
        for ca in ga2.shrink(a) {
            out.push((ca, b.clone()));
        }
        for cb in gb2.shrink(b) {
            out.push((a.clone(), cb));
        }
        out
    })
}

/// Triple generator with component-wise shrinking.
pub fn tuple3<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static>(
    ga: Gen<A>,
    gb: Gen<B>,
    gc: Gen<C>,
) -> Gen<(A, B, C)> {
    let (ga2, gb2, gc2) = (ga.clone(), gb.clone(), gc.clone());
    Gen::new(move |rng| (ga.sample(rng), gb.sample(rng), gc.sample(rng))).with_shrink(
        move |(a, b, c)| {
            let mut out = Vec::new();
            for ca in ga2.shrink(a) {
                out.push((ca, b.clone(), c.clone()));
            }
            for cb in gb2.shrink(b) {
                out.push((a.clone(), cb, c.clone()));
            }
            for cc in gc2.shrink(c) {
                out.push((a.clone(), b.clone(), cc));
            }
            out
        },
    )
}

/// String of characters drawn from `charset`, length in
/// `[min_len, max_len]`. Shrinks by shortening and by moving characters
/// toward the front of the charset.
pub fn string_of(charset: &'static str, min_len: usize, max_len: usize) -> Gen<String> {
    let chars: Vec<char> = charset.chars().collect();
    assert!(!chars.is_empty());
    let chars2 = chars.clone();
    Gen::new(move |rng| {
        let n = rng.gen_range_u64(min_len as u64, max_len as u64) as usize;
        (0..n).map(|_| *rng.choose(&chars)).collect()
    })
    .with_shrink(move |s: &String| {
        let v: Vec<char> = s.chars().collect();
        let mut out = Vec::new();
        if v.len() > min_len {
            out.push(v[..v.len() - 1].iter().collect());
            if v.len() / 2 >= min_len {
                out.push(v[..v.len() / 2].iter().collect());
            }
        }
        if let Some(first) = chars2.first() {
            for (i, c) in v.iter().enumerate() {
                if c != first {
                    let mut copy = v.clone();
                    copy[i] = *first;
                    out.push(copy.into_iter().collect());
                }
            }
        }
        out
    })
}

/// Printable-ASCII string (space through `~`), the workhorse replacement
/// for proptest's `"\\PC*"` pattern.
pub fn ascii_printable(max_len: usize) -> Gen<String> {
    string_of(
        " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~",
        0,
        max_len,
    )
}

/// Lowercase identifier: one `[a-z]` head and `[a-z0-9_]` tail of length
/// up to `max_tail`.
pub fn identifier(max_tail: usize) -> Gen<String> {
    let head = string_of("abcdefghijklmnopqrstuvwxyz", 1, 1);
    let tail = string_of("abcdefghijklmnopqrstuvwxyz0123456789_", 0, max_tail);
    tuple2(head, tail).map(|(h, t)| format!("{h}{t}"))
}

/// Recursive generator: `depth` levels of `branch` over `leaf`. The
/// closure receives the generator for the next-smaller depth.
pub fn recursive<T: Clone + 'static>(
    leaf: Gen<T>,
    depth: u32,
    branch: impl Fn(Gen<T>) -> Gen<T>,
) -> Gen<T> {
    let mut g = leaf;
    for _ in 0..depth {
        g = branch(g);
    }
    g
}

/// Outcome of one property execution.
fn run_once<T>(prop: &impl Fn(&T), input: &T) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(input))) {
        Ok(()) => Ok(()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            Err(msg)
        }
    }
}

/// Run `prop` over `cfg.cases` inputs drawn from `gen`; on failure,
/// shrink and panic with the minimal counterexample.
///
/// `name` seeds the RNG (mixed with `cfg.seed`) and labels the report.
pub fn check<T: Clone + Debug + 'static>(
    name: &str,
    cfg: &Config,
    gen: &Gen<T>,
    prop: impl Fn(&T),
) {
    let mut seed = cfg.seed;
    for b in name.bytes() {
        seed = seed.wrapping_mul(0x100000001b3).wrapping_add(u64::from(b));
    }
    let mut rng = Rng::new(seed);
    for case in 0..cfg.cases {
        let input = gen.sample(&mut rng);
        if let Err(first_msg) = run_once(&prop, &input) {
            let (min_input, min_msg, steps) = shrink_failure(cfg, gen, &prop, input, first_msg);
            panic!(
                "property '{name}' failed (case {case}/{}, {steps} shrink steps)\n\
                 minimal input: {min_input:?}\n\
                 failure: {min_msg}",
                cfg.cases
            );
        }
    }
}

fn shrink_failure<T: Clone + Debug + 'static>(
    cfg: &Config,
    gen: &Gen<T>,
    prop: &impl Fn(&T),
    mut current: T,
    mut msg: String,
) -> (T, String, u32) {
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in gen.shrink(&current) {
            steps += 1;
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
            if let Err(m) = run_once(prop, &cand) {
                current = cand;
                msg = m;
                continue 'outer;
            }
        }
        break; // no candidate still fails: local minimum
    }
    (current, msg, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config::with_cases(64);
        check("nonneg", &cfg, &uint_range(0, 100), |&v| assert!(v <= 100));
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        let cfg = Config::with_cases(256);
        let gen = int_range(0, 10_000);
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("le-500", &cfg, &gen, |&v| assert!(v <= 500));
        }));
        let msg = result
            .unwrap_err()
            .downcast_ref::<String>()
            .cloned()
            .unwrap();
        // The minimal failing integer is 501.
        assert!(msg.contains("minimal input: 501"), "{msg}");
    }

    #[test]
    fn vec_shrinks_toward_empty() {
        let cfg = Config::with_cases(64);
        let gen = vec_of(int_range(0, 9), 0, 20);
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("short", &cfg, &gen, |v: &Vec<i64>| assert!(v.len() < 3));
        }));
        let msg = result
            .unwrap_err()
            .downcast_ref::<String>()
            .cloned()
            .unwrap();
        // Minimal counterexample is a length-3 vector of zeros.
        assert!(msg.contains("[0, 0, 0]"), "{msg}");
    }

    #[test]
    fn deterministic_given_name_and_seed() {
        // Two identically-named runs must see identical inputs.
        use std::cell::RefCell;
        let cfg = Config::with_cases(16);
        let gen = any_u64();
        let a = RefCell::new(Vec::new());
        check("det", &cfg, &gen, |&v| a.borrow_mut().push(v));
        let b = RefCell::new(Vec::new());
        check("det", &cfg, &gen, |&v| b.borrow_mut().push(v));
        assert_eq!(*a.borrow(), *b.borrow());
        assert_eq!(a.borrow().len(), 16);
    }

    #[test]
    fn identifier_shape() {
        let mut rng = Rng::new(1);
        let gen = identifier(6);
        for _ in 0..200 {
            let s = gen.sample(&mut rng);
            let mut cs = s.chars();
            assert!(cs.next().unwrap().is_ascii_lowercase());
            assert!(s.len() <= 7);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn one_of_draws_all_branches() {
        let mut rng = Rng::new(2);
        let gen = Gen::one_of(vec![Gen::just(1i64), Gen::just(2), Gen::just(3)]);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(gen.sample(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }
}
