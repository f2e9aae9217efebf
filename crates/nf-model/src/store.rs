//! The one state store of a deployment: configs, scalars and maps.
//!
//! [`ModelState`] is the state every model backend runs on. The
//! reference evaluator ([`ModelState::step`]) steps it directly, and the
//! compiled engine (`nf-compile`) keeps one as its state and falls back
//! to the reference step on that same store. It holds:
//!
//! * the configuration values, by name;
//! * a [`Layout`]: the names of the scalar slots and state maps, in
//!   arena order, each with an ordered name → index map. Clones of a
//!   store share one layout;
//! * the scalar slot arena (`None`: unset) and one `HashMap` arena per
//!   map, with a flag per map saying whether it has materialised
//!   (declared, or written since);
//! * the undo log of the most recent step, guarded by a step
//!   generation.
//!
//! Every step commits through [`ModelState::commit`], which banks the
//! pre-image of each write, so [`ModelState::revert`] undoes the step in
//! O(entries it touched). What a store holds observably is its by-name
//! view ([`ModelState::snapshot`]): the configs, the set scalars and the
//! materialised maps. Two stores are `==` exactly when those views are,
//! whatever their layout order or their maps' history. A name is one
//! config, scalar or map, never two of them, as NFL globals are.
//!
//! A layout is *open* until `nf-compile` lowers a model against it and
//! [closes](ModelState::close) it. A step on an open layout may write a
//! name the store has not seen: the name joins the layout, and a map
//! materialises on its first write. On a closed layout such a write
//! fails before anything is written.

use crate::eval::EvalError;
use nfl_interp::value::{Value, ValueKey};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// The names of a store's scalar slots and state maps, in arena order,
/// each with an ordered name → index map.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    slots: Vec<String>,
    maps: Vec<String>,
    slot_index: BTreeMap<String, usize>,
    map_index: BTreeMap<String, usize>,
    closed: bool,
}

impl Layout {
    /// Scalar names, in slot order.
    pub fn slot_names(&self) -> &[String] {
        &self.slots
    }

    /// Map names, in arena order.
    pub fn map_names(&self) -> &[String] {
        &self.maps
    }

    /// The slot of scalar `name`.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.slot_index.get(name).copied()
    }

    /// The arena of map `name`.
    pub(crate) fn map(&self, name: &str) -> Option<usize> {
        self.map_index.get(name).copied()
    }
}

/// A deployment's state: configs plus the NF state, in arenas laid out
/// by a shared [`Layout`] (see the module docs).
#[derive(Clone, Default)]
pub struct ModelState {
    /// Config values by name (without the `cfg:` prefix).
    pub configs: BTreeMap<String, Value>,
    /// Scalar slots, indexed like [`Layout::slot_names`] (`None`:
    /// unset). Values may change in place; the length is the layout's.
    pub scalars: Vec<Option<Value>>,
    /// Map arenas, indexed like [`Layout::map_names`]. An arena that has
    /// not materialised is empty.
    pub maps: Vec<HashMap<ValueKey, Value>>,
    layout: Arc<Layout>,
    /// Whether each map has materialised: only those are observable.
    materialized: Vec<bool>,
    /// Step generation, bumped by [`begin_step`](Self::begin_step).
    generation: u64,
    /// Scalar pre-images of the most recent step, in commit order.
    undo_slots: Vec<(usize, Option<Value>)>,
    /// Map-entry pre-images of the most recent step:
    /// `(map, key, previous value, was materialised)`.
    undo_maps: Vec<(usize, ValueKey, Option<Value>, bool)>,
}

/// A fired entry's writes, evaluated against the pre-state and resolved
/// to slots and arenas, in commit order.
#[derive(Debug, Clone, Default)]
pub struct Writes {
    /// `(slot, value)` scalar writes.
    pub slots: Vec<(usize, Value)>,
    /// `(map, key, value)` entry writes; `None` removes the key.
    pub maps: Vec<(usize, ValueKey, Option<Value>)>,
}

impl ModelState {
    /// The store's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The step generation: bumped when a step begins, so a caller can
    /// tell whether a failure happened before or after a step began
    /// (only the latter has a live undo log to replay).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Scalar `name`'s value (`None`: unset or unknown).
    pub fn scalar(&self, name: &str) -> Option<&Value> {
        self.scalars[self.layout.slot(name)?].as_ref()
    }

    /// Map `name`'s entries, if it has materialised.
    pub fn map(&self, name: &str) -> Option<&HashMap<ValueKey, Value>> {
        let i = self.layout.map(name)?;
        self.materialized[i].then(|| &self.maps[i])
    }

    /// The set scalars, in name order.
    pub fn scalars_by_name(&self) -> impl Iterator<Item = (&str, &Value)> {
        let slots = &self.layout.slot_index;
        slots
            .iter()
            .filter_map(|(n, &i)| Some((n.as_str(), self.scalars[i].as_ref()?)))
    }

    /// The materialised maps, in name order.
    pub fn maps_by_name(&self) -> impl Iterator<Item = (&str, &HashMap<ValueKey, Value>)> {
        let maps = &self.layout.map_index;
        maps.iter()
            .filter(|&(_, &i)| self.materialized[i])
            .map(|(n, &i)| (n.as_str(), &self.maps[i]))
    }

    /// The slot of scalar `name`, appending an unset one when new.
    pub fn declare_slot(&mut self, name: &str) -> usize {
        if let Some(i) = self.layout.slot(name) {
            return i;
        }
        let layout = Arc::make_mut(&mut self.layout);
        layout
            .slot_index
            .insert(name.to_string(), layout.slots.len());
        layout.slots.push(name.to_string());
        self.scalars.push(None);
        self.scalars.len() - 1
    }

    /// The arena of map `name`, appending an empty one that has not
    /// materialised when new.
    pub fn declare_map(&mut self, name: &str) -> usize {
        if let Some(i) = self.layout.map(name) {
            return i;
        }
        let layout = Arc::make_mut(&mut self.layout);
        layout.map_index.insert(name.to_string(), layout.maps.len());
        layout.maps.push(name.to_string());
        self.maps.push(HashMap::new());
        self.materialized.push(false);
        self.maps.len() - 1
    }

    /// Close the layout: from now on a step writes only the names it
    /// has.
    pub fn close(&mut self) {
        if !self.layout.closed {
            Arc::make_mut(&mut self.layout).closed = true;
        }
    }

    /// Set a config value.
    pub fn with_config(mut self, name: &str, v: Value) -> Self {
        self.configs.insert(name.to_string(), v);
        self
    }

    /// Set a scalar state value.
    pub fn with_scalar(mut self, name: &str, v: Value) -> Self {
        let slot = self.declare_slot(name);
        self.scalars[slot] = Some(v);
        self
    }

    /// Declare an (initially empty) state map.
    pub fn with_map(mut self, name: &str) -> Self {
        let map = self.declare_map(name);
        self.materialized[map] = true;
        self
    }

    /// Set entry `key` of map `map` outside any step, declaring the map.
    pub fn insert_entry(&mut self, map: &str, key: ValueKey, v: Value) {
        let m = self.declare_map(map);
        self.materialized[m] = true;
        self.maps[m].insert(key, v);
    }

    /// Resolve scalar `name` as a write target: an open layout gains
    /// the name, a closed one fails.
    pub(crate) fn slot_target(&mut self, name: &str) -> Result<usize, EvalError> {
        match self.layout.slot(name) {
            Some(i) => Ok(i),
            None if self.layout.closed => Err(not_in_layout(name)),
            None => Ok(self.declare_slot(name)),
        }
    }

    /// Resolve map `name` as a write target, like
    /// [`slot_target`](Self::slot_target).
    pub(crate) fn map_target(&mut self, name: &str) -> Result<usize, EvalError> {
        match self.layout.map(name) {
            Some(i) => Ok(i),
            None if self.layout.closed => Err(not_in_layout(name)),
            None => Ok(self.declare_map(name)),
        }
    }

    /// Start a step: bump the generation and forget the previous step's
    /// pre-images. Returns the new generation.
    #[inline]
    pub fn begin_step(&mut self) -> u64 {
        self.generation += 1;
        self.undo_slots.clear();
        self.undo_maps.clear();
        self.generation
    }

    /// Commit a fired entry's writes, scalars before maps, each in
    /// order, banking every pre-image (and whether the map had
    /// materialised) for [`revert`](Self::revert). Drains `writes` and
    /// keeps its allocations. Nothing here can fail, so a step either
    /// fails before its commit or commits all of it.
    #[inline]
    pub fn commit(&mut self, writes: &mut Writes) {
        for (slot, v) in writes.slots.drain(..) {
            let prev = self.scalars[slot].replace(v);
            self.undo_slots.push((slot, prev));
        }
        for (map, k, v) in writes.maps.drain(..) {
            let was = std::mem::replace(&mut self.materialized[map], true);
            let prev = match v {
                Some(v) => self.maps[map].insert(k.clone(), v),
                None => self.maps[map].remove(&k),
            };
            self.undo_maps.push((map, k, prev, was));
        }
    }

    /// Undo the most recent step: restore every slot and map entry it
    /// committed to its pre-image, in reverse commit order, in
    /// O(entries the step touched). A no-op when the step committed
    /// nothing (a drop, or an error, which always precedes the commit).
    pub fn revert(&mut self) {
        while let Some((map, k, prev, was)) = self.undo_maps.pop() {
            match prev {
                Some(v) => self.maps[map].insert(k, v),
                None => self.maps[map].remove(&k),
            };
            self.materialized[map] = was;
        }
        while let Some((slot, prev)) = self.undo_slots.pop() {
            self.scalars[slot] = prev;
        }
    }

    /// The by-name view: configs, set scalars and materialised maps,
    /// each map in key order. It copies every entry; a caller done with
    /// the store takes [`into_snapshot`](Self::into_snapshot).
    pub fn snapshot(&self) -> BTreeMap<String, Value> {
        by_name(
            &self.layout,
            self.configs.clone(),
            |i| self.scalars[i].clone(),
            |i| {
                let m = self.materialized[i].then_some(&self.maps[i])?;
                Some(m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            },
        )
    }

    /// [`snapshot`](Self::snapshot), consuming the store: every value
    /// and entry moves into the view, none is copied.
    pub fn into_snapshot(self) -> BTreeMap<String, Value> {
        let (mut scalars, mut maps) = (self.scalars, self.maps);
        by_name(
            &self.layout,
            self.configs,
            |i| scalars[i].take(),
            |i| self.materialized[i].then(|| std::mem::take(&mut maps[i]).into_iter().collect()),
        )
    }
}

fn not_in_layout(name: &str) -> EvalError {
    EvalError::Stuck(format!("state `{name}` is not in the compiled program"))
}

/// The by-name view of a store's parts: `scalar(i)` is slot `i`'s value
/// and `map(i)` map `i`'s entries in key order (`None`: not
/// materialised), by copy or by move. Each part comes in name order, so
/// the view is built from sorted runs instead of by one insert per
/// name; a later part wins a name, as in an insert per name.
fn by_name(
    layout: &Layout,
    configs: BTreeMap<String, Value>,
    mut scalar: impl FnMut(usize) -> Option<Value>,
    mut map: impl FnMut(usize) -> Option<BTreeMap<ValueKey, Value>>,
) -> BTreeMap<String, Value> {
    let scalars = layout.slot_index.iter();
    let scalars = scalars.filter_map(|(n, &i)| Some((n.clone(), scalar(i)?)));
    let maps = layout.map_index.iter();
    let maps = maps.filter_map(|(n, &i)| Some((n.clone(), Value::Map(map(i)?))));
    configs.into_iter().chain(scalars).chain(maps).collect()
}

impl PartialEq for ModelState {
    /// By-name equality: layouts, generations and undo logs are
    /// bookkeeping.
    fn eq(&self, other: &Self) -> bool {
        self.configs == other.configs
            && self.scalars_by_name().eq(other.scalars_by_name())
            && self.maps_by_name().eq(other.maps_by_name())
    }
}

impl fmt::Debug for ModelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelState")
            .field("generation", &self.generation)
            .field("state", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: i64) -> ValueKey {
        ValueKey::Int(k)
    }

    /// One random content, built into two stores in opposite name
    /// orders, one of them with unobservable noise; then, half the time,
    /// one edit that keeps each name one kind. `==` must agree with the
    /// snapshots.
    #[test]
    fn equality_agrees_with_the_snapshot_on_random_stores() {
        let names = ["a", "b", "c", "d", "e", "f"];
        let (mut edited, mut differ) = (0, 0);
        for seed in 0..400 {
            let mut rng = nf_support::rng::Rng::new(seed);
            // Per name: absent (0), a scalar (1) or a map (2).
            let content: Vec<(usize, i64, Vec<i64>)> = names
                .iter()
                .map(|_| {
                    let keys = (0..rng.gen_index(4))
                        .map(|_| rng.gen_range_i64(0, 5))
                        .collect();
                    (rng.gen_index(3), rng.gen_range_i64(0, 3), keys)
                })
                .collect();
            let build = |order: &mut dyn Iterator<Item = usize>| {
                let mut st = ModelState::default();
                for i in order {
                    let (kind, v, keys) = &content[i];
                    match kind {
                        1 => st = st.with_scalar(names[i], Value::Int(*v)),
                        2 => {
                            st = st.with_map(names[i]);
                            for &k in keys {
                                st.insert_entry(names[i], key(k), Value::Int(*v));
                            }
                        }
                        _ => {}
                    }
                }
                st
            };
            let a = build(&mut (0..names.len()));
            let mut b = build(&mut (0..names.len()).rev());
            b.declare_slot("unset");
            b.declare_map("never");
            for (m, live) in b.maps.iter_mut().zip(&b.materialized) {
                if *live {
                    m.insert(key(99), Value::Int(0));
                    m.remove(&key(99));
                }
            }
            assert_eq!(a, b, "seed {seed}");
            if rng.gen_bool(0.5) {
                edited += 1;
                let i = rng.gen_index(names.len());
                let as_map = match content[i].0 {
                    0 => rng.gen_bool(0.5),
                    kind => kind == 2,
                };
                match (as_map, rng.gen_bool(0.5)) {
                    (false, _) => b = b.with_scalar(names[i], Value::Int(rng.gen_range_i64(0, 3))),
                    (true, false) => b = b.with_map(names[i]),
                    (true, true) => {
                        b.insert_entry(names[i], key(rng.gen_range_i64(0, 5)), Value::Int(1))
                    }
                }
            }
            assert_eq!(a == b, a.snapshot() == b.snapshot(), "seed {seed}");
            differ += usize::from(a != b);
        }
        assert!(
            edited > 100 && differ > 50,
            "{edited} edits, {differ} unequal"
        );
    }
}
