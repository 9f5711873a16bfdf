//! A base-plus-overlay ordered map: the storage behind [`crate::Registry`]
//! and [`crate::FileSystem`].
//!
//! A preset machine's stores are large (the end-user hive holds ~60,000
//! keys) and every run starts from a clone of them. An [`Overlay`] keeps an
//! immutable base behind an `Arc` and a small per-clone delta of changed
//! entries, with tombstones for deletes. Cloning bumps the base's refcount
//! and copies the delta; a write on a clone touches only its delta, so
//! mutating one key copies that key's value and nothing else, and dropping
//! the clone frees only the delta.
//!
//! While the base is unshared and the delta empty — a preset being built,
//! or a factory-built machine — writes go straight into the base.

use std::cmp::Ordering;
use std::collections::btree_map;
use std::collections::BTreeMap;
use std::iter::Peekable;
use std::ops::Bound;
use std::sync::Arc;

/// An ordered `String`-keyed map with a shared base and a private delta.
#[derive(Debug, Clone)]
pub(crate) struct Overlay<V> {
    base: Arc<BTreeMap<String, V>>,
    /// Entries changed since the base was shared; `None` is a tombstone
    /// over a base key.
    delta: BTreeMap<String, Option<V>>,
    /// Live entries in the merged view.
    len: usize,
}

impl<V> Default for Overlay<V> {
    fn default() -> Self {
        Overlay { base: Arc::default(), delta: BTreeMap::new(), len: 0 }
    }
}

impl<V: Clone> Overlay<V> {
    /// The base, when no other clone shares it and no delta sits over it.
    fn owned_base(&mut self) -> Option<&mut BTreeMap<String, V>> {
        if self.delta.is_empty() {
            Arc::get_mut(&mut self.base)
        } else {
            None
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The live value under `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&V> {
        if self.delta.is_empty() {
            return self.base.get(key);
        }
        match self.delta.get(key) {
            Some(slot) => slot.as_ref(),
            None => self.base.get(key),
        }
    }

    /// Whether `key` is live.
    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Mutable access to the live value under `key`. A key that so far
    /// lives only in a shared base is first cloned into the delta.
    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut V> {
        if self.owned_base().is_some() {
            return self.owned_base()?.get_mut(key);
        }
        if !self.delta.contains_key(key) {
            let value = self.base.get(key)?.clone();
            self.delta.insert(key.to_owned(), Some(value));
        }
        self.delta.get_mut(key)?.as_mut()
    }

    /// Inserts or replaces the value under `key`.
    pub(crate) fn insert(&mut self, key: String, value: V) {
        let was_live = match self.owned_base() {
            Some(base) => base.insert(key, value).is_some(),
            None => {
                let was_live = self.contains_key(&key);
                self.delta.insert(key, Some(value));
                was_live
            }
        };
        if !was_live {
            self.len += 1;
        }
    }

    /// Inserts `value` under `key` unless `key` is live; returns whether
    /// it inserted.
    pub(crate) fn insert_absent(&mut self, key: String, value: V) -> bool {
        let inserted = match self.owned_base() {
            Some(base) => match base.entry(key) {
                btree_map::Entry::Vacant(slot) => {
                    slot.insert(value);
                    true
                }
                btree_map::Entry::Occupied(_) => false,
            },
            None => {
                let absent = !self.contains_key(&key);
                if absent {
                    self.delta.insert(key, Some(value));
                }
                absent
            }
        };
        self.len += usize::from(inserted);
        inserted
    }

    /// Removes `key`; returns whether it was live. A key present in a
    /// shared base is shadowed by a tombstone; a delta-only key is simply
    /// dropped from the delta.
    pub(crate) fn remove(&mut self, key: &str) -> bool {
        if !self.contains_key(key) {
            return false;
        }
        self.len -= 1;
        if let Some(base) = self.owned_base() {
            base.remove(key);
        } else if self.base.contains_key(key) {
            self.delta.insert(key.to_owned(), None);
        } else {
            self.delta.remove(key);
        }
        true
    }

    /// Live entries with keys `>= start`, in key order.
    pub(crate) fn range_from(&self, start: &str) -> Scan<'_, V> {
        self.scan((Bound::Included(start), Bound::Unbounded))
    }

    /// Every live entry, in key order.
    pub(crate) fn iter(&self) -> Scan<'_, V> {
        self.scan((Bound::Unbounded, Bound::Unbounded))
    }

    fn scan(&self, bounds: (Bound<&str>, Bound<&str>)) -> Scan<'_, V> {
        let base = self.base.range::<str, _>(bounds);
        if self.delta.is_empty() {
            Scan::Base(base)
        } else {
            Scan::Merge {
                base: base.peekable(),
                delta: self.delta.range::<str, _>(bounds).peekable(),
            }
        }
    }

    /// Whether two overlays read from the same base allocation.
    #[cfg(test)]
    pub(crate) fn shares_base(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Number of entries in the delta (changed keys plus tombstones).
    #[cfg(test)]
    pub(crate) fn delta_len(&self) -> usize {
        self.delta.len()
    }
}

/// An ordered scan over an [`Overlay`]: the base's own iterator while the
/// delta is empty, otherwise a two-way merge in key order in which delta
/// entries win and tombstones are skipped.
pub(crate) enum Scan<'a, V> {
    Base(btree_map::Range<'a, String, V>),
    Merge {
        base: Peekable<btree_map::Range<'a, String, V>>,
        delta: Peekable<btree_map::Range<'a, String, Option<V>>>,
    },
}

impl<'a, V> Iterator for Scan<'a, V> {
    type Item = (&'a str, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (base, delta) = match self {
            Scan::Base(base) => return base.next().map(|(k, v)| (k.as_str(), v)),
            Scan::Merge { base, delta } => (base, delta),
        };
        loop {
            let order = match (base.peek(), delta.peek()) {
                (None, None) => return None,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((b, _)), Some((d, _))) => b.cmp(d),
            };
            if order == Ordering::Less {
                return base.next().map(|(k, v)| (k.as_str(), v));
            }
            if order == Ordering::Equal {
                base.next(); // shadowed by the delta entry
            }
            if let Some((k, Some(v))) = delta.next() {
                return Some((k.as_str(), v));
            }
            // a tombstone: skip it
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<V: Clone>(o: &Overlay<V>) -> Vec<&str> {
        o.iter().map(|(k, _)| k).collect()
    }

    fn built() -> Overlay<u32> {
        let mut o = Overlay::default();
        for (i, k) in ["a", "b", "c", "d"].into_iter().enumerate() {
            o.insert(k.to_owned(), i as u32);
        }
        o
    }

    #[test]
    fn unshared_writes_go_into_the_base() {
        let mut o = built();
        *o.get_mut("b").unwrap() = 9;
        assert!(o.remove("c"));
        assert_eq!(o.delta_len(), 0);
        assert_eq!(keys(&o), ["a", "b", "d"]);
        assert_eq!(o.get("b"), Some(&9));
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn shared_writes_go_into_the_delta() {
        let template = built();
        let mut o = template.clone();
        *o.get_mut("b").unwrap() = 9;
        assert!(o.remove("c"));
        o.insert("bb".to_owned(), 7);
        o.insert("e".to_owned(), 8);
        assert!(o.remove("e"), "a delta-only key is dropped, not tombstoned");
        assert_eq!(o.delta_len(), 3);
        assert!(o.shares_base(&template));
        assert_eq!(keys(&o), ["a", "b", "bb", "d"]);
        assert_eq!(o.get("b"), Some(&9));
        assert_eq!(o.get("c"), None);
        assert_eq!(o.len(), 4);
        assert_eq!(keys(&template), ["a", "b", "c", "d"]);
        assert_eq!(template.get("b"), Some(&1));
    }

    #[test]
    fn tombstones_can_be_overwritten_and_removed_twice_is_false() {
        let template = built();
        let mut o = template.clone();
        assert!(o.remove("a"));
        assert!(!o.remove("a"));
        assert!(o.get_mut("a").is_none());
        o.insert("a".to_owned(), 5);
        assert_eq!(o.get("a"), Some(&5));
        assert_eq!(o.len(), 4);
    }

    #[test]
    fn range_from_merges_from_the_start_key() {
        let template = built();
        let mut o = template.clone();
        o.insert("ba".to_owned(), 1);
        assert!(o.remove("d"));
        let got: Vec<&str> = o.range_from("b").map(|(k, _)| k).collect();
        assert_eq!(got, ["b", "ba", "c"]);
    }
}
