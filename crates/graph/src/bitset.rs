//! Compact exclusion sets over dense link and node identifiers.
//!
//! FUBAR's path generator runs Dijkstra hundreds of thousands of times per
//! optimization, each time with a different set of excluded (congested)
//! links. A `u64`-word bitset keeps membership tests branch-light and the
//! sets cheap to clone between optimizer steps.

use crate::graph::{LinkId, NodeId};

macro_rules! id_set {
    ($(#[$doc:meta])* $name:ident, $id:ty) => {
        $(#[$doc])*
        #[derive(Clone, Debug, Default)]
        pub struct $name {
            words: Vec<u64>,
            len: usize,
        }

        impl $name {
            /// Creates an empty set.
            pub fn new() -> Self {
                Self::default()
            }

            /// Creates an empty set sized for ids `< capacity` without
            /// reallocating on insert.
            pub fn with_capacity(capacity: usize) -> Self {
                Self {
                    words: vec![0; capacity.div_ceil(64)],
                    len: 0,
                }
            }

            /// Inserts `id`; returns `true` if it was newly inserted.
            pub fn insert(&mut self, id: $id) -> bool {
                let (w, b) = (id.index() / 64, id.index() % 64);
                if w >= self.words.len() {
                    self.words.resize(w + 1, 0);
                }
                let mask = 1u64 << b;
                let fresh = self.words[w] & mask == 0;
                self.words[w] |= mask;
                self.len += fresh as usize;
                fresh
            }

            /// Removes `id`; returns `true` if it was present.
            pub fn remove(&mut self, id: $id) -> bool {
                let (w, b) = (id.index() / 64, id.index() % 64);
                if w >= self.words.len() {
                    return false;
                }
                let mask = 1u64 << b;
                let present = self.words[w] & mask != 0;
                self.words[w] &= !mask;
                self.len -= present as usize;
                present
            }

            /// Membership test.
            #[inline]
            pub fn contains(&self, id: $id) -> bool {
                let (w, b) = (id.index() / 64, id.index() % 64);
                self.words.get(w).is_some_and(|word| word & (1u64 << b) != 0)
            }

            /// Number of elements in the set.
            #[inline]
            pub fn len(&self) -> usize {
                self.len
            }

            /// True if the set has no elements.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// Removes all elements, keeping allocated capacity.
            pub fn clear(&mut self) {
                self.words.fill(0);
                self.len = 0;
            }

            /// Adds every element of `other` to `self`.
            pub fn union_with(&mut self, other: &Self) {
                if other.words.len() > self.words.len() {
                    self.words.resize(other.words.len(), 0);
                }
                for (w, &o) in self.words.iter_mut().zip(&other.words) {
                    *w |= o;
                }
                self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
            }

            /// Iterator over members in increasing id order.
            pub fn iter(&self) -> impl Iterator<Item = $id> + '_ {
                self.words.iter().enumerate().flat_map(|(wi, &word)| {
                    let mut w = word;
                    std::iter::from_fn(move || {
                        if w == 0 {
                            None
                        } else {
                            let b = w.trailing_zeros();
                            w &= w - 1;
                            Some(<$id>::try_from_index(wi * 64 + b as usize))
                        }
                    })
                })
            }
        }

        /// Equality of *members*: allocated-but-empty trailing words
        /// (a `with_capacity`, an `insert` later `remove`d) do not
        /// distinguish two sets.
        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                // Equal counts and an equal common prefix leave no
                // member for the longer vector's remaining words.
                let common = self.words.len().min(other.words.len());
                self.len == other.len && self.words[..common] == other.words[..common]
            }
        }
        impl Eq for $name {}

        impl FromIterator<$id> for $name {
            fn from_iter<I: IntoIterator<Item = $id>>(iter: I) -> Self {
                let mut s = Self::new();
                for id in iter {
                    s.insert(id);
                }
                s
            }
        }
    };
}

impl LinkId {
    #[inline]
    fn try_from_index(i: usize) -> Self {
        LinkId(i as u32)
    }
}

impl NodeId {
    #[inline]
    fn try_from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

id_set!(
    /// A set of [`LinkId`]s, typically the links a path query must avoid.
    LinkSet,
    LinkId
);
id_set!(
    /// A set of [`NodeId`]s, used by Yen's algorithm to forbid revisiting
    /// nodes of the root path.
    NodeSet,
    NodeId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = LinkSet::new();
        assert!(!s.contains(LinkId(3)));
        assert!(s.insert(LinkId(3)));
        assert!(!s.insert(LinkId(3)), "double insert reports not-fresh");
        assert!(s.contains(LinkId(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(LinkId(3)));
        assert!(!s.remove(LinkId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_beyond_one_word() {
        let mut s = LinkSet::new();
        s.insert(LinkId(0));
        s.insert(LinkId(63));
        s.insert(LinkId(64));
        s.insert(LinkId(1000));
        assert_eq!(s.len(), 4);
        assert!(s.contains(LinkId(1000)));
        assert!(!s.contains(LinkId(999)));
        // Membership tests beyond allocated words are false, not a panic.
        assert!(!s.contains(LinkId(100_000)));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let ids = [5u32, 0, 64, 63, 200];
        let s: LinkSet = ids.iter().map(|&i| LinkId(i)).collect();
        let got: Vec<u32> = s.iter().map(|l| l.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 200]);
    }

    #[test]
    fn union_recounts() {
        let a: LinkSet = [LinkId(1), LinkId(2)].into_iter().collect();
        let mut b: LinkSet = [LinkId(2), LinkId(70)].into_iter().collect();
        b.union_with(&a);
        assert_eq!(b.len(), 3);
        assert!(b.contains(LinkId(1)));
        assert!(b.contains(LinkId(70)));
    }

    #[test]
    fn equality_ignores_allocated_capacity() {
        assert_eq!(LinkSet::with_capacity(128), LinkSet::new());
        let mut a = LinkSet::with_capacity(256);
        let mut b = LinkSet::new();
        a.insert(LinkId(7));
        b.insert(LinkId(7));
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.insert(LinkId(130));
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    fn equality_survives_insert_then_remove() {
        let base: NodeSet = [NodeId(1), NodeId(40)].into_iter().collect();
        let mut grown = base.clone();
        grown.insert(NodeId(100));
        assert_ne!(grown, base);
        grown.remove(NodeId(100));
        assert_eq!(grown, base, "a removed member leaves no trace");
        // Same length, different members: the words decide.
        let other: NodeSet = [NodeId(1), NodeId(41)].into_iter().collect();
        assert_ne!(other, base);
    }

    #[test]
    fn clear_keeps_capacity_semantics() {
        let mut s = NodeSet::with_capacity(128);
        s.insert(NodeId(100));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(100)));
    }
}
