//! A flat arena of per-edge union–find structures.

/// Union–find over many contiguous slot groups packed into one allocation.
///
/// Group `g` owns the global slots `offsets[g]..offsets[g+1]`; all `find` /
/// `union` operations take the group id and *local* slots within the group.
/// This is the layout used by the improved index construction (Algorithm 3):
/// group `g` is edge `g`'s common neighbourhood `N(uv)`, and the arena holds
/// the disjoint-set forests `M_uv` of *all* edges back to back, avoiding one
/// heap allocation per edge.
///
/// # Examples
///
/// ```
/// use esd_dsu::ArenaDsu;
///
/// // Two groups: slots {0,1,2} and {0,1}.
/// let mut dsu = ArenaDsu::new(vec![0, 3, 5]);
/// dsu.union(0, 0, 2);
/// assert_eq!(dsu.size(0, 0), 2);
/// assert_eq!(dsu.component_sizes(1), vec![1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct ArenaDsu {
    /// `offsets[g]..offsets[g+1]` is group `g`'s slot range; length = #groups + 1.
    pub(crate) offsets: Vec<usize>,
    /// Parents as *local* slot ids within each group.
    pub(crate) parent: Vec<u32>,
    /// Component size, valid at local roots.
    pub(crate) size: Vec<u32>,
}

impl ArenaDsu {
    /// Creates an arena from monotone group offsets (`offsets[0] == 0`, last
    /// entry is the total slot count). Every slot starts as a singleton.
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least the terminal 0"
        );
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let total = *offsets.last().expect("non-empty offsets");
        let mut parent = Vec::with_capacity(total);
        for g in 0..offsets.len() - 1 {
            let len = offsets[g + 1] - offsets[g];
            parent.extend(0..len as u32);
        }
        Self {
            offsets,
            parent,
            size: vec![1; total],
        }
    }

    /// Number of groups in the arena.
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of slots owned by group `g`.
    pub fn group_len(&self, g: usize) -> usize {
        self.offsets[g + 1] - self.offsets[g]
    }

    #[inline]
    fn base(&self, g: usize) -> usize {
        self.offsets[g]
    }

    /// Representative (local slot) of local slot `x` in group `g`, with path halving.
    #[inline]
    pub fn find(&mut self, g: usize, x: usize) -> usize {
        let base = self.base(g);
        debug_assert!(x < self.group_len(g));
        let mut x = x as u32;
        loop {
            let p = self.parent[base + x as usize];
            if p == x {
                return x as usize;
            }
            let gp = self.parent[base + p as usize];
            self.parent[base + x as usize] = gp;
            x = gp;
        }
    }

    /// Representative of local slot `x` in group `g`, read without path
    /// compression, so a shared arena can be read by several consumers.
    pub fn root(&self, g: usize, x: usize) -> usize {
        let base = self.base(g);
        debug_assert!(x < self.group_len(g));
        let mut x = x as u32;
        loop {
            let p = self.parent[base + x as usize];
            if p == x {
                return x as usize;
            }
            x = p;
        }
    }

    /// Merges local slots `a` and `b` in group `g`; returns `true` if distinct.
    #[inline]
    pub fn union(&mut self, g: usize, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(g, a), self.find(g, b));
        if ra == rb {
            return false;
        }
        let base = self.base(g);
        let (big, small) = if self.size[base + ra] >= self.size[base + rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[base + small] = big as u32;
        self.size[base + big] += self.size[base + small];
        true
    }

    /// Size of the component containing local slot `x` of group `g`.
    pub fn size(&mut self, g: usize, x: usize) -> u32 {
        let r = self.find(g, x);
        self.size[self.base(g) + r]
    }

    /// True when local slot `x` of group `g` is a component representative.
    pub fn is_root(&self, g: usize, x: usize) -> bool {
        self.parent[self.base(g) + x] == x as u32
    }

    /// Size stored at local slot `x`; meaningful only at roots.
    pub fn root_size(&self, g: usize, x: usize) -> u32 {
        self.size[self.base(g) + x]
    }

    /// Sorted multiset of component sizes of group `g`.
    pub fn component_sizes(&self, g: usize) -> Vec<u32> {
        let mut sizes: Vec<u32> = (0..self.group_len(g))
            .filter(|&x| self.is_root(g, x))
            .map(|x| self.root_size(g, x))
            .collect();
        sizes.sort_unstable();
        sizes
    }

    /// Visits `(root_local_slot, size)` for each component of group `g`.
    pub fn for_each_root(&self, g: usize, mut f: impl FnMut(usize, u32)) {
        for x in 0..self.group_len(g) {
            if self.is_root(g, x) {
                f(x, self.root_size(g, x));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn groups_are_independent() {
        let mut dsu = ArenaDsu::new(vec![0, 4, 7, 7, 10]);
        assert_eq!(dsu.num_groups(), 4);
        assert_eq!(dsu.group_len(2), 0, "empty group allowed");
        dsu.union(0, 0, 1);
        dsu.union(3, 1, 2);
        assert_eq!(dsu.root(0, 0), dsu.root(0, 1));
        assert_eq!(dsu.root(0, 1), dsu.find(0, 1));
        assert_ne!(dsu.root(0, 0), dsu.root(0, 2));
        assert_eq!(dsu.component_sizes(0), vec![1, 1, 2]);
        assert_eq!(dsu.component_sizes(1), vec![1, 1, 1]);
        assert_eq!(dsu.component_sizes(3), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn rejects_bad_offsets() {
        let _ = ArenaDsu::new(vec![1, 2]);
    }

    #[test]
    fn for_each_root_reports_all_components() {
        let mut dsu = ArenaDsu::new(vec![0, 5]);
        dsu.union(0, 0, 1);
        dsu.union(0, 2, 3);
        let mut seen = Vec::new();
        dsu.for_each_root(0, |root, size| seen.push((root, size)));
        let total: u32 = seen.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 5);
        assert_eq!(seen.len(), 3);
    }

    proptest! {
        #[test]
        fn group_isolation_under_random_unions(
            lens in prop::collection::vec(0usize..8, 1..6),
            ops in prop::collection::vec((0usize..6, 0usize..8, 0usize..8), 0..60),
        ) {
            let mut offsets = vec![0];
            for &l in &lens {
                offsets.push(offsets.last().unwrap() + l);
            }
            let mut arena = ArenaDsu::new(offsets);
            let mut slots: Vec<esd_dsu_test_model::Model> =
                lens.iter().map(|&l| esd_dsu_test_model::Model::new(l)).collect();
            for (g, a, b) in ops {
                let g = g % lens.len();
                let l = lens[g];
                if l == 0 { continue; }
                let (a, b) = (a % l, b % l);
                arena.union(g, a, b);
                slots[g].union(a, b);
            }
            for (g, &l) in lens.iter().enumerate() {
                let mut model_sizes = slots[g].component_sizes();
                model_sizes.sort_unstable();
                prop_assert_eq!(arena.component_sizes(g), model_sizes);
                for a in 0..l {
                    for b in 0..l {
                        prop_assert_eq!(
                            arena.find(g, a) == arena.find(g, b),
                            slots[g].same(a, b)
                        );
                    }
                }
            }
        }
    }

    /// A tiny quadratic-time reference partition used only by the proptest.
    mod esd_dsu_test_model {
        pub(super) struct Model {
            label: Vec<usize>,
        }

        impl Model {
            pub(super) fn new(n: usize) -> Self {
                Self {
                    label: (0..n).collect(),
                }
            }

            pub(super) fn union(&mut self, a: usize, b: usize) {
                let (la, lb) = (self.label[a], self.label[b]);
                if la != lb {
                    for l in &mut self.label {
                        if *l == lb {
                            *l = la;
                        }
                    }
                }
            }

            pub(super) fn same(&self, a: usize, b: usize) -> bool {
                self.label[a] == self.label[b]
            }

            pub(super) fn component_sizes(&self) -> Vec<u32> {
                let mut counts = std::collections::HashMap::new();
                for &l in &self.label {
                    *counts.entry(l).or_insert(0u32) += 1;
                }
                counts.into_values().collect()
            }
        }
    }
}
