//! Breadth-first traversal and connected components.

use crate::{Graph, VertexId};

/// Connected components of the whole graph.
///
/// Returns `(labels, sizes)`: `labels[v]` is the component id of `v` (dense,
/// in discovery order) and `sizes[c]` the number of vertices in component `c`.
pub fn connected_components(g: &Graph) -> (Vec<u32>, Vec<u32>) {
    let n = g.num_vertices();
    let mut labels = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as VertexId {
        if labels[s as usize] != u32::MAX {
            continue;
        }
        let c = sizes.len() as u32;
        sizes.push(0);
        labels[s as usize] = c;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            sizes[c as usize] += 1;
            for &w in g.neighbors(v) {
                if labels[w as usize] == u32::MAX {
                    labels[w as usize] = c;
                    queue.push_back(w);
                }
            }
        }
    }
    (labels, sizes)
}

/// BFS distances from `source` (`u32::MAX` = unreachable).
pub fn bfs_distances(g: &Graph, source: VertexId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Connected components of the subgraph induced by `members` — the kernel of
/// the paper's `BFS(G_{N(uv)}, τ)` procedure (Algorithm 1, lines 16–21).
///
/// `members` must be sorted. Returns the sorted multiset of component sizes.
/// A one-shot call allocates its scratch; loops that evaluate many
/// neighbourhoods hold one [`InducedScratch`] instead.
pub fn induced_component_sizes(g: &Graph, members: &[VertexId]) -> Vec<u32> {
    InducedScratch::new().component_sizes(g, members).to_vec()
}

/// A member's neighbour list longer than `HUB_FACTOR × |members|` is
/// intersected with `members` by the galloping kernel instead of scanned.
const HUB_FACTOR: usize = 16;

/// Reusable buffers for [`induced_component_sizes`]: a vertex-indexed
/// "unvisited member" flag array plus the BFS queue, an intersection buffer
/// and the size list. A call raises the flags of `members` and the BFS
/// lowers each one as it visits that member, so every flag is down again
/// when the call returns; nothing is cleared between calls and nothing is
/// allocated once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct InducedScratch {
    pending: Vec<bool>,
    queue: Vec<VertexId>,
    buf: Vec<VertexId>,
    sizes: Vec<u32>,
}

impl InducedScratch {
    /// Empty scratch; the flag array grows to `g.num_vertices()` on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`induced_component_sizes`] on this scratch: the sorted component
    /// sizes of the subgraph induced by the sorted `members`.
    ///
    /// Each BFS step scans the visited member's neighbour list against the
    /// flags, except that a hub — a neighbour list longer than
    /// 16 × `|members|` — is galloped against `members`
    /// ([`crate::intersect::intersect_into`]). The cost is therefore
    /// `O(Σ_{w ∈ members} min(d(w), |members| log d(w)))`, within a
    /// logarithm of the `O(Σ min(d(w), |members|))` bound used by Theorem 2.
    pub fn component_sizes(&mut self, g: &Graph, members: &[VertexId]) -> &[u32] {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted+unique"
        );
        let Self {
            pending,
            queue,
            buf,
            sizes,
        } = self;
        sizes.clear();
        if pending.len() < g.num_vertices() {
            pending.resize(g.num_vertices(), false);
        }
        for &x in members {
            pending[x as usize] = true;
        }
        let hub = HUB_FACTOR.saturating_mul(members.len());
        for &start in members {
            if !pending[start as usize] {
                continue;
            }
            pending[start as usize] = false;
            queue.push(start);
            let mut size = 0u32;
            while let Some(w) = queue.pop() {
                size += 1;
                let mut adjacent = g.neighbors(w);
                if adjacent.len() > hub {
                    buf.clear();
                    crate::intersect::intersect_into(adjacent, members, buf);
                    adjacent = buf;
                }
                for &x in adjacent {
                    if pending[x as usize] {
                        pending[x as usize] = false;
                        queue.push(x);
                    }
                }
            }
            sizes.push(size);
        }
        sizes.sort_unstable();
        sizes
    }
}

/// Connected components of the subgraph induced by `members`, as sorted
/// member lists (used by the case studies to *print* each social context;
/// [`induced_component_sizes`] is the cheaper size-only variant).
///
/// `members` must be sorted. Components are returned largest-first, ties by
/// smallest member.
pub fn induced_components(g: &Graph, members: &[VertexId]) -> Vec<Vec<VertexId>> {
    debug_assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "members must be sorted+unique"
    );
    let k = members.len();
    let mut visited = vec![false; k];
    let mut out: Vec<Vec<VertexId>> = Vec::new();
    let mut queue = Vec::new();
    let mut buf = Vec::new();
    for start in 0..k {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push(start);
        let mut comp = Vec::new();
        while let Some(local) = queue.pop() {
            comp.push(members[local]);
            buf.clear();
            crate::intersect::intersect_into(g.neighbors(members[local]), members, &mut buf);
            for &x in &buf {
                let lx = members
                    .binary_search(&x)
                    .expect("member of the induced set");
                if !visited[lx] {
                    visited[lx] = true;
                    queue.push(lx);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    /// Union–find over every adjacent member pair: the reference for the
    /// induced BFS.
    fn brute_force_sizes(g: &Graph, members: &[VertexId]) -> Vec<u32> {
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut parent: Vec<usize> = (0..members.len()).collect();
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                if g.has_edge(members[i], members[j]) {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
            }
        }
        let mut sizes = vec![0u32; members.len()];
        for i in 0..members.len() {
            let root = find(&mut parent, i);
            sizes[root] += 1;
        }
        sizes.retain(|&s| s > 0);
        sizes.sort_unstable();
        sizes
    }

    #[test]
    fn components_of_two_triangles() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let (labels, sizes) = connected_components(&g);
        assert_eq!(sizes.len(), 3, "two triangles + isolated vertex 6");
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 3, 3]);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, u32::MAX]);
    }

    #[test]
    fn induced_sizes_on_ego_network() {
        // Fig 1(a) style: members {d, e, h, i} with edges (d,e), (h,i) only.
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (0, 4), (1, 5)]);
        let sizes = induced_component_sizes(&g, &[0, 1, 2, 3]);
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn induced_sizes_empty_and_isolated() {
        let g = generators::complete(4);
        assert!(induced_component_sizes(&g, &[]).is_empty());
        // Any single member is an isolated size-1 component.
        assert_eq!(induced_component_sizes(&g, &[2]), vec![1]);
    }

    #[test]
    fn induced_sizes_of_full_clique() {
        let g = generators::complete(6);
        let members: Vec<u32> = (0..6).collect();
        assert_eq!(induced_component_sizes(&g, &members), vec![6]);
    }

    #[test]
    fn induced_components_lists_match_sizes() {
        let g = generators::erdos_renyi(35, 0.1, 8);
        let members: Vec<u32> = (0..35).filter(|v| v % 2 == 0).collect();
        let comps = induced_components(&g, &members);
        let mut sizes: Vec<u32> = comps.iter().map(|c| c.len() as u32).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, induced_component_sizes(&g, &members));
        // Largest-first ordering, disjoint cover of members.
        assert!(comps.windows(2).all(|w| w[0].len() >= w[1].len()));
        let mut all: Vec<u32> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, members);
        // Members of one component are mutually reachable inside the set.
        for comp in &comps {
            for &v in comp {
                assert!(members.binary_search(&v).is_ok());
            }
        }
    }

    #[test]
    fn induced_matches_global_on_full_vertex_set() {
        let g = generators::erdos_renyi(40, 0.05, 3);
        let members: Vec<u32> = (0..40).collect();
        let mut induced = induced_component_sizes(&g, &members);
        let (_, mut global) = connected_components(&g);
        induced.sort_unstable();
        global.sort_unstable();
        assert_eq!(induced, global);
    }

    #[test]
    fn hub_members_take_the_intersection_path() {
        // Vertex 0 is adjacent to all 199 others, far above 16 × |members|;
        // 1–2 is the only other edge.
        let mut edges: Vec<(VertexId, VertexId)> = (1..200).map(|v| (0, v)).collect();
        edges.push((1, 2));
        let g = Graph::from_edges(200, &edges);
        let mut scratch = InducedScratch::new();
        assert_eq!(scratch.component_sizes(&g, &[0, 7, 150]), &[3]);
        assert_eq!(scratch.component_sizes(&g, &[1, 2, 150]), &[1, 2]);
        assert_eq!(scratch.component_sizes(&g, &[0]), &[1]);
    }

    proptest! {
        #[test]
        fn induced_sizes_match_union_find(
            seed in 0u64..200,
            n in 1usize..70,
            p in 0.0f64..0.6,
            masks in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let g = generators::erdos_renyi(n, p, seed);
            // Repeated calls on one scratch: no state may leak between them.
            let mut scratch = InducedScratch::new();
            for mask in masks {
                // Keep each vertex with probability 2^-(mask & 7), so some
                // sets are small enough for the hub path.
                let keep = 64 >> (mask & 7);
                let members: Vec<VertexId> = (0..n as VertexId)
                    .filter(|&v| (mask ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 < keep)
                    .collect();
                let expect = brute_force_sizes(&g, &members);
                prop_assert_eq!(scratch.component_sizes(&g, &members), expect.as_slice());
                prop_assert_eq!(induced_component_sizes(&g, &members), expect);
            }
        }
    }
}
