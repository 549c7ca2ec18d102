//! Graph utility algorithms shared by the frontend (call-graph and
//! points-to-cycle collapsing) and the scheduler (grouping, connection
//! distances): Tarjan's SCC, DAG condensation helpers, longest paths in a
//! DAG, and a union-find.

/// The result of running Tarjan's algorithm: a mapping from vertices to
/// strongly connected components, with components numbered in **reverse
/// topological order** (if `u`'s component precedes `v`'s and `u -> v`, then
/// `comp(v) <= comp(u)`).
#[derive(Clone, Debug)]
pub struct SccResult {
    comp: Vec<u32>,
    comp_count: u32,
    // Members grouped by component: CSR layout.
    member_start: Vec<u32>,
    members: Vec<u32>,
}

impl SccResult {
    /// Component index of vertex `v`.
    #[inline]
    pub fn component_of(&self, v: usize) -> usize {
        self.comp[v] as usize
    }

    /// Number of components.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.comp_count as usize
    }

    /// Vertices in component `c`.
    pub fn members(&self, c: usize) -> &[u32] {
        let lo = self.member_start[c] as usize;
        let hi = self.member_start[c + 1] as usize;
        &self.members[lo..hi]
    }

    /// Iterator over members of `c` as `usize`.
    pub fn members_usize(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.members(c).iter().map(|&v| v as usize)
    }
}

/// Iterative Tarjan SCC over a graph with `n` vertices whose successors are
/// produced by `succ`. Runs in `O(V + E)` without recursion (safe for the
/// deep graphs produced by large benchmarks).
pub fn tarjan_scc<I, F>(n: usize, succ: F) -> SccResult
where
    F: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut stacked = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Explicit DFS frames: (vertex, iterator over its successors).
    enum Frame<I> {
        Enter(usize),
        Resume(usize, I),
    }
    let mut call: Vec<Frame<I>> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push(Frame::Enter(root));
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    stacked[v] = true;
                    call.push(Frame::Resume(v, succ(v)));
                }
                Frame::Resume(v, mut it) => {
                    let mut descended = false;
                    while let Some(w) = it.next() {
                        if index[w] == UNVISITED {
                            call.push(Frame::Resume(v, it));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if stacked[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All successors done: maybe pop a component.
                    if lowlink[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow") as usize;
                            stacked[w] = false;
                            comp[w] = comp_count;
                            if w == v {
                                break;
                            }
                        }
                        comp_count += 1;
                    }
                    // Propagate lowlink to parent frame.
                    if let Some(Frame::Resume(p, _)) = call.last() {
                        let p = *p;
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                }
            }
        }
    }

    // Build CSR member lists.
    let mut counts = vec![0u32; comp_count as usize + 1];
    for &c in &comp {
        counts[c as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let member_start = counts.clone();
    let mut cursor = counts;
    let mut members = vec![0u32; n];
    for (v, &c) in comp.iter().enumerate() {
        members[cursor[c as usize] as usize] = v as u32;
        cursor[c as usize] += 1;
    }

    SccResult {
        comp,
        comp_count,
        member_start,
        members,
    }
}

/// Longest path lengths through each vertex of a **DAG** given as an edge
/// list over `n` vertices. Returns, for every vertex, the length (in edges)
/// of the longest path that passes through it: `longest_in(v) +
/// longest_out(v)`.
///
/// The scheduler uses this on SCC condensations to compute connection
/// distances "modulo recursion" (paper Section III-C2).
pub fn longest_path_through(n: usize, edges: &[(u32, u32)]) -> Vec<u64> {
    // CSR for successors and predecessors plus indegrees for Kahn's order.
    let mut out_deg = vec![0u32; n];
    let mut in_deg = vec![0u32; n];
    for &(u, v) in edges {
        debug_assert_ne!(u, v, "longest_path_through requires a DAG (self-loop)");
        out_deg[u as usize] += 1;
        in_deg[v as usize] += 1;
    }
    let mut out_start = vec![0u32; n + 1];
    for v in 0..n {
        out_start[v + 1] = out_start[v] + out_deg[v];
    }
    let mut out_adj = vec![0u32; edges.len()];
    let mut cursor = out_start.clone();
    for &(u, v) in edges {
        out_adj[cursor[u as usize] as usize] = v;
        cursor[u as usize] += 1;
    }

    // Topological order by Kahn's algorithm.
    let mut order = Vec::with_capacity(n);
    let mut indeg = in_deg.clone();
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    while let Some(v) = queue.pop() {
        order.push(v);
        let lo = out_start[v as usize] as usize;
        let hi = out_start[v as usize + 1] as usize;
        for &w in &out_adj[lo..hi] {
            indeg[w as usize] -= 1;
            if indeg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "longest_path_through requires a DAG (cycle)"
    );

    // longest_in via forward pass, longest_out via reverse pass.
    let mut lin = vec![0u64; n];
    for &v in &order {
        let lo = out_start[v as usize] as usize;
        let hi = out_start[v as usize + 1] as usize;
        for &w in &out_adj[lo..hi] {
            let cand = lin[v as usize] + 1;
            if cand > lin[w as usize] {
                lin[w as usize] = cand;
            }
        }
    }
    let mut lout = vec![0u64; n];
    for &v in order.iter().rev() {
        let lo = out_start[v as usize] as usize;
        let hi = out_start[v as usize + 1] as usize;
        for &w in &out_adj[lo..hi] {
            let cand = lout[w as usize] + 1;
            if cand > lout[v as usize] {
                lout[v as usize] = cand;
            }
        }
    }

    (0..n).map(|v| lin[v] + lout[v]).collect()
}

/// A path-compressing, union-by-rank disjoint-set forest.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Compress.
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Unions the sets containing `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        big
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(edges: &[(usize, usize)], n: usize) -> Vec<Vec<usize>> {
        let mut a = vec![Vec::new(); n];
        for &(u, v) in edges {
            a[u].push(v);
        }
        a
    }

    #[test]
    fn scc_simple_cycle() {
        let a = adj(&[(0, 1), (1, 2), (2, 0), (2, 3)], 4);
        let scc = tarjan_scc(4, |v| a[v].iter().copied());
        assert_eq!(scc.component_count(), 2);
        assert_eq!(scc.component_of(0), scc.component_of(1));
        assert_eq!(scc.component_of(1), scc.component_of(2));
        assert_ne!(scc.component_of(0), scc.component_of(3));
        // Reverse topological order: 3's component is emitted first.
        assert!(scc.component_of(3) < scc.component_of(0));
    }

    #[test]
    fn scc_disconnected_and_singletons() {
        let a = adj(&[(0, 1)], 3);
        let scc = tarjan_scc(3, |v| a[v].iter().copied());
        assert_eq!(scc.component_count(), 3);
        // 1 must finish before 0 (reverse topological).
        assert!(scc.component_of(1) < scc.component_of(0));
        let m: Vec<_> = scc.members_usize(scc.component_of(2)).collect();
        assert_eq!(m, vec![2]);
    }

    #[test]
    fn scc_deep_chain_no_stack_overflow() {
        // A 200k-long chain would overflow a recursive implementation.
        let n = 200_000;
        let scc = tarjan_scc(n, |v| {
            let next = v + 1;
            (next < n).then_some(next).into_iter()
        });
        assert_eq!(scc.component_count(), n);
    }

    #[test]
    fn scc_two_cycles_bridge() {
        let a = adj(&[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], 4);
        let scc = tarjan_scc(4, |v| a[v].iter().copied());
        assert_eq!(scc.component_count(), 2);
        assert_eq!(scc.component_of(0), scc.component_of(1));
        assert_eq!(scc.component_of(2), scc.component_of(3));
    }

    #[test]
    fn longest_path_chain() {
        // 0 -> 1 -> 2 -> 3: every vertex lies on the length-3 path.
        let lp = longest_path_through(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(lp, vec![3, 3, 3, 3]);
    }

    #[test]
    fn longest_path_diamond_with_tail() {
        // 0 -> {1,2} -> 3 -> 4, plus a lone vertex 5.
        let lp = longest_path_through(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        assert_eq!(lp[0], 3);
        assert_eq!(lp[1], 3);
        assert_eq!(lp[3], 3);
        assert_eq!(lp[4], 3);
        assert_eq!(lp[5], 0);
    }

    #[test]
    #[should_panic(expected = "requires a DAG")]
    fn longest_path_rejects_cycles() {
        longest_path_through(2, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        uf.union(3, 4);
        assert!(uf.same(0, 1));
        assert!(uf.same(3, 4));
        assert!(!uf.same(1, 3));
        uf.union(1, 4);
        assert!(uf.same(0, 3));
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn union_find_idempotent_union() {
        let mut uf = UnionFind::new(3);
        let r1 = uf.union(0, 1);
        let r2 = uf.union(0, 1);
        assert_eq!(r1, r2);
    }
}
