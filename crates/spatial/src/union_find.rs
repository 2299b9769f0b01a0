//! Disjoint-set forest with union by size and path halving.

/// A disjoint-set (union-find) structure over `0..len`.
///
/// Uses union-by-size and path-halving, giving effectively constant
/// amortized operations. This is the workhorse behind the giant
/// component of a disk-graph snapshot.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub(crate) fn new(len: usize) -> UnionFind {
        assert!(
            len <= u32::MAX as usize,
            "UnionFind supports up to 2^32 - 1 elements"
        );
        UnionFind {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
        }
    }

    /// Creates one singleton set per entry of `size`, each weighing its
    /// entry: [`UnionFind::largest_set`] then sums weights, not counts.
    pub(crate) fn with_sizes(size: Vec<u32>) -> UnionFind {
        UnionFind {
            parent: (0..size.len() as u32).collect(),
            size,
        }
    }

    /// The representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len`.
    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            // path halving
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`; returns `true` when they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Size of the largest set (0 for an empty structure).
    pub(crate) fn largest_set(&self) -> usize {
        (0..self.parent.len())
            .filter(|&i| self.parent[i] as usize == i)
            .map(|i| self.size[i] as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        for i in 0..3 {
            assert_eq!(uf.find(i), i);
        }
        assert_eq!(uf.largest_set(), 1);
        assert_eq!(UnionFind::new(0).largest_set(), 0);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.union(1, 2));
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(4));
        assert_ne!(uf.find(3), uf.find(4));
        assert_eq!(uf.largest_set(), 3);
    }

    #[test]
    fn weighted_sets_sum_their_weights() {
        let mut uf = UnionFind::with_sizes(vec![3, 0, 2, 4]);
        assert_eq!(uf.largest_set(), 4);
        uf.union(0, 1);
        uf.union(1, 2);
        assert_eq!(uf.find(2), uf.find(0));
        assert_eq!(uf.largest_set(), 5);
        assert_eq!(UnionFind::with_sizes(Vec::new()).largest_set(), 0);
    }

    #[test]
    fn chain_union_all() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.largest_set(), n);
        assert_eq!(uf.find(0), uf.find(n - 1));
    }

    #[test]
    fn union_by_size_balances() {
        // pathological star-vs-chain patterns keep find shallow enough to
        // terminate fast; sanity check representative stability
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(0, 2);
        let r = uf.find(0);
        for i in [1, 2, 3] {
            assert_eq!(uf.find(i), r);
        }
        for i in [4, 5, 6, 7] {
            assert_ne!(uf.find(i), r);
        }
    }

    #[test]
    #[should_panic]
    fn find_out_of_range_panics() {
        let mut uf = UnionFind::new(2);
        uf.find(2);
    }
}
