//! Union–find (disjoint set union) with path halving and union by size.
//!
//! This is the data structure behind Algorithm 1 and Algorithm 3 of the paper:
//! vertices (or edges) are processed in decreasing scalar order and merged
//! into growing components; the amortized `α(n)` cost per operation gives the
//! `O(|E|·α(n) + |V| log |V|)` bound quoted in Section II-B. The sweep keeps
//! the current tree root of each set in its own array, indexed by the root
//! that [`UnionFind::union`] returns.

/// Disjoint-set-union over `0..len`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    set_count: usize,
}

impl UnionFind {
    /// Create `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "union-find domain too large for u32");
        UnionFind { parent: (0..len as u32).collect(), size: vec![1; len], set_count: len }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Find the representative of `x`'s set, with path halving.
    #[inline]
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Merge the sets of `a` and `b` (union by size).
    ///
    /// Returns the representative of the merged set, or `None` if they were
    /// already in the same set.
    pub fn union(&mut self, a: usize, b: usize) -> Option<usize> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.set_count -= 1;
        Some(big)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.set_count(), 5);
        assert!(!uf.same_set(0, 1));
        assert!(uf.union(0, 1).is_some());
        assert!(uf.same_set(0, 1));
        assert_eq!(uf.set_count(), 4);
        // Union within the same set is a no-op.
        assert!(uf.union(1, 0).is_none());
        assert_eq!(uf.set_count(), 4);
        // The returned representative is what `find` answers for both sides.
        let root = uf.union(2, 3).unwrap();
        assert_eq!((uf.find(2), uf.find(3)), (root, root));
    }

    #[test]
    fn empty_union_find() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
    }
}
