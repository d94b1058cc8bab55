//! Disjoint-set forest with union by rank and path halving.

/// A union–find structure over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets containing `x` and `y`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, x: u32, y: u32) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        let (hi, lo) = match self.rank[rx as usize].cmp(&self.rank[ry as usize]) {
            std::cmp::Ordering::Less => (ry, rx),
            std::cmp::Ordering::Greater => (rx, ry),
            std::cmp::Ordering::Equal => {
                self.rank[rx as usize] += 1;
                (rx, ry)
            }
        };
        self.parent[lo as usize] = hi;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_sets(uf: &mut UnionFind, n: u32) -> usize {
        (0..n).filter(|&v| uf.find(v) == v).count()
    }

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert_eq!(num_sets(&mut uf, 5), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(num_sets(&mut uf, 5), 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn all_merged() {
        let mut uf = UnionFind::new(4);
        for i in 0..3 {
            uf.union(i, i + 1);
        }
        assert_eq!(num_sets(&mut uf, 4), 1);
        let r = uf.find(0);
        for i in 0..4 {
            assert_eq!(uf.find(i), r);
        }
    }
}
