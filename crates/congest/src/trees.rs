//! Distributed tree structures: the global spanning BFS tree and the
//! per-root depth-bounded BFS trees around a sparse set `Q` ("known
//! distributedly" in the sense of Section 2 of the paper: each node knows
//! its ancestor and descendants per tree plus the root's ID).

use powersparse_graphs::{Graph, NodeId};

/// A spanning BFS tree rooted at `root`, known distributedly.
#[derive(Debug, Clone)]
pub struct GlobalTree {
    /// The root (e.g. the elected leader).
    pub root: NodeId,
    /// `parent[v]`; `None` for the root.
    pub parent: Vec<Option<NodeId>>,
    /// Children lists (derived from `parent`).
    pub children: Vec<Vec<NodeId>>,
    /// `level[v] = dist(root, v)`.
    pub level: Vec<u32>,
    /// Tree depth: `max level`.
    pub depth: u32,
}

impl GlobalTree {
    /// Builds the derived fields from parent pointers and levels.
    ///
    /// # Panics
    ///
    /// Panics if exactly the root lacks a parent or levels are
    /// inconsistent with parents.
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>, level: Vec<u32>) -> Self {
        assert_eq!(parent.len(), level.len());
        assert!(parent[root.index()].is_none(), "root must have no parent");
        assert_eq!(level[root.index()], 0, "root level must be 0");
        let mut children = vec![Vec::new(); parent.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert_eq!(
                    level[i],
                    level[p.index()] + 1,
                    "level of node {i} inconsistent with parent"
                );
                children[p.index()].push(NodeId::from(i));
            } else {
                assert_eq!(i, root.index(), "non-root node {i} has no parent");
            }
        }
        let depth = level.iter().copied().max().unwrap_or(0);
        Self {
            root,
            parent,
            children,
            level,
            depth,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.parent.len()
    }
}

/// One tree a node belongs to, as that node knows it: the root's ID, the
/// node's ancestor in the tree (the node itself when it is the root) and
/// its distance from the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    root: u32,
    parent: NodeId,
    level: u32,
}

/// Depth-`s` BFS trees rooted at every node of a set `Q`, represented by
/// per-node links as the paper requires for invariant **I3** (each node
/// knows, for each tree it belongs to, the root's ID, its ancestor and its
/// descendants).
///
/// # Layout
///
/// Each node holds two flat lists, both sorted by root ID:
///
/// * its *links*: one `(root, parent, level)` entry per tree it belongs
///   to (a root's entry for its own tree has level 0 and no parent);
/// * its *descendants*: one `(root, pos)` entry per child it has in any
///   tree, where the child is `neighbors(v)[pos]` (its CSR position in
///   the node's neighbor list), sorted by `(root, pos)`. Neighbor lists
///   ascend, so the children of one tree form a single run in
///   **ascending node ID**.
///
/// The multicasts of Lemma 4.2 send down the trees in that child order,
/// and the message counters of every committed manifest depend on it. A
/// child's position addresses its edge directly
/// ([`crate::engine::Outbox::send_at`]), so a tree send costs no search.
/// Lookups binary-search a node's list; the accessors below are the only
/// view of the layout.
#[derive(Debug, Clone, Default)]
pub struct QTrees {
    depth: usize,
    links: Vec<Vec<Link>>,
    descendants: Vec<Vec<(u32, u32)>>,
}

impl QTrees {
    /// Depth-0 trees: each root is alone in its tree.
    pub fn new_roots(n: usize, roots: &[NodeId]) -> Self {
        let mut links = vec![Vec::new(); n];
        for &r in roots {
            links[r.index()].push(Link {
                root: r.0,
                parent: r,
                level: 0,
            });
        }
        Self {
            depth: 0,
            links,
            descendants: vec![Vec::new(); n],
        }
    }

    /// Current tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// `v`'s link in the tree rooted at `root`, if `v` belongs to it.
    fn link(&self, v: NodeId, root: u32) -> Option<&Link> {
        let links = &self.links[v.index()];
        links
            .binary_search_by_key(&root, |l| l.root)
            .ok()
            .map(|i| &links[i])
    }

    /// Whether `v` roots a tree.
    pub fn is_root(&self, v: NodeId) -> bool {
        self.link(v, v.0).is_some()
    }

    /// IDs of the tree roots.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.links.len())
            .map(NodeId::from)
            .filter(|&v| self.is_root(v))
            .collect()
    }

    /// Trees that `v` belongs to, by ascending root ID.
    pub fn trees_of(&self, v: NodeId) -> Vec<u32> {
        self.links[v.index()].iter().map(|l| l.root).collect()
    }

    /// `v`'s ancestor in the tree rooted at `root`; `None` when `v` is
    /// that root or not in the tree.
    pub fn parent(&self, v: NodeId, root: u32) -> Option<NodeId> {
        self.link(v, root).filter(|l| l.level > 0).map(|l| l.parent)
    }

    /// `dist(root, v)` if `v` is in the tree rooted at `root`.
    pub fn level(&self, v: NodeId, root: u32) -> Option<u32> {
        self.link(v, root).map(|l| l.level)
    }

    /// `v`'s descendants in the tree rooted at `root`, as CSR positions
    /// in `v`'s neighbor list (the child is `neighbors(v)[pos]`), in
    /// ascending order — that is, in ascending node ID.
    pub fn child_positions(
        &self,
        v: NodeId,
        root: u32,
    ) -> impl ExactSizeIterator<Item = usize> + '_ {
        let list = &self.descendants[v.index()];
        let lo = list.partition_point(|&(r, _)| r < root);
        let len = list[lo..].partition_point(|&(r, _)| r == root);
        list[lo..lo + len].iter().map(|&(_, pos)| pos as usize)
    }

    /// Grows every tree by one level (Lemma 4.1's second claim).
    /// `joins[v]` lists the trees `v` joins at the new level as
    /// `(root, parent)` pairs in ascending root order; `confirmations[w]`
    /// lists the `(root, child)` confirmations `w` received, in any order
    /// (they may arrive over several rounds). Each child is recorded by
    /// its CSR position in `w`'s neighbor list in `g`.
    ///
    /// # Panics
    ///
    /// Panics if a node joins a tree it already belongs to, or if a
    /// confirming child is not a neighbor in `g`.
    pub(crate) fn grow(
        &mut self,
        g: &Graph,
        joins: &[Vec<(u32, NodeId)>],
        confirmations: Vec<Vec<(u32, NodeId)>>,
    ) {
        self.depth += 1;
        let level = self.depth as u32;
        for (links, joined) in self.links.iter_mut().zip(joins) {
            links.extend(joined.iter().map(|&(root, parent)| Link {
                root,
                parent,
                level,
            }));
            // Two sorted runs: the stable sort merges them in one pass.
            links.sort_by_key(|l| l.root);
            assert!(
                links.windows(2).all(|p| p[0].root < p[1].root),
                "a node joined a tree it already belongs to"
            );
        }
        for (w, (list, got)) in self.descendants.iter_mut().zip(confirmations).enumerate() {
            let neighbors = g.neighbors(NodeId::from(w));
            list.extend(got.into_iter().map(|(root, child)| {
                let pos = neighbors
                    .binary_search(&child)
                    .unwrap_or_else(|_| panic!("{child} is not a neighbor of v{w}"));
                (root, pos as u32)
            }));
            list.sort_unstable();
        }
    }

    /// Drops every tree whose root is not in `keep` (mask over node IDs).
    /// Used when a sparsification iteration discards `Q_{s-1} \ Q_s`
    /// ("the trees of nodes in `Q_{s-1} \ Q_s` are not used anymore").
    pub fn retain_roots(&mut self, keep: &[bool]) {
        for links in &mut self.links {
            links.retain(|l| keep[l.root as usize]);
        }
        for list in &mut self.descendants {
            list.retain(|&(root, _)| keep[root as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersparse_graphs::generators;

    #[test]
    fn global_tree_from_parents() {
        // Path 0-1-2 rooted at 1.
        let t = GlobalTree::from_parents(
            NodeId(1),
            vec![Some(NodeId(1)), None, Some(NodeId(1))],
            vec![1, 0, 1],
        );
        assert_eq!(t.depth, 1);
        assert_eq!(t.children[1], vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.n(), 3);
    }

    #[test]
    #[should_panic(expected = "inconsistent with parent")]
    fn inconsistent_levels_panic() {
        GlobalTree::from_parents(NodeId(0), vec![None, Some(NodeId(0))], vec![0, 2]);
    }

    /// Grows `t` by one level in which every `(root, child, parent)`
    /// edge joins `child` to the tree of `root` under `parent`, on the
    /// complete graph over `t`'s nodes.
    fn grow(t: &mut QTrees, edges: &[(u32, u32, u32)]) {
        let n = t.links.len();
        let mut joins = vec![Vec::new(); n];
        let mut confirmations = vec![Vec::new(); n];
        for &(root, child, parent) in edges {
            joins[child as usize].push((root, NodeId(parent)));
            confirmations[parent as usize].push((root, NodeId(child)));
        }
        t.grow(&generators::complete(n), &joins, confirmations);
    }

    /// `v`'s children in the tree rooted at `root`, by node ID.
    fn children(t: &QTrees, v: u32, root: u32) -> Vec<u32> {
        let g = generators::complete(t.links.len());
        let neighbors = g.neighbors(NodeId(v));
        t.child_positions(NodeId(v), root)
            .map(|pos| neighbors[pos].0)
            .collect()
    }

    #[test]
    fn qtrees_roots_and_attach() {
        let mut t = QTrees::new_roots(5, &[NodeId(0), NodeId(4)]);
        assert_eq!(t.roots(), vec![NodeId(0), NodeId(4)]);
        grow(&mut t, &[(0, 1, 0), (4, 3, 4)]);
        grow(&mut t, &[(0, 2, 1)]);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.trees_of(NodeId(1)), vec![0]);
        assert_eq!(children(&t, 0, 0), vec![1]);
        assert_eq!(children(&t, 1, 0), vec![2]);
        assert_eq!(t.level(NodeId(2), 0), Some(2));
        assert_eq!(t.parent(NodeId(2), 0), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(0), 0), None);
        assert_eq!(t.level(NodeId(0), 0), Some(0));
        assert_eq!(t.level(NodeId(2), 4), None);
    }

    #[test]
    fn children_ascend_whatever_the_confirmation_order() {
        let mut t = QTrees::new_roots(6, &[NodeId(2), NodeId(5)]);
        grow(
            &mut t,
            &[(5, 4, 5), (2, 3, 2), (2, 0, 2), (5, 1, 5), (2, 1, 2)],
        );
        assert_eq!(children(&t, 2, 2), vec![0, 1, 3]);
        assert_eq!(children(&t, 5, 5), vec![1, 4]);
        assert_eq!(children(&t, 2, 5), vec![]);
        assert_eq!(t.trees_of(NodeId(1)), vec![2, 5]);
    }

    #[test]
    fn retain_roots_drops_trees() {
        let mut t = QTrees::new_roots(4, &[NodeId(0), NodeId(3)]);
        grow(&mut t, &[(0, 1, 0), (3, 1, 3)]);
        let mut keep = vec![false; 4];
        keep[3] = true;
        t.retain_roots(&keep);
        assert_eq!(t.roots(), vec![NodeId(3)]);
        assert_eq!(t.trees_of(NodeId(1)), vec![3]);
        assert_eq!(t.child_positions(NodeId(0), 0).len(), 0);
        assert_eq!(t.child_positions(NodeId(3), 3).len(), 1);
    }

    #[test]
    #[should_panic(expected = "already belongs to")]
    fn joining_a_tree_twice_panics() {
        let mut t = QTrees::new_roots(2, &[NodeId(0)]);
        grow(&mut t, &[(0, 1, 0)]);
        grow(&mut t, &[(0, 1, 0)]);
    }

    #[test]
    fn node_in_multiple_trees() {
        let mut t = QTrees::new_roots(3, &[NodeId(0), NodeId(2)]);
        grow(&mut t, &[(0, 1, 0), (2, 1, 2)]);
        assert_eq!(t.trees_of(NodeId(1)), vec![0, 2]);
        assert_eq!(t.parent(NodeId(1), 0), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(1), 2), Some(NodeId(2)));
    }
}
