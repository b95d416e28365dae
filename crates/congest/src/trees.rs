//! Distributed tree structures: the global spanning BFS tree and the
//! per-root depth-bounded BFS trees around a sparse set `Q` ("known
//! distributedly" in the sense of Section 2 of the paper: each node knows
//! its ancestor and descendants per tree plus the root's ID).

use powersparse_graphs::NodeId;

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

/// Depth-`s` BFS trees rooted at every node of a set `Q`, represented by
/// per-node records as the paper requires for invariant **I3** (each node
/// knows `N^s(v, Q)` and, for each tree it belongs to, the root's ID, its
/// ancestor and its descendants).
///
/// # Layout
///
/// Each node keeps its own record:
///
/// * its *knowledge*: `N^s(v, Q)`, ascending, the roots of the trees it
///   belongs to other than its own ([`QTrees::known`]);
/// * its *ancestors*: its ancestor in each of those trees, in a list
///   aligned with the knowledge ([`QTrees::parent`]);
/// * a flag that says whether it roots a tree of its own
///   ([`QTrees::is_root`]);
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
///
/// The trees grow one level at a time inside the node programs of
/// [`crate::primitives::extend_trees`]: each node's record is the state
/// of its own node steps and inbox reads, so every node writes only its
/// own record.
#[derive(Debug, Clone, Default)]
pub struct QTrees {
    depth: usize,
    nodes: Vec<NodeTrees>,
}

/// One node's record in the [`QTrees`], grown by the node itself: it
/// hears the roots its neighbors know ([`NodeTrees::hear`]), joins their
/// trees one level deeper ([`NodeTrees::join`]) and adopts the neighbors
/// that joined a tree under it ([`NodeTrees::adopt`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeTrees {
    /// `N^s(v, Q)`, ascending.
    known: Vec<u32>,
    /// `ancestors[i]` is the node's ancestor in the tree rooted at
    /// `known[i]`.
    ancestors: Vec<NodeId>,
    /// Whether the node roots a tree.
    rooted: bool,
    /// `(root, child position)` per child in any tree, ascending.
    descendants: Vec<(u32, u32)>,
    /// `(root, sender position)` per root heard since the last join.
    heard: Vec<(u32, u32)>,
}

impl NodeTrees {
    /// Makes the node the root of its own tree.
    pub(crate) fn plant(&mut self) {
        self.rooted = true;
    }

    /// Whether `x ∈ N^s(v, Q)`.
    pub(crate) fn knows(&self, x: u32) -> bool {
        self.known.binary_search(&x).is_ok()
    }

    /// The node's knowledge, ascending.
    pub(crate) fn known(&self) -> &[u32] {
        &self.known
    }

    /// Records that the neighbor at CSR position `pos` reaches the tree
    /// rooted at `root`, for the next [`NodeTrees::join`].
    pub(crate) fn hear(&mut self, root: u32, pos: u32) {
        self.heard.push((root, pos));
    }

    /// Joins every tree the node `v` heard since its last join, under
    /// the sender of smallest CSR position (the smallest ID, as neighbor
    /// lists ascend): each `(root, ancestor)` pair is merged into the
    /// knowledge and the ancestors in one pass from the back, in place (a
    /// sort of the two runs costs several times more on lists this
    /// short). Returns the joins as `(root, parent position)` pairs, by
    /// ascending root.
    ///
    /// # Panics
    ///
    /// Panics if the node joins a tree it already belongs to, its own
    /// included.
    pub(crate) fn join(&mut self, v: NodeId, neighbors: &[NodeId]) -> Vec<(u32, u32)> {
        let mut joins = std::mem::take(&mut self.heard);
        // Sorted, each root's smallest sender comes first.
        joins.sort_unstable();
        joins.dedup_by_key(|&mut (root, _)| root);
        let (mut i, mut k) = (self.known.len(), self.known.len() + joins.len());
        self.known.resize(k, 0);
        self.ancestors.resize(k, v);
        for &(root, pos) in joins.iter().rev() {
            while i > 0 && self.known[i - 1] > root {
                i -= 1;
                k -= 1;
                self.known[k] = self.known[i];
                self.ancestors[k] = self.ancestors[i];
            }
            assert!(
                (i == 0 || self.known[i - 1] < root) && !(self.rooted && root == v.0),
                "a node joined a tree it already belongs to"
            );
            k -= 1;
            self.known[k] = root;
            self.ancestors[k] = neighbors[pos as usize];
        }
        joins
    }

    /// Records children, each as `(root, CSR position)`, in any order.
    pub(crate) fn adopt(&mut self, children: impl IntoIterator<Item = (u32, u32)>) {
        self.descendants.extend(children);
        self.descendants.sort_unstable();
    }
}

impl QTrees {
    /// Depth-0 structure over `n` nodes in which no node roots a tree
    /// yet ([`NodeTrees::plant`]).
    pub(crate) fn new(n: usize) -> Self {
        Self {
            depth: 0,
            nodes: vec![NodeTrees::default(); n],
        }
    }

    /// Opens level `depth + 1` of every tree and returns every node's
    /// record (entry `i` is node `i`'s), for the node programs that grow
    /// it.
    pub(crate) fn open_level(&mut self) -> &mut [NodeTrees] {
        self.depth += 1;
        &mut self.nodes
    }

    /// Current tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether `v` roots a tree.
    pub fn is_root(&self, v: NodeId) -> bool {
        self.nodes[v.index()].rooted
    }

    /// `N^s(v, Q)` at depth `s`: the roots of the trees `v` belongs to
    /// other than its own, ascending.
    pub fn known(&self, v: NodeId) -> &[u32] {
        &self.nodes[v.index()].known
    }

    /// Every node's [`QTrees::known`] list, by node.
    pub fn knowledge(&self) -> Vec<Vec<u32>> {
        self.nodes.iter().map(|t| t.known.clone()).collect()
    }

    /// `v`'s ancestor in the tree rooted at `root`; `None` when `v` is
    /// that root or not in the tree.
    pub fn parent(&self, v: NodeId, root: u32) -> Option<NodeId> {
        let t = &self.nodes[v.index()];
        t.known.binary_search(&root).ok().map(|i| t.ancestors[i])
    }

    /// `v`'s descendants in the tree rooted at `root`, as CSR positions
    /// in `v`'s neighbor list (the child is `neighbors(v)[pos]`), in
    /// ascending order — that is, in ascending node ID.
    pub fn child_positions(
        &self,
        v: NodeId,
        root: u32,
    ) -> impl ExactSizeIterator<Item = usize> + '_ {
        let list = &self.nodes[v.index()].descendants;
        let lo = list.partition_point(|&(r, _)| r < root);
        let len = list[lo..].partition_point(|&(r, _)| r == root);
        list[lo..lo + len].iter().map(|&(_, pos)| pos as usize)
    }

    /// Drops every tree whose root is not in `keep` (mask over node IDs),
    /// from the knowledge and the ancestors as well. Used when a
    /// sparsification iteration discards `Q_{s-1} \ Q_s` ("the trees of
    /// nodes in `Q_{s-1} \ Q_s` are not used anymore").
    pub fn retain_roots(&mut self, keep: &[bool]) {
        for (v, t) in self.nodes.iter_mut().enumerate() {
            t.rooted &= keep[v];
            let mut kept = t.known.iter().map(|&x| keep[x as usize]);
            t.ancestors.retain(|_| kept.next() == Some(true));
            t.known.retain(|&x| keep[x as usize]);
            t.descendants.retain(|&(root, _)| keep[root as usize]);
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

    /// Grows `t` by one level over the complete graph on its nodes: every
    /// `(root, child, parent)` edge makes `child` hear `root` from
    /// `parent`; then every node joins what it heard and every parent
    /// adopts the children that joined under it.
    fn grow(t: &mut QTrees, edges: &[(u32, u32, u32)]) {
        let g = generators::complete(t.nodes.len());
        let nodes = t.open_level();
        let pos = |v: u32, w: u32| g.neighbors(NodeId(v)).binary_search(&NodeId(w)).unwrap() as u32;
        for &(root, child, parent) in edges {
            nodes[child as usize].hear(root, pos(child, parent));
        }
        for v in g.nodes() {
            let joins = nodes[v.index()].join(v, g.neighbors(v));
            for (root, parent) in joins {
                let parent = g.neighbors(v)[parent as usize];
                nodes[parent.index()].adopt([(root, pos(parent.0, v.0))]);
            }
        }
    }

    /// Depth-0 trees rooted at `roots` over `n` nodes.
    fn planted(n: usize, roots: &[u32]) -> QTrees {
        let mut t = QTrees::new(n);
        for &r in roots {
            t.nodes[r as usize].plant();
        }
        t
    }

    /// The nodes that root a tree.
    fn roots(t: &QTrees) -> Vec<u32> {
        (0..t.nodes.len() as u32)
            .filter(|&v| t.is_root(NodeId(v)))
            .collect()
    }

    /// `v`'s children in the tree rooted at `root`, by node ID.
    fn children(t: &QTrees, v: u32, root: u32) -> Vec<u32> {
        let g = generators::complete(t.nodes.len());
        let neighbors = g.neighbors(NodeId(v));
        t.child_positions(NodeId(v), root)
            .map(|pos| neighbors[pos].0)
            .collect()
    }

    #[test]
    fn qtrees_roots_and_attach() {
        let mut t = planted(5, &[0, 4]);
        assert_eq!(roots(&t), vec![0, 4]);
        grow(&mut t, &[(0, 1, 0), (4, 3, 4)]);
        grow(&mut t, &[(0, 2, 1)]);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.known(NodeId(1)), [0]);
        assert_eq!(t.known(NodeId(2)), [0]);
        assert_eq!(t.known(NodeId(0)), [] as [u32; 0]);
        assert_eq!(children(&t, 0, 0), vec![1]);
        assert_eq!(children(&t, 1, 0), vec![2]);
        assert_eq!(t.parent(NodeId(2), 0), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(1), 0), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(0), 0), None);
        assert_eq!(t.parent(NodeId(2), 4), None);
    }

    #[test]
    fn children_ascend_whatever_the_confirmation_order() {
        let mut t = planted(6, &[2, 5]);
        grow(
            &mut t,
            &[(5, 4, 5), (2, 3, 2), (2, 0, 2), (5, 1, 5), (2, 1, 2)],
        );
        assert_eq!(children(&t, 2, 2), vec![0, 1, 3]);
        assert_eq!(children(&t, 5, 5), vec![1, 4]);
        assert_eq!(children(&t, 2, 5), vec![]);
        assert_eq!(t.known(NodeId(1)), [2, 5]);
    }

    #[test]
    fn a_join_takes_the_smallest_sender() {
        let mut t = planted(5, &[0]);
        grow(&mut t, &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        // Node 4 hears root 0 from 3, then 1, then 2.
        grow(&mut t, &[(0, 4, 3), (0, 4, 1), (0, 4, 2)]);
        assert_eq!(t.parent(NodeId(4), 0), Some(NodeId(1)));
        assert_eq!(children(&t, 1, 0), vec![4]);
        assert_eq!(children(&t, 3, 0), vec![]);
        assert_eq!(t.known(NodeId(4)), [0]);
    }

    #[test]
    fn retain_roots_drops_trees() {
        let mut t = planted(4, &[0, 3]);
        grow(&mut t, &[(0, 1, 0), (3, 1, 3)]);
        let mut keep = vec![false; 4];
        keep[3] = true;
        t.retain_roots(&keep);
        assert_eq!(roots(&t), vec![3]);
        assert_eq!(t.known(NodeId(1)), [3]);
        assert_eq!(t.parent(NodeId(1), 3), Some(NodeId(3)));
        assert_eq!(t.parent(NodeId(1), 0), None);
        assert_eq!(t.child_positions(NodeId(0), 0).len(), 0);
        assert_eq!(t.child_positions(NodeId(3), 3).len(), 1);
    }

    #[test]
    #[should_panic(expected = "already belongs to")]
    fn joining_a_tree_twice_panics() {
        let mut t = planted(2, &[0]);
        grow(&mut t, &[(0, 1, 0)]);
        grow(&mut t, &[(0, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "already belongs to")]
    fn a_root_joining_its_own_tree_panics() {
        let mut t = planted(2, &[0]);
        grow(&mut t, &[(0, 0, 1)]);
    }

    #[test]
    fn node_in_multiple_trees() {
        let mut t = planted(3, &[0, 2]);
        grow(&mut t, &[(0, 1, 0), (2, 1, 2)]);
        assert_eq!(t.knowledge(), vec![vec![], vec![0, 2], vec![]]);
        assert_eq!(t.parent(NodeId(1), 0), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(1), 2), Some(NodeId(2)));
    }
}
