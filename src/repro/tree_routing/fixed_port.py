"""Fixed-port tree routing — the Lemma 14 substrate.

Lemma 14 (Thorup-Zwick / Fraigniaud-Gavoille) promises: for any tree
``T`` with root ``r`` there is a routing scheme that routes along the
optimal root-to-node path in the fixed-port model, with ``~O(1)``
storage per node and ``O(log^2 n)`` addresses.

We implement the classical *DFS interval routing* variant:

* each tree node gets a DFS entry time; the address of ``x`` is its
  DFS number (``O(log n)`` bits — even smaller than the lemma needs);
* each node stores, for each child edge, the DFS interval covered by
  that subtree along with the fixed port of the edge.

Routes are identical to the lemma's (exact root-to-node tree paths).
The storage per node is ``O(deg_T(x))`` words rather than ``~O(1)``;
this substitution is documented in DESIGN.md and its cost is visible in
the measured table sizes (never hidden behind an asymptotic claim).

The interval tables are arrays, and :class:`IntervalForest` builds them
for any number of trees at once: preorder numbers (children in
ascending vertex order) and interval ends come from an Euler tour of
each tree, ranked by pointer jumping, so the work takes ``O(log n)``
whole-array rounds whatever the tree depth; child-row ports come from
one vectorised :meth:`~repro.graph.digraph.Digraph.ports_of` lookup.
:class:`OutTreeRouter` is the one-tree view.

The tree edges live in the underlying digraph ``G``: an *out-tree* is a
shortest-path tree away from the root (used to route root -> node), and
the companion *in-structure* is simply a next-hop pointer per node
toward the root (used to route node -> root), built from shortest
paths into the root.  :class:`DoubleTreeRouter` in
``repro.covers.double_tree`` combines the two.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConstructionError, GraphError, TableLookupError
from repro.graph.digraph import Digraph


@dataclass(frozen=True)
class TreeAddress:
    """The routing address of a node within one out-tree.

    Attributes:
        tree_id: identifier of the tree (unique within a scheme).
        dfs: the node's DFS entry number within the tree.
    """

    tree_id: int
    dfs: int

    def bit_size(self, n: int) -> int:
        """Approximate encoded size in bits (two log-sized fields)."""
        logn = max(1, (max(n, 2) - 1).bit_length())
        return 2 * logn

    def header_bits(self, n: int) -> int:
        """Sizing-protocol alias for :meth:`bit_size`."""
        return self.bit_size(n)


class IntervalForest:
    """Interval routing tables of ``T`` rooted out-trees embedded in
    ``G``, as arrays.

    Args:
        g: the underlying (frozen) digraph; tree edges must exist in it.
        roots: ``(T,)`` root vertices.
        parents: ``(T, n)`` parent rows: ``parents[t, v]`` is the parent
            of ``v`` in tree ``t``, ``-1`` for vertices *not* in the
            tree (the root's entry is ignored).

    Attributes:
        dfs: ``(T, n)`` int64 preorder numbers, ``-1`` off the tree.
        row_ptr: ``(T * n + 1,)``; the child rows of ``v`` in tree ``t``
            are ``row_ptr[t * n + v]:row_ptr[t * n + v + 1]``, in
            ascending child (hence interval) order.
        row_key, row_child, row_lo, row_hi, row_port: per child row,
            ``t * n + parent``, the child, its subtree interval
            ``[lo, hi)`` and the tree edge's port.

    Raises:
        ConstructionError: if a parent edge is missing from ``G``, the
            parent structure has a cycle, or a vertex's parent chain is
            cut off from the root.
    """

    def __init__(self, g: Digraph, roots: Sequence[int], parents):
        n = self.n = g.n
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        num = roots.shape[0]
        trees = np.arange(num)
        parents = np.array(parents, dtype=np.int64).reshape(num, n)
        parents[trees, roots] = -1
        # Child edges in (tree, parent, child) order: nonzero walks rows
        # in ascending child order and the stable sort keeps it.
        tt, cv = np.nonzero(parents >= 0)
        cp = parents[tt, cv]
        try:
            ports = g.ports_of(cp, cv)
        except GraphError as exc:
            raise ConstructionError(
                f"tree edge not present in the digraph: {exc}"
            ) from exc
        order = np.argsort(tt * n + cp, kind="stable")
        tt, cv, ports = tt[order], cv[order], ports[order]
        key = tt * n + cp[order]
        _check_rooted(parents, roots)

        # Euler tour: arc i descends edge i, arc m + i climbs back, and
        # arc 2m is an absorbing end sentinel (a root's "edge" is m).
        m = key.shape[0]
        row_ptr = np.searchsorted(key, np.arange(num * n + 1))
        edge_of = np.full(num * n, m, dtype=np.int64)
        edge_of[tt * n + cv] = np.arange(m)
        own = tt * n + cv
        last_child = np.ones(m, dtype=bool)
        last_child[:-1] = key[1:] != key[:-1]
        nxt = np.concatenate((
            np.where(row_ptr[own + 1] > row_ptr[own], row_ptr[own], m + np.arange(m)),
            np.where(last_child, m + edge_of[key], np.arange(1, m + 1)),
            [2 * m],
        ))
        # Rank the tour by pointer jumping: after[a] counts the
        # descents from arc a to the end.
        after = np.concatenate((np.ones(m, np.int64), np.zeros(m + 1, np.int64)))
        while (nxt != 2 * m).any():
            after += after[nxt]
            nxt = nxt[nxt]
        descents = np.bincount(tt, minlength=num)
        self.dfs = np.full((num, n), -1, dtype=np.int64)
        self.dfs[trees, roots] = 0
        self.dfs[tt, cv] = self.row_lo = descents[tt] - after[:m] + 1
        self.row_hi = descents[tt] - after[m : 2 * m] + 1
        self.row_ptr = row_ptr
        self.row_key = key
        self.row_child = cv
        self.row_port = ports
        self._lists = None

    def _make_lists(self):
        """List copies of the tables for per-hop lookups, made on first
        use: list indexing and :func:`bisect.bisect_right` cost a
        fraction of NumPy's scalar calls."""
        self._lists = (
            self.dfs.ravel().tolist(), self.row_ptr.tolist(),
            self.row_lo.tolist(), self.row_hi.tolist(), self.row_port.tolist(),
        )
        return self._lists

    def number(self, v: int, t: int = 0) -> int:
        """``v``'s preorder number in tree ``t``, ``-1`` off the tree."""
        dfs = (self._lists or self._make_lists())[0]
        return dfs[t * self.n + v] if 0 <= v < self.n else -1

    def contains(self, v: int, t: int = 0) -> bool:
        """Whether ``v`` is in tree ``t``."""
        return self.number(v, t) >= 0

    def port_toward(self, at: int, target: int, t: int = 0) -> Optional[int]:
        """Interval-routing decision at ``at`` toward the node numbered
        ``target`` in tree ``t``; ``None`` when ``at`` is that node.

        Raises:
            TableLookupError: if ``at`` is not in the tree or ``target``
                is not in its subtree (interval routing can only move
                *down* an out-tree).
        """
        dfs, row_ptr, row_lo, row_hi, row_port = self._lists or self._make_lists()
        slot = t * self.n + at
        if not 0 <= at < self.n or dfs[slot] < 0:
            raise TableLookupError(f"vertex {at} is not in tree {t}")
        if target == dfs[slot]:
            return None
        lo = row_ptr[slot]
        row = bisect_right(row_lo, target, lo, row_ptr[slot + 1]) - 1
        if row >= lo and target < row_hi[row]:
            return row_port[row]
        raise TableLookupError(
            f"target dfs {target} not under vertex {at} in tree {t}"
        )

    def entries(self) -> np.ndarray:
        """``(T, n)`` stored rows per tree and vertex: 2 scalars for
        the own interval plus 3 per child row; 0 off the tree."""
        children = np.diff(self.row_ptr).reshape(self.dfs.shape)
        return np.where(self.dfs >= 0, 2 + 3 * children, 0)


def _check_rooted(parents: np.ndarray, roots: np.ndarray) -> None:
    """Raise unless every vertex with a parent reaches its tree's root.

    After ``ceil(log2 n)`` pointer-jumping squarings each vertex points
    ``n`` or more parent steps ahead, past any acyclic chain's ``n - 1``
    edges: at the parentless end of its chain, or, when the chain runs
    into a cycle, at a vertex that still has a parent."""
    num, n = parents.shape
    base = np.arange(num * n).reshape(num, n)
    anc = np.where(parents >= 0, base - np.arange(n) + parents, base).ravel()
    for _ in range(max(1, (n - 1).bit_length())):
        anc = anc[anc]
    linked = (parents >= 0).ravel()
    if (linked & linked[anc]).any():
        raise ConstructionError("parent structure contains a cycle")
    if (linked & (anc != np.repeat(base[:, 0] + roots, n))).any():
        raise ConstructionError("parent structure is disconnected from root")


class OutTreeRouter(IntervalForest):
    """Interval routing over one rooted out-tree embedded in ``G``.

    Args:
        g: the underlying (frozen) digraph; tree edges must exist in it.
        root: root vertex.
        parents: ``parents[v]`` is the tree parent of ``v``; ``-1`` both
            for the root and for vertices *not* in this tree.
        tree_id: identifier baked into addresses.

    Raises:
        ConstructionError: if a parent edge is missing from ``G``, the
            parent structure has a cycle, or a vertex is cut off from
            the root.
    """

    def __init__(self, g: Digraph, root: int, parents: Sequence[int], tree_id: int):
        super().__init__(g, [root], [parents])
        self._g = g
        #: the tree root vertex and the identifier in its addresses
        self.root = root
        self.tree_id = tree_id

    def members(self) -> List[int]:
        """All vertices spanned by the tree."""
        return np.flatnonzero(self.dfs[0] >= 0).tolist()

    def address_of(self, v: int) -> TreeAddress:
        """The routing address of tree member ``v``."""
        dfs = self.number(v)
        if dfs < 0:
            raise TableLookupError(f"vertex {v} is not in tree {self.tree_id}")
        return TreeAddress(self.tree_id, dfs)

    def next_port(self, at: int, target: TreeAddress) -> Optional[int]:
        """Forwarding decision at ``at`` toward ``target``: the fixed
        port, or ``None`` when ``at`` is the target itself.

        Raises:
            TableLookupError: for another tree's address, or as
                :meth:`IntervalForest.port_toward`.
        """
        if target.tree_id != self.tree_id:
            raise TableLookupError(
                f"address for tree {target.tree_id} used in tree {self.tree_id}"
            )
        return self.port_toward(at, target.dfs)

    def route(self, source: int, target: int) -> List[int]:
        """Full vertex path from ``source`` down to ``target``
        (preprocessing-time helper; packet-time movement goes through
        the simulator)."""
        addr = self.address_of(target)
        path = [source]
        at = source
        while True:
            port = self.next_port(at, addr)
            if port is None:
                return path
            at = self._g.head_of_port(at, port)
            path.append(at)

    def table_entries_at(self, v: int) -> int:
        """Number of stored rows at ``v`` for this tree (2 scalars for
        the own-interval plus one row per child)."""
        if not self.contains(v):
            return 0
        return 2 + 3 * int(self.row_ptr[v + 1] - self.row_ptr[v])


def build_out_tree(
    g: Digraph,
    root: int,
    parents: Sequence[int],
    tree_id: int = 0,
    restrict_to: Optional[Sequence[int]] = None,
) -> OutTreeRouter:
    """Build an :class:`OutTreeRouter`, optionally restricted to span a
    member set.

    When ``restrict_to`` is given, the tree is pruned to the union of
    root-to-member paths (Steiner vertices on those paths are kept, as
    Section 4's double-trees require).
    """
    if restrict_to is None:
        return OutTreeRouter(g, root, parents, tree_id)
    keep = set()
    for x in set(restrict_to) | {root}:
        while x != -1 and x not in keep:
            keep.add(x)
            x = -1 if x == root else parents[x]
    pruned = [parents[v] if v in keep else -1 for v in range(g.n)]
    return OutTreeRouter(g, root, pruned, tree_id)


class ToRootPointers:
    """The in-direction of a double tree: one next-hop port per node
    toward the root along shortest paths into the root.

    Args:
        g: the digraph.
        root: root vertex.
        parents_to_root: ``parents_to_root[v]`` is the *successor* of
            ``v`` on its path to the root (from a reverse Dijkstra), or
            ``-1`` for vertices outside the structure.
    """

    def __init__(self, g: Digraph, root: int, parents_to_root: Sequence[int]):
        self._g = g
        self._root = root
        self._port: Dict[int, int] = {}
        for v in range(g.n):
            succ = parents_to_root[v]
            if v == root or succ == -1:
                continue
            if not g.has_edge(v, succ):
                raise ConstructionError(
                    f"in-tree edge ({v}, {succ}) not present in the digraph"
                )
            self._port[v] = g.port_of(v, succ)

    @property
    def root(self) -> int:
        """The root vertex."""
        return self._root

    def contains(self, v: int) -> bool:
        """Whether ``v`` has a pointer (the root trivially counts)."""
        return v == self._root or v in self._port

    def next_port(self, at: int) -> Optional[int]:
        """Port toward the root, or ``None`` at the root."""
        if at == self._root:
            return None
        try:
            return self._port[at]
        except KeyError as exc:
            raise TableLookupError(
                f"vertex {at} has no pointer toward root {self._root}"
            ) from exc

    def route(self, source: int) -> List[int]:
        """Vertex path from ``source`` up to the root."""
        path = [source]
        at = source
        while at != self._root:
            at = self._g.head_of_port(at, self.next_port(at))
            path.append(at)
        return path

    def table_entries_at(self, v: int) -> int:
        """Stored rows at ``v`` (one port, or none)."""
        return 1 if v in self._port else 0
