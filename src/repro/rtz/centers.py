"""Center (landmark) selection for the RTZ-style substrate.

The stretch-3 scheme of Roditty, Thorup and Zwick samples a landmark
set ``A`` of about ``sqrt(n)`` vertices; every vertex ``v`` then has a
*home center* ``a(v)`` minimising the roundtrip distance ``r(v, c)``,
and a *cluster* ``C(v) = {u : r(u, v) < r(v, A)}`` of vertices closer
to ``v`` than ``v``'s own center is.

With a uniform sample of size ``s``, each ``|C(v)|`` is a prefix of the
roundtrip order stopped at the first sampled vertex, so
``E|C(v)| <= n / (s + 1)`` — choosing ``s = ceil(sqrt(n))`` balances
the two table contributions at ``~O(sqrt(n))`` each.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import ConstructionError
from repro.graph.roundtrip import RoundtripMetric


def sample_centers(
    n: int,
    rng: Optional[random.Random] = None,
    size: Optional[int] = None,
) -> List[int]:
    """Uniformly sample the landmark set ``A``.

    Args:
        n: vertex count.
        rng: randomness source.
        size: landmark count; defaults to ``ceil(sqrt(n))``.

    Returns:
        Sorted vertex list (non-empty).
    """
    rng = rng or random.Random(0)
    if size is None:
        size = int(math.ceil(math.sqrt(n)))
    size = max(1, min(size, n))
    return sorted(rng.sample(range(n), size))


class CenterAssignment:
    """Home centers and clusters induced by a landmark set.

    Args:
        metric: the roundtrip metric.
        centers: the landmark set ``A`` (non-empty).

    Raises:
        ConstructionError: on an empty landmark set.
    """

    def __init__(self, metric: RoundtripMetric, centers: Sequence[int]):
        if len(centers) == 0:
            raise ConstructionError("landmark set A must be non-empty")
        self._metric = metric
        self.centers: List[int] = sorted(set(centers))
        # One argmin over the sorted center columns: its first minimum
        # is the (r(v, c), c) tie-break.
        idx = np.asarray(self.centers, dtype=np.int64)
        to_centers = metric.oracle.r_matrix[:, idx]
        best = to_centers.argmin(axis=1)
        self._home: List[int] = idx[best].tolist()
        self._r_to_a: List[float] = to_centers[
            np.arange(metric.n), best
        ].tolist()
        # cluster membership is O(n^2) to enumerate and only needed on
        # the build path (direct tables, size accounting); computed
        # lazily so store-rehydrated assignments never pay for it
        self._clusters: Optional[List[Set[int]]] = None

    @classmethod
    def restore(
        cls,
        metric: RoundtripMetric,
        centers: Sequence[int],
        home: Sequence[int],
        r_to_a: Sequence[float],
    ) -> "CenterAssignment":
        """Rehydrate an assignment from stored arrays (the artifact
        store's load path), skipping the per-vertex center scan.

        ``home``/``r_to_a`` must be what the constructor would have
        computed for ``(metric, centers)``; clusters stay lazy and are
        re-derived from the metric if ever requested.
        """
        if len(centers) == 0:
            raise ConstructionError("landmark set A must be non-empty")
        self = cls.__new__(cls)
        self._metric = metric
        self.centers = sorted(set(int(c) for c in centers))
        self._home = [int(h) for h in home]
        self._r_to_a = [float(r) for r in r_to_a]
        self._clusters = None
        return self

    def _cluster_sets(self) -> List[Set[int]]:
        """``C(v)`` for every ``v``: ``u in C(v)`` iff ``r(u, v) <
        r(v, A)`` (lazily computed, cached)."""
        if self._clusters is None:
            # member[v, u] iff r(u, v) < r(v, A) - 1e-12, u != v
            bound = np.asarray(self._r_to_a) - 1e-12
            member = self._metric.oracle.r_matrix.T < bound[:, None]
            np.fill_diagonal(member, False)
            self._clusters = [set(np.flatnonzero(row).tolist()) for row in member]
        return self._clusters

    @property
    def metric(self) -> RoundtripMetric:
        """The roundtrip metric."""
        return self._metric

    def home_center(self, v: int) -> int:
        """``a(v)``: the landmark minimising ``r(v, c)``."""
        return self._home[v]

    def r_to_centers(self, v: int) -> float:
        """``r(v, A) = r(v, a(v))``."""
        return self._r_to_a[v]

    def cluster(self, v: int) -> Set[int]:
        """``C(v)``: vertices with a direct route to ``v``."""
        return set(self._cluster_sets()[v])

    def in_cluster(self, u: int, v: int) -> bool:
        """Whether ``u`` may route directly to ``v``."""
        return u in self._cluster_sets()[v]

    def max_cluster_size(self) -> int:
        """Largest ``|C(v)|`` (drives the direct-table bound)."""
        return max(len(c) for c in self._cluster_sets())

    def mean_cluster_size(self) -> float:
        """Average ``|C(v)|``."""
        return sum(len(c) for c in self._cluster_sets()) / self._metric.n

    def verify_cluster_path_closure(self) -> None:
        """Assert the closure property direct routing relies on: for
        ``u`` in ``C(v)``, every vertex on the canonical shortest
        ``u -> v`` path is in ``C(v)`` too.

        (Proof: for ``x`` on a shortest ``u -> v`` path,
        ``d(x,v) <= d(u,v) - d(u,x)`` and ``d(v,x) <= d(v,u) + d(u,x)``,
        so ``r(x,v) <= r(u,v) < r(v,A)``.)
        """
        oracle = self._metric.oracle
        clusters = self._cluster_sets()
        for v in range(self._metric.n):
            for u in clusters[v]:
                for x in oracle.path(u, v)[1:-1]:
                    assert x in clusters[v], (
                        f"closure violated: {x} on path {u}->{v} not in C({v})"
                    )
