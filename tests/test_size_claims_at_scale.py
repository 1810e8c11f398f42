"""The paper's compactness claims for the stretch-6 scheme, gated at
n=1024 rather than only at smoke sizes.

Section 2 promises ``~O(sqrt n)`` table entries per node and
``O(log^2 n)``-bit headers.  On ``random`` n=1024 (seed 1) the scheme
stores at most 1419 entries per node (4.4 * sqrt(n) * log2(n)) and its
headers peak at 124 bits (1.24 * log2(n)^2); the constants below leave
headroom over those figures.
"""

from __future__ import annotations

import math
import random

from repro.api import Network
from repro.runtime.sizing import log2_squared

N = 1024
TABLE_CONSTANT = 5.0
HEADER_CONSTANT = 1.5


def test_stretch6_tables_and_headers_at_n1024():
    net = Network.from_family("random", N, seed=1, store=None)
    router = net.router("stretch6")
    rng = random.Random(0)
    pairs = [tuple(rng.sample(range(N), 2)) for _ in range(256)]
    results = router.route_many(pairs)

    table_bound = TABLE_CONSTANT * math.sqrt(N) * math.log2(N)
    assert router.table_report().max_entries <= table_bound
    header_bound = HEADER_CONSTANT * log2_squared(N)
    assert max(r.max_header_bits for r in results) <= header_bound
    assert max(r.stretch for r in results) <= 6.0 + 1e-9
