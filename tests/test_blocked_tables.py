"""The blocked-tables lockdown suite: memory + bit-identity differential.

The sparse/blocked compiled-table family (``--tables blocked``) claims
**bit identity** with the dense family and the hop-by-hop Python
simulator — same paths, same float costs, same hop counts, same header
bits, same ``HopLimitExceeded`` ordering — while never materializing an
``(n, n)`` matrix it does not strictly need.  This suite locks both
halves down:

* differential: every compiled scheme x random+torus x all three
  execution paths (python / dense / blocked) produce identical traces;
* property (hypothesis): for *any* block size — 1, ``n``, non-dividing —
  blocked APSP block concatenation equals the monolithic matrices
  bit-for-bit, and per-block store artifacts rehydrate bit-identically;
* limits: ``dense_weights()`` / ``first_hop_matrix()`` raise
  :class:`TableTooLargeError` above the ``REPRO_DENSE_MAX_N`` threshold
  instead of OOMing, and ``--tables auto`` flips to blocked there;
* memory: landmark-factored substrate tables stay o(n²).
"""

from __future__ import annotations

import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Network
from repro.exceptions import (
    GraphError,
    HopLimitExceeded,
    RoutingError,
    TableTooLargeError,
)
from repro.graph.apsp import apsp_blocks, apsp_matrices
from repro.graph.blocked import default_block_rows, iter_first_hop_blocks
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Digraph
from repro.graph.generators import random_strongly_connected
from repro.graph.limits import (
    DEFAULT_DENSE_MAX_N,
    dense_table_max_n,
)
from repro.graph.shortest_paths import DistanceOracle
from repro.runtime.engine import (
    TABLE_FAMILIES,
    BlockedNextHop,
    CompiledRoutes,
    DenseNextHop,
    JourneyPlan,
    LandmarkTables,
    Segment,
    compile_blocked_next_hop,
    compile_substrate_tables,
    constant_bits,
    resolve_table_family,
)
from repro.runtime.scheme import Decision, Forward, Header, RoutingScheme
from repro.runtime.simulator import Simulator
from repro.runtime.sizing import header_bits
from repro.runtime.traffic import generate_workload, run_workload
from repro.store import ArtifactStore, store_override

N = 32
PAIRS = 48
FAMILIES = ("random", "torus")

#: every scheme that compiles must serve identically from both families
COMPILED = (
    "rtz",
    "shortest_path",
    "stretch6",
    "stretch6_via_source",
    "wild_names",
)


@pytest.fixture(scope="module", params=FAMILIES)
def net(request) -> Network:
    return Network.from_family(request.param, N, seed=3)


def assert_traces_equal(a_traces, b_traces):
    assert len(a_traces) == len(b_traces)
    for a, b in zip(a_traces, b_traces):
        for leg_a, leg_b in (
            (a.outbound, b.outbound),
            (a.inbound, b.inbound),
        ):
            assert leg_a.path == leg_b.path
            assert leg_a.cost == leg_b.cost  # bit-identical floats
            assert leg_a.hops == leg_b.hops
            assert leg_a.max_header_bits == leg_b.max_header_bits


# ----------------------------------------------------------------------
# differential: python vs dense vs blocked, every compiled scheme
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme_name", COMPILED)
def test_blocked_traces_bit_identical(net, scheme_name):
    scheme = net.build_scheme(scheme_name)
    workload = generate_workload(
        "mixed", net.n, PAIRS, rng=random.Random(7), oracle=net.oracle()
    )
    py = Simulator(scheme).roundtrip_many(workload.pairs, engine="python")
    dense_sim = Simulator(scheme, tables="dense")
    blocked_sim = Simulator(scheme, tables="blocked")
    assert dense_sim.resolve_tables() == "dense"
    assert blocked_sim.resolve_tables() == "blocked"
    dense = dense_sim.roundtrip_many(workload.pairs, engine="vectorized")
    blocked = blocked_sim.roundtrip_many(workload.pairs, engine="vectorized")
    assert_traces_equal(py, dense)
    assert_traces_equal(dense, blocked)


@pytest.mark.parametrize("scheme_name", COMPILED)
def test_blocked_summaries_bit_identical(net, scheme_name):
    scheme = net.build_scheme(scheme_name)
    workload = generate_workload(
        "uniform", net.n, PAIRS, rng=random.Random(19), oracle=net.oracle()
    )
    dense = run_workload(
        scheme, workload, oracle=net.oracle(), engine="vectorized",
        tables="dense",
    )
    blocked = run_workload(
        scheme, workload, oracle=net.oracle(), engine="vectorized",
        tables="blocked",
    )
    assert dense.total_cost == blocked.total_cost
    assert dense.total_hops == blocked.total_hops
    assert dense.max_hops == blocked.max_hops
    assert dense.max_header_bits == blocked.max_header_bits
    assert dense.mean_stretch == blocked.mean_stretch
    assert dense.max_stretch == blocked.max_stretch
    assert dense.worst_pair == blocked.worst_pair


def test_resolve_table_family_contract():
    assert TABLE_FAMILIES == ("auto", "dense", "blocked")
    assert resolve_table_family("dense", 10**9) == "dense"
    assert resolve_table_family("blocked", 4) == "blocked"
    limit = dense_table_max_n()
    assert resolve_table_family("auto", limit) == "dense"
    assert resolve_table_family("auto", limit + 1) == "blocked"
    with pytest.raises(RoutingError, match="unknown table family"):
        resolve_table_family("sparse", 4)


def test_auto_flips_to_blocked_above_threshold(monkeypatch):
    monkeypatch.setenv("REPRO_DENSE_MAX_N", "16")
    net = Network.from_family("random", 24, seed=9)
    router = net.router("stretch6")
    assert router.resolve_tables() == "blocked"
    # ... and still serves bit-identically to the python reference.
    py = net.router("stretch6", engine="python").route_many([(0, 7), (3, 20)])
    vec = router.route_many([(0, 7), (3, 20)])
    assert [(r.cost, r.hops, r.max_header_bits) for r in py] == [
        (r.cost, r.hops, r.max_header_bits) for r in vec
    ]


def test_network_rejects_unknown_table_family():
    with pytest.raises(GraphError, match="table family"):
        Network.from_family("random", 8, seed=1, tables="sparse")


# ----------------------------------------------------------------------
# HopLimitExceeded ordering across block boundaries
# ----------------------------------------------------------------------


class BlockCrossingLoopingScheme(RoutingScheme):
    """Outbound chain ``0 -> ... -> 5``; the acknowledgment bounces
    ``4 <-> 3`` forever.

    With ``block_rows=2`` the loop vertices 3 and 4 live in *different*
    row blocks (blocks ``[2, 3]`` and ``[4, 5]``), so every loop step
    crosses a block boundary — the first-input-order
    :class:`HopLimitExceeded` contract must survive the per-block
    gather.
    """

    name = "block-crossing-looping-stub"

    def __init__(self, tables: str = "blocked"):
        g = Digraph(6)
        for i in range(5):
            g.add_edge(i, i + 1, 1.0)
        g.add_edge(5, 4, 1.0)
        g.add_edge(4, 3, 1.0)
        g.freeze(port_rng=random.Random(0))
        self._g = g
        self._tables = tables

    @property
    def graph(self) -> Digraph:
        return self._g

    def name_of(self, vertex: int) -> int:
        return vertex

    def vertex_of(self, name: int) -> int:
        return name

    def forward(self, at: int, header: Header) -> Decision:
        if header["mode"] in ("new", "o"):
            out = {"mode": "o", "dest": header["dest"]}
            if at == header["dest"]:
                from repro.runtime.scheme import Deliver

                return Deliver(out)
            return Forward(self._g.port_of(at, at + 1), out)
        out = {"mode": "r", "dest": header["dest"]}
        nxt = 4 if at in (5, 3) else 3
        return Forward(self._g.port_of(at, nxt), out)

    def table_entries(self, vertex: int) -> int:
        return 1

    def compile_tables(self, tables: str = "dense") -> CompiledRoutes:
        bits = header_bits({"mode": "new", "dest": 0}, self._g.n)
        next_vertex = np.full((6, 6), -1, dtype=np.int64)
        for i in range(5):
            next_vertex[i, 5] = i + 1
        for t in range(5):
            next_vertex[5, t] = 4
            next_vertex[4, t] = 3
            next_vertex[3, t] = 4
        if self._tables == "blocked":
            step = BlockedNextHop(
                6, 2, [next_vertex[lo:lo + 2] for lo in range(0, 6, 2)]
            )
        else:
            step = DenseNextHop(next_vertex)

        def planner(sources: np.ndarray, dests: np.ndarray) -> JourneyPlan:
            batch = sources.shape[0]
            return JourneyPlan(
                legs=[
                    [Segment(dests.copy(), constant_bits(bits, batch))],
                    [Segment(sources.copy(), constant_bits(bits, batch))],
                ],
                leg_init_bits=[
                    constant_bits(bits, batch),
                    constant_bits(bits, batch),
                ],
            )

        return CompiledRoutes(self._g, step, planner, family=self._tables)


def test_hop_limit_messages_match_across_families():
    messages = {}
    for tables in ("dense", "blocked"):
        sim = Simulator(BlockCrossingLoopingScheme(tables), hop_limit=15)
        with pytest.raises(HopLimitExceeded) as exc:
            sim.roundtrip_many([(0, 5)], engine="vectorized")
        messages[tables] = str(exc.value)
    py_sim = Simulator(BlockCrossingLoopingScheme(), hop_limit=15)
    with pytest.raises(HopLimitExceeded) as exc:
        py_sim.roundtrip_many([(0, 5)], engine="python")
    assert messages["dense"] == messages["blocked"] == str(exc.value)
    assert "from 5 to 0" in messages["blocked"]


def test_hop_limit_first_input_pair_wins_across_blocks():
    """Pair (2, 5)'s budget dies sweeps before pair (0, 5)'s, but the
    sequential reference raises for the first input-order pair — the
    blocked gather must preserve that even though the loop vertices sit
    in different blocks."""
    for tables in ("dense", "blocked"):
        sim = Simulator(BlockCrossingLoopingScheme(tables), hop_limit=15)
        with pytest.raises(HopLimitExceeded) as exc:
            sim.roundtrip_many([(0, 5), (2, 5)], engine="vectorized")
        assert "from 5 to 0" in str(exc.value)


def test_blocked_lookup_error_matches_dense():
    """A missing entry raises the same message from either family."""
    for tables in ("dense", "blocked"):
        scheme = BlockCrossingLoopingScheme(tables)
        compiled = scheme.compiled_routes(tables)
        at = np.array([2], dtype=np.int64)
        target = np.array([0], dtype=np.int64)  # no outbound entry
        phase = compiled.tables.begin_phase(at, target)
        with pytest.raises(Exception, match="no compiled next hop at vertex 2"):
            compiled.tables.step(at, target, phase)


# ----------------------------------------------------------------------
# hypothesis: any block size is exact
# ----------------------------------------------------------------------


def _graph(n: int, seed: int) -> Digraph:
    return random_strongly_connected(n, rng=random.Random(seed))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    block_rows=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=5),
)
def test_apsp_blocks_concat_equals_monolithic(n, block_rows, seed):
    """Block size 1, n, and non-dividing sizes all reproduce the
    monolithic APSP matrices bit-for-bit."""
    csr = CSRGraph.from_digraph(_graph(n, seed))
    d, parent = apsp_matrices(csr)
    los, his, d_blocks, p_blocks = [], [], [], []
    for lo, hi, d_blk, p_blk in apsp_blocks(csr, block_rows=block_rows):
        los.append(lo)
        his.append(hi)
        d_blocks.append(d_blk)
        p_blocks.append(p_blk)
    # blocks tile [0, n) exactly, in order, with the requested geometry
    assert los[0] == 0 and his[-1] == n
    assert all(h == lo for h, lo in zip(his, los[1:]))
    assert all(hi - lo == min(block_rows, n - lo) for lo, hi in zip(los, his))
    d_cat = np.concatenate(d_blocks, axis=0)
    p_cat = np.concatenate(p_blocks, axis=0)
    assert d_cat.dtype == d.dtype and p_cat.dtype == parent.dtype
    assert np.array_equal(d_cat, d)  # bit-identical floats (no inf here)
    assert np.array_equal(p_cat, parent)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    block_rows=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=5),
)
def test_first_hop_blocks_concat_equals_matrix(n, block_rows, seed):
    graph = _graph(n, seed)
    oracle = DistanceOracle(graph)
    full = oracle.first_hop_matrix()
    cat = np.concatenate(
        [blk for _, _, blk in
         iter_first_hop_blocks(CSRGraph.from_digraph(graph), block_rows)],
        axis=0,
    )
    assert cat.dtype == full.dtype
    assert np.array_equal(cat, full)
    # ... and the oracle's own per-block slices agree.
    lo = min(1, n - 1)
    assert np.array_equal(oracle.first_hop_block(lo, n), full[lo:n])


@settings(max_examples=10, deadline=None)
@given(block_rows=st.integers(min_value=1, max_value=30))
def test_blocked_next_hop_store_round_trip(block_rows):
    """Per-block artifacts rehydrate bit-identically from a cold store."""
    graph = _graph(24, seed=11)
    oracle = DistanceOracle(graph)
    with tempfile.TemporaryDirectory(prefix="repro-blk-") as root:
        store = ArtifactStore(root)
        with store_override(store):
            built = compile_blocked_next_hop(oracle, block_rows=block_rows)
            puts = store.puts
            rehydrated = compile_blocked_next_hop(
                oracle, block_rows=block_rows
            )
        assert puts == len(built.blocks) > 0
        assert store.puts == puts  # second compile is all hits
        assert rehydrated.block_rows == built.block_rows
        assert len(rehydrated.blocks) == len(built.blocks)
        for a, b in zip(built.blocks, rehydrated.blocks):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_landmark_tables_store_round_trip(net):
    scheme = net.build_scheme("stretch6")
    substrate = scheme.rtz
    arrays = (
        "direct_keys", "direct_next", "down_keys", "down_next",
        "up_next", "center_of", "center_idx",
    )
    with tempfile.TemporaryDirectory(prefix="repro-lmk-") as root:
        store = ArtifactStore(root)
        with store_override(store):
            substrate.__dict__.pop("_compiled_landmark_tables", None)
            built = compile_substrate_tables(substrate, "blocked")
            assert store.puts == 1
            substrate.__dict__.pop("_compiled_landmark_tables", None)
            rehydrated = compile_substrate_tables(substrate, "blocked")
            assert store.puts == 1  # served from the store, not rebuilt
    substrate.__dict__.pop("_compiled_landmark_tables", None)
    assert rehydrated is not built
    for name in arrays:
        a, b = getattr(built, name), getattr(rehydrated, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


# ----------------------------------------------------------------------
# TableTooLargeError: clear refusal instead of OOM
# ----------------------------------------------------------------------


class TestDenseTableLimit:
    def test_dense_weights_raises_above_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "8")
        csr = CSRGraph.from_digraph(_graph(12, seed=2))
        with pytest.raises(TableTooLargeError, match="REPRO_DENSE_MAX_N"):
            csr.dense_weights()

    def test_first_hop_matrix_raises_above_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "8")
        oracle = DistanceOracle(_graph(12, seed=2))
        with pytest.raises(TableTooLargeError, match="--tables blocked"):
            oracle.first_hop_matrix()
        # the streaming path keeps working at the same size
        block = oracle.first_hop_block(0, 4)
        assert block.shape == (4, 12)

    def test_threshold_default_and_malformed_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_DENSE_MAX_N", raising=False)
        assert dense_table_max_n() == DEFAULT_DENSE_MAX_N
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "not-a-number")
        assert dense_table_max_n() == DEFAULT_DENSE_MAX_N
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "-5")
        assert dense_table_max_n() == DEFAULT_DENSE_MAX_N
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "77")
        assert dense_table_max_n() == 77

    def test_within_threshold_still_builds(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_N", "12")
        csr = CSRGraph.from_digraph(_graph(12, seed=2))
        assert csr.dense_weights().shape == (12, 12)


# ----------------------------------------------------------------------
# sparse building blocks
# ----------------------------------------------------------------------


def test_pair_weights_matches_dense(net):
    csr = CSRGraph.from_digraph(net.graph)
    dense = csr.dense_weights()
    tails, heads = np.divmod(np.arange(net.n * net.n), net.n)
    sparse = csr.pair_weights(tails, heads)
    expected = dense[tails, heads]
    both_nan = np.isnan(sparse) & np.isnan(expected)
    assert np.array_equal(sparse[~both_nan], expected[~both_nan])
    assert np.array_equal(np.isnan(sparse), np.isnan(expected))


def test_default_block_rows_bounds():
    assert default_block_rows(1) == 1
    assert default_block_rows(100) == 100  # tiny graphs: one block
    huge = default_block_rows(10**6)
    assert 1 <= huge < 10**6  # bounded per-block footprint


def test_landmark_tables_are_subquadratic(net):
    """The o(n²) claim, asserted at an affordable n: the landmark
    factorization must undercut even one dense int32 ``(n, n)`` matrix
    (the dense substrate family holds two of those plus a bool mask)."""
    big = Network.from_family("random", 128, seed=7)
    scheme = big.build_scheme("stretch6")
    scheme.rtz.__dict__.pop("_compiled_landmark_tables", None)
    tables = compile_substrate_tables(scheme.rtz, "blocked")
    assert isinstance(tables, LandmarkTables)
    n = big.n
    assert tables.nbytes() < 4 * n * n
    dense = compile_substrate_tables(scheme.rtz, "dense")
    dense_bytes = (
        dense.direct_next.nbytes + dense.down_next.nbytes
        + dense.up_next.nbytes + dense.has_direct.nbytes
    )
    assert tables.nbytes() < dense_bytes / 2


def test_blocked_next_hop_nbytes_counts_blocks():
    graph = _graph(16, seed=3)
    oracle = DistanceOracle(graph)
    tables = compile_blocked_next_hop(oracle, block_rows=5)
    assert len(tables.blocks) == 4  # 5+5+5+1 rows
    assert tables.nbytes() == sum(b.nbytes for b in tables.blocks)
