"""Build fingerprints: pinned SHA-256 digests of every preprocessing output.

Each case builds one registered scheme on one graph family (``random``
unless named; ``cycle`` has depth-``n`` trees, ``torus`` tied path
lengths) and hashes what its preprocessing produced:

* ``orders``     — every ``Init_v`` order of the roundtrip metric;
* ``blocks``     — the dictionary block sets ``S_v`` and the patch count;
* ``substrate``  — RTZ labels, cluster sets, home centers and direct tables;
* ``tables``     — per-vertex ``table_entries``;
* ``pointers``   — the per-node block-pointer rows (dictionary schemes);
* ``knowledge``  — the compiled planner's output over all ``n^2`` pairs,
  identical on the ``dense`` and ``blocked`` table families;
* ``traces``     — hop-by-hop routed traces of a fixed pair set.

Separately, every landmark tree of each network's default RTZ substrate
is pinned through the substrate's public leg API: each vertex's address
in every out-tree (as the vertex that address routes to), the port
sequence of every root-to-vertex route, every in-pointer port, and the
per-vertex table entries.

Any rewrite of the preprocessing must leave every digest unchanged.  To
print the digests of the current code (only after an *intended* change
of outputs)::

    PYTHONPATH=src python tests/test_build_fingerprint.py
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.api import Network
from repro.rtz.routing import DOWN_TREE, TO_CENTER, R3Label
from repro.tree_routing.fixed_port import TreeAddress

#: (family, scheme, n, params); random n=40/130/300 are all non-square
CASES: Tuple[Tuple[str, str, int, Tuple[Tuple[str, int], ...]], ...] = (
    ("random", "rtz", 40, ()),
    ("random", "rtz", 300, ()),
    ("random", "stretch6", 40, ()),
    ("random", "stretch6", 130, ()),
    ("random", "stretch6", 300, ()),
    ("random", "stretch6", 130, (("blocks_per_node", 1),)),
    ("random", "stretch6_via_source", 130, ()),
    ("random", "wild_names", 130, ()),
    ("random", "wild_names", 300, (("blocks_per_node", 1),)),
    ("random", "exstretch", 40, ()),
    ("random", "exstretch", 130, (("k", 3), ("blocks_per_node", 1))),
    ("random", "polystretch", 130, ()),
    ("cycle", "rtz", 130, ()),
    ("cycle", "stretch6", 130, ()),
    ("torus", "rtz", 144, ()),
    ("torus", "stretch6", 144, ()),
)

#: (family, n) networks whose landmark trees are pinned
TREE_NETWORKS = (
    ("random", 40), ("random", 130), ("random", 300),
    ("cycle", 130), ("torus", 144),
)

_NETWORKS: Dict[Tuple[str, int], Network] = {}


def _network(family: str, n: int) -> Network:
    if (family, n) not in _NETWORKS:
        _NETWORKS[family, n] = Network.from_family(family, n, seed=1, store=None)
    return _NETWORKS[family, n]


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _array_sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _plan_digest(compiled, n: int) -> str:
    sources, dests = np.divmod(np.arange(n * n, dtype=np.int64), n)
    plan = compiled.plan(sources, dests)
    arrays = [seg.target for leg in plan.legs for seg in leg]
    arrays += [seg.fwd_bits for leg in plan.legs for seg in leg]
    arrays += list(plan.leg_init_bits)
    return _array_sha(arrays)


def _direct_rows(rtz, n: int):
    """Per source ``u``, the sorted ``(v, port)`` direct-table rows, read
    from the substrate's store arrays."""
    arrays = rtz.to_arrays()
    rows = [[] for _ in range(n)]
    for u, v, port in zip(
        arrays["direct_u"].tolist(), arrays["direct_v"].tolist(),
        arrays["direct_port"].tolist(),
    ):
        rows[u].append((v, port))
    return [sorted(r) for r in rows]


def fingerprint(family: str, name: str, n: int, params) -> Dict[str, str]:
    net = _network(family, n)
    scheme = net.build_scheme(name, **dict(params))
    metric = net.metric()
    out = {"orders": _sha([metric.init_order(v) for v in range(n)])}
    dist = getattr(scheme, "distribution", None)
    if dist is not None:
        out["blocks"] = _sha(
            ([sorted(s) for s in dist.sets], dist.patches_applied)
        )
    rtz = getattr(scheme, "rtz", None)
    if rtz is not None:
        assignment = rtz.assignment
        out["substrate"] = _sha((
            [rtz.label(v) for v in range(n)],
            [sorted(assignment.cluster(v)) for v in range(n)],
            [assignment.home_center(v) for v in range(n)],
            [assignment.r_to_centers(v) for v in range(n)],
            _direct_rows(rtz, n),
            _array_sha(rtz.to_arrays()[k] for k in sorted(rtz.to_arrays())),
        ))
    out["tables"] = _sha([scheme.table_entries(v) for v in range(n)])
    ptr = getattr(scheme, "_block_ptr", None)
    if ptr is not None:
        out["pointers"] = _sha([
            [int(ptr[u][b]) for b in range(scheme.blocks.num_blocks())]
            for u in range(n)
        ])
    dense = scheme.compiled_routes("dense")
    if dense is not None:
        out["knowledge"] = _plan_digest(dense, n)
        assert _plan_digest(scheme.compiled_routes("blocked"), n) == out["knowledge"]
    rng = random.Random(7)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(64)]
    traces = [
        (
            r.trace.outbound.path, r.trace.outbound.cost,
            r.trace.outbound.max_header_bits,
            r.trace.inbound.path, r.trace.inbound.cost,
            r.trace.inbound.max_header_bits,
        )
        for r in net.router(scheme).route_many(pairs)
    ]
    out["traces"] = _sha(traces)
    return out


def tree_fingerprint(family: str, n: int) -> str:
    """Digest of every landmark tree of the network's default substrate,
    read through :meth:`RTZStretch3.leg_step` only.

    For landmark ``c`` (tree index ``idx``) and every DFS address ``t``,
    the down-tree leg from ``c`` toward ``TreeAddress(idx, t)`` is driven
    until the tree reports arrival: the vertex reached is the one whose
    ``address_of`` is ``t``, and the ports taken are its ``route(c, v)``.
    The in-pointer of every ``v`` is the first port of a ``TO_CENTER``
    leg toward ``c``.  Per-vertex ``table_entries`` close the digest.
    """
    net = _network(family, n)
    rtz = net.rtz()
    g = net.graph
    trees = []
    for idx, c in enumerate(rtz.centers):
        routes = []
        for t in range(n):
            label = R3Label(dest=-1, center=c, addr=TreeAddress(idx, t))
            at, ports = c, []
            port, _ = rtz.leg_step(at, label, DOWN_TREE)
            while port is not None:
                ports.append(port)
                at = g.head_of_port(at, port)
                port, _ = rtz.leg_step(at, label, DOWN_TREE)
            routes.append((at, ports))
        home = rtz.label(c)
        up = [rtz.leg_step(v, home, TO_CENTER)[0] for v in range(n)]
        trees.append((c, routes, up))
    return _sha((trees, [rtz.table_entries(v) for v in range(n)]))


def _case_id(case) -> str:
    family, name, n, params = case
    head = [name] if family == "random" else [name, family]
    return "-".join(head + [str(n)] + [f"{k}{v}" for k, v in params])


# Recorded from the scalar reference implementation of the
# preprocessing (per-vertex sorted Init_v, per-requirement coverage
# scans, per-pair cluster comparisons).
PINNED: Dict[str, Dict[str, str]] = {
    'rtz-40': {
        'orders': 'a24ff45dfeed6c4a6696f734d5f0fca1cba0919a142082e708959095d289e7ee',
        'substrate': 'b1070a0a49d5000886e1efd5384dfc49509fb24ce58b21dd9ecc489d97cc660a',
        'tables': '1b14825e2b8a58bba8ba61cd47ed8573b790633a74bc50c2e7c65ec085e38506',
        'knowledge': 'e620438f5b7d331b0570fe77e83f0bc876cdeb6205aeab3fd2508acaa860003e',
        'traces': '4b9a8b185164c48866e2ebd65456725461fc9a3a95079b957a1b3161181b85f8',
    },
    'rtz-300': {
        'orders': '6ee0ceec88d8557f32d0a530c576130c3112ffe13ff410d46e3c9661ddb6b63b',
        'substrate': '600477c21f7284a76ea446ad2ae739f8c0e471ba7aadf5f68819e4594bf31d89',
        'tables': '03ae371010ee53ee693e2a766c0046810f957defe440183f7576516116b18c06',
        'knowledge': '73cde05eb28904f5c8dc22fa87b427ca77e572c334c3f81b2cb543752e367c1e',
        'traces': '8f0c5d410cea74164d8786231000c3e38f688b3427f1e07a5c3a0b1ca7727bb6',
    },
    'stretch6-40': {
        'orders': 'a24ff45dfeed6c4a6696f734d5f0fca1cba0919a142082e708959095d289e7ee',
        'blocks': 'be16f59b4c66a009d0872626303fb28f5fb5739994a1b99fa2819c70b42daf23',
        'substrate': 'b1070a0a49d5000886e1efd5384dfc49509fb24ce58b21dd9ecc489d97cc660a',
        'tables': 'e4ddd5c26b257e6abc067502be2985736a3deae5ca452d4cc1ccd87abff65c28',
        'pointers': '63e3acde525863978a3236adce5608de782c8b426267dbbde7487347fa09f9dd',
        'knowledge': 'f3822577c8eb63b03ed5db635df6f740267879a39a22de76798fc2bb558489c5',
        'traces': 'f3d2ffc8eca78e93bed32e1f5703ffcfd5fecbc297d0e7c599ebead6fa5baccf',
    },
    'stretch6-130': {
        'orders': '23b6117394c9f206e2f06d3ba65f74feea6e31678b418ef8308e5c1aa83e25f1',
        'blocks': '9a49b916257c534a657517cccc0455ef832367fe04f8bd61cc2ada686766b9c1',
        'substrate': 'fa93a9a2feeaf3d5f788f02f90d318e5e788d0faedf70dff8330b6fb0afd23f3',
        'tables': '3ad0a5561d25755afa09d9945bed1d22f696512293de6a74af420eacad29c91c',
        'pointers': '0ccf53fbb74799549ace1e5896cf00b435a25660b256f7ca9256c7e8197c3e30',
        'knowledge': '5960c09783f76ec424e74369c3156adb82ace08f68e37b6c971234b538598fcc',
        'traces': '2acdab9b898539b3e342bd9f364b5b7de0faa9ec1ae8e5982cfced646b48a731',
    },
    'stretch6-300': {
        'orders': '6ee0ceec88d8557f32d0a530c576130c3112ffe13ff410d46e3c9661ddb6b63b',
        'blocks': '89389fdac37be18bf6b4ace1506de4542d4e71e59e9e07191b6b3015f0594c98',
        'substrate': '600477c21f7284a76ea446ad2ae739f8c0e471ba7aadf5f68819e4594bf31d89',
        'tables': 'f0b88483de99cee4ac5623aa485a957f781472791fb93965e74fa0b754e70c9b',
        'pointers': '20fc41a9dbe0011f098226ec3def716d32d3c623d1d8abdc5f699b1ebe72323d',
        'knowledge': '9c49768f318674c9f9ecac54355b454cb566efe51d4b95bfbcad40175f57da75',
        'traces': 'b17a1eca1e05b63022847a2e17c3550ecaf711c113802ee04b9a1269e18865a7',
    },
    'stretch6-130-blocks_per_node1': {
        'orders': '23b6117394c9f206e2f06d3ba65f74feea6e31678b418ef8308e5c1aa83e25f1',
        'blocks': '7930c0db881e2f24c80bcd8eddd86c2856c99c314338fa6a8fcc72bc52ea6501',
        'substrate': 'fa93a9a2feeaf3d5f788f02f90d318e5e788d0faedf70dff8330b6fb0afd23f3',
        'tables': 'db4aed46977d6176993ce6b9a3ef5ff5ead0e44a68d23b25444ec38d71a10df7',
        'pointers': '20c3fb1321a4fb614d43739c3adef12745b29ecb3459ca221469fff2a63f2f1f',
        'knowledge': '34226687d38aca0e9422fecb0665ee01d808469c6e580bf717b51d2f7170f976',
        'traces': '1a77d0dc4a1ea1388187427786b943b7ad4eb9555845ef8072cafd384a78107f',
    },
    'stretch6_via_source-130': {
        'orders': '23b6117394c9f206e2f06d3ba65f74feea6e31678b418ef8308e5c1aa83e25f1',
        'blocks': '9a49b916257c534a657517cccc0455ef832367fe04f8bd61cc2ada686766b9c1',
        'substrate': 'fa93a9a2feeaf3d5f788f02f90d318e5e788d0faedf70dff8330b6fb0afd23f3',
        'tables': '3ad0a5561d25755afa09d9945bed1d22f696512293de6a74af420eacad29c91c',
        'pointers': '0ccf53fbb74799549ace1e5896cf00b435a25660b256f7ca9256c7e8197c3e30',
        'knowledge': '6155a79bb0055168ba1c7562a79efaeca76d322ac116317fa66af007dfd13a7b',
        'traces': '2acdab9b898539b3e342bd9f364b5b7de0faa9ec1ae8e5982cfced646b48a731',
    },
    'wild_names-130': {
        'orders': '23b6117394c9f206e2f06d3ba65f74feea6e31678b418ef8308e5c1aa83e25f1',
        'blocks': '9a49b916257c534a657517cccc0455ef832367fe04f8bd61cc2ada686766b9c1',
        'substrate': 'fa93a9a2feeaf3d5f788f02f90d318e5e788d0faedf70dff8330b6fb0afd23f3',
        'tables': '3ad0a5561d25755afa09d9945bed1d22f696512293de6a74af420eacad29c91c',
        'pointers': '0ccf53fbb74799549ace1e5896cf00b435a25660b256f7ca9256c7e8197c3e30',
        'knowledge': '5960c09783f76ec424e74369c3156adb82ace08f68e37b6c971234b538598fcc',
        'traces': '2acdab9b898539b3e342bd9f364b5b7de0faa9ec1ae8e5982cfced646b48a731',
    },
    'wild_names-300-blocks_per_node1': {
        'orders': '6ee0ceec88d8557f32d0a530c576130c3112ffe13ff410d46e3c9661ddb6b63b',
        'blocks': '20226873f1382df8ac5c968df5b353dbba6fde0724464f7beb2c808ed951f9f9',
        'substrate': '600477c21f7284a76ea446ad2ae739f8c0e471ba7aadf5f68819e4594bf31d89',
        'tables': '944ba450bc32c6842763c7db60d6d318a7a8440d0a824d5cc09dac205ff1b330',
        'pointers': 'b1ddd5f422e5056d33298be9c82a0f7aec0b3c94354374f8c6b6e1d02550274a',
        'knowledge': '366bc673d78053737adb5751fa67dd161b5606938f7c86c96b59f40a5155cbcc',
        'traces': '9f8928d0858ae29894922a16eb402f5826effe097aeedfe5d153d8a34a8791a5',
    },
    'exstretch-40': {
        'orders': 'a24ff45dfeed6c4a6696f734d5f0fca1cba0919a142082e708959095d289e7ee',
        'blocks': 'be16f59b4c66a009d0872626303fb28f5fb5739994a1b99fa2819c70b42daf23',
        'tables': 'ee53dd7794bc121bafc628c4dff7d9b202bf47a885032bae45a2dc78d609c2d2',
        'traces': '54fb85fd0832f8b9fbe1c0cff235d4f6083746b6b3af9733142f969e29054295',
    },
    'exstretch-130-k3-blocks_per_node1': {
        'orders': '23b6117394c9f206e2f06d3ba65f74feea6e31678b418ef8308e5c1aa83e25f1',
        'blocks': '319aeff39604389bd2f968755b3e69b641a8e02200df40421ddfbc8189b98b66',
        'tables': '63d3c752d31870419fb5d120510976540bba166d3398dfa98ddd88215d8b82fa',
        'traces': '925bf78b6eda4da9c389810f6d720d2f604c353a774cb37d1903bbb195e8228b',
    },
    'polystretch-130': {
        'orders': '23b6117394c9f206e2f06d3ba65f74feea6e31678b418ef8308e5c1aa83e25f1',
        'tables': '1e49f8c0bd6b8bddc80681a2acc0795fdb4922007295a6d8a45dfa199ae2a302',
        'traces': 'f1d84a2c3f68ab5f6cefe29d0a76c2d3fd3cf76e4aa6a5b86ce2dacd9725ed25',
    },
    'rtz-cycle-130': {
        'orders': 'aee869cc352908c3f46d92d5a2868d304efea5bcb31312d5998602b511bea238',
        'substrate': '4778bd5522d6960309e183ef67170f9ee51102d8629868f9753370b30c3870b6',
        'tables': 'b4f865a5352f9956f3d53d835aa5f2aad3ca5563ee9c2cbb31334b02f29c80a3',
        'knowledge': '20f9aed57b970611c1239a0c51a9b268a8b394dd38bded181164d92a381bfaba',
        'traces': '67f1908de0d8c62f59fbdc69f9cfc2de6f2273eaad385f657a250592623a1d0e',
    },
    'stretch6-cycle-130': {
        'orders': 'aee869cc352908c3f46d92d5a2868d304efea5bcb31312d5998602b511bea238',
        'blocks': '9a49b916257c534a657517cccc0455ef832367fe04f8bd61cc2ada686766b9c1',
        'substrate': '4778bd5522d6960309e183ef67170f9ee51102d8629868f9753370b30c3870b6',
        'tables': 'b5d814f4ef57d08376c5ad7e2b859e52f18691ebf973b5d480986f83b77f2b4d',
        'pointers': '0ccf53fbb74799549ace1e5896cf00b435a25660b256f7ca9256c7e8197c3e30',
        'knowledge': '5960c09783f76ec424e74369c3156adb82ace08f68e37b6c971234b538598fcc',
        'traces': '848df198d001f7255398cd653ac65920192339e20fa415a28b2f283ef145ea9f',
    },
    'rtz-torus-144': {
        'orders': '3a2bfc9691b848bdf017ca0c7d5e0fc2c8ec42eb2cf794f97a050441b80fd5f2',
        'substrate': '7c68e38481c5e6c43e1712eee21fe86af78d08b7acf8a7f20e688e61f92be552',
        'tables': '8a021c93c7f81d801669279a932fdc7efc02b9a88e14a69e89616365931a91e8',
        'knowledge': 'f06b17e461e6d7f815b5d4d8d5f74475aeb04a91120e59c5ee5834b6e1f8cc91',
        'traces': '81345a266fbab6940b7a34bad9697311fe3beceaa12c9a6e9e65c99cb155c112',
    },
    'stretch6-torus-144': {
        'orders': '3a2bfc9691b848bdf017ca0c7d5e0fc2c8ec42eb2cf794f97a050441b80fd5f2',
        'blocks': '10a4f848990d94f6b460519912413d92745d382de4d9b63ff8ed0023ce489856',
        'substrate': '7c68e38481c5e6c43e1712eee21fe86af78d08b7acf8a7f20e688e61f92be552',
        'tables': 'ae43d429bd056a958b5b6ad859c5e66577206e00d8795243ae399a79507da7ad',
        'pointers': '92100aa0065d6e7147223554d9ccd7ea6bfd8136a61577012b414db900779a19',
        'knowledge': '4b6cc3405f8a05f2866b137208dfe7b9b8d1a47f197daa9059660209e4bb05d5',
        'traces': '8b2b946df62fe29fe8791d0484480387485f13c4a70d0e579e8d0857727265a6',
    },
}

# Recorded from the per-tree reference implementation of the landmark
# trees (dict DFS per out-tree, one reverse Dijkstra per in-tree).
PINNED_TREES: Dict[str, str] = {
    'random-40': '233e6ae28d7b81fa6c19b53a958006a012d75d8f712099b2066265ea57c6513d',
    'random-130': '31b6ea226064d493a0b1dbfb94adb162bd238b426abce3f287f91da8beba6879',
    'random-300': '623cb4cd109d17c7661f0bb822ab08f6fa744434fdc00846b17a893145bde433',
    'cycle-130': '46ca9d5195e03c18a92b151d6d1b2ac2341814da0cfef9d4886ff728c4a67598',
    'torus-144': '4a17e8eb2fa5d0c984ef99135c4043532dcdf7c621f2b27eb14ad308ef98aeef',
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_build_fingerprint_is_pinned(case):
    assert fingerprint(*case) == PINNED[_case_id(case)]


@pytest.mark.parametrize(
    "family, n", TREE_NETWORKS, ids=[f"{f}-{n}" for f, n in TREE_NETWORKS]
)
def test_landmark_trees_are_pinned(family, n):
    assert tree_fingerprint(family, n) == PINNED_TREES[f"{family}-{n}"]


def test_one_block_per_node_exercises_the_patch_walk():
    for family, name, n, params in CASES:
        if dict(params).get("blocks_per_node") == 1:
            net = _network(family, n)
            dist = net.build_scheme(name, **dict(params)).distribution
            assert dist.patches_applied > 0, (name, n)
            dist.verify()


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("PINNED = {")
    for case in CASES:
        print(f"    {_case_id(case)!r}: {{")
        for key, value in fingerprint(*case).items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
    print("PINNED_TREES = {")
    for family, n in TREE_NETWORKS:
        print(f"    '{family}-{n}': {tree_fingerprint(family, n)!r},")
    print("}")
