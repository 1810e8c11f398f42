"""Build fingerprints: pinned SHA-256 digests of every preprocessing output.

Each case builds one registered scheme on the ``random`` family and
hashes what its preprocessing produced:

* ``orders``     — every ``Init_v`` order of the roundtrip metric;
* ``blocks``     — the dictionary block sets ``S_v`` and the patch count;
* ``substrate``  — RTZ labels, cluster sets, home centers and direct tables;
* ``tables``     — per-vertex ``table_entries``;
* ``pointers``   — the per-node block-pointer rows (dictionary schemes);
* ``knowledge``  — the compiled planner's output over all ``n^2`` pairs,
  identical on the ``dense`` and ``blocked`` table families;
* ``traces``     — hop-by-hop routed traces of a fixed pair set.

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

#: (scheme, n, params); n=40/130/300 are all non-square
CASES: Tuple[Tuple[str, int, Tuple[Tuple[str, int], ...]], ...] = (
    ("rtz", 40, ()),
    ("rtz", 300, ()),
    ("stretch6", 40, ()),
    ("stretch6", 130, ()),
    ("stretch6", 300, ()),
    ("stretch6", 130, (("blocks_per_node", 1),)),
    ("stretch6_via_source", 130, ()),
    ("wild_names", 130, ()),
    ("wild_names", 300, (("blocks_per_node", 1),)),
    ("exstretch", 40, ()),
    ("exstretch", 130, (("k", 3), ("blocks_per_node", 1))),
    ("polystretch", 130, ()),
)

_NETWORKS: Dict[int, Network] = {}


def _network(n: int) -> Network:
    if n not in _NETWORKS:
        _NETWORKS[n] = Network.from_family("random", n, seed=1, store=None)
    return _NETWORKS[n]


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


def fingerprint(name: str, n: int, params) -> Dict[str, str]:
    net = _network(n)
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
            [sorted(rtz._direct[u].items()) for u in range(n)],
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


def _case_id(case) -> str:
    name, n, params = case
    return "-".join([name, str(n)] + [f"{k}{v}" for k, v in params])


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
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_build_fingerprint_is_pinned(case):
    assert fingerprint(*case) == PINNED[_case_id(case)]


def test_one_block_per_node_exercises_the_patch_walk():
    for name, n, params in CASES:
        if dict(params).get("blocks_per_node") == 1:
            dist = _network(n).build_scheme(name, **dict(params)).distribution
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
