"""Pinned outputs of the graph builders.

Each case records what a seeded build produces: the sha256 of its CSR
arrays (``get_csr(g).indptr`` / ``.indices`` as little-endian int64),
its mutation counter ``g.version``, and the next ``random()`` of the
caller's generator, which shows the build consumed exactly the draws
it always did.  A change to how graphs are stored or assembled must
leave every value here untouched: walks, goldens and suite baselines
all depend on the neighbour order these arrays fix.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.experiments import suite
from repro.generators.ba import barabasi_albert
from repro.generators.er import erdos_renyi_gnm
from repro.graph.components import largest_connected_component
from repro.graph.csr import get_csr

SEED = 20240601


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype="<i8").tobytes()
    ).hexdigest()


def _lcc_of_sparse_gnm(rng: random.Random):
    # Average degree ~1.07: hundreds of components, LCC of 210 vertices.
    lcc, mapping = largest_connected_component(erdos_renyi_gnm(3000, 1600, rng=rng))
    assert len(mapping) == lcc.num_vertices
    return lcc


CASES = {
    "ba-k1": (
        lambda rng: barabasi_albert(2500, 1, rng=rng),
        "c5fc31d624cae51236e4403b420e1f2641ce68118f79ae4d0805d52d59357024",
        "c397e92d2080c3524b141c7185a82f5629336ebb959b0d9a737baec2bd801a62",
        2499,
        0.10743553889165758,
    ),
    "ba-k3": (
        lambda rng: barabasi_albert(2500, 3, rng=rng),
        "78fdd70b4de1c7d286b6d6f727ed02ee62e1b488dfce5a5302a5169584e9ad40",
        "000dfd95e2ccd9518c415620032ff3cb8cce2dc60dc9d7b7a7853882fed1c4e7",
        7491,
        0.16712349671007343,
    ),
    "gnm": (
        lambda rng: erdos_renyi_gnm(2500, 7500, rng=rng),
        "efe1ef9032966047ac6fd62092e72277c8531672575babefd69c427a29f5ad39",
        "d326337b0e4bc9bf7f6ec031a0cf1fb2b61aa52e08bd0f1822d2ba7cc788c9bb",
        7500,
        0.8147294680089419,
    ),
    "gnm-lcc": (
        _lcc_of_sparse_gnm,
        "a8b9d924954893fff8320db280d7fe8e98b1d18b2b3f5798da2dc1c07e1a9d4f",
        "7bfbbd9d29b9a4bd3889402678cd477ac907c24d03b10f10ad9dc2f721c73ffe",
        210,
        0.6095549416051491,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_build_is_pinned(name):
    build, indptr_sha, indices_sha, version, next_draw = CASES[name]
    rng = random.Random(SEED)
    graph = build(rng)
    csr = get_csr(graph)
    assert _digest(csr.indptr) == indptr_sha
    assert _digest(csr.indices) == indices_sha
    assert graph.version == version
    assert rng.random() == next_draw


def test_suite_er_family_is_pinned():
    graph = suite._family_er(2500, {}, 7)
    csr = get_csr(graph)
    assert (graph.num_vertices, graph.num_edges) == (2497, 7500)
    assert _digest(csr.indptr) == (
        "1fe2ce242e8d0b3cecf3e990651c34bd02f14ab5754289795c2269336b4b8c70"
    )
    assert _digest(csr.indices) == (
        "09dfeaa66223add04d9457899c5d253fa8a52ac4897c2753ef1a5dfc9df19343"
    )
    assert graph.version == 7500
