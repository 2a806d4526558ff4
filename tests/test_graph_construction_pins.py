"""Pinned outputs of the graph builders.

Each case records what a seeded build produces: the sha256 of its CSR
arrays (``get_csr(g).indptr`` / ``.indices`` as little-endian int64),
its mutation counter ``g.version``, and the next ``random()`` of the
caller's generator, which shows the build consumed exactly the draws
it always did.  A change to how graphs are stored or assembled must
leave every value here untouched: walks, goldens and suite baselines
all depend on the neighbour order these arrays fix.

The BA cases cover every set-table size the attachment loop's target
set passes through (8 slots for k <= 4, 32 for k = 5, 128 for
k = 20), G(2048, m) draws from a power-of-two range (about half of
all words are redrawn), and the gauss case starts from a generator
that holds a cached ``gauss_next``.  The size-estimator pins record
``StreamingGraphSize.num_vertices()`` after each absorb on both
kernel paths.  The suite's BA and ER families build CSR graphs
straight from edge buffers; on both kernel paths they must equal the
CSR of the ``Graph`` builders.
"""

from __future__ import annotations

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from repro.estimators.streaming import StreamingGraphSize
from repro.experiments import suite
from repro.generators.ba import ba_edges, barabasi_albert
from repro.generators.composite import join_by_bridge
from repro.generators.er import erdos_renyi_gnm
from repro.graph.components import largest_connected_component
from repro.graph.csr import CSRGraph, get_csr
from repro.metrics.exact import true_degree_ccdf, true_degree_pmf
from repro.sampling import _native
from repro.sampling.frontier import FrontierSampler
from repro.sampling.fused import FusedNeeds
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.session import record_checkpoints
from repro.sampling.single import SingleRandomWalk

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


def _gab_pair(rng: random.Random):
    # As datasets.registry.gab builds it: both graphs from one generator.
    return join_by_bridge(
        barabasi_albert(1000, 1, rng=rng), barabasi_albert(1000, 5, rng=rng)
    )


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
    "ba-k2": (
        lambda rng: barabasi_albert(2500, 2, rng=rng),
        "b02b460ef1d18dca0a524c4f5838b33441b25b1ef22c0b126f13acd00ac2cc11",
        "7dc8a57deb615eb33355e9b06ccbabbbb04bafda01e627949c69f8c8335b4200",
        4996,
        0.021950573359544867,
    ),
    "ba-k5": (
        lambda rng: barabasi_albert(2500, 5, rng=rng),
        "b3a5c18bc671a08ba48ba631464858d696e6e6e80901d189536e89887b1547de",
        "55b7a8b9410a740cea59b192fbe29c7bcbdf13793b4905e529fe712108f5703f",
        12475,
        0.03481822401970758,
    ),
    "ba-k20": (
        lambda rng: barabasi_albert(600, 20, rng=rng),
        "8367c9bc5b78455fb70ba9c0231c6e98bbdc27197e4e02db7e68e9bc74a1ddfe",
        "b2404c8d698e3a05b9167f81d18222716c662916e20ff8590bda28a84d769df5",
        11600,
        0.7499314423298608,
    ),
    "gab-pair": (
        _gab_pair,
        "68451ef85531ad173490326f455137801a73557433709ca78c8331152df48c92",
        "c92533d6bc8aaa93015522d20af53c59336f6924cabe450b46c0e9e96956b6d2",
        5975,
        0.7793892246118083,
    ),
    "gnm-pow2": (
        lambda rng: erdos_renyi_gnm(2048, 6000, rng=rng),
        "e9dc4b278ed0da4f39e5c548c6ae6a926855dec57581fc81f37ec6491174bf14",
        "4ee3daaebb182d2da83836fa26ebafc70194a0ce497d0e8a03c47c11d7406ccb",
        6000,
        0.8589553925480368,
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
    assert isinstance(graph, CSRGraph)


def test_builds_keep_a_cached_gauss_and_the_stream_position():
    rng = random.Random(SEED)
    assert rng.gauss(0, 1) == 0.7700989154549923  # caches gauss_next
    ba = get_csr(barabasi_albert(1500, 3, rng=rng))
    gnm = get_csr(erdos_renyi_gnm(1500, 4000, rng=rng))
    assert (_digest(ba.indptr), _digest(ba.indices)) == (
        "b9b55f1e09442f192f4076bf2bd186d1fc7654a93709b4da90a057e35ab7f482",
        "51026ce7636bb859f166905b0f854382d8a6e536bb5e57aa5283bf40307f0db7",
    )
    assert (_digest(gnm.indptr), _digest(gnm.indices)) == (
        "a427710e53c4514a90685751de8eb832d6b97979dde9a9767be5d50107572876",
        "cf58f4f39b6442c745caed727e317b00cfef46180efbe6781f2e5b2e50735779",
    )
    # The cached gauss_next is returned first; then the stream resumes
    # exactly where the two builds left it.
    assert rng.gauss(0, 1) == 0.7051400254459932
    assert rng.random() == 0.05525604708747833


PATHS = ["csr-python"] + (["csr-native"] if _native.available() else [])


@pytest.fixture(params=PATHS)
def kernel(request, monkeypatch):
    """Run the test on one kernel path (``REPRO_NO_NATIVE`` switches)."""
    if request.param == "csr-python":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    return request.param


@pytest.fixture(scope="module")
def walked():
    return barabasi_albert(3000, 2, rng=SEED)


def _size_after_blocks(graph, sampler, seed, checkpoints):
    session = sampler.start(graph, rng=seed)
    blocks, _ = record_checkpoints(
        session, "steps", checkpoints, FusedNeeds(visit_counts=True)
    )
    size = StreamingGraphSize(graph)
    return [repr(size.absorb_block(block).num_vertices()) for block in blocks]


def _size_after_drains(graph, backend, seed):
    session = SingleRandomWalk(backend=backend).start(graph, rng=seed)
    size = StreamingGraphSize(graph)
    estimates = []
    for steps in (700, 1800, 4000):
        session.advance(steps - session.steps_taken)
        estimates.append(repr(size.update(session.take_trace()).num_vertices()))
    return estimates


def test_size_estimates_are_pinned(kernel, walked):
    fs = FrontierSampler(40, backend="csr")
    mh = MetropolisHastingsWalk(backend="csr")
    assert _size_after_blocks(walked, fs, 3, [600, 2000, 5000]) == [
        "1537.6267486164363", "2160.5980590822596", "2690.0675972747526",
    ]
    assert _size_after_blocks(walked, mh, 4, [800, 2500, 6000]) == [
        "236.16783646216484", "665.477013415803", "1200.7229102923839",
    ]
    assert _size_after_drains(walked, "csr", 5) == [
        "1124.355966707434", "1828.4114421148895", "2349.168143909913",
    ]
    assert _size_after_drains(walked, "list", 6) == [
        "1352.7237622815562", "2071.4453984070724", "2413.7919578576166",
    ]


def _same_rows(csr: CSRGraph, graph) -> bool:
    expected = get_csr(graph)
    return np.array_equal(csr.indptr, expected.indptr) and np.array_equal(
        csr.indices, expected.indices
    )


@pytest.mark.parametrize("kwargs", [{}, {"edges_per_vertex": 2}])
def test_suite_ba_family_is_the_ba_csr(kernel, kwargs):
    built = suite._family_ba(2500, kwargs, 5)
    assert isinstance(built, CSRGraph)
    k = kwargs.get("edges_per_vertex", 3)
    assert _same_rows(built, barabasi_albert(2500, k, rng=5))


@pytest.mark.parametrize("lcc", [True, False])
def test_suite_er_family_is_the_gnm_csr(kernel, lcc):
    # Average degree 2: the LCC drops about a fifth of the vertices.
    built = suite._family_er(3000, {"avg_degree": 2.0, "lcc": lcc}, 11)
    assert isinstance(built, CSRGraph)
    graph = erdos_renyi_gnm(3000, 3000, rng=11)
    if lcc:
        graph, _ = largest_connected_component(graph)
        assert graph.num_vertices < 3000
    assert _same_rows(built, graph)


def test_ba_edges_draws_the_pinned_sequence(kernel):
    _, indptr_sha, indices_sha, version, next_draw = CASES["ba-k3"]
    ours, theirs = random.Random(SEED), random.Random(SEED)
    heads, tails = ba_edges(2500, 3, rng=ours)
    barabasi_albert(2500, 3, rng=theirs)
    assert ours.getstate() == theirs.getstate()
    assert ours.random() == next_draw
    csr = CSRGraph.from_edge_sequence(heads, tails, 2500)
    assert (_digest(csr.indptr), _digest(csr.indices), csr.num_edges) == (
        indptr_sha,
        indices_sha,
        version,
    )


def test_from_edge_sequence_rejects_overflowing_row_keys():
    # 2**62 vertices times 2E = 4 half-edges is 2**64 > 2**63: the
    # row keys cannot be formed, and the check runs before indptr (an
    # array of 2**62 + 1 int64) or any key buffer is allocated.
    heads = np.array([0, 1], dtype=np.int64)
    tails = np.array([1, 2], dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overflow the int64 row keys"):
            CSRGraph.from_edge_sequence(heads, tails, 2**62)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "build",
    [
        lambda: barabasi_albert(3000, 2, rng=SEED),
        # Hundreds of isolated vertices fill the degree-0 bin.
        lambda: erdos_renyi_gnm(3000, 1600, rng=SEED),
    ],
)
def test_exact_degree_truths_read_the_csr(build):
    graph = build()
    csr = get_csr(graph)
    # A degree_of label runs the per-vertex loop; without one the
    # truth counts the degree array with one bincount.
    assert true_degree_pmf(csr) == true_degree_pmf(graph)
    assert true_degree_pmf(graph) == true_degree_pmf(graph, graph.degree)
    assert true_degree_ccdf(csr) == true_degree_ccdf(graph)
    assert true_degree_ccdf(graph) == true_degree_ccdf(graph, graph.degree)
