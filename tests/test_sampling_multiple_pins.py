"""Pinned MultipleRW outputs on the csr backend.

MultipleRW draws one block of uniforms per walker, walker by walker,
so its traces depend on how those blocks are laid out in the stream.
Each case records what a seeded run produces on both kernel paths:
the seeds, and the sha256 of ``step_sources``, ``step_targets`` and
``step_walkers`` (little-endian int64); on the block path, the sha256
of each checkpoint block's counts and edge keys.  A change to how the
walkers are advanced or how their kernel is called must leave every
value here untouched.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import tables
from repro.generators.ba import barabasi_albert
from repro.sampling import _native
from repro.sampling.fused import FusedNeeds
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.session import load_session, record_checkpoints

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
def graph():
    return barabasi_albert(60, 2, rng=5)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype="<i8").tobytes()
    ).hexdigest()


def _pinned(trace):
    return (
        trace.initial_vertices,
        _digest(trace.step_sources),
        _digest(trace.step_targets),
        _digest(trace.step_walkers),
        trace.num_steps,
    )


def _sampler() -> MultipleRandomWalk:
    return MultipleRandomWalk(4, backend="csr")


def test_one_shot_sample(kernel, graph):
    trace = _sampler().sample(graph, 200, rng=11)
    assert _pinned(trace) == (
        [7, 29, 36, 1],
        "b79150f73bf1a3067fb35d0293bc9b0a7c7039e631307a44c3a234cfb95b93bd",
        "5caed80a9ee28a26ab0d4a16418659da9328e4189efda0da9a57b86e42eea79b",
        "b63649746894aade9ce725c6d9f154bc9142f707b0babf3f8eaec8860c698228",
        196,
    )


def test_uneven_advance_schedule(kernel, graph):
    session = _sampler().start(graph, rng=12)
    for steps in (3, 0, 7, 1, 13):
        session.advance(steps)
    assert _pinned(session.trace()) == (
        [15, 56, 11, 10],
        "ab22f2867173705ebdd4f5f3c28ee1e7f86ca776f1c73129bea39f1780935079",
        "de8f05c8ddd7898f82b362927731a129f217cb5722ba3ceda3c1b181491b42d0",
        "55f5e62bf67fd5b72cee7a9e6c41a6f811059467ae5d80089e065c52e32caca4",
        96,
    )


def test_resume_at_chunk_boundary(kernel, graph, tmp_path):
    session = _sampler().start(graph, rng=13)
    session.advance(5)
    path = tmp_path / "multiple.ckpt"
    session.save(path)
    resumed = load_session(path, graph)
    resumed.advance(9)
    assert _pinned(resumed.trace()) == (
        [51, 51, 48, 15],
        "4ced378f98ec8d487cc180ce1ca48cd21f503d54496d37c4cc900c5ee5cc8a3b",
        "d6c675fa313e13e84f417387e3c79385db0bfab78744bfe2d4657a00671dc4ff",
        "7028b5ba17e3096061ea8b2145e5dc35f420a73a84256d61821bbf47c6861c9f",
        56,
    )


def test_block_path_checkpoints(kernel, graph):
    session = _sampler().start(graph, rng=14)
    needs = FusedNeeds(degree_counts=True, visit_counts=True, edge_keys=True)
    blocks, steps = record_checkpoints(session, "steps", [4, 9, 17], needs)
    assert steps == 17
    assert [
        (
            _digest(block.deg_counts),
            _digest(block.visit_counts),
            _digest(block.edge_key_array()),
            block.steps,
        )
        for block in blocks
    ] == [
        (
            "984b35f1c43b8e34ce85502e0d288ea9f3ae104dbd3ed143a1751f0fcb043cf3",
            "4b380a3090b116ff01103348df88b13dca15ee1b57cd0bb1591145d715724609",
            "3e003fe3c1d74c2affc45a9de1cdaa1c979e672b84af80f26f1ea001f1f73be3",
            16,
        ),
        (
            "fd5d3ef27ff09787b5b476bdff018948103ca7920b651ce0743ae35c8f25ef3a",
            "3d9c04ef893d34c122741f9def18dba2a06040992e87387d6b717daaf5784c46",
            "59b34df20a1aa34d34a06a10b36860deb5361173d9a2ff664adc4039b83064b1",
            20,
        ),
        (
            "92d77803906464393d7e384f88bcae25649f11f701cd911e36c1854b5a752a9d",
            "c4112680fd717c99d82a39d52f869f8f52e4fb4ad26629b751e8d528f394eb22",
            "59761c4da4a1c3f7de36f7d1bc58a1367270f0e83c8219d6342fb85035293510",
            32,
        ),
    ]


def test_table4_gaps(kernel):
    result = tables.table4(
        graph_size=150, num_walkers=10, mc_runs=50, procs=1
    )
    assert [
        (row.graph_name, {m: repr(gap) for m, gap in row.gaps.items()})
        for row in result.rows
    ] == [
        (
            "internet-rlt-mini",
            {
                "FS": "13.879999999999999",
                "MRW": "13.879999999999999",
                "SRW": "13.879999999999999",
            },
        ),
        ("youtube-mini", {"FS": "21.72", "MRW": "21.72", "SRW": "21.72"}),
        (
            "hepth-mini",
            {
                "FS": "3.2",
                "MRW": "4.6000000000000005",
                "SRW": "4.6000000000000005",
            },
        ),
    ]
