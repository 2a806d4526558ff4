"""Vertex labels as arrays over vertex ids.

A degree label is one int64 array indexed by vertex id, and a vertex
labeling one boolean membership array per wanted label.  Callables and
:class:`~repro.graph.labels.VertexLabeling` are still accepted, but are
read into arrays once, where an accumulator, plan or driver starts.
The contracts pinned here:

- a callable label and its array give identical estimates on list and
  csr traces;
- a degree-error experiment evaluates a callable label once per
  vertex, however many replicates and steps it runs;
- an array of the wrong length raises at construction, a negative
  label only when it is met;
- membership arrays give the pinned values of per-vertex labeling
  lookups, bit for bit;
- the arrays pickle with their accumulator, and a pickle of the
  earlier layouts fails readably.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets.registry import flickr_like
from repro.estimators import (
    StreamingDegreePMF,
    StreamingVertexDensity,
    degree_ccdf_from_trace,
    degree_pmf_from_trace,
    vertex_label_densities_from_trace,
)
from repro.experiments.degree_errors import degree_error_experiment
from repro.experiments.figures import _lcc_with_labels
from repro.generators.ba import barabasi_albert
from repro.graph.components import largest_connected_component
from repro.graph.labels import VertexLabeling, label_membership
from repro.sampling.frontier import FrontierSampler
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.multiple import MultipleRandomWalk
from repro.sampling.single import SingleRandomWalk

SAMPLERS = {
    "srw": lambda backend: SingleRandomWalk(backend=backend),
    "fs": lambda backend: FrontierSampler(5, backend=backend),
    "mhrw": lambda backend: MetropolisHastingsWalk(backend=backend),
}


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(200, 2, rng=3)


def label_of(v: int) -> int:
    return (7 * v) % 11


@pytest.mark.parametrize("backend", ["list", "csr"])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_callable_and_array_labels_agree(graph, sampler, backend):
    trace = SAMPLERS[sampler](backend).sample(graph, 1500, rng=11)
    array = np.array([label_of(v) for v in graph.vertices()])
    for estimator in (degree_pmf_from_trace, degree_ccdf_from_trace):
        by_array = estimator(graph, trace, array)
        assert by_array == estimator(graph, trace, label_of)
        assert all(type(k) is int for k in by_array)
        assert all(type(value) is float for value in by_array.values())


class CountingLabel:
    def __init__(self, graph):
        self.graph = graph
        self.calls = 0

    def __call__(self, v: int) -> int:
        self.calls += 1
        return self.graph.degree(v) // 2


@pytest.mark.parametrize("backend", [None, "csr"])
def test_experiment_evaluates_a_callable_once_per_vertex(graph, backend):
    label = CountingLabel(graph)
    samplers = {
        "SingleRW": SingleRandomWalk(),
        "MultipleRW": MultipleRandomWalk(4),
    }
    degree_error_experiment(
        graph, samplers, budget=300, runs=3, degree_of=label, backend=backend
    )
    assert label.calls == graph.num_vertices


class TestConstruction:
    def test_wrong_length_raises_at_construction(self, graph):
        short = np.zeros(graph.num_vertices - 1, dtype=np.int64)
        with pytest.raises(ValueError, match="one entry per vertex"):
            StreamingDegreePMF(graph, short)

    def test_a_callable_needs_the_graph(self):
        with pytest.raises(TypeError, match="needs the vertex count"):
            StreamingDegreePMF(None, label_of)

    def test_membership_of_the_wrong_length_raises(self, graph):
        with pytest.raises(ValueError, match="one entry per vertex"):
            StreamingVertexDensity(graph, {"a": np.ones(3, dtype=bool)}, ["a"])

    @pytest.mark.parametrize("backend", ["list", "csr"])
    @pytest.mark.parametrize("form", ["array", "callable"])
    def test_negative_label_raises_on_update(self, graph, backend, form):
        labels = np.array(
            [-1 if v % 2 else graph.degree(v) for v in graph.vertices()]
        )
        label = labels if form == "array" else labels.__getitem__
        accumulator = StreamingDegreePMF(graph, label)
        trace = SingleRandomWalk(backend=backend).sample(graph, 500, rng=1)
        with pytest.raises(ValueError, match="degree label -1 is negative"):
            accumulator.update(trace)

    def test_negative_label_raises_on_a_block(self, graph):
        labels = -np.ones(graph.num_vertices, dtype=np.int64)
        accumulator = StreamingDegreePMF(graph, labels)
        session = FrontierSampler(5, backend="csr").start(graph, rng=2)
        with pytest.raises(ValueError, match="degree label -1 is negative"):
            session.advance_into(accumulator, steps=50)


#: ``vertex_label_densities_from_trace`` values computed by per-vertex
#: lookups in a :class:`VertexLabeling`; membership arrays must give
#: them bit for bit.
DENSITY_PINS = {
    ("srw", "list"): {"third": 0.34001415881297387, "even": 0.5128427964085255, "missing": 0.0},
    ("srw", "csr"): {"third": 0.3546165940433491, "even": 0.49941263108178136, "missing": 0.0},
    ("fs", "list"): {"third": 0.3489037160041704, "even": 0.5091504393031229, "missing": 0.0},
    ("fs", "csr"): {"third": 0.34835053920789605, "even": 0.4936967355300947, "missing": 0.0},
    ("mhrw", "list"): {"third": 0.32811386730607195, "even": 0.45745737395670233, "missing": 0.0},
    ("mhrw", "csr"): {"third": 0.35683814101765177, "even": 0.4739930095356987, "missing": 0.0},
}


@pytest.mark.parametrize("sampler, backend", sorted(DENSITY_PINS))
def test_membership_arrays_keep_the_labeling_values(graph, sampler, backend):
    labeling = VertexLabeling()
    for v in graph.vertices():
        if v % 3 == 0:
            labeling.add(v, "third")
        if v % 2 == 0:
            labeling.add(v, "even")
    wanted = ["third", "even", "missing"]
    membership = label_membership(labeling, wanted, graph.num_vertices)
    trace = SAMPLERS[sampler](backend).sample(graph, 1500, rng=11)
    pinned = DENSITY_PINS[(sampler, backend)]
    for labels in (labeling, membership):
        estimate = vertex_label_densities_from_trace(graph, trace, labels, wanted)
        assert estimate == pinned
    # A label the mapping lacks marks no vertex.
    partial = {"even": membership["even"]}
    estimate = vertex_label_densities_from_trace(graph, trace, partial, wanted)
    assert estimate == {**pinned, "third": 0.0}


def test_dataset_label_arrays_are_its_degrees():
    dataset = flickr_like(0.05)
    digraph = dataset.digraph
    assert dataset.in_degrees.tolist() == digraph.in_degrees()
    assert dataset.out_degrees.tolist() == digraph.out_degrees()
    assert dataset.in_degrees is dataset.in_degrees  # built once
    for v in (0, 7, dataset.graph.num_vertices - 1):
        assert dataset.in_degree_of(v) == digraph.in_degree(v)
        assert type(dataset.out_degree_of(v)) is int


def test_lcc_labels_follow_the_relabeling():
    dataset = flickr_like(0.05)
    lcc, labels = _lcc_with_labels(dataset, dataset.in_degrees)
    _, old_to_new = largest_connected_component(dataset.graph)
    assert labels.size == lcc.num_vertices
    for old, new in old_to_new.items():
        assert labels[new] == dataset.in_degree_of(old)


@pytest.mark.parametrize(
    "make",
    [
        lambda graph: StreamingDegreePMF(graph, label_of),
        lambda graph: StreamingVertexDensity(
            graph, {"low": np.arange(graph.num_vertices) < 50}, ["low"]
        ),
    ],
    ids=["pmf", "density"],
)
def test_label_arrays_pickle_with_the_accumulator(graph, make):
    walk = SingleRandomWalk(backend="csr")
    first = walk.sample(graph, 300, rng=5)
    second = walk.sample(graph, 300, rng=6)
    straight = make(graph).update(first)
    resumed = pickle.loads(pickle.dumps(make(graph).update(first)))
    resumed.attach(graph)
    assert resumed.update(second).estimate() == straight.update(second).estimate()


@pytest.mark.parametrize(
    "cls, old",
    [
        (StreamingDegreePMF, {"graph": None, "degree_of": None, "_samples": 0}),
        (StreamingVertexDensity, {"graph": None, "labeling": VertexLabeling()}),
    ],
    ids=["pmf", "density"],
)
def test_an_older_layout_fails_readably(cls, old):
    """State pickled while labels were callables or label sets."""
    accumulator = cls.__new__(cls)
    with pytest.raises(ValueError, match="another version of the code"):
        accumulator.__setstate__(old)
