"""Builders for the scaled-down dataset stand-ins.

Scale 1.0 targets ~10^4-vertex graphs (minutes-per-figure on a laptop);
tests use scale ~0.1.  Structural targets, per original dataset:

- Flickr: heavy-tailed directed degrees, LCC ~ 95% of vertices, many
  small disconnected components, Zipf-popular groups (Section 6.5).
- LiveJournal: denser, LCC ~ 99.7%.
- YouTube: sparser (avg degree ~ 8.7), mildly disconnected.
- Internet RLT: traceroute-ish — preferential-attachment tree plus a
  few shortcut edges, average degree ~ 3.2.
- Hep-Th: small citation-like power-law graph (Table 4 only).
- GAB: the paper's own construction — two BA graphs with average
  degrees ~2 and ~10 joined by a single bridge edge (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional

import numpy as np

from repro.generators.ba import barabasi_albert
from repro.generators.composite import join_by_bridge
from repro.generators.configuration import (
    configuration_model,
    power_law_degree_sequence,
)
from repro.generators.social import SocialGraphSpec, social_network
from repro.graph.csr import CSRGraph, get_csr
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.util.backends import check_backend_name
from repro.graph.labels import VertexLabeling
from repro.graph.summary import GraphSummary, summarize
from repro.util.rng import ensure_rng


@dataclass
class Dataset:
    """A named graph plus the metadata experiments need."""

    name: str
    graph: Graph
    digraph: Optional[DiGraph]
    labels: VertexLabeling
    description: str
    #: CSR view of ``graph``; populated when loaded with
    #: ``backend="csr"`` (or on first ``sampling_graph("csr")`` call).
    csr: Optional[CSRGraph] = field(default=None, repr=False)

    def summary(self) -> GraphSummary:
        """Table 1 row for this dataset (symmetric-graph statistics)."""
        return summarize(self.graph, name=self.name)

    def sampling_graph(self, backend: str = "list"):
        """The graph representation samplers should walk.

        ``"csr"`` converts on demand through :func:`get_csr`, whose
        cache is tagged with the graph's mutation counter — repeated
        calls are free and a mutated graph is re-converted rather than
        served stale.
        """
        if check_backend_name(backend) == "list":
            return self.graph
        self.csr = get_csr(self.graph)
        return self.csr

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """In-degree label per vertex id (directed datasets; else degree)."""
        if self.digraph is not None:
            return np.asarray(self.digraph.in_degrees(), dtype=np.int64)
        return np.asarray(self.graph.degrees(), dtype=np.int64)

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Out-degree label per vertex id (directed datasets; else degree)."""
        if self.digraph is not None:
            return np.asarray(self.digraph.out_degrees(), dtype=np.int64)
        return np.asarray(self.graph.degrees(), dtype=np.int64)

    def in_degree_of(self, vertex: int) -> int:
        """In-degree label of one vertex (an entry of :attr:`in_degrees`)."""
        return int(self.in_degrees[vertex])

    def out_degree_of(self, vertex: int) -> int:
        """Out-degree label of one vertex (an entry of :attr:`out_degrees`)."""
        return int(self.out_degrees[vertex])


def _social_dataset(
    name: str,
    description: str,
    spec: SocialGraphSpec,
    seed: int,
    neighborhood_group_labels: bool = False,
) -> Dataset:
    digraph, labels = social_network(spec, rng=seed)
    symmetric = digraph.to_symmetric()
    if neighborhood_group_labels and spec.num_groups > 0:
        from repro.generators.social import neighborhood_groups

        # Topology-correlated groups (as in real social networks):
        # membership spreads over neighborhoods instead of being
        # sprinkled uniformly.
        labels = neighborhood_groups(
            symmetric,
            spec.num_groups,
            member_fraction=spec.member_fraction,
            zipf_exponent=spec.zipf_exponent,
            rng=seed + 1,
        )
    return Dataset(
        name=name,
        graph=symmetric,
        digraph=digraph,
        labels=labels,
        description=description,
    )


def flickr_like(scale: float = 1.0, seed: int = 7) -> Dataset:
    """Flickr stand-in: heavy tails, ~4% dust, Zipf groups."""
    n = max(600, int(12_000 * scale))
    spec = SocialGraphSpec(
        num_vertices=n,
        out_exponent=1.95,
        in_exponent=1.85,
        min_degree=2,
        dust_components=max(4, n // 200),
        dust_size=8,
        num_groups=max(20, min(200, n // 60)),
        member_fraction=0.21,
        zipf_exponent=1.15,
        num_communities=max(2, min(12, n // 900)),
        intercommunity_fraction=0.01,
        community_heterogeneity=2.0,
        assortative_swap_fraction=0.1,
    )
    return _social_dataset(
        "flickr-like",
        "Directed power-law social graph with small disconnected"
        " components and topology-correlated Zipf group labels"
        " (Flickr stand-in).",
        spec,
        seed,
        neighborhood_group_labels=True,
    )


def livejournal_like(scale: float = 1.0, seed: int = 11) -> Dataset:
    """LiveJournal stand-in: denser, almost fully connected."""
    n = max(800, int(15_000 * scale))
    spec = SocialGraphSpec(
        num_vertices=n,
        out_exponent=1.85,
        in_exponent=1.85,
        min_degree=2,
        dust_components=max(1, n // 2500),
        dust_size=6,
        num_groups=0,
        num_communities=max(2, min(10, n // 1200)),
        intercommunity_fraction=0.008,
        community_heterogeneity=1.5,
        assortative_swap_fraction=0.25,
    )
    return _social_dataset(
        "livejournal-like",
        "Dense directed power-law social graph, ~99% LCC"
        " (LiveJournal stand-in).",
        spec,
        seed,
    )


def youtube_like(scale: float = 1.0, seed: int = 13) -> Dataset:
    """YouTube stand-in: sparser, more dust."""
    n = max(600, int(10_000 * scale))
    spec = SocialGraphSpec(
        num_vertices=n,
        out_exponent=2.1,
        in_exponent=2.0,
        min_degree=1,
        dust_components=max(3, n // 400),
        dust_size=6,
        num_groups=0,
        assortative_swap_fraction=0.2,
        disassortative=True,
    )
    return _social_dataset(
        "youtube-like",
        "Sparse directed power-law social graph (YouTube stand-in).",
        spec,
        seed,
    )


def internet_rlt_like(scale: float = 1.0, seed: int = 17) -> Dataset:
    """Internet router-level stand-in: PA tree plus shortcuts.

    Traceroute-collected topologies are tree-heavy with average degree
    near 3; a preferential-attachment tree (BA with one edge per new
    vertex) plus ~60% extra random shortcut edges lands there.
    """
    n = max(400, int(4_000 * scale))
    rng = ensure_rng(seed)
    graph = barabasi_albert(n, 1, rng=rng)
    shortcuts = int(0.6 * n)
    added = 0
    attempts = 0
    while added < shortcuts and attempts < 50 * shortcuts:
        u = rng.randrange(n)
        v = rng.randrange(n)
        attempts += 1
        if u != v and graph.add_edge(u, v):
            added += 1
    from repro.generators.rewiring import assortative_rewire
    from repro.graph.components import connected_components

    # The paper's router-level graph is clearly assortative (r = 0.17).
    assortative_rewire(graph, int(0.6 * graph.num_edges), rng=rng)
    # Double-edge swaps can disconnect the graph; traceroute topologies
    # are connected by construction, so stitch any split components
    # back onto the LCC with single edges.
    components = connected_components(graph)
    for component in components[1:]:
        graph.add_edge(component[0], components[0][rng.randrange(len(components[0]))])
    return Dataset(
        name="internet-rlt-like",
        graph=graph,
        digraph=None,
        labels=VertexLabeling(),
        description="Preferential-attachment tree with random shortcut"
        " edges (router-level traceroute stand-in).",
    )


def hepth_like(scale: float = 1.0, seed: int = 19) -> Dataset:
    """Hep-Th citation stand-in: small loose power-law graph."""
    n = max(200, int(1_500 * scale))
    rng = ensure_rng(seed)
    degrees = power_law_degree_sequence(
        n, 2.4, min_degree=1, max_degree=max(10, n // 10), rng=rng
    )
    graph = configuration_model(degrees, rng=rng)
    return Dataset(
        name="hepth-like",
        graph=graph,
        digraph=None,
        labels=VertexLabeling(),
        description="Small loose power-law configuration-model graph"
        " (Hep-Th citation stand-in).",
    )


def gab(scale: float = 1.0, seed: int = 23) -> Dataset:
    """The paper's GAB graph: BA(avg deg ~2) + BA(avg deg ~10), one
    bridge edge between their minimum-degree vertices."""
    n = max(250, int(2_500 * scale))
    rng = ensure_rng(seed)
    sparse = barabasi_albert(n, 1, rng=rng)
    dense = barabasi_albert(n, 5, rng=rng)
    graph = join_by_bridge(sparse, dense)
    return Dataset(
        name="gab",
        graph=graph,
        digraph=None,
        labels=VertexLabeling(),
        description="Two Barabasi-Albert graphs (average degrees ~2 and"
        " ~10) joined by a single edge — the paper's loosely connected"
        " stress test.",
    )


DatasetBuilder = Callable[..., Dataset]

DATASET_BUILDERS: Dict[str, DatasetBuilder] = {
    "flickr-like": flickr_like,
    "livejournal-like": livejournal_like,
    "youtube-like": youtube_like,
    "internet-rlt-like": internet_rlt_like,
    "hepth-like": hepth_like,
    "gab": gab,
}


def load(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    backend: str = "list",
) -> Dataset:
    """Build a dataset by registry name.

    ``seed`` overrides the builder's fixed default, which otherwise
    makes every load of the same ``(name, scale)`` identical.
    ``backend="csr"`` eagerly attaches the CSR view (one conversion,
    shared by every sampler run against the dataset).
    """
    if name not in DATASET_BUILDERS:
        raise KeyError(
            f"unknown dataset {name!r}; available:"
            f" {sorted(DATASET_BUILDERS)}"
        )
    check_backend_name(backend)
    builder = DATASET_BUILDERS[name]
    dataset = (
        builder(scale=scale)
        if seed is None
        else builder(scale=scale, seed=seed)
    )
    if backend == "csr":
        dataset.sampling_graph("csr")
    return dataset
