"""Pinned outputs of the public batch estimators.

Each case records what one batch estimator returns on a seeded walk:
the ``repr`` of the value, or the sha256 of that ``repr`` when it is
longer than a line (the degree PMFs and CCDFs).  Two seeded
Barabási–Albert graphs are walked by FS(10), SRW and MHRW.

- On list-backend traces every public batch estimator is pinned, with
  and without its optional arguments.
- On csr traces only the estimators whose array reduction evaluates
  the same float expressions in the same order as a one-shot estimate
  are pinned: clustering, both assortativities and the edge label
  densities.  So is the degree PMF/CCDF with ``degree_of``: its
  per-vertex visit-count reduction is the one a fused block takes, so
  these pins also fix the block path's value.  The other array
  reductions may re-associate float sums; the parity tests bound those
  to 1e-12 instead.

A change to how an estimator is computed must leave every value here
untouched.  ``python tests/test_estimators_batch_pins.py`` prints the
current values in the layout of :data:`PINS`.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.estimators import (
    assortativity_from_trace,
    degree_ccdf_from_trace,
    degree_pmf_from_trace,
    directed_assortativity_from_trace,
    edge_functional_from_trace,
    edge_label_densities_from_trace,
    edge_label_density_from_trace,
    estimate_num_edges,
    estimate_num_vertices,
    estimate_volume,
    global_clustering_from_trace,
    vertex_functional_from_trace,
    vertex_label_densities_from_trace,
    vertex_label_density_from_trace,
    weighted_vertex_sums,
)
from repro.generators.ba import barabasi_albert
from repro.graph.digraph import DiGraph
from repro.graph.labels import EdgeLabeling, VertexLabeling
from repro.sampling.frontier import FrontierSampler
from repro.sampling.metropolis import MetropolisHastingsWalk
from repro.sampling.single import SingleRandomWalk

#: name -> (vertices, BA seed, walk budget)
GRAPHS = {
    "ba300": (300, 301, 2_000),
    "ba2000": (2_000, 2_002, 4_000),
}
SAMPLERS = {
    "fs": lambda backend: FrontierSampler(10, backend=backend),
    "srw": lambda backend: SingleRandomWalk(backend=backend),
    "mhrw": lambda backend: MetropolisHastingsWalk(backend=backend),
}
WALK_SEED = 7


@lru_cache(maxsize=None)
def _inputs(graph_key: str):
    """The graph, its one-orientation digraph, and both labelings."""
    n, seed, _ = GRAPHS[graph_key]
    graph = barabasi_albert(n, 3, rng=seed)
    digraph = DiGraph(n)
    vertex_labels = VertexLabeling()
    edge_labels = EdgeLabeling()
    for v in graph.vertices():
        vertex_labels.add(v, "even" if v % 2 == 0 else "odd")
        if v % 5 == 0:
            vertex_labels.add(v, "fifth")
    for u, v in graph.edges():
        digraph.add_edge(u, v)
        edge_labels.add((u, v), "low" if u + v < n else "high")
    return graph, digraph, vertex_labels, edge_labels


@lru_cache(maxsize=None)
def _trace(graph_key: str, sampler_key: str, backend: str):
    budget = GRAPHS[graph_key][2]
    sampler = SAMPLERS[sampler_key](backend)
    return sampler.sample(_inputs(graph_key)[0], budget, rng=WALK_SEED)


def _g(v: int) -> float:
    return (v % 13) * 0.77


def _f(u: int, v: int) -> float:
    return abs(u - v) ** 0.5


def _member(u: int, v: int) -> bool:
    return (u + v) % 2 == 0


def _estimators(graph, digraph, vertex_labels, edge_labels):
    """Case name -> estimator of a trace."""
    many = ["even", "odd", "fifth", "missing"]
    return {
        "degree_pmf": lambda t: degree_pmf_from_trace(graph, t),
        "degree_ccdf": lambda t: degree_ccdf_from_trace(graph, t),
        "degree_pmf_of": lambda t: degree_pmf_from_trace(
            graph, t, digraph.out_degree
        ),
        "degree_ccdf_of": lambda t: degree_ccdf_from_trace(
            graph, t, digraph.out_degree
        ),
        "vertex_functional": lambda t: vertex_functional_from_trace(
            graph, t, _g
        ),
        "weighted_vertex_sums": lambda t: weighted_vertex_sums(graph, t, _g),
        "vertex_label_density": lambda t: vertex_label_density_from_trace(
            graph, t, vertex_labels, "fifth"
        ),
        "vertex_label_densities": lambda t: vertex_label_densities_from_trace(
            graph, t, vertex_labels, many
        ),
        "edge_label_density": lambda t: edge_label_density_from_trace(
            t, edge_labels, "low"
        ),
        "edge_label_densities": lambda t: edge_label_densities_from_trace(
            t, edge_labels, ["low", "high", "missing"]
        ),
        "edge_functional": lambda t: edge_functional_from_trace(t, _f),
        "edge_functional_member": lambda t: edge_functional_from_trace(
            t, _f, _member
        ),
        "num_vertices": lambda t: estimate_num_vertices(graph, t),
        "volume": lambda t: estimate_volume(graph, t),
        "num_edges": lambda t: estimate_num_edges(graph, t),
        "clustering": lambda t: global_clustering_from_trace(graph, t),
        "assortativity": lambda t: assortativity_from_trace(graph, t),
        "directed_assortativity": lambda t: directed_assortativity_from_trace(
            digraph, t
        ),
    }


#: The csr cases whose values must not move at all.
CSR_CASES = (
    "degree_pmf_of",
    "degree_ccdf_of",
    "edge_label_density",
    "edge_label_densities",
    "clustering",
    "assortativity",
    "directed_assortativity",
)


def _pin(value) -> str:
    text = repr(value)
    if len(text) <= 100:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _case_ids():
    for graph_key in GRAPHS:
        for sampler_key in SAMPLERS:
            for name in _estimators(None, None, None, None):
                yield f"{graph_key}/{sampler_key}/list/{name}"
            for name in CSR_CASES:
                yield f"{graph_key}/{sampler_key}/csr/{name}"


def current(case: str) -> str:
    graph_key, sampler_key, backend, name = case.split("/")
    estimator = _estimators(*_inputs(graph_key))[name]
    return _pin(estimator(_trace(graph_key, sampler_key, backend)))


PINS = {
    'ba300/fs/list/degree_pmf': 'sha256:721d142bc3cc3c1b1d9edb5338d853caae3409e9375ef7c9d1f377f7cfa9489b',
    'ba300/fs/list/degree_ccdf': 'sha256:2ed68eaf27a94bc11a03a75da14fed51784c953f64cdc22ca7c2326d4d03f1a3',
    'ba300/fs/list/degree_pmf_of': 'sha256:6c5532bc61a6b08cb9c4704a32b3d823c9fe0b39ca3a55635a2d62b219a28e84',
    'ba300/fs/list/degree_ccdf_of': 'sha256:efe29aad83d296ce4bbf17b4f32090102cc7a9f422316efb92f59d2b17c21f31',
    'ba300/fs/list/vertex_functional': '4.58002525881198',
    'ba300/fs/list/weighted_vertex_sums': '(1518.108697248042, 331.4629530322343)',
    'ba300/fs/list/vertex_label_density': '0.19659003200563419',
    'ba300/fs/list/vertex_label_densities': "{'even': 0.4927451501185939, 'odd': 0.50725484988141, 'fifth': 0.19659003200563419, 'missing': 0.0}",
    'ba300/fs/list/edge_label_density': '0.817910447761194',
    'ba300/fs/list/edge_label_densities': "{'low': 0.817910447761194, 'high': 0.18208955223880596, 'missing': 0.0}",
    'ba300/fs/list/edge_functional': '8.850699669726474',
    'ba300/fs/list/edge_functional_member': '9.236294927340111',
    'ba300/fs/list/num_vertices': '289.1656928783841',
    'ba300/fs/list/volume': '1736.0604663774404',
    'ba300/fs/list/num_edges': '868.0302331887202',
    'ba300/fs/list/clustering': '0.06231149830779933',
    'ba300/fs/list/assortativity': '-0.09012106321356059',
    'ba300/fs/list/directed_assortativity': '-0.19238877195690285',
    'ba300/fs/csr/degree_pmf_of': 'sha256:4ab5235ad647d089d47a1373d775984747c22df297759bd39cff57ebd87403f8',
    'ba300/fs/csr/degree_ccdf_of': 'sha256:b91d5f28157975d2404241f611b52772f065cabdfaba1b44316fe84d7380a979',
    'ba300/fs/csr/edge_label_density': '0.8015717092337917',
    'ba300/fs/csr/edge_label_densities': "{'low': 0.8015717092337917, 'high': 0.19842829076620824, 'missing': 0.0}",
    'ba300/fs/csr/clustering': '0.06484871987926746',
    'ba300/fs/csr/assortativity': '-0.09527676562935983',
    'ba300/fs/csr/directed_assortativity': '-0.09464658510478106',
    'ba300/srw/list/degree_pmf': 'sha256:41891dd23827ca7f75c7f400159bbe8d3809dba54e21c42f9c2bfc55c42b9f59',
    'ba300/srw/list/degree_ccdf': 'sha256:bd1477a1985f11b2cb898fb9ee68ffc9db0c20b8853c43df312ed2525fb9a83d',
    'ba300/srw/list/degree_pmf_of': 'sha256:bb8ca9e1d8714e1b186c268cb640586ac80451d4f6c284e8a7c9ef41003cc6d6',
    'ba300/srw/list/degree_ccdf_of': 'sha256:d57648acf04fc8c97a3bd1e37ce30e21b6a32e9d2c0f8909c5fbcd75aa766627',
    'ba300/srw/list/vertex_functional': '4.604724293213465',
    'ba300/srw/list/weighted_vertex_sums': '(1530.8987708366303, 332.46263475381136)',
    'ba300/srw/list/vertex_label_density': '0.21426859922614022',
    'ba300/srw/list/vertex_label_densities': 'sha256:6cbd53e49e7498a2bdd099518d47b12de2646dbf29bf8e7e1c46274f531d6748',
    'ba300/srw/list/edge_label_density': '0.8123138033763655',
    'ba300/srw/list/edge_label_densities': "{'low': 0.8123138033763655, 'high': 0.18768619662363456, 'missing': 0.0}",
    'ba300/srw/list/edge_functional': '8.73984511954786',
    'ba300/srw/list/edge_functional_member': '8.833334260257667',
    'ba300/srw/list/num_vertices': '286.9809534665718',
    'ba300/srw/list/volume': '1725.5320328086898',
    'ba300/srw/list/num_edges': '862.7660164043449',
    'ba300/srw/list/clustering': '0.06488531104387803',
    'ba300/srw/list/assortativity': '-0.07426211537755958',
    'ba300/srw/list/directed_assortativity': '-0.19994953598011442',
    'ba300/srw/csr/degree_pmf_of': 'sha256:935b5a7fbd71cc56b2a42259391aae8bf3e859205a62fae43ff8e970ce21d5a5',
    'ba300/srw/csr/degree_ccdf_of': 'sha256:c8ed8e42863a5ea9fa78ebb1d0cb479faeaa1a1d4b472e9acfc43ab6bceb8967',
    'ba300/srw/csr/edge_label_density': '0.7908366533864541',
    'ba300/srw/csr/edge_label_densities': "{'low': 0.7908366533864541, 'high': 0.20916334661354583, 'missing': 0.0}",
    'ba300/srw/csr/clustering': '0.06951207983605147',
    'ba300/srw/csr/assortativity': '-0.08380697917059819',
    'ba300/srw/csr/directed_assortativity': '0.0',
    'ba300/mhrw/list/degree_pmf': 'sha256:e2e03d68ad6640a2dc00d0fa5016db20f4ce893096d114172e347e604c2681f2',
    'ba300/mhrw/list/degree_ccdf': 'sha256:cda0f1971b996c3f18862e27ee7c3bcde0ffea130ee10b71028437474d443a2d',
    'ba300/mhrw/list/degree_pmf_of': 'sha256:d2db3d2629c2f8a5d5ee4e52c6ee350e6f46ef8503a2f8daf3074f9af4c67c63',
    'ba300/mhrw/list/degree_ccdf_of': 'sha256:eaf12578f90541e46fc08fa5cad54459b59ca9f728ca9b552ac95c2b8f083d50',
    'ba300/mhrw/list/vertex_functional': '4.623002163793703',
    'ba300/mhrw/list/weighted_vertex_sums': '(1089.8724493255909, 235.7499327733876)',
    'ba300/mhrw/list/vertex_label_density': '0.20157363500632713',
    'ba300/mhrw/list/vertex_label_densities': 'sha256:f073e54e476398f703e642c32b81a135035e1e9886ddbf2907ab1f68e7a8df29',
    'ba300/mhrw/list/edge_label_density': '0.6273830155979203',
    'ba300/mhrw/list/edge_label_densities': "{'low': 0.6273830155979203, 'high': 0.37261698440207974, 'missing': 0.0}",
    'ba300/mhrw/list/edge_functional': '8.721972318171682',
    'ba300/mhrw/list/edge_functional_member': '9.056952760716763',
    'ba300/mhrw/list/num_vertices': '346.64395719689287',
    'ba300/mhrw/list/volume': '1702.7097217451048',
    'ba300/mhrw/list/num_edges': '851.3548608725524',
    'ba300/mhrw/list/clustering': '0.047353197866225924',
    'ba300/mhrw/list/assortativity': '-0.03482178357583617',
    'ba300/mhrw/list/directed_assortativity': '-0.2109485565203176',
    'ba300/mhrw/csr/degree_pmf_of': 'sha256:89baa04f84d885ae47c410e0106d2a70cb4a6a3fc7593234466ea5e959d5733f',
    'ba300/mhrw/csr/degree_ccdf_of': 'sha256:5b3b920a31a8f97b3846650106a8a61a74ce474585805752f64d24c658624ddf',
    'ba300/mhrw/csr/edge_label_density': '0.6809917355371901',
    'ba300/mhrw/csr/edge_label_densities': "{'low': 0.6809917355371901, 'high': 0.31900826446280994, 'missing': 0.0}",
    'ba300/mhrw/csr/clustering': '0.038571503298332165',
    'ba300/mhrw/csr/assortativity': '-0.03099070254891555',
    'ba300/mhrw/csr/directed_assortativity': '0.0',
    'ba2000/fs/list/degree_pmf': 'sha256:c9dc673bd1dfec699d1d41455e442f1e87c358a4bc40b7d48032136c225f7986',
    'ba2000/fs/list/degree_ccdf': 'sha256:a15d36c863c13f3b228664c3ee3f7947374d0a568f811a1c56b548b422a8a235',
    'ba2000/fs/list/degree_pmf_of': 'sha256:699ed7efe0f8167dcee39479cc4e64a487ae85745464d3b51b52da216e16ad4d',
    'ba2000/fs/list/degree_ccdf_of': 'sha256:38dddd29b9cafade5e33aa4d60c287054609cc6a0f3b6beab7331bae926aab4c',
    'ba2000/fs/list/vertex_functional': '4.48786499740156',
    'ba2000/fs/list/weighted_vertex_sums': '(2973.5328272326988, 662.571808410982)',
    'ba2000/fs/list/vertex_label_density': '0.19514639873881023',
    'ba2000/fs/list/vertex_label_densities': 'sha256:507f43cfbae700671916af44d3ca9ee630950a6ff51b05b312041d119b041769',
    'ba2000/fs/list/edge_label_density': '0.7929113924050633',
    'ba2000/fs/list/edge_label_densities': "{'low': 0.7929113924050633, 'high': 0.20708860759493672, 'missing': 0.0}",
    'ba2000/fs/list/edge_functional': '23.332478556938064',
    'ba2000/fs/list/edge_functional_member': '23.616107863874337',
    'ba2000/fs/list/num_vertices': '1886.6046512763137',
    'ba2000/fs/list/volume': '11361.112053115425',
    'ba2000/fs/list/num_edges': '5680.556026557712',
    'ba2000/fs/list/clustering': '0.012555353230643681',
    'ba2000/fs/list/assortativity': '-0.033202843585153116',
    'ba2000/fs/list/directed_assortativity': '-0.09742066926529173',
    'ba2000/fs/csr/degree_pmf_of': 'sha256:db8bb3435b3cafff0bf2f091b5fb116d51e57e3573bb04210b9e409bb5ac437a',
    'ba2000/fs/csr/degree_ccdf_of': 'sha256:ea52f48b1404ff44641011ef8d0fbc3c437f32b2ca04ac36a2c4b05c5f4eb491',
    'ba2000/fs/csr/edge_label_density': '0.7821339950372208',
    'ba2000/fs/csr/edge_label_densities': "{'low': 0.7821339950372208, 'high': 0.21786600496277916, 'missing': 0.0}",
    'ba2000/fs/csr/clustering': '0.0173543648844407',
    'ba2000/fs/csr/assortativity': '-0.034346863165832416',
    'ba2000/fs/csr/directed_assortativity': '-0.09053169498626866',
    'ba2000/srw/list/degree_pmf': 'sha256:3b93ac4abfa4a09676249ff91d037d010bf61189fac1c601b05d64f6e5b6bf6e',
    'ba2000/srw/list/degree_ccdf': 'sha256:684a4c5428cd62496e47548e07bfd8756cdeb9a3c12574e9624466ee42862f0a',
    'ba2000/srw/list/degree_pmf_of': 'sha256:46d72c030d846ecbea3bf41b99ad903b00ae770759b06fcb99e84bbeece6fd31',
    'ba2000/srw/list/degree_ccdf_of': 'sha256:4fd57ebd3c99b6dfc9639b6d037efe54136bd087dcae127e6526d7e66ebe9cce',
    'ba2000/srw/list/vertex_functional': '4.6667530552854',
    'ba2000/srw/list/weighted_vertex_sums': '(3095.5714753337584, 663.3244653534481)',
    'ba2000/srw/list/vertex_label_density': '0.20404812280213344',
    'ba2000/srw/list/vertex_label_densities': 'sha256:aadb175a6f9218022c5a17c482b4efda27f42335ddf4408890eb71a76ea0e357',
    'ba2000/srw/list/edge_label_density': '0.8036072144288577',
    'ba2000/srw/list/edge_label_densities': "{'low': 0.8036072144288577, 'high': 0.1963927855711423, 'missing': 0.0}",
    'ba2000/srw/list/edge_functional': '23.271961728861278',
    'ba2000/srw/list/edge_functional_member': '23.49067958300506',
    'ba2000/srw/list/num_vertices': '1811.1589680786428',
    'ba2000/srw/list/volume': '10918.977199924628',
    'ba2000/srw/list/num_edges': '5459.488599962314',
    'ba2000/srw/list/clustering': '0.01705209871302153',
    'ba2000/srw/list/assortativity': '-0.00821395481355485',
    'ba2000/srw/list/directed_assortativity': '-0.09098946792502097',
    'ba2000/srw/csr/degree_pmf_of': 'sha256:1e43baa4e2e7df30b5c2ea741aa2d0e7d8f8d5ab8c18f5d835463b28426aa02f',
    'ba2000/srw/csr/degree_ccdf_of': 'sha256:d8dffbdc1fde8f73c3b9921b663a72f2b1dc4005e3e9444f9c582b852775c939',
    'ba2000/srw/csr/edge_label_density': '0.7879699248120301',
    'ba2000/srw/csr/edge_label_densities': "{'low': 0.7879699248120301, 'high': 0.21203007518796993, 'missing': 0.0}",
    'ba2000/srw/csr/clustering': '0.016778904494516394',
    'ba2000/srw/csr/assortativity': '-0.05772715637867048',
    'ba2000/srw/csr/directed_assortativity': '-0.06874969569192069',
    'ba2000/mhrw/list/degree_pmf': 'sha256:1e91c1b5cdaee2a382ee4c8579f41ac8fa75e444c488b014bdf59b944cc61974',
    'ba2000/mhrw/list/degree_ccdf': 'sha256:0747d27d7e55d4cb03d088170f63c02c67089a2cd2e5ab97883c8f7c23abadaf',
    'ba2000/mhrw/list/degree_pmf_of': 'sha256:99f885457bab266c2d1f2df0831ccfc5808eb7b9d1fbded50fd2ea0bcabe6c46',
    'ba2000/mhrw/list/degree_ccdf_of': 'sha256:fff3186cd55e41281dcdb9b3c8f550d396fd1632fe2155a56ad1306f1fed1333',
    'ba2000/mhrw/list/vertex_functional': '4.84284190439969',
    'ba2000/mhrw/list/weighted_vertex_sums': '(2229.9854598077754, 460.4704229105328)',
    'ba2000/mhrw/list/vertex_label_density': '0.20732064732893957',
    'ba2000/mhrw/list/vertex_label_densities': 'sha256:821bc362b0c31eb1a648c71be1327b937df296075ef5f04dcbe6d6170c3f1f44',
    'ba2000/mhrw/list/edge_label_density': '0.6291038154392191',
    'ba2000/mhrw/list/edge_label_densities': "{'low': 0.6291038154392191, 'high': 0.37089618456078083, 'missing': 0.0}",
    'ba2000/mhrw/list/edge_functional': '22.98174849775062',
    'ba2000/mhrw/list/edge_functional_member': '23.09580674007119',
    'ba2000/mhrw/list/num_vertices': '1487.1779544773372',
    'ba2000/mhrw/list/volume': '7240.970989761092',
    'ba2000/mhrw/list/num_edges': '3620.485494880546',
    'ba2000/mhrw/list/clustering': '0.010213405004810147',
    'ba2000/mhrw/list/assortativity': '0.0804156185073272',
    'ba2000/mhrw/list/directed_assortativity': '0.0',
    'ba2000/mhrw/csr/degree_pmf_of': 'sha256:7d10e019829db97587a9396539202a4e3874e2833ac418d1a069aa743e818123',
    'ba2000/mhrw/csr/degree_ccdf_of': 'sha256:641103515056ac334e6806e6d27e1c00d7a1478c2796a6c994cf416c03ea5ce1',
    'ba2000/mhrw/csr/edge_label_density': '0.5947598253275109',
    'ba2000/mhrw/csr/edge_label_densities': "{'low': 0.5947598253275109, 'high': 0.4052401746724891, 'missing': 0.0}",
    'ba2000/mhrw/csr/clustering': '0.007615844833720275',
    'ba2000/mhrw/csr/assortativity': '0.05769488177501323',
    'ba2000/mhrw/csr/directed_assortativity': '0.0',
}


@pytest.mark.parametrize("case", list(_case_ids()))
def test_batch_estimator_pin(case):
    assert current(case) == PINS[case]


if __name__ == "__main__":
    print("PINS = {")
    for case in _case_ids():
        print(f"    {case!r}: {current(case)!r},")
    print("}")
