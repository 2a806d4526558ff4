#!/usr/bin/env python3
"""Quickstart: sample a graph with Frontier Sampling and estimate its
degree distribution, assortativity and clustering coefficient.

Run:  python examples/quickstart.py [--backend {list,csr}] [--resume]

``--backend csr`` routes the walk through the vectorized CSR engine
(native C kernels when a compiler is available) and the estimators
through the array-native fast path — same estimates, different
execution substrate.

``--resume`` additionally demos the incremental session protocol:
walk, checkpoint to disk, resume, extend the budget, and stream the
degree estimate from trace increments — ending with proof that the
resumed trace is bit-identical to an uninterrupted run.
"""

import argparse
import os
import tempfile

from repro import FrontierSampler, SingleRandomWalk, barabasi_albert
from repro.estimators import (
    assortativity_from_trace,
    degree_ccdf_from_trace,
    global_clustering_from_trace,
)
from repro.metrics import (
    nmse,
    true_degree_ccdf,
    true_global_clustering,
    true_undirected_assortativity,
)


def resume_demo(graph, backend: str) -> None:
    """Checkpoint a session mid-walk, resume it, stream the estimate."""
    from repro.estimators import StreamingDegreePMF
    from repro.sampling import load_session

    sampler = FrontierSampler(dimension=256, backend=backend)
    session = sampler.start(graph, rng=7)
    pmf = StreamingDegreePMF(graph)
    session.advance_budget(2_000)
    pmf.update(session.take_trace())

    handle, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(handle)
    try:
        session.save(path)
        print(f"\ncheckpointed at {session.spent():.0f} budget units"
              f" ({os.path.getsize(path):,} bytes on disk, graph excluded)")
        resumed = load_session(path, graph)
        resumed.advance_budget(4_000)  # extend the budget, keep walking
        increment = resumed.take_trace()
        pmf.update(increment)
        print(f"resumed to {resumed.spent():.0f} budget units;"
              f" streamed CCDF(10) = {pmf.ccdf().get(10, 0.0):.4f}")

        # The anytime protocol is exact: the same walk run without the
        # disk round-trip produces the identical step sequence.
        uninterrupted = sampler.start(graph, rng=7)
        uninterrupted.advance_budget(2_000)
        uninterrupted.advance_budget(4_000)
        assert increment.edges[-3:] == uninterrupted.trace().edges[-3:]
        print(f"resume is bit-exact: last edges {increment.edges[-3:]}"
              " match an uninterrupted run")
    finally:
        os.unlink(path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=("list", "csr"),
        default="list",
        help="sampling backend: 'list' (interpreted, paper-literal)"
        " or 'csr' (vectorized arrays + array-native estimators)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="also demo session checkpoint/resume + streaming estimation",
    )
    args = parser.parse_args()

    # A scale-free graph with 20k vertices — the kind of topology the
    # paper's crawled social networks exhibit.
    graph = barabasi_albert(20_000, 3, rng=42)
    print(f"graph: {graph.num_vertices:,} vertices,"
          f" {graph.num_edges:,} edges,"
          f" average degree {graph.average_degree():.1f}")

    # Frontier Sampling: one coordinated process driving 256 walkers,
    # seeded at uniformly random vertices.  The budget counts vertex
    # queries: 256 seeds + 3,744 walk steps = 4,000 total.
    sampler = FrontierSampler(dimension=256, backend=args.backend)
    trace = sampler.sample(graph, budget=4_000, rng=7)
    print(f"\nsampled {trace.num_steps:,} edges"
          f" ({trace.spent():.0f} budget units spent)")

    # Degree distribution (CCDF), reweighted per eq. (7) of the paper.
    estimated = degree_ccdf_from_trace(graph, trace)
    truth = true_degree_ccdf(graph)
    print("\ndegree   true CCDF   estimated CCDF")
    for degree in (3, 5, 10, 30, 100):
        if truth.get(degree, 0) > 0:
            print(f"{degree:>6}   {truth[degree]:>9.4f}"
                  f"   {estimated.get(degree, 0.0):>14.4f}")

    # Scalar characteristics from the same trace.
    est_r = assortativity_from_trace(graph, trace)
    est_c = global_clustering_from_trace(graph, trace)
    print(f"\nassortativity:  true {true_undirected_assortativity(graph):+.4f}"
          f"  estimated {est_r:+.4f}")
    print(f"clustering:     true {true_global_clustering(graph):.4f}"
          f"   estimated {est_c:.4f}")

    # Compare against a single random walk with the same budget, over
    # a few replications.
    fs_estimates, rw_estimates = [], []
    true_gamma10 = truth[10]
    for seed in range(20):
        fs_trace = FrontierSampler(256, backend=args.backend).sample(
            graph, 4_000, rng=seed
        )
        rw_trace = SingleRandomWalk(backend=args.backend).sample(
            graph, 4_000, rng=seed
        )
        fs_estimates.append(
            degree_ccdf_from_trace(graph, fs_trace).get(10, 0.0)
        )
        rw_estimates.append(
            degree_ccdf_from_trace(graph, rw_trace).get(10, 0.0)
        )
    print(f"\nNMSE of CCDF(10) over 20 runs:"
          f"  FS {nmse(fs_estimates, true_gamma10):.3f}"
          f"  SingleRW {nmse(rw_estimates, true_gamma10):.3f}")

    if args.resume:
        resume_demo(graph, args.backend)


if __name__ == "__main__":
    main()
