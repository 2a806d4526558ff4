#!/usr/bin/env python3
"""Scenario: characterize an online social network you can only crawl.

This is the paper's motivating workload (Sections 1 and 6): a Flickr-like
service exposes, per queried user, their in/out links and group
memberships.  Queries are budgeted.  We estimate:

- the in-degree distribution's CCDF (the plot of choice for degree
  distributions),
- the density of the most popular special-interest groups,
- the graph's assortativity,

with three crawl strategies under the *same* budget, and score each
against ground truth (which we, unlike the crawler, can compute — the
network is synthetic).

Run:  python examples/crawl_social_network.py
"""

from repro.datasets import flickr_like
from repro.estimators import (
    assortativity_from_trace,
    degree_ccdf_from_trace,
    vertex_label_densities_from_trace,
)
from repro.graph.labels import label_membership
from repro.metrics import (
    nmse,
    true_degree_ccdf,
    true_group_densities,
    true_undirected_assortativity,
)
from repro.sampling import FrontierSampler, MultipleRandomWalk, SingleRandomWalk
from repro.util import child_rng


def main() -> None:
    dataset = flickr_like(scale=0.5)
    graph = dataset.graph
    summary = dataset.summary()
    print(summary.header())
    print(summary.as_row())

    budget = graph.num_vertices / 5
    dimension = 100
    runs = 30
    strategies = {
        "FS": FrontierSampler(dimension),
        "SingleRW": SingleRandomWalk(),
        "MultipleRW": MultipleRandomWalk(dimension),
    }

    # Ground truth (available only because the network is synthetic).
    truth_ccdf = true_degree_ccdf(graph, dataset.in_degrees)
    groups = sorted(
        dataset.labels.all_labels(),
        key=lambda g: -dataset.labels.count_with_label(g),
    )[:5]
    truth_groups = true_group_densities(graph, dataset.labels, groups)
    # One membership array per group, read once and shared by every crawl.
    members = label_membership(dataset.labels, groups, graph.num_vertices)
    truth_r = true_undirected_assortativity(graph)

    print(f"\nbudget = {budget:.0f} queries,"
          f" {runs} independent crawls per strategy\n")
    header = (
        f"{'strategy':<12} {'CCDF(10) NMSE':>14} {'top-group NMSE':>15}"
        f" {'assort. NMSE':>13}"
    )
    print(header)
    print("-" * len(header))
    for name, sampler in strategies.items():
        ccdf_estimates, group_estimates, r_estimates = [], [], []
        for run in range(runs):
            trace = sampler.sample(graph, budget, child_rng(99, run))
            ccdf_estimates.append(
                degree_ccdf_from_trace(
                    graph, trace, dataset.in_degrees
                ).get(10, 0.0)
            )
            group_estimates.append(
                vertex_label_densities_from_trace(
                    graph, trace, members, groups
                )[groups[0]]
            )
            r_estimates.append(assortativity_from_trace(graph, trace))
        print(
            f"{name:<12}"
            f" {nmse(ccdf_estimates, truth_ccdf[10]):>14.3f}"
            f" {nmse(group_estimates, truth_groups[groups[0]]):>15.3f}"
            f" {nmse(r_estimates, truth_r):>13.3f}"
        )

    print(
        "\nFS should post the smallest errors: its uniformly seeded"
        "\nfrontier starts near the walk's steady state, while the"
        "\nindependent-walker baselines pay for their transient"
        " (Theorem 5.4)."
    )


if __name__ == "__main__":
    main()
