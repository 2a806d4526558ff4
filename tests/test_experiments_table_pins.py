"""Pinned rows of Tables 2–4 on the csr sessions.

On the csr sessions a table's statistic reaches its row through the
engine's batched replicates, the block path or the trace path, and the
pool.  These pins fix what the rows hold, so a change to how that
statistic travels must leave every value here untouched:

- Table 2 and Table 3 at ``scale=0.05, runs=3, backend="csr"``: each
  row's truth and its per-method values;
- Table 4 at ``graph_size=150, num_walkers=10, mc_runs=300, procs=1``
  for root seeds 0, 1 and 2: each row's gaps.

Every value is a float compared with ``==``.
``python tests/test_experiments_table_pins.py`` prints the current
rows in the layout of :data:`PINS`.
"""

from __future__ import annotations

import pprint
from dataclasses import asdict
from typing import Any, Dict, List

import pytest

from repro.experiments import tables


def current(case: str) -> List[Dict[str, Any]]:
    """The rows ``case`` names, as plain dicts."""
    if case == "table2":
        result = tables.table2(scale=0.05, runs=3, backend="csr")
    elif case == "table3":
        result = tables.table3(scale=0.05, runs=3, backend="csr")
    else:
        seed = int(case.rsplit("seed", 1)[1])
        result = tables.table4(
            graph_size=150,
            num_walkers=10,
            mc_runs=300,
            procs=1,
            root_seed=seed,
        )
    return [asdict(row) for row in result.rows]


PINS: Dict[str, List[Dict[str, Any]]] = {
    "table2": [
        {
            "graph_name": "flickr-like",
            "true_r": 0.17662622238202552,
            "bias": {
                "FS": 0.13188264288897145,
                "MultipleRW": -0.5687353150592738,
                "SingleRW": 1.0439551304568462,
            },
            "error": {
                "FS": 0.1904729125493011,
                "MultipleRW": 0.5717166757687824,
                "SingleRW": 1.0561414892717282,
            },
        },
        {
            "graph_name": "livejournal-like",
            "true_r": 0.09172937138585915,
            "bias": {
                "FS": -0.05136736254285901,
                "MultipleRW": -0.9878412123114131,
                "SingleRW": 0.563829317127825,
            },
            "error": {
                "FS": 0.34196757238704784,
                "MultipleRW": 1.0951877458802202,
                "SingleRW": 0.6090060839942301,
            },
        },
        {
            "graph_name": "internet-rlt-like",
            "true_r": 0.05629487288216996,
            "bias": {
                "FS": 1.011052862161521,
                "MultipleRW": -0.9506109492935957,
                "SingleRW": 0.6910685454067695,
            },
            "error": {
                "FS": 1.0590865107831926,
                "MultipleRW": 1.0162980471456062,
                "SingleRW": 0.8227758503336657,
            },
        },
        {
            "graph_name": "youtube-like",
            "true_r": -0.16319072172735027,
            "bias": {
                "FS": 0.0513204790010614,
                "MultipleRW": 0.2178023014370538,
                "SingleRW": -0.3350870026213666,
            },
            "error": {
                "FS": 0.20704262183007402,
                "MultipleRW": 0.2710130736724131,
                "SingleRW": 0.3589731261009034,
            },
        },
        {
            "graph_name": "gab",
            "true_r": 0.015361228586568713,
            "bias": {
                "FS": 1.2842276944547102,
                "MultipleRW": -9.397069355883373,
                "SingleRW": 5.2152682944654,
            },
            "error": {
                "FS": 3.149866568436246,
                "MultipleRW": 9.548588914645668,
                "SingleRW": 5.3070731651906184,
            },
        },
    ],
    "table3": [
        {
            "graph_name": "flickr-like",
            "true_c": 0.13076390047183198,
            "mean_estimate": {
                "FS": 0.13503557405826308,
                "MultipleRW": 0.12544913557503795,
                "SingleRW": 0.13872544635742826,
            },
            "error": {
                "FS": 0.19422869850594324,
                "MultipleRW": 0.09378431378277015,
                "SingleRW": 0.09316976877506876,
            },
        },
        {
            "graph_name": "livejournal-like",
            "true_c": 0.12141311082254644,
            "mean_estimate": {
                "FS": 0.13165693646439713,
                "MultipleRW": 0.11872327317350057,
                "SingleRW": 0.1254436179693826,
            },
            "error": {
                "FS": 0.1074434599136044,
                "MultipleRW": 0.10722923491333952,
                "SingleRW": 0.06424588452606571,
            },
        },
    ],
    "table4-seed0": [
        {
            "graph_name": "internet-rlt-mini",
            "budget": 30,
            "gaps": {
                "FS": 5.199999999999999,
                "MRW": 5.199999999999999,
                "SRW": 5.199999999999999,
            },
        },
        {
            "graph_name": "youtube-mini",
            "budget": 20,
            "gaps": {
                "FS": 8.466666666666667,
                "MRW": 8.466666666666667,
                "SRW": 6.573333333333333,
            },
        },
        {
            "graph_name": "hepth-mini",
            "budget": 20,
            "gaps": {"FS": 2.96, "MRW": 3.62, "SRW": 3.62},
        },
    ],
    "table4-seed1": [
        {
            "graph_name": "internet-rlt-mini",
            "budget": 30,
            "gaps": {"FS": 5.199999999999999, "MRW": 3.96, "SRW": 3.96},
        },
        {
            "graph_name": "youtube-mini",
            "budget": 20,
            "gaps": {
                "FS": 5.693333333333334,
                "MRW": 7.366666666666667,
                "SRW": 5.693333333333334,
            },
        },
        {
            "graph_name": "hepth-mini",
            "budget": 20,
            "gaps": {
                "FS": 2.666666666666667,
                "MRW": 4.133333333333334,
                "SRW": 4.133333333333334,
            },
        },
    ],
    "table4-seed2": [
        {
            "graph_name": "internet-rlt-mini",
            "budget": 30,
            "gaps": {
                "FS": 5.199999999999999,
                "MRW": 5.199999999999999,
                "SRW": 3.96,
            },
        },
        {
            "graph_name": "youtube-mini",
            "budget": 20,
            "gaps": {
                "FS": 3.5600000000000005,
                "MRW": 6.6000000000000005,
                "SRW": 5.080000000000001,
            },
        },
        {
            "graph_name": "hepth-mini",
            "budget": 20,
            "gaps": {
                "FS": 3.8533333333333335,
                "MRW": 3.8533333333333335,
                "SRW": 2.6399999999999997,
            },
        },
    ],
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_table_rows_pinned(case):
    assert current(case) == PINS[case]


if __name__ == "__main__":
    print("PINS = ", end="")
    pprint.pprint({case: current(case) for case in sorted(PINS)}, sort_dicts=False)
