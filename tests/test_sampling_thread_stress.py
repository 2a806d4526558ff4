"""Thread-stress: 16 concurrent sessions over one shared CSRGraph.

The parity suites prove executors agree under tame scheduling; this
test is the hostile half of the contract.  Sixteen sessions of mixed
sampler families all hammer the *same* ``CSRGraph`` from a thread
pool for repeated rounds — maximal interleaving of kernel calls (the
GIL is released inside every native batch), RNG draws, and lazy
caches — and after every round each session's cumulative trace
fingerprint must equal the one a solo, single-threaded run of the
same seed produces.  Any shared mutable scratch (a module global, a
cache mutated non-atomically, hidden kernel state) shows up as a
fingerprint mismatch or a deadlock; a ``faulthandler`` watchdog turns
the deadlock case into a stack dump instead of a hung CI job.
"""

from __future__ import annotations

import faulthandler
import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    ShardedFrontierSampler,
    SingleRandomWalk,
)

SESSIONS = 16
ROUNDS = 4
CHUNK = 300
#: Generous wall-clock bound: the workload is ~small; a healthy run
#: finishes in seconds, so hitting this means a deadlock/livelock.
WATCHDOG_SECONDS = 300.0

#: Mixed sampler families, cycled across the 16 sessions.  The
#: ShardedFrontierSampler runs its shard tasks inline *inside* the
#: stress threads — exactly the path that would race if the inline
#: task runner still pinned module globals.
FACTORIES = (
    lambda: SingleRandomWalk(),
    lambda: MetropolisHastingsWalk(),
    lambda: MultipleRandomWalk(4),
    lambda: FrontierSampler(8),
    lambda: ShardedFrontierSampler(4, procs=1),
)


def _fingerprint(trace) -> str:
    digest = hashlib.sha256()
    for name in (
        "step_sources",
        "step_targets",
        "step_walkers",
        "visited_array",
        "step_times",
    ):
        part = getattr(trace, name, None)
        if part is None:
            continue
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _start_session(graph, index: int):
    sampler = FACTORIES[index % len(FACTORIES)]()
    return sampler.start(graph, rng=1000 + index)


def _advance_and_fingerprint(session) -> str:
    session.advance(CHUNK)
    return _fingerprint(session.trace())


def _close(session) -> None:
    closer = getattr(session, "close", None)
    if closer is not None:
        closer()


def test_concurrent_sessions_reproduce_solo_fingerprints():
    graph = get_csr(barabasi_albert(3000, 3, rng=7))

    # Solo reference: each session advanced round by round, serially,
    # in a single thread — the ground truth fingerprint per round.
    expected = []
    for index in range(SESSIONS):
        session = _start_session(graph, index)
        try:
            expected.append(
                [_advance_and_fingerprint(session) for _ in range(ROUNDS)]
            )
        finally:
            _close(session)

    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    sessions = []
    try:
        sessions = [
            _start_session(graph, index) for index in range(SESSIONS)
        ]
        with ThreadPoolExecutor(max_workers=SESSIONS) as pool:
            for round_index in range(ROUNDS):
                futures = [
                    pool.submit(_advance_and_fingerprint, session)
                    for session in sessions
                ]
                got = [future.result() for future in futures]
                for index in range(SESSIONS):
                    assert got[index] == expected[index][round_index], (
                        f"session {index} diverged from its solo run in"
                        f" round {round_index}"
                    )
    finally:
        faulthandler.cancel_dump_traceback_later()
        for session in sessions:
            _close(session)
