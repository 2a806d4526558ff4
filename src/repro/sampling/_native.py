"""Build and load the native walker kernels (best effort).

``_kernels.c`` is compiled on first use with whatever C compiler the
host provides (``cc``/``gcc``/``clang``), cached under the user's
cache directory keyed by a hash of the source, and loaded through
:mod:`ctypes` — no build-time extension machinery, no new
dependencies.  Everything degrades gracefully: if there is no
compiler, the compile fails, or ``REPRO_NO_NATIVE`` is set, callers
get ``None`` and the engine falls back to the pure-Python kernels,
which implement the identical draw protocol (traces are bit-for-bit
the same either way — only the speed differs).

Signature contract: every kernel is declared once in
:data:`_DECLARATIONS` using the canonical type tokens of
:mod:`repro.sampling._cproto` and verified against the ``repro_*``
prototypes parsed out of ``_kernels.c`` *before* ``argtypes`` are
assigned.  A drifted declaration — an edit to one side that forgot the
other, or an out-of-tree build exporting a different arity — raises a
readable :class:`KernelSignatureError` naming the kernel and both
signatures instead of corrupting memory through a mis-declared foreign
call.  ``repro-lint`` rule RPL004 enforces the same agreement
statically in CI.

Thread contract: ``ctypes`` releases the GIL for the duration of
every foreign call, so kernel calls from concurrent threads overlap
on real cores.  That is only sound because the kernels are stateless
and reentrant — no static or global storage in ``_kernels.c``, all
inputs read-only except caller-owned walker and output buffers, and
every wrapper below allocates fresh output arrays per call.  Keep it
that way: the thread executor in :mod:`repro.sampling.sharded` depends
on it.  The one thing shared between calls is the graph's pair of
array pointers, bound once per :class:`~repro.graph.csr.CSRGraph` and
only ever read through.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling._cproto import parse_prototypes
from repro.sampling.fused import FusedBlock

_SOURCE = Path(__file__).with_name("_kernels.c")

_I64P = ctypes.POINTER(ctypes.c_int64)
_DP = ctypes.POINTER(ctypes.c_double)
_I64PP = ctypes.POINTER(_I64P)

#: Canonical signature token (see ``_cproto``) -> ctypes object.
_CTYPES: Dict[str, object] = {
    "void": None,
    "i64": ctypes.c_int64,
    "f64": ctypes.c_double,
    "i64*": _I64P,
    "f64*": _DP,
    "i64**": _I64PP,
}

#: The Python-side kernel declarations: ``name -> (restype, argtypes)``
#: in canonical tokens.  This table is the single source the ctypes
#: ``argtypes``/``restype`` assignments are derived from, and the one
#: RPL004 (and :func:`_check_declarations` at load time) diffs against
#: the C prototypes.
_DECLARATIONS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "repro_rw_steps_acc": (
        "i64",
        (
            "i64*", "i64*", "i64*", "i64", "i64", "i64", "f64*",
            "i64", "i64**", "i64**", "i64*", "i64*", "i64*",
        ),
    ),
    "repro_fs_steps_acc": (
        "i64",
        (
            "i64*", "i64*", "i64*", "i64", "i64", "i64", "i64", "f64*",
            "i64", "i64**", "i64**", "i64*", "i64*", "i64*", "i64*",
            "i64*",
        ),
    ),
    "repro_mh_steps_acc": (
        "i64",
        (
            "i64*", "i64*", "i64*", "i64", "i64", "f64*", "i64", "i64**",
            "i64**", "i64*", "i64*", "i64*", "i64*", "i64*",
        ),
    ),
    "repro_ba_attach": (
        "i64", ("i64*", "i64", "i64", "i64", "i64*", "i64*", "i64"),
    ),
    "repro_gnm_edges": (
        "i64", ("i64*", "i64", "i64", "i64", "i64*", "i64*", "i64*", "i64"),
    ),
}

#: tri-state: None = not attempted yet; False = unavailable;
#: ctypes.CDLL = loaded.
_LIB: Optional[ctypes.CDLL] = None
_ATTEMPTED = False
#: Serializes the first compile-and-load so concurrent threads cannot
#: race the lazy initialization (one compiles, the rest wait).
_LOAD_LOCK = threading.Lock()


class KernelSignatureError(RuntimeError):
    """A ctypes declaration disagrees with the ``_kernels.c`` prototype.

    Raised *before* any foreign call is made: calling a kernel through
    a wrong ``argtypes`` list would pass garbage pointers and corrupt
    memory, so a mismatch must fail loudly at load time.
    """


def _check_declarations(
    declarations: Dict[str, Tuple[str, Tuple[str, ...]]],
    source_text: str,
) -> None:
    """Verify every declared kernel against the C source's prototype.

    The dynamic mirror of repro-lint RPL004 — it runs on whatever
    source is actually about to be compiled and called, so out-of-tree
    kernel builds get the same protection as the committed tree.
    """
    prototypes = parse_prototypes(source_text, origin=str(_SOURCE))
    for name, (restype, argtypes) in declarations.items():
        prototype = prototypes.get(name)
        if prototype is None:
            raise KernelSignatureError(
                f"kernel {name!r} is declared in _native.py but"
                f" {_SOURCE.name} defines no such prototype"
            )
        declared = f"{restype} {name}({', '.join(argtypes)})"
        if len(argtypes) != len(prototype.argtypes):
            raise KernelSignatureError(
                f"kernel {name!r}: arity mismatch — _native.py declares"
                f" {len(argtypes)} argument(s) [{declared}] but"
                f" {_SOURCE.name}:{prototype.line} defines"
                f" {len(prototype.argtypes)} [{prototype.render()}]"
            )
        if restype != prototype.restype or argtypes != prototype.argtypes:
            raise KernelSignatureError(
                f"kernel {name!r}: type mismatch — _native.py declares"
                f" [{declared}] but {_SOURCE.name}:{prototype.line}"
                f" defines [{prototype.render()}]"
            )


def _declare(lib: ctypes.CDLL) -> None:
    """Assign verified ``restype``/``argtypes`` to every kernel."""
    for name, (restype, argtypes) in _DECLARATIONS.items():
        try:
            function = getattr(lib, name)
        except AttributeError as exc:
            raise KernelSignatureError(
                f"compiled kernel library exports no symbol {name!r};"
                " the loaded .so does not match _kernels.c"
            ) from exc
        function.restype = _CTYPES[restype]
        function.argtypes = [_CTYPES[token] for token in argtypes]


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _library_path(source_text: str) -> Path:
    digest = hashlib.sha256(source_text.encode("utf-8")).hexdigest()[:16]
    return _cache_dir() / f"kernels-{digest}.so"


def library_path() -> Path:
    """Where :func:`load` looks for (and compiles) the kernel library:
    the cache directory plus a name keyed by a hash of ``_kernels.c``.

    A library built elsewhere and placed here — a sanitizer build, say
    — is loaded as is.
    """
    return _library_path(_SOURCE.read_text(encoding="utf-8"))


def _compile_and_load() -> Optional[ctypes.CDLL]:
    compiler = (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        return None
    source_text = _SOURCE.read_text(encoding="utf-8")
    # Fail before compiling (and before any foreign call is possible)
    # if the Python-side declarations drifted from the C prototypes.
    _check_declarations(_DECLARATIONS, source_text)
    library = _library_path(source_text)
    directory = library.parent
    if not library.exists():
        directory.mkdir(parents=True, exist_ok=True)
        # Compile to a private temp name, then atomically rename, so
        # concurrent test workers never load a half-written object.
        descriptor, temp_name = tempfile.mkstemp(
            suffix=".so", dir=str(directory)
        )
        os.close(descriptor)
        try:
            subprocess.run(
                [
                    compiler,
                    "-O2",
                    "-shared",
                    "-fPIC",
                    "-o",
                    temp_name,
                    str(_SOURCE),
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(temp_name, library)
        finally:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
    lib = ctypes.CDLL(str(library))
    _declare(lib)
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, or ``None`` when native is unavailable.

    Compile/load failures degrade to the pure-Python fallback —
    except a :class:`KernelSignatureError`, which always propagates:
    a signature mismatch means the declarations in this module are
    wrong, and silently falling back would hide the defect from every
    native-capable host.
    """
    global _LIB, _ATTEMPTED
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    if not _ATTEMPTED:
        with _LOAD_LOCK:
            if not _ATTEMPTED:
                try:
                    _LIB = _compile_and_load()
                except KernelSignatureError:
                    _ATTEMPTED = True
                    raise
                except Exception:
                    _LIB = None
                _ATTEMPTED = True
    return _LIB


def available() -> bool:
    return load() is not None


def _lib() -> ctypes.CDLL:
    """The loaded library; raises instead of returning ``None``.

    The wrappers below are only reachable when a caller already chose
    the native path through :func:`available`, which read the switch
    and loaded the library, so this reuses that library instead of
    reading ``REPRO_NO_NATIVE`` again.  An unavailable library here is
    a programming error — fail with a readable message rather than an
    ``AttributeError`` on ``None``.
    """
    lib = _LIB if _ATTEMPTED else load()
    if lib is None:
        raise RuntimeError(
            "native kernels are unavailable (no compiler, failed"
            " compile, or REPRO_NO_NATIVE is set); use the pure-Python"
            " kernels instead"
        )
    return lib


def _graph_pointers(graph: CSRGraph) -> Tuple[Any, Any]:
    """``(indptr, indices)`` as kernel arguments, bound once per graph
    and kept in its ``_pointers`` slot (the arrays never change)."""
    if graph._pointers is None:
        graph._pointers = (
            graph.indptr.ctypes.data_as(_I64P),
            graph.indices.ctypes.data_as(_I64P),
        )
    return graph._pointers


def _i64(array: np.ndarray) -> "ctypes.Array[ctypes.c_int64]":
    """A fresh, writable int64 array as a kernel argument (no copy: a
    ctypes array over its buffer, which the ``i64*`` parameters accept
    and which is cheaper to build than ``array.ctypes.data_as``)."""
    return (ctypes.c_int64 * array.size).from_buffer(array)


def _f64(array: np.ndarray) -> "ctypes.Array[ctypes.c_double]":
    return (ctypes.c_double * array.size).from_buffer(array)


_OptPtr = Optional["ctypes.Array[Any]"]


def _i64_opt(array: Optional[np.ndarray]) -> _OptPtr:
    """Optional buffer: ``None`` becomes a NULL pointer."""
    return None if array is None else _i64(array)


def _count_pointers(arrays: Sequence[Optional[np.ndarray]]) -> _OptPtr:
    """One count array per replicate as an ``i64**`` argument: NULL
    slots where a block keeps no such count, NULL when none does."""
    if all(array is None for array in arrays):
        return None
    pointers = (_I64P * len(arrays))()
    for slot, array in enumerate(arrays):
        if array is not None:
            pointers[slot] = _i64(array)
    return pointers


def _block_args(
    blocks: Sequence[FusedBlock], steps: int
) -> Tuple[int, _OptPtr, _OptPtr, Optional[np.ndarray]]:
    """The batch's ``key_base, deg_counts, visit_counts`` kernel
    arguments and its edge-key buffer (``steps`` slots, replicate
    ``r`` owning the r-th equal share), or ``None`` when the blocks,
    which share their needs, keep no keys."""
    return (
        blocks[0].key_base,
        _count_pointers([block.deg_counts for block in blocks]),
        _count_pointers([block.visit_counts for block in blocks]),
        blocks[0].new_edge_buffer(steps),
    )


def _commit(
    blocks: Sequence[FusedBlock],
    keys: Optional[np.ndarray],
    filled: Sequence[int],
) -> None:
    """Hand replicate ``r``'s share of ``keys`` and its ``filled[r]``
    stat-bearing steps to ``blocks[r]``."""
    share = 0 if keys is None else keys.size // len(blocks)
    for r, (block, count) in enumerate(zip(blocks, filled)):
        row = None if keys is None else keys[r * share : (r + 1) * share]
        block.commit(row, int(count))


#: The same four arguments on the trace path: no block statistics.
_NO_BLOCK = (0, None, None, None)

#: A walk's step record, as the trace path returns it.
Record = Tuple[np.ndarray, ...]


def _records(outputs: Tuple[np.ndarray, ...], replicates: int) -> List[Record]:
    """Replicate ``r``'s rows of the batch's step-record buffers."""
    return [
        tuple(out[r] for out in outputs) for r in range(replicates)
    ]


def isolated(vertex: int) -> ValueError:
    """The error a walk step from a zero-degree vertex raises, on the
    native and the pure-Python kernel path alike."""
    return ValueError(f"cannot walk from isolated vertex {vertex}")


def rw_steps_acc(
    graph: CSRGraph,
    walkers: np.ndarray,
    uniforms: np.ndarray,
    steps: int,
    blocks: Optional[Sequence[FusedBlock]] = None,
) -> Optional[List[Record]]:
    """Native simple random walks of a batch; advances ``walkers`` in
    place.

    ``walkers`` is an ``(R, W)`` array, R replicates of W walkers, and
    ``uniforms`` its ``(R, W * s)`` rows of draws.  ``steps`` is the
    call's total, ``R * W`` equal shares ``s``: walker ``w`` of
    replicate ``r`` reads ``uniforms[r, w*s:(w+1)*s]`` and fills the
    same slice of the replicate's outputs.  Without ``blocks`` the
    kernel writes each replicate's step record ``(out_u, out_v)``;
    with one block per replicate it folds replicate ``r``'s steps into
    ``blocks[r]`` instead and returns ``None``.
    """
    lib = _lib()
    replicates, width = walkers.shape
    head = (
        *_graph_pointers(graph), _i64(walkers), walkers.size, width,
        steps // max(walkers.size, 1), _f64(uniforms),
    )
    if blocks is None:
        outputs = np.empty((2, replicates, steps // replicates), dtype=np.int64)
        status = lib.repro_rw_steps_acc(
            *head, *_NO_BLOCK, _i64(outputs[0]), _i64(outputs[1])
        )
    else:
        *args, keys = _block_args(blocks, steps)
        status = lib.repro_rw_steps_acc(
            *head, *args, _i64_opt(keys), None, None
        )
    if status < 0:
        raise isolated(int(walkers.flat[-1 - status]))
    if blocks is None:
        return _records(tuple(outputs), replicates)
    _commit(blocks, keys, [steps // replicates] * replicates)
    return None


def fs_steps_acc(
    graph: CSRGraph,
    frontier: np.ndarray,
    uniforms: np.ndarray,
    steps: int,
    degree_selection: bool,
    blocks: Optional[Sequence[FusedBlock]] = None,
) -> Optional[List[Record]]:
    """Native FS steps of a batch; walks ``frontier`` in place.

    ``frontier`` is an ``(R, m)`` array, one frontier per replicate,
    and ``steps`` the call's total, ``R`` equal shares.  Without
    ``blocks`` returns each replicate's step record ``(out_u, out_v,
    out_idx)``; with one block per replicate, folds replicate ``r``'s
    steps into ``blocks[r]`` and returns ``None``.  Degree selection
    hands the kernel ``m + 1`` Fenwick scratch entries per replicate,
    so each walker pick is O(log m).
    """
    lib = _lib()
    replicates, m = frontier.shape
    fenwick = (
        np.empty((replicates, m + 1), dtype=np.int64)
        if degree_selection
        else None
    )
    head = (
        *_graph_pointers(graph), _i64(frontier), replicates, m,
        steps // replicates, 1 if degree_selection else 0, _f64(uniforms),
    )
    if blocks is None:
        outputs = np.empty((3, replicates, steps // replicates), dtype=np.int64)
        status = lib.repro_fs_steps_acc(
            *head, *_NO_BLOCK, _i64_opt(fenwick),
            *(_i64(out) for out in outputs),
        )
    else:
        *args, keys = _block_args(blocks, steps)
        status = lib.repro_fs_steps_acc(
            *head, *args, _i64_opt(keys), _i64_opt(fenwick),
            None, None, None,
        )
    if status < 0 and degree_selection:
        raise ValueError("frontier reached a state with zero total degree")
    if status < 0:
        raise isolated(int(frontier.flat[-1 - status]))
    if blocks is None:
        return _records(tuple(outputs), replicates)
    _commit(blocks, keys, [steps // replicates] * replicates)
    return None


def mh_steps_acc(
    graph: CSRGraph,
    walkers: np.ndarray,
    uniforms: np.ndarray,
    steps: int,
    blocks: Optional[Sequence[FusedBlock]] = None,
) -> Optional[List[Record]]:
    """Native MH walks of a batch, one walker per replicate; advances
    ``walkers`` (length R) in place.

    ``steps`` is the call's total proposals, R equal shares.  Without
    ``blocks`` each replicate's record is ``(edge_u, edge_v,
    visited)``: its accepted edges and its position after every
    proposal.  With one block per replicate, replicate ``r``'s accepted
    proposals fold into ``blocks[r]`` instead (``block.steps`` grows by
    the accepted count) and the result is ``None``.
    """
    lib = _lib()
    replicates = walkers.size
    accepted = np.empty(replicates, dtype=np.int64)
    head = (
        *_graph_pointers(graph), _i64(walkers), replicates,
        steps // replicates, _f64(uniforms),
    )
    if blocks is None:
        outputs = np.empty((3, replicates, steps // replicates), dtype=np.int64)
        status = lib.repro_mh_steps_acc(
            *head, *_NO_BLOCK, _i64(accepted),
            *(_i64(out) for out in outputs),
        )
    else:
        *args, keys = _block_args(blocks, steps)
        status = lib.repro_mh_steps_acc(
            *head, *args, _i64_opt(keys), _i64(accepted), None, None, None,
        )
    if status < 0:
        raise isolated(int(walkers[-1 - status]))
    if blocks is not None:
        _commit(blocks, keys, accepted.tolist())
        return None
    return [
        (edge_u[:count], edge_v[:count], visited)
        for edge_u, edge_v, visited, count in zip(*outputs, accepted.tolist())
    ]


def ba_attach(
    words: np.ndarray, num_vertices: int, k: int, endpoints: np.ndarray,
    table: np.ndarray,
) -> int:
    """Native BA attachment over the generator words ``words``.

    Fills ``endpoints`` (``2 * k * (num_vertices - k)`` entries) as
    :func:`repro.generators.ba.barabasi_albert`'s loop would; ``table``
    holds a power-of-two set table followed by ``k`` spill entries.
    Returns the words consumed, or -1 when ``words`` ran out.
    """
    if endpoints.size != 2 * k * (num_vertices - k) or table.size <= k:
        raise ValueError("BA kernel buffers do not match the graph size")
    status = _lib().repro_ba_attach(
        _i64(words), words.size, num_vertices, k, _i64(endpoints),
        _i64(table), table.size - k,
    )
    if status < -1:
        raise RuntimeError(f"BA target set outgrew its {table.size - k} slots")
    return int(status)


def gnm_edges(
    words: np.ndarray, num_vertices: int, heads: np.ndarray,
    tails: np.ndarray, table: np.ndarray,
) -> int:
    """Native G(n, m) edge draws over the generator words ``words``.

    Fills ``heads``/``tails`` (``m`` entries each) as
    :func:`repro.generators.er.gnm_edges`'s loop would; ``table`` is
    the power-of-two key set (at least 2 slots, more than ``m``).
    Returns the words consumed, or -1 when ``words`` ran out.
    """
    slots = table.size
    if tails.size != heads.size or slots <= max(heads.size, 1) or slots & (slots - 1):
        raise ValueError("G(n, m) kernel buffers do not match the edge count")
    return int(
        _lib().repro_gnm_edges(
            _i64(words), words.size, num_vertices, heads.size, _i64(heads),
            _i64(tails), _i64(table), table.size,
        )
    )
