"""Registry of thread-execution contracts, checked by ``repro-lint``.

PR 7's thread executor runs replicate and shard tasks concurrently
from a ``ThreadPoolExecutor`` while ctypes has released the GIL inside
the native kernels.  That is only sound for *thread-core* functions:
tasks that read the shared ``CSRGraph`` but never write module globals
and never call a helper that mutates cross-thread state.  The original
audit that established this was a one-time manual sweep; these two
decorators turn it into a permanent, machine-checked contract:

- :func:`thread_core` marks a function as one the thread executor may
  run concurrently.  ``repro-lint`` rule **RPL003** statically rejects
  any ``global`` statement inside it and any call to a function marked
  :func:`non_reentrant` — at lint time, not hours later when a torture
  suite happens to interleave the race.
- :func:`non_reentrant` flags a helper that is *not* safe to call from
  concurrent thread-core tasks (it mutates process-global state), with
  a mandatory reason string that shows up in the registry.

Both decorators are zero-cost at runtime — they only attach metadata —
and importable everywhere (``util`` depends on nothing).  The live
registry (:func:`is_thread_core` / :func:`non_reentrant_reason`) lets
tests assert that the audit sites actually adopted the markers.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

_F = TypeVar("_F", bound=Callable[..., object])

#: Attribute names the decorators attach (and the linter's fixtures
#: mirror).  Dunder-free so ``functools.wraps`` copies them through.
THREAD_CORE_ATTR = "_repro_thread_core"
NON_REENTRANT_ATTR = "_repro_non_reentrant"


def thread_core(fn: _F) -> _F:
    """Mark ``fn`` as a task the thread executor runs concurrently.

    Contract (statically enforced by repro-lint RPL003): the function
    must not write module globals (no ``global`` declarations) and must
    not call anything marked :func:`non_reentrant`.  Shared state comes
    in through arguments — e.g. the ``(csr, task)`` signature
    of the sharded worker cores.
    """
    setattr(fn, THREAD_CORE_ATTR, True)
    return fn


def non_reentrant(reason: str) -> Callable[[_F], _F]:
    """Mark a helper unsafe to call from concurrent thread-core tasks.

    ``reason`` is mandatory — it documents *what* global state the
    helper mutates (e.g. "writes the per-process worker globals" on
    the spawn pool's initializer) and is surfaced by
    :func:`non_reentrant_reason` and the RPL003 diagnostics.
    """
    if not isinstance(reason, str) or not reason.strip():
        raise ValueError("non_reentrant requires a non-empty reason string")

    def decorate(fn: _F) -> _F:
        setattr(fn, NON_REENTRANT_ATTR, reason)
        return fn

    return decorate


def is_thread_core(fn: object) -> bool:
    """Whether ``fn`` was registered with :func:`thread_core`."""
    return bool(getattr(fn, THREAD_CORE_ATTR, False))


def non_reentrant_reason(fn: object) -> Optional[str]:
    """The :func:`non_reentrant` reason for ``fn``, or ``None``."""
    reason = getattr(fn, NON_REENTRANT_ATTR, None)
    return reason if isinstance(reason, str) else None
