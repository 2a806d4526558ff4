"""Parse the ``repro_*`` kernel prototypes out of ``_kernels.c``.

The cross-language contract between ``_kernels.c`` and the ctypes
declarations in ``_native.py`` — same arity, same per-position types —
is enforced twice from this one parser:

- statically, by ``repro-lint`` rule **RPL004** (CI fails on drift);
- dynamically, by :func:`repro.sampling._native.load`, which verifies
  the declarations against the C source it is about to call before
  assigning ``argtypes`` — so an out-of-tree edit that updates one
  side but not the other raises a readable
  :class:`~repro.sampling._native.KernelSignatureError` instead of
  corrupting memory through a mis-declared foreign call.

Stdlib only (``re``); the grammar is deliberately tiny — flat C
prototypes over ``int64_t``/``double`` scalars and pointers, which is
all the kernels use, plus ``int64_t **`` for a batch's per-replicate
count arrays.  Types normalize to canonical tokens so both checkers
compare strings: ``"i64"``, ``"f64"``, ``"i64*"``, ``"f64*"``,
``"i64**"`` and ``"void"`` (return only).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

#: ``<ret> repro_<name>(<params>) {`` — prototypes of exported kernels.
#: DOTALL because parameter lists span lines in the real source.
_PROTOTYPE = re.compile(
    r"^\s*(?P<ret>[A-Za-z_][A-Za-z0-9_ ]*?[ *])\s*"
    r"(?P<name>repro_[A-Za-z0-9_]+)\s*\((?P<params>[^)]*)\)\s*\{",
    re.MULTILINE | re.DOTALL,
)

#: C type spelling -> canonical token.  ``const`` is stripped first;
#: whitespace is collapsed so ``int64_t *`` and ``int64_t*`` agree.
_C_TOKENS = {
    "void": "void",
    "int64_t": "i64",
    "double": "f64",
    "int64_t*": "i64*",
    "double*": "f64*",
    "int64_t**": "i64**",
}


class CPrototypeError(ValueError):
    """A kernel prototype uses a type outside the tiny grammar."""


@dataclass(frozen=True)
class CPrototype:
    """One exported kernel's C-side signature, in canonical tokens."""

    name: str
    restype: str
    argtypes: Tuple[str, ...]
    line: int

    def render(self) -> str:
        """Human-readable ``ret name(arg, ...)`` form for diagnostics."""
        return f"{self.restype} {self.name}({', '.join(self.argtypes)})"


def _canonical(spelling: str, context: str) -> str:
    collapsed = re.sub(r"\bconst\b", " ", spelling)
    collapsed = re.sub(r"\s+", " ", collapsed).strip()
    collapsed = collapsed.replace(" *", "*").replace("* ", "*")
    token = _C_TOKENS.get(collapsed)
    if token is None:
        raise CPrototypeError(
            f"{context}: unsupported C type {spelling.strip()!r}"
            f" (the kernel grammar knows {sorted(_C_TOKENS)})"
        )
    return token


def _split_parameter(declaration: str, context: str) -> str:
    """Canonical token of one ``<type> <identifier>`` parameter."""
    stripped = declaration.strip()
    if not stripped:
        raise CPrototypeError(f"{context}: empty parameter declaration")
    # The identifier is the trailing word; everything before it (plus
    # any '*' glued to the identifier) is the type.
    match = re.match(r"^(?P<type>.*?)\s*\*?\s*(?P<ident>[A-Za-z_]\w*)$",
                     stripped, re.DOTALL)
    if match is None:
        raise CPrototypeError(
            f"{context}: cannot parse parameter {stripped!r}"
        )
    type_part = stripped[: len(stripped) - len(match.group("ident"))]
    return _canonical(type_part, context)


def parse_prototypes(source: str, origin: str = "_kernels.c") -> Dict[str, CPrototype]:
    """All exported ``repro_*`` prototypes in ``source``, by name."""
    prototypes: Dict[str, CPrototype] = {}
    for match in _PROTOTYPE.finditer(source):
        name = match.group("name")
        line = source.count("\n", 0, match.start()) + 1
        context = f"{origin}:{line}: {name}"
        restype = _canonical(match.group("ret"), context)
        params = match.group("params").strip()
        if params in ("", "void"):
            argtypes: Tuple[str, ...] = ()
        else:
            argtypes = tuple(
                _split_parameter(part, context)
                for part in params.split(",")
            )
        prototypes[name] = CPrototype(name, restype, argtypes, line)
    if not prototypes:
        raise CPrototypeError(
            f"{origin}: no repro_* kernel prototypes found"
        )
    return prototypes
