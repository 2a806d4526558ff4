"""Vertex and edge label stores (Section 2 of the paper).

A label can be anything hashable — a degree, a group id, a hometown.
Each vertex/edge carries a *set* of labels; unlabeled items simply have
an empty set.  The estimators only ever ask two questions: "does this
vertex/edge carry label ``l``?" and "does it carry any label at all?",
so the store is a thin mapping with those operations made explicit.
The vertex estimators read them as arrays over vertex ids, built once.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

Label = Hashable
Edge = Tuple[int, int]
#: A degree label: an int array indexed by vertex id, or a callable.
VertexLabel = Union[np.ndarray, Sequence[int], Callable[[int], int]]


def _per_vertex(array: np.ndarray, num_vertices: Optional[int], what: str):
    if array.ndim != 1 or num_vertices not in (None, array.size):
        raise ValueError(
            f"{what} needs one entry per vertex ({num_vertices}),"
            f" got shape {array.shape}"
        )
    return array


def vertex_label_array(
    label: Optional[VertexLabel], num_vertices: Optional[int]
) -> Optional[np.ndarray]:
    """``label`` as an int64 array indexed by vertex id.

    A callable is evaluated once per vertex, in id order, so it needs
    ``num_vertices``.  An array must hold one entry per vertex (any
    number when ``num_vertices`` is ``None``); an int64 array is
    returned as is.  ``None`` (no relabeling: the walking degree) stays
    ``None``.
    """
    if label is None:
        return None
    if callable(label):
        if num_vertices is None:
            raise TypeError("a callable label needs the vertex count")
        values = (label(v) for v in range(num_vertices))
        return np.fromiter(values, dtype=np.int64, count=num_vertices)
    array = np.asarray(label, dtype=np.int64)
    return _per_vertex(array, num_vertices, "a vertex label array")


class VertexLabeling:
    """Mapping from vertex id to its set of labels."""

    def __init__(self):
        self._labels: Dict[int, Set[Label]] = {}

    def add(self, vertex: int, label: Label) -> None:
        """Attach ``label`` to ``vertex``."""
        self._labels.setdefault(vertex, set()).add(label)

    def add_many(self, vertex: int, labels: Iterable[Label]) -> None:
        for label in labels:
            self.add(vertex, label)

    def labels_of(self, vertex: int) -> Set[Label]:
        """Labels of ``vertex`` (empty set if unlabeled)."""
        return self._labels.get(vertex, set())

    def has_label(self, vertex: int, label: Label) -> bool:
        return label in self._labels.get(vertex, ())

    def is_labeled(self, vertex: int) -> bool:
        return bool(self._labels.get(vertex))

    def labeled_vertices(self) -> Iterator[int]:
        """Vertices carrying at least one label."""
        return (v for v, labels in self._labels.items() if labels)

    def all_labels(self) -> Set[Label]:
        """Union of all label sets."""
        out: Set[Label] = set()
        for labels in self._labels.values():
            out |= labels
        return out

    def count_with_label(self, label: Label) -> int:
        """Number of vertices carrying ``label``."""
        return sum(1 for labels in self._labels.values() if label in labels)

    def __len__(self) -> int:
        return sum(1 for labels in self._labels.values() if labels)


class EdgeLabeling:
    """Mapping from a *directed* edge ``(u, v)`` to its label set.

    Directed keys let us label only the orientations that exist in the
    original directed graph ``G_d`` — exactly what the assortativity
    estimator requires (its ``E*`` equals ``E_d``).
    """

    def __init__(self):
        self._labels: Dict[Edge, Set[Label]] = {}

    def add(self, edge: Edge, label: Label) -> None:
        self._labels.setdefault(edge, set()).add(label)

    def add_many(self, edge: Edge, labels: Iterable[Label]) -> None:
        for label in labels:
            self.add(edge, label)

    def labels_of(self, edge: Edge) -> Set[Label]:
        return self._labels.get(edge, set())

    def has_label(self, edge: Edge, label: Label) -> bool:
        return label in self._labels.get(edge, ())

    def is_labeled(self, edge: Edge) -> bool:
        return bool(self._labels.get(edge))

    def labeled_edges(self) -> Iterator[Edge]:
        return (e for e, labels in self._labels.items() if labels)

    def all_labels(self) -> Set[Label]:
        out: Set[Label] = set()
        for labels in self._labels.values():
            out |= labels
        return out

    def count_with_label(self, label: Label) -> int:
        return sum(1 for labels in self._labels.values() if label in labels)

    def __len__(self) -> int:
        return sum(1 for labels in self._labels.values() if labels)


def label_membership(
    labeling: Union[VertexLabeling, Mapping[Label, np.ndarray]],
    labels: Iterable[Label],
    num_vertices: int,
) -> Dict[Label, np.ndarray]:
    """A boolean array over vertex ids per wanted label, marking the
    vertices that carry it.

    ``labeling`` is a :class:`VertexLabeling`, read once over its
    labeled vertices, or a mapping from label to such an array, used as
    is; a label the mapping lacks marks no vertex.
    """
    absent = np.zeros(num_vertices, dtype=bool)
    if not isinstance(labeling, VertexLabeling):
        return {
            label: _per_vertex(
                np.asarray(labeling.get(label, absent), dtype=bool),
                num_vertices,
                f"the membership array of {label!r}",
            )
            for label in labels
        }
    members = {label: absent.copy() for label in labels}
    for v, carried in labeling._labels.items():
        for label in carried:
            member = members.get(label)
            if member is not None:
                member[v] = True
    return members
