"""Query and result types of the threshold engine, and their records.

A query crosses the door and the wire as a *record*, one JSON key per
dataclass field: the dataclass is its schema.  :func:`to_record` writes
it and :func:`parse` reads it back, checking each value by its field's
annotation (:data:`READERS`), so a bad record fails alike everywhere:
with one :class:`BadRequestError` naming what is wrong.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field as dataclass_field, fields
from typing import Any, Callable, Mapping, TypeVar

import numpy as np

from repro.costmodel import CostLedger
from repro.fields.finite_difference import fd_coefficients
from repro.grid import Box
from repro.morton import MortonRange, decode_array

_Q = TypeVar("_Q")


class BadRequestError(ValueError):
    """A request record the engine refuses.  The door answers it
    ``bad_request``; a node sends it back as a typed ERROR."""


def _checked(value: Any, *types: type) -> Any:
    """``value`` if its type is one of ``types`` (so ``True`` is no int)."""
    if type(value) in types:
        return value
    raise TypeError


def _box(corners: Any) -> Box:
    if len(_checked(corners, list, tuple)) != 6:
        raise ValueError("box must be [xl, yl, zl, xu, yu, zu]")
    return Box.from_corners([_checked(corner, int) for corner in corners])


def _range(pair: Any) -> MortonRange:
    start, stop = _checked(pair, list)
    return MortonRange(_checked(start, int), _checked(stop, int))


def _number(value: Any) -> float:
    return float(_checked(value, int, float))  # OverflowError past a double


#: How a record value is read, by the annotation of the field it fills.
READERS: Mapping[str, Callable[[Any], Any]] = {
    "str": lambda value: _checked(value, str),
    "int": lambda value: _checked(value, int),
    "int | None": lambda value: None if value is None else _checked(value, int),
    "bool": lambda value: _checked(value, bool),
    "float": _number,
    "list": lambda value: _checked(value, list),
    "tuple[float, ...]": lambda value: tuple(map(_number, _checked(value, list, tuple))),
    "Box | None": lambda value: None if value is None else _box(value),
    "list[Box]": lambda value: [_box(corners) for corners in _checked(value, list)],
    "list[MortonRange]": lambda value: [_range(pair) for pair in _checked(value, list)],
}


def read_field(
    record: Mapping[str, Any], name: str, annotation: str, default: Any = MISSING
) -> Any:
    """``record[name]`` read as ``annotation``, ``default`` if absent."""
    if name not in record:
        if default is MISSING:
            raise BadRequestError(f"missing parameter {name!r}")
        return default
    try:
        return READERS[annotation](record[name])
    except TypeError:
        raise BadRequestError(f"parameter {name!r} has the wrong type") from None
    except (ValueError, OverflowError) as error:
        raise BadRequestError(f"parameter {name!r}: {error}") from None


def parse(cls: type[_Q], record: Any) -> _Q:
    """The ``cls`` a record describes (other keys are ignored); what
    the dataclass refuses is a :class:`BadRequestError` too."""
    if not isinstance(record, dict):
        raise BadRequestError(f"a {cls.__name__} record must be an object")
    schema: Any = cls
    values = {
        spec.name: read_field(record, spec.name, str(spec.type), spec.default)
        for spec in fields(schema)
    }
    try:
        return schema(**values)
    except ValueError as error:
        raise BadRequestError(str(error)) from None


def to_record(query: Any) -> dict[str, Any]:
    """A query dataclass as the JSON-able record :func:`parse` reads."""
    return {spec.name: _plain(getattr(query, spec.name)) for spec in fields(query)}


def _plain(value: Any) -> Any:
    if isinstance(value, Box):
        return list(value.as_corners())
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class ThresholdQuery:
    """Find all locations where a field's norm is at or above a threshold.

    Attributes:
        dataset: dataset name (``"mhd"`` etc.).
        field: derived or raw field name from the field registry.
        timestep: timestep to examine.
        threshold: the cut value; points with ``norm >= threshold`` match.
        box: spatial region, or ``None`` for the entire timestep.
        fd_order: finite-difference order for differential kernels.
    """

    dataset: str
    field: str
    timestep: int
    threshold: float
    box: Box | None = None
    fd_order: int = 4

    def __post_init__(self) -> None:
        fd_coefficients(self.fd_order)
        if self.timestep < 0:
            raise ValueError("timestep must be non-negative")
        if not 0 <= self.threshold < np.inf:  # NaN fails both comparisons
            raise ValueError(
                "threshold must be finite and non-negative (norms are non-negative)"
            )


@dataclass
class ThresholdResult:
    """Points above threshold, with the query's simulated-time ledger.

    ``zindexes`` are Morton codes of matching grid points, sorted
    ascending; ``values`` are the field norms at those points, aligned
    with ``zindexes``.
    """

    zindexes: np.ndarray
    values: np.ndarray
    ledger: CostLedger
    cache_hits: int = 0
    nodes: int = 0
    #: Trace id assigned by the mediator; keys ``GET /trace/<query_id>``.
    query_id: str | None = None

    def __post_init__(self) -> None:
        if len(self.zindexes) != len(self.values):
            raise ValueError("zindexes and values must align")

    def __len__(self) -> int:
        return len(self.zindexes)

    def coordinates(self) -> np.ndarray:
        """Matching grid points as an ``(n, 3)`` integer array."""
        x, y, z = decode_array(self.zindexes)
        return np.stack([x, y, z], axis=1).astype(np.int64)

    @property
    def elapsed(self) -> float:
        """Total simulated seconds of the query."""
        return self.ledger.total


@dataclass
class RenderedThresholdResult:
    """A threshold answer whose nodes rendered its points as JSON.

    ``fragments`` are the non-empty node parts'
    :func:`~repro.core.pointset.points_json`, in curve order: joined
    with ``b", "`` and bracketed, they are the answer's point list.
    """

    count: int
    fragments: "list[bytes | memoryview]"
    ledger: CostLedger
    cache_hits: int
    query_id: str

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class PdfQuery:
    """Histogram of a field's norm over an entire timestep (paper Fig. 2)."""

    dataset: str
    field: str
    timestep: int
    bin_edges: tuple[float, ...]
    fd_order: int = 4

    def __post_init__(self) -> None:
        fd_coefficients(self.fd_order)
        edges = tuple(float(e) for e in self.bin_edges)
        if len(edges) < 2 or list(edges) != sorted(edges):
            raise ValueError("bin_edges must be at least two ascending values")
        object.__setattr__(self, "bin_edges", edges)


@dataclass
class PdfResult:
    """Per-bin counts; the final bin is open-ended above the last edge."""

    counts: np.ndarray
    bin_edges: tuple[float, ...]
    ledger: CostLedger
    query_id: str | None = None

    @property
    def total_points(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class TopKQuery:
    """The k grid locations with the largest field norm in a timestep."""

    dataset: str
    field: str
    timestep: int
    k: int
    fd_order: int = 4

    def __post_init__(self) -> None:
        fd_coefficients(self.fd_order)
        if self.k <= 0:
            raise ValueError("k must be positive")


@dataclass
class TopKResult:
    """Top-k points sorted by descending norm."""

    zindexes: np.ndarray
    values: np.ndarray
    ledger: CostLedger = dataclass_field(default_factory=CostLedger)
    query_id: str | None = None

    def __len__(self) -> int:
        return len(self.zindexes)

    def coordinates(self) -> np.ndarray:
        """Top-k grid points as an ``(k, 3)`` integer array."""
        x, y, z = decode_array(self.zindexes)
        return np.stack([x, y, z], axis=1).astype(np.int64)
