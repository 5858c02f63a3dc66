"""Run parameters for the elimination-scheme pipeline."""

from __future__ import annotations

from dataclasses import astuple, dataclass

from ..errors import InputFormatError
from ..graphs import int_lists

_JSON_KEYS = ("h", "k", "r", "d", "N", "l0", "t")  # in field order


@dataclass(frozen=True)
class SchemeParams:
    """Parameters steering scheme construction, certification and coloring.

    h, k     target: (h-1)-coloring of hosts with no ct(h, k) minor
    r        degree / hyperedge-size cap ((D5), (D12))
    d        small-degree threshold separating contractible material
    n_freeze termination size: entries with at most this many vertices freeze
    l0       ball radius for the homogeneous-structure search
    t        number of homogeneous balls the search must supply
    """

    h: int
    k: int
    r: int
    d: int
    n_freeze: int
    l0: int
    t: int

    def __post_init__(self):
        if self.h < 3:
            raise ValueError("h must be at least 3")
        if self.d < 2:
            raise ValueError("d must be at least 2")
        for name in ("k", "r", "n_freeze", "l0", "t"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def defect_bound(self) -> int:
        """Defect guaranteed for scheme colorings: 2 * n_freeze + d."""
        return 2 * self.n_freeze + self.d

    def to_json(self) -> dict:
        return dict(zip(_JSON_KEYS, astuple(self)))

    @staticmethod
    def from_json(doc) -> "SchemeParams":
        """Parameters from a JSON object whose seven fields are JSON integers
        (not booleans); raises InputFormatError otherwise."""
        if type(doc) is not dict or not doc.keys() >= set(_JSON_KEYS):
            raise InputFormatError(
                f"params must be a JSON object with keys {', '.join(_JSON_KEYS)}"
            )
        return SchemeParams(*int_lists([doc[key] for key in _JSON_KEYS], "params"))
