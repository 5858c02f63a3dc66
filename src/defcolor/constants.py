"""Derived-constant calculator for the scheme machinery.

Evaluates the closed chain of quantities the construction needs, in exact
arbitrary precision: the type-count caps t0 and t1, the chunk count k0,
the ball radius l0, the homogeneous-ball demand t, and the termination
sizes.  The values explode (t is already 2^74 at the smallest admissible
arguments); HugeInt keeps them exact without materializing digits.

Three inputs are opaque knobs with no formula here: the degree bound of
the homogeneous-structure supply (``d_homo``) and the two size floors
``n1`` and ``n2`` folded into the termination size.  They originate in an
external existence result and are caller-supplied configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .hugeint import PLAIN_LIMIT, HugeInt, hadd, hmul, hpow, int_to_json, to_json
from .graphs import DEFAULT_VERTEX_BUDGET

if TYPE_CHECKING:  # deferred: the scheme package itself imports this module
    from .scheme.params import SchemeParams


def split_path_budget(t: int, k: int, length: int) -> int:
    """Required ball radius n(t, k, l) for the geodesic splitting search.

    Defined by n(1, y, z) = y + z and
    n(x, y, z) = y * (n(x-1, y, z) - (x-1) z) + x z, which telescopes to
    the closed form y**x + x z used here.
    """
    if t < 1 or k < 1 or length < 1:
        raise ValueError("arguments must be positive")
    return k**t + t * length


@dataclass(frozen=True)
class ConstantsTable:
    """Exact derived constants plus the main exponent of t for reporting."""

    h: int
    k: int
    r: int
    d_homo: int
    n1: int
    n2: int
    t0: HugeInt
    t1: HugeInt
    k0: HugeInt
    l0: HugeInt
    d: int
    t: HugeInt
    t_main_exponent: HugeInt
    t_extra_exponent: int
    n_star: HugeInt
    n_total: HugeInt
    practical: bool
    params: Optional[SchemeParams]

    def to_json(self) -> dict:
        return {
            "inputs": {
                "h": self.h,
                "k": self.k,
                "r": self.r,
                "d_homo": self.d_homo,
                "n1": self.n1,
                "n2": self.n2,
            },
            "t0": to_json(self.t0),
            "t1": to_json(self.t1),
            "k0": to_json(self.k0),
            "l0": to_json(self.l0),
            "d": self.d,
            "t": to_json(self.t),
            "t_main_exponent": to_json(self.t_main_exponent),
            "t_extra_exponent": (
                self.t_extra_exponent
                if self.t_extra_exponent < PLAIN_LIMIT
                else int_to_json(self.t_extra_exponent)
            ),
            "n_star": to_json(self.n_star),
            "n_total": to_json(self.n_total),
            "practical": self.practical,
            "params": self.params.to_json() if self.params else None,
        }


def paper_constants(
    h: int,
    k: int,
    r: int,
    d_homo: int,
    n1: int,
    n2: int,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> ConstantsTable:
    """Exact derivation chain for the scheme constants.

    t0  = (h-2) (r+1) 2^(r-1) r^(2^(r-1))      cap on hyperedge types
    t1  = 3^(r + t0)                           cap on vertex types
    k0  = 1 + (h+k-1)(6 t1 + 1)                chunk count for splitting
    l0  = n(t1, k0, 3) + 1                     ball radius
    d   = d_homo + 1
    t   = 2^((h-2)(r+1)^(2^(r-1))(k+h) 2^(r-1)) * 2^(2^(r-1))
    N*  = (k+h) d^l0                           deletion-step floor
    N   = d^l0 + n1 + n2                       termination size

    ``practical`` reports whether every value materializes within the
    vertex budget, in which case a runnable SchemeParams is included.
    """
    if h < 3:
        raise ValueError("h must be at least 3")
    for name, value in (("k", k), ("r", r), ("d_homo", d_homo), ("n1", n1), ("n2", n2)):
        if value < 1:
            raise ValueError(f"{name} must be positive")

    two = 2 ** (r - 1)  # recurring exponent; always a plain int
    t0 = hmul(hpow(r, two) if r >= 2 else HugeInt.of(1), (h - 2) * (r + 1) * two)
    t1 = hpow(3, hadd(t0, r))
    k0 = hadd(hmul(t1, 6 * (h + k - 1)), (h + k - 1) + 1)
    l0 = hpow(k0, t1, addend=hadd(hmul(t1, 3), 1))
    d = d_homo + 1

    t_main_exponent = hmul(hpow(r + 1, two), (h - 2) * (k + h) * two)
    t_value = hpow(2, hadd(t_main_exponent, two))

    n_star = hpow(d, l0, coeff=k + h)
    n_total = hpow(d, l0, addend=n1 + n2)

    practical = all(
        v.materialize() is not None and v.exact_int() <= budget
        for v in (t0, t1, k0, l0, t_value, n_star, n_total)
    )
    params = None
    if practical:
        from .scheme.params import SchemeParams

        params = SchemeParams(
            h=h,
            k=k,
            r=r,
            d=d,
            n_freeze=n_total.exact_int(),
            l0=l0.exact_int(),
            t=t_value.exact_int(),
        )
    return ConstantsTable(
        h=h,
        k=k,
        r=r,
        d_homo=d_homo,
        n1=n1,
        n2=n2,
        t0=t0,
        t1=t1,
        k0=k0,
        l0=l0,
        d=d,
        t=t_value,
        t_main_exponent=t_main_exponent,
        t_extra_exponent=two,
        n_star=n_star,
        n_total=n_total,
        practical=practical,
        params=params,
    )
