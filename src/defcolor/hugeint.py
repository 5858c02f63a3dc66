"""Exact nonnegative integers that may be far too large to materialize.

The derived constants of the scheme machinery are towers like
``d ** (k0 ** t1) + c`` whose decimal expansions exceed any storage, yet
the toolkit must report them exactly.  A HugeInt is either a plain Python
int or the exact normal form

    coeff * base ** exp + addend

with ``coeff >= 1``, ``base >= 2`` and ``exp >= 1`` (base, exp and addend
again HugeInts).  Values below ``PLAIN_LIMIT`` (the most ``str()`` of an
int prints) are materialized eagerly; larger ones keep the power form.

A HugeInt can be printed, encoded exactly as JSON (``to_json``),
materialized when it fits (``materialize``) and estimated as a float
log10 (``approx_log10``).  It defines no ordering and compares by
identity like any object.
"""

from __future__ import annotations

import math
from typing import Optional, Union

MATERIALIZE_BITS = 1 << 20
PLAIN_LIMIT = 10**4300

IntLike = Union[int, "HugeInt"]


def _as_huge(x: IntLike) -> "HugeInt":
    if isinstance(x, HugeInt):
        return x
    if isinstance(x, int):
        if x < 0:
            raise ValueError("HugeInt values are nonnegative")
        return HugeInt(val=x)
    raise TypeError(f"cannot interpret {type(x).__name__} as HugeInt")


class HugeInt:
    __slots__ = ("val", "coeff", "base", "exp", "addend")

    def __init__(self, val=None, coeff=None, base=None, exp=None, addend=None):
        self.val = val
        self.coeff = coeff
        self.base = base
        self.exp = exp
        self.addend = addend

    # -- construction --------------------------------------------------

    @staticmethod
    def of(x: IntLike) -> "HugeInt":
        return _as_huge(x)

    def materialize(self, max_bits: int = MATERIALIZE_BITS) -> Optional[int]:
        """Plain int value if its size fits in max_bits, else None."""
        if self.val is not None:
            return self.val
        b = self.base.materialize(max_bits)
        e = self.exp.materialize(64)
        a = self.addend.materialize(max_bits)
        if b is None or e is None or a is None:
            return None
        if e * max(b.bit_length() - 1, 1) + self.coeff.bit_length() > max_bits:
            return None
        return self.coeff * b**e + a

    def exact_int(self) -> int:
        got = self.materialize()
        if got is None:
            raise OverflowError("HugeInt too large to materialize")
        return got


def hpow(base: IntLike, exp: IntLike, coeff: int = 1, addend: IntLike = 0) -> HugeInt:
    """coeff * base**exp + addend, materialized when it fits."""
    base = _as_huge(base)
    exp = _as_huge(exp)
    addend = _as_huge(addend)
    if coeff < 0:
        raise ValueError("coeff must be nonnegative")
    if coeff == 0:
        return addend
    e_small = exp.materialize(64)
    if e_small == 0:
        return hadd(_as_huge(coeff), addend)
    b_small = base.materialize()
    if b_small is not None and b_small <= 1:
        return hadd(_as_huge(coeff * b_small), addend)
    out = HugeInt(coeff=coeff, base=base, exp=exp, addend=addend)
    got = out.materialize()
    if got is not None and got < PLAIN_LIMIT:
        return HugeInt(val=got)
    return out


def hadd(x: IntLike, y: IntLike) -> HugeInt:
    x, y = _as_huge(x), _as_huge(y)
    if x.val is not None and y.val is not None:
        if x.val + y.val < PLAIN_LIMIT:
            return HugeInt(val=x.val + y.val)
        return hpow(max(x.val, y.val), 1, addend=min(x.val, y.val))
    if x.val is not None:
        x, y = y, x
    # x symbolic: fold into its addend
    return hpow(x.base, x.exp, x.coeff, hadd(x.addend, y))


def hmul(x: IntLike, c: int) -> HugeInt:
    """x * c for a plain nonnegative int c."""
    if c < 0:
        raise ValueError("multiplier must be nonnegative")
    x = _as_huge(x)
    if c == 0:
        return HugeInt(val=0)
    if x.val is not None:
        return hpow(x, 1, coeff=c)  # c * x ** 1, plain below PLAIN_LIMIT
    return hpow(x.base, x.exp, x.coeff * c, hmul(x.addend, c))


# -- presentation --------------------------------------------------------


def _fmt(x: HugeInt) -> str:
    if x.val is not None:
        if x.val >= PLAIN_LIMIT:
            return _fmt(power_form(x.val))
        s = str(x.val)
        if len(s) <= 40:
            return s
        return f"~10^{len(s) - 1} ({s[:8]}...)"
    parts = []
    if x.coeff != 1:
        c = x.coeff
        parts.append(str(c) if c < PLAIN_LIMIT else f"({_fmt(power_form(c))})")
    parts.append(f"{_fmt_atom(x.base)}^{_fmt_atom(x.exp)}")
    body = "*".join(parts)
    if not (x.addend.val == 0 if x.addend.val is not None else False):
        body = f"{body} + {_fmt(x.addend)}"
    return body


def _fmt_atom(x: HugeInt) -> str:
    s = _fmt(x)
    return s if s.isdigit() else f"({s})"


HugeInt.__str__ = _fmt
HugeInt.__repr__ = lambda self: f"HugeInt({_fmt(self)})"


def power_form(n: int) -> HugeInt:
    """A plain n past ``PLAIN_LIMIT`` as the exact power form
    ``coeff * 2**exp + addend``, splitting off the trailing zero bits, or
    half the bits when the odd part is still too long to print."""
    exp = (n & -n).bit_length() - 1
    if n >> exp >= PLAIN_LIMIT:
        exp = n.bit_length() // 2
    return HugeInt(
        coeff=n >> exp, base=HugeInt(val=2), exp=HugeInt(val=exp),
        addend=HugeInt(val=n & ((1 << exp) - 1)),
    )


def int_to_json(n: int) -> object:
    """Decimal string below ``PLAIN_LIMIT``; past it ``power_form``'s."""
    return str(n) if n < PLAIN_LIMIT else to_json(power_form(n))


def to_json(x: HugeInt) -> object:
    """JSON-able exact encoding: decimal string, or a nested power form
    whose plain parts (the coefficient included) are ``int_to_json``'s."""
    if x.val is not None:
        return int_to_json(x.val)
    return {
        "coeff": int_to_json(x.coeff),
        "base": to_json(x.base),
        "exp": to_json(x.exp),
        "addend": to_json(x.addend),
    }


def approx_log10(x: HugeInt) -> Optional[float]:
    """Float log10 of the value: inf past the float range, None for 0."""
    if x.val is not None:
        return math.log10(x.val) if x.val else None
    e = x.exp
    try:
        exp = float(e.val) if e.val is not None else 10 ** approx_log10(e)
    except OverflowError:
        exp = math.inf
    term = math.log10(x.coeff) + exp * approx_log10(x.base)
    rest = approx_log10(x.addend)
    if rest is None or term == math.inf:
        return term
    hi, lo = max(term, rest), min(term, rest)
    return hi + math.log10(1 + 10 ** (lo - hi))
