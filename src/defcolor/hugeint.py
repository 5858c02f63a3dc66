"""Exact nonnegative integers that may be far too large to materialize.

The derived constants of the scheme machinery are towers like
``d ** (k0 ** t1) + c`` whose decimal expansions exceed any storage, yet
the toolkit must report them exactly and compare them exactly.  A HugeInt
is either a plain Python int or the exact normal form

    coeff * base ** exp + addend

with ``coeff >= 1``, ``base >= 2`` and ``exp >= 1`` (base, exp and addend
again HugeInts).  Values below ``PLAIN_LIMIT`` (the most ``str()`` of an
int prints) are materialized eagerly; larger ones keep the power form.

Comparison is exact: materialized compare, then structural normal forms,
then certified interval log arithmetic at escalating precision.  A
comparison that cannot be decided raises rather than guessing.  Only the
interval functions import ``mpmath``, so loading the package does not.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

from .errors import DefcolorError

MATERIALIZE_BITS = 1 << 20
PLAIN_LIMIT = 10**4300

_PRECISIONS = (80, 160, 320, 640, 1280, 2560, 5120, 10240, 20480, 40960)

IntLike = Union[int, "HugeInt"]


class UndecidedComparisonError(DefcolorError):
    """Two HugeInts could not be separated at the maximum precision."""


def _as_huge(x: IntLike) -> "HugeInt":
    if isinstance(x, HugeInt):
        return x
    if isinstance(x, int):
        if x < 0:
            raise ValueError("HugeInt values are nonnegative")
        return HugeInt(val=x)
    raise TypeError(f"cannot interpret {type(x).__name__} as HugeInt")


def _iroot(n: int, k: int) -> int:
    """Integer floor k-th root by Newton iteration."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, limit + 1, p):
                sieve[q] = 0
    return out


@lru_cache(maxsize=4096)
def _primitive_root(b: int) -> tuple[int, int]:
    """Write b = p**m with the smallest possible p; returns (p, m).

    Only prime root degrees need testing: a composite-degree power is a
    prime-degree power of a smaller perfect power.
    """
    if b < 2:
        raise ValueError("need b >= 2")
    for q in _small_primes(b.bit_length()):
        root = _iroot(b, q)
        if root >= 2 and root**q == b:
            p, m = _primitive_root(root)
            return p, m * q
    return b, 1


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


# -- exact comparison ----------------------------------------------------


def _normalized(x: HugeInt) -> HugeInt:
    """Fold the coefficient's base-power part and use a primitive base.

    Bases beyond 64 bits are treated as primitive: representation
    collisions there would leave the comparison to interval separation or
    an honest UndecidedComparisonError, never a wrong answer.
    """
    if x.val is not None:
        return x
    b = x.base.materialize(64)
    if b is None:
        return x
    p, m = _primitive_root(b)
    exp = hmul(x.exp, m) if m > 1 else x.exp
    coeff = x.coeff
    extra = 0
    while coeff % p == 0:
        coeff //= p
        extra += 1
    if extra:
        exp = hadd(exp, extra)
    return HugeInt(coeff=coeff, base=_as_huge(p), exp=exp, addend=x.addend)


def _try_cmp(x: HugeInt, y: HugeInt) -> Optional[int]:
    try:
        return hcmp(x, y)
    except UndecidedComparisonError:
        return None


def _struct_cmp(x: HugeInt, y: HugeInt) -> Optional[int]:
    """Exact comparison via normal forms; None when structure cannot decide.

    Handles the cases interval logs never can: towers that agree except in
    a coefficient, an addend, or deep inside the exponent, decided by
    monotonicity of coeff * base ** exp + addend in every slot.
    """
    if x.val is not None and y.val is not None:
        return (x.val > y.val) - (x.val < y.val)
    if x.val is not None or y.val is not None:
        return None
    nx, ny = _normalized(x), _normalized(y)
    if nx.val is not None or ny.val is not None:
        if nx.val is not None and ny.val is not None:
            return (nx.val > ny.val) - (nx.val < ny.val)
        return None
    cb = _try_cmp(nx.base, ny.base)
    ce = _try_cmp(nx.exp, ny.exp)
    if cb == 0 and ce == 0:
        # common main term P = base^exp: compare a*P + c against a'*P + c'
        if nx.coeff == ny.coeff:
            return _try_cmp(nx.addend, ny.addend)
        hi, lo = (nx, ny) if nx.coeff > ny.coeff else (ny, nx)
        sign = 1 if nx.coeff > ny.coeff else -1
        ca = _try_cmp(hi.addend, lo.addend)
        if ca is not None and ca >= 0:
            return sign
        if hi.addend.val is not None and lo.addend.val is not None:
            gap = lo.addend.val - hi.addend.val
            diff_term = HugeInt(
                coeff=hi.coeff - lo.coeff,
                base=hi.base,
                exp=hi.exp,
                addend=HugeInt(val=0),
            )
            got = _try_cmp(diff_term, HugeInt(val=gap))
            if got is not None:
                return sign * got
        return None
    cc = (nx.coeff > ny.coeff) - (nx.coeff < ny.coeff)
    ca = _try_cmp(nx.addend, ny.addend)
    comps = [cc, cb, ce, ca]
    if any(c is None for c in comps):
        return None
    if all(c >= 0 for c in comps):
        return 1 if any(c > 0 for c in comps) else 0
    if all(c <= 0 for c in comps):
        return -1 if any(c < 0 for c in comps) else 0
    return None


def _value_iv(x: HugeInt):
    """Certified interval containing the value (exponents may be huge ints)."""
    from mpmath import iv

    if x.val is not None:
        return iv.mpf(x.val)
    l2 = _log2_iv(x)
    ln2 = iv.log(iv.mpf(2))
    return iv.exp(l2 * ln2)


def _log2_iv(x: HugeInt):
    """Certified interval containing log2(value); requires value >= 1."""
    from mpmath import iv

    if x.val is not None:
        if x.val <= 0:
            raise ValueError("log2 of nonpositive value")
        return iv.log(iv.mpf(x.val)) / iv.log(iv.mpf(2))
    main = (
        iv.log(iv.mpf(x.coeff)) / iv.log(iv.mpf(2))
        + _value_iv(x.exp) * _log2_iv(x.base)
    )
    a = x.addend
    if a.val is not None and a.val == 0:
        return main
    add_l2 = _log2_iv(a) if not (a.val is not None and a.val < 1) else iv.mpf(0)
    # log2(term + addend) = log2(term) + log2(1 + addend/term); when the
    # addend sits 2^g below the term the correction is below 2^(2-g)
    gap = float((main.a - add_l2.b).a)
    if gap > 4:
        g = 1000 if gap == float("inf") else min(int(gap) - 1, 1000)
        return main + iv.mpf([0, 2.0 ** (-g + 2)])
    # coarse but certified hull: [log2 term, max(log2 term, log2 addend) + 1]
    lo = float(main.a)
    lo -= abs(lo) * 1e-12 + 1e-12
    hi = max(float(main.b), float(add_l2.b))
    hi += abs(hi) * 1e-12 + 1e-12 + 1.0
    return iv.mpf([lo, hi])


def hcmp(x: IntLike, y: IntLike) -> int:
    """Exact three-way comparison; raises UndecidedComparisonError if stuck."""
    x, y = _as_huge(x), _as_huge(y)
    got = _struct_cmp(x, y)
    if got is not None:
        return got
    zero_x = x.val == 0 if x.val is not None else False
    zero_y = y.val == 0 if y.val is not None else False
    if zero_x or zero_y:
        if zero_x and zero_y:
            return 0
        return -1 if zero_x else 1
    from mpmath import iv

    old = iv.prec
    try:
        for prec in _PRECISIONS:
            iv.prec = prec
            lx, ly = _log2_iv(x), _log2_iv(y)
            if lx.b < ly.a:
                return -1
            if ly.b < lx.a:
                return 1
    finally:
        iv.prec = old
    raise UndecidedComparisonError(f"cannot separate {x} and {y}")


def _cmp_ops():
    def le(self, other):
        return hcmp(self, other) <= 0

    def lt(self, other):
        return hcmp(self, other) < 0

    def ge(self, other):
        return hcmp(self, other) >= 0

    def gt(self, other):
        return hcmp(self, other) > 0

    def eq(self, other):
        if not isinstance(other, (int, HugeInt)):
            return NotImplemented
        try:
            return hcmp(self, other) == 0
        except UndecidedComparisonError:
            return False

    return le, lt, ge, gt, eq


HugeInt.__le__, HugeInt.__lt__, HugeInt.__ge__, HugeInt.__gt__, HugeInt.__eq__ = (
    _cmp_ops()
)
HugeInt.__hash__ = None  # mutable-free but equality is semantic; not hashable


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
    """Floating-point log10 of the value when it fits a float, else None."""
    if x.val is not None and x.val == 0:
        return None
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = 80
        l2 = _log2_iv(x)
        return float(l2.mid) * 0.3010299956639812
    except (OverflowError, ValueError):
        return None
    finally:
        iv.prec = old
