"""Exact sparse Laurent polynomials.

Three flavours are used throughout the package:

* :class:`HalfLaurent` -- integer coefficients on half-integer powers of ``t``
  (exponents are stored as twice their value, so every key is an ``int``).
  This is the ring the Jones polynomial lives in.
* :class:`IntLaurent` -- the subring with integer exponents only (Alexander).
* :class:`Laurent2` -- two commuting variables ``a`` and ``z`` with integer
  exponents (HOMFLY and Kauffman F).

All values are immutable; arithmetic never stores zero coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Mapping, Tuple, Type, TypeVar

_L = TypeVar("_L", bound="_Laurent")


class _Laurent:
    """Immutable sparse map from exponent keys to nonzero integer coefficients.

    Subclasses fix the key (an ``int`` or an ``(a, z)`` pair) and supply
    ``__mul__`` and ``_UNIT``, the key of the constant term.  Every operation
    returns the class of its left operand.  Values compare equal only within
    one ring, told apart by ``_UNIT``: ``HalfLaurent`` and ``IntLaurent``
    compare by coefficients, a ``Laurent2`` never equals either.
    """

    __slots__ = ("_c",)
    _UNIT: Hashable

    def __init__(self, coeffs: Mapping | None = None):
        self._c: Dict = {k: v for k, v in coeffs.items() if v} if coeffs else {}

    @classmethod
    def _of(cls: Type[_L], c: Dict) -> _L:
        """Wrap ``c`` as it is: a sum, negation or product whose zero
        coefficients are already dropped."""
        p = cls.__new__(cls)
        p._c = c
        return p

    @classmethod
    def one(cls: Type[_L]) -> _L:
        return cls({cls._UNIT: 1})

    @property
    def coeffs(self) -> Dict:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _Laurent) and self._UNIT == other._UNIT
                and self._c == other._c)

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __neg__(self: _L) -> _L:
        return self._of({k: -v for k, v in self._c.items()})

    def __add__(self: _L, other: _L) -> _L:
        c = dict(self._c)
        for k, v in other._c.items():
            nv = c.get(k, 0) + v
            if nv:
                c[k] = nv
            else:
                c.pop(k, None)
        return self._of(c)

    def __sub__(self: _L, other: _L) -> _L:
        return self + (-other)

    def __pow__(self: _L, n: int) -> _L:
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._c!r})"


class HalfLaurent(_Laurent):
    """Laurent polynomial in ``t^(1/2)`` with integer coefficients.

    Keys of ``coeffs`` are twice the exponent (the numerator of the exponent
    over denominator 2), values are nonzero integers.
    """

    __slots__ = ()
    _UNIT = 0

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        if coeffs and not all(isinstance(e2, int) and isinstance(v, int)
                              for e2, v in coeffs.items()):
            raise TypeError("exponent-doubles and coefficients must be int")
        super().__init__(coeffs)

    def min_exp2(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp2(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    def breadth2(self) -> int:
        """Twice the breadth (max exponent minus min exponent)."""
        return self.max_exp2() - self.min_exp2()

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        c: Dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                nv = c.get(e, 0) + v1 * v2
                if nv:
                    c[e] = nv
                else:
                    c.pop(e, None)
        return self._of(c)

    def scale(self, k: int, exp2: int = 0) -> "HalfLaurent":
        """Multiply by the monomial ``k * t^(exp2/2)``."""
        if not k:
            return type(self)()
        return type(self)({e + exp2: v * k for e, v in self._c.items()})

    def invert_t(self) -> "HalfLaurent":
        """The image under ``t -> 1/t`` (mirror symmetry of the Jones polynomial)."""
        return self._of({-e: v for e, v in self._c.items()})

    def eval_fraction(self, t: Fraction) -> Fraction:
        """Evaluate at a rational square of ``t^(1/2)``.

        ``t`` must be a square of a rational for half powers to be rational, so
        the argument is the value of ``t^(1/2)`` itself.
        """
        s = Fraction(0)
        for e2, v in self._c.items():
            s += v * t**e2
        return s

    # -- textual form (bit-exact golden format) ---------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e2 in sorted(self._c):
            v = self._c[e2]
            if e2 % 2 == 0:
                exp = str(e2 // 2)
            else:
                exp = f"{e2}/2"
            parts.append(f"{v}*t^{exp}")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "HalfLaurent":
        """Inverse of :meth:`__str__`."""
        text = text.strip()
        if text == "0":
            return cls()
        c: Dict[int, int] = {}
        for part in text.split(" + "):
            part = part.strip()
            try:
                coeff_s, exp_s = part.split("*t^")
                coeff = int(coeff_s)
                if "/" in exp_s:
                    num_s, den_s = exp_s.split("/")
                    if den_s != "2":
                        raise ValueError
                    e2 = int(num_s)
                else:
                    e2 = 2 * int(exp_s)
            except ValueError as exc:
                raise ValueError(f"bad polynomial term: {part!r}") from exc
            c[e2] = c.get(e2, 0) + coeff
        return cls(c)


class IntLaurent(HalfLaurent):
    """Laurent polynomial in ``t`` (integer exponents only)."""

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        super().__init__(coeffs)
        if any(e % 2 for e in self._c):
            raise ValueError("IntLaurent requires integer exponents")

    @classmethod
    def from_int_coeffs(cls, coeffs: Mapping[int, int]) -> "IntLaurent":
        """Build from a map of *integer* exponents to coefficients."""
        return cls({2 * e: v for e, v in coeffs.items()})

    def int_coeffs(self) -> Dict[int, int]:
        return {e // 2: v for e, v in self._c.items()}


def breadth(p: IntLaurent) -> int:
    """Max exponent minus min exponent; rejects the zero polynomial."""
    if p.is_zero():
        raise ValueError("breadth of the zero polynomial is undefined")
    return p.breadth2() // 2


def is_monic(p: IntLaurent) -> bool:
    """True when the highest-order coefficient is +1 or -1."""
    if p.is_zero():
        raise ValueError("monicity of the zero polynomial is undefined")
    return abs(p.coeffs[p.max_exp2()]) == 1


class Laurent2(_Laurent):
    """Two-variable integer Laurent polynomial in ``a`` and ``z``."""

    __slots__ = ()
    _UNIT = (0, 0)

    def __mul__(self, other: "Laurent2") -> "Laurent2":
        c: Dict[Tuple[int, int], int] = {}
        for (a1, z1), v1 in self._c.items():
            for (a2, z2), v2 in other._c.items():
                k = (a1 + a2, z1 + z2)
                nv = c.get(k, 0) + v1 * v2
                if nv:
                    c[k] = nv
                else:
                    c.pop(k, None)
        return self._of(c)

    def scale(self, k: int, ea: int = 0, ez: int = 0) -> "Laurent2":
        if not k:
            return type(self)()
        return self._of({(a + ea, z + ez): v * k for (a, z), v in self._c.items()})

    def mirror(self) -> "Laurent2":
        """Image under ``a -> 1/a, z -> -z`` (the mirror image of a link)."""
        return self._of({(-a, z): (v if z % 2 == 0 else -v) for (a, z), v in self._c.items()})

    def invert_a(self) -> "Laurent2":
        """Image under ``a -> 1/a`` (the mirror image for Kauffman F)."""
        return self._of({(-a, z): v for (a, z), v in self._c.items()})

    def substitute_jones(self) -> HalfLaurent:
        """Specialise to the Jones variable: ``a = 1/t``, ``z = t^(1/2) - t^(-1/2)``.

        Requires all ``z`` exponents to be nonnegative (true for knots).
        """
        zpoly = HalfLaurent({1: 1, -1: -1})
        out = HalfLaurent()
        for (ea, ez), v in self._c.items():
            if ez < 0:
                raise ValueError("negative z exponent; not a knot polynomial")
            out = out + (zpoly**ez).scale(v, -2 * ea)
        return out

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for (ea, ez) in sorted(self._c):
            parts.append(f"{self._c[(ea, ez)]}*a^{ea}*z^{ez}")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Laurent2":
        text = text.strip()
        if text == "0":
            return cls()
        c: Dict[Tuple[int, int], int] = {}
        for part in text.split(" + "):
            try:
                coeff_s, rest = part.split("*a^")
                ea_s, ez_s = rest.split("*z^")
                k = (int(ea_s), int(ez_s))
                c[k] = c.get(k, 0) + int(coeff_s)
            except ValueError as exc:
                raise ValueError(f"bad polynomial term: {part!r}") from exc
        return cls(c)
