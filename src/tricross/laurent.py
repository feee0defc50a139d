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
from typing import Dict, Iterable, Mapping, Tuple


class HalfLaurent:
    """Laurent polynomial in ``t^(1/2)`` with integer coefficients.

    Keys of ``coeffs`` are twice the exponent (the numerator of the exponent
    over denominator 2), values are nonzero integers.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: Dict[int, int] = {}
        if coeffs:
            for e2, v in coeffs.items():
                if not isinstance(e2, int) or not isinstance(v, int):
                    raise TypeError("exponent-doubles and coefficients must be int")
                if v:
                    c[e2] = c.get(e2, 0) + v
                    if not c[e2]:
                        del c[e2]
        self._c = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> Dict[int, int]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

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

    # -- ring operations --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HalfLaurent) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "HalfLaurent":
        return type(self)({e: -v for e, v in self._c.items()})

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            else:
                c.pop(e, None)
        return type(self)(c)

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

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
        return type(self)(c)

    def scale(self, k: int, exp2: int = 0) -> "HalfLaurent":
        """Multiply by the monomial ``k * t^(exp2/2)``."""
        if not k:
            return type(self)()
        return type(self)({e + exp2: v * k for e, v in self._c.items()})

    def __pow__(self, n: int) -> "HalfLaurent":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = type(self).one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def invert_t(self) -> "HalfLaurent":
        """The image under ``t -> 1/t`` (mirror symmetry of the Jones polynomial)."""
        return type(self)({-e: v for e, v in self._c.items()})

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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._c!r})"

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


class Laurent2:
    """Two-variable integer Laurent polynomial in ``a`` and ``z``."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[Tuple[int, int], int] | None = None):
        c: Dict[Tuple[int, int], int] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    c[k] = c.get(k, 0) + v
                    if not c[k]:
                        del c[k]
        self._c = c

    @classmethod
    def zero(cls) -> "Laurent2":
        return cls()

    @classmethod
    def one(cls) -> "Laurent2":
        return cls({(0, 0): 1})

    @property
    def coeffs(self) -> Dict[Tuple[int, int], int]:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent2) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "Laurent2":
        return Laurent2({k: -v for k, v in self._c.items()})

    def __add__(self, other: "Laurent2") -> "Laurent2":
        c = dict(self._c)
        for k, v in other._c.items():
            nv = c.get(k, 0) + v
            if nv:
                c[k] = nv
            else:
                c.pop(k, None)
        return Laurent2(c)

    def __sub__(self, other: "Laurent2") -> "Laurent2":
        return self + (-other)

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
        return Laurent2(c)

    def __pow__(self, n: int) -> "Laurent2":
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = Laurent2.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, k: int, ea: int = 0, ez: int = 0) -> "Laurent2":
        if not k:
            return Laurent2()
        return Laurent2({(a + ea, z + ez): v * k for (a, z), v in self._c.items()})

    def mirror(self) -> "Laurent2":
        """Image under ``a -> 1/a, z -> -z`` (the mirror image of a link)."""
        return Laurent2({(-a, z): (v if z % 2 == 0 else -v) for (a, z), v in self._c.items()})

    def invert_a(self) -> "Laurent2":
        """Image under ``a -> 1/a`` (the mirror image for Kauffman F)."""
        return Laurent2({(-a, z): v for (a, z), v in self._c.items()})

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

    def __repr__(self) -> str:
        return f"Laurent2({self._c!r})"

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
