"""Kauffman two-variable polynomial by the descending-diagram recursion.

Convention: the regular-isotopy polynomial ``Lambda`` satisfies

    Lambda(L+) + Lambda(L-) = z (Lambda(L0) + Lambda(Loo))

with ``Lambda(unknot) = 1``, kinks contributing ``a`` / ``a^-1``, and a split
union multiplying by ``delta = (a + a^-1) z^-1 - 1``.  The ambient-isotopy
polynomial is ``F(L) = a^-w Lambda(L)`` (knots only here, so the writhe is
orientation-free).

The recursion (:mod:`tricross.skein`) is unoriented: each component is
walked from its smallest dart.  Every state is first reduced: a kink of sign
``e`` is removed for a factor ``a^e`` and a same-level bigon for none.  A
diagram whose every crossing is first reached on its over-strand is a stack
of curled unknots; its Lambda is ``delta^(k-1)`` times ``a`` to the sum of
self-writhes.  Otherwise the first offending crossing is switched (toward
descending) and smoothed both ways: its two smoothings are the slot parities
``p = 0`` and ``p = 1`` of :meth:`tricross.skein.Engine.smoothed`.
"""

from __future__ import annotations

from typing import Dict, List

from .laurent import Laurent2
from .maps import DoubleDiagram
from .skein import Darts, Engine, Flips, first_bad_crossing

DELTA_K = Laurent2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})  # (a + a^-1)/z - 1

_Z = Laurent2({(0, 1): 1})


def _self_writhe(dd: DoubleDiagram, flips: Flips, walks: List[List[int]]) -> int:
    """Sum over components of the signed self-crossings (orientation-free),
    with ``walks`` one strand walk per component."""
    tails = frozenset(d for walk in walks for d in walk)
    comp_of: Dict[int, set] = {}
    for i, walk in enumerate(walks):
        for d in walk:
            comp_of.setdefault(d // 4, set()).add(i)
    w = 0
    for c in range(dd.n):
        if len(comp_of.get(c, set())) == 1:
            sign = dd.crossing_sign(c, tails)
            w += -sign if c in flips else sign
    return w


class _Kauffman(Engine):
    delta = DELTA_K
    max_nodes = 2_000_000

    def kinked(self, value: Laurent2, kinks: int) -> Laurent2:
        return value.scale(1, kinks, 0) if kinks else value

    def connected(self, dd: DoubleDiagram, tails: Darts, flips: Flips) -> Laurent2:
        bad, walks = first_bad_crossing(dd, tails, flips)
        if bad is None:
            return (DELTA_K ** (len(walks) - 1)).scale(1, _self_writhe(dd, flips, walks), 0)
        s0 = self.smoothed(dd, tails, flips, bad, 0)
        s1 = self.smoothed(dd, tails, flips, bad, 1)
        switched = self.eval(dd, tails, flips ^ {bad})
        return _Z * (s0 + s1) - switched


def kauffman_lambda(dd: DoubleDiagram) -> Laurent2:
    """Regular-isotopy Kauffman polynomial Lambda."""
    return _Kauffman().eval(dd, frozenset(), frozenset())


def kauffman_f(dd: DoubleDiagram) -> Laurent2:
    """Kauffman polynomial F of a knot diagram: a^-w Lambda."""
    return kauffman_lambda(dd).scale(1, -dd.writhe(), 0)
