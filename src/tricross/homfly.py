"""HOMFLY polynomial by the descending-diagram skein recursion.

Convention: ``a P(L+) - a^-1 P(L-) = z P(L0)`` with ``P(unknot) = 1``, so a
split union multiplies by ``delta = (a - a^-1) / z`` per extra component.
The recursion (:mod:`tricross.skein`) walks the oriented diagram component by
component, switches the first crossing whose first visit is on the
under-strand, and smooths it along the orientation; a diagram with no such
crossing is descending and therefore an unlink.  The oriented smoothing joins
each incoming dart to the outgoing dart beside it: the slot parity ``p = 1``
of :meth:`tricross.skein.Engine.smoothed` where the shadow's sign (before
any switch) is +1, and ``p = 0`` where it is -1.  Every state is first
reduced by Reidemeister I and same-level II moves, which leave HOMFLY
unchanged, so the engine's kink writhe is ignored.

Work is bounded by an explicit budget on skein-tree nodes; exceeding it (or
starting from a diagram of more than 16 crossings) raises ``BudgetError``.
"""

from __future__ import annotations

from typing import FrozenSet

from .laurent import Laurent2
from .maps import DiagramError, DoubleDiagram, InternalConsistencyError
from .skein import BudgetError, Engine, first_bad_crossing

DELTA = Laurent2({(1, -1): 1, (-1, -1): -1})  # (a - a^-1) / z

_A2 = Laurent2({(2, 0): 1})
_AZ = Laurent2({(1, 1): 1})
_INV_A2 = Laurent2({(-2, 0): 1})
_INV_AZ = Laurent2({(-1, 1): 1})

_MAX_CROSSINGS = 16


class _Homfly(Engine):
    delta = DELTA
    max_nodes = 400_000

    def connected(self, dd: DoubleDiagram, tails: FrozenSet[int],
                  flips: FrozenSet[int]) -> Laurent2:
        bad = first_bad_crossing(dd, tails, flips)
        if bad is None:
            return DELTA ** (len(dd.walks(tails)) - 1)
        shadow_sign = dd.crossing_sign(bad, tails)
        sign = -shadow_sign if bad in flips else shadow_sign
        p_switch = self.eval(dd, tails, flips ^ {bad})
        p_smooth = self.smoothed(dd, tails, flips, bad, 1 if shadow_sign > 0 else 0)
        if sign > 0:
            # P(L+) = a^-2 P(L-) + a^-1 z P(L0)
            return _INV_A2 * p_switch + _INV_AZ * p_smooth
        # P(L-) = a^2 P(L+) - a z P(L0)
        return _A2 * p_switch - _AZ * p_smooth


def homfly(
    dd: DoubleDiagram,
    tails: FrozenSet[int] | None = None,
) -> Laurent2:
    """HOMFLY polynomial of an oriented link diagram."""
    if dd.n > _MAX_CROSSINGS:
        raise BudgetError(
            f"diagram has {dd.n} crossings, above the limit of {_MAX_CROSSINGS}"
        )
    walks = dd.walks()
    if tails is None:
        if len(walks) > 1:
            raise DiagramError("not a knot: a link needs its tails")
        tails = frozenset(*walks)
    engine = _Homfly()
    result = engine.eval(dd, tails, frozenset())
    # a knot, or the crossingless unknot: both directions must agree
    if len(walks) <= 1:
        other = engine.eval(dd, frozenset(dd.alpha[d] for d in tails), frozenset())
        if other != result:
            raise InternalConsistencyError(
                "HOMFLY of a knot depends on the traversal direction"
            )
    return result
