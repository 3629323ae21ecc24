"""The hyperspace view: Hausdorff distance and behaviour of the spectre map.

The spectre map A -> S(A) is wildly discontinuous in the Hausdorff metric at
most sets, but upper semicontinuous everywhere and continuous exactly at the
sets with trivial spectre.  Those facts are about limits, which a finite
computation cannot certify; what it can do is probe a convergent family and
report either a persistent lower bound on the spectre displacement (a
discontinuity witness) or its absence.  The report states which of the two
happened and never claims more.

Image refutation asks whether a target set is a spectre at all, by scanning
every nonempty subset of the target's own finite group.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import ceil, inf
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, check_budget_power
from .groups import (
    EUCLIDEAN_SQUARED,
    DistValue,
    FiniteAbelian,
    Grid,
    IntPoint,
)
from .rational import Rat
from .sets import FiniteSet, line_spectre, pack, spectre


def _directed(grid: Grid, ps: Sequence[IntPoint], qs: Sequence[IntPoint]) -> int:
    """max over p of min over q of d(p, q), in raw grid units.

    The qs are sorted on ``Grid.sweep_keys``, and d(p, q) is at least |dx|
    (dx^2 under euclidean-squared), dx the difference of p's first coordinate
    and a key of q.  The search for p's nearest q walks out from p's place
    among the keys, each way until that bound reaches the best distance so
    far, and stops at once when the best is no more than the largest minimum
    found for an earlier p, since then p cannot raise it."""
    d = grid.dist
    keyed = grid.sweep_keys(qs)
    firsts = [k for k, _ in keyed]
    qs = [q for _, q in keyed]
    bound = (lambda dx: dx * dx) if grid.metric == EUCLIDEAN_SQUARED else abs
    worst = 0
    for p in ps:
        x, best = p[0], inf
        i = bisect_left(firsts, x)
        for js in (range(i, len(qs)), range(i - 1, -1, -1)):
            for j in js:
                if best <= worst or bound(firsts[j] - x) >= best:
                    break
                best = min(best, d(p, qs[j]))
        worst = max(worst, best)
    return worst


def _both_ways(A: FiniteSet, B: FiniteSet) -> Tuple[Grid, int, int]:
    """The grid of A and B and the raw directed distances from A to B and from B to A."""
    grid = Grid.of(A.ctx, A, B)
    pa, pb = grid.ints(A), grid.ints(B)
    return grid, _directed(grid, pa, pb), _directed(grid, pb, pa)


def hausdorff(A: FiniteSet, B: FiniteSet) -> DistValue:
    """Exact Hausdorff distance: the larger of the two directed distances
    max_a min_b d(a, b) and max_b min_a d(a, b)."""
    grid, ab, ba = _both_ways(A, B)
    return grid.dist_value(max(ab, ba))


def fatten_contains(B: FiniteSet, A: FiniteSet, eps: Rat) -> bool:
    """Whether B lies inside the open eps-fattening of A: every point of B is
    at distance strictly below eps from some point of A.  Under the
    euclidean-squared metric eps is compared against squared values."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("fattening radius must be positive")
    grid = Grid.of(A.ctx, A, B)
    return grid.dist_value(_directed(grid, grid.ints(B), grid.ints(A))).value < eps


# -- continuity probes --------------------------------------------------------

CONTINUOUS_LOOKING = "continuous-looking"
DISCONTINUITY_WITNESSED = "discontinuity-witnessed"


class ProbeRow(NamedTuple):
    index: int
    input_distance: DistValue
    spectre_distance: DistValue
    usc_ok: bool


class ProbeReport(NamedTuple):
    """Outcome of probing the spectre map along a finite family.

    The verdict is "discontinuity-witnessed" when the family genuinely
    approaches the base set (nonincreasing input distances, strictly closer
    at the end than at the start) while the spectre displacement stays
    positive on the tail half of the rows; tail_bound is then the smallest
    displacement seen on that tail.  Anything else is "continuous-looking",
    which claims nothing beyond the rows shown.
    """

    rows: Tuple[ProbeRow, ...]
    epsilon: Rat
    verdict: str
    tail_bound: Optional[Rat]
    usc_tail_ok: bool


def probe_spectre_continuity(A: FiniteSet, family: Sequence[FiniteSet],
                             eps: Rat) -> ProbeReport:
    """Compare S(A) with the spectres along ``family``.

    Each row records the Hausdorff distance of the member to A, the Hausdorff
    displacement of its spectre from S(A), and whether the member's spectre
    stays inside the eps-fattening of S(A) (the upper-semicontinuity check).
    """
    eps = Fraction(eps)
    if not family:
        raise DomainError("the probe family must be nonempty")
    SA = spectre(A)
    rows = []
    for i, member in enumerate(family, start=1):
        input_distance = hausdorff(A, member)
        grid, out, back = _both_ways(SA, spectre(member))
        if eps <= 0:  # where fatten_contains would raise it
            raise DomainError("fattening radius must be positive")
        rows.append(ProbeRow(i, input_distance, grid.dist_value(max(out, back)),
                             grid.dist_value(back).value < eps))
    approaching = all(
        rows[i + 1].input_distance.value <= rows[i].input_distance.value
        for i in range(len(rows) - 1)
    ) and rows[-1].input_distance.value < rows[0].input_distance.value
    tail = rows[len(rows) - ceil(len(rows) / 2):]
    positive_tail = all(r.spectre_distance.value > 0 for r in tail)
    if approaching and positive_tail:
        verdict = DISCONTINUITY_WITNESSED
        tail_bound = min(r.spectre_distance.value for r in tail)
    else:
        verdict = CONTINUOUS_LOOKING
        tail_bound = None
    return ProbeReport(
        rows=tuple(rows),
        epsilon=eps,
        verdict=verdict,
        tail_bound=tail_bound,
        usc_tail_ok=all(r.usc_ok for r in tail),
    )


# -- image refutation ---------------------------------------------------------

class RefuteResult(NamedTuple):
    """Outcome of scanning a finite group for a set whose spectre equals the
    target.  ``found`` with a witness, or a completed scan proving there is
    none; ``scanned`` counts the candidate subsets examined."""

    found: bool
    witness: Optional[FiniteSet]
    scanned: int


def refute_spectre_image(target: FiniteSet,
                         budget: Optional[int] = None) -> RefuteResult:
    """Search all nonempty subsets of the target's own finite Abelian group
    for one whose spectre is ``target``.  Subsets are visited in mask order
    over the lexicographically sorted group elements, so the witness, when
    one exists, is deterministic.  Each subset's spectre is read off
    ``line_spectre`` on the packed group elements."""
    ctx = target.ctx
    if not isinstance(ctx, FiniteAbelian):
        raise DomainError("image refutation scans a finite Abelian group")
    order = ctx.order()
    check_budget_power(2, order, budget)
    grid, ms = Grid.of(ctx), ctx.moduli
    elems = list(itertools.product(*map(range, ms)))
    xs, _, wrap, mods = pack(elems, ms)  # every set of the group packs alike
    want = frozenset(pack(target.ints, ms)[0])
    for mask in range(1, 1 << order):
        zs = line_spectre([x for i, x in enumerate(xs) if mask >> i & 1], wrap, mods)
        if want.issuperset(zs) and want == set(zs):
            return RefuteResult(True, grid.to_set(e for i, e in enumerate(elems) if mask >> i & 1),
                                mask)
    return RefuteResult(False, None, (1 << order) - 1)
