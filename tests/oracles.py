"""Independent reference implementations used to cross-check the library.

Everything here works on bare ``Fraction`` tuples and never imports
spectrekit, so agreement between the two code paths is meaningful evidence
rather than a tautology.  These are deliberately naive: exhaustive scans and
direct transcriptions of definitions, with no pruning or shared helpers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

Pt = Tuple[Fraction, ...]

ZERO = Fraction(0)


# -- plain tuple arithmetic ---------------------------------------------------

def q_add(p: Pt, q: Pt) -> Pt:
    return tuple(a + b for a, b in zip(p, q))


def q_sub(p: Pt, q: Pt) -> Pt:
    return tuple(a - b for a, b in zip(p, q))


def q_neg(p: Pt) -> Pt:
    return tuple(-a for a in p)


def mod_add(p: Pt, q: Pt, moduli: Sequence[int]) -> Pt:
    return tuple(Fraction((int(a) + int(b)) % m) for a, b, m in zip(p, q, moduli))


def mod_sub(p: Pt, q: Pt, moduli: Sequence[int]) -> Pt:
    return tuple(Fraction((int(a) - int(b)) % m) for a, b, m in zip(p, q, moduli))


def mod_neg(p: Pt, moduli: Sequence[int]) -> Pt:
    return tuple(Fraction(-int(a) % m) for a, m in zip(p, moduli))


# -- metrics ------------------------------------------------------------------

def sup_dist(p: Pt, q: Pt) -> Fraction:
    return max(abs(a - b) for a, b in zip(p, q))


def taxicab_dist(p: Pt, q: Pt) -> Fraction:
    return sum((abs(a - b) for a, b in zip(p, q)), ZERO)


def eucl_sq_dist(p: Pt, q: Pt) -> Fraction:
    return sum(((a - b) * (a - b) for a, b in zip(p, q)), ZERO)


def torus_dist(p: Pt, q: Pt, moduli: Sequence[int]) -> Fraction:
    worst = 0
    for a, b, m in zip(p, q, moduli):
        r = (int(a) - int(b)) % m
        worst = max(worst, min(r, m - r))
    return Fraction(worst)


# -- spectre and center -------------------------------------------------------

def naive_spectre_q(points: Iterable[Pt]) -> List[Pt]:
    """All z with x+z in A or x-z in A for every x, over rational tuples.

    Any such z is a difference of two elements (take x with x+z or x-z in A),
    so scanning the full difference set is exhaustive.
    """
    pts = set(points)
    cands = {q_sub(x, y) for x in pts for y in pts}
    cands |= {q_neg(c) for c in cands}
    good = [z for z in cands
            if all(q_add(x, z) in pts or q_sub(x, z) in pts for x in pts)]
    return sorted(good)


def naive_spectre_mod(points: Iterable[Pt], moduli: Sequence[int]) -> List[Pt]:
    """Spectre by scanning every element of the finite group."""
    pts = set(points)
    group = [tuple(Fraction(c) for c in combo)
             for combo in itertools.product(*(range(m) for m in moduli))]
    good = [z for z in group
            if all(mod_add(x, z, moduli) in pts or mod_sub(x, z, moduli) in pts
                   for x in pts)]
    return sorted(good)


def naive_center(points: Iterable[Pt],
                 dist_fn: Callable[[Pt, Pt], Fraction]) -> List[Fraction]:
    """All distance values realized from every element of the set."""
    pts = list(points)
    values = {dist_fn(x, y) for x in pts for y in pts}
    good = [v for v in values
            if all(any(dist_fn(x, y) == v for y in pts) for x in pts)]
    return sorted(good)


def naive_hausdorff(A: Iterable[Pt], B: Iterable[Pt],
                    dist_fn: Callable[[Pt, Pt], Fraction]) -> Fraction:
    a, b = list(A), list(B)
    forward = max(min(dist_fn(x, y) for y in b) for x in a)
    backward = max(min(dist_fn(x, y) for y in a) for x in b)
    return max(forward, backward)


# -- structural checks --------------------------------------------------------

def naive_is_net(points: Sequence[Pt]) -> bool:
    """Quadruple loop over distinct two-element subsets."""
    pts = list(points)
    if len(pts) < 3:
        return False
    pairs = list(itertools.combinations(range(len(pts)), 2))
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        d1 = q_sub(pts[i], pts[j])
        d2 = q_sub(pts[k], pts[l])
        if d1 == d2 or d1 == q_neg(d2):
            return False
    return True


def naive_netset_greedy(points: Iterable[Pt], eps: Fraction) -> List[Pt]:
    """The greedy net-set rule, deciding each candidate with naive_is_net.

    A candidate c joins the kept points K when c is not in K and K + [c] is
    a net-set (any new point passes while K has fewer than two points).
    Each input point p, in sorted order, is tried first as p itself and then
    as p + v for the nonzero vectors v below: eps/2^j along one axis plus
    eps/2^k along another, by increasing j + k, with sup norm below eps.
    While fewer than three points are kept, the first kept point is
    perturbed the same way.
    """
    pts = sorted(set(points))
    dim = len(pts[0])

    def candidates(p: Pt):
        yield p
        for total in itertools.count(2):
            for j in range(1, total):
                for i in range(dim):
                    for m in range(dim):
                        v = [ZERO] * dim
                        v[i] += eps / 2 ** j
                        v[m] += eps / 2 ** (total - j)
                        if max(v) < eps:
                            yield q_add(p, tuple(v))

    kept: List[Pt] = []

    def first_passing(p: Pt) -> Pt:
        return next(c for c in candidates(p) if c not in kept
                    and (len(kept) < 2 or naive_is_net(kept + [c])))

    for p in pts:
        kept.append(first_passing(p))
    while len(kept) < 3:
        kept.append(first_passing(kept[0]))
    return sorted(kept)


def naive_is_non_sliding(points: Sequence[Pt],
                         dist_fn: Callable[[Pt, Pt], Fraction]) -> bool:
    """Each positive distance must come from exactly one unordered pair."""
    pts = list(points)
    counts: Dict[Fraction, int] = {}
    for x, y in itertools.combinations(pts, 2):
        d = dist_fn(x, y)
        counts[d] = counts.get(d, 0) + 1
    return all(n == 1 for d, n in counts.items() if d > 0)


def naive_first_shared_pair(points: Sequence[Pt], key: Callable[[Pt, Pt], object]):
    """(pair_a, pair_b) for the first pair b of points, in combination order,
    whose key equals that of an earlier pair, and a the earliest such pair;
    None when all keys differ.  Every earlier pair is compared directly."""
    pairs = list(itertools.combinations(points, 2))
    for j, b in enumerate(pairs):
        for a in pairs[:j]:
            if key(*a) == key(*b):
                return a, b
    return None


# -- subset sums, gaps, P-sums ------------------------------------------------

def naive_subset_sums(terms: Sequence[Pt], dim: int = 1) -> List[Pt]:
    """All subset sums by explicit mask enumeration."""
    if terms:
        dim = len(terms[0])
    zero = (ZERO,) * dim
    sums: Set[Pt] = set()
    for mask in range(1 << len(terms)):
        total = zero
        for i, t in enumerate(terms):
            if mask >> i & 1:
                total = q_add(total, t)
        sums.add(total)
    return sorted(sums)


def naive_gaps(values: Iterable[Fraction]) -> List[Tuple[Fraction, Fraction, bool]]:
    """(alpha, beta, dominating) per consecutive pair, dominating by rescan."""
    vals = sorted(set(values))
    gaps = list(zip(vals, vals[1:]))
    out = []
    for i, (a, b) in enumerate(gaps):
        dom = all(b - a > b2 - a2 for a2, b2 in gaps[:i])
        out.append((a, b, dom))
    return out


def naive_rect_gap_ok(points: Iterable[Pt], a: Fraction, b: Fraction,
                      c: Fraction, d: Fraction) -> bool:
    """Closed rectangle meets the set in exactly its two defining corners."""
    if not (a < b and c < d):
        return False
    inside = sorted(p for p in points if a <= p[0] <= b and c <= p[1] <= d)
    return inside == [(a, c), (b, d)]


def naive_rect_gaps(points: Iterable[Pt]) -> List[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """All rectangular gaps by the cubic scan over corner pairs."""
    pts = sorted(points)
    out = []
    for p in pts:
        for q in pts:
            if p[0] < q[0] and p[1] < q[1] and naive_rect_gap_ok(pts, p[0], q[0], p[1], q[1]):
                out.append((p[0], q[0], p[1], q[1]))
    return sorted(out)


def naive_first_gap_2d(terms: Sequence[Pt],
                       k: int) -> List[Tuple[bool, Tuple[Fraction, ...], bool]]:
    """The planar first-gap predictions from term k (1-based), checked on all
    subset sums: one (applicable, prediction, holds) each for the x-axis gap,
    the y-axis gap and the rectangle.

    A_i holds the indices whose i-th coordinate is below term k's.  Axis i
    predicts the gap (sum over A_i, term k's coordinate) when that coordinate
    exceeds the sum; the rectangle (a, b, c, d) spans both predictions when
    both apply and A_x = A_y.  One that does not apply comes as (False, (), True).
    """
    E = naive_subset_sums(terms, 2)
    top = terms[k - 1]
    below = [{n for n, t in enumerate(terms) if t[i] < top[i]} for i in (0, 1)]
    sums = [sum((terms[n][i] for n in below[i]), ZERO) for i in (0, 1)]
    out = []
    for i in (0, 1):
        values = {p[i] for p in E}
        lo, hi = sums[i], top[i]
        if hi > lo:
            holds = lo in values and hi in values and not any(lo < v < hi for v in values)
            out.append((True, (lo, hi), holds))
        else:
            out.append((False, (), True))
    if below[0] == below[1] and top[0] > sums[0] and top[1] > sums[1]:
        rect = (sums[0], top[0], sums[1], top[1])
        out.append((True, rect, naive_rect_gap_ok(E, *rect)))
    else:
        out.append((False, (), True))
    return out


def naive_psum(coeffs: Sequence[Fraction], terms: Sequence[Fraction]) -> List[Fraction]:
    """P-sums by full cartesian product over coefficient assignments."""
    sums = {sum((c * t for c, t in zip(assign, terms)), ZERO)
            for assign in itertools.product(coeffs, repeat=len(terms))}
    return sorted(sums)


def naive_endpoint_level(ratio: Fraction, depth: int) -> Set[Fraction]:
    """Endpoints of the level-``depth`` intervals of the self-similar set on
    [0, 1] with contraction ``ratio`` at both ends, by iterating its two maps."""
    pts = {ZERO, Fraction(1)}
    for _ in range(depth):
        pts = {ratio * p for p in pts} | {1 - ratio + ratio * p for p in pts}
    return pts


def translation_predicate(T: Iterable[Fraction], b: Fraction,
                          eps: Fraction) -> bool:
    """b + (T intersect [0, eps]) == T intersect [b, b+eps]."""
    ts = set(T)
    left = {t for t in ts if 0 <= t <= eps}
    right = {t for t in ts if b <= t <= b + eps}
    return {b + t for t in left} == right


def translation_supremum(T: Iterable[Fraction], b: Fraction):
    """The least radius at which the translation predicate fails, or None.

    The predicate only changes value at a breakpoint (a positive element of
    T, or y - b for an element y > b), so evaluating it at every breakpoint
    and at every midpoint between consecutive ones, in ascending order,
    finds the first failure; the scan goes on to check that the predicate
    never holds again after it.
    """
    ts = sorted(set(T))
    points = sorted({t for t in ts if t > 0} | {y - b for y in ts if y > b})
    radii = []
    for lo, hi in zip([ZERO] + points, points):
        radii += [(lo + hi) / 2, hi]
    failed = None
    for eps in radii:
        holds = translation_predicate(ts, b, eps)
        assert not (holds and failed is not None), \
            f"predicate fails at {failed} but holds again at {eps}"
        if not holds and failed is None:
            failed = eps
    return failed


def dense_translation_supremum(T: Iterable[Fraction], b: Fraction):
    """The first radius at which the translation predicate fails, by
    genuinely dense epsilon sampling, or None.

    Every quantity in the predicate lives on the 1/L grid for L the lcm of
    all denominators involved, so stepping epsilon by 1/(4L) hits every
    breakpoint and the interior of every interval between breakpoints.
    When the predicate holds on [0, e) and fails at e, the first failing
    sample is e itself.
    """
    ts = sorted(set(T))
    L = lcm(*(t.denominator for t in ts), b.denominator)
    step = Fraction(1, 4 * L)
    top = max(ts) + 1
    eps = step
    while eps <= top:
        if not translation_predicate(ts, b, eps):
            return eps
        eps += step
    return None
