"""Independent correctness checks for the outputs of benchmark jobs.

Each check recomputes what a job must print by a route that shares no code
with spectrekit: the naive routes of ``tests/oracles.py``, plain
``Fraction`` or scaled-integer arithmetic written here, the pairing of the
fast and oracle spectre routes, and the one-dimensional identity that the
center of distances is the nonnegative part of the spectre.  A check returns
``None`` when the output is right and a one-line reason when it is not.

Values that a later change may correct by design are never pinned: the
gap-translation radius is only checked to satisfy the translation predicate
at radii strictly below it.
"""

from __future__ import annotations

import importlib.util
import json
import os
from fractions import Fraction
from math import lcm, prod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Pt = Tuple[Fraction, ...]
Group = Dict[str, Any]


def load_oracles(root: str):
    """Import ``tests/oracles.py`` from the checkout without touching it."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("spectrekit_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_INT_DIST = {
    "sup": lambda p, q: max(abs(a - b) for a, b in zip(p, q)),
    "taxicab": lambda p, q: sum(abs(a - b) for a, b in zip(p, q)),
    "euclidean-squared": lambda p, q: sum((a - b) * (a - b) for a, b in zip(p, q)),
}


class Metric:
    """Distances among some point sets, computed on integers.

    Rational sets are rescaled to one grid by the lcm of their denominators
    (written here, not taken from spectrekit); finite-group residues are
    already integers and use the torus distance of ``tests/oracles.py``.
    """

    def __init__(self, oracles, group: Group, *sets: Sequence[Pt]):
        if group["type"] == "FinAb":
            moduli = group["moduli"]
            self.scale = 1
            self.power = 1
            self.d = lambda p, q: int(oracles.torus_dist(p, q, moduli))
        else:
            self.scale = lcm(1, *(c.denominator for s in sets for p in s for c in p))
            self.power = 2 if group["metric"] == "euclidean-squared" else 1
            self.d = _INT_DIST[group["metric"]]
        self.sets = [[tuple(c.numerator * (self.scale // c.denominator) for c in p)
                      for p in s] for s in sets]

    def value(self, raw: int) -> Fraction:
        return Fraction(raw, self.scale ** self.power)

    def directed(self, a: Sequence[Tuple[int, ...]], b: Sequence[Tuple[int, ...]]) -> int:
        return max(min(self.d(p, q) for q in b) for p in a)

    def hausdorff(self) -> Fraction:
        a, b = self.sets
        return self.value(max(self.directed(a, b), self.directed(b, a)))


class Gate:
    """Independent routes bound to the oracle module; caches spectres."""

    def __init__(self, oracles):
        self.o = oracles
        self._spectres: Dict[Tuple, List[Pt]] = {}

    def dist_fn(self, group: Group) -> Callable[[Pt, Pt], Fraction]:
        o = self.o
        if group["type"] == "FinAb":
            moduli = group["moduli"]
            return lambda p, q: o.torus_dist(p, q, moduli)
        return {"sup": o.sup_dist, "taxicab": o.taxicab_dist,
                "euclidean-squared": o.eucl_sq_dist}[group["metric"]]

    def spectre(self, group: Group, points: Sequence[Pt]) -> List[Pt]:
        """S(A): the oracle scan of the whole group for finite groups; for
        rational sets, the candidates that move the last point into A (the
        library anchors at the first), tested on the integer grid."""
        key = (json.dumps(group, sort_keys=True), tuple(points))
        if key not in self._spectres:
            if group["type"] == "FinAb":
                out = self.o.naive_spectre_mod(points, group["moduli"])
            else:
                m = Metric(self.o, group, points)
                ints = m.sets[0]
                member = set(ints)
                anchor = ints[-1]
                cands = {tuple(a - b for a, b in zip(x, anchor)) for x in ints}
                cands |= {tuple(-c for c in z) for z in cands}
                out = sorted(tuple(Fraction(c, m.scale) for c in z) for z in cands if all(
                    tuple(a + b for a, b in zip(x, z)) in member
                    or tuple(a - b for a, b in zip(x, z)) in member for x in ints))
            self._spectres[key] = out
        return self._spectres[key]

    def center(self, group: Group, points: Sequence[Pt]) -> List[Fraction]:
        if group["type"] == "Qd" and group["dim"] == 1:
            # In one dimension C(A) is the nonnegative part of S(A).
            radii = [z[0] for z in self.spectre(group, points) if z[0] >= 0]
            if group["metric"] == "euclidean-squared":
                radii = [r * r for r in radii]
            return sorted(radii)
        if len(points) <= 40:
            return self.o.naive_center(points, self.dist_fn(group))
        m = Metric(self.o, group, points)
        common = None
        for x in m.sets[0]:
            seen = {m.d(x, y) for y in m.sets[0]}
            common = seen if common is None else common & seen
            if common == {0}:
                break  # zero is realized from every point
        return sorted(m.value(r) for r in common)

    def hausdorff(self, group: Group, a: Sequence[Pt], b: Sequence[Pt]) -> Fraction:
        if len(a) * len(b) <= 1600:
            return self.o.naive_hausdorff(a, b, self.dist_fn(group))
        return Metric(self.o, group, a, b).hausdorff()


def _pts(raw: Sequence[Sequence[str]]) -> List[Pt]:
    return [tuple(Fraction(c) for c in p) for p in raw]


def _dist_obj(v: Fraction, group: Group) -> Dict[str, Any]:
    squared = group["type"] == "Qd" and group["metric"] == "euclidean-squared"
    return {"value": str(v), "squared": squared}


def _set_doc(group: Group, pts: Sequence[Pt]) -> Dict[str, Any]:
    return {"group": group, "points": [[str(c) for c in p] for p in sorted(pts)]}


def _expect(got: Any, want: Any, what: str) -> Optional[str]:
    return None if got == want else f"{what} differs from the independent route"


# -- scaled-integer routes for enumerations -----------------------------------

def _scale_of(values: Sequence[Fraction]) -> int:
    return lcm(1, *(v.denominator for v in values))


def subset_sums(terms: Sequence[Pt]) -> List[Pt]:
    """All subset sums, on integers scaled by the lcm of the denominators."""
    dim = len(terms[0])
    scale = _scale_of([c for t in terms for c in t])
    sums = {(0,) * dim}
    for t in terms:
        ti = tuple(int(c * scale) for c in t)
        sums |= {tuple(a + b for a, b in zip(s, ti)) for s in sums}
    return sorted(tuple(Fraction(c, scale) for c in s) for s in sums)


def psum_values(coeffs: Sequence[Fraction], terms: Sequence[Fraction]) -> List[Fraction]:
    scale = _scale_of([c * t for c in coeffs for t in terms])
    sums = {0}
    for t in terms:
        steps = {int(c * t * scale) for c in coeffs}
        sums = {s + k for s in sums for k in steps}
    return sorted(Fraction(s, scale) for s in sums)


def gaps_1d(values: Sequence[Fraction]) -> List[Dict[str, Any]]:
    out, longest = [], Fraction(0)
    for lo, hi in zip(values, values[1:]):
        out.append({"alpha": str(lo), "beta": str(hi), "length": str(hi - lo),
                    "dominating": hi - lo > longest})
        longest = max(longest, hi - lo)
    return out


def rect_gaps(points: Sequence[Pt]) -> List[Tuple[Fraction, ...]]:
    """Rectangles [a,b]x[c,d] meeting the set in exactly (a,c) and (b,d):
    for each lower corner, the upper corners are the points of the closed
    upper-right quadrant that no other point of it dominates."""
    pts = sorted(points)
    out = []
    for i, (ax, ay) in enumerate(pts):
        quad = sorted((q for q in pts[i + 1:] if q[1] >= ay), key=lambda q: (q[1], q[0]))
        best_x = None
        for qx, qy in quad:
            if best_x is None or qx < best_x:
                if qx > ax and qy > ay:
                    out.append((ax, qx, ay, qy))
                best_x = qx
    return sorted(out, key=lambda g: (g[0], g[2], g[1], g[3]))


# -- checks per command -------------------------------------------------------

def check_spectre(gate: Gate, group: Group, points: List[Pt], out: Any) -> Optional[str]:
    return _expect(out, _set_doc(group, gate.spectre(group, points)), "spectre")


def check_center(gate: Gate, group: Group, points: List[Pt], out: Any) -> Optional[str]:
    want = {"group": group,
            "values": [_dist_obj(v, group) for v in gate.center(group, points)]}
    return _expect(out, want, "center of distances")


def check_hausdorff(gate: Gate, group: Group, a: List[Pt], b: List[Pt],
                    out: Any) -> Optional[str]:
    want = _dist_obj(gate.hausdorff(group, a, b), group)
    return _expect(out, want, "Hausdorff distance")


def _pair_in(pair: Sequence[Pt], pts: set) -> bool:
    return len(pair) == 2 and pair[0] != pair[1] and all(p in pts for p in pair)


def _witness_pairs(out: Any, pts: set) -> Optional[Tuple[List[Pt], List[Pt]]]:
    w = out.get("witness")
    if w is None:
        return None
    pa, pb = _pts(w["pair_a"]), _pts(w["pair_b"])
    if not (_pair_in(pa, pts) and _pair_in(pb, pts)) or set(pa) == set(pb):
        return None
    return pa, pb


def is_net(gate: Gate, group: Group, points: Sequence[Pt]) -> bool:
    """No two distinct pairs share a difference up to sign."""
    ints = Metric(gate.o, group, points).sets[0]
    seen = set()
    for i, x in enumerate(ints):
        for y in ints[i + 1:]:
            d = tuple(a - b for a, b in zip(x, y))
            canon = max(d, tuple(-c for c in d))
            if canon in seen:
                return False
            seen.add(canon)
    return len(points) >= 3


def check_netset(gate: Gate, group: Group, points: List[Pt], out: Any) -> Optional[str]:
    if out["ok"]:
        return None if is_net(gate, group, points) else "claims a net set, but two differences agree"
    if len(points) < 3:
        return None if out["witness"] is None else "witness for a set below three points"
    pairs = _witness_pairs(out, set(points))
    if pairs is None:
        return "net-set refutation without two distinct pairs of the set"
    (a, b), (c, d) = pairs
    da, db = gate.o.q_sub(a, b), gate.o.q_sub(c, d)
    shared = tuple(_pts([out["witness"]["shared_value"]])[0])
    if da not in (db, gate.o.q_neg(db)) or shared not in (db, gate.o.q_neg(db)):
        return "net-set witness pairs do not share a difference"
    return None


def check_nonsliding(gate: Gate, group: Group, points: List[Pt], out: Any) -> Optional[str]:
    if out["ok"]:
        m = Metric(gate.o, group, points)
        ints = m.sets[0]
        dists = [m.d(x, y) for i, x in enumerate(ints) for y in ints[i + 1:]]
        return None if len(set(dists)) == len(dists) else "claims non-sliding, but a distance repeats"
    d = gate.dist_fn(group)
    pairs = _witness_pairs(out, set(points))
    if pairs is None:
        return "non-sliding refutation without two distinct pairs of the set"
    (a, b), (c, e) = pairs
    if d(a, b) != d(c, e) or out["witness"]["shared_value"] != _dist_obj(d(a, b), group):
        return "non-sliding witness pairs realize different distances"
    return None


def check_netset_make(gate: Gate, group: Group, points: List[Pt], eps: Fraction,
                      out: Any) -> Optional[str]:
    made = _pts(out["points"])
    if out["group"] != group or len(made) != max(3, len(points)):
        return "net-set construction changed the group or the point count"
    if not is_net(gate, group, made):
        return "constructed set is not a net set"
    near = gate.o.sup_dist
    if any(min(near(p, q) for q in made) >= eps for p in points) or \
            any(min(near(q, p) for p in points) >= eps for q in made):
        return "constructed set is not within eps of the input"
    return None


def check_probe(gate: Gate, group: Group, base: List[Pt], family: List[List[Pt]],
                eps: Fraction, kind: str, out: Any) -> Optional[str]:
    """Recompute every row and the verdict from the probe's definition."""
    sa = gate.spectre(group, base)
    rows = []
    for i, member in enumerate(family, start=1):
        sm = gate.spectre(group, member)
        m = Metric(gate.o, group, sm, sa)
        rows.append({
            "index": i,
            "input_distance": gate.hausdorff(group, base, member),
            "spectre_distance": m.hausdorff(),
            "usc_ok": m.value(m.directed(*m.sets)) < eps,
        })
    ins = [r["input_distance"] for r in rows]
    approaching = all(b <= a for a, b in zip(ins, ins[1:])) and ins[-1] < ins[0]
    tail = rows[len(rows) // 2:]
    witnessed = approaching and all(r["spectre_distance"] > 0 for r in tail)
    want = {
        "kind": kind,
        "epsilon": str(eps),
        "verdict": "discontinuity-witnessed" if witnessed else "continuous-looking",
        "tail_bound": str(min(r["spectre_distance"] for r in tail)) if witnessed else None,
        "usc_tail_ok": all(r["usc_ok"] for r in tail),
        "rows": [dict(r, input_distance=_dist_obj(r["input_distance"], group),
                      spectre_distance=_dist_obj(r["spectre_distance"], group))
                 for r in rows],
    }
    return _expect(out, want, "probe report")


def mask_of(points: Sequence[Pt], moduli: Sequence[int]) -> int:
    """Bit index of each residue tuple in the lexicographic element order."""
    mask = 0
    for p in points:
        index = 0
        for c, m in zip(p, moduli):
            index = index * m + int(c)
        mask |= 1 << index
    return mask


def divmod_all(index: int, moduli: Sequence[int]) -> List[int]:
    """Residues of the element at ``index`` in the lexicographic order."""
    coords = []
    for m in reversed(moduli):
        index, c = divmod(index, m)
        coords.append(c)
    return coords[::-1]


def check_refute(gate: Gate, group: Group, target: List[Pt], out: Any) -> Optional[str]:
    """A target that is not symmetric is never a spectre, so the scan must
    visit every nonempty subset; a found witness must have the target as its
    spectre, sit at mask ``scanned``, and no earlier mask may qualify."""
    moduli = group["moduli"]
    order = prod(moduli)
    tset = set(target)
    symmetric = all(gate.o.mod_neg(p, moduli) in tset for p in target)
    zero = (Fraction(0),) * len(moduli)
    if not symmetric or zero not in tset:
        want = {"found": False, "scanned": (1 << order) - 1, "witness": None}
        return _expect(out, want, "refutation of an impossible target")
    if not out["found"]:
        return "a target known to be a spectre was reported as not found"
    witness = _pts(out["witness"])
    if gate.o.naive_spectre_mod(witness, moduli) != sorted(target):
        return "refute witness does not have the target spectre"
    if mask_of(witness, moduli) != out["scanned"]:
        return "refute scan count does not match the witness position"
    elements = sorted(tuple(Fraction(c) for c in divmod_all(i, moduli))
                      for i in range(order))
    for mask in range(1, out["scanned"]):
        pts = [elements[i] for i in range(order) if mask >> i & 1]
        if gate.o.naive_spectre_mod(pts, moduli) == sorted(target):
            return "an earlier subset already has the target spectre"
    return None


def check_series_enumerate(terms: List[Pt], out: Any) -> Optional[str]:
    return _expect(out, _set_doc({"type": "Qd", "dim": len(terms[0]), "metric": "sup"},
                                 subset_sums(terms)), "achievement set")


def check_series_gaps(terms: List[Pt], out: Any) -> Optional[str]:
    values = [p[0] for p in subset_sums(terms)]
    return _expect(out, {"gaps": gaps_1d(values)}, "gap list")


def check_series_first_gap(terms: List[Pt], k: int, out: Any) -> Optional[str]:
    a_k = terms[k - 1][0]
    below = sum((t[0] for t in terms if t[0] < a_k), Fraction(0))
    if a_k <= below:
        return _expect(out, {"applicable": False, "gap": None}, "first-gap report")
    gaps = [g for g in gaps_1d([p[0] for p in subset_sums(terms)])
            if g["alpha"] == str(below) and g["beta"] == str(a_k)]
    return _expect(out, {"applicable": True, "gap": gaps[0] if gaps else None},
                   "first-gap report")


def _report_shape(out: Any, name: str, count: int) -> Optional[str]:
    if out["name"] != name or len(out["items"]) != count:
        return f"{name} report has the wrong name or item count"
    if out["passed"] != all(i["passed"] for i in out["items"]):
        return f"{name} report verdict disagrees with its items"
    return None


def check_third_gap(terms: List[Pt], out: Any) -> Optional[str]:
    values = [p[0] for p in subset_sums(terms)]
    dominating = [g for g in gaps_1d(values) if g["dominating"]]
    bad = _report_shape(out, "third-gap", len(dominating))
    if bad:
        return bad
    tails = [sum((t[0] for t in terms[m:]), Fraction(0)) for m in range(1, len(terms) + 1)]
    for g, item in zip(dominating, out["items"]):
        explained = any(str(terms[m][0]) == g["beta"] and str(tails[m]) == g["alpha"]
                        for m in range(len(terms)))
        if g["alpha"] not in item["label"] or g["beta"] not in item["label"] \
                or item["passed"] != explained:
            return "third-gap item disagrees with the independent gap list"
    return None


def check_spectre_props(terms: List[Pt], out: Any) -> Optional[str]:
    """Every law in the report is a theorem, so each item must pass; the
    membership of each term in S(E) is re-verified on the achievement set."""
    runs, i = [], 0
    while i < len(terms):
        j = i
        while j + 1 < len(terms) and terms[j + 1] == terms[i]:
            j += 1
        runs.append(j - i + 1)
        i = j + 1
    count = len(set(terms)) + sum(max(0, (n + 1) // 2 - 1) for n in runs) + 4
    if len(terms[0]) == 1:
        count += len({abs(t[0]) for t in terms})
    bad = _report_shape(out, "series-spectre", count)
    if bad:
        return bad
    E = set(subset_sums(terms))
    add = lambda p, q, s: tuple(a + s * b for a, b in zip(p, q))
    for t in set(terms):
        if not all(add(x, t, 1) in E or add(x, t, -1) in E for x in E):
            return "a term is missing from S(E) on the independent route"
    return None if out["passed"] else "a spectre law of achievement sets was reported as failing"


def check_planar_enumerate(terms: List[Pt], svg_path: Optional[str], out: Any) -> Optional[str]:
    bad = check_series_enumerate(terms, out)
    if bad or svg_path is None:
        return bad
    with open(svg_path, encoding="utf-8") as fh:
        svg = fh.read()
    if not svg.startswith("<svg") or svg.count("<circle") != len(out["points"]):
        return "SVG does not draw one circle per point"
    return None


def _rect_obj(g: Tuple[Fraction, ...]) -> Dict[str, str]:
    a, b, c, d = g
    return {"a": str(a), "b": str(b), "c": str(c), "d": str(d), "area": str((b - a) * (d - c))}


def check_planar_gaps(terms: List[Pt], out: Any) -> Optional[str]:
    E = subset_sums(terms)
    axis = []
    for name, idx in (("x", 0), ("y", 1)):
        vals = sorted({p[idx] for p in E})
        axis += [{"axis": name, "lo": str(lo), "hi": str(hi), "length": str(hi - lo)}
                 for lo, hi in zip(vals, vals[1:])]
    want = {"axis_gaps": axis,
            "rect_gaps": [_rect_obj(g) for g in rect_gaps(E)]}
    return _expect(out, want, "planar gap lists")


def check_planar_first_gap(terms: List[Pt], k: int, out: Any) -> Optional[str]:
    bad = _report_shape(out, "first-gap-2d", 3)
    if bad:
        return bad
    E = subset_sums(terms)
    xk, yk = terms[k - 1]
    below = [[n for n, t in enumerate(terms) if t[i] < (xk, yk)[i]] for i in (0, 1)]
    sums = [sum((terms[n][i] for n in below[i]), Fraction(0)) for i in (0, 1)]
    want = []
    for i in (0, 1):
        vals = sorted({p[i] for p in E})
        hi = (xk, yk)[i]
        want.append(hi <= sums[i] or any(lo == sums[i] and h == hi for lo, h in zip(vals, vals[1:])))
    if below[0] == below[1] and xk > sums[0] and yk > sums[1]:
        inside = sorted(p for p in E if sums[0] <= p[0] <= xk and sums[1] <= p[1] <= yk)
        want.append(inside == [(sums[0], sums[1]), (xk, yk)])
    else:
        want.append(True)
    return _expect([i["passed"] for i in out["items"]], want, "planar first-gap items")


EXAMPLE_TERMS = [(Fraction(7, 8), Fraction(1, 8)), (Fraction(1, 8), Fraction(7, 8)),
                 (Fraction(3, 16), Fraction(3, 16)), (Fraction(3, 16), Fraction(3, 16))]


def check_planar_example(out: Any) -> Optional[str]:
    E = subset_sums(EXAMPLE_TERMS)
    gaps = rect_gaps(E)
    best = max((b - a) * (d - c) for a, b, c, d in gaps)
    largest = [_rect_obj(g) for g in gaps if (g[1] - g[0]) * (g[3] - g[2]) == best]
    if out["set"] != _set_doc({"type": "Qd", "dim": 2, "metric": "sup"}, E) \
            or out["largest_rect_gaps"] != largest:
        return "planar example set or largest gap differs from the independent route"
    return None if out["report"]["passed"] else "planar example check reported a failure"


def check_psum_enumerate(coeffs, terms, out: Any) -> Optional[str]:
    values = [(v,) for v in psum_values(coeffs, terms)]
    return _expect(out, _set_doc({"type": "Qd", "dim": 1, "metric": "sup"}, values), "P-sum set")


def _radius_ok(gate: Gate, values: Sequence[Fraction], b: Fraction,
               eps_text: Optional[str]) -> bool:
    """The predicate must hold at radii strictly below the reported one.  No
    radius claims that it holds at every radius, so it is tested past the
    largest breakpoint, max(T)."""
    if eps_text is None:
        radii = (max(values) + 1,)
    else:
        eps = Fraction(eps_text)
        if eps <= 0:
            return False
        radii = (eps / 2, eps * Fraction(1023, 1024))
    return all(gate.o.translation_predicate(values, b, r) for r in radii)


def check_gap_translate(gate: Gate, coeffs, terms, b: Fraction, out: Any) -> Optional[str]:
    values = psum_values(coeffs, terms)
    if not out["ok"] or not _radius_ok(gate, values, b, out["epsilon"]):
        return "translation predicate fails below the reported radius"
    return None


def demo_level(m: int) -> List[Fraction]:
    """Level m of the paired endpoint construction, built from its definition."""
    def endpoints(ratio: Fraction) -> set:
        pts = {Fraction(0), Fraction(1)}
        for _ in range(m):
            pts = {ratio * p for p in pts} | {1 - ratio + ratio * p for p in pts}
        return pts
    q = Fraction(1, 4)
    return sorted({p * q for p in endpoints(q)}
                  | {p * q + Fraction(1, 2) for p in endpoints(Fraction(1, 3))})


def check_cantor_demo(gate: Gate, levels: int, out: Any) -> Optional[str]:
    rows = out["rows"]
    if [r["level"] for r in rows] != list(range(levels + 1)):
        return "demo rows do not cover every level"
    radii = [Fraction(r["epsilon"]) for r in rows]
    decreasing = all(a > b for a, b in zip(radii, radii[1:]))
    if out["strictly_decreasing"] != decreasing:
        return "demo monotonicity flag disagrees with its rows"
    for r in rows:
        if not _radius_ok(gate, demo_level(r["level"]), Fraction(1, 2), r["epsilon"]):
            return f"translation predicate fails below the level-{r['level']} radius"
    return None
