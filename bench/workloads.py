"""Seeded job lists for the three benchmark workloads.

``build(workload, seed, workdir)`` writes the input documents of one
workload into ``workdir`` and returns its jobs.  The same seed writes the
same documents.  Sizes and structure are fixed per job slot; the seed only
draws the values, so the work a slot does barely moves from seed to seed.

Each job names the exit code the README table prescribes for it (or how to
read it off the verified output of a check-style command) and the
independent check from ``gate.py`` that its standard output must pass.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import gate as g

Pt = Tuple[Fraction, ...]

BIG = (4294967291, 4294967279)        # coprime, so the grid scale is ~64 bits
MID = (997, 1009, 1013)               # ~30-bit grid scale
SMALL = tuple(range(1, 17))           # lcm(1..16) = 720720, ~20 bits
POW2 = (1, 2, 4, 8)                   # 4-bit grid scale
HALF, THIRD, TWO_FIFTHS = Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)


def bind(fn, *params):
    """The check (gate, out) -> reason computed as fn(gate, *params, out)."""
    return lambda gate, out: fn(gate, *params, out)


def bind_plain(fn, *params):
    """The check (gate, out) -> reason computed as fn(*params, out)."""
    return lambda gate, out: fn(*params, out)


def verdict_exit(out: Any) -> int:
    """Check-style commands exit 0 when the check passed and 1 when refuted."""
    return 0 if out["ok"] else 1


def usc_exit(out: Any) -> int:
    return 0 if out["usc_tail_ok"] else 1


@dataclass
class Job:
    name: str
    argv: List[str]
    expect: Union[int, Callable[[Any], int]]
    check: Optional[Callable[[g.Gate, Any], Optional[str]]] = None
    props: Dict[str, Any] = field(default_factory=dict)
    same_as: Optional[str] = None  # a job whose stdout must be byte-identical


class Writer:
    """Writes documents into the work directory under sequential names."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def doc(self, obj: Any) -> str:
        self.count += 1
        name = f"doc{self.count:03d}.json"
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return name


def _rat(r: random.Random, dens: Sequence[int], span: int) -> Fraction:
    den = r.choice(dens)
    return Fraction(r.randint(-span * den, span * den), den)


def _scale_bits(values: Sequence[Fraction]) -> int:
    return lcm(1, *(v.denominator for v in values)).bit_length()


def _qd(dim: int, metric: str) -> Dict[str, Any]:
    return {"type": "Qd", "dim": dim, "metric": metric}


def _set_doc(group: Dict[str, Any], pts: Sequence[Pt]) -> Dict[str, Any]:
    return {"group": group, "points": [[str(c) for c in p] for p in pts]}


def _set_props(pts: Sequence[Pt]) -> Dict[str, Any]:
    return {"points": len(pts), "scale_bits": _scale_bits([c for p in pts for c in p])}


def random_set(r: random.Random, n: int, dim: int, dens: Sequence[int],
               span: int) -> List[Pt]:
    pts = set()
    while len(pts) < n:
        pts.add(tuple(_rat(r, dens, span) for _ in range(dim)))
    return sorted(pts)


# -- pointsets ----------------------------------------------------------------

def _pointsets(r: random.Random, w: Writer) -> List[Job]:
    jobs: List[Job] = []

    def set_jobs(tag: str, group, pts, commands) -> str:
        path = w.doc(_set_doc(group, pts))
        props = _set_props(pts)
        for cmd in commands:
            if cmd == "spectre":
                jobs.append(Job(f"{tag}.spectre", ["spectre", "--set", path], 0,
                                bind(g.check_spectre, group, pts), props))
            elif cmd == "oracle":
                jobs.append(Job(f"{tag}.spectre-oracle",
                                ["spectre", "--set", path, "--mode", "oracle"], 0,
                                bind(g.check_spectre, group, pts), props,
                                same_as=f"{tag}.spectre"))
            elif cmd == "center":
                jobs.append(Job(f"{tag}.center", ["center", "--set", path], 0,
                                bind(g.check_center, group, pts), props))
            elif cmd == "netset":
                jobs.append(Job(f"{tag}.netset-check", ["netset", "check", "--set", path],
                                verdict_exit,
                                bind(g.check_netset, group, pts), props))
            elif cmd == "nonsliding":
                jobs.append(Job(f"{tag}.nonsliding-check",
                                ["nonsliding", "check", "--set", path], verdict_exit,
                                bind(g.check_nonsliding, group, pts), props))
        return path

    # Large random sets: the kernels exit early, so decoding dominates.
    set_jobs("rand1d-4000-big", _qd(1, "sup"),
             random_set(r, 4000, 1, BIG, 4), ("spectre", "center"))
    set_jobs("rand2d-2500-small", _qd(2, "taxicab"),
             random_set(r, 2500, 2, SMALL, 4), ("spectre", "netset", "nonsliding"))
    set_jobs("rand2d-3000-pow2", _qd(2, "euclidean-squared"),
             random_set(r, 3000, 2, POW2, 16), ("spectre", "center"))
    set_jobs("rand1d-1500-mid", _qd(1, "taxicab"),
             random_set(r, 1500, 1, MID, 4), ("spectre", "center"))
    set_jobs("rand2d-2000-big", _qd(2, "sup"),
             random_set(r, 2000, 2, BIG, 4), ("spectre",))

    # Structured sets: spectre, center and Hausdorff scans run in full.
    start, step = _rat(r, SMALL, 2), Fraction(r.randint(1, 9), r.choice(SMALL))
    ap = [(start + i * step,) for i in range(500)]
    set_jobs("ap1d-500", _qd(1, "sup"), ap, ("spectre", "oracle", "center"))

    start, step = _rat(r, BIG[:1], 2), Fraction(r.randint(1, 9), BIG[1])
    ap2 = [(start + i * step,) for i in range(300)]
    shifted = [(x + step / 3,) for (x,) in ap2]
    grp = _qd(1, "euclidean-squared")
    pa = set_jobs("ap1d-300-big", grp, ap2, ("center",))
    pb = w.doc(_set_doc(grp, shifted))
    jobs.append(Job("ap1d-300-big.hausdorff", ["hausdorff", "--a", pa, "--b", pb], 0,
                    bind(g.check_hausdorff, grp, ap2, shifted),
                    _set_props(ap2 + shifted)))

    ox, oy = _rat(r, SMALL, 2), _rat(r, SMALL, 2)
    sx, sy = Fraction(r.randint(1, 5), r.choice(SMALL)), Fraction(r.randint(1, 5), r.choice(SMALL))
    lat = sorted((ox + i * sx, oy + j * sy) for i in range(16) for j in range(16))
    moved = sorted((x + sx / 2, y) for x, y in lat)
    grp = _qd(2, "taxicab")
    pa = set_jobs("lattice-256", grp, lat, ("spectre", "oracle", "center"))
    pb = w.doc(_set_doc(grp, moved))
    jobs.append(Job("lattice-256.hausdorff", ["hausdorff", "--a", pa, "--b", pb], 0,
                    bind(g.check_hausdorff, grp, lat, moved),
                    _set_props(lat + moved)))

    base = random_set(r, 150, 2, SMALL, 4)
    t = (_rat(r, SMALL, 8), _rat(r, SMALL, 8))
    union = sorted(set(base) | {(x + t[0], y + t[1]) for x, y in base})
    set_jobs("translates-300", _qd(2, "sup"), union, ("spectre", "oracle", "nonsliding"))

    set_jobs("rand1d-250-big", _qd(1, "sup"), random_set(r, 250, 1, BIG, 4), ("netset",))

    for tag, pts, eps in (("ap1d-30", [(Fraction(3 * i, 7),) for i in range(30)],
                           Fraction(1, 1000)),
                          ("rand2d-40", random_set(r, 40, 2, SMALL, 2), Fraction(1, 100))):
        grp = _qd(len(pts[0]), "sup")
        path = w.doc(_set_doc(grp, pts))
        jobs.append(Job(f"{tag}.netset-make",
                        ["netset", "make", "--set", path, "--eps", str(eps)], 0,
                        bind(g.check_netset_make, grp, pts, eps),
                        _set_props(pts)))

    # Probes along a convergent family: move the largest point by base/2^n.
    start, step = _rat(r, SMALL, 2), Fraction(r.randint(1, 9), r.choice(SMALL))
    probe_base = [(start + i * step,) for i in range(100)]
    shift = min(Fraction(1), step) / 4
    family = [probe_base[:-1] + [(probe_base[-1][0] + shift / (1 << n),)]
              for n in range(1, 9)]
    grp = _qd(1, "sup")
    pa = w.doc(_set_doc(grp, probe_base))
    pf = w.doc({"group": grp, "sets": [[[str(c) for c in p] for p in m] for m in family]})
    for kind, eps, expect in (("continuity", Fraction(1, 10), 0),
                              ("usc", Fraction(1, 1000), usc_exit)):
        jobs.append(Job(f"ap1d-100.probe-{kind}",
                        ["probe", kind, "--set", pa, "--family", pf, "--eps", str(eps)],
                        expect,
                        bind(g.check_probe, grp, probe_base, family, eps, kind),
                        _set_props(probe_base)))
    return jobs


# -- achievement --------------------------------------------------------------

def _generic_terms(r: random.Random, n: int, dim: int = 1) -> List[Pt]:
    """Terms whose subset sums are almost surely distinct, so |E| = 2^N."""
    return [tuple(Fraction(r.randint(1, 10 ** 5), 5040) for _ in range(dim))
            for _ in range(n)]


def _geometric_terms(r: random.Random, n: int, q: Fraction) -> List[Pt]:
    """Nonincreasing c q^k with q <= 1/2: distinct sums and dominating gaps."""
    c = Fraction(r.randint(1, 9), r.randint(1, 4))
    return [(c * q ** k,) for k in range(n)]


RUNS = (3, 1, 5, 1, 3, 1, 5, 1)


def _run_terms(r: random.Random, n: int) -> List[Pt]:
    """Nonincreasing terms in runs of the fixed lengths RUNS.  Each value is
    below 1/7 of the one before, so all sums of the runs are distinct and
    |E| depends on n alone."""
    terms: List[Pt] = []
    value = Fraction(r.randint(20, 40), r.choice(SMALL))
    for length in RUNS:
        terms += [(value,)] * min(length, n - len(terms))
        value = value * Fraction(r.randint(1, 9), 70)
    return terms


def _series_doc(terms: Sequence[Pt]) -> Dict[str, Any]:
    if len(terms[0]) == 1:
        return {"terms": [str(t[0]) for t in terms]}
    return {"terms": [[str(c) for c in t] for t in terms]}


def _series_props(terms: Sequence[Pt]) -> Dict[str, Any]:
    return {"N": len(terms), "2^N": 1 << len(terms),
            "scale_bits": _scale_bits([c for t in terms for c in t])}


def _achievement(r: random.Random, w: Writer) -> List[Job]:
    jobs: List[Job] = []

    def series(tag: str, terms: List[Pt], command: str, extra=(), check=None,
               svg: bool = False) -> None:
        path = w.doc(_series_doc(terms))
        group = "series" if len(terms[0]) == 1 else "planar"
        argv = [group, command, "--series", path, *extra]
        svg_path = None
        if svg:
            argv += ["--svg", f"{tag}.svg"]
            svg_path = os.path.join(w.workdir, f"{tag}.svg")
        if check is None:
            check = bind_plain(g.check_series_enumerate, terms) if group == "series" \
                else bind_plain(g.check_planar_enumerate, terms, svg_path)
        jobs.append(Job(f"{tag}.{group}-{command}", argv, 0,
                        check, _series_props(terms)))

    series("generic-16", _generic_terms(r, 16), "enumerate")
    series("geometric-12", _geometric_terms(r, 12, HALF), "enumerate")
    series("runs-12", _run_terms(r, 12), "enumerate")
    for tag, terms in (("generic-12", _generic_terms(r, 12)),
                       ("geometric-12b", _geometric_terms(r, 12, THIRD))):
        series(tag, terms, "gaps", check=bind_plain(g.check_series_gaps, terms))
    # Geometric terms satisfy the first-gap hypothesis at every index.
    for tag, terms in (("geometric-12c", _geometric_terms(r, 12, TWO_FIFTHS)),
                       ("geometric-10", _geometric_terms(r, 10, THIRD))):
        k = r.randint(1, len(terms))
        series(tag, terms, "first-gap", ("--k", str(k)),
               check=bind_plain(g.check_series_first_gap, terms, k))
    for tag, terms in (("geometric-12d", _geometric_terms(r, 12, HALF)),
                       ("runs-12b", _run_terms(r, 12))):
        series(tag, terms, "third-gap", check=bind_plain(g.check_third_gap, terms))
    for tag, terms in (("runs-8", _run_terms(r, 8)), ("runs-9", _run_terms(r, 9)),
                       ("runs-10", _run_terms(r, 10))):
        series(tag, terms, "spectre-props", check=bind_plain(g.check_spectre_props, terms))

    series("planar-8", _generic_terms(r, 8, 2), "enumerate", svg=True)
    series("planar-9", _generic_terms(r, 9, 2), "enumerate")
    series("planar-10", _generic_terms(r, 10, 2), "enumerate")
    for tag, n in (("planar-8b", 8), ("planar-8c", 8)):
        terms = _generic_terms(r, n, 2)
        series(tag, terms, "gaps", check=bind_plain(g.check_planar_gaps, terms))
    for tag, n in (("planar-9d", 9), ("planar-10d", 10)):
        terms = _generic_terms(r, n, 2)
        k = r.randint(1, n)
        series(tag, terms, "first-gap", ("--k", str(k)),
               check=bind_plain(g.check_planar_first_gap, terms, k))
    jobs.append(Job("planar-example.check", ["planar", "example", "--check"], 0,
                    bind_plain(g.check_planar_example),
                    _series_props(g.EXAMPLE_TERMS)))

    for tag, coeffs, n in (("psum-729", (0, 1, 2), 6), ("psum-243", (0, 1, 3), 5)):
        coeffs = [Fraction(c) for c in coeffs]
        terms = [Fraction(r.randint(1, 9), 5 ** k) for k in range(1, n + 1)]
        path = w.doc({"P": [str(c) for c in coeffs], "terms": [str(t) for t in terms]})
        props = {"N": n, "P": len(coeffs), "P^N": len(coeffs) ** n,
                 "scale_bits": _scale_bits(terms)}
        jobs.append(Job(f"{tag}.psum-enumerate", ["psum", "enumerate", "--pspec", path], 0,
                        bind_plain(g.check_psum_enumerate, coeffs, terms),
                        props))
    # Gap translation on 3^5 = 243 points, across the widest gap.
    coeffs = [Fraction(0), Fraction(1), Fraction(2)]
    terms = [Fraction(1, 4 ** k) * Fraction(r.randint(2, 3), 3) for k in range(1, 6)]
    values = g.psum_values(coeffs, terms)
    lo, hi = max(zip(values, values[1:]), key=lambda p: (p[1] - p[0], p[0]))
    path = w.doc({"P": [str(c) for c in coeffs], "terms": [str(t) for t in terms]})
    jobs.append(Job("psum-243b.psum-gap-translate",
                    ["psum", "gap-translate", "--pspec", path, "--gap", f"{lo},{hi}"], 0,
                    bind(g.check_gap_translate, coeffs, terms, hi),
                    {"N": 5, "points": len(values), "scale_bits": _scale_bits(terms)}))
    for levels in (4, 5):
        jobs.append(Job(f"cantor-{levels}.psum-cantor-demo",
                        ["psum", "cantor-demo", "--levels", str(levels)], 0,
                        bind(g.check_cantor_demo, levels), {"levels": levels}))
    return jobs


# -- torus --------------------------------------------------------------------

def _finab(moduli: Sequence[int]) -> Dict[str, Any]:
    return {"type": "FinAb", "moduli": list(moduli)}


def _residues(r: random.Random, moduli: Sequence[int], n: int) -> List[Pt]:
    pts = set()
    while len(pts) < n:
        pts.add(tuple(Fraction(r.randrange(m)) for m in moduli))
    return sorted(pts)


def _torus(r: random.Random, w: Writer) -> List[Job]:
    jobs: List[Job] = []

    def refute(tag: str, moduli, target: List[Pt], expect=0, extra=()) -> None:
        grp = _finab(moduli)
        path = w.doc(_set_doc(grp, target))
        check = None if expect == 3 else bind(g.check_refute, grp, target)
        jobs.append(Job(f"{tag}.refute-image", ["refute-image", "--target", path, *extra],
                        expect, check, {"order": prod(moduli), "points": len(target)}))

    def nonsymmetric(moduli) -> List[Pt]:
        """{0, x, y} without -x: not symmetric, so never a spectre, and the
        scan runs through every subset."""
        while True:
            x, y = _residues(r, moduli, 2)
            neg = tuple(Fraction(-int(c) % m) for c, m in zip(x, moduli))
            zero = (Fraction(0),) * len(moduli)
            if zero not in (x, y) and neg not in (x, y):
                return [zero, x, y]

    # Full scans over every subset of a group of order 12 or 13.
    refute("full-13", (13,), nonsymmetric((13,)))
    moduli = r.choice(((12,), (3, 4), (2, 6)))
    refute("full-12", moduli, nonsymmetric(moduli))
    # Targets found early: the spectre {0, x, -x} of a two-point set {0, x}
    # with x among the first few elements.
    for tag, moduli in (("early-8", (8,)), ("early-10", (2, 5)),
                        ("early-11", (11,)), ("early-14", (14,))):
        x = tuple(Fraction(c) for c in g.divmod_all(r.randint(1, 4), moduli))
        neg = tuple(Fraction(-int(c) % m) for c, m in zip(x, moduli))
        refute(tag, moduli, sorted({(Fraction(0),) * len(moduli), x, neg}))

    for tag, moduli, n in (("z-401", (401,), 40), ("z-20x20", (20, 20), 50),
                           ("z-6x60", (6, 60), 30)):
        grp = _finab(moduli)
        pts = _residues(r, moduli, n)
        other = _residues(r, moduli, n)
        pa, pb = w.doc(_set_doc(grp, pts)), w.doc(_set_doc(grp, other))
        props = {"order": prod(moduli), "points": n}
        jobs += [
            Job(f"{tag}.spectre", ["spectre", "--set", pa], 0,
                bind(g.check_spectre, grp, pts), props),
            Job(f"{tag}.spectre-oracle", ["spectre", "--set", pa, "--mode", "oracle"], 0,
                bind(g.check_spectre, grp, pts), props,
                same_as=f"{tag}.spectre"),
            Job(f"{tag}.center", ["center", "--set", pa], 0,
                bind(g.check_center, grp, pts), props),
            Job(f"{tag}.hausdorff", ["hausdorff", "--a", pa, "--b", pb], 0,
                bind(g.check_hausdorff, grp, pts, other), props),
            Job(f"{tag}.nonsliding-check", ["nonsliding", "check", "--set", pa],
                verdict_exit, bind(g.check_nonsliding, grp, pts), props),
        ]

    # Refusals over the budget that already work: exit 3, nothing on stdout.
    refute("order-21", (3, 7), [(Fraction(0), Fraction(0))], expect=3)
    refute("order-24", (24,), [(Fraction(0),)], expect=3)
    refute("budget-1000", (12,), [(Fraction(0),)], expect=3, extra=("--budget", "1000"))
    # Known budget defects, kept as failing jobs until the program is fixed:
    # the oracle spectre ignores --budget and exits 0, and refute-image on
    # Z_20000 crashes formatting 2^20000 and exits 2.
    grp = _finab((200000,))
    path = w.doc(_set_doc(grp, [(Fraction(0),), (Fraction(1),), (Fraction(3),)]))
    jobs.append(Job("z-200000.spectre-oracle-budget",
                    ["spectre", "--set", path, "--mode", "oracle", "--budget", "1000"], 3,
                    None, {"order": 200000, "points": 3}))
    refute("z-20000", (20000,), [(Fraction(0),)], expect=3)
    return jobs


BUILDERS = {"pointsets": _pointsets, "achievement": _achievement, "torus": _torus}


def build(workload: str, seed: int, workdir: str) -> List[Job]:
    """Write the workload's documents for ``seed`` and return its jobs in a
    seeded order that every pass repeats."""
    r = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](r, Writer(workdir))
    r.shuffle(jobs)
    return jobs
