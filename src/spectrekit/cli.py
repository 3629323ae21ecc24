"""Command line interface.

Primary results go to stdout as canonical JSON (or CSV with --format csv);
diagnostics go to stderr.  Exit codes: 0 for success, 1 when a checker
refuted the claim under test, 2 for usage and input-format problems, 3 when
an enumeration exceeded the budget.  Equal inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DomainError,
    GroupMismatchError,
    ParseError,
    SpectreKitError,
)
from .formats import (
    decode_family,
    decode_pspec,
    decode_series,
    decode_set,
    dumps,
    encode_group,
    encode_series,
    encode_set,
    load_path,
)
from .groups import DistValue, FiniteAbelian
from .hyperspace import (
    ProbeReport,
    hausdorff,
    probe_spectre_continuity,
    refute_spectre_image,
)
from .planar import (
    AxisGap,
    RectGap,
    achievement_set_2d,
    axis_gaps,
    example_series,
    first_gap_lemma_2d,
    rect_gaps,
    second_gap_lemma_2d,
    third_gap_failure_witness,
)
from .psums import cantor_pair_demo, gap_translation_check, psum_set
from .rational import Point, Rat, format_rat, parse_rat
from .reports import LemmaReport
from .series import (
    Gap1D,
    achievement_set,
    find_gaps,
    first_gap_check_1d,
    series_spectre_checks,
    third_gap_check,
)
from .sets import (
    FiniteSet,
    PairWitness,
    SetVerdict,
    center_of_distances,
    densify_to_netset,
    is_net_set,
    is_non_sliding,
    spectre,
)
from .svg import render_planar_svg

FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    format: str = "json"
    budget: int = DEFAULT_BUDGET
    svg_path: Optional[str] = None

    @staticmethod
    def from_args(ns: argparse.Namespace) -> "RunConfig":
        return RunConfig(
            format=getattr(ns, "format", "json"),
            budget=getattr(ns, "budget", DEFAULT_BUDGET),
            svg_path=getattr(ns, "svg", None),
        )


# -- rendering helpers --------------------------------------------------------

def _emit(cfg: RunConfig, obj: Dict[str, Any], rows: List[List[Any]]) -> None:
    if cfg.format == "json":
        sys.stdout.write(dumps(obj))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _point_strs(p: Point) -> List[str]:
    return [format_rat(c) for c in p]


def _dist_obj(d: DistValue) -> Dict[str, Any]:
    return {"value": format_rat(d.value), "squared": d.squared}


def _witness_obj(w: Optional[PairWitness]) -> Optional[Dict[str, Any]]:
    if w is None:
        return None
    shared: Any
    if isinstance(w.shared_value, DistValue):
        shared = _dist_obj(w.shared_value)
    else:
        shared = _point_strs(w.shared_value)
    return {
        "pair_a": [_point_strs(p) for p in w.pair_a],
        "pair_b": [_point_strs(p) for p in w.pair_b],
        "shared_value": shared,
    }


def _verdict_payload(v: SetVerdict) -> Tuple[Dict[str, Any], List[List[Any]]]:
    obj = {"ok": v.ok, "reason": v.reason, "witness": _witness_obj(v.witness)}
    rows: List[List[Any]] = [["ok", v.ok], ["reason", v.reason]]
    if v.witness is not None:
        for name, pair in (("pair_a", v.witness.pair_a), ("pair_b", v.witness.pair_b)):
            for p in pair:
                rows.append([f"witness-{name}"] + _point_strs(p))
    return obj, rows


def _set_payload(A: FiniteSet) -> Tuple[Dict[str, Any], List[List[Any]]]:
    return encode_set(A), [_point_strs(p) for p in A.elements]


def _report_payload(r: LemmaReport) -> Tuple[Dict[str, Any], List[List[Any]]]:
    obj = {
        "name": r.name,
        "passed": r.passed,
        "note": r.note,
        "items": [
            {"label": i.label, "passed": i.passed, "detail": i.detail}
            for i in r.items
        ],
    }
    rows: List[List[Any]] = [["item", i.label, i.passed, i.detail] for i in r.items]
    rows.append(["result", r.passed])
    return obj, rows


def _gap1d_obj(g: Gap1D) -> Dict[str, Any]:
    return {
        "alpha": format_rat(g.alpha),
        "beta": format_rat(g.beta),
        "length": format_rat(g.length),
        "dominating": g.dominating,
    }


def _axis_gap_obj(g: AxisGap) -> Dict[str, Any]:
    return {"axis": g.axis, "lo": format_rat(g.lo), "hi": format_rat(g.hi),
            "length": format_rat(g.length)}


def _rect_gap_obj(g: RectGap) -> Dict[str, Any]:
    return {"a": format_rat(g.a), "b": format_rat(g.b),
            "c": format_rat(g.c), "d": format_rat(g.d),
            "area": format_rat(g.area)}


def _probe_payload(r: ProbeReport, kind: str) -> Tuple[Dict[str, Any], List[List[Any]]]:
    obj = {
        "kind": kind,
        "epsilon": format_rat(r.epsilon),
        "verdict": r.verdict,
        "tail_bound": None if r.tail_bound is None else format_rat(r.tail_bound),
        "usc_tail_ok": r.usc_tail_ok,
        "rows": [
            {
                "index": row.index,
                "input_distance": _dist_obj(row.input_distance),
                "spectre_distance": _dist_obj(row.spectre_distance),
                "usc_ok": row.usc_ok,
            }
            for row in r.rows
        ],
    }
    rows: List[List[Any]] = [
        ["row", row.index, format_rat(row.input_distance.value),
         format_rat(row.spectre_distance.value), row.usc_ok]
        for row in r.rows
    ]
    rows.append(["verdict", r.verdict,
                 "" if r.tail_bound is None else format_rat(r.tail_bound),
                 r.usc_tail_ok])
    return obj, rows


def _write_svg(cfg: RunConfig, E: FiniteSet,
               rects: Sequence[RectGap] = (),
               strips: Sequence[AxisGap] = ()) -> None:
    if cfg.svg_path is None:
        return
    content = render_planar_svg(E, rects=rects, strips=strips)
    with open(cfg.svg_path, "w", encoding="utf-8") as fh:
        fh.write(content)
    print(f"svg written to {cfg.svg_path}", file=sys.stderr)


def _parse_rat_list(text: str, expect: int, what: str) -> List[Rat]:
    parts = text.split(",")
    if len(parts) != expect:
        raise ParseError(f"{what} needs {expect} comma-separated rationals")
    return [parse_rat(p) for p in parts]


# -- command handlers ---------------------------------------------------------

def _cmd_spectre(ns: argparse.Namespace, cfg: RunConfig) -> int:
    A = decode_set(load_path(ns.set))
    S = spectre(A, mode=ns.mode, budget=cfg.budget)
    _emit(cfg, *_set_payload(S))
    return 0


def _cmd_center(ns: argparse.Namespace, cfg: RunConfig) -> int:
    A = decode_set(load_path(ns.set))
    values = center_of_distances(A)
    obj = {"group": encode_group(A.ctx), "values": [_dist_obj(d) for d in values]}
    rows = [[format_rat(d.value), d.squared] for d in values]
    _emit(cfg, obj, rows)
    return 0


def _cmd_netset_check(ns: argparse.Namespace, cfg: RunConfig) -> int:
    verdict = is_net_set(decode_set(load_path(ns.set)))
    _emit(cfg, *_verdict_payload(verdict))
    return 0 if verdict.ok else 1


def _cmd_netset_make(ns: argparse.Namespace, cfg: RunConfig) -> int:
    A = decode_set(load_path(ns.set))
    out = densify_to_netset(A, parse_rat(ns.eps))
    _emit(cfg, *_set_payload(out))
    return 0


def _cmd_nonsliding_check(ns: argparse.Namespace, cfg: RunConfig) -> int:
    verdict = is_non_sliding(decode_set(load_path(ns.set)))
    _emit(cfg, *_verdict_payload(verdict))
    return 0 if verdict.ok else 1


def _cmd_hausdorff(ns: argparse.Namespace, cfg: RunConfig) -> int:
    A = decode_set(load_path(ns.a))
    B = decode_set(load_path(ns.b))
    d = hausdorff(A, B)
    _emit(cfg, _dist_obj(d), [[format_rat(d.value), d.squared]])
    return 0


def _cmd_probe(ns: argparse.Namespace, cfg: RunConfig) -> int:
    A = decode_set(load_path(ns.set))
    family = decode_family(load_path(ns.family))
    report = probe_spectre_continuity(A, family, parse_rat(ns.eps))
    _emit(cfg, *_probe_payload(report, ns.probe_kind))
    if ns.probe_kind == "usc" and not report.usc_tail_ok:
        return 1
    return 0


def _cmd_refute_image(ns: argparse.Namespace, cfg: RunConfig) -> int:
    target = decode_set(load_path(ns.target))
    if ns.group is not None:
        moduli = [int(m) for m in ns.group.split(",")]
        ctx = FiniteAbelian(tuple(moduli))
        if ctx != target.ctx:
            raise GroupMismatchError(
                f"--group {ns.group} does not match the target's group")
    else:
        ctx = target.ctx
    result = refute_spectre_image(ctx, target, budget=cfg.budget)
    obj: Dict[str, Any] = {
        "found": result.found,
        "scanned": result.scanned,
        "witness": None if result.witness is None
        else [_point_strs(p) for p in result.witness.elements],
    }
    rows: List[List[Any]] = [["found", result.found, result.scanned]]
    if result.witness is not None:
        rows.extend(["witness-point"] + _point_strs(p)
                    for p in result.witness.elements)
    _emit(cfg, obj, rows)
    return 0


def _series_1d(path: str):
    s = decode_series(load_path(path))
    if s.dim != 1:
        raise DomainError("use the planar commands for two-dimensional series")
    return s


def _cmd_series_enumerate(ns: argparse.Namespace, cfg: RunConfig) -> int:
    E = achievement_set(_series_1d(ns.series), budget=cfg.budget)
    _emit(cfg, *_set_payload(E))
    return 0


def _cmd_series_gaps(ns: argparse.Namespace, cfg: RunConfig) -> int:
    E = achievement_set(_series_1d(ns.series), budget=cfg.budget)
    gaps = find_gaps(E)
    obj = {"gaps": [_gap1d_obj(g) for g in gaps]}
    rows = [["gap", format_rat(g.alpha), format_rat(g.beta),
             format_rat(g.length), g.dominating] for g in gaps]
    _emit(cfg, obj, rows)
    return 0


def _cmd_series_third_gap(ns: argparse.Namespace, cfg: RunConfig) -> int:
    report = third_gap_check(_series_1d(ns.series), budget=cfg.budget)
    _emit(cfg, *_report_payload(report))
    return 0 if report.passed else 1


def _cmd_series_first_gap(ns: argparse.Namespace, cfg: RunConfig) -> int:
    gap = first_gap_check_1d(_series_1d(ns.series), ns.k, budget=cfg.budget)
    obj = {"applicable": gap is not None,
           "gap": None if gap is None else _gap1d_obj(gap)}
    rows: List[List[Any]] = [["applicable", gap is not None]]
    if gap is not None:
        rows.append(["gap", format_rat(gap.alpha), format_rat(gap.beta),
                     format_rat(gap.length), gap.dominating])
    _emit(cfg, obj, rows)
    return 0


def _cmd_series_props(ns: argparse.Namespace, cfg: RunConfig) -> int:
    report = series_spectre_checks(_series_1d(ns.series), budget=cfg.budget)
    _emit(cfg, *_report_payload(report))
    return 0 if report.passed else 1


def _planar_series(path: str):
    s = decode_series(load_path(path))
    if s.dim != 2:
        raise DomainError("planar commands need two-dimensional series")
    return s


def _cmd_planar_enumerate(ns: argparse.Namespace, cfg: RunConfig) -> int:
    E = achievement_set_2d(_planar_series(ns.series), budget=cfg.budget)
    _write_svg(cfg, E)
    _emit(cfg, *_set_payload(E))
    return 0


def _cmd_planar_gaps(ns: argparse.Namespace, cfg: RunConfig) -> int:
    E = achievement_set_2d(_planar_series(ns.series), budget=cfg.budget)
    axial = axis_gaps(E)
    rect = rect_gaps(E, mode=ns.mode)
    _write_svg(cfg, E, rects=rect, strips=axial)
    obj = {"axis_gaps": [_axis_gap_obj(g) for g in axial],
           "rect_gaps": [_rect_gap_obj(g) for g in rect]}
    rows: List[List[Any]] = [
        ["axis-gap", g.axis, format_rat(g.lo), format_rat(g.hi)] for g in axial
    ]
    rows.extend(["rect-gap", format_rat(g.a), format_rat(g.b),
                 format_rat(g.c), format_rat(g.d), format_rat(g.area)]
                for g in rect)
    _emit(cfg, obj, rows)
    return 0


def _cmd_planar_first_gap(ns: argparse.Namespace, cfg: RunConfig) -> int:
    report = first_gap_lemma_2d(_planar_series(ns.series), ns.k, budget=cfg.budget)
    _emit(cfg, *_report_payload(report))
    return 0 if report.passed else 1


def _cmd_planar_second_gap(ns: argparse.Namespace, cfg: RunConfig) -> int:
    a, b, c, d = _parse_rat_list(ns.rect, 4, "--rect")
    report = second_gap_lemma_2d(_planar_series(ns.series), RectGap(a, b, c, d),
                                 budget=cfg.budget)
    _emit(cfg, *_report_payload(report))
    return 0 if report.passed else 1


def _cmd_planar_example(ns: argparse.Namespace, cfg: RunConfig) -> int:
    s = example_series()
    E = achievement_set_2d(s, budget=cfg.budget)
    largest = rect_gaps(E, mode="largest-by-area")
    _write_svg(cfg, E, rects=largest)
    obj: Dict[str, Any] = {
        "series": encode_series(s),
        "set": encode_set(E),
        "largest_rect_gaps": [_rect_gap_obj(g) for g in largest],
    }
    rows: List[List[Any]] = [_point_strs(p) for p in E.elements]
    code = 0
    if ns.check:
        report = third_gap_failure_witness(budget=cfg.budget)
        obj["report"] = _report_payload(report)[0]
        rows.extend(_report_payload(report)[1])
        code = 0 if report.passed else 1
    _emit(cfg, obj, rows)
    return code


def _cmd_psum_enumerate(ns: argparse.Namespace, cfg: RunConfig) -> int:
    T = psum_set(decode_pspec(load_path(ns.pspec)), budget=cfg.budget)
    _emit(cfg, *_set_payload(T))
    return 0


def _cmd_psum_translate(ns: argparse.Namespace, cfg: RunConfig) -> int:
    T = psum_set(decode_pspec(load_path(ns.pspec)), budget=cfg.budget)
    a, b = _parse_rat_list(ns.gap, 2, "--gap")
    result = gap_translation_check(T, (a, b))
    obj = {
        "ok": result.ok,
        "epsilon": None if result.epsilon is None else format_rat(result.epsilon),
        "candidates": [format_rat(c) for c in result.candidates],
    }
    rows: List[List[Any]] = [
        ["ok", result.ok,
         "" if result.epsilon is None else format_rat(result.epsilon)]
    ]
    _emit(cfg, obj, rows)
    return 0 if result.ok else 1


def _cmd_psum_demo(ns: argparse.Namespace, cfg: RunConfig) -> int:
    demo = cantor_pair_demo(ns.levels)
    obj = {
        "note": demo.note,
        "strictly_decreasing": demo.strictly_decreasing,
        "rows": [{"level": m, "epsilon": format_rat(e)} for m, e in demo.rows],
    }
    rows = [["level", m, format_rat(e)] for m, e in demo.rows]
    rows.append(["strictly_decreasing", demo.strictly_decreasing])
    _emit(cfg, obj, rows)
    return 0 if demo.strictly_decreasing else 1


# -- parser -------------------------------------------------------------------

def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json",
                        help="output format (default json)")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration budget (default 2^20)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="spectrekit",
        description="exact spectres, centers of distances, achievement sets, "
                    "and gap structure of finite sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectre", parents=[common],
                       help="compute the spectre of a finite set")
    p.add_argument("--set", required=True, metavar="FILE")
    p.add_argument("--mode", choices=("fast", "oracle"), default="fast")
    p.set_defaults(handler=_cmd_spectre)

    p = sub.add_parser("center", parents=[common],
                       help="compute the center of distances")
    p.add_argument("--set", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_center)

    netset = sub.add_parser("netset", help="net-set checks and constructions")
    netsub = netset.add_subparsers(dest="subcommand", required=True)
    p = netsub.add_parser("check", parents=[common])
    p.add_argument("--set", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_netset_check)
    p = netsub.add_parser("make", parents=[common])
    p.add_argument("--set", required=True, metavar="FILE")
    p.add_argument("--eps", required=True, metavar="R")
    p.set_defaults(handler=_cmd_netset_make)

    nonsliding = sub.add_parser("nonsliding", help="non-sliding checks")
    nonsub = nonsliding.add_subparsers(dest="subcommand", required=True)
    p = nonsub.add_parser("check", parents=[common])
    p.add_argument("--set", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_nonsliding_check)

    p = sub.add_parser("hausdorff", parents=[common],
                       help="Hausdorff distance between two sets")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_hausdorff)

    probe = sub.add_parser("probe", help="probe the spectre map along a family")
    probesub = probe.add_subparsers(dest="subcommand", required=True)
    for kind in ("continuity", "usc"):
        p = probesub.add_parser(kind, parents=[common])
        p.add_argument("--set", required=True, metavar="FILE")
        p.add_argument("--family", required=True, metavar="FILE")
        p.add_argument("--eps", required=True, metavar="R")
        p.set_defaults(handler=_cmd_probe, probe_kind=kind)

    p = sub.add_parser("refute-image", parents=[common],
                       help="scan a finite group for a set with the given spectre")
    p.add_argument("--target", required=True, metavar="FILE")
    p.add_argument("--group", default=None, metavar="M1,M2,...",
                   help="moduli of the group to scan (default: the target's)")
    p.set_defaults(handler=_cmd_refute_image)

    series = sub.add_parser("series", help="scalar series and their gaps")
    sersub = series.add_subparsers(dest="subcommand", required=True)
    for name, handler in (("enumerate", _cmd_series_enumerate),
                          ("gaps", _cmd_series_gaps),
                          ("third-gap", _cmd_series_third_gap),
                          ("spectre-props", _cmd_series_props)):
        p = sersub.add_parser(name, parents=[common])
        p.add_argument("--series", required=True, metavar="FILE")
        p.set_defaults(handler=handler)
    p = sersub.add_parser("first-gap", parents=[common])
    p.add_argument("--series", required=True, metavar="FILE")
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(handler=_cmd_series_first_gap)

    planar = sub.add_parser("planar", help="planar series and their gaps")
    plansub = planar.add_subparsers(dest="subcommand", required=True)
    p = plansub.add_parser("enumerate", parents=[common])
    p.add_argument("--series", required=True, metavar="FILE")
    p.add_argument("--svg", default=None, metavar="FILE")
    p.set_defaults(handler=_cmd_planar_enumerate)
    p = plansub.add_parser("gaps", parents=[common])
    p.add_argument("--series", required=True, metavar="FILE")
    p.add_argument("--mode", choices=("all", "largest-by-area"), default="all")
    p.add_argument("--svg", default=None, metavar="FILE")
    p.set_defaults(handler=_cmd_planar_gaps)
    p = plansub.add_parser("first-gap", parents=[common])
    p.add_argument("--series", required=True, metavar="FILE")
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(handler=_cmd_planar_first_gap)
    p = plansub.add_parser("second-gap", parents=[common])
    p.add_argument("--series", required=True, metavar="FILE")
    p.add_argument("--rect", required=True, metavar="a,b,c,d")
    p.set_defaults(handler=_cmd_planar_second_gap)
    p = plansub.add_parser("example", parents=[common])
    p.add_argument("--check", action="store_true",
                   help="also verify the known facts about the example")
    p.add_argument("--svg", default=None, metavar="FILE")
    p.set_defaults(handler=_cmd_planar_example)

    psum = sub.add_parser("psum", help="P-sum sets and gap translation")
    psumsub = psum.add_subparsers(dest="subcommand", required=True)
    p = psumsub.add_parser("enumerate", parents=[common])
    p.add_argument("--pspec", required=True, metavar="FILE")
    p.set_defaults(handler=_cmd_psum_enumerate)
    p = psumsub.add_parser("gap-translate", parents=[common])
    p.add_argument("--pspec", required=True, metavar="FILE")
    p.add_argument("--gap", required=True, metavar="a,b")
    p.set_defaults(handler=_cmd_psum_translate)
    p = psumsub.add_parser("cantor-demo", parents=[common])
    p.add_argument("--levels", required=True, type=int)
    p.set_defaults(handler=_cmd_psum_demo)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig.from_args(ns)
    try:
        return ns.handler(ns, cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, DomainError, GroupMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectreKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> None:
    raise SystemExit(run(argv))
