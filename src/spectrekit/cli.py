"""Command line interface.

Primary results go to stdout as canonical JSON (or CSV with --format csv);
diagnostics go to stderr.  Exit codes: 0 for success, 1 when a checker
refuted the claim under test, 2 for usage and input-format problems, 3 when
an enumeration exceeded the budget, 4 for an internal error (no payload).
Equal inputs produce byte-identical output.

Every command is one entry of ``COMMANDS``; ``build_parser`` turns the table
into the argparse tree.  A handler takes the parsed namespace and returns
``(json_obj, csv_rows, exit_code)``; ``run`` alone writes stdout and maps
errors to exit codes.  Handlers reach library functions through this
module's globals at call time, so code that replaces those names (a tracer)
sees every call.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    encode_result,
    encode_series,
    encode_set,
    load_path,
)
from .hyperspace import hausdorff, probe_spectre_continuity, refute_spectre_image
from .planar import (
    RECT_GAP_MODES,
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
from .rational import Rat, format_rat, parse_rat
from .reports import LemmaReport
from .series import (
    Gap1D,
    SeriesSpec,
    achievement_set,
    find_gaps,
    first_gap_check_1d,
    series_spectre_checks,
    third_gap_check,
)
from .sets import (
    SPECTRE_MODES,
    FiniteSet,
    SetVerdict,
    center_of_distances,
    densify_to_netset,
    is_net_set,
    is_non_sliding,
    spectre,
)
from .svg import render_planar_svg

FORMATS = ("json", "csv")

Rows = List[List[Any]]
Result = Tuple[Dict[str, Any], Rows, int]


# -- rendering helpers --------------------------------------------------------

def _emit(fmt: str, obj: Dict[str, Any], rows: Rows) -> None:
    if fmt == "json":
        sys.stdout.write(dumps(obj))
        return
    import csv  # only CSV output needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _verdict_result(v: SetVerdict) -> Result:
    obj = encode_result(v)
    rows: Rows = [["ok", v.ok], ["reason", v.reason]]
    if v.witness is not None:
        for name in ("pair_a", "pair_b"):
            rows.extend([f"witness-{name}", *p] for p in obj["witness"][name])
    return obj, rows, 0 if v.ok else 1


def _set_result(A: FiniteSet) -> Result:
    obj = encode_set(A)
    return obj, obj["points"], 0


def _report_result(r: LemmaReport) -> Result:
    obj = {**encode_result(r), "passed": r.passed}
    rows: Rows = [["item", i.label, i.passed, i.detail] for i in r.items]
    rows.append(["result", r.passed])
    return obj, rows, 0 if r.passed else 1


# Gap1D and RectGap come in lists of thousands, so they have writers of their
# own: encode_result's per-field dispatch made them 15-50% slower to encode.

def _gap1d_obj(g: Gap1D) -> Dict[str, Any]:
    return {
        "alpha": format_rat(g.alpha),
        "beta": format_rat(g.beta),
        "length": format_rat(g.length),
        "dominating": g.dominating,
    }


def _rect_gap_obj(g: RectGap) -> Dict[str, Any]:
    return {"a": format_rat(g.a), "b": format_rat(g.b),
            "c": format_rat(g.c), "d": format_rat(g.d),
            "area": format_rat(g.area)}


def _write_svg(path: Optional[str], E: FiniteSet,
               rects: Sequence[RectGap] = (),
               strips: Sequence[AxisGap] = ()) -> None:
    if path is None:
        return
    content = render_planar_svg(E, rects=rects, strips=strips)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None
    print(f"svg written to {path}", file=sys.stderr)


def _parse_rat_list(text: str, expect: int, what: str) -> List[Rat]:
    parts = text.split(",")
    if len(parts) != expect:
        raise ParseError(f"{what} needs {expect} comma-separated rationals")
    return [parse_rat(p) for p in parts]


def _budget(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _load_set(path: str) -> FiniteSet:
    return decode_set(load_path(path))


def _series(ns: argparse.Namespace, dim: Optional[int]) -> SeriesSpec:
    """The series of ``--series``, of dimension ``dim``, or 1 or 2 for None."""
    s = decode_series(load_path(ns.series))
    if s.dim not in (1, 2):
        raise DomainError(f"series commands need one- or two-dimensional series, "
                          f"got dimension {s.dim}")
    if dim is not None and s.dim != dim:
        raise DomainError("planar commands need two-dimensional series" if dim == 2
                          else "use the planar commands for two-dimensional series")
    return s


# -- command handlers ---------------------------------------------------------

def _cmd_spectre(ns: argparse.Namespace) -> Result:
    return _set_result(spectre(_load_set(ns.set), mode=ns.mode, budget=ns.budget))


def _cmd_center(ns: argparse.Namespace) -> Result:
    A = _load_set(ns.set)
    values = encode_result(center_of_distances(A))
    obj = {"group": encode_group(A.ctx), "values": values}
    return obj, [list(d.values()) for d in values], 0


def _cmd_netset_check(ns: argparse.Namespace) -> Result:
    return _verdict_result(is_net_set(_load_set(ns.set)))


def _cmd_netset_make(ns: argparse.Namespace) -> Result:
    return _set_result(densify_to_netset(_load_set(ns.set), parse_rat(ns.eps)))


def _cmd_nonsliding_check(ns: argparse.Namespace) -> Result:
    return _verdict_result(is_non_sliding(_load_set(ns.set)))


def _cmd_hausdorff(ns: argparse.Namespace) -> Result:
    d = encode_result(hausdorff(_load_set(ns.a), _load_set(ns.b)))
    return d, [list(d.values())], 0


def _cmd_probe(ns: argparse.Namespace) -> Result:
    A = _load_set(ns.set)
    family = decode_family(load_path(ns.family))
    r = probe_spectre_continuity(A, family, parse_rat(ns.eps))
    obj = {**encode_result(r), "kind": ns.subcommand}
    rows: Rows = [
        ["row", row["index"], row["input_distance"]["value"],
         row["spectre_distance"]["value"], row["usc_ok"]]
        for row in obj["rows"]
    ]
    rows.append(["verdict", r.verdict, obj["tail_bound"] or "", r.usc_tail_ok])
    return obj, rows, 1 if ns.subcommand == "usc" and not r.usc_tail_ok else 0


def _cmd_refute_image(ns: argparse.Namespace) -> Result:
    obj = encode_result(refute_spectre_image(_load_set(ns.target), budget=ns.budget))
    rows = [["found", obj["found"], obj["scanned"]]]
    return obj, rows + [["witness-point", *p] for p in obj["witness"] or ()], 0


def _cmd_series_enumerate(ns: argparse.Namespace) -> Result:
    return _set_result(achievement_set(_series(ns, 1), budget=ns.budget))


def _cmd_series_gaps(ns: argparse.Namespace) -> Result:
    E = achievement_set(_series(ns, 1), budget=ns.budget)
    gaps = [_gap1d_obj(g) for g in find_gaps(E)]
    return {"gaps": gaps}, [["gap", *g.values()] for g in gaps], 0


def _cmd_series_third_gap(ns: argparse.Namespace) -> Result:
    return _report_result(third_gap_check(_series(ns, 1), budget=ns.budget))


def _cmd_series_first_gap(ns: argparse.Namespace) -> Result:
    gap = first_gap_check_1d(_series(ns, 1), ns.k, budget=ns.budget)
    g = None if gap is None else _gap1d_obj(gap)
    rows: Rows = [["applicable", g is not None]]
    if g is not None:
        rows.append(["gap", *g.values()])
    return {"applicable": g is not None, "gap": g}, rows, 0


def _cmd_series_props(ns: argparse.Namespace) -> Result:
    return _report_result(series_spectre_checks(_series(ns, None), budget=ns.budget))


def _cmd_planar_enumerate(ns: argparse.Namespace) -> Result:
    E = achievement_set_2d(_series(ns, 2), budget=ns.budget)
    _write_svg(ns.svg, E)
    return _set_result(E)


def _cmd_planar_gaps(ns: argparse.Namespace) -> Result:
    E = achievement_set_2d(_series(ns, 2), budget=ns.budget)
    axial = axis_gaps(E)
    rect = rect_gaps(E, mode=ns.mode)
    _write_svg(ns.svg, E, rects=rect, strips=axial)
    obj = {"axis_gaps": [{**encode_result(g), "length": format_rat(g.length)}
                         for g in axial],
           "rect_gaps": [_rect_gap_obj(g) for g in rect]}
    # Axis-gap rows leave out the length.
    rows: Rows = [["axis-gap", g["axis"], g["lo"], g["hi"]] for g in obj["axis_gaps"]]
    rows.extend(["rect-gap", *g.values()] for g in obj["rect_gaps"])
    return obj, rows, 0


def _cmd_planar_first_gap(ns: argparse.Namespace) -> Result:
    return _report_result(first_gap_lemma_2d(_series(ns, 2), ns.k, budget=ns.budget))


def _cmd_planar_second_gap(ns: argparse.Namespace) -> Result:
    a, b, c, d = _parse_rat_list(ns.rect, 4, "--rect")
    return _report_result(second_gap_lemma_2d(_series(ns, 2), RectGap(a, b, c, d),
                                              budget=ns.budget))


def _cmd_planar_example(ns: argparse.Namespace) -> Result:
    s = example_series()
    E = achievement_set_2d(s, budget=ns.budget)
    largest = rect_gaps(E, mode="largest-by-area")
    _write_svg(ns.svg, E, rects=largest)
    obj: Dict[str, Any] = {
        "series": encode_series(s),
        "set": encode_set(E),
        "largest_rect_gaps": [_rect_gap_obj(g) for g in largest],
    }
    rows: Rows = list(obj["set"]["points"])
    code = 0
    if ns.check:
        obj["report"], report_rows, code = _report_result(
            third_gap_failure_witness(budget=ns.budget))
        rows.extend(report_rows)
    return obj, rows, code


def _cmd_psum_enumerate(ns: argparse.Namespace) -> Result:
    return _set_result(psum_set(decode_pspec(load_path(ns.pspec)), budget=ns.budget))


def _cmd_psum_translate(ns: argparse.Namespace) -> Result:
    T = psum_set(decode_pspec(load_path(ns.pspec)), budget=ns.budget)
    a, b = _parse_rat_list(ns.gap, 2, "--gap")
    # The check raises unless (a, b) is a gap, and a gap's radius is positive.
    epsilon = format_rat(gap_translation_check(T, (a, b)))
    return {"ok": True, "epsilon": epsilon}, [["ok", True, epsilon]], 0


def _cmd_psum_demo(ns: argparse.Namespace) -> Result:
    demo = cantor_pair_demo(ns.levels)
    obj = {**encode_result(demo),
           "rows": [{"level": m, "epsilon": format_rat(e)} for m, e in demo.rows]}
    rows: Rows = [["level", *r.values()] for r in obj["rows"]]
    rows.append(["strictly_decreasing", demo.strictly_decreasing])
    return obj, rows, 0 if demo.strictly_decreasing else 1


# -- command table ------------------------------------------------------------

Arg = Tuple[str, Dict[str, Any]]


class Command(NamedTuple):
    words: str                     # "spectre", or "<group> <leaf>"
    handler: Callable[[argparse.Namespace], Result]
    args: Tuple[Arg, ...] = ()
    help: Optional[str] = None


def _file(flag: str) -> Arg:
    return flag, {"required": True, "metavar": "FILE"}


SET, SERIES, PSPEC = _file("--set"), _file("--series"), _file("--pspec")
EPS: Arg = ("--eps", {"required": True, "metavar": "R"})
K: Arg = ("--k", {"required": True, "type": int})
SVG: Arg = ("--svg", {"metavar": "FILE"})

GROUP_HELP = {
    "netset": "net-set checks and constructions",
    "nonsliding": "non-sliding checks",
    "probe": "probe the spectre map along a family",
    "series": "scalar series and their gaps",
    "planar": "planar series and their gaps",
    "psum": "P-sum sets and gap translation",
}

# In --help order: groups are listed where their first command stands.
COMMANDS: Tuple[Command, ...] = (
    Command("spectre", _cmd_spectre,
            (SET, ("--mode", {"choices": SPECTRE_MODES, "default": "fast"})),
            help="compute the spectre of a finite set"),
    Command("center", _cmd_center, (SET,), help="compute the center of distances"),
    Command("netset check", _cmd_netset_check, (SET,)),
    Command("netset make", _cmd_netset_make, (SET, EPS)),
    Command("nonsliding check", _cmd_nonsliding_check, (SET,)),
    Command("hausdorff", _cmd_hausdorff, (_file("--a"), _file("--b")),
            help="Hausdorff distance between two sets"),
    Command("probe continuity", _cmd_probe, (SET, _file("--family"), EPS)),
    Command("probe usc", _cmd_probe, (SET, _file("--family"), EPS)),
    Command("refute-image", _cmd_refute_image, (_file("--target"),),
            help="scan the target's finite group for a set with that spectre"),
    Command("series enumerate", _cmd_series_enumerate, (SERIES,)),
    Command("series gaps", _cmd_series_gaps, (SERIES,)),
    Command("series third-gap", _cmd_series_third_gap, (SERIES,)),
    Command("series spectre-props", _cmd_series_props, (SERIES,)),
    Command("series first-gap", _cmd_series_first_gap, (SERIES, K)),
    Command("planar enumerate", _cmd_planar_enumerate, (SERIES, SVG)),
    Command("planar gaps", _cmd_planar_gaps,
            (SERIES, ("--mode", {"choices": RECT_GAP_MODES, "default": "all"}),
             SVG)),
    Command("planar first-gap", _cmd_planar_first_gap, (SERIES, K)),
    Command("planar second-gap", _cmd_planar_second_gap,
            (SERIES, ("--rect", {"required": True, "metavar": "a,b,c,d"}))),
    Command("planar example", _cmd_planar_example,
            (("--check", {"action": "store_true",
                          "help": "also verify the known facts about the example"}),
             SVG)),
    Command("psum enumerate", _cmd_psum_enumerate, (PSPEC,)),
    Command("psum gap-translate", _cmd_psum_translate,
            (PSPEC, ("--gap", {"required": True, "metavar": "a,b"}))),
    Command("psum cantor-demo", _cmd_psum_demo,
            (("--levels", {"required": True, "type": int}),)),
)


def _named(argv: Sequence[str]) -> Optional[Command]:
    """The command whose words lead ``argv``, if any."""
    for cmd in COMMANDS:
        words = cmd.words.split()
        if list(argv[:len(words)]) == words:
            return cmd
    return None


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The argparse tree of ``COMMANDS``.  When the leading words of ``argv``
    name a command, only the parsers on its path are built; the parse, help
    and error texts are the same as the full tree's."""
    named = None if argv is None else _named(argv)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json",
                        help="output format (default json)")
    common.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                        help="enumeration budget (default 2^20)")
    parser = argparse.ArgumentParser(
        prog="spectrekit",
        description="exact spectres, centers of distances, achievement sets, "
                    "and gap structure of finite sets",
    )
    # The top usage, shown with an "unrecognized arguments" error, lists
    # every command name whether or not its parser was built.
    names = dict.fromkeys(cmd.words.split()[0] for cmd in COMMANDS)
    top = parser.add_subparsers(dest="command", required=True,
                                metavar=None if named is None else "{%s}" % ",".join(names))
    groups: Dict[str, Any] = {}
    for cmd in COMMANDS if named is None else (named,):
        *group, leaf = cmd.words.split()
        sub = top
        if group:
            name = group[0]
            if name not in groups:
                groups[name] = top.add_parser(name, help=GROUP_HELP[name]).add_subparsers(
                    dest="subcommand", required=True)
            sub = groups[name]
        p = sub.add_parser(leaf, parents=[common],
                           **({} if cmd.help is None else {"help": cmd.help}))
        for flag, spec in cmd.args:
            p.add_argument(flag, **spec)
        p.set_defaults(handler=cmd.handler)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        obj, rows, code = ns.handler(ns)
        _emit(ns.format, obj, rows)
        return code
    except (SpectreKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            return 3
        if isinstance(exc, (ParseError, DomainError, GroupMismatchError, ValueError)):
            return 2
        return 4


def main(argv: Optional[Sequence[str]] = None) -> None:
    raise SystemExit(run(argv))
