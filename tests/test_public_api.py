"""The library's public surface: the names ``spectrekit`` exports, and the
README's library example, which uses some of them."""

from __future__ import annotations

import re
import types
from fractions import Fraction
from pathlib import Path

import spectrekit

PUBLIC = [
    "AxisGap", "BudgetExceededError", "CheckItem", "DEFAULT_BUDGET", "DemoReport", "DistValue",
    "DomainError", "FiniteAbelian", "FiniteSet", "Gap1D", "GroupCtx", "GroupMismatchError",
    "LemmaReport", "PairWitness", "ParseError", "Point", "ProbeReport", "Rat", "RationalSpace",
    "RectGap", "RefuteResult", "SeriesSpec", "SetVerdict", "SpectreKitError",
    "achievement_set", "achievement_set_2d", "axis_gaps", "cantor_pair_demo",
    "center_of_distances", "densify_to_netset", "dist", "distance_set", "example_series",
    "fatten_contains", "find_gaps", "finite_set", "first_gap_check_1d", "first_gap_lemma_2d",
    "format_rat", "gap_translation_check", "hausdorff", "initial_subsums", "is_net_set",
    "is_non_sliding", "minkowski_sum", "negate", "parse_rat", "point",
    "probe_spectre_continuity", "psum_set", "rect_gaps", "refute_spectre_image",
    "remainder_subsums", "second_gap_lemma_2d", "series_spec", "series_spectre_checks",
    "spectre", "third_gap_check", "third_gap_failure_witness", "translate", "zero",
]


def test_the_exported_names_are_the_public_surface():
    # A change to this list is a change to the library's API.
    names = sorted(name for name, value in vars(spectrekit).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_the_readme_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), {})
    spectre = tuple((Fraction(n, 4),) for n in (-2, -1, 0, 1, 2))  # 0, +-1/4, +-1/2
    center = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
    assert capsys.readouterr().out.splitlines() == [repr(spectre), repr(spectre), repr(center)]
