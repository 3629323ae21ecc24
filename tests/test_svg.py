"""Exact bytes of the planar SVG renderer.

Each render is pinned as text (or, for the longest, as its sha256), so any
change to the scaling, the number formatting or the order of the shapes
shows up as a diff.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from spectrekit import (
    RationalSpace,
    RectGap,
    achievement_set_2d,
    axis_gaps,
    example_series,
    finite_set,
    point,
    rect_gaps,
    series_spec,
)
from spectrekit.svg import render_planar_svg

HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">\n<rect width="800" height="800" fill="#ffffff"/>\n')
GAP_STYLE = 'fill="none" stroke="#dc2626" stroke-width="2"'


def circles(*centers: str) -> str:
    return "".join(f'<circle {c} r="4.0" fill="#1d4ed8"/>\n' for c in centers)


def document(*shapes: str) -> str:
    return HEAD + "".join(shapes) + "</svg>\n"


def example_set():
    return achievement_set_2d(example_series())


def test_the_example_with_its_largest_gap():
    E = example_set()
    assert render_planar_svg(E, rects=rect_gaps(E, mode="largest-by-area")) == document(
        f'<rect x="240" y="240" width="320" height="320" {GAP_STYLE}/>\n',
        circles('cx="48" cy="752"', 'cx="112" cy="304"', 'cx="144" cy="656"',
                'cx="208" cy="208"', 'cx="240" cy="560"', 'cx="304" cy="112"',
                'cx="496" cy="688"', 'cx="560" cy="240"', 'cx="592" cy="592"',
                'cx="656" cy="144"', 'cx="688" cy="496"', 'cx="752" cy="48"'))


def test_every_strip_and_every_rect_gap_of_a_three_term_series():
    E = achievement_set_2d(series_spec([["1/2", "1/3"], ["1/4", "1/9"], ["1/8", "1/27"]]))
    strips, rects = axis_gaps(E), rect_gaps(E)
    assert [g.axis for g in strips] == ["x"] * 7 + ["y"] * 7 and len(rects) == 7
    text = render_planar_svg(E, rects=rects, strips=strips)
    assert text.startswith(HEAD + '<rect x="48" y="48" width="100.571428571" height="704" '
                           'fill="#f59e0b" opacity="0.15"/>\n')
    assert '<rect x="48" y="697.846153846" width="704" height="54.1538461538" ' \
           'fill="#10b981" opacity="0.15"/>\n' in text
    assert text.count(GAP_STYLE) == 7 and text.count("<circle") == 8
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "10a722963c9d97f1bd15e10775395299a2f84cd961605f439585766324c0e78a"


def test_a_one_point_set_falls_back_to_unit_spans():
    E = finite_set(RationalSpace(2), [point("-1/3", "2/5")])
    assert render_planar_svg(E) == document(circles('cx="48" cy="752"'))


def test_a_gap_off_the_grid_widens_the_picture():
    # A library caller may outline any rectangle; its corners join the
    # bounding box even when they lie off E's grid and outside E's range.
    gap = RectGap(Fraction(-1, 7), Fraction(9, 7), Fraction(-1, 3), Fraction(2, 11))
    assert render_planar_svg(example_set(), rects=[gap]) == document(
        f'<rect x="48" y="539.707317073" width="662.588235294" height="212.292682927" '
        f'{GAP_STYLE}/>\n',
        circles('cx="114.258823529" cy="614.634146341"',
                'cx="172.235294118" cy="254.048780488"',
                'cx="201.223529412" cy="537.365853659"',
                'cx="259.2" cy="176.780487805"',
                'cx="288.188235294" cy="460.097560976"',
                'cx="346.164705882" cy="99.512195122"',
                'cx="520.094117647" cy="563.12195122"',
                'cx="578.070588235" cy="202.536585366"',
                'cx="607.058823529" cy="485.853658537"',
                'cx="665.035294118" cy="125.268292683"',
                'cx="694.023529412" cy="408.585365854"',
                'cx="752" cy="48"'))
