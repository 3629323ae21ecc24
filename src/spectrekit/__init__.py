"""Exact computation of spectres, centers of distances, achievement sets,
and gap structure for finite sets in Abelian metric groups."""

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DomainError,
    GroupMismatchError,
    ParseError,
    SpectreKitError,
)
from .groups import (
    DistValue,
    FiniteAbelian,
    GroupCtx,
    RationalSpace,
    dist,
    zero,
)
from .hyperspace import (
    ProbeReport,
    RefuteResult,
    fatten_contains,
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
from .psums import (
    DemoReport,
    cantor_pair_demo,
    gap_translation_check,
    psum_set,
)
from .rational import Point, Rat, format_rat, parse_rat, point
from .reports import CheckItem, LemmaReport
from .series import (
    Gap1D,
    SeriesSpec,
    achievement_set,
    find_gaps,
    first_gap_check_1d,
    initial_subsums,
    remainder_subsums,
    series_spec,
    series_spectre_checks,
    third_gap_check,
)
from .sets import (
    FiniteSet,
    PairWitness,
    SetVerdict,
    center_of_distances,
    densify_to_netset,
    distance_set,
    finite_set,
    is_net_set,
    is_non_sliding,
    minkowski_sum,
    negate,
    spectre,
    translate,
)

__version__ = "0.1.0"
