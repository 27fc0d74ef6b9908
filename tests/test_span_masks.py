"""The survey with one mask bit per projected span against one bit per class.

equiproj._cells gives the other classes one bit per distinct span of
their rows projected into the class's complement, and none to a class
whose rows span all of it. oracles.oracle_cells keeps one bit per other
class. _survey reads one cell per mirror pair of the difference body's
faces (_cells' one_per_pair); the oracle yields every cell. The
certificates of _survey must not tell them apart: on pn(6), where most
classes drop out, and on random hulls in d = 4 and 5.
"""

from operator import sub
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

import shadowlab.equiproj as eq
import shadowlab.families as fam
import shadowlab.kernels as kernels
import shadowlab.polytope as pt
from oracles import oracle_cells


def every_cell(p, cid, one_per_pair):
    """oracle_cells in place of _survey's call of _cells: every cell,
    with one bit per other class, the mirror pairs' later cells kept."""
    return oracle_cells(p, cid)


def check_survey(p):
    with mock.patch.object(eq, "_cells", every_cell):
        want = eq._survey(p)
    assert eq._survey(p) == want


def test_survey_on_pn6_matches_per_class_masks():
    check_survey(fam.pn_polytope(6))


@st.composite
def hulls(draw):
    """The hull of d + 2 to d + 3 integer points in d = 4 or 5."""
    d = draw(st.integers(4, 5))
    coord = st.integers(-3, 3)
    pts = draw(
        st.lists(st.tuples(*[coord] * d), min_size=d + 2, max_size=d + 3, unique=True)
    )
    assume(kernels.rank_int([tuple(map(sub, q, pts[0])) for q in pts]) == d)
    return pt.hull(pts)


@settings(max_examples=12, deadline=None)
@given(hulls())
def test_survey_on_random_hulls_matches_per_class_masks(p):
    check_survey(p)
