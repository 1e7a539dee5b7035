"""The operand contract: every decision takes its operands over one ring and
at one rank, and every entry point rejects a fault the same way, through
``poly.check_operands``.  A generator over another ring is a
MismatchedRingError, one of another rank (or matrix size) a
DimensionMismatchError."""

import pytest

from semimod.closure import (
    bilinear_encoding,
    find_vanishing_witness,
    radical_member,
    semiprime_member,
)
from semimod.errors import DimensionMismatchError, MismatchedRingError
from semimod.fields import QQ, PrimeField
from semimod.groebner import (
    SubmodulePresentation,
    buchberger,
    normal_form,
    s_vector,
    submodule_member,
)
from semimod.matrixideals import (
    LeftIdealPresentation,
    matrix_member,
    matrix_semiprime_member,
)
from semimod.oracle import oracle_check, vanishing_scan
from semimod.poly import PolyMatrix, PolyRing, VectorPoly, check_operands
from semimod.submodules import (
    HyperplaneSubmodule,
    hyperplane_member,
    semiprime_refutation,
)

R = PolyRing(QQ, ("x", "y"))
# Q[x] is a prefix of Q[x, y], so a generator over it could be lifted
# silently; it must be rejected instead
PREFIX = PolyRing(QQ, ("x",))
X, Y = R.variables()
F = VectorPoly(R, [X, Y])
G = VectorPoly(R, [X * X, X * Y])
FM = PolyMatrix(R, [[X, 0], [0, Y]])
GM = PolyMatrix(R, [[X * X, X * Y], [0, 0]])

# the faulty generator of each kind, per fault
BAD = {
    "ring": {
        "vector": VectorPoly(PREFIX, [PREFIX.variable(0), 0]),
        "matrix": PolyMatrix(PREFIX, [[PREFIX.variable(0), 0], [0, 1]]),
        "poly": PREFIX.variable(0),
    },
    "rank": {
        "vector": VectorPoly(R, [X, Y, X]),
        "matrix": PolyMatrix(R, [[X, 0, 0], [0, Y, 0], [0, 0, 1]]),
    },
}
ERROR = {"ring": MismatchedRingError, "rank": DimensionMismatchError}


def _presentation(g):
    return SubmodulePresentation(g.ring, len(g), [g])


def _ideal(g):
    return LeftIdealPresentation(g.ring, len(g), [g])


# entry point -> (kind of the faulty generator, call with it)
ENTRY_POINTS = {
    "normal_form[list]": ("vector", lambda bad: normal_form(F, [G, bad])),
    "normal_form[basis]": ("vector", lambda bad: normal_form(F, buchberger([bad]))),
    "s_vector": ("vector", lambda bad: s_vector(G, bad)),
    "buchberger": ("vector", lambda bad: buchberger([G, bad])),
    "SubmodulePresentation": ("vector", lambda bad: SubmodulePresentation(R, 2, [G, bad])),
    "submodule_member": ("vector", lambda bad: submodule_member(F, _presentation(bad))),
    "semiprime_member": ("vector", lambda bad: semiprime_member(F, _presentation(bad))),
    "semiprime_refutation": (
        "vector", lambda bad: semiprime_refutation(_presentation(bad), F)
    ),
    "bilinear_encoding": ("vector", lambda bad: bilinear_encoding(F, [G, bad])),
    "radical_member": ("poly", lambda bad: radical_member(X, [X * Y, bad])),
    "LeftIdealPresentation": ("matrix", lambda bad: LeftIdealPresentation(R, 2, [GM, bad])),
    "matrix_member": ("matrix", lambda bad: matrix_member(FM, _ideal(bad))),
    "matrix_semiprime_member": (
        "matrix", lambda bad: matrix_semiprime_member(FM, [GM, bad])
    ),
    "vanishing_scan": (
        "vector", lambda bad: vanishing_scan(F, [G, bad], QQ, iter([((0,), [0])]), 10)
    ),
    "oracle_check": ("vector", lambda bad: oracle_check(F, [G, bad], PrimeField(3))),
    "find_vanishing_witness": ("vector", lambda bad: find_vanishing_witness(F, [G, bad])),
    "hyperplane_member": (
        "vector", lambda bad: hyperplane_member(bad, HyperplaneSubmodule(R, (0, 0), (1, 0)))
    ),
}

CASES = [
    (name, fault)
    for name, (kind, _) in ENTRY_POINTS.items()
    for fault in ("ring", "rank")
    if kind in BAD[fault]  # a polynomial has no rank
]


@pytest.mark.parametrize("name, fault", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_every_entry_point_rejects_another_ring_or_rank(name, fault):
    kind, call = ENTRY_POINTS[name]
    with pytest.raises(ERROR[fault]):
        call(BAD[fault][kind])


def test_check_operands_names_the_fault():
    check_operands(R, 2, [F, G, FM], "generator")
    check_operands(R, None, [X, Y], "generator")
    with pytest.raises(MismatchedRingError, match=r"^generator over QQ\[x\], expected QQ\[x,y\]$"):
        check_operands(R, 2, [F, BAD["ring"]["vector"]], "generator")
    with pytest.raises(DimensionMismatchError, match=r"^query of rank or size 3, expected 2$"):
        check_operands(R, 2, [BAD["rank"]["matrix"]], "query")
