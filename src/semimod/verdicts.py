"""Decision results shared by the membership engines."""

from __future__ import annotations

from typing import NamedTuple

# How a verdict transfers to extension fields.  Over the rationals the
# decision agrees with the decision over the algebraic closure, both ways
# ("extension-stable").  Over a finite base field a positive verdict stays
# sound for every extension point, but a negative one need not come with a
# base-field witness ("sound-only").
EXTENSION_STABLE = "extension-stable"
SOUND_ONLY = "sound-only"


def guarantee_for(field) -> str:
    """The guarantee label of verdicts decided over ``field``."""
    return EXTENSION_STABLE if field.char == 0 else SOUND_ONLY


class Witness(NamedTuple):
    """A point a and direction v with g(a).v = 0 for every generator g while
    the query does not vanish; always re-verified before being emitted."""

    point: tuple
    vector: tuple

    def as_json(self):
        return {
            "point": [str(x) for x in self.point],
            "vector": [str(x) for x in self.vector],
        }


class Verdict:
    """Boolean decision plus whatever evidence the deciding path produced.

    ``certificate`` holds cofactors over the presentation's generators when
    membership was established by division.  It may be given as a
    zero-argument callable, which builds it on first read, so a caller that
    reads only ``member`` expands no cofactor.  ``witness`` is the refuting
    point a negative closure verdict over Q was decided by, when the grid
    search found one (``closure.semiprime_member``); otherwise None.
    """

    def __init__(self, member, certificate=None, method=None, stats=None, witness=None):
        self.member = member
        self._certificate = certificate
        self.method = method
        self.stats = {} if stats is None else stats
        self.witness = witness

    @property
    def certificate(self):
        if callable(self._certificate):
            self._certificate = self._certificate()
        return self._certificate

    def __bool__(self):
        return self.member
