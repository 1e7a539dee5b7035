"""Decision results shared by the membership engines."""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Verdict:
    """Boolean decision plus whatever evidence the deciding path produced.

    ``certificate`` holds cofactors over the presentation's generators when
    membership was established by division.  A verdict carries no refuting
    point; ``closure.find_vanishing_witness`` searches for one on the query.
    """

    member: bool
    certificate: list | None = None
    method: str | None = None
    stats: dict = field(default_factory=dict)

    def __bool__(self):
        return self.member
