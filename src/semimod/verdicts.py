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
    membership was established by division; ``witness`` a refuting point of
    a negative closure verdict, attached by the decision and only printed by
    the CLI.  Either may be given as a zero-argument callable, run on first
    read and kept, so reading only ``member`` builds neither.
    """

    def __init__(self, member, certificate=None, method=None, stats=None, witness=None):
        self.member = member
        self._certificate = certificate
        self.method = method
        self.stats = {} if stats is None else stats
        self._witness = witness

    def _on_first_read(self, slot):
        value = getattr(self, slot)
        if callable(value):
            value = value()
            setattr(self, slot, value)
        return value

    certificate = property(lambda self: self._on_first_read("_certificate"))
    witness = property(lambda self: self._on_first_read("_witness"))

    def __bool__(self):
        return self.member
