import random

import pytest

from semimod.closure import (
    bilinear_encoding,
    find_vanishing_witness,
    radical_member,
    semiprime_member,
)
from semimod.fields import QQ, PrimeField
from semimod.groebner import SubmodulePresentation, ideal_presentation
from semimod.poly import OrderSpec, Polynomial, PolyRing, VectorPoly

# every monomial order crossed with both module extensions
ORDERS = [OrderSpec(s, m) for s in ("grevlex", "lex") for m in ("top", "pot")]


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


@pytest.fixture
def twisted(R):
    """The classic weakly-semiprime-but-not-semiprime submodule of Q[x,y]^2:
    all multiples t*(x, y) with t in the ideal (x, y)."""
    x, y = R.variables()
    g1 = VectorPoly(R, [x * x, x * y])
    g2 = VectorPoly(R, [x * y, y * y])
    return SubmodulePresentation(R, 2, [g1, g2])


@pytest.fixture
def ring_f3xy():
    return PolyRing(PrimeField(3), ("x", "y"))


@pytest.fixture
def twisted_pair_f3(ring_f3xy):
    x, y = ring_f3xy.variables()
    g1 = VectorPoly(ring_f3xy, [x * x, x * y])
    g2 = VectorPoly(ring_f3xy, [x * y, y * y])
    return SubmodulePresentation(ring_f3xy, 2, [g1, g2])


def random_polynomial(rng: random.Random, ring, max_degree=2, max_terms=3,
                      coeffs=(-2, -1, 1, 2)):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.num_vars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nx)] += 1
        terms[tuple(exps)] = ring.field.coerce(rng.choice(coeffs))
    return Polynomial(ring, terms)


def random_vector(rng: random.Random, ring, rank, max_degree=2,
                  allow_zero_entries=True, coeffs=(-2, -1, 1, 2)):
    while True:
        entries = []
        for _ in range(rank):
            if allow_zero_entries and rng.random() < 0.25:
                entries.append(ring.zero())
            else:
                entries.append(
                    random_polynomial(rng, ring, max_degree, coeffs=coeffs)
                )
        vec = VectorPoly(ring, entries)
        if not vec.is_zero():
            return vec


def random_generators(rng: random.Random, ring, rank, count=None, max_degree=2,
                      coeffs=(-2, -1, 1, 2)):
    count = count or rng.randint(1, 3)
    return [
        random_vector(rng, ring, rank, max_degree, coeffs=coeffs)
        for _ in range(count)
    ]


def combine(cofactors, gens):
    """The sum of cofactor * generator over a certificate."""
    total = None
    for c, g in zip(cofactors, gens):
        piece = c * g
        total = piece if total is None else total + piece
    return total


def check_witness_verdict(f, gens):
    """Decide f against gens; a negative decided by a grid witness must be
    negative by the radical test on the encoding too, and carry the witness
    the search finds on the same query.  Returns the verdict's method."""
    verdict = semiprime_member(f, SubmodulePresentation(f.ring, len(f), gens))
    if verdict.method == "witness":
        enc = bilinear_encoding(f, gens)
        assert not radical_member(enc.encoded_query, enc.encoded_generators)
        assert verdict.witness == find_vanishing_witness(f, gens)
    return verdict.method


def tag_first_ideal(h, gens):
    """The presentation of I + <1 - t*h> that the radical test of h over
    ``gens`` computes its basis of, built with ring arithmetic: in
    k[t, x..], the tag first and then h's ring's variables in their order,
    with the generators of I in their order and 1 - t*h last."""
    ring = h.ring
    tagged = PolyRing(ring.field, ("t", *ring.names), nx=0)
    t, *xs = tagged.variables()

    def lift(p):
        total = tagged.zero()
        for exps, c in p.terms.items():
            term = tagged.one().scale(c)
            for x, e in zip(xs, exps):
                term = term * x**e
            total = total + term
        return total

    return ideal_presentation(tagged, [*map(lift, gens), 1 - t * lift(h)])
