"""Division algorithm and Buchberger's algorithm for submodules of R^n.

Ideals are the rank-1 case.  The engine works on a flattened term map
{packed module monomial: coefficient} per module element and converts back
to VectorPoly at the boundary.

Working elements are kept as ``field.normalize`` leaves them: over Q a
primitive integer map (denominators cleared, content divided out with
``math.gcd``, lead coefficient L > 0), over F_p and F_{p^2} a monic map.
The one reducer, ``_reduce``, divides fraction-free: a step cancelling a
term c against the lead L of b is p <- a*p - q*t*b with (a, q) from
``field.pseudo_quotient``, over Q a = L/g and q = c/g for g = gcd(c, L), so
integer maps never meet a Fraction.  It returns the product S of the a's
with the remainder, so S*input = sum(cof_k*b_k) + rem exactly; over a finite
field a and S are always 1.  S-vectors are a*ti*b_i - q*tj*b_j in the same
way.  The engine's 1 is ``field.normalize``'s image of 1 (over Q the
integer 1), so scales and recipe scalars stay integers too.  Over Q,
Fractions are made only for what a caller reads: a basis's monic elements
are built from its integer divisors when first read, and ``normal_form``'s
remainder and cofactors, scaled back by 1/S, likewise.  A decision asks
only whether the packed remainder is empty, so a non-member builds no
remainder, no cofactor and no monic element, and a member's cofactors and
certificate wait until its ``Verdict.certificate`` is read.

Each working element keeps a recipe: the (scalar map, earlier index) pairs
it was made from, and one scale factor, the one its normalization applied.
An input points at itself, an S-pair remainder is S*a*ti*b_i - S*q*tj*b_j -
sum cof_k*b_k, a tail-reduced element is S*b_pos - sum cof_q*b_q, and a
basis element that is not monic gets one more step scaling by 1/L.  Only a
certificate multiplies recipes out, through ``_combine``, into combinations
of the input generators; radical tests, refutation checks, prime closures
and verdicts whose certificate nobody reads never do.  Over Q ``_combine``
works on integer maps over one common denominator (``field.split``) and the
cofactors become Fractions once, at the end (``field.join``).

Inside the engine a module monomial (component, exponents) is one
non-negative int, laid out by a ``_Packing`` that is cached per (number of
variables, rank, order, digit width).  The int is a row of digits of
``bits`` bits each, and the top bit of every digit is a guard bit that a
valid monomial leaves clear.  The high digits hold the order key: under
grevlex the prefix sums s_n, ..., s_1 with s_k = e_1 + ... + e_k, under lex
e_1, ..., e_n, and a component digit rank-1-comp, below them under top and
above them under pot.  The low digits hold e_1, ..., e_n, the component and
the total degree.  Every digit is linear in the exponents (Monagan &
Pearce, JSC 2011), so:

* multiplying by a scalar monomial, whose component digits are 0, is one
  addition;
* the ints sort exactly as ``OrderSpec.module_key``, so a lead is ``max``
  of its map;
* b divides m, in the same component, iff (m - b) & guard is 0, and the
  difference is then the packed quotient; one integer test replaces the
  component comparison and the exponent walk;
* the component and the degree are each one shift and mask.

Digits start wide enough for 2*max(input degree, ``max_degree``), which
no term exceeds under grevlex and top.  Other orders can outgrow that
inside a reduction: a new key with a guard bit set raises ``_Overflow``,
and the call starts over with digits twice as wide.  Nothing the engine
decides depends on the width, so the retry gives the same result.
Monomials are packed and unpacked only at the boundary: ``_vec_to_map``
and ``_map_to_vec``, ``normal_form``'s cofactors, and the recipe maps when
``_element_reps`` expands them for a certificate.

Pair selection is the normal strategy (smallest lcm degree first) with a
deterministic insertion-order tie-break, so repeated runs produce identical
bases.  Pairs are only formed between elements whose leads share a
component.  Two criteria drop a pair without reducing its S-vector:

* coprimality: the leads are coprime and both elements live entirely in
  one common component.  For genuinely mixed module elements the classical
  proof does not carry over and skipping such pairs can produce an
  incomplete basis.
* chain (Buchberger's second criterion, Gebauer & Moeller, JSC 1988): some
  third element k has lead(k) dividing lcm(lead i, lead j), which puts it
  in their component, and the pairs (i, k) and (j, k) have both already
  left the queue.  Every pair and every divisibility test stays inside one
  component, so the argument for ideals carries over to modules unchanged.

The reducer keeps the terms still to be divided in a min-heap of negated
packed monomials (Yan, JSC 1998), so each step pops the leading term
instead of scanning for it.  A term is pushed when it enters the map;
entries whose term has since cancelled are skipped when popped.  Reduction
only adds terms below the current lead, so the heap never misses one.

Only ``buchberger`` builds a ``GroebnerBasis``, whole, in one constructor
call; with every generator zero the same steps give the one empty basis.
Every basis's ``stats`` counts ``pairs_processed`` (pairs taken off the
queue, the quantity ``GroebnerLimits.max_pairs`` bounds), ``pairs_skipped``
(those dropped by either criterion), ``zero_reductions`` (S-vectors that
reduced to zero) and ``basis_size`` (elements of the reduced basis, 0 for
the empty one).  Besides the pair and degree caps of ``GroebnerLimits``,
every new working element over Q must keep its integer coefficients, and
every reduction its scale, within MAX_COEFFICIENT_BITS, a constant, or the
computation ends in ResourceLimitExceededError.  Each invocation owns its
working state; separate invocations may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul as _imul

from .errors import ResourceLimitExceededError
from .poly import (
    DEFAULT_ORDER,
    GREVLEX,
    TOP,
    OrderSpec,
    Polynomial,
    PolyRing,
    VectorPoly,
    check_operands,
    mono_div,
    mono_lcm,
    mono_mul,
    unit_vector,
)
from .verdicts import Verdict


@dataclass(frozen=True)
class GroebnerLimits:
    """Resource caps; crossing one raises ResourceLimitExceeded."""

    max_pairs: int = 10_000
    max_degree: int = 40

    def __post_init__(self):
        for name, value in (("max_pairs", self.max_pairs), ("max_degree", self.max_degree)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


DEFAULT_LIMITS = GroebnerLimits()

# The largest integer coefficient, in bits, of a working element over Q.
# The pools peak at 125 bits; lex bases can grow past 10^5 bits in seconds.
MAX_COEFFICIENT_BITS = 1 << 16


# ---------------------------------------------------------------------------
# packed module monomials
# ---------------------------------------------------------------------------

class _Overflow(Exception):
    """A new packed key has a digit past its width; the caller retries with
    a wider ``_Packing``."""


class _Packing:
    """The packed layout for one (number of variables, rank, order, digit
    width); see the module docstring."""

    def __init__(self, nvars, rank, order, bits):
        self.key = (nvars, rank, order, bits)
        self.bits = bits
        self.limit = 1 << (bits - 1)  # every digit stays below this
        self.mask = self.limit - 1
        ndigits = 2 * nvars + 3
        self.guard = sum(self.limit << (bits * d) for d in range(ndigits))
        # digits from the bottom: degree, component, e_1..e_n, order key
        key_digits = list(range(nvars + 2, ndigits))  # most significant last
        if order.module == TOP:
            comp_digit, mono_digits = key_digits[0], key_digits[:0:-1]
        else:
            comp_digit, mono_digits = key_digits[-1], key_digits[-2::-1]
        # mono_digits[j] holds key entry j: s_{n-j} under grevlex, e_{j+1} under lex
        weights = []
        for i in range(nvars):
            digits = [0, 2 + i]
            if order.scalar == GREVLEX:
                digits += [mono_digits[j] for j in range(nvars - i)]
            else:
                digits.append(mono_digits[i])
            weights.append(sum(1 << (bits * d) for d in digits))
        self.weights = tuple(weights)
        self.comps = tuple(
            (c << bits) + ((rank - 1 - c) << (bits * comp_digit)) for c in range(rank)
        )
        self.exp_shifts = tuple(bits * (2 + i) for i in range(nvars))

    def wider(self) -> "_Packing":
        nvars, rank, order, bits = self.key
        return _packing(nvars, rank, order, 2 * bits)

    def pack(self, comp, exps) -> int:
        """The module monomial (comp, exps); a scalar monomial when comp is
        None."""
        if sum(exps) >= self.limit:
            raise _Overflow
        m = sum(map(_imul, exps, self.weights))
        return m if comp is None else m + self.comps[comp]

    def exps(self, m) -> tuple:
        mask = self.mask
        return tuple((m >> s) & mask for s in self.exp_shifts)

    def comp(self, m) -> int:
        return (m >> self.bits) & self.mask


@cache
def _packing(nvars, rank, order, bits) -> _Packing:
    return _Packing(nvars, rank, order, bits)


def _first_packing(ring, rank, order, degree) -> _Packing:
    """Digits wide enough for the degree bound ``degree`` and the rank."""
    bits = max(degree, rank - 1, 1).bit_length() + 1
    return _packing(ring.num_vars, rank, order, bits)


def _vector_degree(v: VectorPoly) -> int:
    return max(e.degree() for e in v.entries)


@cache
def _engine_one(field):
    """1 as the engine holds it: ``field.normalize``'s image of 1, over Q
    the integer 1 rather than Fraction(1)."""
    one = field.one_raw
    return field.normalize({0: one}, one)[0][0]


# ---------------------------------------------------------------------------
# flattened term maps
# ---------------------------------------------------------------------------

def _vec_to_map(v: VectorPoly, pk: _Packing):
    pack = pk.pack
    out = {}
    for comp, entry in enumerate(v.entries):
        for exps, c in entry.terms.items():
            out[pack(comp, exps)] = c
    return out


def _map_to_vec(ring: PolyRing, rank: int, m, pk: _Packing) -> VectorPoly:
    entries = [dict() for _ in range(rank)]
    for key, c in m.items():
        entries[pk.comp(key)][pk.exps(key)] = c
    return VectorPoly(ring, [Polynomial(ring, e) for e in entries])


def _acc(d, key, val, add, is_zero):
    cur = d.get(key)
    if cur is None:
        d[key] = val
    else:
        s = add(cur, val)
        if is_zero(s):
            del d[key]
        else:
            d[key] = s


def _pscale(a, c, field):
    mul = field.mul
    return {m: mul(c, v) for m, v in a.items()}


def _negated(a, field):
    neg = field.neg
    return {m: neg(v) for m, v in a.items()}


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _normalized(m, field):
    """(the ``_info`` of field.normalize(m), its scale) for a nonzero map:
    a divisor as ``_reduce`` reads it is (lead, lead coefficient, map)."""
    lead = max(m)
    m, scale = field.normalize(m, m[lead])
    return (lead, m[lead], m), scale


def _check_bits(bits):
    """Raise once an integer over Q passes MAX_COEFFICIENT_BITS."""
    if bits > MAX_COEFFICIENT_BITS:
        raise ResourceLimitExceededError(
            f"coefficient cap of {MAX_COEFFICIENT_BITS} bits crossed ({bits} bits); "
            "instance is beyond desk scale"
        )


def _check_coefficients(m, field):
    """Raise once an integer map's coefficients pass MAX_COEFFICIENT_BITS.
    Only Q's integers grow; a finite field keeps its values below p."""
    if not field.char:
        _check_bits(max(map(int.bit_length, m.values())))


def _reduce(fmap, infos, field, guard):
    """Full reduction of a flattened map against the ``_info`` divisors in
    ``infos``; guard is the packing's guard mask.

    Each step p <- a*p - q*t*b takes (a, q) from ``field.pseudo_quotient``,
    so over Q integer maps stay integral.  Returns (remainder, cofactors, S):
    cofactors maps the index k of each divisor used to its cofactor map, and
    S * input = sum(cofactor_k * basis_k) + remainder exactly.  Over a finite
    field a is always 1, so S is 1; over Q, S past MAX_COEFFICIENT_BITS
    ends the reduction in ResourceLimitExceededError.
    """
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    pseudo_quotient = field.pseudo_quotient
    one = scale = _engine_one(field)
    p = dict(fmap)
    heap = [-mm for mm in p]
    heapify(heap)
    rem = {}
    cofs = {}
    while heap:
        cm = -heappop(heap)
        c = p.get(cm)
        if c is None:
            continue  # cancelled since it was pushed
        for k, (blead, blc, bmap) in enumerate(infos):
            t = cm - blead
            if t & guard:
                continue
            a, q = pseudo_quotient(c, blc)
            if a != one:  # only over Q, whose scale is an int
                scale = mul(a, scale)
                _check_bits(scale.bit_length())
                for part in (p, rem, *cofs.values()):
                    for key, val in part.items():
                        part[key] = mul(a, val)
            # popped terms strictly descend, so t is new to cofactor k
            cofs.setdefault(k, {})[t] = q
            qn = neg(q)
            for be, bco in bmap.items():
                mm = t + be
                val = mul(qn, bco)
                cur = p.get(mm)
                if cur is None:
                    if mm & guard:
                        raise _Overflow
                    p[mm] = val
                    heappush(heap, -mm)
                else:
                    val = add(cur, val)
                    if is_zero(val):
                        del p[mm]
                    else:
                        p[mm] = val
            break
        else:
            rem[cm] = c
            del p[cm]
    return rem, cofs, scale


class NormalFormResult:
    """Remainder plus one cofactor per basis element; the division identity
    input = sum(cofactor_i * basis_i) + remainder holds exactly.  Each is
    built from the reducer's packed maps when first read, so a caller that
    reads only the remainder builds no cofactor."""

    def __init__(self, ring, rank, packing, rem, cofs, back, scales):
        self._ring = ring
        self._rank = rank
        self._packing = packing
        self._rem = rem  # packed; the remainder is back * rem
        self._cofs = cofs  # per divisor k, packed; cofactor k is back * scales[k] * cofs[k]
        self._back = back
        self._scales = scales

    @cached_property
    def remainder(self) -> VectorPoly:
        rem = _pscale(self._rem, self._back, self._ring.field)
        return _map_to_vec(self._ring, self._rank, rem, self._packing)

    @cached_property
    def cofactors(self) -> list:
        mul, exps, back = self._ring.field.mul, self._packing.exps, self._back
        return [
            Polynomial(self._ring, {exps(t): mul(b, c) for t, c in self._cofs.get(k, {}).items()})
            for k, b in enumerate(mul(back, s) for s in self._scales)
        ]


def normal_form(f: VectorPoly, basis, order: OrderSpec = DEFAULT_ORDER) -> NormalFormResult:
    """Divide f by a ``GroebnerBasis`` or a list of module elements; no
    remainder term is divisible by any basis leading module-monomial.  A
    basis computed under ``order`` lends its packed integer divisors, and
    its monic elements are read only if f outgrows their packing; a list is
    packed and normalized here."""
    ring, rank = f.ring, len(f)
    field = ring.field
    if isinstance(basis, GroebnerBasis) and basis.order == order:
        check_operands(basis.ring, basis.rank, [f], "query")
        pk, infos = basis._packing, basis._divisors
        scales = [lc for (_, lc, _) in infos]
    else:
        basis = list(basis)
        check_operands(ring, rank, basis, "basis element")
        if any(g.is_zero() for g in basis):
            raise ValueError("basis elements must be nonzero")
        degree = 2 * max(map(_vector_degree, [f, *basis]))
        pk, infos = _first_packing(ring, rank, order, degree), None
    while True:
        try:
            if infos is None:
                normalized = [_normalized(_vec_to_map(g, pk), field) for g in basis]
                infos = [info for info, _ in normalized]
                scales = [s for _, s in normalized]
            fmap, fscale = _vec_to_map(f, pk), field.one_raw
            if fmap:
                (_, _, fmap), fscale = _normalized(fmap, field)
            rem, cofs, scale = _reduce(fmap, infos, field, pk.guard)
            break
        except _Overflow:
            if isinstance(basis, GroebnerBasis):
                basis = basis.elements
            pk, infos = pk.wider(), None
    # the reducer saw fscale*f and s_k*g_k: S*fscale*f = sum(cof_k*s_k*g_k) + rem
    back = field.inv(field.mul(scale, fscale))
    return NormalFormResult(ring, rank, pk, rem, cofs, back, scales)


def s_vector(g1: VectorPoly, g2: VectorPoly, order: OrderSpec = DEFAULT_ORDER):
    """The S-vector of two module elements, or None when their leading
    components differ (no cancellation is possible).  Tuple-based, as an
    independent check of the packed engine."""
    check_operands(g1.ring, len(g1), [g2], "S-vector operand")
    if g1.is_zero() or g2.is_zero():
        raise ValueError("S-vector of a zero vector")
    ring, field, mkey = g1.ring, g1.ring.field, order.module_key

    def lead(g):
        return max(
            ((comp, exps) for comp, e in enumerate(g.entries) for exps in e.terms), key=mkey
        )

    (comp1, l1), (comp2, l2) = lead(g1), lead(g2)
    if comp1 != comp2:
        return None
    lcm = mono_lcm(l1, l2)
    t1 = Polynomial(ring, {mono_div(lcm, l1): field.inv(g1.entries[comp1].terms[l1])})
    t2 = Polynomial(ring, {mono_div(lcm, l2): field.inv(g2.entries[comp2].terms[l2])})
    return t1 * g1 - t2 * g2


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _combine(recipe, reps, nin, field):
    """scale * sum of c * reps[k] over a recipe (scale, [(scalar map, index)])
    with exponent-tuple keys.  reps[k] and the result are (one scalar map
    per input, d): numerators over the common denominator d, as
    ``field.split`` leaves them.  Over Q the products run on ints and d is
    kept least; over a finite field d is 1.  The only routine that
    multiplies representations out."""
    scale, steps = recipe
    add, mul, is_zero = field.add, field.mul, field.is_zero
    parts = []
    for c, k in steps:
        if scale != field.one_raw:
            c = _pscale(c, scale, field)
        c, d = field.split(c)
        maps, den = reps[k]
        parts.append((c, maps, d * den))
    den = lcm(*[d for _, _, d in parts])
    out = [dict() for _ in range(nin)]
    for c, maps, d in parts:
        if d != den:
            c = {m: (den // d) * v for m, v in c.items()}
        for dst, src in zip(out, maps):
            for m1, c1 in c.items():
                for m2, c2 in src.items():
                    _acc(dst, mono_mul(m1, m2), mul(c1, c2), add, is_zero)
    if den != 1:
        g = gcd(den, *[v for m in out for v in m.values()])
        if g != 1:
            den //= g
            out = [{key: v // g for key, v in m.items()} for m in out]
    return out, den


class GroebnerBasis:
    """Reduced, monic basis together with the order it was computed under
    and the recipes of the working elements it was made from; ``final[k]``
    indexes the working element equal to ``elements[k]``.

    The basis keeps the packed divisors (lead, L, map) of its elements, and
    their packing, for ``normal_form``.  Over Q each map is a primitive
    integer map; ``elements`` are their monic forms, with Fraction
    coefficients, built from the divisors when first read, and the recipe
    of each one whose lead coefficient L was not 1 ends in a step scaling by
    1/L.  Only ``buchberger`` builds a basis, whole; the empty basis has no
    elements and the same four counters.  Recipe scalars carry every scale
    factor of the integer reduction, so certificates are exact.  The first
    certificate expands every recipe, over Q on integers over a common
    denominator, and keeps the result.  Each cache is written once, whole,
    so two threads racing for it only compute it twice."""

    def __init__(self, ring, rank, order, inputs, stats, recipes, final, divisors, packing):
        self.ring = ring
        self.rank = rank
        self.order = order
        self.inputs = inputs  # the nonzero generators the basis was built from
        self.stats = stats
        self._recipes = recipes  # per working element: (scale, [(map, index)])
        self._final = final
        self._divisors = divisors  # per element: its packed _info, sorted by lead
        self._packing = packing

    @cached_property
    def elements(self):
        """The monic elements (list[VectorPoly]), sorted by lead."""
        field, pk = self.ring.field, self._packing
        return [
            _map_to_vec(self.ring, self.rank, _pscale(m, field.inv(lc), field), pk)
            for _, lc, m in self._divisors
        ]

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _element_reps(self):
        """Per element, (one scalar map per input, common denominator)."""
        field, nin, pk = self.ring.field, len(self.inputs), self._packing
        one = _engine_one(field)
        # slot j starts as input j itself, which the input's recipe points at
        work = [([{self.ring._zero_exps: one} if jj == j else {} for jj in range(nin)], 1)
                for j in range(nin)]
        work += [None] * (len(self._recipes) - nin)
        for idx, (scale, steps) in enumerate(self._recipes):
            steps = [({pk.exps(t): c for t, c in m.items()}, k) for m, k in steps]
            work[idx] = _combine((scale, steps), work, nin, field)
        return [work[k] for k in self._final]

    def certificate(self, cofactors):
        """Cofactors over the inputs of sum(cofactors[k] * elements[k])."""
        field = self.ring.field
        steps = [(q.terms, k) for k, q in enumerate(cofactors) if q.terms]
        maps, den = _combine(
            (field.one_raw, steps), self._element_reps, len(self.inputs), field
        )
        return [Polynomial(self.ring, field.join(m, den)) for m in maps]


def buchberger(
    gens,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the submodule generated by
    ``gens`` (a nonempty list of vectors; zero vectors are dropped, and if
    all are zero the empty basis of the zero submodule is returned)."""
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger needs at least one vector to fix ring and rank")
    ring, rank = gens[0].ring, len(gens[0])
    check_operands(ring, rank, gens, "generator")
    kept = [g for g in gens if not g.is_zero()]
    degree = 2 * max([limits.max_degree, *map(_vector_degree, kept)])
    pk = _first_packing(ring, rank, order, degree)
    while True:
        try:
            return _buchberger(ring, rank, kept, order, limits, pk)
        except _Overflow:
            pk = pk.wider()


def _buchberger(ring, rank, kept, order, limits, pk):
    """``buchberger`` under one packing; raises _Overflow when a key
    outgrows it."""
    field = ring.field
    one = _engine_one(field)
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    guard, mask, comp_of = pk.guard, pk.mask, pk.comp
    stats = {"pairs_processed": 0, "pairs_skipped": 0, "zero_reductions": 0}

    infos = []  # per working element: its _info, the map normalized
    leads = []  # per working element: its packed lead
    lead_exps = []  # per working element: its lead's exponent tuple
    singles = []  # single component index or None
    recipes = []  # per working element: (scale, [(scalar map, earlier index)])
    heap = []
    counter = 0
    done = set()  # pairs (i, j), i < j, already taken off the queue

    def add_element(emap, steps):
        nonlocal counter
        info, scale = _normalized(emap, field)
        _check_coefficients(info[2], field)
        lead = info[0]
        comp, exps = comp_of(lead), pk.exps(lead)
        new_idx = len(infos)
        infos.append(info)
        comps = {comp_of(m) for m in emap}
        singles.append(comp if len(comps) == 1 else None)
        recipes.append((scale, steps))
        for old_idx in range(new_idx):
            if comp_of(leads[old_idx]) == comp:
                deg = sum(map(max, lead_exps[old_idx], exps))
                heappush(heap, (deg, counter, old_idx, new_idx))
                counter += 1
        leads.append(lead)
        lead_exps.append(exps)

    for j, g in enumerate(kept):
        add_element(_vec_to_map(g, pk), [({0: one}, j)])

    while heap:
        if stats["pairs_processed"] >= limits.max_pairs:
            raise ResourceLimitExceededError(
                f"pair cap {limits.max_pairs} crossed; instance is beyond desk scale"
            )
        deg, _, i, j = heappop(heap)
        stats["pairs_processed"] += 1
        done.add((i, j))
        (li, lc_i, map_i), (lj, lc_j, map_j) = infos[i], infos[j]
        lcm = pk.pack(comp_of(li), tuple(map(max, lead_exps[i], lead_exps[j])))
        if (
            # coprimality, valid only inside a single shared component
            singles[i] is not None
            and singles[i] == singles[j]
            and deg == (li & mask) + (lj & mask)
        ) or any(
            # chain: the pair's S-vector follows from (i, k) and (j, k).
            # lead(k) divides the lcm, so it shares the pair's component,
            # and k is neither i nor j, since (i, i) never leaves the queue.
            not (lcm - lk) & guard
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k, lk in enumerate(leads)
        ):
            stats["pairs_skipped"] += 1
            continue
        ti, tj = lcm - li, lcm - lj
        # a*lc_i == q*lc_j, so the leads cancel in a*ti*b_i - q*tj*b_j
        a, q = field.pseudo_quotient(lc_i, lc_j)
        qn = neg(q)
        s = {ti + m: mul(a, c) for m, c in map_i.items()}
        for m, c in map_j.items():
            _acc(s, tj + m, mul(qn, c), add, is_zero)
        if any(m & guard for m in s):
            raise _Overflow
        rem, cofs, scale = _reduce(s, infos, field, guard)
        if not rem:
            stats["zero_reductions"] += 1
            continue
        if max(m & mask for m in rem) > limits.max_degree:
            raise ResourceLimitExceededError(
                f"degree cap {limits.max_degree} crossed; instance is beyond desk scale"
            )
        # rem = scale*(a*ti*b_i - q*tj*b_j) - sum cof_k*b_k
        steps = [({ti: mul(scale, a)}, i), ({tj: mul(scale, qn)}, j)]
        steps += [(_negated(cof, field), k) for k, cof in cofs.items()]
        add_element(rem, steps)

    # -- minimal basis: drop elements whose lead is divisible by another's --
    kept_idx = []
    for k in sorted(range(len(leads)), key=leads.__getitem__):
        lk = leads[k]
        if all((lk - leads[k2]) & guard for k2 in kept_idx):
            kept_idx.append(k)

    # -- tail reduction: ascending leads, so smaller elements are final --
    final = [infos[k] for k in kept_idx]
    for pos in range(len(final)):
        others = [q for q in range(len(final)) if q != pos]
        rem, cofs, scale = _reduce(final[pos][2], [final[q] for q in others], field, guard)
        if cofs:
            # rem = scale*b_pos - sum cof_q*b_q, with b_pos's lead
            steps = [({0: scale}, kept_idx[pos])]
            steps += [(_negated(cof, field), kept_idx[others[qi]])
                      for qi, cof in cofs.items()]
            final[pos], rscale = _normalized(rem, field)
            _check_coefficients(final[pos][2], field)
            kept_idx[pos] = len(recipes)
            recipes.append((rscale, steps))

    # -- the boundary: one last recipe step scaling by 1/lc; the monic
    # elements themselves wait for a reader --
    for pos, (_, lc, _) in enumerate(final):
        if lc != one:
            recipes.append((field.one_raw, [({0: field.inv(lc)}, kept_idx[pos])]))
            kept_idx[pos] = len(recipes) - 1
    stats["basis_size"] = len(final)
    return GroebnerBasis(ring, rank, order, kept, stats, recipes, kept_idx, final, pk)


# ---------------------------------------------------------------------------
# presentations and membership
# ---------------------------------------------------------------------------

class SubmodulePresentation:
    """Finite generator list for a submodule of R^n with cached bases.

    A generator is a vector, or an n x n matrix standing for its rows (a
    vector is its own single row), so the rows of a left ideal's generators
    present its row module.  Zero rows are dropped on construction; the
    empty list presents the zero submodule.  The basis cache is populated
    once per order and limits; until then readers simply recompute, so
    concurrent use is safe.
    """

    def __init__(self, ring: PolyRing, rank: int, generators=()):
        self.ring = ring
        self.rank = rank
        generators = list(generators)
        check_operands(ring, rank, generators, "generator")
        self.generators = [row for g in generators for row in g.rows if not row.is_zero()]
        self._bases = {}

    @classmethod
    def unit(cls, ring, rank):
        return cls(ring, rank, [unit_vector(ring, rank, i) for i in range(rank)])

    def with_extra(self, extra) -> "SubmodulePresentation":
        return SubmodulePresentation(self.ring, self.rank, self.generators + list(extra))

    def groebner(self, order: OrderSpec = DEFAULT_ORDER, limits=DEFAULT_LIMITS) -> GroebnerBasis:
        gb = self._bases.get((order, limits))
        if gb is None:
            # an empty presentation passes one zero vector of its rank
            gens = self.generators or [VectorPoly(self.ring, [0] * self.rank)]
            gb = self._bases[order, limits] = buchberger(gens, order, limits)
        return gb

    def __repr__(self):
        return (
            f"<submodule of rank {self.rank} with {len(self.generators)} generators>"
        )


def submodule_member(
    f: VectorPoly,
    submodule: SubmodulePresentation,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Decide f in N; on membership the certificate cofactors satisfy
    sum(cofactor_j * generator_j) == f exactly.  They are expanded when
    ``certificate`` is first read, so a caller that reads only the verdict
    expands no recipe."""
    check_operands(submodule.ring, submodule.rank, [f], "query")
    gb = submodule.groebner(order, limits)
    nf = normal_form(f, gb, order)
    if nf._rem:  # the reducer's packed remainder: no vector is built to test it
        return Verdict(member=False, stats=dict(gb.stats))
    return Verdict(member=True, certificate=lambda: gb.certificate(nf.cofactors),
                   stats=dict(gb.stats))


def ideal_presentation(ring: PolyRing, polys) -> SubmodulePresentation:
    """Rank-1 presentation of the ideal generated by ``polys``."""
    return SubmodulePresentation(ring, 1, [VectorPoly(ring, [p]) for p in polys])


def ideal_member(
    f: Polynomial,
    gens,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Ideal membership is submodule membership at rank 1; certificate
    cofactors come back as scalar polynomials.  A library convenience: the
    decisions build their rank-1 presentations themselves."""
    return submodule_member(
        VectorPoly(f.ring, [f]), ideal_presentation(f.ring, gens), order, limits
    )
