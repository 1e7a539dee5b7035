"""Division algorithm and Buchberger's algorithm for submodules of R^n.

Ideals are the rank-1 case.  The engine works on a flattened term map
{(component, exponents): coefficient} per module element and converts back
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
way.  Only ``buchberger``'s last step turns the reduced basis into monic
Fraction vectors, and ``normal_form`` scales its cofactors and remainder
back by 1/S.

Each working element keeps a recipe: the (scalar map, earlier index) pairs
it was made from, and one scale factor, the one its normalization applied.
An input points at itself, an S-pair remainder is S*a*ti*b_i - S*q*tj*b_j -
sum cof_k*b_k, a tail-reduced element is S*b_pos - sum cof_q*b_q, and a
basis element that is not monic gets one more step scaling by 1/L.  Only a
certificate multiplies recipes out, through ``_combine``, which applies each
scale once, into combinations of the input generators; radical tests,
refutation checks and prime closures never do.

Every divisor lead carries a support mask, bit i set when variable i has a
positive exponent (the "divmask" of Roune & Stillman, ISSAC 2012).  A lead
whose mask has a bit outside a term's mask cannot divide it, so the reducer
and the chain criterion reject most candidates with one integer test before
``mono_divides``.

Pair selection is the normal strategy (smallest lcm degree first) with a
deterministic insertion-order tie-break, so repeated runs produce identical
bases.  Pairs are only formed between elements whose leads share a
component.  Two criteria drop a pair without reducing its S-vector:

* coprimality: the leads are coprime and both elements live entirely in
  one common component.  For genuinely mixed module elements the classical
  proof does not carry over and skipping such pairs can produce an
  incomplete basis.
* chain (Buchberger's second criterion, Gebauer & Moeller, JSC 1988): some
  third element k has its lead in the same component, lead(k) divides
  lcm(lead i, lead j), and the pairs (i, k) and (j, k) have both already
  left the queue.  Every pair and every divisibility test stays inside one
  component, so the argument for ideals carries over to modules unchanged.

The reducer keeps the terms still to be divided in a heap (Yan, JSC 1998)
keyed by the order's module key negated, so each step pops the leading term
instead of scanning for it.  A term is pushed when it enters the map;
entries whose term has since cancelled are skipped when popped.  Reduction
only adds terms below the current lead, so the heap never misses one.

``GroebnerBasis.stats`` counts ``pairs_processed`` (pairs taken off the
queue, the quantity ``GroebnerLimits.max_pairs`` bounds), ``pairs_skipped``
(those dropped by either criterion), ``zero_reductions`` (S-vectors that
reduced to zero) and ``basis_size`` (elements of the reduced basis).  Each
invocation owns its working state; separate invocations may run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

from .errors import (
    DimensionMismatchError,
    MismatchedRingError,
    ResourceLimitExceededError,
)
from .poly import (
    DEFAULT_ORDER,
    GREVLEX,
    TOP,
    OrderSpec,
    Polynomial,
    PolyRing,
    VectorPoly,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .verdicts import Verdict


@dataclass(frozen=True)
class GroebnerLimits:
    """Resource caps; crossing one raises ResourceLimitExceeded."""

    max_pairs: int = 10_000
    max_degree: int = 40


DEFAULT_LIMITS = GroebnerLimits()


# ---------------------------------------------------------------------------
# flattened term maps
# ---------------------------------------------------------------------------

def _vec_to_map(v: VectorPoly):
    out = {}
    for comp, entry in enumerate(v.entries):
        for exps, c in entry.terms.items():
            out[(comp, exps)] = c
    return out


def _map_to_vec(ring: PolyRing, rank: int, m) -> VectorPoly:
    entries = [dict() for _ in range(rank)]
    for (comp, exps), c in m.items():
        entries[comp][exps] = c
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


def _map_degree(m) -> int:
    return max((sum(exps) for (_, exps) in m), default=-1)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _heap_key(order: OrderSpec):
    """Key under which a min-heap pops the largest module monomial first:
    ``order.module_key`` flattened, with every entry negated."""
    if order.scalar == GREVLEX:
        if order.module == TOP:
            return lambda mm: (-sum(mm[1]), *mm[1][::-1], mm[0])
        return lambda mm: (mm[0], -sum(mm[1]), *mm[1][::-1])
    if order.module == TOP:
        return lambda mm: (*[-e for e in mm[1]], mm[0])
    return lambda mm: (mm[0], *[-e for e in mm[1]])


def _support_mask(exps) -> int:
    """Bit i set iff variable i occurs: a monomial can divide another only
    if its mask has no bit outside the other's (Roune & Stillman, ISSAC
    2012), so one integer test rejects most divisor candidates."""
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


def _info(lead, m):
    """A divisor as ``_reduce`` reads it: (lead, lead mask, lead coefficient,
    map)."""
    return (lead, _support_mask(lead[1]), m[lead], m)


def _normalized(m, hkey, field):
    """(lead, field.normalize of m, its scale) for a nonzero map."""
    lead = min(m, key=hkey)
    m, scale = field.normalize(m, m[lead])
    return lead, m, scale


def _reduce(fmap, infos, hkey, field):
    """Full reduction of a flattened map against the ``_info`` divisors in
    ``infos``; hkey is the ``_heap_key`` of the order.

    Each step p <- a*p - q*t*b takes (a, q) from ``field.pseudo_quotient``,
    so over Q integer maps stay integral.  Returns (remainder, cofactors, S):
    cofactors maps the index k of each divisor used to its cofactor map, and
    S * input = sum(cofactor_k * basis_k) + remainder exactly.  Over a finite
    field a is always 1, so S is 1.
    """
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    pseudo_quotient = field.pseudo_quotient
    one = scale = field.one_raw
    p = dict(fmap)
    heap = [(hkey(mm), mm) for mm in p]
    heapify(heap)
    rem = {}
    cofs = {}
    while heap:
        cm = heappop(heap)[1]
        c = p.get(cm)
        if c is None:
            continue  # cancelled since it was pushed
        comp, exps = cm
        outside = ~_support_mask(exps)
        for k, (bmm, bmask, blc, bmap) in enumerate(infos):
            if bmask & outside or bmm[0] != comp or not mono_divides(bmm[1], exps):
                continue
            a, q = pseudo_quotient(c, blc)
            if a != one:
                scale = mul(a, scale)
                for part in (p, rem, *cofs.values()):
                    for key, val in part.items():
                        part[key] = mul(a, val)
            t = mono_div(exps, bmm[1])
            # popped terms strictly descend, so t is new to cofactor k
            cofs.setdefault(k, {})[t] = q
            qn = neg(q)
            for (bc, be), bco in bmap.items():
                mm = (bc, mono_mul(t, be))
                val = mul(qn, bco)
                cur = p.get(mm)
                if cur is None:
                    p[mm] = val
                    heappush(heap, (hkey(mm), mm))
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


@dataclass
class NormalFormResult:
    """Remainder plus one cofactor per basis element; the division identity
    input = sum(cofactor_i * basis_i) + remainder holds exactly."""

    remainder: VectorPoly
    cofactors: list


def normal_form(f: VectorPoly, basis, order: OrderSpec = DEFAULT_ORDER) -> NormalFormResult:
    """Divide f by a list of module elements; no remainder term is divisible
    by any basis leading module-monomial."""
    ring, rank = f.ring, len(f)
    field = ring.field
    hkey = _heap_key(order)
    infos, scales = [], []
    for g in basis:
        if g.ring != ring:
            raise MismatchedRingError("basis element from a different ring")
        if len(g) != rank:
            raise DimensionMismatchError("basis element of a different rank")
        if g.is_zero():
            raise ValueError("basis elements must be nonzero")
        lead, m, s = _normalized(_vec_to_map(g), hkey, field)
        infos.append(_info(lead, m))
        scales.append(s)
    fmap, fscale = _vec_to_map(f), field.one_raw
    if fmap:
        _, fmap, fscale = _normalized(fmap, hkey, field)
    rem, cofs, scale = _reduce(fmap, infos, hkey, field)
    # the reducer saw fscale*f and s_k*g_k: S*fscale*f = sum(cof_k*s_k*g_k) + rem
    back, mul = field.inv(field.mul(scale, fscale)), field.mul
    return NormalFormResult(
        remainder=_map_to_vec(ring, rank, _pscale(rem, back, field)),
        cofactors=[Polynomial(ring, _pscale(cofs.get(k, {}), mul(back, s), field))
                   for k, s in enumerate(scales)],
    )


def s_vector(g1: VectorPoly, g2: VectorPoly, order: OrderSpec = DEFAULT_ORDER):
    """The S-vector of two module elements, or None when their leading
    components differ (no cancellation is possible)."""
    if g1.ring != g2.ring or len(g1) != len(g2):
        raise MismatchedRingError("S-vector over mismatched rings or ranks")
    if g1.is_zero() or g2.is_zero():
        raise ValueError("S-vector of a zero vector")
    field = g1.ring.field
    m1, m2 = _vec_to_map(g1), _vec_to_map(g2)
    mkey = order.module_key
    l1, l2 = max(m1, key=mkey), max(m2, key=mkey)
    if l1[0] != l2[0]:
        return None
    lcm = mono_lcm(l1[1], l2[1])
    t1, t2 = mono_div(lcm, l1[1]), mono_div(lcm, l2[1])
    c1, c2 = field.inv(m1[l1]), field.inv(m2[l2])
    out = {}
    add, mul, is_zero = field.add, field.mul, field.is_zero
    for (comp, exps), c in m1.items():
        _acc(out, (comp, mono_mul(t1, exps)), mul(c1, c), add, is_zero)
    neg = field.neg
    for (comp, exps), c in m2.items():
        _acc(out, (comp, mono_mul(t2, exps)), neg(mul(c2, c)), add, is_zero)
    return _map_to_vec(g1.ring, len(g1), out)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _combine(recipe, reps, nin, field):
    """scale * sum of c * reps[k] over a recipe (scale, [(scalar map, index)]),
    where reps[k] holds one scalar map per input.  The only routine that
    multiplies representations out."""
    scale, steps = recipe
    add, mul, is_zero = field.add, field.mul, field.is_zero
    out = [dict() for _ in range(nin)]
    for c, k in steps:
        for dst, src in zip(out, reps[k]):
            for m1, c1 in c.items():
                for m2, c2 in src.items():
                    _acc(dst, mono_mul(m1, m2), mul(c1, c2), add, is_zero)
    if scale != field.one_raw:
        out = [_pscale(m, scale, field) for m in out]
    return out


class GroebnerBasis:
    """Reduced, monic basis together with the order it was computed under
    and the recipes of the working elements it was made from; ``final[k]``
    indexes the working element equal to ``elements[k]``.

    Over Q the working elements were primitive integer maps with support
    masks on their leads; ``elements`` are their monic forms, with Fraction
    coefficients, and the recipe of each one whose lead coefficient L was
    not 1 ends in a step scaling by 1/L.  Recipe scalars carry every scale
    factor of the integer reduction, so certificates are exact.  The first
    certificate expands every recipe and keeps the result.  That cache is
    written once, whole, so two threads racing for it only compute it twice."""

    def __init__(self, ring, rank, order, elements, inputs, stats,
                 recipes=(), final=()):
        self.ring = ring
        self.rank = rank
        self.order = order
        self.elements = elements  # list[VectorPoly], monic, sorted by lead
        self.inputs = inputs  # the nonzero generators the basis was built from
        self.stats = stats
        self._recipes = recipes  # per working element: (scale, [(map, index)])
        self._final = final

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _element_reps(self):
        """Per element, one scalar map per input."""
        field, nin = self.ring.field, len(self.inputs)
        # slot j starts as input j itself, which the input's recipe points at
        work = [[{self.ring._zero_exps: field.one_raw} if jj == j else {}
                 for jj in range(nin)] for j in range(nin)]
        work += [None] * (len(self._recipes) - nin)
        for idx, recipe in enumerate(self._recipes):
            work[idx] = _combine(recipe, work, nin, field)
        return [work[k] for k in self._final]

    @property
    def input_reps(self):
        """Per element, its combination of the inputs as Polynomials."""
        return [[Polynomial(self.ring, r) for r in rep] for rep in self._element_reps]

    def certificate(self, cofactors):
        """Cofactors over the inputs of sum(cofactors[k] * elements[k])."""
        field = self.ring.field
        steps = [(q.terms, k) for k, q in enumerate(cofactors) if q.terms]
        maps = _combine(
            (field.one_raw, steps), self._element_reps, len(self.inputs), field
        )
        return [Polynomial(self.ring, m) for m in maps]


def _single_component(m):
    comps = {comp for (comp, _) in m}
    return comps.pop() if len(comps) == 1 else None


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
    kept = []
    for g in gens:
        if g.ring != ring or len(g) != rank:
            raise MismatchedRingError("generators share neither ring nor rank")
        if not g.is_zero():
            kept.append(g)
    stats = {"pairs_processed": 0, "pairs_skipped": 0, "zero_reductions": 0}
    if not kept:
        return GroebnerBasis(ring, rank, order, [], [], stats)

    field = ring.field
    mkey = order.module_key
    hkey = _heap_key(order)
    one = field.one_raw
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    neg_one = neg(one)
    zero_exps = ring._zero_exps

    infos = []  # per working element: its _info, the map normalized
    singles = []  # single component index or None
    recipes = []  # per working element: (scale, [(scalar map, earlier index)])
    heap = []
    counter = 0
    done = set()  # pairs (i, j), i < j, already taken off the queue

    def normalized_info(emap, steps):
        """The _info of field.normalize(emap), and the recipe of the
        normalized map: its steps with the scale normalize applied."""
        lead, emap, scale = _normalized(emap, hkey, field)
        return _info(lead, emap), (scale, steps)

    def add_element(emap, steps):
        nonlocal counter
        info, recipe = normalized_info(emap, steps)
        new_idx = len(infos)
        infos.append(info)
        singles.append(_single_component(emap))
        recipes.append(recipe)
        lead = info[0]
        for old_idx in range(new_idx):
            old = infos[old_idx][0]
            if old[0] == lead[0]:
                deg = sum(mono_lcm(old[1], lead[1]))
                heappush(heap, (deg, counter, old_idx, new_idx))
                counter += 1

    for j, g in enumerate(kept):
        add_element(_vec_to_map(g), [({zero_exps: one}, j)])

    while heap:
        if stats["pairs_processed"] >= limits.max_pairs:
            raise ResourceLimitExceededError(
                f"pair cap {limits.max_pairs} crossed; instance is beyond desk scale"
            )
        _, _, i, j = heappop(heap)
        stats["pairs_processed"] += 1
        done.add((i, j))
        (li, mask_i, lc_i, map_i), (lj, mask_j, lc_j, map_j) = infos[i], infos[j]
        lcm = mono_lcm(li[1], lj[1])
        outside = ~(mask_i | mask_j)
        if (
            # coprimality, valid only inside a single shared component
            singles[i] is not None
            and singles[i] == singles[j]
            and not any(map(min, li[1], lj[1]))
        ) or any(
            # chain: the pair's S-vector follows from (i, k) and (j, k).
            # Pairs join two distinct elements with leads in one component,
            # so k is neither i nor j and its lead shares their component.
            not mask_k & outside
            and mono_divides(lk[1], lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k, (lk, mask_k, _, _) in enumerate(infos)
        ):
            stats["pairs_skipped"] += 1
            continue
        ti, tj = mono_div(lcm, li[1]), mono_div(lcm, lj[1])
        # a*lc_i == q*lc_j, so the leads cancel in a*ti*b_i - q*tj*b_j
        a, q = field.pseudo_quotient(lc_i, lc_j)
        qn = neg(q)
        s = {}
        for (comp, exps), c in map_i.items():
            _acc(s, (comp, mono_mul(ti, exps)), mul(a, c), add, is_zero)
        for (comp, exps), c in map_j.items():
            _acc(s, (comp, mono_mul(tj, exps)), mul(qn, c), add, is_zero)
        rem, cofs, scale = _reduce(s, infos, hkey, field)
        if not rem:
            stats["zero_reductions"] += 1
            continue
        if _map_degree(rem) > limits.max_degree:
            raise ResourceLimitExceededError(
                f"degree cap {limits.max_degree} crossed; instance is beyond desk scale"
            )
        # rem = scale*(a*ti*b_i - q*tj*b_j) - sum cof_k*b_k
        steps = [({ti: mul(scale, a)}, i), ({tj: mul(scale, qn)}, j)]
        steps += [(_pscale(cof, neg_one, field), k) for k, cof in cofs.items()]
        add_element(rem, steps)

    # -- minimal basis: drop elements whose lead is divisible by another's --
    leads = [info[0] for info in infos]
    order_idx = sorted(range(len(leads)), key=lambda k: mkey(leads[k]))
    kept_idx = []
    for k in order_idx:
        ck, ek = leads[k]
        dominated = any(
            leads[k2][0] == ck and mono_divides(leads[k2][1], ek) for k2 in kept_idx
        )
        if not dominated:
            kept_idx.append(k)

    # -- tail reduction: ascending leads, so smaller elements are final --
    final = [infos[k] for k in kept_idx]
    for pos in range(len(final)):
        others = [q for q in range(len(final)) if q != pos]
        rem, cofs, scale = _reduce(final[pos][3], [final[q] for q in others], hkey, field)
        if cofs:
            # rem = scale*b_pos - sum cof_q*b_q, with b_pos's lead
            steps = [({zero_exps: scale}, kept_idx[pos])]
            steps += [(_pscale(cof, neg_one, field), kept_idx[others[qi]])
                      for qi, cof in cofs.items()]
            final[pos], recipe = normalized_info(rem, steps)
            kept_idx[pos] = len(recipes)
            recipes.append(recipe)

    # -- the boundary: monic elements, one last recipe step scaling by 1/lc --
    elements = []
    for pos, (_, _, lc, m) in enumerate(final):
        inv = field.inv(lc)
        elements.append(_map_to_vec(ring, rank, _pscale(m, inv, field)))
        if lc != one:
            recipes.append((one, [({zero_exps: inv}, kept_idx[pos])]))
            kept_idx[pos] = len(recipes) - 1
    stats["basis_size"] = len(elements)
    return GroebnerBasis(ring, rank, order, elements, kept, stats, recipes, kept_idx)


# ---------------------------------------------------------------------------
# presentations and membership
# ---------------------------------------------------------------------------

class SubmodulePresentation:
    """Finite generator list for a submodule of R^n with cached bases.

    Zero generators are dropped on construction; the empty list presents
    the zero submodule.  The basis cache is populated once per order; until
    then readers simply recompute, so concurrent use is safe.
    """

    def __init__(self, ring: PolyRing, rank: int, generators=()):
        self.ring = ring
        self.rank = rank
        gens = []
        for g in generators:
            if g.ring != ring:
                raise MismatchedRingError("generator from a different ring")
            if len(g) != rank:
                raise DimensionMismatchError("generator of a different rank")
            if not g.is_zero():
                gens.append(g)
        self.generators = gens
        self._bases = {}

    @classmethod
    def zero(cls, ring, rank):
        return cls(ring, rank, [])

    @classmethod
    def unit(cls, ring, rank):
        from .poly import unit_vector

        return cls(ring, rank, [unit_vector(ring, rank, i) for i in range(rank)])

    def with_extra(self, extra) -> "SubmodulePresentation":
        return SubmodulePresentation(self.ring, self.rank, self.generators + list(extra))

    def groebner(self, order: OrderSpec = DEFAULT_ORDER, limits=DEFAULT_LIMITS) -> GroebnerBasis:
        gb = self._bases.get(order)
        if gb is None:
            if not self.generators:
                gb = GroebnerBasis(self.ring, self.rank, order, [], [], {})
            else:
                gb = buchberger(self.generators, order, limits)
            self._bases[order] = gb
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
    sum(cofactor_j * generator_j) == f exactly."""
    if f.ring != submodule.ring or len(f) != submodule.rank:
        raise MismatchedRingError("query does not match the submodule's ring/rank")
    gb = submodule.groebner(order, limits)
    nf = normal_form(f, gb.elements, order)
    if not nf.remainder.is_zero():
        return Verdict(member=False, stats=dict(gb.stats))
    certificate = gb.certificate(nf.cofactors)
    return Verdict(member=True, certificate=certificate, stats=dict(gb.stats))


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
    cofactors come back as scalar polynomials."""
    verdict = submodule_member(
        VectorPoly(f.ring, [f]), ideal_presentation(f.ring, gens), order, limits
    )
    return verdict
