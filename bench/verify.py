"""Independent checks of every CLI report the benchmark collects.

Evidence is recomputed here rather than trusted: cofactor certificates are
parsed back with ``parse_polynomial`` and recombined, and witnesses, oracle
counterexamples and point-prime (k-of) spans are re-evaluated with this module's
own field arithmetic and dot product (it uses no ``semimod.fields``
operation).  Verdicts known by construction are compared with the report.
"""

from __future__ import annotations

from fractions import Fraction

from semimod.fields import PrimeField, QuadraticField, RationalField, field_from_name
from semimod.parser import parse_polynomial
from semimod.poly import PolyMatrix

VERDICT_KEY = {
    "member": "member",
    "semiprime-member": "member",
    "radical-member": "member",
    "matrix-semiprime-member": "member",
    "refute-semiprime": "witness_found",
    "refute-weak": "witness_found",
    "k-of": "improper",
    "oracle": "pass",
}
# Commands whose exit code is 1 when the verdict is true.
TRUE_IS_ONE = {"refute-semiprime", "refute-weak"}


class Arith:
    """Exact arithmetic in Q, F_p or F_p[t]/(t^2 + b t + c); values use the
    same representation as semimod raw values (Fraction, int, pair)."""

    def __init__(self, field):
        if isinstance(field, RationalField):
            self.kind, self.p = "q", None
        elif isinstance(field, QuadraticField):
            self.kind, self.p = "fp2", field.p
            self.b, self.c = field.modulus
        elif isinstance(field, PrimeField):
            self.kind, self.p = "fp", field.p
        else:
            raise TypeError(f"unsupported field {field!r}")
        self.zero = {"q": Fraction(0), "fp": 0, "fp2": (0, 0)}[self.kind]
        self.one = {"q": Fraction(1), "fp": 1, "fp2": (1, 0)}[self.kind]

    def lift(self, raw):
        """A coefficient of a base ring (Q, F_p or this field) in this field."""
        if self.kind == "q":
            return Fraction(raw)
        if self.kind == "fp":
            raw = Fraction(raw)
            return raw.numerator * pow(raw.denominator, self.p - 2, self.p) % self.p
        if isinstance(raw, tuple):
            return (raw[0] % self.p, raw[1] % self.p)
        return (raw % self.p, 0)

    def parse(self, text):
        """Read a coordinate as the CLI prints it."""
        if self.kind == "q":
            return Fraction(text)
        if self.kind == "fp":
            return int(text) % self.p
        a0, _, a1 = text.rpartition("+") if "t" in text else (text, "", "0")
        a1 = a1.replace("t", "").rstrip("*") or "1"
        return (int(a0 or 0) % self.p, int(a1) % self.p)

    def add(self, a, b):
        if self.kind == "q":
            return a + b
        if self.kind == "fp":
            return (a + b) % self.p
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def mul(self, a, b):
        if self.kind == "q":
            return a * b
        if self.kind == "fp":
            return a * b % self.p
        # t^2 = -b t - c
        hi = a[1] * b[1]
        return (
            (a[0] * b[0] - self.c * hi) % self.p,
            (a[0] * b[1] + a[1] * b[0] - self.b * hi) % self.p,
        )

    def inv(self, a):
        if self.kind == "q":
            return 1 / a
        if self.kind == "fp":
            return pow(a, self.p - 2, self.p)
        raise TypeError("inverse is only needed over Q and F_p here")

    def is_zero(self, a):
        return a == self.zero

    def evaluate(self, poly, point):
        total = self.zero
        for exps, coeff in poly.terms.items():
            term = self.lift(coeff)
            for value, e in zip(point, exps):
                for _ in range(e):
                    term = self.mul(term, value)
            total = self.add(total, term)
        return total

    def dot(self, xs, ys):
        total = self.zero
        for a, b in zip(xs, ys):
            total = self.add(total, self.mul(a, b))
        return total

    def rank(self, rows):
        rows = [list(r) for r in rows]
        rank = 0
        ncols = len(rows[0]) if rows else 0
        for col in range(ncols):
            pivot = next((i for i in range(rank, len(rows)) if not self.is_zero(rows[i][col])), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = self.inv(rows[rank][col])
            for i in range(len(rows)):
                if i != rank and not self.is_zero(rows[i][col]):
                    factor = self.mul(rows[i][col], inv)
                    rows[i] = [
                        self.add(x, self.mul(factor, self.neg(y)))
                        for x, y in zip(rows[i], rows[rank])
                    ]
            rank += 1
        return rank

    def neg(self, a):
        if self.kind == "q":
            return -a
        return (-a) % self.p


def _rows(obj):
    """Rows of a vector (one) or matrix (n), as lists of polynomials."""
    if isinstance(obj, PolyMatrix):
        return [list(row) for row in obj.rows]
    return [list(obj.entries)]


def _pairings(arith, obj, point, vec):
    return [
        arith.dot([arith.evaluate(e, point) for e in row], vec) for row in _rows(obj)
    ]


def vanishing_evidence_problems(arith, query_obj, gen_objs, point, vec):
    """A witness or counterexample must make every generator vanish on the
    direction while the query does not."""
    problems = []
    if len(vec) != len(_rows(query_obj)[0]) or all(arith.is_zero(v) for v in vec):
        problems.append("evidence vector has the wrong length or is zero")
        return problems
    for g in gen_objs:
        if not all(arith.is_zero(s) for s in _pairings(arith, g, point, vec)):
            problems.append("a generator does not vanish on the evidence")
            break
    if all(arith.is_zero(s) for s in _pairings(arith, query_obj, point, vec)):
        problems.append("the query vanishes on the evidence")
    return problems


def certificate_problems(f, gens, cofactor_texts):
    """Parse the cofactors and check sum(c_j * g_j) == f exactly."""
    ring = f.ring
    gens = [g for g in gens if not g.is_zero()]
    if len(cofactor_texts) != len(gens):
        return [f"{len(cofactor_texts)} cofactors for {len(gens)} generators"]
    total = None
    for text, g in zip(cofactor_texts, gens):
        piece = parse_polynomial(text, ring) * g
        total = piece if total is None else total + piece
    if total is None:
        return [] if f.is_zero() else ["empty certificate for a nonzero query"]
    return [] if total == f else ["certificate does not recombine to the query"]


def verdict_of(command, report):
    """The boolean verdict of a report, or None when it carries an error."""
    if "error" in report:
        return None
    return bool(report[VERDICT_KEY[command]])


def check_report(query, code, report):
    """Return (verdict, problems); an empty list means the report verified."""
    if "error" in report:
        err = report["error"]
        return None, [f"error {err.get('type')}: {err.get('message')}"]
    command = query.command
    verdict = verdict_of(command, report)
    problems = []
    if command == "k-of":
        want_code = 0
    else:
        want_code = int(verdict == (command in TRUE_IS_ONE))
    if code != want_code:
        problems.append(f"exit code {code} does not match verdict {verdict}")
    if query.expect is not None and verdict != query.expect:
        problems.append(f"verdict {verdict} contradicts the constructed {query.expect}")

    problem = query.problem
    objects = problem.objects
    args = problem.queries[0].args
    field = problem.ring.field
    arith = Arith(field)

    if command in ("member", "semiprime-member", "matrix-semiprime-member", "refute-semiprime"):
        f = objects[args["query"]][1]
        gens = [objects[g][1] for g in args["generators"]]
    if command in ("member", "semiprime-member") and verdict:
        cert = report.get("certificate")
        if cert is not None:
            problems += certificate_problems(f, gens, cert["cofactors"])
        elif command == "member" or report.get("method") == "cofactor":
            problems.append("positive membership without a certificate")
    if command in ("semiprime-member", "matrix-semiprime-member"):
        witness = report.get("witness")
        if witness is not None:
            if verdict:
                problems.append("witness attached to a positive verdict")
            point = [arith.parse(x) for x in witness["point"]]
            vec = [arith.parse(x) for x in witness["vector"]]
            problems += vanishing_evidence_problems(arith, f, gens, point, vec)
    elif command == "refute-semiprime" and verdict:
        if report["witness"]["candidate"] != str(f):
            problems.append("refutation names another candidate")
    elif command == "refute-weak" and verdict:
        w = report["witness"]
        if w["scalar"] != str(objects[args["scalar"]][1]) or w["vector"] != str(
            objects[args["vector"]][1]
        ):
            problems.append("refutation names another pair")
    elif command == "k-of":
        gens = [objects[g][1] for g in args["generators"]]
        point = [c.value for c in args["point"]]
        n = len(gens[0])
        rows = [[arith.evaluate(e, point) for e in g.entries] for g in gens]
        rank = arith.rank(rows)
        if (rank == n) != verdict:
            problems.append(f"k-of improper={verdict}, evaluated rank says {rank == n}")
        span = [[arith.parse(x) for x in row] for row in report["span"]]
        if (len(span) != rank or any(len(row) != n for row in span)
                or arith.rank(span) != rank or arith.rank(rows + span) != rank):
            problems.append("k-of span is not a basis of the evaluated generators' span")
    elif command == "oracle":
        problems += _oracle_problems(query, report)
    return verdict, problems


def _oracle_problems(query, report):
    problem = query.problem
    args = problem.queries[0].args
    f = problem.objects[args["query"]][1]
    gens = [problem.objects[g][1] for g in args["generators"]]
    problems = []
    for sweep in report["reports"]:
        field = field_from_name(sweep["field"])
        arith = Arith(field)
        if sweep["result"] == "pass":
            if sweep["points"] != field.size ** problem.ring.nx:
                problems.append(f"pass over {sweep['field']} after {sweep['points']} points")
        else:
            cex = sweep["counterexample"]
            point = [arith.parse(x) for x in cex["point"]]
            vec = [arith.parse(x) for x in cex["vector"]]
            problems += vanishing_evidence_problems(arith, f, gens, point, vec)
    if report["pass"] != all(s["result"] == "pass" for s in report["reports"]):
        problems.append("overall pass disagrees with the sweeps")
    return problems
