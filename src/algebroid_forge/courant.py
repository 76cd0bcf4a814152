"""Courant algebroid structures on split doubles B + B*.

Every double handled here is stored in one normal form: a vector-side
presentation, anchored-bracket data for the covector side, a 3-multivector
term and a 3-form twist.  The standard double, the twisted double and the
double of a quasi-Lie bialgebroid are instances.  Conjugation (changing the
sign of the bilinear form) is stored as the transport b* -> -b*: the
conjugate has the negated covector structure and twist, and the section
X + a of a double is X - a of its conjugate, so morphism graphs in
E1 x conj(E2) use one uniform bracket and pairing.

The Dorfman bracket in this normal form is flip-symmetric:

    (X+a) o (Y+b) = [X,Y] + L*_a Y - i_b d* X + X3(a, b, -)
                  + [a,b]* + L_X b - i_Y d a + psi(X, Y, -),

where L*_a Y = i_a d*Y + d*<a,Y> and L_X b = i_X db + d<b,X>.  Each side of
the double gives its bracket to its own half and a Lie derivative minus a
contraction to the other: the vector side [X,Y] and L_X b - i_Y da, the
covector side [a,b]* and L*_a Y - i_b d*X.  ``dorfman`` evaluates one side
at a time in frame components, for (u, v; s, t) = (X, Y; a, b) on the
vector side and (a, b; X, Y) on the covector side, each with its own data:
[e_i, e_j] = c_ij^k e_k (c_ji = -c_ij) and rho_i = rho(e_i), or c* and
rho* of the dual frame.  Five terms per side:

    [u,v]_k             = sum_{i<j} (u_i v_j - u_j v_i) c_ij^k     (1)
                        + sum_i (u_i rho_i(v_k) - v_i rho_i(u_k))  (2)
    (L_u t - i_v ds)_k  = sum_j (u_j rho_j(t_k) - v_j rho_j(s_k))  (3)
                        + sum_j (t_j rho_k(u_j) + v_j rho_k(s_j))  (4)
                        - sum_{j,m} c_jk^m (u_j t_m - v_j s_m)     (5)

Terms (3)-(5) are i_u dt + d<t,u> - i_v ds, with (dt)_jk = rho_j(t_k) -
rho_k(t_j) - c_jk^m t_m and (i_u W)_k = sum_j u_j W_jk for a degree-2 W (the
conventions of ``calculus``), and with each rho_k a derivation: the terms
u_j rho_k(t_j) of i_u dt and of d<t,u> cancel, so neither is formed, and no
d or d_* section is built.  rho_i(f) is the memoized ``rho_apply``.  The
three-tensors add

    X3(a,b,-)_k  = sum_{i<j} (a_i b_j - a_j b_i) (i_{eps^j} i_{eps^i} X3)_k
    psi(X,Y,-)_k = sum_{i<j} (X_i Y_j - X_j Y_i) (i_{e_j} i_{e_i} psi)_k

with i_{e_j} eps^I = (-1)^t eps^{I minus j}, t the position of j in I.  The
C1, C2 and C5 residues of ``verify_courant_axioms`` are evaluated in the
same components (``_residue``): each residue is built once, from its
summed components, with no section arithmetic.
"""

from __future__ import annotations

from itertools import combinations
from itertools import product as cartesian_product

from .calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    GradedSection,
    SeededRng,
    _accumulate,
    _single_contract,
    apply_field,
    d_function,
    null_presentation,
    pairing,
    pullback,
    random_poly,
    random_sections,
    vector_field,
    vf_bracket,
)
from .errors import DegreeMismatch, DivisionByZero, MalformedMorphism, ParentMismatch, VarianceMismatch, clip
from .pn import QuasiLieBialgebroid, d_star, dual_anchor
from .rational import RationalFunction, term_product
from .reporting import EVIDENCE_SAMPLED, PROOF_TENSORIAL, Report


class CourantDouble:
    """Normal form of a split double.  Equality reads the data, not the
    memo cache."""

    __slots__ = ("base", "dual", "x3", "psi", "_cache")

    def __init__(self, base: AlgebroidPresentation, dual: AlgebroidPresentation, x3, psi):
        self.base, self.dual, self.x3, self.psi = base, dual, x3, psi
        self._cache = {}

    def __eq__(self, other):
        if not isinstance(other, CourantDouble):
            return NotImplemented
        return (self.base, self.dual, self.x3, self.psi) == (other.base, other.dual, other.x3, other.psi)

    memo = AlgebroidPresentation.memo  # Dorfman bracket, frame tables, pairing, anchor and its action

    @property
    def rank(self) -> int:
        return self.base.rank

    def frame_section(self, i: int) -> "CourantSection":
        return CourantSection(self.base.frame(i), self.base.zero_section(FORM, 1))

    def coframe_section(self, i: int) -> "CourantSection":
        return CourantSection(self.base.zero_section(MULTIVECTOR, 1), self.base.coframe(i))


class CourantSection:
    """A section X + alpha of B + B*, stored as its two degree-1 halves."""

    __slots__ = ("vec", "cov", "_key")

    def __init__(self, vec: GradedSection, cov: GradedSection):
        self.vec = vec
        self.cov = cov
        self._key = None

    @property
    def key(self) -> tuple:
        """(vec.key, cov.key), built once: all a memo key records of a section."""
        if self._key is None:
            self._key = (self.vec.key, self.cov.key)
        return self._key

    def __add__(self, other: "CourantSection") -> "CourantSection":
        return CourantSection(self.vec + other.vec, self.cov + other.cov)

    def __sub__(self, other: "CourantSection") -> "CourantSection":
        return CourantSection(self.vec - other.vec, self.cov - other.cov)

    def __neg__(self) -> "CourantSection":
        return CourantSection(-self.vec, -self.cov)

    def scale(self, f) -> "CourantSection":
        return CourantSection(self.vec.scale(f), self.cov.scale(f))

    def is_zero(self) -> bool:
        return self.vec.is_zero() and self.cov.is_zero()

    def __eq__(self, other):
        if not isinstance(other, CourantSection):
            return NotImplemented
        return self.vec == other.vec and self.cov == other.cov

    def __str__(self):
        return f"{self.vec} | {self.cov}"

    __repr__ = __str__

    def components(self, rank: int) -> list[RationalFunction]:
        return [self.vec.coefficient((i,)) for i in range(rank)] + [
            self.cov.coefficient((i,)) for i in range(rank)
        ]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def twisted_double(A: AlgebroidPresentation, phi: GradedSection) -> CourantDouble:
    return CourantDouble(A, null_presentation(A), A.zero_section(MULTIVECTOR, 3), phi)


def standard_double(A: AlgebroidPresentation) -> CourantDouble:
    return twisted_double(A, A.zero_section(FORM, 3))


def qlb_double(Q: QuasiLieBialgebroid) -> CourantDouble:
    return CourantDouble(Q.base, Q.dual, Q.x3, Q.base.zero_section(FORM, 3))


def negate_presentation(P: AlgebroidPresentation) -> AlgebroidPresentation:
    """P with every anchor and structure entry negated: the nonzero ones."""
    anchor = list(P.anchor)
    for i in P.anchored:
        anchor[i] = tuple(-c for c in anchor[i])
    structure = {pair: tuple((k, -c) for k, c in row) for pair, row in P.structure.items()}
    return AlgebroidPresentation(P.coords, P.rank, tuple(anchor), structure)


def conjugate(E: CourantDouble) -> CourantDouble:
    """The double with the sign of the bilinear form changed, in plus form.

    It is carried through the transport b* -> -b*, which negates the
    covector half of every section: the section X + a of E is X - a here,
    so the dual bracket and anchor and the twist are negated, and x3 is not.
    """
    return CourantDouble(E.base, negate_presentation(E.dual), E.x3, -E.psi)


def _rename_ring(coords: tuple[str, ...], taken: set[str]) -> dict[str, str]:
    renames = {}
    for name in coords:
        candidate = name
        while candidate in taken:
            candidate = candidate + "_b"
        renames[name] = candidate
        taken.add(candidate)
    return renames


def _transport(rf: RationalFunction, renames: dict[str, str], target: tuple[str, ...]) -> RationalFunction:
    values = {old: RationalFunction.coord(target, new) for old, new in renames.items()}
    return rf.subs(values, target=target)


def product(E1: CourantDouble, E2: CourantDouble) -> CourantDouble:
    E, _ = product_with_renaming(E1, E2)
    return E


def product_with_renaming(
    E1: CourantDouble, E2: CourantDouble
) -> tuple[CourantDouble, dict[str, str]]:
    """Componentwise product; second-factor coordinates renamed on collision."""
    taken = set(E1.base.coords)
    renames2 = _rename_ring(E2.base.coords, taken)
    coords = E1.base.coords + tuple(renames2[c] for c in E2.base.coords)
    renames1 = {c: c for c in E1.base.coords}

    def combine(p1: AlgebroidPresentation, p2: AlgebroidPresentation) -> AlgebroidPresentation:
        # each factor's block: nonzero entries only
        rank, zero = p1.rank + p2.rank, RationalFunction.zero(coords)
        anchor = [[zero] * len(coords) for _ in range(rank)]
        structure = {}
        for P, offset, shift, renames in ((p1, 0, 0, renames1), (p2, p1.rank, p1.n, renames2)):
            for i in P.anchored:
                for a, c in enumerate(P.anchor[i]):
                    if not c.is_zero():
                        anchor[offset + i][shift + a] = _transport(c, renames, coords)
            for (i, j), row in P.structure.items():
                structure[(offset + i, offset + j)] = tuple(
                    (offset + k, _transport(c, renames, coords)) for k, c in row
                )
        return AlgebroidPresentation(coords, rank, tuple(map(tuple, anchor)), structure)

    base = combine(E1.base, E2.base)
    dual = combine(E1.dual, E2.dual)

    x3 = _embed(E1.x3, base, 0, renames1) + _embed(E2.x3, base, E1.rank, renames2)
    psi = _embed(E1.psi, base, 0, renames1) + _embed(E2.psi, base, E1.rank, renames2)
    return CourantDouble(base, dual, x3, psi), renames2


def _embed(
    s: GradedSection, parent: AlgebroidPresentation, offset: int, renames: dict[str, str]
) -> GradedSection:
    """Transport a factor section into a product presentation at the given block."""
    coeffs = {
        tuple(i + offset for i in idx): _transport(c, renames, parent.coords)
        for idx, c in s.coeffs.items()
    }
    return parent.section(s.variance, s.degree, coeffs)


# ---------------------------------------------------------------------------
# pairing, anchor, brackets
# ---------------------------------------------------------------------------


def _on_double(E: CourantDouble, halves: tuple[GradedSection, ...]) -> None:
    """Raise unless every half lives on E.base: a memo key records a section
    by its coefficients only, so a section of another presentation must not
    reach the cache.  Callers test the halves' parent identity first and call
    this, the data-equality fallback, only when one differs."""
    base = E.base
    for h in halves:
        if h.parent is not base and h.parent != base:
            raise ParentMismatch("sections do not live on this double")


def pairing_sections(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> RationalFunction:
    if not (e1.vec.parent is e1.cov.parent is e2.vec.parent is e2.cov.parent is E.base):
        _on_double(E, (e1.vec, e1.cov, e2.vec, e2.cov))
    return E.memo(("pairing_sections", e1.key, e2.key), _compute_pairing, e1, e2)


def _compute_pairing(e1: CourantSection, e2: CourantSection) -> RationalFunction:
    return pairing(e1.cov, e2.vec) + pairing(e2.cov, e1.vec)


def anchor_field(E: CourantDouble, e: CourantSection) -> tuple[RationalFunction, ...]:
    if not (e.vec.parent is e.cov.parent is E.base):
        _on_double(E, (e.vec, e.cov))
    return E.memo(("anchor_field", e.key), _compute_anchor, E, e)


def _compute_anchor(E: CourantDouble, e: CourantSection) -> tuple[RationalFunction, ...]:
    v = vector_field(e.vec)
    w = dual_anchor(E, e.cov)
    return tuple(a + b for a, b in zip(v, w))


def dorfman(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> CourantSection:
    """The non-skew bracket; see the module docstring for the formula."""
    if not (e1.vec.parent is e1.cov.parent is e2.vec.parent is e2.cov.parent is E.base):
        _on_double(E, (e1.vec, e1.cov, e2.vec, e2.cov))
    return E.memo(("dorfman", e1.key, e2.key), _compute_dorfman, E, e1, e2)


def _compute_dorfman(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> CourantSection:
    X, a = _frame_coefficients(e1.vec, MULTIVECTOR), _frame_coefficients(e1.cov, FORM)
    Y, b = _frame_coefficients(e2.vec, MULTIVECTOR), _frame_coefficients(e2.cov, FORM)
    x3_pairs, psi_pairs = _frame_tables(E)
    vec: dict[int, RationalFunction] = {}
    cov: dict[int, RationalFunction] = {}
    _side_into(vec, cov, E.base, X, Y, a, b)
    _side_into(cov, vec, E.dual, a, b, X, Y)
    if a and b:
        _pairs_into(vec, x3_pairs, a, b)
    if X and Y:
        _pairs_into(cov, psi_pairs, X, Y)
    return CourantSection(_degree_one(E.base, MULTIVECTOR, vec), _degree_one(E.base, FORM, cov))


# -- frame components of the Dorfman bracket -----------------------------------
# A degree-1 half is read as {i: coefficient}; each term adds its components
# into an {k: coefficient} accumulator.


def _frame_coefficients(h: GradedSection, variance: str) -> dict[int, RationalFunction]:
    if h.coeffs and h.variance != variance:
        raise VarianceMismatch(f"a Courant section half must be a {variance}")
    if h.coeffs and h.degree != 1:
        raise DegreeMismatch(f"a Courant section half has degree 1, not {h.degree}")
    return {i: c for (i,), c in h.coeffs.items()}


def _degree_one(parent: AlgebroidPresentation, variance: str, acc: dict) -> GradedSection:
    return GradedSection._make(parent, variance, 1, {(k,): c for k, c in acc.items()})


def _frame_tables(E: CourantDouble) -> tuple:
    """Per-double pair tables of E.x3 and of E.psi, after checking that
    E.dual shares E.base's chart and rank; see ``_compute_frame_tables``."""
    return E.memo(("frame_tables",), _compute_frame_tables, E)


def _compute_frame_tables(E: CourantDouble) -> tuple:
    """A pair table maps (i, j), i < j, with a nonzero row to ((k, t_ij^k), ...),
    the components of i_j i_i T for a three-tensor T: the shape of a side's
    ``structure``, which the Dorfman kernel reads directly."""
    base, dual = E.base, E.dual
    if dual.rank != base.rank or dual.coords != base.coords:
        raise ParentMismatch("the dual side must share the base's chart and rank")

    def contractions(T: GradedSection, variance: str):
        if T.is_zero():
            return {}
        if T.parent != base:
            raise ParentMismatch("the three-tensors of a double live on its base")
        if T.variance != variance:
            raise VarianceMismatch("x3 must be a multivector and psi a form")
        if T.degree != 3:
            raise DegreeMismatch("x3 and psi have degree 3")
        pairs = {}
        for i, j in combinations(range(base.rank), 2):
            row = _single_contract(_single_contract(T.coeffs, i), j)
            if row:
                pairs[(i, j)] = tuple((k, c) for (k,), c in row.items())
        return pairs

    return contractions(E.x3, MULTIVECTOR), contractions(E.psi, FORM)


def _pairs_into(acc: dict, pairs: dict, u: dict, v: dict) -> None:
    """sum_{i<j} (u_i v_j - u_j v_i) t_ij^k, for a pair table t."""
    for (i, j), row in pairs.items():
        ui, uj, vi, vj = u.get(i), u.get(j), v.get(i), v.get(j)
        w = ui * vj if ui is not None and vj is not None else None
        if uj is not None and vi is not None:
            w = -(uj * vi) if w is None else w - uj * vi
        if w is None or w.is_zero():
            continue
        for k, c in row:
            _accumulate(acc, k, term_product(w, c))


def _side_into(own: dict, other: dict, P: AlgebroidPresentation, u: dict, v: dict, s: dict, t: dict) -> None:
    """The share of the side P: [u, v] into its own half and L_u t - i_v ds
    into the other half, by terms (1)-(5) of the module docstring, read from
    P.structure, P.anchored and the memoized P.rho_apply."""
    _pairs_into(own, P.structure, u, v)
    for i in P.anchored:
        ui, vi = u.get(i), v.get(i)
        # (2) and (3): w rho_i(z_k) for w = u_i, -v_i
        for acc, w, z, sign in ((own, ui, v, 1), (own, vi, u, -1), (other, ui, t, 1), (other, vi, s, -1)):
            if w is not None:
                for k, zk in z.items():
                    r = P.rho_apply(i, zk)
                    if not r.is_zero():
                        _accumulate(acc, k, term_product(w, r, sign))
        # (4): w_j rho_i(z_j) into k = i
        for w, z in ((t, u), (v, s)):
            for j, wj in w.items():
                zj = z.get(j)
                if zj is not None:
                    r = P.rho_apply(i, zj)
                    if not r.is_zero():
                        _accumulate(other, i, term_product(wj, r))
    # (5): -c_jk^m p_j z_m for (p, z) = (u, t) and, negated, (v, s); a row
    # (i, j) gives k = j from p_i and, as c_ji = -c_ij, k = i from p_j
    for (i, j), row in P.structure.items():
        for p, z, sign in ((u, t, 1), (v, s, -1)):
            for k, pk, sk in ((j, p.get(i), -sign), (i, p.get(j), sign)):
                if pk is not None:
                    for m, c in row:
                        zm = z.get(m)
                        if zm is not None:
                            _accumulate(other, k, term_product(c, pk * zm, sk))


def skew_bracket(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> CourantSection:
    d12 = dorfman(E, e1, e2)
    d21 = dorfman(E, e2, e1)
    return (d12 - d21).scale(E.base.one_rf() / 2)


def d_operator(E: CourantDouble, f: RationalFunction) -> CourantSection:
    """The pairing-adjoint derivative D f = rho^* d f."""
    return CourantSection(d_star(E, f), d_function(E.base, f))


def rho_apply_section(E: CourantDouble, e: CourantSection, f: RationalFunction) -> RationalFunction:
    if not (e.vec.parent is e.cov.parent is E.base):
        _on_double(E, (e.vec, e.cov))
    return E.memo(("rho_apply_section", e.key, f), _compute_rho_apply, E, e, f)


def _compute_rho_apply(E: CourantDouble, e: CourantSection, f: RationalFunction) -> RationalFunction:
    return apply_field(E.base, anchor_field(E, e), f)


# ---------------------------------------------------------------------------
# section families and the axiom verifier
# ---------------------------------------------------------------------------


class SectionFamily:
    """The documented EVIDENCE_SAMPLED family: frame sections, coordinate-
    scaled frame sections, and seeded random sections of bounded coefficient
    degree.  Frame tuples are enumerated exhaustively; tuples involving the
    larger family are sampled (``samples`` per axiom)."""

    __slots__ = ("E", "seed", "samples", "max_degree", "members", "frame_count")

    def __init__(self, E: CourantDouble, seed: int, samples: int, max_degree: int):
        self.E, self.seed, self.samples, self.max_degree = E, seed, samples, max_degree
        self.members: list[tuple[str, CourantSection]] = []
        for i in range(E.rank):
            self.members.append((f"e{i+1}", E.frame_section(i)))
            self.members.append((f"eps{i+1}", E.coframe_section(i)))
        self.frame_count = len(self.members)
        frames = list(self.members)
        for name in E.base.coords:
            x = E.base.coord_rf(name)
            for label, s in frames:
                self.members.append((f"{name}*{label}", s.scale(x)))
        for k, (vec, cov) in enumerate(random_sections(E.base, seed, samples, max_degree)):
            section = CourantSection(E.base.section(MULTIVECTOR, 1, vec), E.base.section(FORM, 1, cov))
            self.members.append((f"rnd{k}", section))

    def singles(self):
        return list(self.members)

    def tuples(self, arity: int):
        seen = []
        for combo in cartesian_product(range(self.frame_count), repeat=arity):
            seen.append(tuple(self.members[i] for i in combo))
        rng = SeededRng(self.seed + arity)
        for _ in range(self.samples):
            combo = [rng.randrange(0, len(self.members)) for _ in range(arity)]
            seen.append(tuple(self.members[i] for i in combo))
        return seen

    def functions(self):
        E = self.E
        out = [(name, E.base.coord_rf(name)) for name in E.base.coords]
        rng = SeededRng(self.seed + 101)
        out.append(("rndf", random_poly(E.base, rng, self.max_degree)))
        return out


def verify_courant_axioms(
    E: CourantDouble,
    kappa="1/2",
    seed: int = 0,
    samples: int = 10,
    max_degree: int = 2,
) -> Report:
    """Evaluate the five Courant axiom residues on the documented family.

    ``kappa`` is a rational scalar, or its text such as "1/2"."""
    family = SectionFamily(E, seed, samples, max_degree)
    report = Report(
        "verify-courant",
        params={"seed": seed, "samples": samples, "max_degree": max_degree, "kappa": str(kappa)},
    )

    c1 = report.clause("C1-leibniz-jacobi", EVIDENCE_SAMPLED)
    for (l1, e1), (l2, e2), (l3, e3) in family.tuples(3):
        lhs = dorfman(E, e1, dorfman(E, e2, e3))
        rhs1, rhs2 = dorfman(E, dorfman(E, e1, e2), e3), dorfman(E, e2, dorfman(E, e1, e3))
        c1.record(f"{l1},{l2},{l3}", _residue(E, ((1, None, lhs), (-1, None, rhs1), (-1, None, rhs2))))

    c2 = report.clause("C2-squares", EVIDENCE_SAMPLED)
    factor = E.base.scalar(kappa)
    for label, e in family.singles():
        square = d_operator(E, pairing_sections(E, e, e))
        c2.record(label, _residue(E, ((1, None, dorfman(E, e, e)), (-1, factor, square))))

    c3 = report.clause("C3-pairing-invariance", EVIDENCE_SAMPLED)
    for (l0, e), (l1, e1), (l2, e2) in family.tuples(3):
        lhs = rho_apply_section(E, e, pairing_sections(E, e1, e2))
        rhs = pairing_sections(E, dorfman(E, e, e1), e2) + pairing_sections(
            E, e1, dorfman(E, e, e2)
        )
        c3.record(f"{l0};{l1},{l2}", lhs - rhs)

    c4 = report.clause("C4-anchor-morphism", EVIDENCE_SAMPLED)
    for (l1, e1), (l2, e2) in family.tuples(2):
        lhs = anchor_field(E, dorfman(E, e1, e2))
        rhs = vf_bracket(E.base, anchor_field(E, e1), anchor_field(E, e2))
        for a, name in enumerate(E.base.coords):
            c4.record(f"{l1},{l2}.{name}", lhs[a] - rhs[a])
        if not E.base.coords:
            c4.record(f"{l1},{l2}", E.base.zero_rf())

    c5 = report.clause("C5-leibniz-anchor", EVIDENCE_SAMPLED)
    functions = family.functions()
    scaled = {}  # f * e2, built once per (e2, f)
    for (l1, e1), (l2, e2) in family.tuples(2):
        for fname, f in functions:
            key = (l2, fname)
            if key not in scaled:
                scaled[key] = e2.scale(f)
            lhs, rhs1 = dorfman(E, e1, scaled[key]), dorfman(E, e1, e2)
            terms = ((1, None, lhs), (-1, f, rhs1), (-1, rho_apply_section(E, e1, f), e2))
            c5.record(f"{l1},{l2};{fname}", _residue(E, terms))
        if not E.base.coords:
            c5.record(f"{l1},{l2}", E.base.zero_rf())
    return report


def _residue(E: CourantDouble, terms) -> CourantSection:
    """sum sign * w * s over the terms (sign, w, s), w a function or None
    for 1, summed in frame components into one accumulator per half."""
    vec: dict[int, RationalFunction] = {}
    cov: dict[int, RationalFunction] = {}
    for sign, w, s in terms:
        if w is not None and w.is_zero():
            continue
        for acc, half in ((vec, s.vec), (cov, s.cov)):
            for (i,), c in half.coeffs.items():
                _accumulate(acc, i, (c if sign > 0 else -c) if w is None else term_product(c, w, sign))
    return CourantSection(_degree_one(E.base, MULTIVECTOR, vec), _degree_one(E.base, FORM, cov))


# ---------------------------------------------------------------------------
# submanifolds and restriction
# ---------------------------------------------------------------------------


class Submanifold:
    """Substitution-presented submanifold: every determined coordinate is an
    expression in the kept coordinates (zero for coordinate subspaces)."""

    __slots__ = ("coords", "assignments")

    def __init__(self, coords: tuple[str, ...], assignments: tuple[tuple[str, RationalFunction], ...]):
        self.coords, self.assignments = coords, assignments

    @classmethod
    def coordinate_subspace(cls, coords: tuple[str, ...], vanishing) -> "Submanifold":
        zero = RationalFunction.zero(coords)
        return cls(coords, tuple((name, zero) for name in vanishing))

    @property
    def kept(self) -> tuple[str, ...]:
        determined = {name for name, _ in self.assignments}
        return tuple(c for c in self.coords if c not in determined)

    def restrict(self, f: RationalFunction) -> RationalFunction:
        try:
            return f.subs(dict(self.assignments), target=self.coords)
        except DivisionByZero:
            where = ", ".join(f"{name} -> {clip(str(expr))}" for name, expr in self.assignments)
            raise DivisionByZero(f"division by zero restricting {clip(str(f))} to {where}") from None

    def tangency_residues(self, A, field_components) -> list[tuple[str, RationalFunction]]:
        """Residues whose vanishing says the vector field is tangent to P;
        A is a presentation on P's chart."""
        kept = set(self.kept)
        zero = RationalFunction.zero(self.coords)
        along = [v if name in kept else zero for name, v in zip(self.coords, field_components)]
        out = []
        for name, expr in self.assignments:
            residue = field_components[self.coords.index(name)] - apply_field(A, along, expr)
            out.append((name, self.restrict(residue)))
        return out


def restrict_section(P: Submanifold, e: CourantSection) -> CourantSection:
    vec = {idx: P.restrict(c) for idx, c in e.vec.coeffs.items()}
    cov = {idx: P.restrict(c) for idx, c in e.cov.coeffs.items()}
    return CourantSection(
        e.vec.parent.section(MULTIVECTOR, 1, vec), e.vec.parent.section(FORM, 1, cov)
    )


# -- exact linear algebra over the rational-function field --------------------


def _eliminate(rows: list[list[RationalFunction]], v: list[RationalFunction]):
    """Reduce v against rows (each row led by its first nonzero entry)."""
    for row in rows:
        lead = next((k for k, x in enumerate(row) if not x.is_zero()), None)
        if lead is None:
            continue
        if not v[lead].is_zero():
            factor = v[lead] / row[lead]
            v = [a - factor * b for a, b in zip(v, row)]
    return v


def _row_space(vectors: list[list[RationalFunction]]) -> list[list[RationalFunction]]:
    rows: list[list[RationalFunction]] = []
    for v in vectors:
        v = _eliminate(rows, list(v))
        if any(not x.is_zero() for x in v):
            rows.append(v)
    return rows


def in_span(rows: list[list[RationalFunction]], v: list[RationalFunction]) -> bool:
    reduced = _eliminate(rows, list(v))
    return all(x.is_zero() for x in reduced)


# ---------------------------------------------------------------------------
# generalized Dirac structures
# ---------------------------------------------------------------------------


class GeneralizedDirac:
    """A candidate Dirac structure supported on P, by spanning sections whose
    coefficients only involve the kept coordinates (their constant extension
    off P is implicit)."""

    __slots__ = ("E", "P", "generators")

    def __init__(self, E: CourantDouble, P: Submanifold, generators: list[tuple[str, CourantSection]]):
        self.E, self.P, self.generators = E, P, generators


def tangent_conormal_dirac(E: CourantDouble, vanishing) -> GeneralizedDirac:
    """F = TP + nu*P inside a (twisted) standard double, P = {x_c = 0}.

    Requires a tangent-type base (rank equals base dimension, frame e_i
    matched to coordinate x_i).
    """
    if E.rank != E.base.n:
        raise ParentMismatch("TP + nu*P needs rank == base dimension")
    P = Submanifold.coordinate_subspace(E.base.coords, tuple(vanishing))
    gens: list[tuple[str, CourantSection]] = []
    vanishing = tuple(vanishing)
    for i in range(E.rank):
        name = E.base.coords[i]
        if name in vanishing:
            gens.append((f"eps{i+1}", E.coframe_section(i)))
        else:
            gens.append((f"e{i+1}", E.frame_section(i)))
    return GeneralizedDirac(E, P, gens)


def check_generalized_dirac(F: GeneralizedDirac) -> Report:
    """D1 maximal isotropy, D2 anchor tangency, D3 bracket closure, exactly."""
    E, P = F.E, F.P
    report = Report("check-generalized-dirac")
    restricted = [(label, restrict_section(P, s)) for label, s in F.generators]

    d1 = report.clause("D1-maximal-isotropy", PROOF_TENSORIAL)
    rows = _row_space([s.components(E.rank) for _, s in restricted])
    d1.record_flag(f"rank {len(rows)} == {E.rank}", len(rows) == E.rank, "rank-deficient")
    for (l1, s1), (l2, s2) in combinations(restricted, 2):
        d1.record(f"<{l1},{l2}>", P.restrict(pairing_sections(E, s1, s2)))
    for label, s in restricted:
        d1.record(f"<{label},{label}>", P.restrict(pairing_sections(E, s, s)))

    d2 = report.clause("D2-anchor-tangency", PROOF_TENSORIAL)
    for label, s in restricted:
        for name, residue in P.tangency_residues(E.base, anchor_field(E, s)):
            d2.record(f"{label}.{name}", residue)

    d3 = report.clause("D3-bracket-closure", PROOF_TENSORIAL,
                       note="constant extension off P of the spanning sections")
    for l1, s1 in F.generators:
        for l2, s2 in F.generators:
            bracket = dorfman(E, s1, s2)
            v = [P.restrict(c) for c in bracket.components(E.rank)]
            d3.record_flag(f"{l1} o {l2}", in_span(rows, v), "left-the-subbundle")
    return report


# ---------------------------------------------------------------------------
# split Dirac structures F = L + L^perp
# ---------------------------------------------------------------------------


def _stays_in(P: Submanifold, section: GradedSection, indices) -> bool:
    """Whether the degree-1 section restricted to P has no component off
    ``indices``; every component is restricted, so any pole on P raises."""
    restricted = [(i, P.restrict(c)) for (i,), c in section.coeffs.items()]
    return all(i in indices or c.is_zero() for i, c in restricted)


def check_split_dirac(
    Q: QuasiLieBialgebroid,
    span: tuple[int, ...],
    P: Submanifold,
) -> Report:
    """The four subalgebroid conditions, the direct D1-D3 verdict on
    F = L + L^perp, and the asserted biconditional between them, for L
    spanned by the frame sections e_i, i in ``span`` (0-based): L_k is
    e_{span[k]}, and the Lp_k spanning L^perp are the other coframe sections
    eps^i, in increasing i.  The conditions read the frame data of both
    sides and the components of X."""
    E = qlb_double(Q)
    report = Report("check-split-dirac")
    rest = [i for i in range(E.rank) if i not in span]
    l_frames = [(f"L{k+1}", i) for k, i in enumerate(span)]
    p_frames = [(f"Lp{k+1}", i) for k, i in enumerate(rest)]

    cond1 = report.clause("1-L-subalgebroid", PROOF_TENSORIAL)
    for label, i in l_frames:
        for name, residue in P.tangency_residues(E.base, E.base.anchor[i]):
            cond1.record(f"rho({label}).{name}", residue)
    for l1, i in l_frames:
        for l2, j in l_frames:
            cond1.record_flag(f"[{l1},{l2}]", _stays_in(P, E.base.bracket_frame(i, j), span), "left-L")

    cond2 = report.clause("2-Lperp-closed", PROOF_TENSORIAL)
    for l1, i in p_frames:
        for l2, j in p_frames:
            cond2.record_flag(f"[{l1},{l2}]*", _stays_in(P, E.dual.bracket_frame(i, j), rest), "left-Lperp")

    cond3 = report.clause("3-Lperp-anchor-tangency", PROOF_TENSORIAL)
    for label, i in p_frames:
        for name, residue in P.tangency_residues(E.base, E.dual.anchor[i]):
            cond3.record(f"rho*({label}).{name}", residue)

    cond4 = report.clause("4-X-vanishes-on-Lperp", PROOF_TENSORIAL)
    cond4.record_flag("X-degree", True)
    for (l1, i), (l2, j), (l3, k) in combinations(p_frames, 3):
        cond4.record(f"X({l1},{l2},{l3})", P.restrict(Q.x3.coefficient((i, j, k))))

    gens = [(label, E.frame_section(i)) for label, i in l_frames]
    gens += [(label, E.coframe_section(i)) for label, i in p_frames]
    direct = check_generalized_dirac(GeneralizedDirac(E, P, gens))
    report.clause("direct-D1-D3", PROOF_TENSORIAL).absorb(direct, prefixed=True)

    four = all(c.passed for c in (cond1, cond2, cond3, cond4))
    biconditional = report.clause(
        "biconditional", PROOF_TENSORIAL, note="four conditions iff D1-D3; mismatch is a library bug"
    )
    biconditional.record_flag(
        f"four={four} direct={direct.passed}", four == direct.passed, "BICONDITIONAL-VIOLATED"
    )
    return report


# ---------------------------------------------------------------------------
# morphism graphs
# ---------------------------------------------------------------------------


def build_morphism_graph(
    phi: BundleMorphism, QA: QuasiLieBialgebroid, QB: QuasiLieBialgebroid
) -> GeneralizedDirac:
    """The graph F = {(a + Phi* b*, Phi a + b*)} in product(E1, conj(E2)),
    supported on the graph of the base map."""
    if phi.source != QA.base or phi.target != QB.base:
        raise MalformedMorphism("morphism must map between the underlying algebroids")
    E1 = qlb_double(QA)
    E2 = qlb_double(QB)
    E, renames2 = product_with_renaming(E1, conjugate(E2))
    coords = E.base.coords
    renames1 = {c: c for c in E1.base.coords}
    assignments = []
    for b, name in enumerate(QB.base.coords):
        assignments.append((renames2[name], _transport(phi.base_map[b], renames1, coords)))
    P = Submanifold(coords, tuple(assignments))

    gens: list[tuple[str, CourantSection]] = []
    for i in range(QA.base.rank):
        left = CourantSection(
            _embed(QA.base.frame(i), E.base, 0, renames1), E.base.zero_section(FORM, 1)
        )
        # the push-forward coefficients live over source coordinates, which
        # embed into the product chart unchanged
        right_vec = {
            (QA.base.rank + j,): _transport(phi.matrix[j][i], renames1, coords)
            for j in range(QB.base.rank)
        }
        right = CourantSection(
            E.base.section(MULTIVECTOR, 1, right_vec), E.base.zero_section(FORM, 1)
        )
        gens.append((f"graph-e{i+1}", left + right))
    for j in range(QB.base.rank):
        pulled = pullback(phi, QB.base.coframe(j))
        left = CourantSection(
            E.base.zero_section(MULTIVECTOR, 1), _embed(pulled, E.base, 0, renames1)
        )
        # -eps_B^j: eps_B^j of E2 is -eps_B^j of its conjugate
        right_cov = {(QA.base.rank + j,): -RationalFunction.one(coords)}
        right = CourantSection(
            E.base.zero_section(MULTIVECTOR, 1), E.base.section(FORM, 1, right_cov)
        )
        gens.append((f"graph-eps{j+1}", left + right))
    return GeneralizedDirac(E, P, gens)
