"""Courant algebroid structures on split doubles B + B*.

Every double handled here is stored in one normal form: a vector-side
presentation, anchored-bracket data for the covector side, a 3-multivector
term and a 3-form twist.  The standard double, the twisted double and the
double of a quasi-Lie bialgebroid are instances.  Conjugation (changing the
sign of the bilinear form) keeps the data and marks the pairing flipped;
products first rewrite conjugated factors through the transport b* -> -b*
(negated covector structure and twist), so morphism graphs in
E1 x conj(E2) use one uniform bracket.

The Dorfman bracket in this normal form is flip-symmetric:

    (X+a) o (Y+b) = [X,Y] + L*_a Y - i_b d* X + X3(a, b, -)
                  + [a,b]* + L_X b - i_Y d a + psi(X, Y, -),

where L*_a Y = i_a d*Y + d*<a,Y> and L_X b = i_X db + d<b,X>.  ``dorfman``
evaluates it in frame components: ten terms, five per half.  Write
X = X_i e_i and a = a_i eps^i (likewise Y and b), [e_i, e_j] = c_ij^k e_k
and rho_i = rho(e_i); c* and rho* are the same data of the dual side, and
a degree-2 W has W_jk = -W_kj for j > k.  Then

    [X,Y]_k      = sum_{i<j} (X_i Y_j - X_j Y_i) c_ij^k
                   + sum_i (X_i rho_i(Y_k) - Y_i rho_i(X_k))
    (i_a d*Y)_k  = sum_j a_j (d*Y)_jk
    (d*<a,Y>)_k  = rho*_k(<a,Y>),   <a,Y> = sum_i a_i Y_i
    -(i_b d*X)_k = -sum_j b_j (d*X)_jk
    X3(a,b,-)_k  = sum_{i<j} (a_i b_j - a_j b_i) (i_{eps^j} i_{eps^i} X3)_k

    [a,b]*_k     = [X,Y]_k with a, b for X, Y and c*, rho* for c, rho
    (i_X db)_k   = sum_j X_j (db)_jk
    (d<b,X>)_k   = rho_k(<b,X>)
    -(i_Y da)_k  = -sum_j Y_j (da)_jk
    psi(X,Y,-)_k = sum_{i<j} (X_i Y_j - X_j Y_i) (i_{e_j} i_{e_i} psi)_k

in the conventions of ``calculus`` (i_{e_j} eps^I = (-1)^t eps^{I minus j},
t the position of j in I).  d*Y and da are the memoized ``d_star`` and
``differential``, rho_i(f) the memoized ``rho_apply``.
"""

from __future__ import annotations

import math
from itertools import combinations
from itertools import product as cartesian_product

from .calculus import (
    FORM,
    MULTIVECTOR,
    AlgebroidPresentation,
    BundleMorphism,
    GradedSection,
    SeededRng,
    _pair_index,
    _single_contract,
    apply_field,
    d_function,
    differential,
    null_presentation,
    pairing,
    pullback,
    random_poly,
    schouten,
    vector_field,
    vf_bracket,
    wedge,
)
from .errors import DegreeMismatch, MalformedMorphism, ParentMismatch, VarianceMismatch
from .pn import QuasiLieBialgebroid, d_star, dual_anchor, dual_bracket
from .rational import RationalFunction
from .reporting import EVIDENCE_SAMPLED, PROOF_TENSORIAL, Report


class CourantDouble:
    """Normal form of a split double.

    A conjugated double (pairing negated) is stored through the transport
    automorphism b* -> -b*: the dual data and twist are negated, so the
    Dorfman formula below stays valid verbatim, and ``conjugated`` records
    that the user-facing pairing carries the opposite sign.  Equality reads
    the data, not the memo cache.
    """

    __slots__ = ("base", "dual", "x3", "psi", "conjugated", "_cache")

    def __init__(self, base: AlgebroidPresentation, dual: AlgebroidPresentation, x3, psi, conjugated=False):
        self.base, self.dual, self.x3, self.psi, self.conjugated = base, dual, x3, psi, conjugated
        self._cache = {}

    def __eq__(self, other):
        if not isinstance(other, CourantDouble):
            return NotImplemented
        return (self.base, self.dual, self.x3, self.psi, self.conjugated) == (
            other.base, other.dual, other.x3, other.psi, other.conjugated
        )

    memo = AlgebroidPresentation.memo  # Dorfman bracket, frame tables, pairing, anchor and its action

    @property
    def rank(self) -> int:
        return self.base.rank

    def zero_section(self) -> "CourantSection":
        return CourantSection(
            self.base.zero_section(MULTIVECTOR, 1), self.base.zero_section(FORM, 1)
        )

    def frame_section(self, i: int) -> "CourantSection":
        return CourantSection(self.base.frame(i), self.base.zero_section(FORM, 1))

    def coframe_section(self, i: int) -> "CourantSection":
        return CourantSection(self.base.zero_section(MULTIVECTOR, 1), self.base.coframe(i))


class CourantSection:
    """A section X + alpha of B + B*, stored as its two degree-1 halves."""

    __slots__ = ("vec", "cov")

    def __init__(self, vec: GradedSection, cov: GradedSection):
        self.vec = vec
        self.cov = cov

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
    anchor = tuple(tuple(-c for c in row) for row in P.anchor)
    structure = tuple(tuple(-c for c in row) for row in P.structure)
    return AlgebroidPresentation(P.coords, P.rank, anchor, structure, name=f"-{P.name}")


def conjugate(E: CourantDouble) -> CourantDouble:
    """The double with the sign of the bilinear form changed.

    Bracket and anchor are untouched; every pairing-derived quantity (the
    pairing itself and the adjoint derivative D) consults the flag.
    """
    return CourantDouble(E.base, E.dual, E.x3, E.psi, not E.conjugated)


def transport_plus(E: CourantDouble) -> CourantDouble:
    """Rewrite a conjugated double in plus-pairing form via b* -> -b*.

    The isomorphism negates covector components of sections; on the
    structure data it negates the dual bracket/anchor and the twist.
    """
    if not E.conjugated:
        return E
    return CourantDouble(E.base, negate_presentation(E.dual), E.x3, -E.psi, False)


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
    """Componentwise product; second-factor coordinates renamed on collision.

    Conjugated factors are first rewritten in plus-pairing form, so sections
    of a conjugated factor enter the product with negated covector parts.
    """
    E1 = transport_plus(E1)
    E2 = transport_plus(E2)
    taken = set(E1.base.coords)
    renames2 = _rename_ring(E2.base.coords, taken)
    coords = E1.base.coords + tuple(renames2[c] for c in E2.base.coords)
    renames1 = {c: c for c in E1.base.coords}

    def combine(p1: AlgebroidPresentation, p2: AlgebroidPresentation, name: str) -> AlgebroidPresentation:
        r1, r2 = p1.rank, p2.rank
        zero = RationalFunction.zero(coords)
        anchor = []
        for i in range(r1):
            row = [_transport(p1.anchor[i][a], renames1, coords) for a in range(p1.n)]
            anchor.append(tuple(row + [zero] * p2.n))
        for j in range(r2):
            row = [_transport(p2.anchor[j][a], renames2, coords) for a in range(p2.n)]
            anchor.append(tuple([zero] * p1.n + row))
        rank = r1 + r2
        rows = []
        for i in range(rank):
            for j in range(i + 1, rank):
                row = [zero] * rank
                if j < r1:
                    src = p1.structure[_pair_index(i, j, r1)]
                    for k in range(r1):
                        row[k] = _transport(src[k], renames1, coords)
                elif i >= r1:
                    src = p2.structure[_pair_index(i - r1, j - r1, r2)]
                    for k in range(r2):
                        row[r1 + k] = _transport(src[k], renames2, coords)
                rows.append(tuple(row))
        return AlgebroidPresentation(coords, rank, tuple(anchor), tuple(rows), name=name)

    base = combine(E1.base, E2.base, f"{E1.base.name}x{E2.base.name}")
    dual = combine(E1.dual, E2.dual, f"{E1.dual.name}x{E2.dual.name}")

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
    reach the cache.  Identity is the common case; data equality the fallback."""
    base = E.base
    for h in halves:
        if h.parent is not base and h.parent != base:
            raise ParentMismatch("sections do not live on this double")


def pairing_sections(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> RationalFunction:
    halves = (e1.vec, e1.cov, e2.vec, e2.cov)
    _on_double(E, halves)
    key = ("pairing_sections",) + tuple(h.key for h in halves)
    return E.memo(key, _compute_pairing, E, e1, e2)


def _compute_pairing(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> RationalFunction:
    out = pairing(e1.cov, e2.vec) + pairing(e2.cov, e1.vec)
    return -out if E.conjugated else out


def anchor_field(E: CourantDouble, e: CourantSection) -> tuple[RationalFunction, ...]:
    _on_double(E, (e.vec, e.cov))
    return E.memo(("anchor_field", e.vec.key, e.cov.key), _compute_anchor, E, e)


def _compute_anchor(E: CourantDouble, e: CourantSection) -> tuple[RationalFunction, ...]:
    v = vector_field(e.vec)
    w = dual_anchor(E, e.cov)
    return tuple(a + b for a, b in zip(v, w))


def dorfman(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> CourantSection:
    """The non-skew bracket; see the module docstring for the formula."""
    halves = (e1.vec, e1.cov, e2.vec, e2.cov)
    _on_double(E, halves)
    key = ("dorfman",) + tuple(h.key for h in halves)
    return E.memo(key, _compute_dorfman, E, e1, e2)


def _compute_dorfman(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> CourantSection:
    X, a = _frame_coefficients(e1.vec, MULTIVECTOR), _frame_coefficients(e1.cov, FORM)
    Y, b = _frame_coefficients(e2.vec, MULTIVECTOR), _frame_coefficients(e2.cov, FORM)
    base_table, dual_table, x3_pairs, psi_pairs = _frame_tables(E)
    vec: dict[int, RationalFunction] = {}
    _bracket_into(vec, E.base, base_table, X, Y)
    if a and Y:
        _contract_into(vec, a, d_star(E, e2.vec), False)
        _gradient_into(vec, E.dual, dual_table[1], a, Y)
    if b and X:
        _contract_into(vec, b, d_star(E, e1.vec), True)
    if a and b:
        _pairs_into(vec, x3_pairs, a, b)
    cov: dict[int, RationalFunction] = {}
    _bracket_into(cov, E.dual, dual_table, a, b)
    if X and b:
        _contract_into(cov, X, differential(e2.cov), False)
        _gradient_into(cov, E.base, base_table[1], b, X)
    if Y and a:
        _contract_into(cov, Y, differential(e1.cov), True)
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


def _accumulate(acc: dict, k: int, term: RationalFunction) -> None:
    s = acc.get(k)
    acc[k] = term if s is None else s + term


def _frame_tables(E: CourantDouble) -> tuple:
    """Per-double frame tables: (pairs, anchored) for E.base and for E.dual,
    and the pairs of E.x3 and of E.psi; see ``_compute_frame_tables``."""
    return E.memo(("frame_tables",), _compute_frame_tables, E)


def _compute_frame_tables(E: CourantDouble) -> tuple:
    """A pair table lists (i, j, ((k, t_ij^k), ...)) over i < j with a nonzero
    row: the structure entries c_ij^k of a side, or the components of
    i_j i_i T for the three-tensors.  ``anchored`` lists the frame indices
    whose anchor is nonzero."""
    base, dual = E.base, E.dual
    if dual.rank != base.rank or dual.coords != base.coords:
        raise ParentMismatch("the dual side must share the base's chart and rank")

    def structure(P: AlgebroidPresentation):
        pairs = []
        for i in range(P.rank):
            for j in range(i + 1, P.rank):
                row = P.structure[_pair_index(i, j, P.rank)]
                entries = tuple((k, c) for k, c in enumerate(row) if not c.is_zero())
                if entries:
                    pairs.append((i, j, entries))
        anchored = tuple(i for i, row in enumerate(P.anchor) if any(not c.is_zero() for c in row))
        return tuple(pairs), anchored

    def contractions(T: GradedSection, variance: str):
        if T.is_zero():
            return ()
        if T.parent != base:
            raise ParentMismatch("the three-tensors of a double live on its base")
        if T.variance != variance:
            raise VarianceMismatch("x3 must be a multivector and psi a form")
        if T.degree != 3:
            raise DegreeMismatch("x3 and psi have degree 3")
        pairs = []
        for i in range(base.rank):
            for j in range(i + 1, base.rank):
                row = _single_contract(_single_contract(T.coeffs, i), j)
                if row:
                    pairs.append((i, j, tuple((k, c) for (k,), c in row.items())))
        return tuple(pairs)

    return structure(base), structure(dual), contractions(E.x3, MULTIVECTOR), contractions(E.psi, FORM)


def _pairs_into(acc: dict, pairs: tuple, u: dict, v: dict) -> None:
    """sum_{i<j} (u_i v_j - u_j v_i) t_ij^k, for a pair table t."""
    for i, j, row in pairs:
        ui, uj, vi, vj = u.get(i), u.get(j), v.get(i), v.get(j)
        w = ui * vj if ui is not None and vj is not None else None
        if uj is not None and vi is not None:
            w = -(uj * vi) if w is None else w - uj * vi
        if w is None or w.is_zero():
            continue
        for k, c in row:
            _accumulate(acc, k, w * c)


def _bracket_into(acc: dict, P: AlgebroidPresentation, table: tuple, u: dict, v: dict) -> None:
    """[u, v]_k on the side P: its structure part, then its anchor part
    sum_i (u_i rho_i(v_k) - v_i rho_i(u_k))."""
    pairs, anchored = table
    _pairs_into(acc, pairs, u, v)
    for i in anchored:
        ui, vi = u.get(i), v.get(i)
        if ui is not None:
            for k, vk in v.items():
                t = P.rho_apply(i, vk)
                if not t.is_zero():
                    _accumulate(acc, k, ui * t)
        if vi is not None:
            for k, uk in u.items():
                t = P.rho_apply(i, uk)
                if not t.is_zero():
                    _accumulate(acc, k, -(vi * t))


def _contract_into(acc: dict, u: dict, W: GradedSection, negate: bool) -> None:
    """(i_u W)_k = sum_j u_j W_jk for a degree-2 W (W_jk = -W_kj), negated
    if asked."""
    for (j, k), w in W.coeffs.items():
        uj, uk = u.get(j), u.get(k)
        if uj is not None:
            t = uj * w
            _accumulate(acc, k, -t if negate else t)
        if uk is not None:
            t = uk * w
            _accumulate(acc, j, t if negate else -t)


def _gradient_into(acc: dict, P: AlgebroidPresentation, anchored: tuple, u: dict, v: dict) -> None:
    """(d_P <u, v>)_k = rho_k(sum_i u_i v_i) on the side P."""
    f = None
    for i, ui in u.items():
        vi = v.get(i)
        if vi is not None:
            f = ui * vi if f is None else f + ui * vi
    if f is None or f.is_zero():
        return
    for k in anchored:
        t = P.rho_apply(k, f)
        if not t.is_zero():
            _accumulate(acc, k, t)


def skew_bracket(E: CourantDouble, e1: CourantSection, e2: CourantSection) -> CourantSection:
    d12 = dorfman(E, e1, e2)
    d21 = dorfman(E, e2, e1)
    return (d12 - d21).scale(E.base.one_rf() / 2)


def d_operator(E: CourantDouble, f: RationalFunction) -> CourantSection:
    """The pairing-adjoint derivative D f = rho^* d f."""
    out = CourantSection(d_star(E, f), d_function(E.base, f))
    return -out if E.conjugated else out


def rho_apply_section(E: CourantDouble, e: CourantSection, f: RationalFunction) -> RationalFunction:
    _on_double(E, (e.vec, e.cov))
    return E.memo(("rho_apply_section", e.vec.key, e.cov.key, f), _compute_rho_apply, E, e, f)


def _compute_rho_apply(E: CourantDouble, e: CourantSection, f: RationalFunction) -> RationalFunction:
    return apply_field(E.base.coords, anchor_field(E, e), f)


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
        rng = SeededRng(self.seed)
        for k in range(self.samples):
            self.members.append((f"rnd{k}", self._random_section(rng)))

    def _random_section(self, rng: SeededRng) -> CourantSection:
        E = self.E
        vec = {(i,): random_poly(E.base, rng, self.max_degree) for i in range(E.rank)}
        cov = {(i,): random_poly(E.base, rng, self.max_degree) for i in range(E.rank)}
        return CourantSection(
            E.base.section(MULTIVECTOR, 1, vec), E.base.section(FORM, 1, cov)
        )

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
        rhs = dorfman(E, dorfman(E, e1, e2), e3) + dorfman(E, e2, dorfman(E, e1, e3))
        c1.record(f"{l1},{l2},{l3}", lhs - rhs)

    c2 = report.clause("C2-squares", EVIDENCE_SAMPLED)
    factor = E.base.scalar(kappa)
    for label, e in family.singles():
        residue = dorfman(E, e, e) - d_operator(E, pairing_sections(E, e, e)).scale(factor)
        c2.record(label, residue)

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
    for (l1, e1), (l2, e2) in family.tuples(2):
        for fname, f in functions:
            lhs = dorfman(E, e1, e2.scale(f))
            rhs = dorfman(E, e1, e2).scale(f) + e2.scale(rho_apply_section(E, e1, f))
            c5.record(f"{l1},{l2};{fname}", lhs - rhs)
        if not E.base.coords:
            c5.record(f"{l1},{l2}", E.zero_section())
    return report


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
        values = {name: expr for name, expr in self.assignments}
        return f.subs(values, target=self.coords)

    def tangency_residues(self, field_components) -> list[tuple[str, RationalFunction]]:
        """Residues whose vanishing says the vector field is tangent to P."""
        kept = set(self.kept)
        zero = RationalFunction.zero(self.coords)
        along = [v if name in kept else zero for name, v in zip(self.coords, field_components)]
        out = []
        for name, expr in self.assignments:
            residue = field_components[self.coords.index(name)] - apply_field(self.coords, along, expr)
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


def span_rank(vectors: list[list[RationalFunction]]) -> int:
    return len(_row_space(vectors))


def in_span(rows: list[list[RationalFunction]], v: list[RationalFunction]) -> bool:
    reduced = _eliminate(rows, list(v))
    return all(x.is_zero() for x in reduced)


def rational_nullspace(rows: list[list], width: int) -> list[list[int]]:
    """Exact nullspace basis over Q for constant subbundle data.

    Entries are rational scalars (ints, Fractions, ...).  One basis vector per
    non-pivot column: the reduced-row-echelon one, which is 1 there, cleared
    of denominators to coprime ints.  Elimination runs fraction-free over Z.
    """
    matrix = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        matrix.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        lead = matrix[r][c]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                f = matrix[i][c]
                row = [lead * x - f * y for x, y in zip(matrix[i], matrix[r])]
                g = math.gcd(*row)
                matrix[i] = [x // g for x in row] if g > 1 else row
        pivots.append((r, c))
        r += 1
        if r == len(matrix):
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        # v[free] = 1 and v[cc] = -matrix[rr][free] / lead, times lcm of the leads
        scale = math.lcm(*(matrix[rr][cc] for rr, cc in pivots))
        v = [0] * width
        v[free] = scale
        for rr, cc in pivots:
            v[cc] = -matrix[rr][free] * scale // matrix[rr][cc]
        g = math.gcd(*v)
        basis.append([x // g for x in v])
    return basis


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
    vectors = [s.components(E.rank) for _, s in restricted]
    d1.record_flag(
        f"rank {span_rank(vectors)} == {E.rank}",
        span_rank(vectors) == E.rank,
        "rank-deficient",
    )
    for (l1, s1), (l2, s2) in combinations(restricted, 2):
        d1.record(f"<{l1},{l2}>", P.restrict(pairing_sections(E, s1, s2)))
    for label, s in restricted:
        d1.record(f"<{label},{label}>", P.restrict(pairing_sections(E, s, s)))

    d2 = report.clause("D2-anchor-tangency", PROOF_TENSORIAL)
    for label, s in restricted:
        for name, residue in P.tangency_residues(anchor_field(E, s)):
            d2.record(f"{label}.{name}", residue)

    d3 = report.clause("D3-bracket-closure", PROOF_TENSORIAL,
                       note="constant extension off P of the spanning sections")
    rows = _row_space(vectors)
    for l1, s1 in F.generators:
        for l2, s2 in F.generators:
            bracket = dorfman(E, s1, s2)
            v = [P.restrict(c) for c in bracket.components(E.rank)]
            d3.record_flag(f"{l1} o {l2}", in_span(rows, v), "left-the-subbundle")
    return report


# ---------------------------------------------------------------------------
# split Dirac structures F = L + L^perp
# ---------------------------------------------------------------------------


class SplitSubbundle:
    """Constant-coefficient subbundle L of the vector side, with its exact
    annihilator complement in the covector side computed over Q.  Vector
    entries are rational scalars (ints, Fractions, ...)."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: list[list]):
        self.vectors = vectors

    def annihilator(self, rank: int) -> list[list[int]]:
        return rational_nullspace(self.vectors, rank)


def _const_section(E: CourantDouble, vec=(), cov=()) -> CourantSection:
    def coeffs(values):
        return {(i,): E.base.scalar(q) for i, q in enumerate(values) if q}

    return CourantSection(E.base.section(MULTIVECTOR, 1, coeffs(vec)), E.base.section(FORM, 1, coeffs(cov)))


def split_dirac(E: CourantDouble, L: SplitSubbundle, P: Submanifold) -> GeneralizedDirac:
    gens = []
    for k, v in enumerate(L.vectors):
        gens.append((f"L{k+1}", _const_section(E, vec=v)))
    for k, w in enumerate(L.annihilator(E.rank)):
        gens.append((f"Lp{k+1}", _const_section(E, cov=w)))
    return GeneralizedDirac(E, P, gens)


def check_split_dirac(
    Q: QuasiLieBialgebroid,
    L: SplitSubbundle,
    P: Submanifold,
) -> Report:
    """The four subalgebroid conditions, the direct D1-D3 verdict on
    F = L + L^perp, and the asserted biconditional between them."""
    E = qlb_double(Q)
    report = Report("check-split-dirac")
    F = split_dirac(E, L, P)
    l_secs, p_secs = F.generators[: len(L.vectors)], F.generators[len(L.vectors) :]
    l_rows = _row_space([s.components(E.rank) for _, s in l_secs])
    p_rows = _row_space([s.components(E.rank) for _, s in p_secs])

    cond1 = report.clause("1-L-subalgebroid", PROOF_TENSORIAL)
    for label, s in l_secs:
        for name, residue in P.tangency_residues(vector_field(s.vec)):
            cond1.record(f"rho({label}).{name}", residue)
    for l1, s1 in l_secs:
        for l2, s2 in l_secs:
            br = schouten(s1.vec, s2.vec)
            v = [P.restrict(br.coefficient((i,))) for i in range(E.rank)]
            v = v + [E.base.zero_rf()] * E.rank
            cond1.record_flag(f"[{l1},{l2}]", in_span(l_rows, v), "left-L")

    cond2 = report.clause("2-Lperp-closed", PROOF_TENSORIAL)
    for l1, s1 in p_secs:
        for l2, s2 in p_secs:
            br = dual_bracket(E, s1.cov, s2.cov)
            v = [E.base.zero_rf()] * E.rank + [
                P.restrict(br.coefficient((i,))) for i in range(E.rank)
            ]
            cond2.record_flag(f"[{l1},{l2}]*", in_span(p_rows, v), "left-Lperp")

    cond3 = report.clause("3-Lperp-anchor-tangency", PROOF_TENSORIAL)
    for label, s in p_secs:
        for name, residue in P.tangency_residues(dual_anchor(E, s.cov)):
            cond3.record(f"rho*({label}).{name}", residue)

    cond4 = report.clause("4-X-vanishes-on-Lperp", PROOF_TENSORIAL)
    cond4.record_flag("X-degree", True)
    for (l1, s1), (l2, s2), (l3, s3) in combinations(p_secs, 3):
        value = pairing(wedge(wedge(s1.cov, s2.cov), s3.cov), Q.x3)
        cond4.record(f"X({l1},{l2},{l3})", P.restrict(value))

    direct = check_generalized_dirac(F)
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
        # -eps_B^j: the conjugated factor is stored through b* -> -b*
        right_cov = {(QA.base.rank + j,): -RationalFunction.one(coords)}
        right = CourantSection(
            E.base.zero_section(MULTIVECTOR, 1), E.base.section(FORM, 1, right_cov)
        )
        gens.append((f"graph-eps{j+1}", left + right))
    return GeneralizedDirac(E, P, gens)
