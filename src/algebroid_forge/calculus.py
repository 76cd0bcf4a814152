"""Lie algebroid presentations and their exterior/Gerstenhaber calculus.

A presentation fixes a coordinate chart, a frame of the bundle, an anchor
matrix and antisymmetric structure functions.  Graded sections (multivectors
and forms) are sparse maps from strictly increasing frame-index tuples to
rational functions.  On top of that this module implements the wedge product,
the duality pairing (determinant convention), contractions, the algebroid
differential, the Schouten bracket, Lie derivatives, bundle morphisms with
pullbacks, the axiom checkers, the one builder of derived presentations and
the one seeded polynomial sampler.

Sign conventions, fixed once for the whole package:
  * pairing(eps^I, e_J) = delta_{I,J} on increasing tuples;
  * i_{e_j} eps^I = (-1)^t eps^{I \\ j} with t the position of j in I,
    and i_{U wedge V} = i_V o i_U;
  * d eps^k(e_i, e_j) = -c_{ij}^k (Chevalley-Eilenberg);
  * Schouten bracket graded so that [P, Q wedge R] =
    [P,Q] wedge R + (-1)^{(p-1)q} Q wedge [P,R].
"""

from __future__ import annotations

import _random
from itertools import combinations

from .errors import (
    DegreeMismatch,
    MalformedMorphism,
    MalformedPresentation,
    ParentMismatch,
    VarianceMismatch,
)
from .rational import RationalFunction, parse_scalar
from .reporting import PROOF_GENERATORS, PROOF_TENSORIAL, Report

MULTIVECTOR = "multivector"
FORM = "form"

Idx = tuple[int, ...]


def _pair_index(i: int, j: int, rank: int) -> int:
    # position of (i, j), i < j, in lexicographic order over all such pairs
    return i * rank - i * (i + 1) // 2 + (j - i - 1)


class AlgebroidPresentation:
    """Anchored bracket data on a chart.

    ``anchor[i][a]`` is the a-th base component of rho(e_i); ``structure``
    holds, for each pair i < j in lex order, the frame coefficients of
    [e_i, e_j].  The data need not satisfy the Lie algebroid axioms (deformed
    and dual structures reuse this shape); ``check_axioms`` decides that.
    Equality and hash read the data only, not ``name`` or the memo cache.
    """

    __slots__ = ("coords", "rank", "anchor", "structure", "name", "_cache", "_hash")

    def __init__(self, coords: tuple[str, ...], rank: int, anchor, structure, name: str = ""):
        n = len(coords)
        if rank < 1:
            raise MalformedPresentation("rank must be at least 1")
        if len(anchor) != rank or any(len(row) != n for row in anchor):
            raise MalformedPresentation("anchor must be rank x dim(base)")
        if len(structure) != rank * (rank - 1) // 2 or any(len(row) != rank for row in structure):
            raise MalformedPresentation("structure table must list rank coefficients per frame pair")
        self.coords, self.rank, self.anchor, self.structure = coords, rank, anchor, structure
        self.name = name
        self._cache = {}
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, AlgebroidPresentation):
            return NotImplemented
        return self is other or (self.coords, self.rank, self.anchor, self.structure) == (
            other.coords, other.rank, other.anchor, other.structure
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.coords, self.rank, self.anchor, self.structure))
        return self._hash

    def memo(self, key, compute, *args):
        """``compute(*args)``, evaluated once per ``key`` and kept in ``_cache``.

        The one cache of the calculus: every memoized operation stores its
        results on the presentation (or Courant double) it belongs to, so
        they live as long as that object.  A key starts with the operation's
        name and records sections by ``GradedSection.key``.
        """
        cache = self._cache
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = compute(*args)
            return value

    # -- scalar helpers ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.coords)

    def zero_rf(self) -> RationalFunction:
        return RationalFunction.zero(self.coords)

    def one_rf(self) -> RationalFunction:
        return RationalFunction.one(self.coords)

    def scalar(self, value) -> RationalFunction:
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, str):
            return parse_scalar(value, self.coords)
        return RationalFunction.const(self.coords, value)

    def coord_rf(self, name: str) -> RationalFunction:
        return RationalFunction.coord(self.coords, name)

    def rho_apply(self, i: int, f: RationalFunction) -> RationalFunction:
        """The base vector field rho(e_i) acting on a function."""
        return self.memo(("rho_apply", i, f), apply_field, self.coords, self.anchor[i], f)

    def bracket_frame(self, i: int, j: int) -> "GradedSection":
        """[e_i, e_j] with the antisymmetric sign convention."""
        if i == j:
            return self.section(MULTIVECTOR, 1, {})
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        row = self.structure[_pair_index(i, j, self.rank)]
        coeffs = {(k,): row[k] if sign == 1 else -row[k] for k in range(self.rank)}
        return self.section(MULTIVECTOR, 1, coeffs)

    # -- section constructors --------------------------------------------------

    def section(self, variance: str, degree: int, coeffs: dict[Idx, RationalFunction]) -> "GradedSection":
        return GradedSection(self, variance, degree, coeffs)

    def zero_section(self, variance: str, degree: int) -> "GradedSection":
        return GradedSection(self, variance, degree, {})

    def frame(self, i: int) -> "GradedSection":
        return self.section(MULTIVECTOR, 1, {(i,): self.one_rf()})

    def coframe(self, i: int) -> "GradedSection":
        return self.section(FORM, 1, {(i,): self.one_rf()})

    def function(self, value, variance: str = MULTIVECTOR) -> "GradedSection":
        return self.section(variance, 0, {(): self.scalar(value)})


class GradedSection:
    """Degree-p multivector on A or p-form, sparse over increasing tuples."""

    __slots__ = ("parent", "variance", "degree", "coeffs", "_key", "_hash")

    def __init__(
        self,
        parent: AlgebroidPresentation,
        variance: str,
        degree: int,
        coeffs: dict[Idx, RationalFunction],
    ):
        if variance not in (MULTIVECTOR, FORM):
            raise VarianceMismatch(f"variance must be multivector or form, got {variance!r}")
        clean = {}
        for idx, rf in coeffs.items():
            if rf.is_zero():
                continue
            if len(idx) != degree or any(b <= a for a, b in zip(idx, idx[1:])):
                raise DegreeMismatch(f"index tuple {idx} invalid for degree {degree}")
            if idx and (idx[0] < 0 or idx[-1] >= parent.rank):
                raise DegreeMismatch(f"index tuple {idx} out of rank range")
            clean[idx] = rf
        if degree > parent.rank and clean:
            raise DegreeMismatch("nonzero section beyond top degree")
        if degree < 0:
            raise DegreeMismatch("negative degree")
        self.parent = parent
        self.variance = variance
        self.degree = degree
        self.coeffs = clean
        self._key = None
        self._hash = None

    @classmethod
    def _make(cls, parent, variance: str, degree: int, coeffs: dict) -> "GradedSection":
        """A section from index tuples already valid for ``degree`` on
        ``parent``; zero coefficients are still dropped."""
        s = object.__new__(cls)
        s.parent, s.variance, s.degree = parent, variance, degree
        s.coeffs = {idx: rf for idx, rf in coeffs.items() if not rf.is_zero()}
        s._key = s._hash = None
        return s

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, idx: Idx) -> RationalFunction:
        return self.coeffs.get(tuple(idx), self.parent.zero_rf())

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def _like(self, coeffs: dict[Idx, RationalFunction], degree: int | None = None) -> "GradedSection":
        return GradedSection._make(
            self.parent, self.variance, self.degree if degree is None else degree, coeffs
        )

    def __eq__(self, other):
        if not isinstance(other, GradedSection):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.variance == other.variance and self.parent == other.parent
        return (
            self.parent == other.parent
            and self.variance == other.variance
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    @property
    def key(self) -> tuple:
        """(variance, degree, coefficients): all a memo key records of a section.

        Unlike ``==``, it tells zero sections of different degrees apart.
        """
        if self._key is None:
            self._key = (self.variance, self.degree, frozenset(self.coeffs.items()))
        return self._key

    def __hash__(self):
        # zero sections of every degree are equal, so their hash omits it
        if self._hash is None:
            self._hash = hash(self.key if self.coeffs else self.variance)
        return self._hash

    def __str__(self):
        if not self.coeffs:
            return "0"
        sym = "e" if self.variance == MULTIVECTOR else "eps"
        parts = []
        for idx, rf in self.items():
            basis = "^".join(f"{sym}{i+1}" for i in idx) if idx else "1"
            parts.append(f"({rf})*{basis}" if idx else f"({rf})")
        return " + ".join(parts)

    __repr__ = __str__

    # -- linear operations ----------------------------------------------------------

    def _check_compatible(self, other: "GradedSection"):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ParentMismatch("sections live on different presentations")
        if self.variance != other.variance:
            raise VarianceMismatch("mixed multivector/form arithmetic")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other: "GradedSection") -> "GradedSection":
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for idx, rf in other.coeffs.items():
            s = coeffs.get(idx)
            s = rf if s is None else s + rf
            if s.is_zero():
                coeffs.pop(idx, None)
            else:
                coeffs[idx] = s
        degree = self.degree if self.coeffs or not other.coeffs else other.degree
        return self._like(coeffs, degree)

    def __neg__(self) -> "GradedSection":
        return self._like({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "GradedSection") -> "GradedSection":
        return self + (-other)

    def scale(self, f) -> "GradedSection":
        f = self.parent.scalar(f)
        if f.is_zero():
            return self._like({})
        return self._like({i: c * f for i, c in self.coeffs.items()})


def retag(section: GradedSection, parent: AlgebroidPresentation, variance: str) -> GradedSection:
    """Reinterpret a section on another presentation with the same chart/rank.

    Used to move between multivectors on A and forms on a dual presentation.
    """
    _require_retaggable(section, parent)
    return GradedSection._make(parent, variance, section.degree, section.coeffs)


def _require_retaggable(section: GradedSection, parent: AlgebroidPresentation) -> None:
    """The check of ``retag``: ``parent`` has the section's chart and rank."""
    if parent.rank != section.parent.rank or parent.coords != section.parent.coords:
        raise ParentMismatch("retag requires equal rank and chart")


# ---------------------------------------------------------------------------
# wedge / pairing / contraction
# ---------------------------------------------------------------------------


def _merge_indices(a: Idx, b: Idx) -> tuple[int, Idx] | None:
    """Merge two increasing tuples; None if they overlap, else (sign, merged)."""
    if set(a) & set(b):
        return None
    merged = tuple(sorted(a + b))
    # parity of the permutation sorting a+b: count inversions across the split
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1 if inversions % 2 else 1), merged


def wedge(a: GradedSection, b: GradedSection) -> GradedSection:
    if a.parent != b.parent:
        raise ParentMismatch("sections live on different presentations")
    if a.variance != b.variance:
        raise VarianceMismatch("wedge requires equal variance")
    degree = a.degree + b.degree
    coeffs: dict[Idx, RationalFunction] = {}
    if degree <= a.parent.rank:
        for ia, ca in a.coeffs.items():
            for ib, cb in b.coeffs.items():
                merged = _merge_indices(ia, ib)
                if merged is None:
                    continue
                sign, idx = merged
                term = ca * cb
                if sign < 0:
                    term = -term
                s = coeffs.get(idx)
                s = term if s is None else s + term
                if s.is_zero():
                    coeffs.pop(idx, None)
                else:
                    coeffs[idx] = s
    return GradedSection._make(a.parent, a.variance, degree, coeffs)


def pairing(mu: GradedSection, w: GradedSection) -> RationalFunction:
    """Full duality contraction <mu, w> with the determinant convention."""
    if mu.parent != w.parent:
        raise ParentMismatch("sections live on different presentations")
    if mu.variance == w.variance:
        raise VarianceMismatch("pairing requires one form and one multivector")
    if mu.degree != w.degree:
        raise DegreeMismatch(f"pairing of degree {mu.degree} against {w.degree}")
    out = mu.parent.zero_rf()
    small, big = (mu, w) if len(mu.coeffs) <= len(w.coeffs) else (w, mu)
    for idx, c in small.coeffs.items():
        other = big.coeffs.get(idx)
        if other is not None:
            out = out + c * other
    return out


def _single_contract(coeffs: dict[Idx, RationalFunction], j: int) -> dict[Idx, RationalFunction]:
    out: dict[Idx, RationalFunction] = {}
    for idx, c in coeffs.items():
        try:
            t = idx.index(j)
        except ValueError:
            continue
        rest = idx[:t] + idx[t + 1 :]
        term = c if t % 2 == 0 else -c
        s = out.get(rest)
        s = term if s is None else s + term
        if s.is_zero():
            out.pop(rest, None)
        else:
            out[rest] = s
    return out


def insert(target: GradedSection, arg: GradedSection) -> GradedSection:
    """Contraction i_arg(target) for arg of opposite variance, deg arg <= deg target.

    For decomposable arg = u_1 ^ ... ^ u_p the contraction composes single
    insertions as i_{u_p} o ... o i_{u_1}.
    """
    if target.parent != arg.parent:
        raise ParentMismatch("sections live on different presentations")
    if target.variance == arg.variance:
        raise VarianceMismatch("contraction requires opposite variances")
    if arg.degree > target.degree:
        raise DegreeMismatch(f"cannot contract degree {arg.degree} into degree {target.degree}")
    result: dict[Idx, RationalFunction] = {}
    for jdx, g in arg.coeffs.items():
        coeffs = target.coeffs
        for j in jdx:
            coeffs = _single_contract(coeffs, j)
            if not coeffs:
                break
        for idx, c in coeffs.items():
            term = g * c
            s = result.get(idx)
            s = term if s is None else s + term
            if s.is_zero():
                result.pop(idx, None)
            else:
                result[idx] = s
    return GradedSection._make(target.parent, target.variance, target.degree - arg.degree, result)


def evaluate(mu: GradedSection, args: list[GradedSection]) -> RationalFunction:
    """mu(X_1, ..., X_k) = <mu, X_1 ^ ... ^ X_k>."""
    args = list(args)
    if not args:
        return mu.coefficient(())
    w = args[0]
    for x in args[1:]:
        w = wedge(w, x)
    return pairing(mu, w)


# ---------------------------------------------------------------------------
# differential / Schouten / Lie derivative
# ---------------------------------------------------------------------------


def d_function(A: AlgebroidPresentation, f: RationalFunction) -> GradedSection:
    """df as a 1-form: df(e_i) = rho(e_i) f."""
    return A.memo(("d_function", f), _compute_d_function, A, f)


def _compute_d_function(A: AlgebroidPresentation, f: RationalFunction) -> GradedSection:
    return A.section(FORM, 1, {(i,): A.rho_apply(i, f) for i in range(A.rank)})


def _d_basis_form(A: AlgebroidPresentation, idx: Idx) -> GradedSection:
    """d eps^idx for a pure coframe wedge."""
    if not idx:
        return A.zero_section(FORM, 1)
    return A.memo(("d_basis_form", idx), _compute_d_basis_form, A, idx)


def _compute_d_basis_form(A: AlgebroidPresentation, idx: Idx) -> GradedSection:
    head, tail = idx[0], idx[1:]
    # d eps^k = -sum_{i<j} c_{ij}^k eps^i ^ eps^j
    d_head = {}
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            c = A.structure[_pair_index(i, j, A.rank)][head]
            if not c.is_zero():
                d_head[(i, j)] = -c
    # d(eps^h ^ rest) = d eps^h ^ rest - eps^h ^ d rest
    tail_section = A.section(FORM, len(tail), {tail: A.one_rf()})
    out = wedge(A.section(FORM, 2, d_head), tail_section)
    if tail:
        out = out - wedge(A.coframe(head), _d_basis_form(A, tail))
    return out


def differential(mu: GradedSection) -> GradedSection:
    """Algebroid de Rham differential via the Cartan formula on generators."""
    if mu.variance != FORM:
        raise VarianceMismatch("differential acts on forms")
    return mu.parent.memo(("differential", mu.key), _compute_differential, mu)


def _compute_differential(mu: GradedSection) -> GradedSection:
    A = mu.parent
    out = A.zero_section(FORM, mu.degree + 1)
    for idx, f in mu.coeffs.items():
        basis = GradedSection._make(A, FORM, len(idx), {idx: A.one_rf()})
        out = out + wedge(d_function(A, f), basis)
        df_basis = _d_basis_form(A, idx)
        if not df_basis.is_zero():
            out = out + df_basis.scale(f)
    return out


def _schouten_frames(A: AlgebroidPresentation, I: Idx, J: Idx) -> GradedSection:
    """[e_I, e_J] for pure frame wedges, recursively via the Leibniz rules."""
    return A.memo(("schouten_frames", I, J), _compute_schouten_frames, A, I, J)


def _compute_schouten_frames(A: AlgebroidPresentation, I: Idx, J: Idx) -> GradedSection:
    p, q = len(I), len(J)
    if p == 0 or q == 0:
        out = A.zero_section(MULTIVECTOR, max(p + q - 1, 0))
    elif p == 1 and q == 1:
        out = A.bracket_frame(I[0], J[0])
    elif p == 1:
        # [e_a, -] is a degree-0 derivation of the wedge
        head, tail = J[0], J[1:]
        tail_sec = A.section(MULTIVECTOR, q - 1, {tail: A.one_rf()})
        out = wedge(A.bracket_frame(I[0], head), tail_sec)
        rest = _schouten_frames(A, I, tail)
        if not rest.is_zero():
            out = out + wedge(A.frame(head), rest)
    else:
        # [e_a ^ U, V] = e_a ^ [U, V] + (-1)^{(q-1)(p-1)} [e_a, V] ^ U
        head, tail = I[0], I[1:]
        out = wedge(A.frame(head), _schouten_frames(A, tail, J))
        cross = _schouten_frames(A, (head,), J)
        if not cross.is_zero():
            tail_sec = A.section(MULTIVECTOR, p - 1, {tail: A.one_rf()})
            term = wedge(cross, tail_sec)
            if ((q - 1) * (p - 1)) % 2:
                term = -term
            out = out + term
    return out


def _schouten_frame_function(A: AlgebroidPresentation, I: Idx, g: RationalFunction) -> GradedSection:
    """[e_I, g] = sum_t (-1)^{p-t} (rho(e_{i_t}) g) e_{I minus i_t} (t 1-based)."""
    p = len(I)
    out = A.zero_section(MULTIVECTOR, max(p - 1, 0))
    for t in range(p):
        coeff = A.rho_apply(I[t], g)
        if coeff.is_zero():
            continue
        rest = I[:t] + I[t + 1 :]
        if (p - (t + 1)) % 2:
            coeff = -coeff
        out = out + GradedSection._make(A, MULTIVECTOR, p - 1, {rest: coeff})
    return out


def schouten(P: GradedSection, Q: GradedSection) -> GradedSection:
    """Schouten-Nijenhuis bracket extending [.,.] and the anchor action."""
    if P.parent != Q.parent:
        raise ParentMismatch("sections live on different presentations")
    if P.variance != MULTIVECTOR or Q.variance != MULTIVECTOR:
        raise VarianceMismatch("schouten acts on multivectors")
    A = P.parent
    p, q = P.degree, Q.degree
    out = A.zero_section(MULTIVECTOR, max(p + q - 1, 0))
    if P.is_zero() or Q.is_zero():
        return out
    if p == 0 and q == 0:
        return out
    if p == 0:
        # [f, Q] = (-1)^q [Q, f]
        flipped = schouten(Q, P)
        return flipped if q % 2 == 0 else -flipped
    sign_pq = -1 if ((p - 1) * (q - 1)) % 2 else 1
    for I, f in P.coeffs.items():
        for J, g in Q.coeffs.items():
            # [f e_I, g e_J] = fg [e_I, e_J] + f [e_I, g] ^ e_J
            #                  - (-1)^{(p-1)(q-1)} g [e_J, f] ^ e_I
            fg = f * g
            if not fg.is_zero():
                core = _schouten_frames(A, I, J)
                if not core.is_zero():
                    out = out + core.scale(fg)
            lead = _schouten_frame_function(A, I, g)
            if not lead.is_zero():
                term = wedge(lead.scale(f), GradedSection._make(A, MULTIVECTOR, q, {J: A.one_rf()}))
                out = out + term
            if q >= 1:
                trail = _schouten_frame_function(A, J, f)
                if not trail.is_zero():
                    term = wedge(trail.scale(g), GradedSection._make(A, MULTIVECTOR, p, {I: A.one_rf()}))
                    out = out + term.scale(-sign_pq)
    return out


def lie_derivative(X: GradedSection, s: GradedSection) -> GradedSection:
    """L_X on forms via Cartan's magic formula, on multivectors via [X, -]."""
    if X.degree != 1 or X.variance != MULTIVECTOR:
        raise DegreeMismatch("lie_derivative expects a degree-1 multivector")
    if s.variance == MULTIVECTOR:
        return schouten(X, s)
    if s.degree == 0:
        f = s.coefficient(())
        out = s.parent.zero_rf()
        for (i,), c in X.coeffs.items():
            out = out + c * s.parent.rho_apply(i, f)
        return s.parent.section(FORM, 0, {(): out})
    return insert(differential(s), X) + differential(insert(s, X))


def vector_field(X: GradedSection) -> tuple[RationalFunction, ...]:
    """Base components of rho(X) for a degree-1 multivector."""
    A = X.parent
    comps = [A.zero_rf() for _ in range(A.n)]
    for (i,), c in X.coeffs.items():
        for a in range(A.n):
            if not A.anchor[i][a].is_zero():
                comps[a] = comps[a] + c * A.anchor[i][a]
    return tuple(comps)


def apply_field(coords: tuple[str, ...], v, f: RationalFunction) -> RationalFunction:
    """The base vector field with components ``v`` on ``coords`` acting on f:
    sum_a v^a df/dx^a.  Every derivative along a vector field is this one."""
    out = RationalFunction.zero(coords)
    for name, c in zip(coords, v):
        if not c.is_zero():
            out = out + c * f.differentiate(name)
    return out


def vf_bracket(
    A: AlgebroidPresentation,
    v: tuple[RationalFunction, ...],
    w: tuple[RationalFunction, ...],
) -> tuple[RationalFunction, ...]:
    """Commutator of base vector fields given by components."""
    return tuple(
        apply_field(A.coords, v, wa) - apply_field(A.coords, w, va) for va, wa in zip(v, w)
    )


def exterior_power(
    parent: AlgebroidPresentation, variance: str, degree: int, coeffs: dict, images
) -> GradedSection:
    """sum_I c_I images[i_1] ^ ... ^ images[i_k] for ``coeffs`` {I: c_I} of
    the given degree: a bundle map, given by the degree-1 images of the frame
    (or coframe) on ``parent``, extended slot by slot to k-sections.  The one
    k-slot extension of a map (pi#, N*, Phi^*, wedge^k Phi)."""
    out = GradedSection._make(parent, variance, degree, {})
    for idx, c in coeffs.items():
        term = GradedSection._make(parent, variance, 0, {(): c})
        for i in idx:
            term = wedge(term, images[i])
        out = out + term
    return out


def mat_apply(matrix, X: GradedSection) -> GradedSection:
    """Apply an endomorphism matrix (rows = output index) to a degree-1 section."""
    A = X.parent
    coeffs: dict[Idx, RationalFunction] = {}
    for (i,), c in X.coeffs.items():
        for k in range(A.rank):
            entry = matrix[k][i]
            if entry.is_zero():
                continue
            term = entry * c
            s = coeffs.get((k,))
            s = term if s is None else s + term
            if s.is_zero():
                coeffs.pop((k,), None)
            else:
                coeffs[(k,)] = s
    return GradedSection._make(A, X.variance, 1, coeffs)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


class BundleMorphism:
    """Bundle map Phi: A -> B over a rational base map.

    ``base_map[b]`` expresses the b-th target coordinate in source
    coordinates; ``matrix[j][i]`` is the eps_B^j coefficient of Phi(e_i),
    with entries over the source chart.  Equality ignores ``name``.
    """

    __slots__ = ("source", "target", "base_map", "matrix", "name")

    def __init__(self, source, target, base_map, matrix, name=""):
        if len(base_map) != target.n:
            raise MalformedMorphism("base map must list every target coordinate")
        if len(matrix) != target.rank or any(len(row) != source.rank for row in matrix):
            raise MalformedMorphism("matrix must be (target rank) x (source rank)")
        self.source, self.target, self.base_map, self.matrix = source, target, base_map, matrix
        self.name = name

    def __eq__(self, other):
        if not isinstance(other, BundleMorphism):
            return NotImplemented
        return (self.source, self.target, self.base_map, self.matrix) == (
            other.source, other.target, other.base_map, other.matrix
        )

    def base_subs(self, f: RationalFunction) -> RationalFunction:
        """f o phi for a function on the target base."""
        values = {name: self.base_map[b] for b, name in enumerate(self.target.coords)}
        return f.subs(values, target=self.source.coords)

    def pull_coframe(self, j: int) -> GradedSection:
        return self.source.section(
            FORM, 1, {(i,): self.matrix[j][i] for i in range(self.source.rank)}
        )


def pullback(phi: BundleMorphism, mu: GradedSection) -> GradedSection:
    """Phi^* on forms: base substitution composed with the transpose action."""
    if mu.parent != phi.target:
        raise ParentMismatch("pullback expects a form on the morphism target")
    if mu.variance != FORM:
        raise VarianceMismatch("pullback acts on forms")
    return exterior_power(
        phi.source,
        FORM,
        mu.degree,
        {idx: phi.base_subs(g) for idx, g in mu.coeffs.items()},
        [phi.pull_coframe(j) for j in range(phi.target.rank)],
    )


def identity_morphism(A: AlgebroidPresentation) -> BundleMorphism:
    one, zero = A.one_rf(), A.zero_rf()
    return BundleMorphism(
        A,
        A,
        tuple(A.coord_rf(c) for c in A.coords),
        tuple(tuple(one if i == j else zero for i in range(A.rank)) for j in range(A.rank)),
        name="id",
    )


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def check_axioms(A: AlgebroidPresentation) -> Report:
    """Anchor compatibility and the Jacobi identity, exactly on frames.

    Both residues are tensorial (anchor compatibility unconditionally, the
    Jacobiator given anchor compatibility), so frame checks are complete.
    """
    report = Report("check-axioms")
    anchor_clause = report.clause("anchor-compatibility", PROOF_TENSORIAL)
    if A.n == 0:
        anchor_clause.record_flag("vacuous (point base)", True)
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            br = A.bracket_frame(i, j)
            lhs = vector_field(br)
            rhs = vf_bracket(A, vector_field(A.frame(i)), vector_field(A.frame(j)))
            for a, name in enumerate(A.coords):
                anchor_clause.record(f"rho[e{i+1},e{j+1}].{name}", lhs[a] - rhs[a])
    jacobi_clause = report.clause(
        "jacobi", PROOF_TENSORIAL, note="complete on frames given anchor compatibility"
    )
    for i, j, k in combinations(range(A.rank), 3):
        ei, ej, ek = A.frame(i), A.frame(j), A.frame(k)
        jac = (
            schouten(schouten(ei, ej), ek)
            + schouten(schouten(ej, ek), ei)
            + schouten(schouten(ek, ei), ej)
        )
        for (m,), c in jac.coeffs.items():
            jacobi_clause.record(f"jacobiator[e{i+1},e{j+1},e{k+1}].e{m+1}", c)
        if jac.is_zero():
            jacobi_clause.record(f"jacobiator[e{i+1},e{j+1},e{k+1}]", A.zero_rf())
    return report


def check_d_squared(A: AlgebroidPresentation) -> Report:
    """d^2 = 0 on the generators (coordinates and coframe 1-forms)."""
    report = Report("d-squared")
    clause = report.clause("d-squared", PROOF_GENERATORS)
    for name in A.coords:
        clause.record(f"d2({name})", differential(d_function(A, A.coord_rf(name))))
    for i in range(A.rank):
        clause.record(f"d2(eps{i+1})", differential(differential(A.coframe(i))))
    return report


def is_lie_algebroid_morphism(phi: BundleMorphism) -> Report:
    """Chain-map residues Phi* d_B - d_A Phi* on the target generators."""
    report = Report("lie-algebroid-morphism")
    coord_clause = report.clause("chain-map-coordinates", PROOF_GENERATORS)
    for b, name in enumerate(phi.target.coords):
        lhs = pullback(phi, d_function(phi.target, phi.target.coord_rf(name)))
        rhs = d_function(phi.source, phi.base_map[b])
        coord_clause.record(f"coordinate {name}", lhs - rhs)
    frame_clause = report.clause("chain-map-coframe", PROOF_GENERATORS)
    for j in range(phi.target.rank):
        lhs = pullback(phi, differential(phi.target.coframe(j)))
        rhs = differential(pullback(phi, phi.target.coframe(j)))
        frame_clause.record(f"eps{j+1}", lhs - rhs)
    return report


# ---------------------------------------------------------------------------
# stock presentations
# ---------------------------------------------------------------------------


def tangent_algebroid(n: int, prefix: str = "x") -> AlgebroidPresentation:
    """TR^n: identity anchor, abelian frame brackets."""
    coords = tuple(f"{prefix}{a+1}" for a in range(n))
    one = RationalFunction.one(coords)
    zero = RationalFunction.zero(coords)
    anchor = tuple(tuple(one if a == i else zero for a in range(n)) for i in range(n))
    npairs = n * (n - 1) // 2
    structure = tuple(tuple(zero for _ in range(n)) for _ in range(npairs))
    return AlgebroidPresentation(coords, n, anchor, structure, name=f"TR{n}")


def null_presentation(A: AlgebroidPresentation, name: str = "") -> AlgebroidPresentation:
    """Same chart and rank as A, zero anchor and brackets (the null structure)."""
    zero = A.zero_rf()
    anchor = tuple(tuple(zero for _ in range(A.n)) for _ in range(A.rank))
    npairs = A.rank * (A.rank - 1) // 2
    structure = tuple(tuple(zero for _ in range(A.rank)) for _ in range(npairs))
    return AlgebroidPresentation(A.coords, A.rank, anchor, structure, name=name or f"null({A.name})")


def derived_presentation(
    A: AlgebroidPresentation,
    matrix: tuple[tuple[RationalFunction, ...], ...],
    bracket,
    name: str,
) -> AlgebroidPresentation:
    """Presentation data on A's chart and rank built from a frame-pair bracket.

    The new anchor is rho o M: column i of ``matrix`` lists the A-frame
    components that the i-th new frame element is sent to.  ``bracket(i, j)``
    returns [e_i, e_j] for i < j as a degree-1 section of either variance,
    whose coefficients become the structure row.  Dual, deformed and prime
    structures are all built this way; the axioms are not implied.
    """
    anchor = tuple(vector_field(mat_apply(matrix, A.frame(i))) for i in range(A.rank))
    rows = []
    for i in range(A.rank):
        for j in range(i + 1, A.rank):
            br = bracket(i, j)
            rows.append(tuple(br.coefficient((k,)) for k in range(A.rank)))
    return AlgebroidPresentation(A.coords, A.rank, anchor, tuple(rows), name=name)


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


class SeededRng(_random.Random):
    """The sampler's generator: the Mersenne Twister of random.Random, seeded
    by the same int, so that every draw equals that of random.Random(seed).
    It keeps the random module, and what that imports, out of every run."""

    def randrange(self, start: int, stop: int) -> int:
        """An int in [start, stop), drawn as random.Random.randrange draws it."""
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range for randrange({start}, {stop})")
        k = width.bit_length()
        r = self.getrandbits(k)
        while r >= width:
            r = self.getrandbits(k)
        return start + r


def random_poly(A: AlgebroidPresentation, rng: SeededRng, max_degree: int) -> RationalFunction:
    """A seeded random polynomial: a constant in [-2, 2] plus, per coordinate,
    a power of degree 1..max_degree times a constant in [-2, 2] with
    probability 1/2.  Every sampled section family draws from this."""
    out = A.scalar(rng.randrange(-2, 3))
    for name in A.coords:
        d = rng.randrange(0, max_degree + 1)
        if d and rng.random() < 0.5:
            out = out + A.coord_rf(name) ** d * rng.randrange(-2, 3)
    return out
