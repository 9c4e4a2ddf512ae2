"""Conversions among the equivalent notions of quantum group homomorphism.

Hopf *-homomorphisms, right homomorphisms (coaction-like maps into
C (x) A), left homomorphisms (into A (x) C), and bicharacters all describe
the same arrows; this module carries each notion and the translations
between them, with every translation verified on the way out.

Linear maps between matrix algebras are SpanMaps on orthonormal algebra
bases.  A bicharacter V = (id (x) f)(W_C) is its Hopf coefficients F: its
right and left maps are (id (x) f)Delta_C and (f (x) id)Delta_C, and a
one-sided hom gives F back by a least-squares fit (hopf_fit).
"""

from functools import cached_property

import numpy as np

from .bicharacter import (
    extract_bicharacter,
    hom_coefficients,
    hopf_coefficients,
    push_slices,
)
from .errors import DimensionMismatch, HopfHomViolation, RangeViolation, gate, gate_all
from .qgroup import (
    CLOSURE_TOL,
    EQUATION_TOL,
    PENTAGON_TOL,
    fit_on_slices,
    intertwining_residuals,
    multiplication_constants,
    structure_constants,
    unitary_slices,
)
from .tensorleg import (
    PairSpan,
    SpanMap,
    diagram_residual,
    frob,
    map_legs,
    membership_residuals,
    numerical_rank,
    residual_between,
    residuals_between,
)

__all__ = [
    "HopfHom",
    "RightQGHom",
    "LeftQGHom",
    "check_hopf_hom",
    "check_right_hom",
    "check_left_hom",
    "right_map_from_bicharacter",
    "right_from_bicharacter",
    "bicharacter_from_right",
    "left_map_from_bicharacter",
    "left_from_bicharacter",
    "bicharacter_from_left",
    "one_sided_residuals",
    "comodule_residuals",
    "hopf_fit",
    "star_hom_residuals",
    "check_left_right_compatibility",
    "dual_hopf_relation",
]


class HopfHom:
    """Hopf *-homomorphism candidate with its axiom residuals, computed on construction."""

    gates = (
        ("range", CLOSURE_TOL, "images escape the target algebra"),
        ("unital", PENTAGON_TOL, "unital axiom fails"),
        ("star", PENTAGON_TOL, "star axiom fails"),
        ("multiplicative", EQUATION_TOL, "multiplicative axiom fails"),
        ("intertwining", EQUATION_TOL, "intertwining axiom fails"),
    )

    def __init__(self, source, target, map):
        self.source = source
        self.target = target
        self.map = map
        self.residuals = self.verification_residuals()

    def verification_residuals(self):
        """All Hopf-homomorphism axiom residuals, keyed by axiom."""
        f = self.map
        fx = f.apply_stack(self.source.algC)
        eye_s = np.eye(self.source.dim, dtype=complex)
        eye_t = np.eye(self.target.dim, dtype=complex)
        star, mult = star_hom_residuals(f, self.source.algC)
        # (f (x) f) Delta against Delta f, read off the structure constants:
        # f is read on span(algC), the source algebra, whatever it does off it
        c = structure_constants(self.source)
        return {
            "range": membership_residuals(self.target.algC, fx),
            "unital": residual_between(f(eye_s), eye_t),
            "star": star,
            "multiplicative": mult,
            "intertwining": float(np.max(intertwining_residuals(self.target, fx, c))),
        }

    def __repr__(self):
        return f"HopfHom({self.source.dim} -> {self.target.dim})"


def star_hom_residuals(f, basis):
    """Worst residuals of f(x*) = f(x)* and of f(xy) = f(x)f(y) over an (n, d, d) basis.

    The products x y are formed one x at a time, n of them, never all n^2.
    """
    fx = f.apply_stack(basis)
    adjoint = lambda xs: xs.conj().transpose(0, 2, 1)
    star = residuals_between(f.apply_stack(adjoint(basis)), adjoint(fx))
    # np.max, unlike max(), carries a NaN residual through to the gates
    mult = np.max(
        [residuals_between(f.apply_stack(x @ basis), fxk @ fx) for x, fxk in zip(basis, fx)]
    )
    return star, float(mult)


def _read(phi, basis, qg, leg):
    """PairSpan.read of phi's images of basis on span(basis) (x) span(qg.algC),
    basis on leg: the coefficients p, the Gram matrix g of the images' parts
    off the span, and range."""
    span = PairSpan(basis, qg.algC) if leg == 1 else PairSpan(qg.algC, basis)
    return span.read(phi.apply_stack(basis))


def comodule_residuals(phi, basis, qg, leg):
    """Comodule axioms of phi: D -> D (x) C (leg 1) or C (x) D (leg 2) on an
    orthonormal basis of D (_comodule), and the (p, g) of its one read."""
    p, g, range_ = _read(phi, basis, qg, leg)
    return _comodule(p, range_, qg, leg), (p, g)


def _comodule(p, range_, qg, leg):
    """The comodule residuals of a map with coefficients p, range_ its
    distance from the pair span: ``coassociativity`` is the map on the D leg
    against Delta_C on the C leg, ``injective`` the rank of P, and ``dense``
    that of the products phi(x)(1 (x) c) (the Podles condition)."""
    # the products' coefficients, rows (k, m) and columns (i, l), i on D
    on_c_last = p if leg == 1 else p.transpose(0, 2, 1)
    m = multiplication_constants(qg)
    products = np.tensordot(on_c_last, m, axes=(2, 0)).transpose(0, 2, 1, 3)
    n = len(p) * len(qg.algC)
    return {
        "range": range_,
        "coassociativity": diagram_residual((p, leg, p), (p, 3 - leg, structure_constants(qg))),
        "injective": numerical_rank(p) == len(p),
        "dense": numerical_rank(products.reshape(n, n)) == n,
    }


def check_hopf_hom(source, target, map):
    """Validate a linear map as a Hopf *-homomorphism."""
    hom = HopfHom(source, target, map)
    gate_all(hom.residuals, HopfHom.gates, HopfHomViolation)
    return hom


def _one_sided_gates(name, pair_span):
    """The gate table of a one-sided hom called name, mapping into pair_span."""
    return (
        ("range", CLOSURE_TOL, f"images escape {pair_span}"),
        ("coassocDiagram", EQUATION_TOL, "coassocDiagram fails"),
        ("comoduleDiagram", EQUATION_TOL, "comoduleDiagram fails"),
        ("injective", None, f"{name} is not injective"),
        ("podles", None, f"density condition fails: products do not fill {pair_span}"),
    )


class _OneSidedHom:
    """A verified map of C into C (x) A or A (x) C, C on ``leg``, kept as
    ``map_name``, with the coefficients (p, g) of the map its check read."""

    def __init__(self, source, target, map, residuals, coefficients):
        self.source = source
        self.target = target
        setattr(self, self.map_name, map)
        self.residuals = dict(residuals)
        self.coefficients = coefficients

    @cached_property
    def bicharacter(self):
        """The bicharacter the hom was made from, else extracted on first use."""
        return (bicharacter_from_right if self.leg == 1 else bicharacter_from_left)(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.source.dim} -> {self.target.dim})"


class RightQGHom(_OneSidedHom):
    """Right homomorphism: a coaction-shaped map of C into C (x) A."""

    leg, map_name = 1, "deltaR"
    gates = _one_sided_gates(map_name, "span(algC) (x) span(algA)")


class LeftQGHom(_OneSidedHom):
    """Left homomorphism: the mirror notion, mapping C into A (x) C."""

    leg, map_name = 2, "deltaL"
    gates = _one_sided_gates(map_name, "span(algA) (x) span(algC)")


def one_sided_residuals(c, a, phi, leg):
    """Residuals of a right (leg 1) or left (leg 2) hom phi of C, C on leg
    (_one_sided), and the (p, g) of the one read of its images."""
    p, g, range_ = _read(phi, c.algC, a, leg)
    return _one_sided(c, a, p, range_, leg), (p, g)


def _one_sided(c, a, p, range_, leg):
    """The residuals of a one-sided hom of C with coefficients p (_comodule),
    a coaction of A on C that commutes with Delta_C: plus ``coassocDiagram``,
    Delta_C on the C leg of phi against phi on the other leg of Delta_C."""
    co = _comodule(p, range_, a, leg)
    cc = structure_constants(c)
    return {
        "range": co["range"],
        "coassocDiagram": diagram_residual((p, leg, cc), (cc, 3 - leg, p)),
        "comoduleDiagram": co["coassociativity"],
        "injective": co["injective"],
        "podles": co["dense"],
    }


def _check_one_sided(cls, c, a, phi):
    res, coefficients = one_sided_residuals(c, a, phi, cls.leg)
    gate_all(res, cls.gates, RangeViolation)
    return cls(c, a, phi, res, coefficients)


def check_right_hom(c, a, dr_map):
    return _check_one_sided(RightQGHom, c, a, dr_map)


def right_map_from_bicharacter(v):
    """The map of right_from_bicharacter(v), unverified: (id (x) f)Delta_C,
    its coefficients C F (hom_coefficients) combined on algC (x) algA."""
    return _map_of(v, 1)


def left_map_from_bicharacter(v):
    """The map of left_from_bicharacter(v), unverified: (f (x) id)Delta_C."""
    return _map_of(v, 2)


def _map_of(v, leg):
    c, a = v.source, v.target
    span = PairSpan(c.algC, a.algC) if leg == 1 else PairSpan(a.algC, c.algC)
    return SpanMap(c.algC, span.combine(hom_coefficients(v, leg)), c.dim, c.dim * a.dim)


def _from_bicharacter(cls, v, phi):
    """The hom of cls of a verified bicharacter v with map phi = C F, with
    the residuals of phi read off C F, but ``range``: the part of V that F
    does not carry (hopf_coefficients), relative.  How far phi is from V's
    conjugation V(b (x) 1)V* is V's operatorSource, gated with V."""
    c, a = v.source, v.target
    p = hom_coefficients(v, cls.leg)
    range_ = hopf_coefficients(v)[1] / max(1.0, frob(v.V))
    res = _one_sided(c, a, p, range_, cls.leg)
    gate_all(res, cls.gates, RangeViolation)
    out = cls(c, a, phi, res, (p, np.zeros((len(c.algC),) * 2)))
    out.bicharacter = v
    return out


def right_from_bicharacter(v):
    """Right homomorphism (id (x) f)Delta_C of v; its bicharacter is v."""
    return _from_bicharacter(RightQGHom, v, right_map_from_bicharacter(v))


def left_from_bicharacter(v):
    """Left homomorphism (f (x) id)Delta_C of v; its bicharacter is v, and
    residuals["sliceIdentity"] is (id (x) deltaL)(W) = V12 W13 on W's slices
    with V's own F (push_slices), plus sqrt(dim C) |V - (id (x) f)(W)|."""
    out = _from_bicharacter(LeftQGHom, v, left_map_from_bicharacter(v))
    c, (f, miss) = v.source, hopf_coefficients(v)
    res = push_slices(unitary_slices(c), v.target, f, out.coefficients, 2)[1]
    res += np.sqrt(c.dim) * miss / max(1.0, np.sqrt(c.dim) * frob(v.V))
    gate(res, EQUATION_TOL, RangeViolation, "slice identity for the left homomorphism fails")
    out.residuals["sliceIdentity"] = res
    return out


def hopf_fit(c, coefficients, leg):
    """F[k, j] = <a_j, f(b_k)> off the coefficients (p, g) of a right (leg
    1) or left (leg 2) hom phi of C, by least squares.  With W = sum_k X_k
    (x) b_k + T unitary and F_st = sum_k p[k, s, t] X_k, s on C's leg, Y_t
    = sum_s X_s* F_st / d (leg 2: F_st X_s*) makes W12 Y13 (Y12 W13) the
    nearest to (id (x) phi)(W); the X_s* X_k, so the Y_t, lie in span{X_k},
    and F is the Y_t's fit_on_slices."""
    xs, p = unitary_slices(c)[0], coefficients[0]
    # f[s, t] = F_st (leg 2: f[t, s]), then Y_t summed over (s, a) or (s, b)
    f = np.tensordot(p, xs, axes=(0, 0))
    if leg == 1:
        ys = np.tensordot(xs.conj(), f, axes=([0, 1], [0, 2])).transpose(1, 0, 2)
    else:
        ys = np.tensordot(f, xs.conj(), axes=([1, 3], [0, 2]))
    return fit_on_slices(xs, ys / c.dim)


def _extract(hom, what):
    """(id (x) f)(W_C) for the f of a one-sided hom (hopf_fit), certified
    by (id (x) deltaR)(W) = W12 V13 (leg 2: (id (x) deltaL)(W) = V12 W13)."""
    c, a, f = hom.source, hom.target, hopf_fit(hom.source, hom.coefficients, hom.leg)
    factor = push_slices(unitary_slices(c), a, f, hom.coefficients, hom.leg)
    return extract_bicharacter(*factor, c, a, what)


def bicharacter_from_right(dr):
    """Recover the bicharacter of a right hom (_extract)."""
    return _extract(dr, "W12* (id (x) deltaR)(W) is not leg-2 trivial")


def check_left_hom(c, a, dl_map):
    return _check_one_sided(LeftQGHom, c, a, dl_map)


def bicharacter_from_left(dl):
    """Recover the bicharacter of a left hom (_extract)."""
    return _extract(dl, "(id (x) deltaL)(W) W13* is not leg-3 trivial")


def check_left_right_compatibility(dl, dr):
    """Evaluate the two compatibility squares for a left and a right hom.

    The mixed square (right after left versus left after right) commutes for
    any pair with common source; its worst residual is returned first.  The
    second square, where both maps follow the comultiplication, commutes
    precisely when the two homomorphisms come from the same bicharacter;
    the returned flag reports that.  Both are read off coefficients.
    """
    if dl.source is not dr.source and not dl.source.same_unitary(dr.source):
        raise ValueError("left and right homomorphisms must share their source")
    c, a, b = dl.source, dl.target, dr.target
    left, right = dl.coefficients[0], dr.coefficients[0]
    square = diagram_residual((left, 2, right), (right, 1, left))
    cc = structure_constants(c)
    same = a.same_unitary(b) and diagram_residual((cc, 2, left), (cc, 1, right)) <= EQUATION_TOL
    return square, bool(same)


def dual_hopf_relation(f, fhat):
    """Residual of the two slice constructions agreeing for a dual pair.

    f maps C to A; fhat maps the dual of A to the dual of C.  Pushing fhat
    through the first leg of the target's unitary must produce the same
    matrix as pushing f through the second leg of the source's unitary.
    """
    c = f.source
    a = f.target
    if fhat.source.dim != a.dim or fhat.target.dim != c.dim:
        raise DimensionMismatch(
            f"dual hom connects dims {fhat.source.dim}->{fhat.target.dim}, "
            f"expected {a.dim}->{c.dim}"
        )
    rhs = map_legs(c.W[None], (c.dim, c.dim), None, f.map)
    lhs = map_legs(a.W[None], (a.dim, a.dim), fhat.map, None)
    return residual_between(lhs[0], rhs[0])
