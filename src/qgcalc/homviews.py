"""Conversions among the equivalent notions of quantum group homomorphism.

Hopf *-homomorphisms, right homomorphisms (coaction-like maps into
C (x) A), left homomorphisms (into A (x) C), and bicharacters all describe
the same arrows; this module carries each notion and the translations
between them, with every translation verified on the way out.

Linear maps between matrix algebras are SpanMaps on orthonormal algebra
bases.  The right map is the conjugation x -> V(x (x) 1)V*, and the left map
that conjugation with the unitary antipodes on its legs (tensorleg's
conjugation_images and map_legs)."""

from functools import cached_property

import numpy as np

from .bicharacter import extract_bicharacter
from .errors import DimensionMismatch, HopfHomViolation, RangeViolation, gate, gate_all
from .qgroup import (
    CLOSURE_TOL,
    EQUATION_TOL,
    PENTAGON_TOL,
    intertwining_residuals,
    multiplication_constants,
    slice_coefficients,
    structure_constants,
    unitary_antipode,
    unitary_slices,
)
from .tensorleg import (
    PairSpan,
    SpanMap,
    conjugation_images,
    diagram_residual,
    frob,
    gram,
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
    "map_coefficients",
    "factor_slices",
    "slice_identity_residual",
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


def map_coefficients(phi, basis, qg, leg):
    """The coefficients p of phi on basis and the Gram matrix g of its
    images' parts off the span (_read): phi as factor_slices takes it."""
    return _read(phi, basis, qg, leg)[:2]


def comodule_residuals(phi, basis, qg, leg):
    """Comodule axioms of phi: D -> D (x) C (leg 1) or C (x) D (leg 2), on an
    orthonormal basis of D, and the (p, g) of map_coefficients they are read
    from, in one read of the images.

    ``range`` is the distance from the algebra pair span, and the rest is
    read off the coefficients P on it: ``coassociativity`` compares phi on
    the D leg with Delta_C on the C leg, ``injective`` is the rank of P, and
    ``dense`` the rank of the products phi(x)(1 (x) c) (the Podles condition).
    """
    p, g, range_ = _read(phi, basis, qg, leg)
    # the products' coefficients, rows (k, m) and columns (i, l), i on D
    on_c_last = p if leg == 1 else p.transpose(0, 2, 1)
    products = np.einsum("kij,jml->kmil", on_c_last, multiplication_constants(qg), optimize=True)
    n = len(p) * len(qg.algC)
    residuals = {
        "range": range_,
        "coassociativity": diagram_residual((p, leg, p), (p, 3 - leg, structure_constants(qg))),
        "injective": numerical_rank(p) == len(p),
        "dense": numerical_rank(products.reshape(n, n)) == n,
    }
    return residuals, (p, g)


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
    ``map_name``, with the map_coefficients (p, g) its check read."""

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
    """Residuals of a right (leg 1) or left (leg 2) hom phi of C, leg being
    C's leg, and the (p, g) they are read from.

    Such a hom is a coaction of A on C that also commutes with Delta_C: the
    comodule residuals plus ``coassocDiagram``, Delta_C on the C leg of phi
    against phi on the other leg of Delta_C, read off coefficients too.
    """
    co, (p, g) = comodule_residuals(phi, c.algC, a, leg)
    cc = structure_constants(c)
    residuals = {
        "range": co["range"],
        "coassocDiagram": diagram_residual((p, leg, cc), (cc, 3 - leg, p)),
        "comoduleDiagram": co["coassociativity"],
        "injective": co["injective"],
        "podles": co["dense"],
    }
    return residuals, (p, g)


def _check_one_sided(cls, c, a, phi):
    res, coefficients = one_sided_residuals(c, a, phi, cls.leg)
    gate_all(res, cls.gates, RangeViolation)
    return cls(c, a, phi, res, coefficients)


def check_right_hom(c, a, dr_map):
    return _check_one_sided(RightQGHom, c, a, dr_map)


def right_map_from_bicharacter(v):
    """The map of right_from_bicharacter(v), unverified: x goes to V(x (x) 1)V*."""
    c, a = v.source, v.target
    return SpanMap(c.algC, conjugation_images(v.V, c.algC), c.dim, c.dim * a.dim)


def right_from_bicharacter(v):
    """Right homomorphism by conjugation: x goes to V(x (x) 1)V*; its bicharacter is v."""
    out = check_right_hom(v.source, v.target, right_map_from_bicharacter(v))
    out.bicharacter = v
    return out


def factor_slices(x, c, a, coefficients, leg):
    """Y with (id (x) phi)(X) = X12 Y13 (leg 1, phi: C -> C (x) A) or Y12 X13
    (leg 2, phi: C -> A (x) C) for X unitary on H (x) H_C, phi given by its
    map_coefficients (p, g) on c.algC, and the residual.

    With X = sum_k X_k (x) b_k (slice_coefficients) and F_st = sum_k
    p[k, s, t] X_k, s on C's leg, this says F_st = X_s Y_t (leg 2: Y_t X_s)
    for Y = sum_t Y_t (x) a_t, and unitarity, sum_s X_s* X_s = sum_s X_s X_s*
    = d 1, gives Y_t = sum_s X_s* F_st / d (leg 2: sum_s F_st X_s* / d).  The
    residual, relative to |(id (x) phi)(X)| as the operator oracle divides,
    adds in squares the orthogonal part sum_k X_k (x) R_k of the images off
    the span (_slice_miss), and |T12 Y13| <= sqrt(dim H_A) |T| |Y| for the
    truncation T of the X_k: it never reads below the operator one beyond
    rounding.
    """
    h, d = x.shape[0] // c.dim, c.dim
    xs, trunc = slice_coefficients(x, h, c.algC)
    f, off_sq = _slice_images(xs, coefficients, leg)
    if leg == 1:
        y = np.tensordot(xs.conj(), f, axes=([0, 1], [0, 2])).transpose(1, 0, 2) / d
    else:
        y = np.tensordot(f, xs.conj(), axes=([0, 3], [0, 2])) / d
    bound = np.sqrt(a.dim) * trunc * frob(y)
    norm = _slice_miss(f, off_sq, xs, y, leg) + bound
    total = np.sqrt(np.maximum(frob(f) ** 2 + off_sq, 0.0))
    factor = np.tensordot(y, a.algC, axes=(0, 0)).transpose(0, 2, 1, 3)
    return factor.reshape(h * a.dim, -1), float(norm / total) if total != 0 else 0.0


def _slice_images(xs, coefficients, leg):
    """F_st = sum_k p[k, s, t] X_k, s on C's leg, for the slices X_k of X and
    the map_coefficients (p, g) of phi: (id (x) phi)(X) is sum_st F_st (x)
    the product basis element (s, t) plus sum_k X_k (x) R_k, R_k the parts
    of phi's images off the span, whose squared norm sum_kl <X_k, X_l>
    g[k, l] comes second."""
    p, g = coefficients
    f = np.tensordot(p if leg == 1 else p.transpose(0, 2, 1), xs, axes=(0, 0))
    return f, float(np.sum(gram(xs) * g).real)


def _slice_miss(f, off_sq, xs, y, leg):
    """|(id (x) phi)(X) - X12 Y13| (leg 1) or |... - Y12 X13| (leg 2) for X
    and Y on their spans, from _slice_images and the slices Y_t of Y: the
    misses F_st - X_s Y_t (leg 2: F_st - Y_t X_s) on the orthonormal
    product basis, and the orthogonal off-span part in squares."""
    miss = f - (xs[:, None] @ y[None, :] if leg == 1 else y[None, :] @ xs[:, None])
    return np.sqrt(np.maximum(frob(miss) ** 2 + off_sq, 0.0))


def bicharacter_from_right(dr):
    """Recover the bicharacter: (id (x) deltaR)(W) = W12 V13 (factor_slices)."""
    c, a = dr.source, dr.target
    what = "W12* (id (x) deltaR)(W) is not leg-2 trivial"
    return extract_bicharacter(*factor_slices(c.W, c, a, dr.coefficients, 1), c, a, what)


def check_left_hom(c, a, dl_map):
    return _check_one_sided(LeftQGHom, c, a, dl_map)


def left_map_from_bicharacter(v):
    """The map of left_from_bicharacter(v), unverified: sigma (R_C (x) R_A)
    Delta_R R_C, Delta_R the right map and sigma the leg swap.  That is
    Vhat*(1 (x) R_C(x))Vhat untwisted by R_A and R_C on its legs, for the
    flipped Vhat = Sigma V* Sigma: Vhat*(1 (x) y)Vhat = Sigma V(y (x) 1)V* Sigma*."""
    c, a, n = v.source, v.target, len(v.source.algC)
    r_c, r_a = unitary_antipode(c), unitary_antipode(a)
    images = map_legs(conjugation_images(v.V, r_c.apply_stack(c.algC)), (c.dim, a.dim), r_c, r_a)
    swapped = images.reshape(n, c.dim, a.dim, c.dim, a.dim).transpose(0, 2, 1, 4, 3)
    return SpanMap(c.algC, swapped.reshape(n, a.dim * c.dim, -1), c.dim, a.dim * c.dim)


def left_from_bicharacter(v):
    """Left homomorphism through the flipped bicharacter and both antipodes.

    Kac type only: the construction conjugates with the flipped unitary and
    untwists with the unitary antipodes on both legs.  Its bicharacter is v,
    and the slice identity (id (x) deltaL)(W) = V12 W13 must hold as well,
    kept as residuals["sliceIdentity"] (slice_identity_residual).
    """
    out = check_left_hom(v.source, v.target, left_map_from_bicharacter(v))
    slice_res = slice_identity_residual(v, out)
    gate(
        slice_res, EQUATION_TOL, RangeViolation, "slice identity for the left homomorphism fails"
    )
    out.residuals["sliceIdentity"] = slice_res
    out.bicharacter = v
    return out


def slice_identity_residual(v, dl):
    """The residual of (id (x) deltaL)(W) = V12 W13 for a bicharacter v from
    C to A and a left hom dl of C, relative to |V12 W13|.

    It is factor_slices' leg-2 miss F_st - Y_t X_s with the Y_t read off V
    = sum_t Y_t (x) a_t + T_V over a.algC instead of fitted, X_s the slices
    of W = sum_s X_s (x) b_s + T_W over c.algC (unitary_slices).  The map
    deltaL is zero off span(algC), so T_W leaves the left side alone, and
    it moves V12 W13 by at most |T_V12 W13| + |V'12 T_W13| <= sqrt(dim C)
    |T_V| + (1 + |T_V|) sqrt(dim A) |T_W|, V' = V - T_V: that is added, so
    the result never reads below the operator residual beyond rounding,
    and off the spans it reads that certified upper bound.
    """
    c, a = dl.source, dl.target
    xs, trunc_w = unitary_slices(c)
    ys, trunc_v = slice_coefficients(v.V, c.dim, a.algC)
    f, off_sq = _slice_images(xs, dl.coefficients, 2)
    bound = np.sqrt(c.dim) * trunc_v + (1.0 + trunc_v) * np.sqrt(a.dim) * trunc_w
    norm = _slice_miss(f, off_sq, xs, ys, 2) + bound
    # the scale of residual_between: |V12 W13| = |V12|, W unitary
    return float(norm / max(1.0, np.sqrt(c.dim) * frob(v.V)))


def bicharacter_from_left(dl):
    """Inverse translation: V from (id (x) deltaL)(W) = V12 W13 (factor_slices)."""
    c, a = dl.source, dl.target
    what = "(id (x) deltaL)(W) W13* is not leg-3 trivial"
    return extract_bicharacter(*factor_slices(c.W, c, a, dl.coefficients, 2), c, a, what)


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
