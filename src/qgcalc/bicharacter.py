"""Bicharacters: unitaries pairing the dual side of one quantum group
with another, the working notion of quantum group homomorphism.

Every bicharacter is kept with its source and target and the residuals of
the two defining equations.  Both the comultiplication form and the
pentagon-type operator form of the axioms are computed, and their
agreement is a check: the
comultiplication forms read Delta off the structure constants C and Gram
matrix g the build keeps, comultSource the source's dual Delta_hat off
the source's slices (qgroup.dual_comultiplication), and the operator
forms read the conjugation by
the other unitary of each equation on coefficients (operator_equation).
operatorSource conjugates by V, the F contraction of V's slices with the
product constants N of the target (qgroup.conjugation_coefficients), and
is arithmetic of its own.  operatorTarget conjugates by W of the target,
which is the target's Delta, so it reads the C and g the target holds:
its agreement with comultTarget checks the two forms' bounds, not Delta.

A bicharacter is (id (x) f)(W_C) for a Hopf *-homomorphism f, kept as
its coefficients F once read (hopf_coefficients); its other pictures are
contractions with F, and composition applies F to a leg (push_along).
"""

import math

import numpy as np

from .errors import (
    BicharacterViolation,
    ExtractionFailure,
    HopfHomViolation,
    NotUnitary,
    SourceTargetMismatch,
    gate,
    gate_all,
)
from .qgroup import (
    CLOSURE_TOL,
    EQUATION_TOL,
    PENTAGON_TOL,
    antipode_coefficients,
    comult_equation,
    comultiplication_gram,
    conjugation_coefficients,
    dual_comult_equation,
    dual_comultiplication,
    fit_on_slices,
    product_constants,
    slice_coefficients,
    slice_equation,
    structure_constants,
    unitary_slices,
)
from .tensorleg import (
    LegSpace,
    as_matrix,
    flip_adjoint,
    frob,
    gram,
    map_legs,
    unitarity_defect,
)

__all__ = [
    "Bicharacter",
    "check_bicharacter",
    "compose",
    "extract_bicharacter",
    "hopf_coefficients",
    "hom_coefficients",
    "push_slices",
    "push_along",
    "identity",
    "dual_bicharacter",
    "from_hopf_hom",
    "check_R_invariance",
]


class Bicharacter:
    """A verified unitary from Ĉ (x) A with its equation residuals."""

    gates = (
        ("unitarity", PENTAGON_TOL, "V is not unitary"),
        ("comultSource", EQUATION_TOL, "comultSource equation fails"),
        ("comultTarget", EQUATION_TOL, "comultTarget equation fails"),
        ("operatorSource", EQUATION_TOL, "operatorSource equation fails"),
        ("operatorTarget", EQUATION_TOL, "operatorTarget equation fails"),
        ("membership", CLOSURE_TOL, "V escapes the algebra pair span"),
    )

    def __init__(self, source, target, V, residuals):
        self.source = source
        self.target = target
        self.V = V
        self.residuals = dict(residuals)
        self.hopf = None

    @property
    def space(self):
        return LegSpace((self.source.dim, self.target.dim))

    def __repr__(self):
        return f"Bicharacter({self.source.dim} -> {self.target.dim})"


def bicharacter_residuals(v, c, a):
    """All five residuals of the bicharacter axioms for v against (c, a).

    Keys 'comultSource' and 'comultTarget' are the two comultiplication
    equations, (Delta_hat (x) id)V = V23 V13 and (id (x) Delta)V = V12 V13;
    'operatorSource' and 'operatorTarget' are the pentagon-type operator
    equations V23 W12 V23* = W12 V13 and W23 V12 W23* = V12 V13; 'membership'
    locates v inside span(dual algC of c) (x) span(algC of a).  The dual
    side of c is read off c's own slices, W_C = sum_k X_k (x) b_k + T_W,
    whose span is the dual's algC, with no dual built.

    The four equations are read off the slices of V on both legs, V =
    sum_j Z_j (x) a_j + T over a.algC and V = sum_k X_k (x) f(b_k) + T' for
    V's Hopf coefficients F (hopf_coefficients), whose miss |T'| over |V| is
    'membership': d^6 flops where the operators cost d^8.  comultSource is
    dual_comult_equation on V = sum_j e_j (x) Y_j + T', Y_j = sum_q (R F)[j,
    q] a_q, with Delta_hat on the orthonormal e_j and X_k = sum_j e_j R[j, k]
    read off W_C (dual_comultiplication).  Each form adds a bound for the
    truncations it drops, so it never reads below the operator residual by
    more than rounding; off that span, where V is no bicharacter, it reads
    that certified upper bound.
    """
    v = as_matrix(v)
    dc, da = c.dim, a.dim
    if v.shape[0] != dc * da:
        raise ValueError(f"V has dim {v.shape[0]}, expected {dc * da}")
    z, trunc = slice_coefficients(v, dc, a.algC)
    size = frob(v)
    f, miss = _hopf_fit(c, z, trunc)
    c_hat, g_hat, r = dual_comultiplication(c)
    ys = np.tensordot(r @ f, a.algC, axes=1)
    delta = (structure_constants(a), comultiplication_gram(a))
    conj_v = (*conjugation_coefficients(z, c.algC, product_constants(a)[0]), trunc)
    return {
        "comultSource": dual_comult_equation((ys, miss), (c_hat, g_hat), dc, size),
        "comultTarget": comult_equation(z, trunc, *delta, da, size),
        "operatorSource": operator_equation(
            unitary_slices(c), conj_v, (z, trunc), dc, a, frob(c.W)
        ),
        "operatorTarget": operator_equation(
            (z, trunc), (*delta, unitary_slices(a)[1]), (z, trunc), da, a, size
        ),
        "membership": miss / max(1.0, size),
    }


def operator_equation(p, u, v, d, a, size):
    """The residual of U23 P12 U23* = P12 V13 from slices, for P = sum_k P_k
    (x) b_k + T_P over an orthonormal basis of B(C^d), and U = sum_m U_m
    (x) a_m + T_U and V = sum_j Z_j (x) a_j + T_V over a.algC; p and v are
    the (stack, truncation) pairs of slice_coefficients, u is (C, g, |T_U|)
    for the conjugation by U on the b_k (conjugation_coefficients), and
    size is |P|.  operatorSource is P = W_C and U = V, operatorTarget P = V
    and U = W_A, whose conjugation is the target's Delta, held as its C and g.

    With the product constants a_m a_l* = sum_j N[j, m, l] a_j + D_ml
    (product_constants), U(x (x) 1)U* = sum_ml U_m x U_l* (x) a_m a_l* is
    sum_j F_j(x) (x) a_j up to the D_ml, F_j(x) = sum_m U_m x Q_jm with
    Q_jm = sum_l N[j, m, l] U_l*.  So U23 P12 U23* = sum_k P_k (x) G_k with
    G_k = sum_j F_j(b_k) (x) a_j, whose coefficients C on b_i (x) a_j and
    off-span Gram matrix g are read off the F_j(b_k), and slice_equation
    compares it with P12 V13 = sum_ij P_i Z_j (x) b_i (x) a_j: one (n d) x
    (n d) x (n d) product where the operators cost d^8.

    What this drops is added as a bound, so the result never reads below
    the operator residual by more than rounding.  With legs of dimensions
    (h, d, e), unitaries of norm 1 and t the largest truncation, the
    truncations move the two sides by at most (1 + t)^2 (2 sqrt(h) |T_U| +
    2 sqrt(e) |T_P| + sqrt(d) |T_V|), and the D_ml move the left one by at
    most |D| |S| |P|, |D| the norm of the defect map of product_constants
    and S = sum_m U_m* U_m the partial trace of U*U, so |S| <= e (1 + t)^2;
    that part is orthogonal to both sides, so it adds in squares.
    """
    (ps, p_trunc), (c, g, u_trunc), (zs, v_trunc) = p, u, v
    h, e = ps.shape[1], a.dim
    defect = product_constants(a)[1]
    norm = slice_equation(ps, c, g, zs)
    grow = (1.0 + np.max([p_trunc, u_trunc, v_trunc])) ** 2
    moved = 2 * math.sqrt(h) * u_trunc + 2 * math.sqrt(e) * p_trunc + math.sqrt(d) * v_trunc
    # the D_ml part is off B (x) B (x) span(a.algC), where the rest lies
    norm = np.hypot(norm, grow * defect * e * size) + grow * moved
    # the scale of residual_between: both sides have the norm of P12
    return float(norm / max(1.0, math.sqrt(e) * size))


def check_bicharacter(v, c, a):
    """Verify v as a bicharacter from c to a; residuals travel with the result."""
    v = as_matrix(v)
    # unitarity is gated first, with an error of its own: the equations assume it
    udef = unitarity_defect(v)
    if not udef <= PENTAGON_TOL:
        msg = f"V is not unitary, defect {udef:.2e}"
        raise NotUnitary(msg, residual=udef, tolerance=PENTAGON_TOL)
    res = dict(bicharacter_residuals(v, c, a), unitarity=udef)
    gate_all(res, Bicharacter.gates, BicharacterViolation)
    return Bicharacter(c, a, v, res)


def identity(c):
    """The multiplicative unitary of c as the identity arrow at c."""
    return check_bicharacter(c.W, c, c)


def hopf_coefficients(v):
    """F[k, j] = <a_j, f(b_k)> for the Hopf map f with V = (id (x) f)(W_C),
    and |V - (id (x) f)(W_C)|, kept as v.hopf.  With W_C = sum_k X_k (x) b_k
    + T_W and V = sum_j Z_j (x) a_j + T, Z_j = sum_k F[k, j] X_k, read by
    fit_on_slices; f is zero off span(algC), so the miss is the Z_j off
    span{X_k} and T, in squares: V's leg-1 miss and truncation."""
    if v.hopf is None:
        v.hopf = _hopf_fit(v.source, *slice_coefficients(v.V, v.source.dim, v.target.algC))
    return v.hopf


def _hopf_fit(c, zs, trunc):
    xs, _ = unitary_slices(c)
    f = fit_on_slices(xs, zs)
    return f, float(np.hypot(frob(zs - np.tensordot(f, xs, axes=(0, 0))), trunc))


def hom_coefficients(v, leg):
    """The right (leg 1) map (id (x) f)Delta_C of v, P_R[k, i, j] = sum_l
    C[k, i, l] F[l, j] on b_i (x) a_j, or the left (leg 2) map (f (x)
    id)Delta_C, P_L[k, j, i] = sum_l C[k, l, i] F[l, j] on a_j (x) b_i."""
    f, c = hopf_coefficients(v)[0], structure_constants(v.source)
    return c @ f if leg == 1 else f.T @ c


def push_slices(slices, a, f, coefficients, leg):
    """Y = sum_k X_k (x) f(b_k), f(b_k) = sum_j f[k, j] a_j, for X = sum_k
    X_k (x) b_k + T on H (x) H_C (slices over algC), and the residual of
    (id (x) phi)(X) = X12 Y13 (leg 1) or Y12 X13 (leg 2) relative to
    |(id (x) phi)(X)|, phi with coefficients (p, g) on algC and zero off it.

    The miss is sum_k p[k, s, t] X_k - X_s Y_t (leg 2: Y_t X_s, s on C's
    leg) and the off-span part, in squares (slice_equation, for leg 2 on
    adjoints), and T12 Y13 (Y12 T13), orthogonal to the first as T is off
    span(algC), of norm at most |T| |sum_j Y_j Y_j*|^(1/2) (Y_j* Y_j), and
    met by the second by the triangle inequality: never below the operator
    residual beyond rounding.
    """
    (xs, trunc), (p, g) = slices, coefficients
    ys = np.tensordot(f, xs, axes=(0, 0))
    adjoint = lambda m: m.conj().transpose(0, 2, 1)
    if leg == 1:
        on_span, square = slice_equation(xs, p, g, ys), ys @ adjoint(ys)
    else:
        on_span = slice_equation(adjoint(xs), p.transpose(0, 2, 1).conj(), g.conj(), adjoint(ys))
        square = adjoint(ys) @ ys
    # a NaN in ys is one in on_span too, whatever eigvalsh makes of it
    tail = trunc * math.sqrt(max(np.linalg.eigvalsh(square.sum(axis=0))[-1], 0.0))
    gx = gram(xs)
    off = math.sqrt(max(float(np.sum(gx * g).real), 0.0))
    miss = math.sqrt(on_span**2 + tail**2 + 2 * off * tail)
    size = math.sqrt(max(float(np.sum(gx * (gram(p) + g)).real), 0.0))
    return _on_target(ys, a), float(miss / size) if size != 0 else 0.0


def _on_target(ys, a):
    # sum_j Y_j (x) a_j over a.algC
    return np.einsum("jab,jce->acbe", ys, a.algC).reshape(ys.shape[1] * a.dim, -1)


def push_along(x, h, v):
    """Y = (id (x) f)(X) = sum_k X_k (x) f(b_k) for X = sum_k X_k (x) b_k +
    T on H (x) H_C, dim H = h, f v's Hopf map, and the residual of V23 X12
    V23* = X12 Y13 read off the slices of X, V and Y (operator_equation),
    so it holds V's distance from (id (x) f)(W_C) and T's image too."""
    c, a = v.source, v.target
    p, (us, trunc) = slice_coefficients(x, h, c.algC), slice_coefficients(v.V, c.dim, a.algC)
    u = (*conjugation_coefficients(us, c.algC, product_constants(a)[0]), trunc)
    ys = np.tensordot(hopf_coefficients(v)[0], p[0], axes=(0, 0))
    return _on_target(ys, a), operator_equation(p, u, (ys, 0.0), c.dim, a, frob(x))


def compose(vca, vab):
    """Composition of arrows, first vca, then vab: (id (x) f)(vca.V) for
    vab's Hopf map f (push_along), its residuals["extraction"] that of
    V'23 V12 V'23* = V12 V''13, V' = vab.V, which defines the composite."""
    if not vca.target.same_unitary(vab.source):
        raise SourceTargetMismatch(
            f"middle objects differ: dim {vca.target.dim} vs {vab.source.dim} or unequal W"
        )
    factor = push_along(vca.V, vca.source.dim, vab)
    return extract_bicharacter(*factor, vca.source, vab.target, "middle leg is not trivial")


def extract_bicharacter(factor, resid, c, a, what):
    """The bicharacter from c to a an extraction read off as factor, with
    residual resid: the residual is gated (ExtractionFailure, what fails),
    the factor checked, and the residual kept as residuals["extraction"]."""
    gate(resid, EQUATION_TOL, ExtractionFailure, what)
    out = check_bicharacter(factor, c, a)
    out.residuals["extraction"] = resid
    return out


def dual_bicharacter(v):
    """Flip-adjoint duality: an arrow from the dual target to the dual source.

    The matrix operation is a pure index shuffle, so applying it twice
    returns the original matrix exactly.
    """
    vhat = flip_adjoint(v.V, v.space)
    return check_bicharacter(vhat, v.target.dual, v.source.dual)


def from_hopf_hom(f):
    """Bicharacter attached to a Hopf *-homomorphism: push the second leg of W.

    The map is applied through the coefficient expansion of W in the
    algebra-pair basis, matching how a slice-leg morphism acts on the
    multiplier level.
    """
    gate_all(f.residuals, f.gates, HopfHomViolation)
    c = f.source
    out = map_legs(c.W[None], (c.dim, c.dim), None, f.map)
    return check_bicharacter(out[0], c, f.target)


def check_R_invariance(v):
    """(R_hat (x) R_A)V = V for the unitary antipodes of the source's dual and
    of the target, read off V's Hopf coefficients F and miss |T|.

    With W_C = sum_k X_k (x) b_k and the source's kappa(b_l) = sum_m A[l, m]
    b_m* = sum_p K_C[l, p] b_p (qgroup.antipode_coefficients), R_hat, the
    antipode of Sigma W* Sigma, takes (id (x) omega)(W*) = sum_l
    omega(kappa(b_l)) X_l to (id (x) omega)W for every omega, so as K_C K_C
    = 1, R_hat(X_l) = sum_p K_C[p, l] X_p, with no dual built.  This drops
    the parts sum_m A[l, m] O_m of the kappa(b_l) off span(algC), O_m that
    of b_m*, which the source's closure gate holds at rounding.  (R_hat (x)
    R_A)(V - T) is K_C F K_A on the X_p (x) a_q plus sum_j Y_j (x) O_j, Y_j =
    sum_p (K_C F)[p, j] X_p and O_j the part of R_A(a_j) off span(a.algC),
    and both maps kill T: so the distance is at most |K_C F K_A - F|
    (Gram-weighted) and |T| in squares plus |Y| |O|, over |V|.  Either
    antipode missing: NotKacType.
    """
    (k_c, _), (k_a, off) = (antipode_coefficients(x) for x in (v.source, v.target))
    f, miss = hopf_coefficients(v)
    g = gram(unitary_slices(v.source)[0])
    kf = k_c @ f
    e = kf @ k_a - f
    near = np.sqrt(np.maximum(np.vdot(e, g @ e).real, 0.0) + miss**2)
    far = np.sqrt(np.maximum(np.vdot(kf, g @ kf).real, 0.0)) * off
    return float((near + far) / frob(v.V))
