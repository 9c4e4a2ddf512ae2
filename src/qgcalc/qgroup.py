"""Finite quantum groups presented by multiplicative unitaries.

A quantum group here is a unitary W on H (x) H passing the pentagon check,
together with the operator algebra cut out by slicing away the first leg
of W, the function-algebra side, and its comultiplication, conjugation
with W.  That comultiplication is held as its structure constants, read
off the slice coefficients of W and the product constants of the algebra
(conjugation_coefficients), never off the operators W(b (x) 1)W*.
Slicing away the second leg gives the dual side, which the slice
coefficients X_k of W also span: its closure, its comultiplication
(dual_comultiplication) and the antipode are read off them, and the dual
quantum group ``qg.dual``, built from Sigma W* Sigma, is built only where
it is asked for.

Only Kac-type data is handled; constructions needing the antipode reject
anything else with NotKacType instead of guessing modular corrections.
"""

import math
import weakref

import numpy as np

from .errors import (
    AlgebraNotClosed,
    BicharacterViolation,
    NotKacType,
    NotManageable,
    NotUnitary,
    PentagonViolation,
    gate,
    gate_all,
)
from .tensorleg import (
    RANK_CUTOFF,
    LegSpace,
    PairSpan,
    SpanMap,
    as_matrix,
    conjugation_images,
    diagram_residual,
    flip_adjoint,
    frob,
    gram,
    legs_slab,
    membership_residuals,
    orthonormal_basis,
    permute_legs,
    streamed_residual,
    unitarity_defect,
)

__all__ = [
    "FiniteQuantumGroup",
    "ManageabilityWitness",
    "build_from_unitary",
    "manageability_witness",
    "unitary_antipode",
    "antipode_coefficients",
    "transpose_qg",
    "structure_constants",
    "multiplication_constants",
    "coassociativity_residual",
    "coinvariant_dimension",
    "closure_residual",
    "corep_law_residual",
    "slice_coefficients",
    "dual_slice_coefficients",
    "unitary_slices",
    "fit_on_slices",
    "comultiplication_gram",
    "intertwining_residuals",
    "product_constants",
    "conjugation_coefficients",
    "slice_equation",
    "comult_equation",
    "dual_comult_equation",
    "dual_comultiplication",
    "PENTAGON_TOL",
    "CLOSURE_TOL",
    "EQUATION_TOL",
]

PENTAGON_TOL = 1e-10
CLOSURE_TOL = 1e-8
EQUATION_TOL = 1e-9

# Three-leg operators of more entries than this (d >= 9), 4 MB, have their
# streamed pentagon probed on one column slab first; below it the whole
# stream costs about what that slab does, and reports the full residual.
PENTAGON_PROBE_ENTRIES = 1 << 18


class FiniteQuantumGroup:
    """A verified multiplicative unitary with its slice algebra and comultiplication.

    Instances are immutable by convention once construction finishes.
    ``algC`` is an orthonormal basis (Hilbert-Schmidt) of the leg-1 slice
    span, an (n, d, d) stack.  Delta is ``structure``, the read-only
    C[k, i, j] = <b_i (x) b_j, Delta(b_k)>, and ``gram``, the Gram matrix of
    the parts of the Delta(b_k) off span(algC) (x) span(algC).  ``kacR`` is
    the unitary antipode on the algC span when the Kac validation
    succeeded, else None, and ``kacK`` its coefficients; the dual side is
    ``dual``.  ``slices``, ``products``, ``multiplication`` and
    ``dual_comult`` hold what unitary_slices, product_constants,
    multiplication_constants and dual_comultiplication read, once read (the
    build passes the slices its pentagon and antipode read, the product
    constants it read Delta with, and the multiplication and adjoint
    constants of its closure gate).
    """

    # the antipode is reported only when the Kac check succeeds
    gates = (
        ("unitarity", PENTAGON_TOL, "W is not unitary"),
        ("pentagon", PENTAGON_TOL, "pentagon identity fails"),
        ("closure", CLOSURE_TOL, "slice span is not a *-algebra"),
        ("comultMembership", CLOSURE_TOL, "comultiplication escapes the algebra span"),
        ("antipode", EQUATION_TOL, "antipode fails the involutive *-antiautomorphism checks"),
    )

    def __init__(
        self, dim, w, alg_c, structure, gram, kac_r, residuals, slices=None, products=None,
        multiplication=None, kac_k=None,
    ):
        self.dim = int(dim)
        self.W = w
        self.algC = np.asarray(alg_c, dtype=complex)
        self.structure, self.gram = structure, gram
        structure.flags.writeable = False
        self.kacR = kac_r
        self.kacK = kac_k
        self.residuals = dict(residuals)
        self.slices = slices
        self.products = products
        self.multiplication = multiplication
        self.dual_comult = None
        self._dual = None
        self._builder = None

    @property
    def space(self):
        return LegSpace((self.dim, self.dim))

    @property
    def dual(self):
        """The dual quantum group, built once; its own ``dual`` is this object.

        Its unitary is the flip-adjoint Sigma W* Sigma.  That moves indices
        and conjugates, so dualizing twice gives W back bit for bit and the
        link back needs no second build.  The object that built the dual
        holds it, and the dual holds its builder only through a weak
        reference, so the pair is no reference cycle and is freed as soon as
        its last name goes.  A dual that outlives its builder rebuilds it,
        bit for bit, when asked.
        """
        builder = self._builder() if self._builder is not None else None
        if builder is not None:
            return builder
        if self._dual is None:
            self._dual = build_from_unitary(flip_adjoint(self.W, self.space), self.dim)
            self._dual._builder = weakref.ref(self)
        return self._dual

    def same_unitary(self, other):
        """Object identity in the bicharacter category: equal W matrices."""
        return self.dim == other.dim and np.array_equal(self.W, other.W)

    def __repr__(self):
        return f"FiniteQuantumGroup(dim={self.dim}, algC={len(self.algC)})"


class ManageabilityWitness:
    """The reindexed unitary certifying Kac-type manageability."""

    def __init__(self, wtilde, residual):
        self.wtilde = wtilde
        self.residual = float(residual)


def _leg_slices(w, d, leg):
    """Slices of w by the matrix-unit functionals omega_ij(x) = x[i, j], in (i, j) order.

    Slicing leg 1 by omega_ij leaves the block W[i, :, j, :] of
    W.reshape(d, d, d, d), slicing leg 2 leaves W[:, i, :, j]; returns
    the (d*d, d, d) stack of them.
    """
    axes = (0, 2, 1, 3) if leg == 1 else (1, 3, 0, 2)
    return w.reshape(d, d, d, d).transpose(axes).reshape(d * d, d, d)


def closure_residual(basis):
    """Worst distance of adjoints and pairwise products from span(basis): 0 for a *-algebra."""
    return _closure_constants(basis)[0]


def _pair_products(xs):
    """The products x_k x_l of an (n, d, d) stack, in (k, l) order, as one product."""
    n, d = xs.shape[:2]
    out = xs.reshape(n * d, d) @ xs.transpose(1, 0, 2).reshape(d, n * d)
    return out.reshape(n, d, n, d).transpose(0, 2, 1, 3).reshape(n * n, d, d)


def _closure_constants(b):
    """closure_residual of an orthonormal stack b (membership_residuals of
    its adjoints and pairwise products), and what the antipode checks read
    off the same: (M, |D|), M[j, m, l] = <b_l, b_j b_m>, |D| the Frobenius
    norm of the b_j b_m off span(b); (S, g_O), b_m* = sum_p S[m, p] b_p +
    O_m, g_O the Gram matrix of the O_m."""
    n = len(b)
    cands = np.concatenate([b.conj().transpose(0, 2, 1), _pair_products(b)])
    coeff, rest = _expand(cands.reshape(n + n * n, -1), b)
    mult = (coeff[:, n:].T.reshape(n, n, n), frob(rest[n:]))
    return membership_residuals(b, cands), mult, (coeff[:, :n].T, gram(rest[:n]))


def _slice_closure(slices):
    """The closure residual of the leg-2 slice span, read off W = sum_k X_k
    (x) b_k + T over algC by fit_on_slices, with no basis of that span.

    With m_a, m_p the largest misses of the X_k*, X_k X_l from span{X_k}, l
    the least eigenvalue of their Gram matrix and t = |T| / (l^(1/2) - |T|),
    a leg-2 slice e = (id (x) omega)W of norm 1, omega on span(algC), is x +
    s, |s| <= t, x = sum_k omega(b_k) X_k, |omega|_1 <= (n / l)^(1/2) (1 +
    t).  So e* is within (n / l)^(1/2) (1 + t) m_a + t of span{X_k}, in the
    slice span, and e e' within (n / l) (1 + t)^2 m_p + t (2 + 3 t).  Also
    returns the fit of the X_k* and its miss over |W| (_try_antipode).
    """
    xs, trunc = slices
    n = len(xs)
    root = math.sqrt(max(np.linalg.eigvalsh(gram(xs))[0], 0.0))
    cands = np.concatenate([xs.conj().transpose(0, 2, 1), _pair_products(xs)])
    fit = fit_on_slices(xs, cands)
    miss = np.linalg.norm(cands.reshape(len(cands), -1) - fit.T @ xs.reshape(n, -1), axis=1)
    star = (fit[:, :n], frob(miss[:n]) / max(1.0, frob(xs)))
    if not root > trunc:
        return math.inf, star
    t, c = trunc / (root - trunc), math.sqrt(n) / root
    adj, prod = c * (1 + t) * miss[:n] + t, (c * (1 + t)) ** 2 * miss[n:] + t * (2 + 3 * t)
    return float(np.max(np.concatenate([adj, prod]))), star


def corep_law_residual(x, qg):
    """Residual of the corepresentation law (id (x) Delta)(X) = X12 X13 for X on H (x) H_qg.

    Read off the slices X = sum_k X_k (x) b_k + T (comult_equation), whose
    bound for T makes it the certified upper bound where X is off
    B(H) (x) span(algC).
    """
    h = x.shape[0] // qg.dim
    z, trunc = slice_coefficients(x, h, qg.algC)
    c, g = structure_constants(qg), comultiplication_gram(qg)
    return comult_equation(z, trunc, c, g, qg.dim, frob(x))


def _expand(rows, alg_c):
    """The coefficients on algC of the rows of an (m, d*d) array, as an
    (n, m) array, and the rows' parts off span(algC)."""
    basis = alg_c.reshape(len(alg_c), -1)
    coeff = rows @ basis.conj().T
    return coeff.T, rows - coeff @ basis


def slice_coefficients(x, h, alg_c):
    """X on H (x) H_C as sum_k X_k (x) b_k + T over algC: the (n, h, h) stack
    of the X_k and |T|, T the part of X off B(H) (x) span(algC)."""
    d = alg_c.shape[1]
    rows = x.reshape(h, d, h, d).transpose(0, 2, 1, 3).reshape(h * h, d * d)
    coeff, rest = _expand(rows, alg_c)
    return coeff.reshape(len(alg_c), h, h), frob(rest)


def dual_slice_coefficients(v, c, e):
    """V on H_C (x) H_E as sum_j c_j (x) Y_j + T over c.dual.algC, the
    mirror of slice_coefficients on the first leg: the (n, e, e) stack of the
    Y_j and |T|.  Only transpose_qg reads it: the bicharacter checks read the
    dual side off c's own slices, with no dual built."""
    flipped = permute_legs(v, LegSpace((c.dim, e)), (2, 1))
    return slice_coefficients(flipped, e, c.dual.algC)


def unitary_slices(qg):
    """slice_coefficients of qg.W, W = sum_k X_k (x) b_k + T: the X_k and
    |T|, kept as qg.slices."""
    if qg.slices is None:
        qg.slices = slice_coefficients(qg.W, qg.dim, qg.algC)
    return qg.slices


def fit_on_slices(xs, zs):
    """The F with sum_k F[k, j] X_k nearest each Z_j: one Gram solve."""
    return np.linalg.solve(gram(xs), np.tensordot(xs.conj(), zs, axes=([1, 2], [1, 2])))


def slice_equation(x, c, g, y=None):
    """|sum_k x_k (x) D_k - sum_ij x_i y_j (x) e_i (x) f_j| for stacks x and
    y (y = x by default), D_k = sum_ij c[k, i, j] e_i (x) f_j + R_k over
    orthonormal e_i and f_j, with the R_k off their span and g[k, l] =
    <R_k, R_l>.

    The difference is sum_ij (sum_k c[k, i, j] x_k - x_i y_j) (x) e_i (x)
    f_j plus sum_k x_k (x) R_k.  The two parts are Hilbert-Schmidt
    orthogonal, so its squared norm is the sum over i, j of the first
    coefficient's plus sum_kl <x_k, x_l> g[k, l]: n^3 h^2 + n^2 h^3 flops
    for n elements of size h, against the h^2 d^6 of either side as an
    operator.  A NaN anywhere reads NaN.
    """
    y = x if y is None else y
    n, h = x.shape[:2]
    on = (c.reshape(n, -1).T @ x.reshape(n, -1)).reshape(*c.shape[1:], h, h)
    on -= x[:, None] @ y[None, :]
    sq = frob(on) ** 2 + float(np.sum(gram(x) * g).real)
    return float(np.sqrt(np.maximum(sq, 0.0)))


def comult_equation(x, trunc, c, g, d, size):
    """The residual of (id (x) Delta)(X) = X12 X13, X = sum_k x_k (x) b_k + T
    with |T| = trunc and |X| = size, Delta on the b_k (of size d) given by
    its coefficients c and off-span Gram matrix g (slice_equation).

    With X = W it is the pentagon: W23 W12 W23* = sum_k X_k (x) Delta(b_k),
    and multiplying on the right by the unitary W23 leaves the norm of
    W23 W12 - W12 W13 W23.  The truncation T moves X12 X13 by at most
    sqrt(d) |T| (2 + |T|), and the left side by sqrt(d) |T| where Delta is
    conjugation by W, as in the pentagon (Delta read off c and g is zero
    off span(algC)).  sqrt(d) |T| (3 + |T|) is added, so the result never
    reads below the operator residual by more than rounding.  The scale is
    residual_between's: both sides have the norm of X12.
    """
    bound = math.sqrt(d) * trunc * (3.0 + trunc)
    return float((slice_equation(x, c, g) + bound) / max(1.0, math.sqrt(d) * size))


def dual_comult_equation(y, delta, d, size):
    """The residual of (Delta_hat (x) id)(V) = V23 V13 for V = sum_j c_j (x)
    Y_j + T over an orthonormal basis c_j of the dual side, y the pair
    (stack, |T|) of its slices, delta the structure constants C_hat and Gram
    matrix of Delta_hat on the c_j, d their size and size |V|: the mirror of
    comult_equation, whose coefficient at (p, q) is sum_j C_hat[j, p, q] Y_j
    - Y_q Y_p, the adjoint of the form for the Y_j*, with the conjugate
    structure constants and Gram matrix.
    """
    ys, trunc = y
    c_hat, g_hat = (x.conj() for x in delta)
    return comult_equation(ys.conj().transpose(0, 2, 1), trunc, c_hat, g_hat, d, size)


def intertwining_residuals(qg, ys, c):
    """residual_between of Delta(y_k) and sum_ij c[k, i, j] y_i (x) y_j for
    each y_k of an (m, d, d) stack, read off qg's C and g: a Hopf map's
    intertwining (y = f(b), c the source's C) or a classical coproduct.

    With y_k = sum_j phi[k, j] b_j + s_k, the coefficients on the b_p (x)
    b_q are (phi C)[k] and sum_ij c[k, i, j] phi[i] (x) phi[j].  Delta's
    part off them, sum_j phi[k, j] R_j, adds in squares; the right side's,
    sum_ij c[k, i, j] (s_i (x) y_j + Py_i (x) s_j), at most sum_ij
    |c[k, i, j]| (|s_i| |y_j| + |Py_i| |s_j|), adds by the triangle
    inequality.  So the result never reads below the operator residual by
    more than rounding, at m^3 n + m n^3 flops against the operators' m d^6.
    """
    m, n = len(ys), len(qg.algC)
    rows = ys.reshape(m, -1)
    coeff, s = _expand(rows, qg.algC)
    lhs = coeff.T @ structure_constants(qg).reshape(n, -1)
    rhs = (coeff @ (c @ coeff.T)).reshape(m, -1)
    ns, ny, npy = (np.linalg.norm(x, axis=1) for x in (s, rows, rows - s))
    off_r = np.einsum("kij,ij->k", np.abs(c), np.outer(ns, ny) + np.outer(npy, ns))
    off_l = np.einsum("jk,jl,lk->k", coeff.conj(), comultiplication_gram(qg), coeff).real
    sq = lambda x: np.sum(np.abs(x) ** 2, axis=1)
    diff = np.sqrt(np.maximum(sq(lhs - rhs) + off_l, 0.0)) + off_r
    # |rhs| is at least that of its coefficients, its projection onto the span
    size = np.maximum(np.sqrt(np.maximum(sq(lhs) + off_l, 0.0)), np.sqrt(sq(rhs)))
    return diff / np.maximum(1.0, size)


def _try_antipode(alg_c, star, mult, adjoints):
    """Antipode on slices: kappa((omega (x) id)W) = (omega (x) id)(W*).

    With W = sum_m X_m (x) b_m + T over algC, the right side is sum_m
    omega(X_m*) b_m*, so where X_m* = sum_l A[l, m] X_l, A the fit of the X_m*
    on the X_l, kappa(b_l) = sum_m A[l, m] b_m*.  The miss of that fit,
    relative to |W*| up to T, is how far the slices of W and W* are from one
    linear map, the consistency: star = (A, consistency), as _slice_closure
    fits the X_m* for the closure gate.  _antipode_residual, on the
    constants mult and adjoints of _closure_constants, reads the rest.
    Returns kappa, its residual, and its coefficients for antipode_coefficients:
    K = A S and the norm of the parts sum_m A[l, m] O_m of the kappa(b_l) off
    span(algC), with b_m* = sum_p S[m, p] b_p + O_m.
    """
    (a, consistency), (n, d) = star, alg_c.shape[:2]
    gate(consistency, EQUATION_TOL, NotKacType, "antipode is not well defined on slices")
    images = (a @ alg_c.conj().transpose(0, 2, 1).reshape(n, -1)).reshape(n, d, d)
    worst = float(np.max([consistency, _antipode_residual(a, mult, adjoints)]))
    gate_all({"antipode": worst}, FiniteQuantumGroup.gates, NotKacType)
    (s, g_o) = adjoints
    off = math.sqrt(max(((a.conj() @ g_o) * a).real.sum(), 0.0))
    return SpanMap(alg_c, images, d, d), worst, (a @ s, off)


def _antipode_residual(a, mult, adjoints):
    """The worst residual_between, over the algC basis, of kappa(b_l) =
    sum_m A[l, m] b_m* and its span, kappa(kappa(b_l)) and b_l, kappa(b_l*)
    and kappa(b_l)*, and kappa(b_i b_j) and kappa(b_j) kappa(b_i), kappa a
    SpanMap, read off its coefficients K = A S: n^4 flops, not n^2 d^3.

    With b_m* = sum_p S[m, p] b_p + O_m and b_i b_j = sum_p M[i, j, p] b_p +
    D_ij, kappa(sum_l y_l b_l) is y K on algC and y A on the O_m, orthogonal,
    so the first three are exact: (0, A), (K K - 1, K A), (S K - conj A, S
    A).  kappa(b_j) kappa(b_i) = sum A[j, m] A[i, m'] (b_m' b_m)* is sum_s
    Q[i, j, s] b_s* + E_ij, Q = (A (x) A) conj M, |E_ij| <= |D| |A_i| |A_j|,
    so against kappa(b_i b_j), (M K, M A), the distance is at most that of
    (M K - Q S, M A - Q) plus that bound, and |Q_ij| at most its size: never
    below the images' residual beyond rounding.  A NaN reads NaN.
    """
    (m, defect), (s, g_o) = mult, adjoints
    n = len(a)
    k = a @ s
    left = np.concatenate([k, s, m.reshape(n * n, n)])
    q = (a @ m.transpose(1, 0, 2).conj().reshape(n, -1)).reshape(n, n, n)
    q = (a @ q.transpose(1, 0, 2).reshape(n, -1)).reshape(n * n, n)
    # kappa of kappa(b_l), b_l* and b_i b_j less what they meet, kappa(b_l)
    # less its span, then the sizes, as (on algC, on the O_m)
    got, got_off = left @ k, left @ a
    want = np.concatenate([np.eye(n), a.conj(), q @ s])
    want_off = np.concatenate([0 * a, 0 * a, q])
    on = np.concatenate([got - want, 0 * k, got, k])
    off = np.concatenate([got_off - want_off, a, got_off, a])
    sq = (on.real**2 + on.imag**2).sum(1) + ((off.conj() @ g_o) * off).real.sum(1)
    diff, size = np.sqrt(np.maximum(sq, 0.0)).reshape(2, -1)
    rows = np.linalg.norm(a, axis=1)
    diff[2 * n : -n] += defect * np.outer(rows, rows).ravel()
    size = np.maximum(size, np.concatenate([0 * rows, rows, np.linalg.norm(q, axis=1), 0 * rows]))
    return float(np.max(diff / np.maximum(1.0, size)))


def _gate_pentagon(pent, message="pentagon residual {:.2e}"):
    if not pent <= PENTAGON_TOL:
        raise PentagonViolation(
            message.format(pent), residual=pent, tolerance=PENTAGON_TOL
        )
    return pent


def _streamed_pentagon(w, d):
    """The pentagon residual of w streamed over column slabs.  Where the
    three-leg operators have more than PENTAGON_PROBE_ENTRIES entries, one
    leg-1 column slab of W23 W12 - W12 W13 W23, over the norm d^(3/2) that
    either side has for a unitary W, is gated first: it bounds the residual
    from below at 1/d of the cost, so a W it rejects is rejected on that
    lower bound, without the stream."""
    space = LegSpace((d, d, d))
    lhs = [(w, (2, 3)), (w, (1, 2))]
    rhs = [(w, (1, 2)), (w, (1, 3)), (w, (2, 3))]
    if space.total**2 > PENTAGON_PROBE_ENTRIES:
        cols = slice(0, 1)
        diff = legs_slab(space, 1, cols, *lhs) - legs_slab(space, 1, cols, *rhs)
        message = "pentagon residual at least {:.2e}, on one column slab"
        _gate_pentagon(frob(diff) / d**1.5, message)
    return _gate_pentagon(streamed_residual(space, 1, lhs, rhs))


def conjugation_coefficients(us, basis, big_n):
    """U(b_k (x) 1)U* on coefficients, for U = sum_m U_m (x) a_m + T over an
    orthonormal a_m (us the (m, d, d) stack of the U_m) with product
    constants a_m a_l* = sum_j N[j, m, l] a_j + D_ml (big_n, as
    product_constants reads them): C[k, i, j] = <b_i, F_j(b_k)> over the
    orthonormal (n, d, d) basis, and g, the Gram matrix of the parts
    sum_j (F_j(b_k) - sum_i C[k, i, j] b_i) (x) a_j off span(basis) (x)
    span(a).

    U(x (x) 1)U* = sum_ml U_m x U_l* (x) a_m a_l* is sum_j F_j(x) (x) a_j
    up to the D_ml and T, F_j(x) = sum_m U_m x Q_jm with Q_jm = sum_l N[j,
    m, l] U_l*: one (n d) x (m d) x (j d) product, where the images cost
    n d^6.  The D_ml and T are the callers' to bound.
    """
    n, m, d = len(basis), len(us), basis.shape[1]
    q = big_n.reshape(-1, m) @ us.conj().transpose(0, 2, 1).reshape(m, -1)
    # f[(k, x), (j, y)] = F_j(b_k)[x, y]: sum over (m, w) of (U_m b_k)[x, w] Q_jm[w, y]
    ub = (us[None, :] @ basis[:, None]).transpose(0, 2, 1, 3).reshape(n * d, m * d)
    f = ub @ q.reshape(-1, m, d, d).transpose(1, 2, 0, 3).reshape(m * d, -1)
    f = f.reshape(n, d, -1, d).transpose(0, 2, 1, 3).reshape(-1, d * d)
    b = basis.reshape(n, -1)
    coeff = f @ b.conj().T
    rest = (f - coeff @ b).reshape(n, -1)
    return coeff.reshape(n, -1, n).transpose(0, 2, 1), gram(rest)


def _delta_from_slices(alg_c, slices, products):
    """C, g and comultMembership of Delta(b_k) = W(b_k (x) 1)W* read off the
    slices W = sum_m X_m (x) b_m + T over algC (conjugation_coefficients
    with U = W), and the bound the pentagon adds for what that drops.

    Delta(b_k) is sum_j F_j(b_k) (x) b_j, plus E_k = sum_ml X_m b_k X_l*
    (x) D_ml, plus T(b_k (x) 1)W* + W0(b_k (x) 1)T* for W0 = W - T.  With
    |D| the norm of the defect map of product_constants and S = sum_m X_m*
    X_m, |E_k|^2 <= |D|^2 sum_ml |X_m b_k X_l*|^2 = |D|^2 |S^(1/2) b_k
    S^(1/2)|^2 <= (|D| |S|)^2 as |b_k| = 1; E_k lies in B(H) (x)
    span(algC)^perp, orthogonal to sum_j F_j(b_k) (x) b_j.  The T terms
    have norm at most |T| (2 + |T|), for a unitary W, as |b_k (x) 1| <= 1
    and |W0| <= 1 + |T| in operator norm.  So the part R_k of Delta(b_k)
    off span(algC) (x) span(algC) has |R_k| <= (g_kk + (|D| |S|)^2)^(1/2)
    + |T| (2 + |T|), and comultMembership is that over |Delta(b_k)| =
    sqrt(d): it never reads below the image read by more than rounding.

    In the pentagon, sum_k X_k (x) E_k = sum_ml (1 (x) X_m) W0 (1 (x)
    X_l*) (x) D_ml has norm at most |D| |S| |W0|, and the T terms sum to
    T23 W0_12 W23* + W0_23 W0_12 T23*, of norm at most sqrt(d) |T| (1 +
    |T|) (2 + |T|); their sum is the bound returned, before the pentagon's
    scale.
    """
    xs, trunc = slices
    d = alg_c.shape[1]
    big_n, defect = products
    c, g = conjugation_coefficients(xs, alg_c, big_n)
    s_norm = _spectral_norm(xs.reshape(-1, d)) ** 2
    t_part = trunc * (2.0 + trunc)
    off = np.sqrt(np.max(np.diag(g).real, initial=0.0))
    membership = (np.hypot(off, defect * s_norm) + t_part) / max(1.0, math.sqrt(d))
    dropped = defect * s_norm * frob(xs) + math.sqrt(d) * t_part * (1.0 + trunc)
    return c, g, float(membership), float(dropped)


def build_from_unitary(w, dim):
    """Validate w as a multiplicative unitary and extract its slice algebra.

    Gates, in order: unitarity, the pentagon identity, closure of both
    slice spans under product and adjoint, and that the comultiplication
    lands in span(algC) (x) span(algC).  The leg-2 slice span is the dual's
    algC, spanned by the slice coefficients X_m of W over algC up to T: its
    closure is read off them by a Gram fit, with no basis of its own
    (_slice_closure), so algC is the one basis a build forms, and algC's
    closure is read off the products that give its multiplication constants
    (_closure_constants), kept with the adjoint constants as
    qg.multiplication.  Delta is kept as its structure constants C and Gram
    matrix g, read with comultMembership off the slice coefficients X_m of
    W over algC and the product constants of algC (_delta_from_slices,
    n^2 d^4 flops and d^4 entries); the product constants are kept as
    qg.products.  The pentagon is read off the same slice coefficients and
    C and g (comult_equation with X = W), plus the bound for what Delta
    read off the slices drops.

    Where algC has more than d elements, as on every 1e-6 rotation of a
    quantum group tried (n = d^2), the pentagon is gated first, streamed
    over column slabs after a one-slab lower bound (_streamed_pentagon) that
    rejects such a W at 1/d of the stream's cost.  There,
    and where the product constants' closure defect is above CLOSURE_TOL,
    C, g and comultMembership are read off the images W(b_k (x) 1)W*
    instead, a temporary n d^4 stack (PairSpan.read).  The Kac antipode is
    read off the slice coefficients in closed form and checked on its n x n
    coefficients (_try_antipode), and failure there leaves kacR as None.
    """
    d = int(dim)
    w = as_matrix(w)
    if w.shape[0] != d * d:
        raise ValueError(f"W has dim {w.shape[0]}, expected {d * d}")
    # unitarity and the pentagon are gated at once, with errors of their
    # own; the rest of the gate table as its residuals are computed
    udef = unitarity_defect(w)
    if not udef <= PENTAGON_TOL:
        raise NotUnitary(
            f"W is not unitary, defect {udef:.2e}", residual=udef, tolerance=PENTAGON_TOL
        )

    alg_c = orthonormal_basis(_leg_slices(w, d, 1))
    streamed = len(alg_c) > d
    products = None
    if streamed:
        pent = _streamed_pentagon(w, d)
    else:
        products = _product_constants(alg_c)
    slices = slice_coefficients(w, d, alg_c)
    if products is not None and products[1] <= CLOSURE_TOL:
        c, g, membership, dropped = _delta_from_slices(alg_c, slices, products)
    else:
        c, g, membership = PairSpan(alg_c, alg_c).read(conjugation_images(w, alg_c))
        dropped = 0.0
    if not streamed:
        size = frob(w)
        dropped /= max(1.0, math.sqrt(d) * size)  # the pentagon's scale
        pent = _gate_pentagon(comult_equation(*slices, c, g, d, size) + dropped)

    closure, mult, adjoints = _closure_constants(alg_c)
    leg2, star = _slice_closure(slices)
    closure = float(np.max([closure, leg2]))
    residuals = {"unitarity": udef, "pentagon": pent, "closure": closure}
    gate_all(residuals, FiniteQuantumGroup.gates, AlgebraNotClosed)

    residuals["comultMembership"] = membership
    gate_all(residuals, FiniteQuantumGroup.gates, AlgebraNotClosed)
    try:
        kappa, residuals["antipode"], kac_k = _try_antipode(alg_c, star, mult, adjoints)
    except NotKacType:
        kappa = kac_k = None
    return FiniteQuantumGroup(
        d, w, alg_c, c, g, kappa, residuals, slices, products, (mult, adjoints), kac_k
    )


def structure_constants(qg):
    """The comultiplication on the algC basis: C[k, i, j] = <b_i (x) b_j, Delta(b_k)>.

    build_from_unitary has gated every Delta(b_k) into span(algC) (x)
    span(algC) at CLOSURE_TOL, so these coefficients are Delta itself, and
    they are its Hilbert-Schmidt picture: the basis is orthonormal.  The
    build reads them off W's slice coefficients, C[k, i, j] = <b_i, F_kj>
    for Delta(b_k) = sum_j F_kj (x) b_j (_delta_from_slices; off the
    images W(b_k (x) 1)W* where n > d), and keeps them, read-only, as
    qg.structure.
    """
    return qg.structure


def comultiplication_gram(qg):
    """g[k, l] = <R_k, R_l> for the parts R_k of the Delta(b_k) off
    span(algC) (x) span(algC), the other half of Delta next to the
    structure constants, kept by the build as qg.gram."""
    return qg.gram


def product_constants(qg):
    """N[j, m, l] = <b_j, b_m b_l*> on the algC basis, and the norm of the
    defect map c -> sum_ml c[m, l] D_ml, D_ml the part of b_m b_l* off
    span(algC), which the closure gate holds at rounding (its largest
    singular value, below the Frobenius norm of the D_ml by up to a factor
    n): n^2 d^3 + n^3 d^2 flops and the top eigenvalue of the smaller Gram
    matrix of the n^2 x d^2 defects, kept as qg.products.  The build reads
    them before Delta, which it reads with them."""
    if qg.products is None:
        qg.products = _product_constants(qg.algC)
    return qg.products


def dual_comultiplication(qg):
    """The comultiplication of the dual side on coefficients, read off W =
    sum_k X_k (x) b_k + T with no dual built: C_hat and g_hat, the structure
    constants and off-span Gram matrix of Delta_hat(e_k) = W_hat(e_k (x)
    1)W_hat*, W_hat = Sigma W* Sigma, over an orthonormal basis e_j of
    span{X_k}, the dual's algC up to T, and R with X_k = sum_j e_j R[j, k]
    (a QR of the n X_k, n^2 d^2 flops).  They are read as the dual's build
    reads its own C and g, conjugation_coefficients of W_hat's slices over
    the e_j with their product constants, and what that drops is what the
    dual's gates held: the products of the e_j off their span, held by the
    leg-2 closure gate, and W_hat off B(H) (x) span{X_k}, W's leg-1 part off
    span{X_k}, within its truncation.  Kept as qg.dual_comult."""
    if qg.dual_comult is None:
        xs, (n, d) = unitary_slices(qg)[0], qg.algC.shape[:2]
        q, r = np.linalg.qr(xs.reshape(n, -1).T)
        e = q.T.reshape(n, d, d)
        us = slice_coefficients(flip_adjoint(qg.W, qg.space), d, e)[0]
        qg.dual_comult = (*conjugation_coefficients(us, e, _products(e)[0]), r)
    return qg.dual_comult


def _product_constants(b):
    coeff, rest = _products(b)
    return coeff, _spectral_norm(rest)


def _products(b):
    """N[j, m, l] = <b_j, b_m b_l*> on an orthonormal stack b, and the parts
    of the b_m b_l* off span(b)."""
    n = len(b)
    prods = b[:, None] @ b.conj().transpose(0, 2, 1)[None, :]
    coeff, rest = _expand(prods.reshape(n * n, -1), b)
    return coeff.reshape(n, n, n), rest


def _spectral_norm(x):
    """The largest singular value of a 2-d array, as the root of the top
    eigenvalue of its smaller Gram matrix: a fifth to a third cheaper than
    an SVD from d = 24 on."""
    small = x @ x.conj().T if x.shape[0] <= x.shape[1] else x.conj().T @ x
    return float(np.sqrt(max(np.linalg.eigvalsh(small)[-1], 0.0)))


def multiplication_constants(qg):
    """The product on the algC basis, M[j, m, l] = <b_l, b_j b_m>; the closure
    gate of build_from_unitary makes these coefficients the product itself.
    Kept as qg.multiplication, with the Frobenius norm of the parts of the
    b_j b_m off span(algC) and the adjoint constants (_closure_constants),
    which the build reads with its closure gate and its antipode checks."""
    if qg.multiplication is None:
        qg.multiplication = _closure_constants(qg.algC)[1:]
    return qg.multiplication[0][0]


def coassociativity_residual(qg):
    """Worst residual of (Delta (x) id)Delta = (id (x) Delta)Delta over the algC basis.

    The diagram_residual of the structure constants C applied to either leg
    of C: n^5 flops for n = len(algC), where the operators
    W23 W12 (b_k (x) 1 (x) 1) W12* W23* and W12 W13 (...) W13* W12* of the
    same norms cost n d^7.  A NaN carries through to the result.
    """
    c = structure_constants(qg)
    return diagram_residual((c, 1, c), (c, 2, c))


def manageability_witness(qg):
    """Entrywise reindex of W by the Kac-type modularity relation.

    The conjugate space is realized as H with entrywise conjugation, so the
    relation (x (x) y | W | z (x) u) = (zbar (x) y | Wt | xbar (x) u) becomes a
    pure index shuffle.  Unitarity of the result certifies manageability.
    """
    d = qg.dim
    w4 = qg.W.reshape(d, d, d, d)
    # Wt[(a,b),(c,e)] = W[(c,b),(a,e)]
    wt = w4.transpose(2, 1, 0, 3).reshape(d * d, d * d)
    residual = unitarity_defect(wt)
    gate(residual, PENTAGON_TOL, NotManageable, "witness fails unitarity")
    return ManageabilityWitness(wt, residual)


def unitary_antipode(qg):
    """Unitary antipode on the algC span; Kac type required."""
    if qg.kacR is not None:
        return qg.kacR
    return _antipode_of(qg)[0]


def antipode_coefficients(qg):
    """K[l, p] = <b_p, kappa(b_l)> for the unitary antipode kappa on the algC
    basis, and the Frobenius norm of the parts of the kappa(b_l) off
    span(algC), as the build reads them (_try_antipode), kept as qg.kacK;
    Kac type required."""
    if qg.kacK is None:
        qg.kacK = _antipode_of(qg)[2]
    return qg.kacK


def _antipode_of(qg):
    multiplication_constants(qg)  # held, with the adjoint constants
    return _try_antipode(qg.algC, _slice_closure(unitary_slices(qg))[1], *qg.multiplication)


def transpose_qg(qg):
    """Conjugate-transpose construction: a quantum group on the conjugate space.

    Builds Cbar from the leg-wise transpose of W*, which is the entrywise
    conjugate of W; a real W is its own conjugate, and then Cbar is qg
    itself.  The manageability witness Wt, read as a unitary pairing
    Cbar's dual side with the original algebra, must satisfy both
    bicharacter-type equations: (Delta_hat of Cbar (x) id)Wt = Wt23 Wt13,
    against Cbar's dual comultiplication, and (id (x) sigma Delta)Wt =
    Wt12 Wt13, against the flipped comultiplication of the original.
    Returns the new quantum group and that bicharacter.

    Both are read off the slices of Wt, d^6 flops where the operators cost
    d^8.  Wt transposes W's first leg, so its second leg lies in span(algC)
    as W's does: with Wt = sum_k Z_k (x) b_k + T over algC, the flipped
    equation is comult_equation on the Z_k with the structure constants
    C[k, j, i] and the Gram matrix of qg, as sigma maps off-span parts to
    off-span parts.  The dual-side one is dual_comult_equation on Wt's
    slices over Cbar.dual.algC, the source side of a bicharacter.  Both
    add a bound for the truncation they drop, so off the span they read
    that certified upper bound.
    """
    d = qg.dim
    try:
        witness = manageability_witness(qg)
    except NotManageable as exc:
        raise NotKacType(
            f"no unitary manageability witness: {exc}",
            residual=exc.residual,
            tolerance=exc.tolerance,
        ) from exc
    wbar = qg.W.conj()
    cbar = qg if np.array_equal(wbar, qg.W) else build_from_unitary(wbar, d)
    wt = witness.wtilde

    size = frob(wt)
    dual = cbar.dual
    delta = (structure_constants(dual), comultiplication_gram(dual))
    res_a = dual_comult_equation(dual_slice_coefficients(wt, cbar, d), delta, d, size)
    z, trunc = slice_coefficients(wt, d, qg.algC)
    c = structure_constants(qg).transpose(0, 2, 1)
    res_b = comult_equation(z, trunc, c, comultiplication_gram(qg), d, size)
    gate(res_a, PENTAGON_TOL, BicharacterViolation, "dual-side equation fails")
    gate(res_b, PENTAGON_TOL, BicharacterViolation, "flipped-comultiplication equation fails")

    from .bicharacter import Bicharacter

    bic = Bicharacter(
        source=cbar,
        target=qg,
        V=wt,
        residuals={"dualSideEquation": res_a, "flippedComultEquation": res_b},
    )
    return cbar, bic


def coinvariant_dimension(qg):
    """Dimension of {c in span(algC): Delta(c) in span(algC) (x) C1}.

    Read off the structure constants: Delta(sum_k c_k b_k) has the
    coefficients N = sum_k c_k C[k] on the b_i (x) b_j, and with the unit
    u = 1/sqrt(d) = sum_j e_j b_j + u', u' off span(algC), its distance
    from span(algC) (x) Cu is the norm of (N - N conj(e) e^T, |u'| N
    conj(e)).  The rank of that linear map of c,
    an n x (n^2 + n) matrix, replaces an SVD of the n x d^4 images.  The
    parts of the Delta(b_k) off span(algC) (x) span(algC) are left out;
    build_from_unitary has gated them at CLOSURE_TOL.  For genuine
    quantum-group data the dimension is exactly 1: only scalars are
    coinvariant.
    """
    c = structure_constants(qg)
    n, d = len(qg.algC), qg.dim
    unit = np.eye(d) / math.sqrt(d)
    e = np.einsum("kab,ab->k", qg.algC.conj(), unit)
    rest = frob(unit - np.einsum("k,kab->ab", e, qg.algC))
    along = c @ e.conj()
    system = np.concatenate(
        [(c - along[:, :, None] * e).reshape(n, -1), rest * along], axis=1
    )
    s = np.linalg.svd(system, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    if smax <= RANK_CUTOFF:
        return n
    rank = int(np.sum(s > RANK_CUTOFF * smax))
    return n - rank
