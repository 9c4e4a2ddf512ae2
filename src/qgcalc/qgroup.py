"""Finite quantum groups presented by multiplicative unitaries.

A quantum group here is a unitary W on H (x) H passing the pentagon check,
together with the operator algebra cut out by slicing away the first leg
of W, the function-algebra side, and its comultiplication, conjugation
with W.  Slicing away the second leg gives the dual side, which is held
only as the dual quantum group ``qg.dual``, built from Sigma W* Sigma.

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
    diagram_residual,
    flip_adjoint,
    frob,
    kron,
    kron_sum_sq,
    mapped_slab,
    membership_residuals,
    orthonormal_basis,
    residuals_between,
    span_map_from_pairs,
    streamed_residual,
    unitarity_defect,
)

__all__ = [
    "FiniteQuantumGroup",
    "ManageabilityWitness",
    "build_from_unitary",
    "manageability_witness",
    "unitary_antipode",
    "transpose_qg",
    "structure_constants",
    "multiplication_constants",
    "coassociativity_residual",
    "coinvariant_dimension",
    "closure_residual",
    "corep_law_residual",
    "slice_coefficients",
    "PENTAGON_TOL",
    "CLOSURE_TOL",
    "EQUATION_TOL",
]

PENTAGON_TOL = 1e-10
CLOSURE_TOL = 1e-8
EQUATION_TOL = 1e-9


class FiniteQuantumGroup:
    """A verified multiplicative unitary with its slice algebra and comultiplication.

    Instances are immutable by convention once construction finishes.
    ``algC`` is an orthonormal basis (Hilbert-Schmidt) of the leg-1 slice
    span, an (n, d, d) stack; ``deltaC`` is the comultiplication as a
    linear map on it; ``kacR`` is the unitary antipode on the algC span
    when the Kac validation succeeded, else None.  The dual side, the
    leg-2 slice span with its comultiplication, is ``dual.algC`` and
    ``dual.deltaC``.  ``structure`` holds the structure constants once
    structure_constants has read them (the build passes its own).
    """

    # the antipode is reported only when the Kac check succeeds
    gates = (
        ("unitarity", PENTAGON_TOL, "W is not unitary"),
        ("pentagon", PENTAGON_TOL, "pentagon identity fails"),
        ("closure", CLOSURE_TOL, "slice span is not a *-algebra"),
        ("comultMembership", CLOSURE_TOL, "comultiplication escapes the algebra span"),
        ("antipode", EQUATION_TOL, "antipode fails the involutive *-antiautomorphism checks"),
    )

    def __init__(self, dim, w, alg_c, delta_c, kac_r, residuals, structure=None):
        self.dim = int(dim)
        self.W = w
        self.algC = np.asarray(alg_c, dtype=complex)
        self.deltaC = delta_c
        self.kacR = kac_r
        self.residuals = dict(residuals)
        self.structure = structure
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
    # all pairwise products in one broadcast matmul
    prods = (basis[:, None] @ basis[None, :]).reshape(-1, *basis.shape[1:])
    adjoints = basis.conj().transpose(0, 2, 1)
    return membership_residuals(basis, np.concatenate([adjoints, prods], axis=0))


def corep_law_residual(x, qg):
    """Residual of the corepresentation law (id (x) Delta)(X) = X12 X13 for X on H (x) H_qg.

    Streamed over column slabs of leg 1, which Delta leaves untouched.
    """
    h, d = x.shape[0] // qg.dim, qg.dim
    return streamed_residual(
        LegSpace((h, d, d)),
        1,
        lambda cols: mapped_slab(x, LegSpace((h, d)), 2, qg.deltaC, 1, cols),
        [(x, (1, 2)), (x, (1, 3))],
    )


def _delta_c(w, d, alg_c):
    """Delta(x) = W(x (x) 1)W* on algC."""
    # kron of a stack and a matrix is the stack of the krons
    return SpanMap(alg_c, w @ kron(alg_c, np.eye(d)) @ w.conj().T, d, d * d)


def slice_coefficients(x, h, alg_c):
    """X on H (x) H_C as sum_k X_k (x) b_k + T over algC: the (n, h, h) stack
    of the X_k and |T|, T the part of X off B(H) (x) span(algC)."""
    x4 = x.reshape(h, -1, h, alg_c.shape[1])
    xs = np.einsum("abce,kbe->kac", x4, alg_c.conj(), optimize=True)
    return xs, frob(x4 - np.einsum("kac,kbe->abce", xs, alg_c, optimize=True))


def _slice_pentagon(w, d, alg_c, c, off):
    """The pentagon residual of W from its slice coefficients, in n^2 d^4 flops.

    Write W = sum_k X_k (x) b_k over the algC basis b_k, X_k on leg 1.  Then
    W23 W12 W23* = sum_k X_k (x) Delta(b_k) and W12 W13 = sum_ij X_i X_j (x)
    b_i (x) b_j, so with Delta(b_k) = sum_ij C[k, i, j] b_i (x) b_j + R_k
    their difference is sum_ij (sum_k C[k, i, j] X_k - X_i X_j) (x) b_i (x)
    b_j plus sum_k X_k (x) R_k.  The two parts are Hilbert-Schmidt
    orthogonal, so its squared norm is the sum over i, j of the first
    coefficient's plus sum_kl <X_k, X_l><R_k, R_l>; multiplying on the
    right by the unitary W23 leaves it the norm of W23 W12 - W12 W13 W23.
    The X_k reassemble W up to the rank cut of algC, and that truncation T
    moves the residual by at most sqrt(d) |T| (3 + |T|), which is added, so
    the result never reads below the operator residual by more than
    rounding.  c and off are the coefficients of the Delta(b_k) and their
    parts R_k off span(algC) (x) span(algC).
    """
    x, trunc = slice_coefficients(w, d, alg_c)
    on = np.einsum("kij,kac->ijac", c, x, optimize=True) - x[:, None] @ x[None, :]
    off_sq = kron_sum_sq(x, off)
    norm = np.sqrt(np.maximum(frob(on) ** 2 + off_sq, 0.0))
    bound = math.sqrt(d) * trunc * (3.0 + trunc)
    # the scale of residual_between: both sides have W12's norm
    return float((norm + bound) / max(1.0, math.sqrt(d) * frob(w)))


def _try_antipode(w, d, alg_c):
    """Antipode on slices: kappa((omega (x) id)W) = (omega (x) id)(W*)."""
    pairs = zip(_leg_slices(w, d, 1), _leg_slices(w.conj().T, d, 1))
    kappa, consistency = span_map_from_pairs(list(pairs))
    gate(consistency, EQUATION_TOL, NotKacType, "antipode is not well defined on slices")
    kxs = kappa.apply_stack(alg_c)
    adjoints = alg_c.conj().transpose(0, 2, 1)
    # kappa(xy) = kappa(y) kappa(x) over every basis pair, one broadcast each side
    prods = (alg_c[:, None] @ alg_c[None, :]).reshape(-1, d, d)
    swapped = (kxs[None, :] @ kxs[:, None]).reshape(-1, d, d)
    worst = float(
        np.max(
            [
                consistency,
                membership_residuals(alg_c, kxs),
                residuals_between(kappa.apply_stack(kxs), alg_c),
                residuals_between(
                    kappa.apply_stack(adjoints), kxs.conj().transpose(0, 2, 1)
                ),
                residuals_between(kappa.apply_stack(prods), swapped),
            ]
        )
    )
    gate_all({"antipode": worst}, FiniteQuantumGroup.gates, NotKacType)
    return kappa, worst


def _gate_pentagon(pent):
    if not pent <= PENTAGON_TOL:
        raise PentagonViolation(
            f"pentagon residual {pent:.2e}", residual=pent, tolerance=PENTAGON_TOL
        )
    return pent


def build_from_unitary(w, dim):
    """Validate w as a multiplicative unitary and extract its slice algebra.

    Gates, in order: unitarity, the pentagon identity, closure of both
    slice spans under product and adjoint, and that the comultiplication
    lands in span(algC) (x) span(algC).  The leg-2 slice span is the dual's
    algC; its basis is formed here for the closure gate only, and its
    comultiplication is the dual's own, gated by the dual's build wherever
    it is used.  The pentagon is read off the slice coefficients of W and
    the comultiplication of algC (_slice_pentagon), so algC and Delta on it
    come first; where algC has more than d elements, as on every 1e-6
    rotation of a quantum group tried (n = d^2), those images would hold
    n d^4 entries, and the pentagon is streamed over column slabs and gated
    before them instead.  The Kac antipode is computed opportunistically;
    failure there leaves kacR as None rather than rejecting the input.
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
    if streamed:
        pent = _gate_pentagon(
            streamed_residual(
                LegSpace((d, d, d)),
                1,
                [(w, (2, 3)), (w, (1, 2))],
                [(w, (1, 2)), (w, (1, 3)), (w, (2, 3))],
            )
        )
    delta_c = _delta_c(w, d, alg_c)
    span = PairSpan(alg_c, alg_c)
    c = span.coefficients(delta_c.images)
    projected = span.combine(c)
    if not streamed:
        pent = _gate_pentagon(_slice_pentagon(w, d, alg_c, c, delta_c.images - projected))

    leg2 = orthonormal_basis(_leg_slices(w, d, 2))
    closure = float(np.max([closure_residual(alg_c), closure_residual(leg2)]))
    residuals = {"unitarity": udef, "pentagon": pent, "closure": closure}
    gate_all(residuals, FiniteQuantumGroup.gates, AlgebraNotClosed)

    residuals["comultMembership"] = residuals_between(delta_c.images, projected)
    gate_all(residuals, FiniteQuantumGroup.gates, AlgebraNotClosed)
    try:
        kappa, kres = _try_antipode(w, d, alg_c)
        residuals["antipode"] = kres
    except NotKacType:
        kappa = None
    return FiniteQuantumGroup(d, w, alg_c, delta_c, kappa, residuals, structure=c)


def structure_constants(qg):
    """The comultiplication on the algC basis: C[k, i, j] = <b_i (x) b_j, Delta(b_k)>.

    build_from_unitary has gated every Delta(b_k) into span(algC) (x)
    span(algC) at CLOSURE_TOL, so these coefficients are Delta itself, and
    they are its Hilbert-Schmidt picture: the basis is orthonormal.  They
    are read once per object and kept as qg.structure: the build passes
    the ones it has computed, an object made by hand reads them off
    deltaC on first use.  The array is read-only, as it is shared.
    """
    if qg.structure is None:
        qg.structure = PairSpan(qg.algC, qg.algC).coefficients(qg.deltaC.images)
    qg.structure.flags.writeable = False
    return qg.structure


def multiplication_constants(qg):
    """The product on the algC basis, M[j, m, l] = <b_l, b_j b_m>; the closure
    gate of build_from_unitary makes these coefficients the product itself."""
    b = qg.algC
    return np.einsum("lab,jmab->jml", b.conj(), b[:, None] @ b[None, :], optimize=True)


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
    kappa, _ = _try_antipode(qg.W, qg.dim, qg.algC)
    return kappa


def transpose_qg(qg):
    """Conjugate-transpose construction: a quantum group on the conjugate space.

    Builds Cbar from the leg-wise transpose of W*, which is the entrywise
    conjugate of W; a real W is its own conjugate, and then Cbar is qg
    itself.  The manageability witness, read as a unitary pairing
    Cbar's dual side with the original algebra, must satisfy both
    pentagon-type bicharacter equations: one against Cbar's dual
    comultiplication, one against the flipped comultiplication of the
    original.  Returns the new quantum group and that bicharacter.
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

    space3 = LegSpace((d, d, d))
    wb = cbar.W

    # dual-side equation: (Delta_hat of Cbar (x) id) applied to Wt, whose
    # leg flip Sigma_12 is read off by placing the factors on swapped legs
    res_a = streamed_residual(
        space3,
        3,
        [(wb.conj().T, (2, 1)), (wt, (1, 3)), (wb, (2, 1))],
        [(wt, (2, 3)), (wt, (1, 3))],
    )
    # flipped-comultiplication equation on the original algebra side (Sigma_23)
    res_b = streamed_residual(
        space3,
        1,
        [(qg.W, (3, 2)), (wt, (1, 3)), (qg.W.conj().T, (3, 2))],
        [(wt, (1, 2)), (wt, (1, 3))],
    )
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
