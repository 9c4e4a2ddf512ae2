"""Dense tensor-leg calculus for operators on finite tensor products.

Operators are plain complex numpy matrices.  A ``LegSpace`` records how the
underlying space factors into tensor legs; legs are numbered from 1 so that
code reads like the usual subscript notation (a unitary placed on legs 1 and
3 of a three-fold product, and so on).  All Kronecker products are row-major.

A basis of a span of matrices, and any list of matrices mapped together,
is one complex (n, r, c) array: element k is the r x c matrix at index k.

Residuals returned by the checks here are relative Frobenius norms.

No operator on three legs is formed here: the library reads its
identities off slice coefficients, and the three-leg products and the
residuals streamed over their column slabs, which check those readings
against operators, live with the test oracles.
"""

from dataclasses import dataclass
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

__all__ = [
    "LegSpace",
    "SpanMap",
    "as_matrix",
    "vec",
    "unvec",
    "frob",
    "residual_between",
    "residuals_between",
    "diagram_residual",
    "gram",
    "unitarity_defect",
    "kron",
    "PairSpan",
    "flip_unitary",
    "RANK_CUTOFF",
    "CANDIDATE_GAP",
    "permute_legs",
    "flip_adjoint",
    "intertwiner_space",
    "orthonormal_basis",
    "numerical_rank",
    "membership_residual",
    "membership_residuals",
    "conjugation_images",
    "map_legs",
]

# Every numerical rank counts the singular values (or QR pivots) above this
# fraction of the largest one, or of the bound sqrt(d) in intertwiner_space.
RANK_CUTOFF = 1e-9

# intertwiner_space proposes the directions whose cosine on the
# partial-trace map is within this of 1, and judges them by exact residuals.
CANDIDATE_GAP = 1e-6


def _load_flapack():
    """SciPy's LAPACK extension module, without importing scipy.linalg.

    It is loaded under its own name, or reused from sys.modules, so a later
    ``import scipy.linalg`` shares this one module object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    dirs = scipy_spec.submodule_search_locations if scipy_spec else None
    where = [os.path.join(d, "linalg") for d in dirs or ()]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"cannot find SciPy's LAPACK extension {name} in {where}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Loaded directly because importing scipy.linalg more than doubles a process start.
_flapack = _load_flapack()


@dataclass(frozen=True)
class LegSpace:
    """Ordered factorization of a tensor-product space into legs.

    ``dims[k]`` is the dimension of leg k+1; leg indices are 1-based
    everywhere in this module.
    """

    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"leg dimensions must be >= 1, got {self.dims}")

    @property
    def nlegs(self):
        return len(self.dims)

    @property
    def total(self):
        return math.prod(self.dims)

    def dim(self, leg):
        self._check_leg(leg)
        return self.dims[leg - 1]

    def _check_leg(self, leg):
        if not 1 <= leg <= len(self.dims):
            raise ValueError(f"leg {leg} out of range for {len(self.dims)} legs")


def as_matrix(x):
    """Coerce to a square complex matrix without copying when possible."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def vec(x):
    """Row-major vectorization."""
    return np.asarray(x, dtype=complex).reshape(-1)


def unvec(v, rows, cols):
    return np.asarray(v, dtype=complex).reshape(rows, cols)


def frob(x):
    return float(np.linalg.norm(np.asarray(x)))


def residual_between(x, y):
    """Relative Frobenius distance, scale-invariant for large operators."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    scale = max(1.0, frob(x), frob(y))
    return frob(x - y) / scale


def residuals_between(xs, ys):
    """Worst residual_between over matched stacks, without a Python loop.

    Both arguments are (n, ...) arrays compared pairwise along axis 0; any
    trailing shape works since the norms flatten it away.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    if xs.shape != ys.shape:
        raise ValueError(f"shape mismatch {xs.shape} vs {ys.shape}")
    if xs.shape[0] == 0:
        return 0.0
    fx = xs.reshape(xs.shape[0], -1)
    fy = ys.reshape(ys.shape[0], -1)
    diff = np.linalg.norm(fx - fy, axis=1)
    scale = np.maximum(
        1.0,
        np.maximum(np.linalg.norm(fx, axis=1), np.linalg.norm(fy, axis=1)),
    )
    return float(np.max(diff / scale))


def diagram_residual(lhs, rhs):
    """residuals_between of the two sides of a commuting square of span maps.

    A side is a triple (t, leg, m) of coefficient tensors t[k, i, j] as
    PairSpan.coefficients returns them: the map m applied to leg 1 or 2 of
    the images of t, one matrix product each, legs in order.  On
    orthonormal bases the norms are the operators'.
    """

    def side(t, leg, m):
        m = m.reshape(len(m), -1)
        return (m.T @ t if leg == 1 else t @ m).reshape(len(t), -1)

    return residuals_between(side(*lhs), side(*rhs))


def gram(xs):
    """The Hilbert-Schmidt Gram matrix <x_k, x_l> of an (n, ...) stack."""
    xr = xs.reshape(len(xs), -1)
    return xr.conj() @ xr.T


def unitarity_defect(m):
    m = as_matrix(m)
    n = m.shape[0]
    eye = np.eye(n)
    scale = math.sqrt(n)
    return max(frob(m.conj().T @ m - eye), frob(m @ m.conj().T - eye)) / scale


def kron(a, b):
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def flip_unitary(d1, d2):
    """Coordinate flip H1 (x) H2 -> H2 (x) H1 as a permutation matrix."""
    sigma = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for i in range(d1):
        for j in range(d2):
            sigma[j * d1 + i, i * d2 + j] = 1.0
    return sigma


def _check_space(t, space):
    t = as_matrix(t)
    if t.shape[0] != space.total:
        raise ValueError(f"operator dim {t.shape[0]} does not match leg space {space.dims}")
    return t


def permute_legs(t, space, perm):
    """Conjugate t by the leg permutation; output leg j carries input leg perm[j-1]."""
    t = _check_space(t, space)
    n = space.nlegs
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm {perm} is not a permutation of 1..{n}")
    t4 = t.reshape(space.dims + space.dims)
    # row axes first, then column axes; both get permuted the same way
    axes = [p - 1 for p in perm] + [n + p - 1 for p in perm]
    total = space.total
    return t4.transpose(axes).reshape(total, total)


def flip_adjoint(t, space):
    """Sigma t* Sigma on a two-leg space: the adjoint with its legs swapped.

    Index moves and one conjugation only, so applying it again on the
    swapped space gives t back bit for bit.
    """
    return permute_legs(as_matrix(t).conj().T, space, (2, 1))


def conjugation_images(u, xs):
    """u (x_k (x) 1) u* for each x_k of an (n, h, h) stack and a unitary u on
    H (x) K, dim H = h: an (n, D, D) stack, D = dim(H (x) K).  (x_k (x) 1)u*
    is x_k times u* read as an h x D^2/h matrix: no x_k (x) 1 is formed."""
    xs = np.asarray(xs)
    n, h, big = len(xs), xs.shape[1], u.shape[0]
    if big % h:
        raise ValueError(f"u has dim {big}, not a multiple of {h}")
    right = xs @ u.conj().T.reshape(h, -1)
    return u @ right.reshape(n, big, big)


def intertwiner_space(w, dim):
    """Solutions (a, b) of w(a (x) 1) = (1 (x) b)w for a unitary w, solved for a alone.

    Given a, the only candidate is 1 (x) b = w(a (x) 1)w*, so b = S(a) =
    Tr_1(w(a (x) 1)w*)/d, and the residual A(a) = w(a (x) 1)w* - 1 (x) S(a)
    has |A(a)|^2 = d (|a|^2 - |S(a)|^2).  So the singular values of the
    d^2 x d^2 map S are the cosines of the principal angles theta between
    {w(a (x) 1)} and {(1 (x) b)w}, and the solutions are its singular
    directions with cos(theta) = 1.  Rounding hides sin(theta) below about
    1e-8 in cos(theta), so the SVD of S only proposes candidates: the
    directions with 1 - cos(theta) <= CANDIDATE_GAP, cut at the largest gap
    between consecutive cosines from the top down to the first one past
    that.  Each candidate's exact residual A(a) costs d^6 flops; the SVD of
    A on the candidates (a Rayleigh-Ritz step) has singular values
    sqrt(d) sin(theta), and a direction counts as a solution when
    sin(theta) <= RANK_CUTOFF, never squared through a Gram matrix.  The
    candidates' residuals are held at once, d^4 entries each.

    Returns the nullspace dimension and a basis of matrix pairs, each a of
    unit norm.  For a pentagon-verified multiplicative unitary the dimension
    is 1, spanned by (1, 1): invariants are constant.
    """
    w = as_matrix(w)
    d = int(dim)
    if w.shape[0] != d * d:
        raise ValueError(f"w has dim {w.shape[0]}, expected {d * d}")
    w4 = w.reshape(d, d, d, d)
    # tr1[p, q, j, n] = Tr_1(w (E_pq (x) 1) w*)[j, n] / d, summed over (i, l)
    tr1 = np.tensordot(w4, w4.conj(), axes=([0, 3], [0, 3])).transpose(1, 3, 0, 2) / d
    _, cos, vh = np.linalg.svd(tr1.reshape(d * d, d * d).T)
    count = _candidate_count(cos)
    if count == 0:
        return 0, []
    cands = vh[:count].conj().reshape(count, d, d)
    # res[k, i, j, m, n] = (w (a_k (x) 1) w*)[(i, j), (m, n)] - delta_im S(a_k)[j, n]
    res = conjugation_images(w, cands).reshape(count, d, d, d, d)
    images = np.einsum("kpq,pqjn->kjn", cands, tr1)
    for i in range(d):
        res[:, i, :, i, :] -= images
    _, s, rot = np.linalg.svd(res.reshape(count, -1).T, full_matrices=False)
    del res
    rot = rot[s <= RANK_CUTOFF * math.sqrt(d)].conj()
    pairs = [(a, np.einsum("pq,pqjn->jn", a, tr1)) for a in np.einsum("rk,kpq->rpq", rot, cands)]
    return len(pairs), pairs


def _candidate_count(cos):
    """How many leading directions of descending cosines cos intertwiner_space
    judges: those within CANDIDATE_GAP of 1, cut at the largest gap between
    consecutive ones, counting the gap to the first direction left out (none
    when every direction is in)."""
    below = np.append(1.0 - np.asarray(cos), np.inf)
    m = int(np.sum(below[:-1] <= CANDIDATE_GAP))
    return int(np.argmax(np.diff(below[: m + 1]))) + 1 if m else 0


def orthonormal_basis(mats):
    """Orthonormal basis (Hilbert-Schmidt) of the span of an (n, r, c) stack.

    Returns the (rank, r, c) stack of basis elements.  Column-pivoted QR
    keeps the rank decision stable when the spanning set repeats directions
    in an unfortunate order.
    """
    mats = np.asarray(mats, dtype=complex)
    if len(mats) == 0:
        return mats
    # the calls of scipy.linalg.qr(a, mode="economic", pivoting=True); the
    # rank is read off R before zungqr overwrites it with Q
    a = np.asarray_chkfinite(mats.reshape(len(mats), -1).T)
    qr, _, tau = _lapack(_flapack.zgeqp3, a)
    diag = np.abs(np.diag(qr))
    rank = int(np.sum(diag > RANK_CUTOFF * diag[0])) if diag[0] > 0 else 0
    (q,) = _lapack(_flapack.zungqr, qr[:, : min(a.shape)], tau, overwrite_a=1)
    return q[:, :rank].T.reshape(rank, *mats.shape[1:])


def _lapack(routine, *args, **kwargs):
    """One LAPACK call after its workspace query; the outputs before work and info."""
    work = routine(*args, lwork=-1, **kwargs)[-2]
    *out, _, info = routine(*args, lwork=int(work[0].real), **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out


def numerical_rank(stack):
    """Rank of an (n, ...) stack, each element flattened: singular values above
    RANK_CUTOFF times the largest.

    A stack with a non-finite entry has no numerical rank; it reads 0, so
    every full-rank test on it fails instead of the SVD raising.
    """
    stack = np.asarray(stack)
    if len(stack) == 0 or not np.all(np.isfinite(stack)):
        return 0
    s = np.linalg.svd(stack.reshape(len(stack), -1), compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > RANK_CUTOFF * s[0]))


class PairSpan:
    """span(left (x) right) for two orthonormal bases, handled leg by leg.

    Hilbert-Schmidt orthonormality survives the Kronecker product, so the
    products l_i (x) r_j are an orthonormal basis of the span; this class
    reads coefficients on them and reassembles from them without ever
    forming the products.
    """

    def __init__(self, left, right):
        self.left = np.asarray(left, dtype=complex)
        self.right = np.asarray(right, dtype=complex)

    def coefficients(self, xs):
        """<l_i (x) r_j, x_k> for an (n, d1*d2, d1*d2) stack: an (n, i, j)
        array, L* R(x_k) R*^T on the realigned stack (_realign), the bases as
        rows."""
        d1, d2 = self.left.shape[1], self.right.shape[1]
        r = _realign(np.asarray(xs, dtype=complex), d1, d2)
        return (_rows(self.left).conj() @ r) @ _rows(self.right).conj().T

    def combine(self, coeff):
        """sum_ij coeff[k, i, j] l_i (x) r_j for an (n, i, j) array, the inverse of
        coefficients on the span: an (n, d1*d2, d1*d2) stack."""
        d1, d2 = self.left.shape[1], self.right.shape[1]
        return self._legs(coeff).reshape(len(coeff), d1 * d2, d1 * d2)

    def _legs(self, coeff):
        # combine with the legs apart, (n, d1, d2, d1, d2): L^T coeff_k R,
        # realigned back as a view
        d1, d2 = self.left.shape[1], self.right.shape[1]
        r = _rows(self.left).T @ (coeff @ _rows(self.right))
        return r.reshape(len(coeff), d1, d1, d2, d2).transpose(0, 1, 3, 2, 4)

    def read(self, images):
        """One read of an (n, d1*d2, d1*d2) complex stack: its coefficients,
        the Gram matrix g[k, l] = <R_k, R_l> of its parts R_k off the span,
        and membership_residuals' value, the worst |R_k| / max(1, |x_k|).

        The R_k are subtracted in place, so images is overwritten with
        them, and no more than one other stack of its size is held at a
        time.  A NaN in x_k reads NaN in all three.
        """
        n = len(images)
        d1, d2 = self.left.shape[1], self.right.shape[1]
        coeff = self.coefficients(images)
        rows = np.asarray(images, dtype=complex).reshape(n, -1)
        size = np.linalg.norm(rows, axis=1)
        legs = rows.reshape(n, d1, d2, d1, d2)
        legs -= self._legs(coeff)
        g = gram(rows)
        off = np.sqrt(np.diag(g).real)
        return coeff, g, float(np.max(off / np.maximum(1.0, size), initial=0.0))


def membership_residual(basis, x):
    """Distance of x from the span of an orthonormal basis, relative."""
    return membership_residuals(basis, [x])


def membership_residuals(basis, mats):
    """Worst relative distance of an (n, r, c) stack of matrices from the basis span.

    One stacked projection instead of a per-matrix loop; use this for the
    closure checks, where thousands of products hit the same span.  basis
    is an orthonormal (m, r, c) stack or a PairSpan, which reads a copy of
    the stack leg by leg (PairSpan.read).
    """
    stack = np.asarray(mats, dtype=complex)
    if len(stack) == 0:
        return 0.0
    if isinstance(basis, PairSpan):
        return basis.read(stack.copy())[2]
    xs = stack.reshape(len(stack), -1).T
    b = np.asarray(basis, dtype=complex).reshape(len(basis), -1)
    rem = xs - b.T @ (b.conj() @ xs)
    norm = np.sqrt(np.sum(np.abs(rem) ** 2, axis=0))
    scale = np.maximum(1.0, np.sqrt(np.sum(np.abs(xs) ** 2, axis=0)))
    return float(np.max(norm / scale))


@dataclass(frozen=True, eq=False)
class SpanMap:
    """Linear map between matrix spaces, stored on an orthonormal domain basis.

    ``basis[k]`` maps to ``images[k]``; anything orthogonal to the basis is
    sent to zero.  Both are stacks, (n, d, d) and (n, dd, dd), whatever
    sequence of matrices they were given as.
    """

    basis: np.ndarray
    images: np.ndarray
    d: int
    dd: int

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=complex))
        object.__setattr__(self, "images", np.asarray(self.images, dtype=complex))

    @property
    def _basis_rows(self):
        return _rows(self.basis)

    @property
    def _image_rows(self):
        return _rows(self.images)

    def __call__(self, x):
        x = as_matrix(x)
        if x.shape[0] != self.d:
            raise ValueError(f"map domain dim {self.d}, got {x.shape[0]}")
        coeff = self._basis_rows.conj() @ vec(x)
        return unvec(coeff @ self._image_rows, self.dd, self.dd)

    def apply_stack(self, xs):
        """Apply to a whole (n, d, d) stack at once; returns (n, dd, dd).

        Expands in the basis, then sums the images: two products that
        never form the (dd*dd, d*d) superoperator.
        """
        rows = np.asarray(xs, dtype=complex).reshape(len(xs), -1)
        out = (rows @ self._basis_rows.conj().T) @ self._image_rows
        return out.reshape(-1, self.dd, self.dd)


def _rows(xs):
    return xs.reshape(len(xs), -1)


def _realign(xs, d1, d2):
    """R(x)[(a, b), (c, e)] = x[(a, c), (b, e)] for each x of an (n, d1 d2,
    d1 d2) stack on H1 (x) H2: an (n, d1^2, d2^2) stack, leg 1 in the rows
    and leg 2 in the columns, so that maps on either leg are matrix
    products, on the left for leg 1 and on the right for leg 2."""
    n = len(xs)
    return xs.reshape(n, d1, d2, d1, d2).transpose(0, 1, 3, 2, 4).reshape(n, d1 * d1, d2 * d2)


def map_legs(xs, dims, left, right):
    """(left (x) right)(x) for each x of an (n, D, D) stack on H1 (x) H2 of
    dimensions dims, each map a SpanMap or None for the identity: an (n, D',
    D') stack, each leg's dimension becoming its map's dd.

    On the realigned R(x)[(a, b), (c, e)] = x[(a, c), (b, e)] (_realign),
    leg 1 in the rows and leg 2 in the columns, the maps are matrix
    products: the coefficients B1* R B2*^T on the maps' bases, then I1^T
    (.) I2 with their images, both as rows, a None side skipped.  A map
    whose domain is not its leg's raises ValueError in its first product.
    """
    xs = np.asarray(xs, dtype=complex)
    d1, d2 = dims
    if xs.ndim != 3 or xs.shape[1:] != (d1 * d2, d1 * d2):
        raise ValueError(f"operator shape {xs.shape} does not match leg dims {dims}")
    n = len(xs)
    r = _realign(xs, d1, d2)
    if right is not None:
        r = r @ right._basis_rows.conj().T
    if left is not None:
        r = left._image_rows.T @ (left._basis_rows.conj() @ r)
        d1 = left.dd
    if right is not None:
        r = r @ right._image_rows
        d2 = right.dd
    return r.reshape(n, d1, d1, d2, d2).transpose(0, 1, 3, 2, 4).reshape(n, d1 * d2, d1 * d2)


def apply_map_to_leg(t, space, leg, phi):
    """map_legs with phi on leg of one operator t on a two-leg space, and the
    new LegSpace.  No module here calls it; tests/test_acceptance.py does."""
    space._check_leg(leg)
    out = map_legs(as_matrix(t)[None], space.dims, *((phi, None) if leg == 1 else (None, phi)))
    return out[0], LegSpace(phi.dd if l == leg else d for l, d in enumerate(space.dims, 1))
