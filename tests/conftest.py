"""Shared fixtures, and the oracles the library is checked against: the
products of operators on tensor legs and their column slabs (legs_product,
legs_slab), the residual streamed over those slabs (streamed_residual),
embed_on_legs, pair_basis, slices by a functional (slice_leg), the
linear map through given pairs by a QR and a least-squares solve
(span_map_from_pairs) and the antipode it gives on W's slice pairs
(pairs_antipode), the image checks of an antipode
(image_antipode_residual), the leg-2 closure on a QR basis
(qr_leg2_closure), the source-side bicharacter residuals read off the
dual (dual_side_residuals), the
comultiplication as the span map of its images (delta_map) with the
classical and intertwining checks on them, the streamed pentagon,
coassociativity, bicharacter and corepresentation residuals with the
mapped column slabs they stream (mapped_slab), a span map on one leg by
its superoperator (apply_map_to_leg), the right and left maps of a
bicharacter by Kronecker products (kron_right_map, kron_left_map) and by
conjugation and the unitary antipodes (image_right_map, image_left_map),
the factor fitted to the slices of the images of a map (factor_slices)
and the left-hom slice identity read off those images
(slice_identity_residual), the image forms the Hopf coefficients
replaced, the
TSQR intertwiner space, the coinvariant dimension from the
comultiplication images, the commuting diagrams of comodules and
one-sided homs by operators, the induced-coaction equation of a
corepresentation pushforward one matrix unit at a time, the induced
coaction from the image system, and the X12 Y13 factorisations and the
composite of two bicharacters from the three-leg product and its partial
trace (extract_trivial_legs)."""

from dataclasses import dataclass
import itertools
import math
import sys

import numpy as np
import pytest
from scipy.stats import unitary_group

import qgcalc as q
from qgcalc.homviews import _read
from qgcalc.qgroup import (
    _leg_slices,
    closure_residual,
    comult_equation,
    dual_slice_coefficients,
    slice_coefficients,
    unitary_slices,
)
from qgcalc.tensorleg import (
    RANK_CUTOFF,
    LegSpace,
    PairSpan,
    SpanMap,
    _check_space,
    as_matrix,
    conjugation_images,
    flip_adjoint,
    frob,
    gram,
    kron,
    map_legs,
    membership_residuals,
    numerical_rank,
    orthonormal_basis,
    permute_legs,
    residual_between,
    residuals_between,
    unvec,
)


@pytest.fixture(scope="session")
def corpus():
    return q.standard_corpus()


@pytest.fixture(scope="session")
def z2(corpus):
    return corpus["Z2"]


@pytest.fixture(scope="session")
def z3(corpus):
    return corpus["Z3"]


@pytest.fixture(scope="session")
def z4(corpus):
    return corpus["Z4"]


@pytest.fixture(scope="session")
def v4(corpus):
    # Klein four-group
    return corpus["Z2xZ2"]


@pytest.fixture(scope="session")
def s3(corpus):
    return corpus["S3"]


def dihedral_group(n):
    """D_n from its Cayley table, element f n + k being s^f r^k."""

    def mul(a, b):
        (fa, ra), (fb, rb) = divmod(a, n), divmod(b, n)
        return ((fa + fb) % 2) * n + ((-ra if fb else ra) + rb) % n

    return q.build_group([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)], f"D{n}")


def _group_homs(g, h):
    """Every homomorphism g -> h, by trying every map of the elements."""
    homs = []
    for images in itertools.product(range(h.order), repeat=g.order):
        try:
            homs.append(q.group_hom(g, h, images))
        except ValueError:
            pass
    return homs


@pytest.fixture(scope="session")
def arrows(corpus):
    """Every group hom among the corpus groups of order <= 4, then every
    S3 -> Z2 and Z2 -> S3."""
    small = [g for g in corpus.values() if g.order <= 4]
    pairs = list(itertools.product(small, repeat=2))
    pairs += [(corpus["S3"], corpus["Z2"]), (corpus["Z2"], corpus["S3"])]
    return [phi for g, h in pairs for phi in _group_homs(g, h)]


@pytest.fixture(scope="session")
def coefficient_arrows(corpus):
    """The arrows on which the coefficient forms of induction and of the
    X12 Y13 factorisations meet their operator oracles: Z4 -> Z2 (mod 2),
    Z2 -> Z4, the sign S3 -> Z2 and Z8 -> Z4 (mod 4)."""
    z2, z4 = corpus["Z2"], corpus["Z4"]
    return {
        "Z4->Z2": q.group_hom(z4, z2, (0, 1, 0, 1)),
        "Z2->Z4": q.group_hom(z2, z4, (0, 2)),
        "S3->Z2": q.group_hom(corpus["S3"], z2, (0, 1, 1, 0, 0, 1)),
        "Z8->Z4": q.group_hom(corpus["Z8"], z4, tuple(i % 4 for i in range(8))),
    }


def nudged(images, span, size, inside, rng):
    """images, an (n, D, D) stack, each moved by size in a random direction
    inside the PairSpan span (inside) or orthogonal to it."""
    z = rng.standard_normal(images.shape) + 1j * rng.standard_normal(images.shape)
    on_span = span.combine(span.coefficients(z))
    z = on_span if inside else z - on_span
    return images + size * z / np.linalg.norm(z.reshape(len(z), -1), axis=1)[:, None, None]


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qq, r = np.linalg.qr(z)
    return qq * (np.diag(r) / np.abs(np.diag(r)))


def rotated(m, size, rng):
    """m times a unitary exp(i size h) for a random unit-norm hermitian h."""
    h = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    h = (h + h.conj().T) / 2
    ev, vecs = np.linalg.eigh(h / np.linalg.norm(h))
    return (vecs * np.exp(1j * size * ev)) @ vecs.conj().T @ m


def gauged_bicharacters(homs, picture, gauge, seed):
    """The bicharacter of each group hom in the picture, checked.  With
    gauge "haar" each quantum group is rebuilt once from (u (x) u) W
    (u (x) u)* for a Haar u, and V conjugated by uc (x) ua to match; with
    "plain" the arrows are left as they are."""
    rng = np.random.default_rng(seed)
    gauged = {}

    def gauge_of(qg):
        if gauge == "plain":
            return np.eye(qg.dim), qg
        if id(qg) not in gauged:
            u = unitary_group.rvs(qg.dim, random_state=rng)
            uu = kron(u, u)
            gauged[id(qg)] = (u, q.build_from_unitary(uu @ qg.W @ uu.conj().T, qg.dim))
        return gauged[id(qg)]

    out = []
    for phi in homs:
        plain = q.from_hopf_hom(q.hom_to_hopf(phi, picture))
        (uc, c), (ua, a) = gauge_of(plain.source), gauge_of(plain.target)
        ucua = kron(uc, ua)
        out.append(q.check_bicharacter(ucua @ plain.V @ ucua.conj().T, c, a))
    return out


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(*names) counts the calls of each named qgcalc function,
    wherever a qgcalc module binds it; "Class.method" counts a method.
    Returns the dict of counts by name, which the caller may reset."""
    calls = {}
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qgcalc"]

    def defined(attr):
        # the object named attr in the module that defines it
        for m in modules:
            if getattr(getattr(m, attr, None), "__module__", None) == m.__name__:
                return getattr(m, attr)
        raise AssertionError(f"no qgcalc module defines {attr}")

    def counter(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    def install(*names):
        for name in names:
            owner, _, attr = name.rpartition(".")
            holders = [defined(owner)] if owner else modules
            real = getattr(holders[0], attr) if owner else defined(attr)
            calls[name] = 0
            for holder in holders:
                if getattr(holder, attr, None) is real:
                    monkeypatch.setattr(holder, attr, counter(name, real))
        return calls

    return install


# Entries (complex128, so 4 MB) in one slab of a streamed residual.  Three
# legs of dimension 8 make an operator of exactly this size, so every
# operator up to that stays one slab.
SLAB_ENTRIES = 1 << 18


def _named_legs(x, space, legs):
    x = as_matrix(x)
    legs = tuple(int(l) for l in legs)
    if len(set(legs)) != len(legs):
        raise ValueError(f"legs {legs} must be distinct")
    for l in legs:
        space._check_leg(l)
    d_named = math.prod(space.dims[l - 1] for l in legs)
    if x.shape[0] != d_named:
        raise ValueError(f"operator dim {x.shape[0]} does not match legs {legs} of {space.dims}")
    return x, legs


def legs_product(space, *factors):
    """Dense matrix of x1 x2 ... xk, each xk on its legs and the identity elsewhere.

    Each factor is an ``(x, legs)`` pair: x on the named legs, in their
    given order, and the identity on the others.  The
    factors are contracted right to left as small tensors, one BLAS
    tensordot per factor.  A leg that no factor so far acts on stays an
    implicit identity, so a step costs the size of the partial product
    times the dimension of the legs it shares with the next factor, and no
    factor is ever expanded to the whole space.  This is the materialising
    reference for legs_slab and streamed_residual.
    """
    return _contract(space, factors)


def legs_slab(space, leg, cols, *factors):
    """The columns of legs_product(space, *factors) whose index on leg lies in cols.

    cols is a slice of that leg's indices; the result is the (total,
    total * width / dim(leg)) column slab, columns in natural order.  The
    contraction is legs_product's: the implicit identity on leg, cut to
    cols, only meets the first factor (from the right) acting on leg, which
    is sliced there, so every later step shrinks by the same ratio and no
    step ever holds the whole operator.
    """
    space._check_leg(leg)
    return _contract(space, factors, leg, cols)


def _contract(space, factors, leg=None, cols=slice(None)):
    if not factors:
        raise ValueError("need at least one factor")
    acc = None
    axes = []  # (0, leg) labels a row axis of acc, (1, leg) a column axis
    for x, legs in reversed(factors):
        x, legs = _named_legs(x, space, legs)
        xt = x.reshape(tuple(space.dims[l - 1] for l in legs) * 2)
        if leg in legs and (0, leg) not in axes:
            cut = [slice(None)] * (2 * len(legs))
            cut[len(legs) + legs.index(leg)] = cols
            xt = xt[tuple(cut)]
        rows = [(0, l) for l in legs]
        if acc is None:
            first, acc, axes = x, xt, rows + [(1, l) for l in legs]
            continue
        shared = [l for l in legs if (0, l) in axes]
        acc = np.tensordot(
            xt,
            acc,
            axes=(
                [len(legs) + legs.index(l) for l in shared],
                [axes.index((0, l)) for l in shared],
            ),
        )
        axes = (
            rows
            + [(1, l) for l in legs if l not in shared]
            + [a for a in axes if a[0] == 1 or a[1] not in shared]
        )
    for l in range(1, space.nlegs + 1):
        if (0, l) not in axes:
            eye = np.eye(space.dims[l - 1], dtype=complex)
            acc = np.multiply.outer(acc, eye[:, cols] if l == leg else eye)
            axes += [(0, l), (1, l)]
    order = [axes.index((r, l)) for r in (0, 1) for l in range(1, space.nlegs + 1)]
    out = acc.transpose(order).reshape(space.total, -1)
    # a lone factor covering every leg in order comes back as a view of itself
    return out.copy() if np.may_share_memory(out, first) else out


def slab_width(entries_per_index, count):
    """How many of a leg's count indices one slab takes.

    A slab holds at most SLAB_ENTRIES entries, and never less than one
    index; an operator no larger than SLAB_ENTRIES is a single slab.
    """
    return max(1, min(count, SLAB_ENTRIES // entries_per_index))


def _sq(x):
    # vdot flattens its arguments
    return float(np.vdot(x, x).real)


def streamed_residual(space, leg, lhs, rhs):
    """residual_between(lhs, rhs) of two operators on space, one column slab at a time.

    Each side is a sequence of ``(x, legs)`` factors, read as in
    legs_product, or a function taking a slice of leg's indices to that
    column slab (as legs_slab returns it).  The squared norms of the
    difference and of both sides are summed slab by slab, so the result is
    residual_between's, scale max(1, |lhs|, |rhs|) included, without
    either operator ever being whole; a NaN anywhere reads NaN.
    """
    space._check_leg(leg)
    left_slab, right_slab = (_slab_function(space, leg, side) for side in (lhs, rhs))
    d = space.dims[leg - 1]
    width = slab_width(space.total * space.total // d, d)
    diff = lsq = rsq = 0.0
    for start in range(0, d, width):
        cols = slice(start, min(start + width, d))
        left, right = left_slab(cols), right_slab(cols)
        if left.shape != right.shape:
            raise ValueError(f"shape mismatch {left.shape} vs {right.shape}")
        diff += _sq(left - right)
        lsq += _sq(left)
        rsq += _sq(right)
    return math.sqrt(diff) / max(1.0, math.sqrt(lsq), math.sqrt(rsq))


def _slab_function(space, leg, side):
    if callable(side):
        return side
    factors = tuple(side)
    return lambda cols: legs_slab(space, leg, cols, *factors)


def embed_on_legs(x, space, legs):
    """Place x on the named legs (in their given order), identity elsewhere.

    The oracle for legs_product and the streamed residuals: it materializes
    the full Kronecker embedding, which the library never forms.
    """
    x, legs = _named_legs(x, space, legs)
    rest = [l for l in range(1, space.nlegs + 1) if l not in legs]
    cur_order = list(legs) + rest
    d_rest = math.prod(space.dims[l - 1] for l in rest)
    big = np.kron(x, np.eye(d_rest, dtype=complex))
    cur_space = LegSpace([space.dims[l - 1] for l in cur_order])
    # big lives on legs ordered (legs..., rest...); permute back to natural order
    perm = [cur_order.index(j) + 1 for j in range(1, space.nlegs + 1)]
    return permute_legs(big, cur_space, perm)


@dataclass(frozen=True)
class Functional:
    """Linear functional on a matrix algebra, x -> trace(density @ x)."""

    density: np.ndarray

    def __call__(self, x):
        x = as_matrix(x)
        if x.shape != self.density.shape:
            raise ValueError(f"functional on dim {self.density.shape[0]} applied to shape {x.shape}")
        return complex(np.trace(self.density @ x))


def sliced_space(space, leg):
    rest = [space.dims[l - 1] for l in range(1, space.nlegs + 1) if l != leg]
    return LegSpace(rest) if rest else LegSpace((1,))


def slice_leg(t, space, leg, omega):
    """Partial evaluation (id (x) ... (x) omega (x) ... (x) id)(t) on one leg,
    the oracle for the reshaped slices the library reads."""
    t = _check_space(t, space)
    space._check_leg(leg)
    n = space.nlegs
    d = space.dims[leg - 1]
    dens = as_matrix(omega.density)
    if dens.shape[0] != d:
        raise ValueError(f"functional dim {dens.shape[0]} does not match leg {leg} dim {d}")
    t4 = t.reshape(space.dims + space.dims)
    # omega(a) = sum_{p,q} dens[q,p] a[p,q]; contract row index p and column index q of the leg
    out4 = np.tensordot(t4, dens, axes=([leg - 1, n + leg - 1], [1, 0]))
    total = sliced_space(space, leg).total
    return out4.reshape(total, total)


def pair_basis(left, right):
    """Kronecker products a (x) b of two bases, left index outer: the
    materialised basis of the span that tensorleg.PairSpan handles leg by leg."""
    return [kron(a, b) for a in left for b in right]


def span_map_from_pairs(pairs):
    """Linear map sending each x_j to y_j, with a well-definedness residual.

    The x_j may be linearly dependent: the map is stored on an orthonormal
    basis of their span (a pivoted QR) and its images are solved for by
    least squares, and the residual measures how far the pairs are from
    defining a single linear map.  On the pairs ((omega (x) id)W,
    (omega (x) id)W*) over the matrix-unit functionals omega it is the
    unitary antipode, the oracle for its closed form on W's slices.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    xs = np.asarray([x for x, _ in pairs], dtype=complex)
    ys = np.asarray([y for _, y in pairs], dtype=complex)
    d, dd = xs.shape[1], ys.shape[1]
    basis = orthonormal_basis(xs)
    coeff = basis.reshape(len(basis), -1).conj() @ xs.reshape(len(xs), -1).T
    ymat = ys.reshape(len(ys), -1)
    sol, _, _, _ = np.linalg.lstsq(coeff.T, ymat, rcond=None)
    resid = frob(coeff.T @ sol - ymat) / max(1.0, frob(ymat))
    return SpanMap(basis, sol.reshape(len(basis), dd, dd), d, dd), float(resid)


def pairs_antipode(qg):
    """The unitary antipode of qg by the generic solve, span_map_from_pairs
    through the d^2 pairs ((omega (x) id)W, (omega (x) id)W*) over the
    matrix-unit functionals omega, and its antipode residual: the worst of
    that solve's residual and of the image checks on it
    (image_antipode_residual).  The oracle for the closed form the build
    reads off the slice coefficients of W."""
    d = qg.dim
    w4, ws4 = (m.reshape(d, d, d, d) for m in (qg.W, qg.W.conj().T))
    pairs = [(w4[i, :, j, :], ws4[i, :, j, :]) for i in range(d) for j in range(d)]
    kappa, consistency = span_map_from_pairs(pairs)
    return kappa, max(consistency, image_antipode_residual(kappa))


def image_antipode_residual(kappa):
    """The antipode checks on the images of a SpanMap kappa on its basis b:
    the worst of the distance of the kappa(b_l) from span(b) and of
    residuals_between kappa(kappa(b_l)) and b_l, kappa(b_l*) and
    kappa(b_l)*, and kappa(b_i b_j) and kappa(b_j) kappa(b_i), the n^2
    products of d x d images.  The oracle for the coefficient form the build
    reads off the multiplication and adjoint constants
    (qgroup._antipode_residual)."""
    b = kappa.basis
    d = b.shape[1]
    kxs = kappa.apply_stack(b)
    adjoint = lambda xs: xs.conj().transpose(0, 2, 1)
    prods = (b[:, None] @ b[None, :]).reshape(-1, d, d)
    swapped = (kxs[None, :] @ kxs[:, None]).reshape(-1, d, d)
    return max(
        membership_residuals(b, kxs),
        residuals_between(kappa.apply_stack(kxs), b),
        residuals_between(kappa.apply_stack(adjoint(b)), adjoint(kxs)),
        residuals_between(kappa.apply_stack(prods), swapped),
    )


def qr_leg2_closure(w, d):
    """closure_residual of a pivoted-QR basis of the leg-2 slices of w: the
    oracle for the closure the build reads off W's slice coefficients."""
    return closure_residual(orthonormal_basis(_leg_slices(w, d, 2)))


def dual_side_residuals(v, c, a):
    """comultSource, membership and rInvariance of v from c to a, read off
    the dual c.dual, built from Sigma W* Sigma: Delta_hat from its structure
    constants and Gram matrix on V's slices over its algC, V's distance from
    span(c.dual.algC) (x) span(a.algC), and V mapped leg-wise by the unitary
    antipodes of c.dual and a.  The oracles for the forms read off the
    source's slices and V's Hopf coefficients, with no dual."""
    size, dual = frob(v), c.dual
    r_hat, r_a = q.unitary_antipode(dual), q.unitary_antipode(a)
    ys, trunc = dual_slice_coefficients(v, c, a.dim)
    c_hat, g_hat, ys = dual.structure.conj(), dual.gram.conj(), ys.conj().transpose(0, 2, 1)
    return {
        "comultSource": comult_equation(ys, trunc, c_hat, g_hat, c.dim, size),
        "membership": membership_residuals(PairSpan(c.dual.algC, a.algC), [v]),
        "rInvariance": frob(map_legs(v[None], (c.dim, a.dim), r_hat, r_a)[0] - v) / size,
    }


def delta_map(qg):
    """Delta(x) = W(x (x) 1)W* on qg.algC as a SpanMap, its images the n
    operators W(b_k (x) 1)W* (n d^4 entries): the operator picture of the
    comultiplication, the oracle for the structure constants and Gram
    matrix the library keeps."""
    d, b = qg.dim, qg.algC
    return SpanMap(b, qg.W @ kron(b, np.eye(d)) @ qg.W.conj().T, d, d * d)


def with_delta_images(qg, images):
    """qg with its comultiplication replaced by the span map of images on
    qg.algC: its structure constants and Gram matrix read off them, as the
    build reads its own."""
    span = PairSpan(qg.algC, qg.algC)
    c = span.coefficients(images)
    g = gram(np.asarray(images) - span.combine(c))
    return q.FiniteQuantumGroup(qg.dim, qg.W, qg.algC, c, g, qg.kacR, qg.residuals)


def classical_comultiplication(g, picture):
    """The units of groups.qg_from_group's classical check of g and the
    structure constants they must obey: the point masses E_aa with
    c[c, a, b] = 1 where ab = c (c0), or the translations rho_b with
    c[b, b, b] = 1 (cstar)."""
    n = g.order
    c = np.zeros((n, n, n))
    if picture == "c0":
        for a, b in itertools.product(range(n), repeat=2):
            c[g.mul(a, b), a, b] = 1.0
        return np.stack([np.diag(row) for row in np.eye(n, dtype=complex)]), c
    for b in range(n):
        c[b, b, b] = 1.0
    return np.stack([q.translation_matrix(g, b) for b in range(n)]), c


def operator_comultiplication_defects(qg, ys, c, delta=None):
    """The classical checks of groups.qg_from_group by operators, the
    oracle for intertwining_residuals: residual_between of Delta(y_k) and
    sum_ij c[k, i, j] y_i (x) y_j for every k, each a sum of Kronecker
    products, with Delta the span map delta (delta_map(qg) by default)."""
    delta = delta_map(qg) if delta is None else delta
    out = []
    for y, ck in zip(ys, c):
        want = np.zeros((qg.dim**2, qg.dim**2), dtype=complex)
        for i, j in zip(*np.nonzero(ck)):
            want += ck[i, j] * kron(ys[i], ys[j])
        out.append(residual_between(delta(y), want))
    return np.array(out)


def operator_intertwining(f, c, a, delta_c=None, delta_a=None):
    """The intertwining residual of homviews.HopfHom by operators, its
    oracle: the worst residual_between of Delta_A(f(b_k)) and (f (x)
    f)(Delta_C(b_k)) over c.algC, with both comultiplications span maps
    (delta_map by default)."""
    delta_c = delta_map(c) if delta_c is None else delta_c
    delta_a = delta_map(a) if delta_a is None else delta_a
    ff, sp = apply_map_to_leg(delta_c.images, c.space, 1, f)
    ff, _ = apply_map_to_leg(ff, sp, 2, f)
    return residuals_between(delta_a.apply_stack(f.apply_stack(c.algC)), ff)


def streamed_coassociativity(qg):
    """Coassociativity at the operator level, the oracle for the
    structure-constant form: worst residual_between of
    W23 W12 (x (x) 1 (x) 1) W12* W23* and W12 W13 (x (x) 1 (x) 1) W13* W12*
    over x in qg.algC, reading only qg.dim, qg.W and qg.algC.

    Both sides agree exactly when u = W12* W23* W12 W13 commutes with
    x (x) 1 (x) 1, and multiplying the difference by those unitaries turns
    it into the commutator u xt - xt u with the same Frobenius norms.
    Regrouped as p[a, (B, E), c] = u[(a, B), (c, E)], the commutator with x
    on the first leg is [p_B, x] block by block.  u is streamed, never
    formed: its rows whose leg-3 index lies in one slab are the adjoint of
    a column slab of u* = W13* W12* W23 W12, which legs_slab contracts.
    """
    d = qg.dim
    space3 = LegSpace((d, d, d))
    w, wd = qg.W, qg.W.conj().T
    u_adjoint = [(wd, (1, 3)), (wd, (1, 2)), (w, (2, 3)), (w, (1, 2))]
    # the slabs hold conj(u), so the basis is conjugated too: each product
    # is then the conjugate of the one for u, with the same norms
    xs = [x.conj() for x in qg.algC]
    n = len(xs)
    diff, ux_sq, xu_sq = np.zeros(n), np.zeros(n), np.zeros(n)
    width = slab_width(d**5, d)
    for start in range(0, d, width):
        slab = legs_slab(space3, 3, slice(start, min(start + width, d)), *u_adjoint)
        # slab[(c, E), (a, B)] = conj(u[(a, B), (c, E)]); blocks[B] is (a, E, c)
        blocks = slab.reshape(d, d * d, d, -1).transpose(3, 2, 1, 0).copy()
        del slab
        for blk in blocks:
            by_col, by_row = blk.reshape(-1, d), blk.reshape(d, -1)
            for k, x in enumerate(xs):
                ux = (by_col @ x).reshape(-1)
                xu = (x @ by_row).reshape(-1)
                ux_sq[k] += np.vdot(ux, ux).real
                xu_sq[k] += np.vdot(xu, xu).real
                ux -= xu
                diff[k] += np.vdot(ux, ux).real
    # the scale of residual_between; np.maximum and np.max carry a NaN through
    scale = np.maximum(1.0, np.sqrt(np.maximum(ux_sq, xu_sq)))
    return float(np.max(np.sqrt(diff) / scale))


@pytest.fixture(scope="session")
def coassociativity_oracle():
    return streamed_coassociativity


def apply_map_to_leg(t, space, leg, phi):
    """Apply a SpanMap to one leg of t, a superoperator on that leg's
    vectorizations: the oracle for tensorleg.map_legs.  The leg's dimension
    becomes phi.dd.

    t is one operator on space, of any number of legs, or an (n, N, N)
    stack of them, mapped each on its own.  Returns the result, of the same
    form, and the new leg space.
    """
    t = np.asarray(t, dtype=complex)
    if t.ndim not in (2, 3) or t.shape[-2:] != (space.total, space.total):
        raise ValueError(f"operator shape {t.shape} does not match leg space {space.dims}")
    lead = t.shape[:-2]
    out = _map_leg(t.reshape(lead + space.dims + space.dims), space, leg, phi)
    new_dims = list(space.dims)
    new_dims[leg - 1] = phi.dd
    out_space = LegSpace(new_dims)
    return out.reshape(lead + (out_space.total, out_space.total)), out_space


def _map_leg(t, space, leg, phi):
    """phi on the (row, column) axis pair of leg, the tensor's last 2n axes being
    the row and the column legs of space; any axes before them are carried along."""
    space._check_leg(leg)
    n = space.nlegs
    d = space.dims[leg - 1]
    if phi.d != d:
        raise ValueError(f"map domain dim {phi.d} does not match leg {leg} dim {d}")
    axes = (leg - 1 - 2 * n, leg - 1 - n)
    moved = np.moveaxis(t, axes, (-2, -1))
    # expand in the basis, then sum the images
    rows = moved.reshape(-1, d * d)
    out_flat = (rows @ phi._basis_rows.conj().T) @ phi._image_rows
    out = out_flat.reshape(moved.shape[:-2] + (phi.dd, phi.dd))
    return np.moveaxis(out, (-2, -1), axes)


def kron_right_map(v):
    """RightQGHom.deltaR of right_from_bicharacter(v) by Kronecker
    products, its oracle: the images V(b_k (x) 1)V* over v.source.algC."""
    c, a = v.source, v.target
    images = v.V @ kron(c.algC, np.eye(a.dim)) @ v.V.conj().T
    return SpanMap(c.algC, images, c.dim, c.dim * a.dim)


def kron_left_map(v):
    """LeftQGHom.deltaL of left_from_bicharacter(v) by Kronecker products
    and leg maps, its oracle: Vhat*(1 (x) R_C(b_k))Vhat for the flipped
    bicharacter Vhat, R_A on leg 1 and R_C on leg 2."""
    c, a = v.source, v.target
    r_c, r_a = q.unitary_antipode(c), q.unitary_antipode(a)
    vhat = flip_adjoint(v.V, v.space)
    space_ac = LegSpace((a.dim, c.dim))
    t = vhat.conj().T @ kron(np.eye(a.dim), r_c.apply_stack(c.algC)) @ vhat
    t1, _ = apply_map_to_leg(t, space_ac, 1, r_a)
    images, _ = apply_map_to_leg(t1, space_ac, 2, r_c)
    return SpanMap(c.algC, images, c.dim, a.dim * c.dim)


def image_right_map(v):
    """The right map of v by conjugation, V(b_k (x) 1)V* over
    v.source.algC (conjugation_images), the operator picture of the
    coefficients C F the library holds."""
    c, a = v.source, v.target
    return SpanMap(c.algC, conjugation_images(v.V, c.algC), c.dim, c.dim * a.dim)


def image_left_map(v):
    """The left map of v by conjugation and the unitary antipodes, sigma
    (R_C (x) R_A) Delta_R R_C for the conjugation Delta_R and sigma the leg
    swap (Kac type only): the operator picture of the coefficients the
    library holds."""
    c, a, n = v.source, v.target, len(v.source.algC)
    r_c, r_a = q.unitary_antipode(c), q.unitary_antipode(a)
    images = map_legs(conjugation_images(v.V, r_c.apply_stack(c.algC)), (c.dim, a.dim), r_c, r_a)
    swapped = images.reshape(n, c.dim, a.dim, c.dim, a.dim).transpose(0, 2, 1, 4, 3)
    return SpanMap(c.algC, swapped.reshape(n, a.dim * c.dim, -1), c.dim, a.dim * c.dim)


def map_coefficients(phi, basis, qg, leg):
    """The coefficients p of phi on basis and the Gram matrix g of its
    images' parts off the span, as a one-sided hom's check keeps them."""
    return _read(phi, basis, qg, leg)[:2]


def factor_slices(x, c, a, coefficients, leg):
    """Y with (id (x) phi)(X) = X12 Y13 (leg 1) or Y12 X13 (leg 2) fitted
    to the slices of X, and the residual: the image-side oracle for
    push_slices, which forms Y from Hopf coefficients instead.

    With X = sum_k X_k (x) b_k and F_st = sum_k p[k, s, t] X_k, s on C's
    leg, unitarity gives Y_t = sum_s X_s* F_st / d (leg 2: sum_s F_st X_s*
    / d).  The residual adds in squares the part off the span
    (_slice_images) and sqrt(dim H_A) |T| |Y| for the truncation T.
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
    """F_st = sum_k p[k, s, t] X_k, s on C's leg, and the squared norm
    sum_kl <X_k, X_l> g[k, l] of the images' parts off the span."""
    p, g = coefficients
    f = np.tensordot(p if leg == 1 else p.transpose(0, 2, 1), xs, axes=(0, 0))
    return f, float(np.sum(gram(xs) * g).real)


def _slice_miss(f, off_sq, xs, y, leg):
    """|F_st - X_s Y_t| (leg 2: F_st - Y_t X_s) over the product basis, and
    the off-span part in squares."""
    miss = f - (xs[:, None] @ y[None, :] if leg == 1 else y[None, :] @ xs[:, None])
    return np.sqrt(np.maximum(frob(miss) ** 2 + off_sq, 0.0))


def slice_identity_residual(v, dl):
    """The residual of (id (x) deltaL)(W) = V12 W13 read off the images of
    dl's map and the slices of V, with the truncation bound sqrt(dim C)
    |T_V| + (1 + |T_V|) sqrt(dim A) |T_W|, relative to |V12 W13|: the
    image-side oracle for the left hom's sliceIdentity."""
    c, a = dl.source, dl.target
    xs, trunc_w = unitary_slices(c)
    ys, trunc_v = slice_coefficients(v.V, c.dim, a.algC)
    coefficients = map_coefficients(dl.deltaL, c.algC, a, 2)
    f, off_sq = _slice_images(xs, coefficients, 2)
    bound = np.sqrt(c.dim) * trunc_v + (1.0 + trunc_v) * np.sqrt(a.dim) * trunc_w
    norm = _slice_miss(f, off_sq, xs, ys, 2) + bound
    return float(norm / max(1.0, np.sqrt(c.dim) * frob(v.V)))


def mapped_slab(t, space, map_leg, phi, leg, cols):
    """Column slab of apply_map_to_leg(t, space, map_leg, phi)[0] at leg's
    indices cols, the side of an oracle that applies a span map.

    leg must be one the map leaves untouched: its columns are cut from t
    first, and phi only ever meets that slab.
    """
    t = _check_space(t, space)
    space._check_leg(leg)
    if leg == map_leg:
        raise ValueError(f"the slab leg {leg} is the leg the map acts on")
    cut = [slice(None)] * (2 * space.nlegs)
    cut[space.nlegs + leg - 1] = cols
    out = _map_leg(t.reshape(space.dims + space.dims)[tuple(cut)], space, map_leg, phi)
    return out.reshape(space.total // space.dims[map_leg - 1] * phi.dd, -1)


def streamed_pentagon(w, d):
    """The pentagon residual by operators, the oracle for the slice form:
    residual_between(W23 W12, W12 W13 W23), streamed over column slabs of
    leg 1: the call build_from_unitary still makes where algC has more
    than d elements."""
    return streamed_residual(
        LegSpace((d, d, d)),
        1,
        [(w, (2, 3)), (w, (1, 2))],
        [(w, (1, 2)), (w, (1, 3)), (w, (2, 3))],
    )


def streamed_corep_law(x, qg):
    """The corepresentation law by operators, the oracle for its slice form:
    residual_between((id (x) Delta)(X), X12 X13), streamed over column slabs
    of leg 1."""
    h, d = x.shape[0] // qg.dim, qg.dim
    delta = delta_map(qg)
    return streamed_residual(
        LegSpace((h, d, d)),
        1,
        lambda cols: mapped_slab(x, LegSpace((h, d)), 2, delta, 1, cols),
        [(x, (1, 2)), (x, (1, 3))],
    )


def streamed_bicharacter(v, c, a):
    """The four bicharacter equations by operators, the oracle for their
    slice forms: residual_between of the two sides of (Delta_hat (x) id)V =
    V23 V13, the corepresentation law, V23 W12 = W12 V13 V23 and W23 V12 =
    V12 V13 W23, each streamed over column slabs."""
    space = LegSpace((c.dim, a.dim))
    cca, caa = LegSpace((c.dim, c.dim, a.dim)), LegSpace((c.dim, a.dim, a.dim))
    dual_delta = delta_map(c.dual)
    return {
        "comultSource": streamed_residual(
            cca,
            3,
            lambda cols: mapped_slab(v, space, 1, dual_delta, 2, cols),
            [(v, (2, 3)), (v, (1, 3))],
        ),
        "comultTarget": streamed_corep_law(v, a),
        "operatorSource": streamed_residual(
            cca, 1, [(v, (2, 3)), (c.W, (1, 2))], [(c.W, (1, 2)), (v, (1, 3)), (v, (2, 3))]
        ),
        "operatorTarget": streamed_residual(
            caa, 1, [(a.W, (2, 3)), (v, (1, 2))], [(v, (1, 2)), (v, (1, 3)), (a.W, (2, 3))]
        ),
    }


def streamed_transpose(qg, cbar, wt):
    """transpose_qg's two equations by operators, the oracle for their
    slice forms: residual_between of the two sides of (Delta_hat of Cbar
    (x) id)Wt = Wt23 Wt13 and of (id (x) sigma Delta)Wt = Wt12 Wt13, each
    streamed over column slabs."""
    space3 = LegSpace((qg.dim,) * 3)
    wb = cbar.W
    return {
        "dualSideEquation": streamed_residual(
            space3,
            3,
            [(wb.conj().T, (2, 1)), (wt, (1, 3)), (wb, (2, 1))],
            [(wt, (2, 3)), (wt, (1, 3))],
        ),
        "flippedComultEquation": streamed_residual(
            space3,
            1,
            [(qg.W, (3, 2)), (wt, (1, 3)), (qg.W.conj().T, (3, 2))],
            [(wt, (1, 2)), (wt, (1, 3))],
        ),
    }


def streamed_slice_identity(v, dl):
    """The left-hom slice identity by operators, the oracle for its slice
    form: residual_between((id (x) deltaL)(W), V12 W13), streamed over
    column slabs of leg 1."""
    c = dl.source
    return streamed_residual(
        LegSpace((c.dim, dl.target.dim, c.dim)),
        1,
        lambda cols: mapped_slab(c.W, c.space, 2, dl.deltaL, 1, cols),
        [(v, (1, 2)), (c.W, (1, 3))],
    )


def tsqr_intertwiner_space(w, dim):
    """Solutions (a, b) of w(a (x) 1) = (1 (x) b)w for a unitary w, solved for a alone.

    Given a, the only candidate is 1 (x) b = w(a (x) 1)w*, so b is its
    normalized partial trace Tr_1(w(a (x) 1)w*)/d and a solves exactly when
    a -> w(a (x) 1)w* - 1 (x) Tr_1(w(a (x) 1)w*)/d vanishes.  The d^4 x d^2
    matrix of that map is a contraction of w's blocks.  Its singular
    values are sqrt(d) sin(theta) over the principal angles theta between
    {w(a (x) 1)} and {(1 (x) b)w}, so a direction counts as a solution when
    sin(theta) <= RANK_CUTOFF; they come from the R factor of the tall matrix
    and an SVD of that d^2 x d^2 R, never squared through a Gram matrix.

    The tall matrix is streamed: its rows (i, j, m, n) come in blocks of
    whole first indices i, sized by slab_width, and each block is stacked
    under the R so far and reduced by one more QR, as in TSQR.  Only R and
    one block are ever held, never the d^4 x d^2 system.

    Returns the nullspace dimension and a basis of matrix pairs, each a of
    unit norm.  For a pentagon-verified multiplicative unitary the dimension
    is 1, spanned by (1, 1): invariants are constant.
    """
    w = as_matrix(w)
    d = int(dim)
    if w.shape[0] != d * d:
        raise ValueError(f"w has dim {w.shape[0]}, expected {d * d}")
    w4 = w.reshape(d, d, d, d)
    w4c = w4.conj()
    # tr1[p, q, j, n] = Tr_1(w (E_pq (x) 1) w*)[j, n] / d, summed over (i, l)
    tr1 = np.tensordot(w4, w4c, axes=([0, 3], [0, 3])).transpose(1, 3, 0, 2) / d
    width = slab_width(d ** 5, d)
    r = None
    for start in range(0, d, width):
        stop = min(start + width, d)
        # t[p, q, i, j, m, n] = (w (E_pq (x) 1) w*)[(i, j), (m, n)] for i in the block
        t = np.einsum("ijpl,mnql->pqijmn", w4[start:stop], w4c, optimize=True)
        for i in range(start, stop):
            t[:, :, i - start, :, i, :] -= tr1
        # rows of t are the columns of the block, one per matrix unit E_pq;
        # stacking R above the block as columns keeps the column-major
        # layout LAPACK reads, so the QR makes no transposing copy
        cols = t.reshape(d * d, -1)
        del t
        stacked = cols if r is None else np.concatenate([r.T, cols], axis=1)
        del cols
        r = np.linalg.qr(stacked.T, mode="r")
    _, s, vh = np.linalg.svd(r)
    rank = int(np.sum(s > RANK_CUTOFF * math.sqrt(d)))
    pairs = []
    for row in vh[rank:].conj():
        a = unvec(row, d, d)
        pairs.append((a, np.einsum("pq,pqjn->jn", a, tr1)))
    return len(pairs), pairs


def images_coinvariant_dimension(qg):
    """Dimension of {c in span(algC): Delta(c) in span(algC) (x) C1}, the
    oracle for the structure-constant form: the rank of the n x d^4 parts
    of the images Delta(b_k) off span(algC) (x) C1."""
    d = qg.dim
    images = delta_map(qg).images
    right_triv = PairSpan(qg.algC, np.eye(d, dtype=complex)[None] / np.sqrt(d))
    system = (images - right_triv.combine(right_triv.coefficients(images))).reshape(
        len(images), -1
    )
    s = np.linalg.svd(system, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    if smax <= RANK_CUTOFF:
        return len(qg.algC)
    rank = int(np.sum(s > RANK_CUTOFF * smax))
    return len(qg.algC) - rank


# The commuting diagrams by operators, one basis element at a time: each
# side is an image with a span map applied to one of its legs, compared by
# residual_between.  The oracles for the coefficient form, which reads the
# same diagrams off PairSpan coefficients.  leg is the leg of the map's
# own domain algebra, 1 for a right coaction or hom and 2 for a left one.


def _square(pairs, lhs_space, lhs_leg, lhs_map, rhs_space, rhs_leg, rhs_map):
    """Worst residual_between of lhs_map on lhs_leg of x and rhs_map on
    rhs_leg of y over the (x, y) pairs."""
    return max(
        residual_between(
            apply_map_to_leg(x, lhs_space, lhs_leg, lhs_map)[0],
            apply_map_to_leg(y, rhs_space, rhs_leg, rhs_map)[0],
        )
        for x, y in pairs
    )


def _on_legs(leg, mine, other):
    return (mine, other) if leg == 1 else (other, mine)


def loop_comodule_residuals(phi, basis, qg, leg):
    """coassociativity, injective and dense of homviews.comodule_residuals by
    operators: phi on the D leg of each image against Delta on its C leg,
    and the ranks of the images and of the products phi(x)(1 (x) c)."""
    hd = basis.shape[1]
    images = phi.apply_stack(basis)
    space = LegSpace(_on_legs(leg, hd, qg.dim))
    pairs = [(y, y) for y in images]
    products = images[:, None] @ kron(*_on_legs(leg, np.eye(hd), qg.algC))
    return {
        "coassociativity": _square(pairs, space, leg, phi, space, 3 - leg, delta_map(qg)),
        "injective": numerical_rank(images) == len(basis),
        "dense": numerical_rank(products.reshape(-1, space.total**2))
        == len(basis) * len(qg.algC),
    }


def loop_coassoc_diagram(c, a, phi, leg):
    """coassocDiagram of a one-sided hom by operators: Delta_C on the C leg
    of phi(x) against phi on the other leg of Delta_C(x)."""
    delta = delta_map(c)
    pairs = [(phi(x), dx) for x, dx in zip(c.algC, delta.images)]
    space = LegSpace(_on_legs(leg, c.dim, a.dim))
    return _square(pairs, space, leg, delta, c.space, 3 - leg, phi)


def loop_compatibility(dl, dr):
    """Both compatibility squares by operators: deltaR on leg 2 of deltaL(x)
    against deltaL on leg 1 of deltaR(x), then deltaL on leg 2 of Delta(x)
    against deltaR on its leg 1 (None unless both targets are one W)."""
    c, a, b = dl.source, dl.target, dr.target
    mixed = [(dl.deltaL(x), dr.deltaR(x)) for x in c.algC]
    square = _square(
        mixed, LegSpace((a.dim, c.dim)), 2, dr.deltaR, LegSpace((c.dim, b.dim)), 1, dl.deltaL
    )
    if not a.same_unitary(b):
        return square, None
    deltas = [(dx, dx) for dx in delta_map(c).images]
    return square, _square(deltas, c.space, 2, dl.deltaL, c.space, 1, dr.deltaR)


@pytest.fixture(scope="session")
def diagram_oracles():
    return {
        "comodule": loop_comodule_residuals,
        "coassocDiagram": loop_coassoc_diagram,
        "compatibility": loop_compatibility,
    }


def loop_pushforward_square(x, y, v):
    """The induced-coaction equation of coactions.pushforward_corep by
    operators, the oracle for its coefficient square: the worst streamed
    residual of X12 (Ad Y(k))13 X12* against (id (x) deltaR)(Ad X(k)) over
    the matrix units k of B(H), one at a time."""
    dc, da = v.source.dim, v.target.dim
    h = x.shape[0] // dc
    delta_r = q.right_from_bicharacter(v).deltaR
    space, space3 = LegSpace((h, dc)), LegSpace((h, dc, da))
    xd, yd = x.conj().T, y.conj().T
    eye_c, eye_a = np.eye(dc, dtype=complex), np.eye(da, dtype=complex)
    induced = []
    for k in np.eye(h * h, dtype=complex).reshape(h * h, h, h):
        ad_x = x @ kron(k, eye_c) @ xd
        ad_y = y @ kron(k, eye_a) @ yd
        induced.append(
            streamed_residual(
                space3,
                1,
                lambda cols: mapped_slab(ad_x, space, 2, delta_r, 1, cols),
                [(x, (1, 2)), (ad_y, (1, 3)), (xd, (1, 2))],
            )
        )
    # np.max, unlike max(), carries a NaN through
    return float(np.max(induced))


def _solve_on_product_basis(left, left_images, right, rhs):
    """Solve sum_ij c_kij g(l_i) (x) r_j = rhs_k for every k in one lstsq call.

    All arguments are stacks; left_images[i] is g(left[i]).  The system is
    factored once for all right-hand sides.  Returns the solutions
    reassembled on the unmapped basis, sum_ij c_kij l_i (x) r_j, the worst
    relative column residual, and whether the system has full column rank,
    i.e. the solutions are unique.
    """
    n_left, n_right = len(left_images), len(right)
    # column (i, j) is the row-major vec of kron(g_i, r_j)
    system = np.einsum("iab,jcd->acbdij", left_images, right).reshape(-1, n_left * n_right)
    b = rhs.reshape(len(rhs), -1).T
    sol, _, _, s = np.linalg.lstsq(system, b, rcond=None)
    resid = np.linalg.norm(system @ sol - b, axis=0) / np.maximum(
        1.0, np.linalg.norm(b, axis=0)
    )
    unique = bool(s[0] > 0 and np.sum(s > RANK_CUTOFF * s[0]) == system.shape[1])
    images = PairSpan(left, right).combine(sol.T.reshape(-1, n_left, n_right))
    return images, float(np.max(resid)), unique


def image_system_pushed_through(phi, basis, dr):
    """The induced map of coactions._pushed_through from the image system,
    the oracle for its closed form: (phi (x) id)(psi(x)) =
    (id (x) deltaR)(phi(x)) over the whole operator space, solved by
    _solve_on_product_basis, ungated.  Returns its images of basis, the
    worst residual, and whether the solution is unique."""
    hd = basis.shape[1]
    images = phi.apply_stack(basis)
    rhs, _ = apply_map_to_leg(images, LegSpace((hd, dr.source.dim)), 2, dr.deltaR)
    return _solve_on_product_basis(basis, images, dr.target.algC, rhs)


def extract_trivial_legs(t, space, trivial):
    """Best factor f with t = f on the other legs and identity on the
    trivial ones, by the normalized partial trace, and the relative
    Frobenius distance between t and the re-embedded f; a NaN anywhere in t
    reads NaN.  The operator form of every extraction."""
    t = _check_space(t, space)
    trivial = sorted(set(int(l) for l in trivial))
    for l in trivial:
        space._check_leg(l)
    keep = [l for l in range(1, space.nlegs + 1) if l not in trivial]
    if not keep:
        raise ValueError("at least one leg must remain")
    reordered = permute_legs(t, space, keep + trivial)
    n_keep = math.prod(space.dims[l - 1] for l in keep)
    m = math.prod(space.dims[l - 1] for l in trivial)
    u4 = reordered.reshape(n_keep, m, n_keep, m)
    # least-squares minimizer of |u - f (x) I_m| is the normalized partial trace
    f = np.einsum("ikjk->ij", u4) / m
    denom = np.linalg.norm(reordered)
    residual = np.linalg.norm(reordered - np.kron(f, np.eye(m))) / denom if denom != 0 else 0.0
    return f, float(residual)


def product_factor(x, c, phi, a, leg):
    """bicharacter.push_slices by operators, its oracle: the factor of
    X12* (id (x) phi)(X) trivial on leg 2 (leg 1, phi: C -> C (x) A), or of
    (id (x) phi)(X) X13* trivial on leg 3 (leg 2, phi: C -> A (x) C), by
    the partial trace of the three-leg product, and its residual."""
    h = x.shape[0] // c.dim
    ext, _ = apply_map_to_leg(x, LegSpace((h, c.dim)), 2, phi)
    if leg == 1:
        space3 = LegSpace((h, c.dim, a.dim))
        prod = legs_product(space3, (x.conj().T, (1, 2)), (ext, (1, 2, 3)))
        return extract_trivial_legs(prod, space3, {2})
    space3 = LegSpace((h, a.dim, c.dim))
    prod = legs_product(space3, (ext, (1, 2, 3)), (x.conj().T, (1, 3)))
    return extract_trivial_legs(prod, space3, {3})


def product_composite(vca, vab):
    """bicharacter.compose by operators, its oracle: the factor of V12* V'23
    V12 V'23* trivial on leg 2, for V = vca.V and V' = vab.V, by the partial
    trace of the three-leg product, and its residual, ungated.  Unlike
    product_factor it never forms the right map of vab."""
    space3 = LegSpace((vca.source.dim, vca.target.dim, vab.target.dim))
    prod = legs_product(
        space3,
        (vca.V.conj().T, (1, 2)),
        (vab.V, (2, 3)),
        (vca.V, (1, 2)),
        (vab.V.conj().T, (2, 3)),
    )
    return extract_trivial_legs(prod, space3, {2})
