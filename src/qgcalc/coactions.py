"""Coactions of finite quantum groups on matrix algebras and the functors
between coaction categories that right homomorphisms induce.

The central construction takes a coaction of C and a right homomorphism
from C to A and solves a linear system for the induced coaction of A; its
solvability and uniqueness are exactly the finite-dimensional content of
the induction theorem.  Corepresentations ride along by conjugating on a
one-dimension-larger space whose extra corner pins the free phase.
"""

import numpy as np

from .bicharacter import compose as compose_bicharacters
from .errors import CoactionViolation, RecoveryFailure, SolveFailure, SourceTargetMismatch
from .homviews import bicharacter_from_right, check_right_hom, right_from_bicharacter
from .qgroup import CLOSURE_TOL, EQUATION_TOL
from .tensorleg import (
    LegSpace,
    SpanMap,
    apply_map_to_leg,
    frob,
    kron,
    legs_product,
    membership_residuals,
    orthonormal_basis,
    residual_between,
    span_map_from_pairs,
    unitarity_defect,
    unvec,
    vec,
)

__all__ = [
    "Coaction",
    "Corepresentation",
    "check_coaction",
    "check_corepresentation",
    "conjugation_coaction",
    "trivial_coaction",
    "comultiplication_coaction",
    "coactions_agree",
    "induce_coaction",
    "compose_functors_check",
    "pushforward_corep",
]


class Coaction:
    """Verified coaction gamma: D -> D (x) C on a matrix algebra D."""

    def __init__(self, algebra_d, qg, gamma, residuals):
        self.algebraD = tuple(algebra_d)
        self.qg = qg
        self.gamma = gamma
        self.residuals = dict(residuals)

    @property
    def hdim(self):
        return self.algebraD[0].shape[0]

    def __repr__(self):
        return f"Coaction(D dim {len(self.algebraD)} on B(H_{self.hdim}), qg dim {self.qg.dim})"


class Corepresentation:
    """Unitary X on H (x) H_C obeying the corepresentation law."""

    def __init__(self, qg, X, residuals):
        self.qg = qg
        self.X = X
        self.residuals = dict(residuals)

    @property
    def hdim(self):
        return self.X.shape[0] // self.qg.dim

    def __repr__(self):
        return f"Corepresentation(H dim {self.hdim}, qg dim {self.qg.dim})"


def _rank(cols, cutoff=1e-9):
    if not cols:
        return 0
    m = np.stack(cols, axis=1)
    s = np.linalg.svd(m, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > cutoff * s[0]))


def check_coaction(gamma, d, c, tol=EQUATION_TOL):
    """Validate a linear map on the span of d as a coaction of c.

    gamma is any callable on matrices; it is evaluated on the given basis,
    re-expressed on an orthonormalized basis, and every coaction axiom is
    checked: algebra closure of d, the *-homomorphism property, range,
    coassociativity, injectivity, and the density (rank) condition.
    """
    d = [np.asarray(x, dtype=complex) for x in d]
    pairs = [(x, gamma(x)) for x in d]
    gmap, well = span_map_from_pairs(pairs)
    if well > tol:
        raise CoactionViolation(
            f"gamma is not well defined on the span, residual {well:.2e}", residual=well
        )
    basis = gmap.basis
    hd = basis[0].shape[0]
    dc = c.dim

    prods = [x.conj().T for x in basis]
    prods.extend(x @ y for x in basis for y in basis)
    closure = membership_residuals(basis, prods)
    if closure > CLOSURE_TOL:
        raise CoactionViolation(
            f"d is not a *-algebra, residual {closure:.2e}", residual=closure
        )

    pair = [kron(x, a) for x in basis for a in c.algC]
    rng = membership_residuals(pair, [gmap(x) for x in basis])
    if rng > CLOSURE_TOL:
        raise CoactionViolation(
            f"gamma escapes span(D) (x) span(C), residual {rng:.2e}", residual=rng
        )

    star = max(
        residual_between(gmap(x.conj().T), gmap(x).conj().T) for x in basis
    )
    mult = max(
        residual_between(gmap(x @ y), gmap(x) @ gmap(y))
        for x in basis
        for y in basis
    )
    hom = max(star, mult)
    if hom > tol:
        raise CoactionViolation(
            f"gamma is not a *-homomorphism, residual {hom:.2e}", residual=hom
        )

    space_dc = LegSpace((hd, dc))
    coassoc = 0.0
    for x in basis:
        gx = gmap(x)
        lhs, _ = apply_map_to_leg(gx, space_dc, 1, gmap)
        rhs, _ = apply_map_to_leg(gx, space_dc, 2, c.deltaC)
        coassoc = max(coassoc, residual_between(lhs, rhs))
    if coassoc > tol:
        raise CoactionViolation(
            f"coassociativity fails, residual {coassoc:.2e}", residual=coassoc
        )

    if _rank([vec(gmap(x)) for x in basis]) != len(basis):
        raise CoactionViolation("gamma is not injective")
    eye_d = np.eye(hd, dtype=complex)
    dense = [vec(gmap(x) @ kron(eye_d, a)) for x in basis for a in c.algC]
    if _rank(dense) != len(basis) * len(c.algC):
        raise CoactionViolation("density condition fails: products do not fill D (x) C")

    residuals = {
        "wellDefined": well,
        "closure": closure,
        "range": rng,
        "homomorphism": hom,
        "coassociativity": coassoc,
    }
    return Coaction(basis, c, gmap, residuals)


def trivial_coaction(d, c):
    """The coaction d -> d (x) 1."""
    eye_c = np.eye(c.dim, dtype=complex)
    return check_coaction(lambda x: kron(x, eye_c), d, c)


def comultiplication_coaction(c):
    """Delta of c as a coaction of c on its own algebra."""
    return check_coaction(c.deltaC, c.algC, c)


def check_corepresentation(x, qg, tol=EQUATION_TOL):
    """Validate a unitary on H (x) H_C against the corepresentation law."""
    x = np.asarray(x, dtype=complex)
    dc = qg.dim
    if x.shape[0] % dc != 0:
        raise ValueError(f"corep dim {x.shape[0]} is not a multiple of qg dim {dc}")
    h = x.shape[0] // dc
    udef = unitarity_defect(x)
    if udef > 1e-10:
        raise CoactionViolation(f"X is not unitary, defect {udef:.2e}", residual=udef)
    space = LegSpace((h, dc))
    space3 = LegSpace((h, dc, dc))
    lhs, _ = apply_map_to_leg(x, space, 2, qg.deltaC)
    law = residual_between(lhs, legs_product(space3, (x, (1, 2)), (x, (1, 3))))
    if law > tol:
        raise CoactionViolation(
            f"corepresentation law fails, residual {law:.2e}", residual=law
        )
    return Corepresentation(qg, x, {"unitarity": udef, "corepLaw": law})


def _matrix_units(n):
    out = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


def conjugation_coaction(corep):
    """Ad X: the coaction of corep's quantum group on all of B(H)."""
    h = corep.hdim
    dc = corep.qg.dim
    eye_c = np.eye(dc, dtype=complex)
    x = corep.X
    xd = x.conj().T

    def ad(k):
        return x @ kron(k, eye_c) @ xd

    return check_coaction(ad, _matrix_units(h), corep.qg)


def induce_coaction(gamma, dr, tol=EQUATION_TOL):
    """Induced coaction along a right homomorphism, by linear solve.

    For each basis element the image under the induced coaction is the
    unique solution of pushing gamma's leg through deltaR; injectivity of
    gamma tensored with the identity makes the least-squares solution
    exact, and the residual certifies it.
    """
    if not gamma.qg.same_unitary(dr.source):
        raise SourceTargetMismatch(
            f"coaction is over dim {gamma.qg.dim}, homomorphism starts at {dr.source.dim}"
        )
    basis = gamma.algebraD
    a = dr.target
    hd = basis[0].shape[0]
    dc = gamma.qg.dim
    space_dc = LegSpace((hd, dc))
    cols = []
    for x in basis:
        gx = gamma.gamma(x)
        for aj in a.algC:
            cols.append(vec(kron(gx, aj)))
    system = np.stack(cols, axis=1)
    s = np.linalg.svd(system, compute_uv=False)
    unique = bool(s[0] > 0 and np.sum(s > 1e-9 * s[0]) == system.shape[1])

    images = []
    worst = 0.0
    for x in basis:
        rhs, _ = apply_map_to_leg(gamma.gamma(x), space_dc, 2, dr.deltaR)
        sol, _, _, _ = np.linalg.lstsq(system, vec(rhs), rcond=None)
        resid = frob(system @ sol - vec(rhs)) / max(1.0, frob(rhs))
        worst = max(worst, resid)
        img = np.zeros((hd * a.dim, hd * a.dim), dtype=complex)
        k = 0
        for xi in basis:
            for aj in a.algC:
                img = img + sol[k] * kron(xi, aj)
                k += 1
        images.append(img)
    if worst > tol:
        raise SolveFailure(
            f"induced coaction solve fails, residual {worst:.2e}", residual=worst
        )
    alpha = SpanMap(tuple(basis), tuple(images), hd, hd * a.dim)
    out = check_coaction(alpha, list(basis), a)
    out.residuals["solve"] = worst
    out.residuals["uniqueRank"] = unique
    return out


def coactions_agree(first, second):
    """Worst difference of two coactions on the first one's basis."""
    worst = 0.0
    for x in first.algebraD:
        worst = max(worst, residual_between(first.gamma(x), second.gamma(x)))
    return worst


def compose_functors_check(a, b, tol=EQUATION_TOL):
    """Verify that inducing along b after a equals inducing along their composite.

    a runs from C into C (x) A and b from A into A (x) B.  The composite
    right homomorphism is solved from the mixed square, then two facts are
    checked: induction in two steps agrees with induction along the
    composite on the canonical test coactions, and the composite's
    bicharacter is the composition of the two bicharacters.  The worst
    residual over all checks is returned.
    """
    if not a.target.same_unitary(b.source):
        raise SourceTargetMismatch(
            f"middle objects differ: {a.target.dim} vs {b.source.dim}"
        )
    c = a.source
    bqg = b.target
    space_ca = LegSpace((c.dim, a.target.dim))
    cols = []
    for ci in c.algC:
        aci = a.deltaR(ci)
        for bj in bqg.algC:
            cols.append(vec(kron(aci, bj)))
    system = np.stack(cols, axis=1)
    images = []
    worst = 0.0
    for x in c.algC:
        rhs, _ = apply_map_to_leg(a.deltaR(x), space_ca, 2, b.deltaR)
        sol, _, _, _ = np.linalg.lstsq(system, vec(rhs), rcond=None)
        resid = frob(system @ sol - vec(rhs)) / max(1.0, frob(rhs))
        worst = max(worst, resid)
        img = np.zeros((c.dim * bqg.dim, c.dim * bqg.dim), dtype=complex)
        k = 0
        for ci in c.algC:
            for bj in bqg.algC:
                img = img + sol[k] * kron(ci, bj)
                k += 1
        images.append(img)
    if worst > tol:
        raise SolveFailure(
            f"composite homomorphism solve fails, residual {worst:.2e}", residual=worst
        )
    comp_map = SpanMap(tuple(c.algC), tuple(images), c.dim, c.dim * bqg.dim)
    comp = check_right_hom(c, bqg, comp_map)

    for start in (comultiplication_coaction(c), trivial_coaction(c.algC, c)):
        two_step = induce_coaction(induce_coaction(start, a), b)
        one_step = induce_coaction(start, comp)
        worst = max(worst, coactions_agree(two_step, one_step))

    v_comp = bicharacter_from_right(comp)
    v_chain = compose_bicharacters(bicharacter_from_right(a), bicharacter_from_right(b))
    worst = max(worst, residual_between(v_comp.V, v_chain.V))
    return worst


def pushforward_corep(x, v, tol=EQUATION_TOL):
    """Carry a corepresentation along a bicharacter.

    Conjugation by x extended to one extra dimension is a coaction on the
    full matrix algebra; inducing it along v and solving for the unitary
    that implements the result, with the extra corner forced to stay
    trivial, produces the pushed-forward corepresentation.
    """
    if not x.qg.same_unitary(v.source):
        raise SourceTargetMismatch(
            f"corep is over dim {x.qg.dim}, bicharacter starts at {v.source.dim}"
        )
    h = x.hdim
    dc = x.qg.dim
    a = v.target
    da = a.dim
    hp = h + 1

    xt = np.zeros((hp * dc, hp * dc), dtype=complex)
    xt[: h * dc, : h * dc] = x.X
    xt[h * dc :, h * dc :] = np.eye(dc, dtype=complex)
    xtd = xt.conj().T
    eye_c = np.eye(dc, dtype=complex)

    def ad_big(k):
        return xt @ kron(k, eye_c) @ xtd

    gamma_big = check_coaction(ad_big, _matrix_units(hp), x.qg)
    dr = right_from_bicharacter(v)
    alpha = induce_coaction(gamma_big, dr)

    n = hp * da
    eye_n = np.eye(n, dtype=complex)
    blocks = []
    rhs_blocks = []
    eye_a = np.eye(da, dtype=complex)
    for k in _matrix_units(hp):
        ak = alpha.gamma(k)
        k1 = kron(k, eye_a)
        # row-major vec(A Y) = (A (x) I) vec(Y), vec(Y B) = (I (x) B^T) vec(Y)
        blocks.append(np.kron(ak, eye_n) - np.kron(eye_n, k1.T))
        rhs_blocks.append(np.zeros(n * n, dtype=complex))
    corner = np.zeros((hp, hp), dtype=complex)
    corner[h, h] = 1.0
    corner_big = kron(corner, eye_a)
    blocks.append(np.kron(eye_n, corner_big.T))
    rhs_blocks.append(vec(corner_big))
    system = np.vstack(blocks)
    rhs = np.concatenate(rhs_blocks)
    sol, _, _, _ = np.linalg.lstsq(system, rhs, rcond=None)
    resid = frob(system @ sol - rhs) / max(1.0, frob(rhs))
    if resid > tol:
        raise RecoveryFailure(
            f"no implementing unitary: solve residual {resid:.2e}", residual=resid
        )
    yt = unvec(sol, n, n)
    off = max(
        frob(yt[: h * da, h * da :]),
        frob(yt[h * da :, : h * da]),
        frob(yt[h * da :, h * da :] - eye_a),
    )
    if off > tol:
        raise RecoveryFailure(
            f"implementing unitary leaks into the corner, defect {off:.2e}",
            residual=off,
        )
    y = yt[: h * da, : h * da]
    udef = unitarity_defect(y)
    if udef > tol:
        raise RecoveryFailure(
            f"recovered operator is not unitary, defect {udef:.2e}", residual=udef
        )
    out = check_corepresentation(y, a, tol=tol)

    # the conjugation coaction of the result must be the induced one
    ad_y = conjugation_coaction(out)
    small_units = _matrix_units(h)
    worst = 0.0
    for k in small_units:
        big = np.zeros((hp, hp), dtype=complex)
        big[:h, :h] = k
        ind = alpha.gamma(big)
        ind4 = ind.reshape(hp, da, hp, da)[:h, :, :h, :]
        worst = max(worst, residual_between(ind4.reshape(h * da, h * da), ad_y.gamma(k)))
    if worst > tol:
        raise RecoveryFailure(
            f"conjugation by the recovered unitary differs from the induced coaction, "
            f"residual {worst:.2e}",
            residual=worst,
        )
    out.residuals["recovery"] = max(resid, off, worst)
    return out
