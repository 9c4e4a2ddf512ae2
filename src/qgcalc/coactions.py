"""Coactions of finite quantum groups on matrix algebras and the functors
between coaction categories that right homomorphisms induce.

A coaction is a SpanMap on its own orthonormal basis, read once by its
check, and induction takes the coefficients that read kept.  Along a
right homomorphism with Hopf map f, a coaction gamma induces (id (x)
f)gamma in closed form, certified by the commuting square of
coefficients that defines the induced coaction; that square and the rank
that makes its solution unique are the finite-dimensional content of the
induction theorem.  Corepresentations are pushed forward along f too:
Y = (id (x) f)(X), its Hopf coefficients F applied to the slices of X.
"""

import numpy as np

from .bicharacter import compose as compose_bicharacters, hom_coefficients, push_along
from .errors import (
    CoactionViolation,
    RangeViolation,
    RecoveryFailure,
    SolveFailure,
    SourceTargetMismatch,
    gate,
    gate_all,
)
from .homviews import RightQGHom, comodule_residuals, hopf_fit, star_hom_residuals
from .qgroup import (
    CLOSURE_TOL,
    EQUATION_TOL,
    PENTAGON_TOL,
    closure_residual,
    corep_law_residual,
    structure_constants,
)
from .tensorleg import (
    PairSpan,
    SpanMap,
    diagram_residual,
    frob,
    gram,
    kron,
    numerical_rank,
    residual_between,
    residuals_between,
    unitarity_defect,
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
    """Verified coaction gamma: D -> D (x) C on a matrix algebra D, with the
    coefficients (p, g) of gamma its check read."""

    gates = (
        ("wellDefined", EQUATION_TOL, "gamma is not well defined on the span"),
        ("closure", CLOSURE_TOL, "d is not a *-algebra"),
        ("range", CLOSURE_TOL, "gamma escapes span(D) (x) span(C)"),
        ("homomorphism", EQUATION_TOL, "gamma is not a *-homomorphism"),
        ("coassociativity", EQUATION_TOL, "coassociativity fails"),
        ("injective", None, "gamma is not injective"),
        ("podles", None, "density condition fails: products do not fill D (x) C"),
    )

    def __init__(self, algebra_d, qg, gamma, residuals, coefficients):
        self.algebraD = np.asarray(algebra_d, dtype=complex)
        self.qg = qg
        self.gamma = gamma
        self.residuals = dict(residuals)
        self.coefficients = coefficients

    @property
    def hdim(self):
        return self.algebraD.shape[1]

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


def check_coaction(gamma, c):
    """Validate a SpanMap gamma as a coaction of c on the span of its basis D.

    gamma is read on D as it is stored, so D must be orthonormal:
    ``wellDefined`` is the relative distance of gram(D) from the identity,
    rounding on a QR or matrix-unit basis, and a dependent or scaled D,
    on which gamma would be misapplied, fails it.  Then every coaction
    axiom is checked: algebra closure of D, the *-homomorphism property,
    range, coassociativity, injectivity, and the density (rank) condition.
    """
    basis = gamma.basis
    well = residual_between(gram(basis), np.eye(len(basis)))
    res = {"wellDefined": well, "closure": closure_residual(basis)}
    gate_all(res, Coaction.gates, CoactionViolation)

    co, coefficients = comodule_residuals(gamma, basis, c, 1)
    co["podles"] = co.pop("dense")
    # np.max, unlike max(), carries a NaN residual through to the gate
    res.update(co, homomorphism=float(np.max(star_hom_residuals(gamma, basis))))
    gate_all(res, Coaction.gates, CoactionViolation)
    return Coaction(basis, c, gamma, res, coefficients)


def trivial_coaction(d, c):
    """The coaction d -> d (x) 1 on an orthonormal (n, h, h) basis d."""
    d = np.asarray(d, dtype=complex)
    h = d.shape[1]
    # kron of a stack and a matrix is the stack of the krons
    return check_coaction(SpanMap(d, kron(d, np.eye(c.dim)), h, h * c.dim), c)


def comultiplication_coaction(c):
    """Delta of c as a coaction of c on its own algebra, assembled from its
    structure constants.  So ``range`` reads rounding: the same property,
    at the same CLOSURE_TOL, is the build's comultMembership gate."""
    images = PairSpan(c.algC, c.algC).combine(structure_constants(c))
    return check_coaction(SpanMap(c.algC, images, c.dim, c.dim**2), c)


def check_corepresentation(x, qg):
    """Validate a unitary on H (x) H_C against the corepresentation law."""
    x = np.asarray(x, dtype=complex)
    dc = qg.dim
    if x.shape[0] % dc != 0:
        raise ValueError(f"corep dim {x.shape[0]} is not a multiple of qg dim {dc}")
    udef = unitarity_defect(x)
    gate(udef, PENTAGON_TOL, CoactionViolation, "X is not unitary")
    law = corep_law_residual(x, qg)
    gate(law, EQUATION_TOL, CoactionViolation, "corepresentation law fails")
    return Corepresentation(qg, x, {"unitarity": udef, "corepLaw": law})


def _matrix_units(n):
    """The n^2 matrix units E_ij as an (n*n, n, n) stack, in (i, j) order."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def _conjugation_images(u, h):
    """Ad u(E_k) = u (E_k (x) 1) u* on the matrix units E_k of B(H), dim H =
    h, for a unitary u on H (x) H_C: an (h^2, h d, h d) stack.  On matrix
    units it is an outer product, h^4 d^3 flops, where the general
    tensorleg.conjugation_images takes h^5 d^3: d times more for h = d."""
    d = u.shape[0] // h
    # u (E_ab (x) 1) u* = (block column a of u)(block column b of u)*
    cols = u.reshape(h * d, h, d).transpose(1, 0, 2)
    images = cols[:, None] @ cols.conj().transpose(0, 2, 1)[None, :]
    return images.reshape(h * h, h * d, h * d)


def conjugation_coaction(corep):
    """Ad X: the coaction of corep's quantum group on all of B(H), stored on
    the matrix units."""
    h, c = corep.hdim, corep.qg
    gamma = SpanMap(_matrix_units(h), _conjugation_images(corep.X, h), h, h * c.dim)
    return check_coaction(gamma, c)


def _pushed_through(coefficients, basis, dr, what):
    """The coefficients Psi on span(basis) (x) span(algA) of the map psi =
    (id (x) f)phi, f the Hopf map of dr and phi with coefficients (P, g) on
    basis, gated (SolveFailure, what fails), with its residual and whether
    it is unique.

    As deltaR = (id (x) f)Delta_C, (phi (x) id)psi = (id (x) id (x) f)(id
    (x) Delta_C)phi = (id (x) deltaR)phi for a coaction phi, and Psi = P F
    for the Hopf coefficients F of dr (hopf_fit).  The residual is that
    square, sum_i Psi[k, i, t] P[i, p, s] = sum_q P[k, p, q] R[q, s, t] for
    the coefficients R of deltaR, residual_between's per x_k plus |Psi_k|
    |E| + |P_k| |G| + |deltaR| |E_k| (Frobenius norms) for the parts E_i of
    phi(x_i) and G_q of deltaR(b_q) off the spans, read off the Gram
    matrices of the E_i and the G_q: it never reads below the operator one,
    and a NaN in P or R reads NaN.  It is linear in Psi with matrix P, so
    psi is unique when rank P = n_D.
    """
    n = len(basis)
    p, g_p = coefficients
    r, g_r = dr.coefficients
    psi = p @ hopf_fit(dr.source, dr.coefficients, 1)
    rhs = np.tensordot(p, r, axes=(2, 0))
    per_k = lambda t: np.linalg.norm(t.reshape(n, -1), axis=1)
    # both sides indexed [k, p, s, t]
    miss = per_k(np.tensordot(psi, p, axes=(1, 0)).transpose(0, 2, 3, 1) - rhs)
    off_p, off_r = (np.sqrt(np.trace(g).real) for g in (g_p, g_r))
    miss += per_k(psi) * off_p + per_k(p) * off_r
    # |deltaR|^2 is its part on the span, |R|^2, plus the rest, tr g_r
    miss += np.sqrt(frob(r) ** 2 + off_r**2) * np.sqrt(np.diag(g_p).real)
    worst = float(np.max(miss / np.maximum(1.0, per_k(rhs))))
    gate(worst, EQUATION_TOL, SolveFailure, what)
    return psi, worst, numerical_rank(p) == n


def induce_coaction(gamma, dr):
    """Induced coaction (id (x) f)gamma along a right homomorphism with Hopf
    map f, on coefficients (_pushed_through).  Its residual certifies that
    it solves the push of gamma's leg through deltaR, uniquely as gamma is
    injective (its coefficients have full rank)."""
    if not gamma.qg.same_unitary(dr.source):
        raise SourceTargetMismatch(
            f"coaction is over dim {gamma.qg.dim}, homomorphism starts at {dr.source.dim}"
        )
    basis, hd, a = gamma.algebraD, gamma.hdim, dr.target
    what = "induced coaction solve fails"
    psi, worst, unique = _pushed_through(gamma.coefficients, basis, dr, what)
    images = PairSpan(basis, a.algC).combine(psi)
    out = check_coaction(SpanMap(basis, images, hd, hd * a.dim), a)
    out.residuals["solve"] = worst
    out.residuals["uniqueRank"] = unique
    return out


def coactions_agree(first, second):
    """Worst difference of two coactions on the first one's basis."""
    basis = first.algebraD
    return residuals_between(first.gamma.apply_stack(basis), second.gamma.apply_stack(basis))


def compose_functors_check(a, b):
    """Verify that inducing along b after a equals inducing along their composite.

    a runs from C into C (x) A and b from A into A (x) B.  The composite
    right homomorphism is a.deltaR, a coaction of A on C, induced along b:
    its coefficients are Psi = P_a F_b, on the pair span, so its range is 0.
    Then two facts are checked: induction in two steps agrees with
    induction along the composite on the canonical test coactions, and the
    composite's bicharacter is the composition of the two bicharacters.
    The worst residual over all checks is returned.
    """
    if not a.target.same_unitary(b.source):
        raise SourceTargetMismatch(
            f"middle objects differ: {a.target.dim} vs {b.source.dim}"
        )
    c = a.source
    what = "composite homomorphism solve fails"
    psi, worst, _ = _pushed_through(a.coefficients, c.algC, b, what)
    comp = RightQGHom(c, b.target, psi, 0.0)
    gate_all(comp.residuals, comp.gates, RangeViolation)

    checks = [worst]
    for start in (comultiplication_coaction(c), trivial_coaction(c.algC, c)):
        two_step = induce_coaction(induce_coaction(start, a), b)
        one_step = induce_coaction(start, comp)
        checks.append(coactions_agree(two_step, one_step))

    v_chain = compose_bicharacters(a.bicharacter, b.bicharacter)
    checks.append(residual_between(comp.bicharacter.V, v_chain.V))
    return float(np.max(checks))


def pushforward_corep(x, v):
    """Carry a corepresentation X of C along a bicharacter V from C to A:
    Y = (id (x) f)(X), F applied to the slices of X (push_along, as in
    compose), with the residual of V23 X12 V23* = X12 Y13, and Y
    re-verified by check_corepresentation.  Conjugation by Y must then be
    the coaction induced from Ad X: X12 (Ad Y(k))13 X12* = (id (x)
    deltaR)(Ad X(k)) over the matrix units k, a square of the coefficients
    of Ad Y, Ad X and deltaR, read after the range of Ad X and Ad Y is
    gated.  residuals["recovery"] is the worse of the two residuals.
    """
    if not x.qg.same_unitary(v.source):
        raise SourceTargetMismatch(
            f"corep is over dim {x.qg.dim}, bicharacter starts at {v.source.dim}"
        )
    h, c, a = x.hdim, x.qg, v.target
    y, resid = push_along(x.X, h, v)
    gate(resid, EQUATION_TOL, RecoveryFailure, "X12* (id (x) deltaR)(X) is not leg-2 trivial")
    out = check_corepresentation(y, a)

    units = _matrix_units(h)
    p_x, _, range_x = PairSpan(units, c.algC).read(_conjugation_images(x.X, h))
    gate(range_x, CLOSURE_TOL, RecoveryFailure, "Ad X escapes B(H) (x) span(algC)")
    p_y, _, range_y = PairSpan(units, a.algC).read(_conjugation_images(y, h))
    gate(range_y, CLOSURE_TOL, RecoveryFailure, "Ad Y escapes B(H) (x) span(algA)")
    worst = diagram_residual((p_y, 1, p_x), (p_x, 2, hom_coefficients(v, 1)))
    what = "conjugation by the recovered unitary differs from the induced coaction"
    gate(worst, EQUATION_TOL, RecoveryFailure, what)
    out.residuals["recovery"] = max(resid, worst)
    return out
