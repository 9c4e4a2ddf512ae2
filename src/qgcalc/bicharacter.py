"""Bicharacters: unitaries pairing the dual side of one quantum group
with another, the working notion of quantum group homomorphism.

Every bicharacter is kept with its source and target and the residuals of
the two defining equations.  Both the comultiplication form and the
pentagon-type operator form of the axioms are computed, through genuinely
different arithmetic, so their agreement is itself a check.
"""

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
    corep_law_residual,
    unitary_antipode,
)
from .tensorleg import (
    LegSpace,
    PairSpan,
    apply_map_to_leg,
    as_matrix,
    extract_trivial_legs,
    flip_adjoint,
    frob,
    legs_product,
    mapped_slab,
    membership_residual,
    streamed_residual,
    unitarity_defect,
)

__all__ = [
    "Bicharacter",
    "check_bicharacter",
    "compose",
    "extract_bicharacter",
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

    @property
    def space(self):
        return LegSpace((self.source.dim, self.target.dim))

    def __repr__(self):
        return f"Bicharacter({self.source.dim} -> {self.target.dim})"


def bicharacter_residuals(v, c, a):
    """All five residuals of the bicharacter axioms for v against (c, a).

    Keys 'comultSource' and 'comultTarget' are the two comultiplication
    equations computed by applying the coefficient-space maps leg-wise;
    'operatorSource' and 'operatorTarget' are the pentagon-type operator
    equations; 'membership' locates v inside span(dual algC of c) (x)
    span(algC of a).  The dual side of c is c.dual, built on first use.
    """
    v = as_matrix(v)
    dc, da = c.dim, a.dim
    if v.shape[0] != dc * da:
        raise ValueError(f"V has dim {v.shape[0]}, expected {dc * da}")
    space = LegSpace((dc, da))
    space_cca = LegSpace((dc, dc, da))
    space_caa = LegSpace((dc, da, da))

    # comultiplication form, leg-wise through the span maps; the dual's
    # comultiplication leaves V's second leg alone, so the slabs run over it
    r1 = streamed_residual(
        space_cca,
        3,
        lambda cols: mapped_slab(v, space, 1, c.dual.deltaC, 2, cols),
        [(v, (2, 3)), (v, (1, 3))],
    )

    r2 = corep_law_residual(v, a)

    # operator form on the Hilbert-space level
    r3 = streamed_residual(
        space_cca,
        1,
        [(v, (2, 3)), (c.W, (1, 2))],
        [(c.W, (1, 2)), (v, (1, 3)), (v, (2, 3))],
    )
    r4 = streamed_residual(
        space_caa,
        1,
        [(a.W, (2, 3)), (v, (1, 2))],
        [(v, (1, 2)), (v, (1, 3)), (a.W, (2, 3))],
    )

    memb = membership_residual(PairSpan(c.dual.algC, a.algC), v)
    return {
        "comultSource": r1,
        "comultTarget": r2,
        "operatorSource": r3,
        "operatorTarget": r4,
        "membership": memb,
    }


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


def compose(vca, vab):
    """Composition of arrows: first vca, then vab.

    Conjugating vab's leg pair through vca concentrates the composite on
    legs 1 and 3; the middle leg must come out trivial, and the extraction
    residual is the certificate.
    """
    if not vca.target.same_unitary(vab.source):
        raise SourceTargetMismatch(
            f"middle objects differ: dim {vca.target.dim} vs {vab.source.dim} or unequal W"
        )
    space3 = LegSpace((vca.source.dim, vca.target.dim, vab.target.dim))
    prod = legs_product(
        space3,
        (vca.V.conj().T, (1, 2)),
        (vab.V, (2, 3)),
        (vca.V, (1, 2)),
        (vab.V.conj().T, (2, 3)),
    )
    what = "middle leg is not trivial"
    factor, resid = extract_trivial_legs(prod, space3, {2})
    return extract_bicharacter(factor, resid, vca.source, vab.target, what)


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
    out, _ = apply_map_to_leg(c.W, c.space, 2, f.map)
    return check_bicharacter(out, c, f.target)


def check_R_invariance(v):
    """Residual of applying both unitary antipodes leg-wise to v.

    Kac-type antipodes are taken from the source's dual and the target;
    invariance of every bicharacter under them is the numeric face of the
    antipode-compatibility theorem.  Either antipode missing raises
    NotKacType.
    """
    r_hat = unitary_antipode(v.source.dual)
    r_target = unitary_antipode(v.target)
    t1, sp1 = apply_map_to_leg(v.V, v.space, 1, r_hat)
    t2, _ = apply_map_to_leg(t1, sp1, 2, r_target)
    return frob(t2 - v.V) / frob(v.V)
