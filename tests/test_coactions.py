"""Coactions, induced-coaction functors, and corepresentation pushforward."""

import copy

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import unitary_group

import qgcalc as q
from qgcalc import coactions, homviews, qgroup, tensorleg
from qgcalc.coactions import (
    Coaction,
    Corepresentation,
    check_coaction,
    check_corepresentation,
    coactions_agree,
    comultiplication_coaction,
    compose_functors_check,
    conjugation_coaction,
    induce_coaction,
    pushforward_corep,
    trivial_coaction,
)
from qgcalc.errors import (
    CoactionViolation,
    RecoveryFailure,
    SolveFailure,
    SourceTargetMismatch,
)
from qgcalc.bicharacter import push_along
from qgcalc.homviews import (
    left_from_bicharacter,
    right_from_bicharacter,
)
from qgcalc.qgroup import build_from_unitary
from qgcalc.tensorleg import PairSpan, SpanMap, kron, residual_between
import conftest
from conftest import (
    _solve_on_product_basis,
    delta_map,
    gauged_bicharacters,
    image_right_map,
    image_system_pushed_through,
    loop_pushforward_square,
    map_coefficients,
    nudged,
    product_factor,
)

RNG = np.random.default_rng(60001)


def c0(g):
    return q.qg_from_group(g, "c0")


@pytest.fixture(scope="module")
def chain(z2, z4):
    """The mod-2 reduction chain in the function picture."""
    va = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0"))
    vb = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z2, z4, (0, 2)), "c0"))
    return va, vb


# --- the coaction checker ----------------------------------------------


def assert_coaction_holds(co, bound):
    """Every numeric residual within bound, and both booleans hold."""
    numeric = [v for k, v in co.residuals.items() if k not in ("injective", "podles")]
    assert max(numeric) <= bound
    assert co.residuals["injective"] is True and co.residuals["podles"] is True


def test_trivial_coaction_passes(z4, z2):
    co = trivial_coaction(c0(z4).algC, c0(z2))
    assert_coaction_holds(co, 1e-10)
    assert co.hdim == 4


def test_comultiplication_coaction_passes(s3):
    c = c0(s3)
    co = comultiplication_coaction(c)
    assert_coaction_holds(co, 1e-10)
    for x, dx in zip(c.algC, delta_map(c).images):
        assert residual_between(co.gamma(x), dx) <= 1e-12


def test_conjugation_coaction_of_regular_corep(z4):
    c = c0(z4)
    corep = check_corepresentation(c.W, c)
    co = conjugation_coaction(corep)
    assert_coaction_holds(co, 1e-9)
    assert len(co.algebraD) == 16


def test_a_span_map_on_its_own_basis_is_taken_as_it_is(s3, count_calls):
    # no basis is formed: wellDefined reads the orthonormality of algC, a
    # QR basis, at rounding
    c = q.qg_from_group(s3, "cstar")
    delta = delta_map(c)
    calls = count_calls("orthonormal_basis")
    co = check_coaction(delta, c)
    assert calls == {"orthonormal_basis": 0}
    assert co.gamma is delta and co.residuals["wellDefined"] <= 1e-15


@pytest.mark.parametrize("basis", ["dependent", "scaled"])
def test_a_basis_that_is_not_orthonormal_fails_well_defined(z2, basis):
    """A SpanMap applies its images to the coefficients of an orthonormal
    basis: on a dependent basis [x, x] or a scaled one it would misapply
    them, and wellDefined, gram(D) against the identity, fails."""
    c = c0(z2)
    d = {"dependent": c.algC[[0, 0]], "scaled": 2 * c.algC}[basis]
    gamma = SpanMap(d, kron(d, np.eye(2)), 2, 4)
    with pytest.raises(CoactionViolation, match="well defined") as exc:
        check_coaction(gamma, c)
    assert exc.value.residual > 0.5


def test_projection_tail_fails_coassociativity(z2):
    # x -> x (x) E00 is a *-homomorphism but E00 is not grouplike
    c = c0(z2)
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(CoactionViolation, match="coassoc"):
        check_coaction(SpanMap(c.algC, kron(c.algC, p), 2, 4), c)


def test_unclosed_domain_rejected(z2):
    c = c0(z2)
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    with pytest.raises(CoactionViolation, match="algebra"):
        check_coaction(SpanMap([e01], [kron(e01, np.eye(2))], 2, 4), c)


def _nan_on_shape(real, size):
    """real, except that it reports NaN when its second argument is size x size
    or a stack of size x size matrices."""

    def patched(first, second):
        shape = np.shape(second)[-2:]
        return float("nan") if shape == (size, size) else real(first, second)

    return patched


def _nan_constants(real):
    """real, except that one entry of the structure constants it returns is NaN."""

    def patched(qg):
        c = real(qg).copy()
        c[0, 0, 0] = np.nan
        return c

    return patched


def _nan_range(real, size):
    """PairSpan.read, except that it reports a NaN range for a stack of size x
    size matrices."""

    def patched(span, images):
        coeff, g, range_ = real(span, images)
        return coeff, g, float("nan") if images.shape[-2:] == (size, size) else range_

    return patched


# The module whose residual feeds each gate of check_coaction: the comodule
# axioms and the *-homomorphism residuals are computed in homviews, the
# range by the PairSpan read there, *-algebra closure in qgroup, and
# well-definedness, the Gram matrix of D, in coactions itself.
# Coassociativity is read off the structure constants homviews takes from
# qgroup.
_GATE_HOME = {
    ("gram", None): coactions,
    ("membership_residuals", 2): qgroup,
    ("read", 4): tensorleg.PairSpan,
    ("residuals_between", 4): homviews,
    ("structure_constants", None): homviews,
}


@pytest.mark.parametrize(
    "name, size, match",
    [
        ("gram", None, "well defined"),
        ("membership_residuals", 2, "algebra"),
        ("read", 4, "escapes"),
        ("residuals_between", 4, "homomorphism"),
        ("structure_constants", None, "coassoc"),
    ],
)
def test_nan_residual_fails_closed_in_check_coaction(z2, monkeypatch, name, size, match):
    # the trivial coaction of c0(Z2) on its own algebra: D is 2x2 and gamma(D)
    # is 4x4, so the size picks the gate
    c = c0(z2)
    home = _GATE_HOME[name, size]
    real = getattr(home, name)
    if name == "gram":
        patched = lambda xs: np.full_like(real(xs), np.nan)
    elif name == "read":
        patched = _nan_range(real, size)
    elif name == "structure_constants":
        patched = _nan_constants(real)
    else:
        patched = _nan_on_shape(real, size)
    monkeypatch.setattr(home, name, patched)
    with pytest.raises(CoactionViolation, match=match) as exc:
        trivial_coaction(c.algC, c)
    assert np.isnan(exc.value.residual)


# --- corepresentations --------------------------------------------------


def test_regular_corepresentation(z4):
    c = c0(z4)
    corep = check_corepresentation(c.W, c)
    assert corep.residuals["corepLaw"] <= 1e-10
    assert corep.hdim == 4


def test_identity_is_a_corepresentation(z4):
    c = c0(z4)
    corep = check_corepresentation(np.eye(3 * 4, dtype=complex), c)
    assert corep.hdim == 3


def test_random_unitary_is_no_corepresentation(z4):
    c = c0(z4)
    u, _ = np.linalg.qr(RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8)))
    with pytest.raises(CoactionViolation):
        check_corepresentation(u, c)


def test_nan_corepresentation_fails_closed(z2):
    c = c0(z2)
    x = c.W.copy()
    x[1, 2] = np.nan
    with pytest.raises(CoactionViolation, match="unitary"):
        check_corepresentation(x, c)


def test_corepresentation_dimension_must_divide(z4):
    with pytest.raises(ValueError):
        check_corepresentation(np.eye(6, dtype=complex), c0(z4))


# --- induced coactions --------------------------------------------------


def test_induction_preserves_trivial(z4, z2, chain):
    va, _ = chain
    dr = right_from_bicharacter(va)
    start = trivial_coaction(c0(z4).algC, dr.source)
    out = induce_coaction(start, dr)
    assert out.residuals["solve"] <= 1e-9
    assert coactions_agree(out, trivial_coaction(c0(z4).algC, dr.target)) <= 1e-9


def test_induction_of_comultiplication_is_the_right_hom(chain):
    # gamma = Delta pushes to alpha = deltaR itself
    va, _ = chain
    dr = right_from_bicharacter(va)
    start = comultiplication_coaction(dr.source)
    out = induce_coaction(start, dr)
    worst = max(
        residual_between(out.gamma(x), dr.deltaR(x)) for x in dr.source.algC
    )
    assert worst <= 1e-9


def test_induction_checks_the_acting_object(z4, chain):
    va, _ = chain
    dr = right_from_bicharacter(va)
    wrong = trivial_coaction(c0(z4).algC, c0(z4))
    with pytest.raises(SourceTargetMismatch):
        induce_coaction(wrong, dr)


def test_product_basis_solver_matches_the_kron_sums():
    rng = np.random.default_rng(60002)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    left, images, right = cplx(3, 2, 2), cplx(3, 4, 4), cplx(2, 3, 3)
    coeff = cplx(5, 3, 2)
    rhs = np.array(
        [
            sum(c[i, j] * kron(images[i], right[j]) for i in range(3) for j in range(2))
            for c in coeff
        ]
    )
    got, worst, unique = _solve_on_product_basis(left, images, right, rhs)
    assert worst <= 1e-12 and unique
    for c, img in zip(coeff, got):
        want = sum(c[i, j] * kron(left[i], right[j]) for i in range(3) for j in range(2))
        assert residual_between(img, want) <= 1e-12
    # one right-hand side off the span spoils the worst column only
    rhs[2] = rhs[2] + kron(cplx(4, 4), np.eye(3))
    _, worst, _ = _solve_on_product_basis(left, images, right, rhs)
    assert worst > 1e-3


def test_induction_solve_fails_closed_on_nan(chain):
    """A NaN in the coefficients of gamma, or in those of deltaR, reads as a
    NaN solve residual, which fails."""
    va, _ = chain
    dr = right_from_bicharacter(va)
    start = trivial_coaction(dr.source.algC, dr.source)
    # the coefficients its check read, with a NaN in place of each
    p, g = start.coefficients
    nan_read = (np.full_like(p, np.nan), g)
    bent = Coaction(start.algebraD, start.qg, start.gamma, start.residuals, nan_read)
    r, g_r = dr.coefficients
    r = r.copy()
    r[0, 0, 0] = np.nan
    bent_dr = copy.copy(dr)
    bent_dr.coefficients = (r, g_r)
    for gamma, hom in ((bent, dr), (start, bent_dr)):
        with pytest.raises(SolveFailure) as exc:
            induce_coaction(gamma, hom)
        assert np.isnan(exc.value.residual)


def _test_coactions(c):
    """The comultiplication and trivial coactions of c on its algebra, and
    the conjugation coaction of its regular corepresentation."""
    return {
        "comultiplication": comultiplication_coaction(c),
        "trivial": trivial_coaction(c.algC, c),
        "conjugation": conjugation_coaction(check_corepresentation(c.W, c)),
    }


@pytest.mark.parametrize("picture", ["c0", "cstar"])
@pytest.mark.parametrize("arrow", ["Z4->Z2", "Z2->Z4", "S3->Z2", "Z8->Z4"])
def test_induction_matches_the_image_system(coefficient_arrows, arrow, picture):
    """The closed form of induce_coaction against the image system of
    tests/conftest.py: the same images and uniqueness, and a solve residual
    no lower.  The conjugation coaction of C*(Z8), whose image system is
    65536 x 256, is checked in tests_slow."""
    v = q.from_hopf_hom(q.hom_to_hopf(coefficient_arrows[arrow], picture))
    dr = right_from_bicharacter(v)
    for name, co in _test_coactions(v.source).items():
        if (arrow, picture, name) == ("Z8->Z4", "cstar", "conjugation"):
            continue
        out = induce_coaction(co, dr)
        images, worst, unique = image_system_pushed_through(co.gamma, co.algebraD, dr)
        assert np.max(np.abs(out.gamma.images - images)) <= 1e-14, name
        assert out.residuals["uniqueRank"] is unique, name
        assert out.residuals["solve"] >= worst - 1e-14, name


def _criterion_8_arrows(corpus, gauge):
    """The arrows whose right homs criterion 8 of test_acceptance.py induces
    along, in both pictures: nine group homs among Z2, Z4, the Klein group
    and S3, and the identity hom of each (gauged_bicharacters)."""
    z2, z4, v4, s3 = (corpus[name] for name in ("Z2", "Z4", "Z2xZ2", "S3"))
    homs = [
        q.group_hom(z4, z2, (0, 1, 0, 1)),
        q.group_hom(z2, z4, (0, 2)),
        q.group_hom(s3, z2, (0, 1, 1, 0, 0, 1)),
        q.group_hom(z2, s3, (0, 1)),
        q.group_hom(z2, v4, (0, 3)),
        q.group_hom(v4, z2, (0, 1, 0, 1)),
        q.group_hom(z4, v4, (0, 1, 0, 1)),
        q.group_hom(v4, v4, (0, 2, 1, 3)),
        q.trivial_hom(z4, z2),
    ]
    homs += [q.group_hom(g, g, tuple(range(g.order))) for g in (z2, z4, v4, s3)]
    return [v for pic in ("c0", "cstar") for v in gauged_bicharacters(homs, pic, gauge, 4501)]


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_the_criterion_8_inductions_match_the_image_system(corpus, gauge):
    """The 74 inductions of criterion 8, plain and Haar-gauged: the closed
    form (id (x) f)gamma has the image system's images and uniqueness, and
    its solve residual, read at P F, that system's optimum, each to 1e-14."""
    starts = {}
    inductions = 0
    for v in _criterion_8_arrows(corpus, gauge):
        c = v.source
        if id(c) not in starts:
            starts[id(c)] = [trivial_coaction(coactions._matrix_units(2), c)]
            starts[id(c)].append(comultiplication_coaction(c))
            if c.dim <= 4:
                starts[id(c)].append(conjugation_coaction(check_corepresentation(c.W, c)))
        dr = right_from_bicharacter(v)
        for co in starts[id(c)]:
            out = induce_coaction(co, dr)
            images, worst, unique = image_system_pushed_through(co.gamma, co.algebraD, dr)
            assert np.max(np.abs(out.gamma.images - images)) <= 1e-14
            assert out.residuals["uniqueRank"] is unique
            assert abs(out.residuals["solve"] - worst) <= 1e-14
            inductions += 1
    assert inductions == 74


@pytest.mark.parametrize("gauge", ["plain", "haar"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_functor_composition_solve_matches_the_image_system(coefficient_arrows, picture, gauge):
    """The composite right hom of compose_functors_check, a's deltaR induced
    along b, against the image system, on Z4 -> Z2 and Z2 -> Z4 composed in
    the picture's order (the function picture reverses arrows)."""
    names = ("Z4->Z2", "Z2->Z4") if picture == "c0" else ("Z2->Z4", "Z4->Z2")
    homs = [coefficient_arrows[name] for name in names]
    a, b = (right_from_bicharacter(v) for v in gauged_bicharacters(homs, picture, gauge, 2806))
    psi, worst, unique = coactions._pushed_through(a.coefficients, a.source.algC, b, "")
    images, want, want_unique = image_system_pushed_through(a.deltaR, a.source.algC, b)
    comp = PairSpan(a.source.algC, b.target.algC).combine(psi)
    assert np.max(np.abs(comp - images)) <= 1e-14
    assert unique is want_unique and worst >= want - 1e-14
    assert compose_functors_check(a, b) <= 1e-9


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "off"])
@pytest.mark.parametrize("size", [1e-6, 1e-3])
def test_a_perturbed_coaction_solves_no_lower_than_the_image_system(
    coefficient_arrows, size, inside
):
    """A coaction moved inside span(D) (x) span(C) or off it reads a solve
    residual no lower than the image system's optimum: the square is read
    at Psi = P F, not at the least-squares Psi."""
    rng = np.random.default_rng(28001)
    homs = [coefficient_arrows["S3->Z2"], coefficient_arrows["Z4->Z2"]]
    for v in gauged_bicharacters(homs, "cstar", "haar", 2802):
        c = v.source
        co = comultiplication_coaction(c)
        span = PairSpan(co.algebraD, c.algC)
        images = nudged(co.gamma.images, span, size, inside, rng)
        gamma = SpanMap(co.algebraD, images, c.dim, c.dim * c.dim)
        dr = right_from_bicharacter(v)
        read = map_coefficients(gamma, co.algebraD, c, 1)
        with pytest.raises(SolveFailure) as exc:
            induce_coaction(Coaction(co.algebraD, c, gamma, {}, read), dr)
        _, want, _ = image_system_pushed_through(gamma, co.algebraD, dr)
        assert exc.value.residual >= want


def test_nan_coaction_image_fails_the_solve(chain):
    va, _ = chain
    dr = right_from_bicharacter(va)
    co = comultiplication_coaction(dr.source)
    images = co.gamma.images.copy()
    images[0, 1, 1] = np.nan
    gamma = SpanMap(co.algebraD, images, co.hdim, co.gamma.dd)
    read = map_coefficients(gamma, co.algebraD, co.qg, 1)
    with pytest.raises(SolveFailure) as exc:
        induce_coaction(Coaction(co.algebraD, co.qg, gamma, {}, read), dr)
    assert np.isnan(exc.value.residual)


def test_functor_composition_on_the_reduction_chain(chain):
    va, vb = chain
    dra = right_from_bicharacter(va)
    drb = right_from_bicharacter(vb)
    assert compose_functors_check(dra, drb) <= 1e-9


def test_functor_composition_extracts_only_the_composite(chain, count_calls):
    # a right hom made from a bicharacter carries it, so only the composite,
    # induced inside the check, has its bicharacter extracted
    va, vb = chain
    dra, drb = right_from_bicharacter(va), right_from_bicharacter(vb)
    assert dra.bicharacter is va and drb.bicharacter is vb
    calls = count_calls("bicharacter_from_right")
    assert compose_functors_check(dra, drb) <= 1e-9
    assert calls == {"bicharacter_from_right": 1}


def test_functor_composition_needs_matching_middle(chain):
    va, _ = chain
    dra = right_from_bicharacter(va)
    with pytest.raises(SourceTargetMismatch):
        compose_functors_check(dra, dra)


# --- corepresentation pushforward --------------------------------------


def test_pushforward_checks_no_right_hom(chain, count_calls):
    # V is verified, so its right hom's coefficients C F need no hom, and
    # no check, of their own
    va, _ = chain
    regular = check_corepresentation(va.source.W, va.source)
    calls = count_calls("_OneSidedHom.__init__", "one_sided_residuals")
    assert residual_between(pushforward_corep(regular, va).X, va.V) <= 1e-9
    assert calls == {"_OneSidedHom.__init__": 0, "one_sided_residuals": 0}


def test_pushforward_along_identity_fixes_corep(z4):
    c = c0(z4)
    corep = check_corepresentation(c.W, c)
    out = pushforward_corep(corep, q.identity(c))
    assert residual_between(out.X, c.W) <= 1e-9
    assert out.residuals["recovery"] <= 1e-9


def test_pushforward_of_trivial_corep_is_trivial(chain):
    va, _ = chain
    x = check_corepresentation(np.eye(2 * va.source.dim, dtype=complex), va.source)
    out = pushforward_corep(x, va)
    assert residual_between(out.X, np.eye(2 * va.target.dim)) <= 1e-9


def test_pushforward_of_regular_corep_is_the_bicharacter(chain):
    """The left leg of a bicharacter is itself a corepresentation of the
    target; pushing the regular corepresentation forward must land exactly
    there."""
    va, _ = chain
    reg = check_corepresentation(va.source.W, va.source)
    out = pushforward_corep(reg, va)
    assert residual_between(out.X, va.V) <= 1e-9


def test_pushforward_z4_regular_corep_along_dual_arrow(z2, z4, chain):
    # push the group-algebra regular corepresentation of Z4 along the dual
    # of the mod-2 arrow; the result is the block sum of Z2 translations
    va, _ = chain
    dv = q.dual_bicharacter(va)
    assert dv.source.same_unitary(q.qg_from_group(z4, "cstar"))
    reg = check_corepresentation(dv.source.W, dv.source)
    out = pushforward_corep(reg, dv)
    qmap = (0, 1, 0, 1)
    frozen = np.zeros((8, 8), dtype=complex)
    for b in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[b, b] = 1.0
        frozen += kron(e, q.translation_matrix(z2, z2.inv(qmap[b])))
    assert residual_between(out.X, frozen) <= 1e-9


def test_pushforward_and_slice_identity_hold_one_index_per_slab(monkeypatch, chain):
    """The streamed recovery check of pushforward_corep and the left-hom
    slice identity, with every slab holding one leg index."""
    va, _ = chain
    whole = pushforward_corep(check_corepresentation(va.source.W, va.source), va)
    monkeypatch.setattr(conftest, "SLAB_ENTRIES", 1)
    sliced = pushforward_corep(check_corepresentation(va.source.W, va.source), va)
    assert residual_between(sliced.X, va.V) <= 1e-9
    assert sliced.residuals == pytest.approx(whole.residuals, abs=1e-14)
    assert left_from_bicharacter(va).residuals["sliceIdentity"] <= 1e-12


def test_pushforward_rejects_wrong_object(z4, chain):
    va, _ = chain
    reg = check_corepresentation(c0(z4).W, c0(z4))
    with pytest.raises(SourceTargetMismatch):
        pushforward_corep(reg, va)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_pushforward_of_every_small_regular_corep_along_identity(corpus, picture):
    for g in corpus.values():
        if g.order > 6:
            continue
        c = q.qg_from_group(g, picture)
        reg = check_corepresentation(c.W, c)
        out = pushforward_corep(reg, q.identity(c))
        assert residual_between(out.X, c.W) <= 1e-9, g.name
        assert out.residuals["recovery"] <= 1e-9, g.name


@pytest.fixture
def sgn(z2, s3):
    return q.group_hom(s3, z2, (0, 1, 1, 0, 0, 1))


def _gauged(qg, u):
    uu = kron(u, u)
    return build_from_unitary(uu @ qg.W @ uu.conj().T, qg.dim)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_pushforward_on_gauged_s3(sgn, picture):
    """Haar-gauged ends make every matrix dense and complex; pushing the
    regular corepresentation along the identity and along the sign arrow
    must still give back the bicharacter."""
    rng = np.random.default_rng(20261019)
    plain = q.from_hopf_hom(q.hom_to_hopf(sgn, picture))
    uc = unitary_group.rvs(plain.source.dim, random_state=rng)
    ua = unitary_group.rvs(plain.target.dim, random_state=rng)
    c, a = _gauged(plain.source, uc), _gauged(plain.target, ua)
    ucua = kron(uc, ua)
    sign = q.check_bicharacter(ucua @ plain.V @ ucua.conj().T, c, a)
    s3_end = c if picture == "cstar" else a
    for v in (q.identity(s3_end), sign):
        reg = check_corepresentation(v.source.W, v.source)
        out = pushforward_corep(reg, v)
        assert residual_between(out.X, v.V) <= 1e-9
        assert out.residuals["recovery"] <= 1e-12


@pytest.mark.parametrize("gauge", ["plain", "haar"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_pushforward_square_matches_the_operator_loop(arrows, picture, gauge, monkeypatch):
    """The induced-coaction equation of pushforward_corep, read off as one
    coefficient square, agrees with the per-matrix-unit operator loop of
    tests/conftest.py on the regular corepresentation of the source of
    every corpus arrow of order <= 4."""
    squares = []
    real = coactions.diagram_residual

    def recorded(lhs, rhs):
        squares.append(real(lhs, rhs))
        return squares[-1]

    monkeypatch.setattr(coactions, "diagram_residual", recorded)
    small = [phi for phi in arrows if max(phi.source.order, phi.target.order) <= 4]
    for v in gauged_bicharacters(small, picture, gauge, 2611):
        reg = check_corepresentation(v.source.W, v.source)
        out = pushforward_corep(reg, v)
        assert residual_between(out.X, v.V) <= 1e-9
        want = loop_pushforward_square(reg.X, out.X, v)
        assert squares[-1] == pytest.approx(want, abs=1e-14)
        assert out.residuals["recovery"] >= squares[-1]
    assert len(squares) == len(small) == 51


@pytest.mark.parametrize("gauge", ["plain", "haar"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
@pytest.mark.parametrize("arrow", ["Z4->Z2", "Z2->Z4", "S3->Z2", "Z8->Z4"])
def test_pushforward_factor_matches_the_product(coefficient_arrows, arrow, picture, gauge):
    """pushforward_corep of a corepresentation equivalent to the regular
    one, (u (x) 1) W (u (x) 1)* for a Haar u, against the factor of the
    three-leg product of tests/conftest.py: the same factor, and a
    recovery residual no lower than that extraction's."""
    rng = np.random.default_rng(28002)
    (v,) = gauged_bicharacters([coefficient_arrows[arrow]], picture, gauge, 2803)
    c = v.source
    u1 = kron(unitary_group.rvs(c.dim, random_state=rng), np.eye(c.dim))
    x = check_corepresentation(u1 @ c.W @ u1.conj().T, c)
    out = pushforward_corep(x, v)
    want, resid = product_factor(x.X, c, image_right_map(v), v.target, 1)
    assert np.max(np.abs(out.X - want)) <= 1e-14
    assert out.residuals["recovery"] >= resid - 1e-14


def test_nan_corepresentation_fails_the_recovery(chain):
    # a NaN in X itself, past the unitarity gate of check_corepresentation
    va, _ = chain
    x = va.source.W.copy()
    x[1, 2] = np.nan
    with pytest.raises(RecoveryFailure, match="leg-2 trivial") as exc:
        pushforward_corep(Corepresentation(va.source, x, {}), va)
    assert np.isnan(exc.value.residual)


def _inject_factor(monkeypatch, change, residual=0.0):
    """Make pushforward_corep extract change(Y) with the given residual."""

    def patched(*args):
        y, _ = push_along(*args)
        return change(y), residual

    monkeypatch.setattr(coactions, "push_along", patched)


def _small_unitary(n, rng, size=1e-6):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    return scipy.linalg.expm(1j * size * h / np.linalg.norm(h))


def test_pushforward_rejects_a_rotated_factor(z4, monkeypatch):
    # a rotated Y breaks the corepresentation law
    c = c0(z4)
    reg = check_corepresentation(c.W, c)
    u = _small_unitary(16, np.random.default_rng(5))
    _inject_factor(monkeypatch, lambda y: u @ y)
    with pytest.raises(CoactionViolation, match="corepresentation law"):
        pushforward_corep(reg, q.identity(c))


def test_pushforward_rejects_an_equivalent_but_wrong_factor(z4, monkeypatch):
    # (u (x) 1) Y (u (x) 1)* is still a corepresentation, so only the
    # induced-coaction cross-check can tell it from Y
    c = c0(z4)
    reg = check_corepresentation(c.W, c)
    u1 = kron(_small_unitary(4, np.random.default_rng(6)), np.eye(4))
    _inject_factor(monkeypatch, lambda y: u1 @ y @ u1.conj().T)
    with pytest.raises(RecoveryFailure, match="induced coaction") as exc:
        pushforward_corep(reg, q.identity(c))
    assert exc.value.residual > 1e-8


def test_pushforward_nan_extraction_fails_closed(z4, monkeypatch):
    c = c0(z4)
    reg = check_corepresentation(c.W, c)
    _inject_factor(monkeypatch, lambda y: y, residual=float("nan"))
    with pytest.raises(RecoveryFailure, match="leg-2 trivial"):
        pushforward_corep(reg, q.identity(c))
