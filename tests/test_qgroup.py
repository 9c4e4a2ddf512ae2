"""Multiplicative-unitary validation against hand-computed group data."""

import gc
import json
import weakref

import numpy as np
import pytest

import qgcalc as q
from qgcalc.cli import main
from qgcalc.errors import (
    AlgebraNotClosed,
    BicharacterViolation,
    NotKacType,
    NotManageable,
    NotUnitary,
    PentagonViolation,
)
from qgcalc.qgroup import (
    CLOSURE_TOL,
    EQUATION_TOL,
    PENTAGON_TOL,
    FiniteQuantumGroup,
    ManageabilityWitness,
    antipode_coefficients,
    build_from_unitary,
    coassociativity_residual,
    closure_residual,
    coinvariant_dimension,
    manageability_witness,
    product_constants,
    structure_constants,
    transpose_qg,
    unitary_antipode,
    unitary_slices,
)
from qgcalc import qgroup as qgroup_module
from qgcalc.report import Report
from qgcalc.serialize import matrix_to_obj, write_json
from qgcalc.tensorleg import (
    LegSpace,
    PairSpan,
    SpanMap,
    conjugation_images,
    flip_unitary,
    gram,
    kron,
    membership_residual,
    orthonormal_basis,
    permute_legs,
    residual_between,
    residuals_between,
    unitarity_defect,
)
import conftest
from conftest import (
    Functional,
    delta_map,
    dihedral_group,
    embed_on_legs,
    haar_unitary,
    image_antipode_residual,
    images_coinvariant_dimension,
    pairs_antipode,
    qr_leg2_closure,
    rotated,
    slice_leg,
    span_map_from_pairs,
    streamed_pentagon,
    streamed_transpose,
    with_delta_images,
)

RNG = np.random.default_rng(4217)


def function_picture_w(g):
    """Entry-level rule: W (delta_a (x) delta_b) = delta_{a b^{-1}} (x) delta_b."""
    n = g.order
    w = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            w[g.mul(a, g.inv(b)) * n + b, a * n + b] = 1.0
    return w


def test_z2_w_is_the_frozen_permutation(z2):
    c2 = q.qg_from_group(z2, "c0")
    frozen = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(c2.W, frozen)


def test_function_picture_w_matches_rule(corpus):
    for g in corpus.values():
        np.testing.assert_array_equal(q.qg_from_group(g, "c0").W, function_picture_w(g))


def test_z2_algebras(z2):
    c2 = q.qg_from_group(z2, "c0")
    assert len(c2.algC) == 2
    assert len(c2.dual.algC) == 2
    # algC is the diagonal algebra
    for which in range(2):
        e = np.zeros((2, 2), dtype=complex)
        e[which, which] = 1.0
        assert membership_residual(c2.algC, e) <= 1e-12
    # the dual side is spanned by the two translations
    for b in range(2):
        assert membership_residual(c2.dual.algC, q.translation_matrix(z2, b)) <= 1e-12


def test_residual_keys_are_tiny(z4):
    c4 = q.qg_from_group(z4, "c0")
    for key in ("unitarity", "pentagon", "closure", "comultMembership", "antipode"):
        assert c4.residuals[key] <= 1e-10, key


def test_comultiplication_on_diagonal_units(z4):
    # Delta(E_cc) = sum over ab=c of E_aa (x) E_bb
    c4 = q.qg_from_group(z4, "c0")
    n = z4.order
    for c in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[c, c] = 1.0
        want = np.zeros((n * n, n * n), dtype=complex)
        for a in range(n):
            for b in range(n):
                if z4.mul(a, b) == c:
                    ea = np.zeros((n, n), dtype=complex)
                    ea[a, a] = 1.0
                    eb = np.zeros((n, n), dtype=complex)
                    eb[b, b] = 1.0
                    want += kron(ea, eb)
        assert residual_between(delta_map(c4)(e), want) <= 1e-10


def test_comultiplication_is_grouplike_on_translations(s3):
    cs = q.qg_from_group(s3, "cstar")
    for gidx in range(s3.order):
        rho = q.translation_matrix(s3, gidx)
        assert residual_between(delta_map(cs)(rho), kron(rho, rho)) <= 1e-10


def test_pentagon_violation_for_flip():
    with pytest.raises(PentagonViolation):
        build_from_unitary(flip_unitary(2, 2), 2)


def test_pentagon_violation_for_perturbed_w(z4):
    w = q.qg_from_group(z4, "c0").W.copy()
    w = w + 0.01 * (RNG.standard_normal(w.shape) + 1j * RNG.standard_normal(w.shape))
    w, _ = np.linalg.qr(w)
    with pytest.raises(PentagonViolation):
        build_from_unitary(w, 4)


def test_non_unitary_input_rejected():
    with pytest.raises(ValueError):
        build_from_unitary(np.ones((4, 4)), 2)
    with pytest.raises(ValueError):
        build_from_unitary(np.eye(4), 3)


def test_dual_swaps_the_algebra_pair(z4):
    # the leg-2 slices of each W span the algC of the other
    c4 = q.qg_from_group(z4, "c0")
    for qg, other in ((c4, c4.dual), (c4.dual, c4)):
        for y in qgroup_module._leg_slices(qg.W, qg.dim, 2):
            assert membership_residual(other.algC, y) <= 1e-10


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_closure_covers_both_slice_spans(s3, picture):
    """The build gates the leg-2 slice span too, though it keeps only algC:
    closure is the worse of algC's and the dual's algC's, to rounding."""
    qg = _gauged(q.qg_from_group(s3, picture), np.random.default_rng(2025))[0]
    both = max(closure_residual(qg.algC), closure_residual(qg.dual.algC))
    assert qg.residuals["closure"] == pytest.approx(both, abs=1e-14)
    assert both > 0.0


def _flip_adjoint_by_hand(qg):
    return permute_legs(qg.W.conj().T, qg.space, (2, 1))


def _assert_same_build(got, fresh):
    np.testing.assert_array_equal(got.W, fresh.W)
    np.testing.assert_array_equal(got.algC, fresh.algC)
    np.testing.assert_array_equal(got.structure, fresh.structure)
    np.testing.assert_array_equal(got.gram, fresh.gram)
    assert got.residuals == fresh.residuals


def test_cstar_picture_is_the_dual(corpus):
    for g in corpus.values():
        c = q.qg_from_group(g, "c0")
        cs = q.qg_from_group(g, "cstar")
        flipped = _flip_adjoint_by_hand(c)
        np.testing.assert_array_equal(cs.W, flipped)
        _assert_same_build(cs, build_from_unitary(flipped, c.dim))


def test_double_dual_is_exact(z4, s3):
    for g in (z4, s3):
        c = q.qg_from_group(g, "c0")
        twice = _flip_adjoint_by_hand(build_from_unitary(_flip_adjoint_by_hand(c), c.dim))
        np.testing.assert_array_equal(twice, c.W)
        _assert_same_build(c, build_from_unitary(twice, c.dim))


def test_dual_is_built_once_and_self_inverse(z4, s3):
    for g in (z4, s3):
        for c in (q.qg_from_group(g, "c0"), build_from_unitary(q.qg_from_group(g, "c0").W, g.order)):
            assert c.dual is c.dual
            assert c.dual.dual is c
            np.testing.assert_array_equal(c.dual.W, _flip_adjoint_by_hand(c))


def test_a_dualised_object_is_freed_with_its_last_name(s3):
    """The dual holds its builder weakly: no reference cycle is left for the
    cyclic collector, so both objects go as soon as the last name does."""
    w = q.qg_from_group(s3, "c0").W
    gc.disable()
    try:
        qg = build_from_unitary(w, s3.order)
        refs = (weakref.ref(qg), weakref.ref(qg.dual))
        assert qg.dual.dual is qg
        del qg
        assert [r() for r in refs] == [None, None]
        dual = build_from_unitary(w, s3.order).dual
        refs = (weakref.ref(dual), weakref.ref(dual.dual))
        del dual
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_lone_dual_rebuilds_its_builder_bit_for_bit(s3):
    w = q.qg_from_group(s3, "c0").W
    qg = build_from_unitary(w, s3.order)
    fresh = build_from_unitary(w, s3.order)
    dual = qg.dual
    del qg
    gc.collect()
    again = dual.dual
    _assert_same_build(again, fresh)
    assert dual.dual is again
    assert again.dual is dual


def test_algebras_match_the_slice_oracle(s3):
    """The reshaped blocks of W against slice_leg by each matrix-unit functional."""
    rng = np.random.default_rng(5)
    u = haar_unitary(s3.order, rng)
    uu = kron(u, u)
    for qg in (
        q.qg_from_group(s3, "c0"),
        build_from_unitary(uu @ q.qg_from_group(s3, "cstar").W @ uu.conj().T, s3.order),
    ):
        d, space = qg.dim, qg.space
        units = []
        for i in range(d):
            for j in range(d):
                dens = np.zeros((d, d), dtype=complex)
                dens[j, i] = 1.0
                units.append(Functional(dens))
        for built in (qg, qg.dual):
            oracle = orthonormal_basis([slice_leg(built.W, space, 1, om) for om in units])
            np.testing.assert_array_equal(built.algC, oracle)
        # the dual's algC spans the leg-2 slices
        for om in units:
            assert membership_residual(qg.dual.algC, slice_leg(qg.W, space, 2, om)) <= 1e-12
        wd = qg.W.conj().T
        kappa, _ = span_map_from_pairs(
            [(slice_leg(qg.W, space, 1, om), slice_leg(wd, space, 1, om)) for om in units]
        )
        for x in qg.algC:
            np.testing.assert_allclose(qg.kacR(x), kappa(x), rtol=0, atol=1e-14)


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_the_antipode_matches_the_pair_solve(corpus, gauge):
    """On the 13 corpus groups and D5, in both pictures, plain and
    Haar-gauged, the antipode read off W's slice coefficients in closed
    form, by the Gram fit of the X_m* on the X_l, agrees with the
    least-squares solve through the d^2 slice pairs (pairs_antipode): its
    images on algC and its antipode residual, each to 1e-14."""
    rng = np.random.default_rng(3701)
    for g in list(corpus.values()) + [dihedral_group(5)]:
        for pic in ("c0", "cstar"):
            qg = q.qg_from_group(g, pic)
            if gauge == "haar":
                qg = _gauged(qg, rng)[0]
            kappa, worst = pairs_antipode(qg)
            got = qg.kacR.apply_stack(qg.algC)
            np.testing.assert_allclose(got, kappa.apply_stack(qg.algC), rtol=0, atol=1e-14)
            assert qg.residuals["antipode"] == pytest.approx(worst, rel=0, abs=1e-14)


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_the_build_reads_its_leg2_closure_and_antipode_off_coefficients(
    corpus, count_calls, gauge
):
    """On the 13 corpus groups and D5, in both pictures, plain and
    Haar-gauged, a build forms one basis, algC; the leg-2 closure read off
    W's slice coefficients agrees with the closure of a QR basis of the
    leg-2 slices (qr_leg2_closure), and the antipode checks read off
    kappa's n x n coefficients with the image checks
    (image_antipode_residual), each to 1e-14.  The dual's unitary antipode
    on the X_k of W = sum_k X_k (x) b_k is kappa's coefficient matrix
    transposed, X_l -> sum_p K[p, l] X_p, to 1e-14, with K as the build
    holds it (antipode_coefficients)."""
    rng = np.random.default_rng(3702)
    calls = count_calls("orthonormal_basis")
    for g in list(corpus.values()) + [dihedral_group(5)]:
        for pic in ("c0", "cstar"):
            qg = q.qg_from_group(g, pic)
            w = qg.W if gauge == "plain" else _gauged(qg, rng)[0].W
            calls["orthonormal_basis"] = 0
            qg = build_from_unitary(w, qg.dim)
            assert calls["orthonormal_basis"] == 1
            xs = qg.slices[0]
            closure = qgroup_module._slice_closure(qg.slices)[0]
            assert closure == pytest.approx(qr_leg2_closure(qg.W, qg.dim), rel=0, abs=1e-14)
            _, mult, adjoints = qgroup_module._closure_constants(qg.algC)
            a = qgroup_module.fit_on_slices(xs, xs.conj().transpose(0, 2, 1))
            got = qgroup_module._antipode_residual(a, mult, adjoints)
            assert got == pytest.approx(image_antipode_residual(qg.kacR), rel=0, abs=1e-14)
            n = len(qg.algC)
            k = qg.kacR.images.reshape(n, -1) @ qg.algC.reshape(n, -1).conj().T
            np.testing.assert_allclose(antipode_coefficients(qg)[0], k, rtol=0, atol=1e-14)
            want = np.tensordot(k, xs, axes=(0, 0))
            assert residuals_between(q.unitary_antipode(qg.dual).apply_stack(xs), want) <= 1e-14


def test_the_coefficient_checks_never_read_below_their_oracles(corpus):
    """Off the spans, on gauged S3, Z4 and Q8 in both pictures: a slice
    stack moved by 1e-6 reads a leg-2 closure at or above the closure of a
    QR basis of its span, and the antipode checks of an A moved by 1e-6, on
    an algC basis rotated by 1e-6 out of its *-algebra, read at or above
    the image checks of that kappa."""
    rng = np.random.default_rng(3703)
    noise = lambda x: 1e-6 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    for name in ("S3", "Z4", "Q8"):
        for pic in ("c0", "cstar"):
            qg = _gauged(q.qg_from_group(corpus[name], pic), rng)[0]
            (xs, trunc), n, d = qg.slices, len(qg.algC), qg.dim
            moved = xs + noise(xs)
            got = qgroup_module._slice_closure((moved, trunc))[0]
            want = closure_residual(orthonormal_basis(moved))
            assert want > 1e-8 and want - 1e-15 <= got
            b = orthonormal_basis(qg.algC + noise(qg.algC))
            _, mult, adjoints = qgroup_module._closure_constants(b)
            a = qgroup_module.fit_on_slices(xs, xs.conj().transpose(0, 2, 1))
            a = a + noise(a)
            images = (a @ b.conj().transpose(0, 2, 1).reshape(n, -1)).reshape(n, d, d)
            want = image_antipode_residual(SpanMap(b, images, d, d))
            got = qgroup_module._antipode_residual(a, mult, adjoints)
            assert want > 1e-8 and want - 1e-15 <= got <= 3 * want


def test_antipode_inverts_points(z4, s3):
    # function picture: kappa(E_bb) = E at the inverse point
    for g in (z4, s3):
        c = q.qg_from_group(g, "c0")
        kappa = unitary_antipode(c)
        n = g.order
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[b, b] = 1.0
            want = np.zeros((n, n), dtype=complex)
            want[g.inv(b), g.inv(b)] = 1.0
            assert residual_between(kappa(e), want) <= 1e-10


def test_antipode_inverts_translations(s3):
    cs = q.qg_from_group(s3, "cstar")
    kappa = unitary_antipode(cs)
    for gidx in range(s3.order):
        got = kappa(q.translation_matrix(s3, gidx))
        want = q.translation_matrix(s3, s3.inv(gidx))
        assert residual_between(got, want) <= 1e-10


def test_unitary_antipode_recomputes_when_missing(z2):
    c2 = q.qg_from_group(z2, "c0")
    stripped = FiniteQuantumGroup(c2.dim, c2.W, c2.algC, c2.structure, c2.gram, None, c2.residuals)
    kappa = unitary_antipode(stripped)
    for x in c2.algC:
        assert residual_between(kappa(x), c2.kacR(x)) <= 1e-12


def test_unitary_antipode_rejects_non_antimultiplicative_slices():
    # flip slices force kappa to be the identity map on all of M2, which is
    # not antimultiplicative, so the antipode construction must refuse
    units = []
    for p in range(2):
        for r in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[p, r] = 1.0
            units.append(e)

    class Probe:
        dim = 2
        W = flip_unitary(2, 2)
        algC = np.array(units)
        kacR = slices = multiplication = None

    with pytest.raises(NotKacType):
        unitary_antipode(Probe())


def test_manageability_is_an_index_shuffle(z2, s3):
    # real W: wtilde[(z,y),(x,u)] = W[(x,y),(z,u)]
    for g in (z2, s3):
        c = q.qg_from_group(g, "c0")
        wit = manageability_witness(c)
        assert wit.residual <= PENTAGON_TOL
        assert unitarity_defect(wit.wtilde) <= 1e-12
        n = g.order
        cand = c.W.reshape(n, n, n, n).transpose(2, 1, 0, 3).reshape(n * n, n * n)
        np.testing.assert_array_equal(wit.wtilde, cand)


def test_transpose_construction(z2, z4, s3):
    for g in (z2, z4, s3):
        c = q.qg_from_group(g, "c0")
        cbar, bic = transpose_qg(c)
        # a real W is its own conjugate, so no second object is built
        assert cbar is c
        np.testing.assert_array_equal(cbar.W, c.W.conj())
        assert bic.residuals["dualSideEquation"] <= PENTAGON_TOL
        assert bic.residuals["flippedComultEquation"] <= PENTAGON_TOL
        np.testing.assert_array_equal(bic.V, manageability_witness(c).wtilde)


def test_transpose_of_complex_w_builds_the_conjugate(s3):
    rng = np.random.default_rng(31)
    u = haar_unitary(s3.order, rng)
    uu = kron(u, u)
    for picture in ("c0", "cstar"):
        w = uu @ q.qg_from_group(s3, picture).W @ uu.conj().T
        qg = build_from_unitary(w, s3.order)
        cbar, bic = transpose_qg(qg)
        assert cbar is not qg
        np.testing.assert_array_equal(cbar.W, w.conj())
        assert bic.residuals["dualSideEquation"] <= PENTAGON_TOL
        assert bic.residuals["flippedComultEquation"] <= PENTAGON_TOL


def _nan_at(real, index):
    """real, except that its call number index (from 0) returns a NaN."""
    calls = []

    def patched(*args):
        calls.append(None)
        return float("nan") if len(calls) - 1 == index else real(*args)

    return patched


@pytest.mark.parametrize(
    "nan_at, message", [(0, "dual-side equation"), (1, "flipped-comultiplication equation")]
)
def test_transpose_gates_reject_a_nan_residual(monkeypatch, z4, nan_at, message):
    """The two equations are the first and second comult_equation (the
    dual-side one on the adjoints of Wt's slices over Cbar's dual): a NaN
    from either fails its gate."""
    qg = q.qg_from_group(z4, "c0")
    real = qgroup_module.comult_equation
    monkeypatch.setattr(qgroup_module, "comult_equation", _nan_at(real, nan_at))
    with pytest.raises(BicharacterViolation, match=message):
        transpose_qg(qg)


def _transpose_subjects(corpus):
    """The 26 corpus quantum groups, then Haar-gauged S3, Z8 and D5 in both
    pictures, whose complex W makes Cbar an object of its own."""
    rng = np.random.default_rng(3003)
    pictures = ("c0", "cstar")
    out = {f"{name} {pic}": q.qg_from_group(g, pic) for name, g in corpus.items() for pic in pictures}
    for g in (corpus["S3"], corpus["Z8"], dihedral_group(5)):
        for pic in pictures:
            out[f"gauged {g.name} {pic}"], _ = _gauged(q.qg_from_group(g, pic), rng)
    return out


def test_the_transpose_slice_forms_match_the_operator_forms(corpus, count_calls):
    """transpose_qg reads both equations off slices, streaming none of
    them, and they agree with the operator oracles to 1e-14."""
    calls = count_calls("conjugation_images")
    for name, qg in _transpose_subjects(corpus).items():
        calls["conjugation_images"] = 0
        cbar, bic = transpose_qg(qg)
        assert calls["conjugation_images"] == 0, name
        assert (cbar is qg) == name.startswith(tuple(corpus)), name
        want = streamed_transpose(qg, cbar, bic.V)
        for key, value in want.items():
            assert bic.residuals[key] == pytest.approx(value, rel=0, abs=1e-14), (name, key)


@pytest.mark.parametrize("size", [1e-3, 1e-6])
def test_a_witness_moved_inside_the_span_is_read_off_slices_and_rejected(
    corpus, monkeypatch, count_calls, size
):
    """Wt (1 (x) exp(i size h)), h hermitian in span(algC), stays on both
    slice spans, as algC is a *-algebra and the leg-1 slices only mix: the
    slice path reads it, rejects it, and never below the operator forms."""
    rng = np.random.default_rng(3004)
    calls = count_calls("conjugation_images")
    real = manageability_witness
    subjects = _transpose_subjects(corpus)
    for name in ("S3 c0", "S3 cstar", "gauged S3 c0", "gauged Z8 cstar"):
        qg = subjects[name]
        noise = rng.standard_normal((qg.dim,) * 2) + 1j * rng.standard_normal((qg.dim,) * 2)
        h = np.tensordot(np.tensordot(qg.algC.conj(), noise, axes=2), qg.algC, axes=1)
        ev, vecs = np.linalg.eigh((h + h.conj().T) / np.linalg.norm(h + h.conj().T))
        u = kron(np.eye(qg.dim), (vecs * np.exp(1j * size * ev)) @ vecs.conj().T)
        moved = ManageabilityWitness(real(qg).wtilde @ u, 0.0)
        with monkeypatch.context() as patch:
            patch.setattr(qgroup_module, "manageability_witness", lambda _: moved)
            calls["conjugation_images"] = 0
            with pytest.raises(BicharacterViolation):
                transpose_qg(qg)
            patch.setattr(qgroup_module, "gate", lambda *args: None)
            cbar, bic = transpose_qg(qg)
            assert calls["conjugation_images"] == 0, name
        want = streamed_transpose(qg, cbar, moved.wtilde)
        assert max(bic.residuals.values()) > PENTAGON_TOL, name
        for key, value in want.items():
            assert bic.residuals[key] >= value - 1e-15, (name, key)


def test_transpose_keeps_the_tolerance_its_witness_missed(monkeypatch, z4):
    def unmanageable(qg):
        raise NotManageable("witness fails unitarity", residual=1e-3, tolerance=PENTAGON_TOL)

    monkeypatch.setattr(qgroup_module, "manageability_witness", unmanageable)
    with pytest.raises(NotKacType) as exc:
        transpose_qg(q.qg_from_group(z4, "c0"))
    assert (exc.value.residual, exc.value.tolerance) == (1e-3, PENTAGON_TOL)


def test_coassociativity_zero_on_corpus(z4, s3):
    for g in (z4, s3):
        for pic in ("c0", "cstar"):
            assert coassociativity_residual(q.qg_from_group(g, pic)) <= 1e-12


def test_coassociativity_matches_direct_conjugation(z3, coassociativity_oracle):
    """The streamed commutator oracle against the literal two-sided
    conjugation, on a perturbed unitary where the residual is strictly
    positive."""
    c3 = q.qg_from_group(z3, "c0")
    w = c3.W + 1e-4 * (RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9)))
    w, _ = np.linalg.qr(w)

    class Probe:
        dim = 3
        W = w
        algC = c3.algC

    d = 3
    sp = LegSpace((d, d, d))
    w12 = embed_on_legs(w, sp, (1, 2))
    w13 = embed_on_legs(w, sp, (1, 3))
    w23 = embed_on_legs(w, sp, (2, 3))
    left = w23 @ w12
    right = w12 @ w13
    eye2 = np.eye(d * d, dtype=complex)
    direct = max(
        residual_between(left @ kron(x, eye2) @ left.conj().T, right @ kron(x, eye2) @ right.conj().T)
        for x in c3.algC
    )
    got = coassociativity_oracle(Probe())
    assert got > 1e-6
    assert got == pytest.approx(direct, abs=1e-13)


def test_coassociativity_is_exactly_zero_on_the_corpus(corpus, coassociativity_oracle):
    """On 0/1 permutation data each block product only copies entries of x,
    so the commutator oracle vanishes exactly, not to rounding.  The
    structure constants go through the QR basis of algC and stay at
    rounding level."""
    for g in corpus.values():
        for pic in ("c0", "cstar"):
            qg = q.qg_from_group(g, pic)
            assert coassociativity_oracle(qg) == 0.0
            assert coassociativity_residual(qg) <= 1e-15


def _commutator_oracle(w, d, alg):
    """max over x of residual_between(u (x (x) 1 (x) 1), (x (x) 1 (x) 1) u), by embeddings."""
    sp = LegSpace((d, d, d))
    w12, w13, w23 = (embed_on_legs(w, sp, legs) for legs in ((1, 2), (1, 3), (2, 3)))
    u = w12.conj().T @ w23.conj().T @ w12 @ w13
    eye2 = np.eye(d * d, dtype=complex)
    return max(residual_between(u @ kron(x, eye2), kron(x, eye2) @ u) for x in alg)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_blocked_coassociativity_matches_the_embedding_oracle(s3, picture, coassociativity_oracle):
    rng = np.random.default_rng(99)
    base = q.qg_from_group(s3, picture)
    d = base.dim
    u = haar_unitary(d, rng)
    uu = kron(u, u)
    w = rotated(uu @ base.W @ uu.conj().T, 1e-3, rng)
    alg = [u @ x @ u.conj().T for x in base.algC]

    class Probe:
        dim = d
        W = w
        algC = alg

    got = coassociativity_oracle(Probe())
    assert got > 1e-6
    assert got == pytest.approx(_commutator_oracle(w, d, alg), abs=1e-13)


@pytest.mark.parametrize("slab_entries", [1, 4 * 6**5])
def test_streamed_checks_match_the_embedding_oracles_slab_by_slab(
    s3, monkeypatch, slab_entries, coassociativity_oracle
):
    """One leg index a slab, and four a slab with a shorter last one: the
    pentagon and coassociativity of a rotated gauged S3 against the
    Kronecker-embedding oracles, and the transpose equations still holding.
    The build rejects the rotation on its slice-rank tail, a lower bound on
    its distance from w."""
    monkeypatch.setattr(conftest, "SLAB_ENTRIES", slab_entries)
    rng = np.random.default_rng(31)
    base = q.qg_from_group(s3, "cstar")
    d = base.dim
    u = haar_unitary(d, rng)
    uu = kron(u, u)
    w = uu @ base.W @ uu.conj().T
    cbar, bic = transpose_qg(build_from_unitary(w, d))
    assert max(bic.residuals.values()) <= 1e-13

    bad = rotated(w, 1e-3, rng)
    sp = LegSpace((d, d, d))
    b12, b13, b23 = (embed_on_legs(bad, sp, legs) for legs in ((1, 2), (1, 3), (2, 3)))
    with pytest.raises(PentagonViolation) as exc:
        build_from_unitary(bad, d)
    assert PENTAGON_TOL < exc.value.residual <= _distance(bad, w)
    pent = streamed_pentagon(bad, d)
    assert pent > PENTAGON_TOL
    assert pent == pytest.approx(residual_between(b23 @ b12, b12 @ b13 @ b23), abs=1e-14)

    alg = [u @ x @ u.conj().T for x in base.algC]

    class Probe:
        dim = d
        W = bad
        algC = alg

    got = coassociativity_oracle(Probe())
    assert got > 1e-6
    assert got == pytest.approx(_commutator_oracle(bad, d, alg), abs=1e-13)


def test_coassociativity_of_a_nan_w_is_nan(z3, coassociativity_oracle):
    c3 = q.qg_from_group(z3, "c0")

    class Probe:
        dim = 3
        W = c3.W.copy()
        algC = c3.algC

    Probe.W[4, 2] = np.nan
    assert np.isnan(coassociativity_oracle(Probe()))


def _gauged(qg, rng):
    """qg rebuilt from (u (x) u) W (u (x) u)* for a Haar u, with u."""
    u = haar_unitary(qg.dim, rng)
    uu = kron(u, u)
    return build_from_unitary(uu @ qg.W @ uu.conj().T, qg.dim), u


def _distance(bad, w0):
    """|bad - w0| / |bad|: where w0 is a multiplicative unitary, at least
    the slice-rank tail a build rejects bad on."""
    return np.linalg.norm(bad - w0) / np.linalg.norm(bad)


def test_structure_constants_agree_with_the_operator_oracle(corpus, coassociativity_oracle):
    """On the 26 corpus quantum groups and on a Haar gauge of each, the
    forms read off the structure constants agree with their operator
    oracles: coassociativity and the pentagon to rounding, the coinvariant
    dimension exactly.  algC has d elements, so the build takes the pentagon
    from the slice coefficients."""
    rng = np.random.default_rng(1013)
    count = 0
    for g in corpus.values():
        for pic in ("c0", "cstar"):
            base = q.qg_from_group(g, pic)
            for qg in (base, _gauged(base, rng)[0]):
                count += 1
                got = coassociativity_residual(qg)
                assert got == pytest.approx(coassociativity_oracle(qg), abs=1e-14)
                assert got <= 1e-14
                assert len(qg.algC) == qg.dim
                pent = streamed_pentagon(qg.W, qg.dim)
                assert qg.residuals["pentagon"] == pytest.approx(pent, abs=1e-14)
                assert coinvariant_dimension(qg) == images_coinvariant_dimension(qg) == 1
    assert count == 52


def test_structure_constants_are_the_comultiplication(s3):
    """Summed back over b_i (x) b_j, the constants give Delta(b_k)."""
    qg, _ = _gauged(q.qg_from_group(s3, "cstar"), np.random.default_rng(7))
    c = structure_constants(qg)
    n, d = len(qg.algC), qg.dim
    assert c.shape == (n, n, n)
    b = np.stack(qg.algC)
    rebuilt = np.einsum("kij,iab,jce->kacbe", c, b, b).reshape(n, d * d, d * d)
    np.testing.assert_allclose(rebuilt, delta_map(qg).images, atol=1e-13)


def test_structure_constants_are_read_once_per_object(s3, count_calls):
    """The build keeps the constants the pentagon read, the coefficients of
    its images W(b_k (x) 1)W* to rounding, and every call shares that one
    read-only array without reading them again."""
    qg, _ = _gauged(q.qg_from_group(s3, "c0"), np.random.default_rng(17))
    images = conjugation_images(qg.W, qg.algC)
    fresh = PairSpan(qg.algC, qg.algC).coefficients(images)
    calls = count_calls("PairSpan.coefficients", "conjugation_coefficients")
    first = structure_constants(qg)
    np.testing.assert_allclose(first, fresh, rtol=0, atol=1e-14)
    assert structure_constants(qg) is first
    assert not first.flags.writeable
    assert calls == {"PairSpan.coefficients": 0, "conjugation_coefficients": 0}


def _held_arrays(obj, seen):
    """Every ndarray reachable from obj through attributes, dict values and
    sequence items, each object once; weak references are not followed."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    else:
        items = list(getattr(obj, "__dict__", {}).values())
    return [a for item in items for a in _held_arrays(item, seen)]


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_a_quantum_group_holds_no_image_stack(s3, picture):
    """No array held by a built quantum group or by its dual, once every
    cached reading is made, has the n d^4 entries of the images
    W(b_k (x) 1)W*: Delta is held as its structure constants and Gram
    matrix."""
    qg, _ = _gauged(q.qg_from_group(s3, picture), np.random.default_rng(3606))
    for x in (qg, qg.dual):
        coassociativity_residual(x)
        coinvariant_dimension(x)
        product_constants(x)
        unitary_slices(x)
        unitary_antipode(x)
    n, d = len(qg.algC), qg.dim
    held = _held_arrays(qg, set())
    assert any(a is qg.dual.structure for a in held)
    assert max(a.size for a in held) < n * d**4


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_structure_constants_and_gram_are_the_images(corpus, gauge):
    """On the 26 corpus quantum groups, plain and Haar-gauged, C and g are
    the coefficients of the images W(b_k (x) 1)W* and the Gram matrix of
    their parts off span(algC) (x) span(algC), to rounding."""
    rng = np.random.default_rng(3601)
    for g in corpus.values():
        for pic in ("c0", "cstar"):
            qg = q.qg_from_group(g, pic)
            if gauge == "haar":
                qg = _gauged(qg, rng)[0]
            images = delta_map(qg).images
            span = PairSpan(qg.algC, qg.algC)
            c = span.coefficients(images)
            np.testing.assert_allclose(qg.structure, c, rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                qg.gram, gram(images - span.combine(c)), rtol=0, atol=1e-14
            )


def _image_read(qg):
    """C, g and comultMembership read off the images W(b_k (x) 1)W*, as the
    build read them before it read Delta off W's slices."""
    return PairSpan(qg.algC, qg.algC).read(conjugation_images(qg.W, qg.algC))


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_delta_off_the_slices_is_the_image_read(corpus, gauge):
    """On the 26 corpus quantum groups, plain and Haar-gauged, and on
    Haar-gauged D5 in both pictures, the build reads Delta off W's slice
    coefficients: its C, g and comultMembership agree with the PairSpan.read
    of the images to 1e-14, and comultMembership, a bound, never reads
    below the image read."""
    rng = np.random.default_rng(4201)
    groups = list(corpus.values()) + ([dihedral_group(5)] if gauge == "haar" else [])
    count = 0
    for g in groups:
        for pic in ("c0", "cstar"):
            qg = q.qg_from_group(g, pic)
            if gauge == "haar":
                qg = _gauged(qg, rng)[0]
            count += 1
            c, g_images, membership = _image_read(qg)
            assert len(qg.algC) <= qg.dim and qg.products is not None
            np.testing.assert_allclose(qg.structure, c, rtol=0, atol=1e-14)
            np.testing.assert_allclose(qg.gram, g_images, rtol=0, atol=1e-14)
            got = qg.residuals["comultMembership"]
            assert membership <= got <= membership + 1e-14
    assert count == (26 if gauge == "plain" else 28)


def test_a_build_forms_no_image_stack(s3, count_calls):
    """Where algC has no more than d elements, a build reads Delta off W's
    slices once and never calls conjugation_images, and keeps the product
    constants it read Delta with.  A rotated W, whose algC has more, is
    rejected with no image stack read either."""
    base = q.qg_from_group(s3, "cstar")
    names = ("conjugation_images", "PairSpan.read", "_delta_from_slices", "product_constants")
    calls = count_calls(*names)
    qg = build_from_unitary(base.W, base.dim)
    assert calls == dict(zip(names, (0, 0, 1, 0)))
    assert product_constants(qg) is qg.products
    calls.update(dict.fromkeys(calls, 0))
    with pytest.raises(PentagonViolation):
        build_from_unitary(rotated(base.W, 1e-6, np.random.default_rng(3607)), base.dim)
    assert calls == dict.fromkeys(names, 0)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_a_block_diagonal_w_is_rejected_as_not_closed(tmp_path, capsys, d):
    """W = sum_i e_ii (x) U_i for Haar U_i is unitary with n = d leg-1
    slices, the U_i, which span no *-algebra: the build rejects it on
    algC's closure, before Delta is read, and the CLI exits 1."""
    rng = np.random.default_rng(3608 + d)
    w = sum(kron(np.diag(np.eye(d)[i]), haar_unitary(d, rng)) for i in range(d))
    assert len(orthonormal_basis(qgroup_module._leg_slices(w, d, 1))) == d
    with pytest.raises(AlgebraNotClosed) as exc:
        build_from_unitary(w, d)
    assert exc.value.residual > CLOSURE_TOL
    path = tmp_path / "w.json"
    write_json(str(path), {"dim": d, "W": matrix_to_obj(w)})
    assert main(["verify", str(path), "qg"]) == 1
    assert [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]] == [
        "AlgebraNotClosed"
    ]


@pytest.mark.parametrize("gauge", [False, True])
def test_an_amplified_w_with_fewer_slices_than_d_builds(z3, gauge):
    """Z3's W on (H (x) K) (x) (H (x) K), the identity on both K legs, dim K =
    2: d = 6 and n = 3, which divides d.  It builds with every residual at
    rounding, plain and Haar-gauged: the rank gate is n > d, not n != d."""
    w = kron(q.qg_from_group(z3, "c0").W, np.eye(4))
    amp = permute_legs(w, LegSpace((3, 3, 2, 2)), (1, 3, 2, 4))
    if gauge:
        u = haar_unitary(6, np.random.default_rng(3609))
        amp = kron(u, u) @ amp @ kron(u, u).conj().T
    qg = build_from_unitary(amp, 6)
    assert len(qg.algC) == 3
    assert set(qg.residuals) == {"unitarity", "pentagon", "closure", "comultMembership", "antipode"}
    assert max(qg.residuals.values()) <= 1e-14


# s, whether the rotation's slices span more than d dimensions, and whether
# the build passes; a rejection is a PentagonViolation
_SWEEP = (
    (1e-6, True, False),
    (1e-7, True, False),
    (1e-8, True, False),
    (1e-9, False, False),
    (3e-10, False, False),
    (1e-10, False, False),
    (1e-11, False, True),
)


@pytest.mark.parametrize("name", ["Z8", "D5"])
def test_a_rotation_sweep_keeps_each_verdict(corpus, name):
    """Rotations of a Haar-gauged W by s from 1e-6 down to 1e-11: the slices
    span more than d dimensions down to s = 1e-8, where the build rejects
    W on the slice-rank tail, above the tolerance and within the distance
    from the gauged W; from 1e-9 they span d and the slice pentagon
    rejects W, until it passes at 1e-11."""
    group = corpus["Z8"] if name == "Z8" else dihedral_group(5)
    rng = np.random.default_rng(5151)
    base = q.qg_from_group(group, "c0")
    d = base.dim
    u = haar_unitary(d, rng)
    w0 = kron(u, u) @ base.W @ kron(u, u).conj().T
    for s, wide, passes in _SWEEP:
        bad = rotated(w0, s, rng)
        assert (len(orthonormal_basis(qgroup_module._leg_slices(bad, d, 1))) > d) == wide, s
        if passes:
            assert max(build_from_unitary(bad, d).residuals.values()) <= PENTAGON_TOL
            continue
        with pytest.raises(PentagonViolation) as exc:
            build_from_unitary(bad, d)
        assert exc.value.residual > PENTAGON_TOL, s
        if wide:
            assert exc.value.residual <= _distance(bad, w0), s
            assert str(exc.value).startswith("leg-1 slices span"), s


def test_a_closure_defect_past_tolerance_is_rejected_with_no_image_stack(
    s3, monkeypatch, count_calls
):
    """Where the product constants' defect is above CLOSURE_TOL, the slices
    no longer give Delta to rounding, and the bounds Delta is read with say
    so: the defect enters the pentagon's and comultMembership's, and the
    pentagon gate, first of the two, rejects W, with no image stack formed."""
    base = q.qg_from_group(s3, "c0")
    real = qgroup_module._product_constants
    monkeypatch.setattr(
        qgroup_module, "_product_constants", lambda b: (real(b)[0], 2 * CLOSURE_TOL)
    )
    calls = count_calls("conjugation_images", "PairSpan.read", "_delta_from_slices")
    with pytest.raises(PentagonViolation) as exc:
        build_from_unitary(base.W, base.dim)
    assert calls == {"conjugation_images": 0, "PairSpan.read": 0, "_delta_from_slices": 1}
    assert exc.value.residual > CLOSURE_TOL > PENTAGON_TOL
    membership = qgroup_module._delta_from_slices(
        base.algC, base.slices, (base.products[0], 2 * CLOSURE_TOL)
    )[2]
    assert membership > CLOSURE_TOL


def test_a_rotated_w_is_rejected_on_its_slice_rank_tail(count_calls):
    """A 1e-6 rotation of Haar-gauged D5 (d = 10) has n = d^2 slices: the
    build rejects it on the tail of its slice stack past rank d, before any
    gate of the slice algebra.  The tail reads above the tolerance and not
    above the distance to the W it was rotated from, where the operator
    pentagon reads above the tolerance too; a NaN W fails closed before."""
    rng = np.random.default_rng(4202)
    qg, _ = _gauged(q.qg_from_group(dihedral_group(5), "c0"), rng)
    d = qg.dim
    bad = rotated(qg.W, 1e-6, rng)
    assert len(orthonormal_basis(qgroup_module._leg_slices(bad, d, 1))) == d * d
    calls = count_calls("_slice_rank_tail", "_closure_constants", "_delta_from_slices")
    with pytest.raises(PentagonViolation) as exc:
        build_from_unitary(bad, d)
    assert calls == {"_slice_rank_tail": 1, "_closure_constants": 0, "_delta_from_slices": 0}
    assert PENTAGON_TOL < exc.value.residual <= _distance(bad, qg.W)
    assert str(exc.value).startswith("leg-1 slices span 100 > d = 10 dimensions")
    assert "relative distance to every multiplicative unitary at least" in str(exc.value)
    assert streamed_pentagon(bad, d) > PENTAGON_TOL
    bad[0, 0] = np.nan
    with pytest.raises(NotUnitary) as exc:
        build_from_unitary(bad, d)
    assert np.isnan(exc.value.residual)


def test_a_comultiplication_rotated_inside_the_span_fails(s3):
    """One Delta(b_k) turned by 1e-6 inside span(algC) (x) span(algC): the
    membership gate cannot see it, coassociativity must."""
    rng = np.random.default_rng(61)
    qg, _ = _gauged(q.qg_from_group(s3, "c0"), rng)
    c = structure_constants(qg)
    n = len(qg.algC)
    h = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    h = (h + h.conj().T) / 2
    ev, vecs = np.linalg.eigh(h / np.linalg.norm(h))
    turned = (vecs * np.exp(1e-6j * ev)) @ vecs.conj().T @ c[1].reshape(-1)
    b = np.stack(qg.algC)
    image = np.einsum("ij,iab,jce->acbe", turned.reshape(n, n), b, b).reshape(qg.dim**2, -1)
    images = list(delta_map(qg).images)
    images[1] = image
    bad = with_delta_images(qg, images)
    assert membership_residual(PairSpan(qg.algC, qg.algC), image) <= 1e-14
    assert coassociativity_residual(qg) <= 1e-14
    assert coassociativity_residual(bad) > EQUATION_TOL


def test_a_nan_comultiplication_image_fails_closed(z3):
    qg = q.qg_from_group(z3, "c0")
    images = delta_map(qg).images.copy()
    images[2][4, 1] = np.nan
    got = coassociativity_residual(with_delta_images(qg, images))
    assert np.isnan(got)
    report = Report("nan")
    report.add("coassociativity", got, EQUATION_TOL)
    assert not report.passed


@pytest.mark.parametrize("name", ["S3", "Z4", "Z8", "Q8"])
def test_pentagon_bounds_coassociativity(corpus, name, coassociativity_oracle):
    """Pentagon => coassociativity at the operator level, the identity the
    structure constants stand for: on a perturbed gauged W the commutator
    oracle stays within 2 sqrt(d) times the operator pentagon, which the
    build rejects."""
    rng = np.random.default_rng(1634)
    for pic in ("c0", "cstar"):
        base = q.qg_from_group(corpus[name], pic)
        d = base.dim
        qg, _ = _gauged(base, rng)
        bad = rotated(qg.W, 1e-6, rng)
        with pytest.raises(PentagonViolation) as exc:
            build_from_unitary(bad, d)

        class Probe:
            dim = d
            W = bad
            algC = qg.algC

        assert exc.value.residual > PENTAGON_TOL
        pent = streamed_pentagon(bad, d)
        assert coassociativity_oracle(Probe()) <= 2 * np.sqrt(d) * pent


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_gauged_dense_unitary_passes_and_perturbation_fails(s3, picture):
    """(u (x) u) W (u (x) u)* for a Haar u is dense and complex, unlike the 0/1
    corpus matrices: every leg-contracted check must still read zero, agree
    with the Kronecker-embedding oracle, and catch a 1e-6 rotation."""
    rng = np.random.default_rng(20261018)
    base = q.qg_from_group(s3, picture)
    d = base.dim
    u = haar_unitary(d, rng)
    uu = kron(u, u)
    w = uu @ base.W @ uu.conj().T
    qg = build_from_unitary(w, d)
    assert qg.residuals["pentagon"] <= 1e-13
    assert coassociativity_residual(qg) <= 1e-13
    ident = q.check_bicharacter(w, qg, qg)
    assert max(ident.residuals.values()) <= 1e-13

    sp = LegSpace((d, d, d))
    w12 = embed_on_legs(w, sp, (1, 2))
    w13 = embed_on_legs(w, sp, (1, 3))
    w23 = embed_on_legs(w, sp, (2, 3))
    oracle = residual_between(w23 @ w12, w12 @ w13 @ w23)
    assert qg.residuals["pentagon"] == pytest.approx(oracle, abs=1e-14)
    assert ident.residuals["operatorSource"] == pytest.approx(oracle, abs=1e-14)

    bad = rotated(w, 1e-6, rng)
    with pytest.raises(PentagonViolation) as exc:
        build_from_unitary(bad, d)
    assert PENTAGON_TOL < exc.value.residual <= _distance(bad, w)
    b12 = embed_on_legs(bad, sp, (1, 2))
    b13 = embed_on_legs(bad, sp, (1, 3))
    b23 = embed_on_legs(bad, sp, (2, 3))
    pent = streamed_pentagon(bad, d)
    assert pent > PENTAGON_TOL
    assert pent == pytest.approx(residual_between(b23 @ b12, b12 @ b13 @ b23), abs=1e-14)
    with pytest.raises(BicharacterViolation):
        q.check_bicharacter(bad, qg, qg)


def test_non_unitary_w_raises_the_typed_error():
    with pytest.raises(NotUnitary) as exc:
        build_from_unitary(np.ones((4, 4)), 2)
    assert exc.value.residual > PENTAGON_TOL
    w = np.eye(4, dtype=complex)
    w[0, 0] = np.nan
    with pytest.raises(NotUnitary):
        build_from_unitary(w, 2)


def _pentagon_of(w, d):
    """The pentagon residual build_from_unitary reports or rejects w with."""
    try:
        return build_from_unitary(w, d).residuals["pentagon"]
    except PentagonViolation as exc:
        return exc.residual


def test_pentagon_matches_the_streamed_oracle_off_the_corpus(corpus, z4):
    """Where algC has at most d elements, the build's pentagon is the
    streamed operator pentagon to rounding.  The flip, the flipped W, a Haar
    unitary and a rotation have n = d^2 and are rejected on the slice-rank
    tail: above the tolerance, where their operator pentagon is too, and
    never above their distance to any multiplicative unitary: every d = 4
    one of the corpus, and the gauged W that was rotated."""
    rng = np.random.default_rng(1602)
    base = q.qg_from_group(z4, "c0")
    gauged, _ = _gauged(base, rng)
    cases = {
        "identity": np.eye(16, dtype=complex),
        "flip": flip_unitary(4, 4),
        "flipW": flip_unitary(4, 4) @ base.W,
        "haar": haar_unitary(16, rng),
        "rotated": rotated(gauged.W, 1e-6, rng),
    }
    exact = [gauged.W] + [
        q.qg_from_group(g, pic).W for g in corpus.values() if g.order == 4 for pic in ("c0", "cstar")
    ]
    assert len(exact) == 5
    for name, w in cases.items():
        got = _pentagon_of(w, 4)
        pent = streamed_pentagon(w, 4)
        if len(orthonormal_basis(qgroup_module._leg_slices(w, 4, 1))) <= 4:
            assert got == pytest.approx(pent, rel=1e-12, abs=1e-14), name
        else:
            assert PENTAGON_TOL < got <= min(_distance(w, w0) for w0 in exact), name
            assert pent > PENTAGON_TOL, name
        assert (got <= PENTAGON_TOL) == (name == "identity"), name


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_each_pentagon_path_is_taken_and_gated(count_calls, s3, picture):
    """A gauged S3 and u (x) 1 (for a unitary u that is not 1) have algC of
    at most d elements, so the pentagon comes from the slice coefficients,
    the operator pentagon to rounding; a 1e-6 rotation spans all d^2 and is
    rejected on its slice-rank tail, with no Delta read, never above its
    distance from the gauged W.  Both bad inputs fail with
    PentagonViolation, and their operator pentagons are above the
    tolerance."""
    rng = np.random.default_rng(1603)
    qg, _ = _gauged(q.qg_from_group(s3, picture), rng)
    d = qg.dim
    u = haar_unitary(d, rng)
    calls = count_calls("_slice_rank_tail", "_delta_from_slices")
    for w, tail in (
        (qg.W, 0),
        (kron(u, np.eye(d)), 0),
        (rotated(qg.W, 1e-6, rng), 1),
    ):
        calls.update(dict.fromkeys(calls, 0))
        got = _pentagon_of(w, d)
        assert calls == {"_slice_rank_tail": tail, "_delta_from_slices": 1 - tail}
        pent = streamed_pentagon(w, d)
        if tail:
            assert PENTAGON_TOL < got <= _distance(w, qg.W) and pent > PENTAGON_TOL
        else:
            assert got == pytest.approx(pent, rel=1e-9, abs=1e-14)
        assert (got <= PENTAGON_TOL) == (w is qg.W)


def test_coinvariant_dimension_of_the_trivial_quantum_group():
    """W = 1: algC is the scalars, and they are coinvariant."""
    qg = build_from_unitary(np.eye(9, dtype=complex), 3)
    assert len(qg.algC) == 1
    assert coinvariant_dimension(qg) == images_coinvariant_dimension(qg) == 1


def test_coinvariant_dimension_is_one(z2, z4, s3):
    for g in (z2, z4, s3):
        for pic in ("c0", "cstar"):
            assert coinvariant_dimension(q.qg_from_group(g, pic)) == 1


def test_tolerance_constants():
    assert PENTAGON_TOL == 1e-10
    assert CLOSURE_TOL == 1e-8
    assert EQUATION_TOL == 1e-9
