"""Hopf, right, and left homomorphism pictures and their translations."""

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import unitary_group

import qgcalc as q
from qgcalc import homviews as homviews_module
from qgcalc.bicharacter import Bicharacter, push_slices
from qgcalc.coactions import check_coaction
from qgcalc.errors import (
    DimensionMismatch,
    ExtractionFailure,
    HopfHomViolation,
    RangeViolation,
)
from qgcalc.homviews import (
    HopfHom,
    bicharacter_from_left,
    bicharacter_from_right,
    check_hopf_hom,
    check_left_hom,
    check_left_right_compatibility,
    check_right_hom,
    comodule_residuals,
    hopf_fit,
    dual_hopf_relation,
    left_from_bicharacter,
    one_sided_residuals,
    right_from_bicharacter,
    right_map_from_bicharacter,
)
from qgcalc.errors import CalculusError
from qgcalc.qgroup import (
    EQUATION_TOL,
    coassociativity_residual,
    structure_constants,
    unitary_slices,
)
from qgcalc.tensorleg import (
    LegSpace,
    PairSpan,
    SpanMap,
    diagram_residual,
    kron,
    membership_residual,
    numerical_rank,
    residual_between,
    vec,
)
from conftest import (
    apply_map_to_leg,
    delta_map,
    factor_slices,
    gauged_bicharacters,
    haar_unitary,
    image_left_map,
    image_right_map,
    kron_left_map,
    kron_right_map,
    map_coefficients,
    slice_identity_residual,
    with_delta_images,
    nudged,
    operator_intertwining,
    product_factor,
    rotated,
    span_map_from_pairs,
    streamed_slice_identity,
)


def c0(g):
    return q.qg_from_group(g, "c0")


@pytest.fixture(scope="module")
def va(z2, z4):
    """Arrow C0(Z2) -> C0(Z4) pulled back along reduction mod 2."""
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    return q.from_hopf_hom(f), f


def test_right_hom_is_comultiply_then_map(va):
    # for a bicharacter of Hopf origin, deltaR = (id (x) f) after Delta
    v, f = va
    dr = right_from_bicharacter(v)
    c = v.source
    sp = LegSpace((c.dim, c.dim))
    for x in c.algC:
        want, _ = apply_map_to_leg(delta_map(c)(x), sp, 2, f.map)
        assert residual_between(dr.deltaR(x), want) <= 1e-10


def test_left_hom_is_comultiply_then_map_on_first_leg(va):
    v, f = va
    dl = left_from_bicharacter(v)
    c = v.source
    sp = LegSpace((c.dim, c.dim))
    for x in c.algC:
        want, _ = apply_map_to_leg(delta_map(c)(x), sp, 1, f.map)
        assert residual_between(dl.deltaL(x), want) <= 1e-10


def test_right_round_trip(va):
    v, _ = va
    back = bicharacter_from_right(right_from_bicharacter(v))
    assert residual_between(back.V, v.V) <= 1e-9
    assert back.residuals["extraction"] <= 1e-9


def test_left_round_trip(va):
    v, _ = va
    back = bicharacter_from_left(left_from_bicharacter(v))
    assert residual_between(back.V, v.V) <= 1e-9


def test_round_trips_for_identity_arrows(z2, s3):
    for g in (z2, s3):
        ident = q.identity(c0(g))
        got = bicharacter_from_right(right_from_bicharacter(ident))
        assert residual_between(got.V, ident.V) <= 1e-9


def test_right_hom_flags_present(va):
    v, _ = va
    dr = right_from_bicharacter(v)
    assert dr.residuals["injective"] is True
    assert dr.residuals["podles"] is True
    assert dr.residuals["coassocDiagram"] <= 1e-9
    assert dr.residuals["comoduleDiagram"] <= 1e-9


def test_left_hom_slice_identity(va):
    v, _ = va
    dl = left_from_bicharacter(v)
    assert dl.residuals["sliceIdentity"] <= 1e-9


def test_trivial_right_hom_gives_identity_bicharacter(z2, z4):
    c, a = c0(z2), c0(z4)
    eye_a = np.eye(a.dim, dtype=complex)
    dr_map = SpanMap(
        tuple(c.algC), tuple(kron(x, eye_a) for x in c.algC), c.dim, c.dim * a.dim
    )
    dr = check_right_hom(c, a, dr_map)
    v = bicharacter_from_right(dr)
    np.testing.assert_allclose(v.V, np.eye(8), atol=1e-10)


def test_one_sided_homs_reject_the_zero_map(z2, z4):
    # the zero map satisfies every equation of a one-sided hom; injectivity fails
    c, a = c0(z4), c0(z2)
    n = c.dim * a.dim
    zero = SpanMap(tuple(c.algC), tuple(np.zeros((n, n), complex) for _ in c.algC), c.dim, n)
    for check, name in ((check_right_hom, "deltaR"), (check_left_hom, "deltaL")):
        with pytest.raises(RangeViolation, match=f"^{name} is not injective$"):
            check(c, a, zero)


def _one_sided_homs(v):
    """The right and left homs of v, each with its extraction."""
    return (
        (right_from_bicharacter(v), bicharacter_from_right),
        (left_from_bicharacter(v), bicharacter_from_left),
    )


def _unchecked(hom, phi):
    """A hom of hom's kind and ends holding phi, unchecked, with the
    map_coefficients of phi its check would have read."""
    c, a = hom.source, hom.target
    return type(hom)(c, a, phi, {}, map_coefficients(phi, c.algC, a, hom.leg))


def _map_span(hom):
    """The PairSpan a one-sided hom maps into, C on its leg."""
    c, a = hom.source.algC, hom.target.algC
    return PairSpan(c, a) if hom.leg == 1 else PairSpan(a, c)


def _gauged_hopf(hom, gauge, rng, cache):
    """The map, source and target of a Hopf hom, rebuilt once per quantum
    group from (u (x) u) W (u (x) u)* for a Haar u with gauge "haar", the
    map conjugated to match: f'(x) = ua f(uc* x uc) ua*."""
    if gauge == "plain":
        return hom.map, hom.source, hom.target
    for qg in (hom.source, hom.target):
        if id(qg) not in cache:
            u = haar_unitary(qg.dim, rng)
            uu = kron(u, u)
            cache[id(qg)] = u, q.build_from_unitary(uu @ qg.W @ uu.conj().T, qg.dim)
    (uc, c), (ua, a) = cache[id(hom.source)], cache[id(hom.target)]
    images = ua @ hom.map.apply_stack(uc.conj().T @ c.algC @ uc) @ ua.conj().T
    return SpanMap(c.algC, images, c.dim, a.dim), c, a


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_intertwining_matches_the_operator_form(arrows, gauge):
    """On every corpus arrow in both pictures, plain and Haar-gauged, the
    intertwining residual read off the structure constants agrees with
    the operator form on the images of Delta to 1e-14."""
    rng, cache = np.random.default_rng(3604), {}
    for phi in arrows:
        for picture in ("c0", "cstar"):
            f, c, a = _gauged_hopf(q.hom_to_hopf(phi, picture), gauge, rng, cache)
            got = HopfHom(c, a, f).residuals["intertwining"]
            assert got == pytest.approx(operator_intertwining(f, c, a), abs=1e-14)
            assert got <= 1e-14


def _nudged_map(f, c, a, inside, rng):
    """f with its images of c.algC moved by 1e-6 inside span(a.algC) or off it."""
    images = nudged(f.apply_stack(c.algC), PairSpan(a.algC, np.ones((1, 1, 1))), 1e-6, inside, rng)
    return SpanMap(c.algC, images, c.dim, a.dim)


def _nudged_delta(qg, inside, rng):
    """qg with its Delta moved by 1e-6 inside span(algC) (x) span(algC) or
    off it, and that Delta as a span map."""
    images = nudged(delta_map(qg).images, PairSpan(qg.algC, qg.algC), 1e-6, inside, rng)
    return with_delta_images(qg, images), SpanMap(qg.algC, images, qg.dim, qg.dim**2)


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "off"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_a_perturbed_intertwining_reads_no_lower_than_the_operator_form(
    coefficient_arrows, picture, inside
):
    """1e-6 perturbations of f, of the target's Delta and of the source's,
    on the gauged coefficient arrows: the coefficient form never reads
    below the operator one by more than 1e-15."""
    rng, cache = np.random.default_rng(3605), {}
    for phi in coefficient_arrows.values():
        f, c, a = _gauged_hopf(q.hom_to_hopf(phi, picture), "haar", rng, cache)
        bad_c, delta_c = _nudged_delta(c, inside, rng)
        bad_a, delta_a = _nudged_delta(a, inside, rng)
        cases = [
            (_nudged_map(f, c, a, inside, rng), c, a, None, None),
            (f, c, bad_a, None, delta_a),
            (f, bad_c, a, delta_c, None),
        ]
        for g, src, tgt, dc, da in cases:
            got = HopfHom(src, tgt, g).residuals["intertwining"]
            assert got >= operator_intertwining(g, src, tgt, dc, da) - 1e-15


def test_a_nan_fails_the_intertwining_closed(va):
    """A NaN in an image of f or in the target's Delta reads NaN, and
    check_hopf_hom raises."""
    _, hom = va
    c, a, f = hom.source, hom.target, hom.map
    images = f.images.copy()
    images[1, 0, 0] = np.nan
    nan_map = SpanMap(f.basis, images, f.d, f.dd)
    gram = a.gram.copy()
    gram[1, 1] = np.nan
    nan_target = q.FiniteQuantumGroup(a.dim, a.W, a.algC, a.structure, gram, a.kacR, a.residuals)
    for src, tgt, g in ((c, a, nan_map), (c, nan_target, f)):
        assert np.isnan(HopfHom(src, tgt, g).residuals["intertwining"])
        with pytest.raises(HopfHomViolation):
            check_hopf_hom(src, tgt, g)


@pytest.mark.parametrize("gauge", ["plain", "haar"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
@pytest.mark.parametrize("arrow", ["Z4->Z2", "Z2->Z4", "S3->Z2", "Z8->Z4"])
def test_extraction_matches_the_product(coefficient_arrows, arrow, picture, gauge):
    """bicharacter_from_right and bicharacter_from_left, read off the slices
    of W, against the partial trace of the three-leg product of
    tests/conftest.py: the same V, and an extraction residual no lower."""
    (v,) = gauged_bicharacters([coefficient_arrows[arrow]], picture, gauge, 2804)
    c = v.source
    for hom, extract in _one_sided_homs(v):
        got = extract(hom)
        want, resid = product_factor(c.W, c, getattr(hom, hom.map_name), v.target, hom.leg)
        assert np.max(np.abs(got.V - want)) <= 1e-14, hom
        assert got.residuals["extraction"] >= resid - 1e-14, hom


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "off"])
@pytest.mark.parametrize("size", [1e-6, 1e-3])
def test_a_perturbed_hom_extracts_no_lower_than_the_product(coefficient_arrows, size, inside):
    """A right or left map moved inside the span it maps into has the
    product's extraction residual; moved off it, a residual no lower."""
    rng = np.random.default_rng(28003)
    homs = [coefficient_arrows["S3->Z2"], coefficient_arrows["Z4->Z2"]]
    for v in gauged_bicharacters(homs, "cstar", "haar", 2805):
        c = v.source
        for hom, extract in _one_sided_homs(v):
            phi = getattr(hom, hom.map_name)
            images = nudged(phi.images, _map_span(hom), size, inside, rng)
            bent = SpanMap(phi.basis, images, phi.d, phi.dd)
            with pytest.raises(ExtractionFailure) as exc:
                extract(_unchecked(hom, bent))
            _, want = product_factor(c.W, c, bent, v.target, hom.leg)
            if inside:
                assert exc.value.residual == pytest.approx(want, rel=1e-9), hom
            else:
                assert exc.value.residual >= want, hom


def _slice_identity_arrows(arrows, coefficient_arrows, picture):
    """The bicharacters of the corpus arrows in picture, then Haar gauges of
    the coefficient arrows."""
    plain = gauged_bicharacters(arrows, picture, "plain", 0)
    return plain + gauged_bicharacters(list(coefficient_arrows.values()), picture, "haar", 3005)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_the_slice_identity_matches_the_operator_form(
    arrows, coefficient_arrows, count_calls, picture
):
    """left_from_bicharacter reads sliceIdentity off the slices of W and V,
    streaming nothing, to 1e-14 of the operator oracle."""
    calls = count_calls("conjugation_images")
    for v in _slice_identity_arrows(arrows, coefficient_arrows, picture):
        calls["conjugation_images"] = 0
        dl = left_from_bicharacter(v)
        assert calls["conjugation_images"] == 0, v
        want = streamed_slice_identity(v.V, dl)
        assert dl.residuals["sliceIdentity"] == pytest.approx(want, rel=0, abs=1e-14), v


@pytest.mark.parametrize("size", [1e-3, 1e-6])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_a_bicharacter_moved_inside_the_span_fails_the_slice_identity(
    arrows, coefficient_arrows, monkeypatch, count_calls, picture, size
):
    """V (1 (x) exp(i size h)), h hermitian in span(algA), stays on V's slice
    span, as algA is a *-algebra.  Against the left map of V itself (its
    coefficients C F), the slice identity reads it off the slices of W and
    of the moved V, rejects it, and never below the operator form."""
    rng = np.random.default_rng(3006)
    calls = count_calls("conjugation_images")
    real = homviews_module.hom_coefficients
    for v in _slice_identity_arrows(arrows, coefficient_arrows, picture):
        c, a = v.source, v.target
        noise = rng.standard_normal((a.dim,) * 2) + 1j * rng.standard_normal((a.dim,) * 2)
        h = np.tensordot(np.tensordot(a.algC.conj(), noise, axes=2), a.algC, axes=1)
        ev, vecs = np.linalg.eigh((h + h.conj().T) / np.linalg.norm(h + h.conj().T))
        u = kron(np.eye(c.dim), (vecs * np.exp(1j * size * ev)) @ vecs.conj().T)
        # the moved V keeps v's residuals, as if it had been checked
        moved = Bicharacter(c, a, v.V @ u, v.residuals)
        calls["conjugation_images"] = 0
        with monkeypatch.context() as patch:
            patch.setattr(homviews_module, "hom_coefficients", lambda _, leg: real(v, leg))
            with pytest.raises(RangeViolation, match="slice identity") as exc:
                left_from_bicharacter(moved)
        dl = left_from_bicharacter(v)
        got = exc.value.residual
        assert calls["conjugation_images"] == 0, v
        assert got > EQUATION_TOL, v
        assert got >= streamed_slice_identity(moved.V, dl) - 1e-15, v


_PICTURES = (
    (1, right_from_bicharacter, image_right_map, check_right_hom, bicharacter_from_right),
    (2, left_from_bicharacter, image_left_map, check_left_hom, bicharacter_from_left),
)
_READ_OFF_F = ("range", "coassocDiagram", "comoduleDiagram")


@pytest.mark.parametrize("gauge", ["plain", "haar"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_coefficient_forms_match_the_image_forms(arrows, picture, gauge):
    """Every residual read off the Hopf coefficients agrees to 1e-14 with
    the image-side oracle it replaces, on every corpus arrow: the one-sided
    homs with the images by conjugation (and the unitary antipodes on the
    left), the extraction from those images with the fitted factor
    (factor_slices), and sliceIdentity with its read off the images."""
    for v in gauged_bicharacters(arrows, picture, gauge, 4101):
        c, a = v.source, v.target
        for leg, make, image_map, check, extract in _PICTURES:
            hom, images = make(v), image_map(v)
            held = getattr(hom, hom.map_name)
            assert np.max(np.abs(held.images - images.images)) <= 1e-14, v
            want, coefficients = one_sided_residuals(c, a, images, leg)
            for key in _READ_OFF_F:
                assert hom.residuals[key] == pytest.approx(want[key], abs=1e-14), (key, v)
            assert (hom.residuals["injective"], hom.residuals["podles"]) == (True, True)
            assert (want["injective"], want["podles"]) == (True, True)
            from_images = check(c, a, images)
            got = extract(from_images)
            fitted, resid = factor_slices(c.W, c, a, coefficients, leg)
            assert np.max(np.abs(got.V - fitted)) <= 1e-14, v
            assert got.residuals["extraction"] == pytest.approx(resid, abs=1e-14), v
        want = slice_identity_residual(v, from_images)
        assert hom.residuals["sliceIdentity"] == pytest.approx(want, abs=1e-14), v


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_the_homs_of_accepted_rotations_pass_on_the_map_they_hold(arrows, picture):
    """Corpus arrows turned by exp(i size h), h a random hermitian of unit
    norm and size 1e-11 to 1e-9, that check_bicharacter accepts: both
    one-sided homs pass, their diagrams are those of the map they hold, C
    F, and the images by conjugation read them within V's operatorSource,
    the distance of the two maps that V's check gated; sliceIdentity never
    reads below its operator form, and the extraction from the images
    never below the product's."""
    rng = np.random.default_rng(4102)
    accepted = 0
    for v0 in gauged_bicharacters(arrows[::4], picture, "plain", 0):
        for size in (1e-11, 1e-10, 1e-9):
            try:
                v = q.check_bicharacter(rotated(v0.V, size, rng), v0.source, v0.target)
            except CalculusError:
                continue
            accepted += 1
            c, a, source = v.source, v.target, v.residuals["operatorSource"]
            for leg, make, image_map, _, _ in _PICTURES:
                images = image_map(v)
                want, coefficients = one_sided_residuals(c, a, images, leg)
                f = hopf_fit(c, coefficients, leg)
                _, got = push_slices(unitary_slices(c), a, f, coefficients, leg)
                _, oracle = product_factor(c.W, c, images, a, leg)
                assert got >= oracle - 1e-15, (size, v)
                hom = make(v)
                held, _ = one_sided_residuals(c, a, getattr(hom, hom.map_name), leg)
                for key in ("coassocDiagram", "comoduleDiagram"):
                    assert hom.residuals[key] == pytest.approx(held[key], abs=1e-14), (key, v)
                for key in _READ_OFF_F:
                    assert want[key] <= hom.residuals[key] + source, (key, size, v)
                if leg == 2:
                    want = streamed_slice_identity(v.V, hom)
                    assert hom.residuals["sliceIdentity"] >= want - 1e-15, (size, v)
    assert accepted >= 20


def test_nan_map_image_fails_the_extraction(va):
    v, _ = va
    for hom, extract in _one_sided_homs(v):
        phi = getattr(hom, hom.map_name)
        images = phi.images.copy()
        images[0, 1, 1] = np.nan
        bent = SpanMap(phi.basis, images, phi.d, phi.dd)
        with pytest.raises(ExtractionFailure) as exc:
            extract(_unchecked(hom, bent))
        assert np.isnan(exc.value.residual), hom


def test_one_sided_homs_carry_their_bicharacter(va, count_calls):
    v, _ = va
    calls = count_calls("bicharacter_from_right", "bicharacter_from_left")
    dr, dl = right_from_bicharacter(v), left_from_bicharacter(v)
    assert dr.bicharacter is v and dl.bicharacter is v
    # a hom checked from its map alone extracts its bicharacter once, on first use
    checked = check_right_hom(dr.source, dr.target, dr.deltaR)
    assert calls == {"bicharacter_from_right": 0, "bicharacter_from_left": 0}
    assert checked.bicharacter is checked.bicharacter
    assert residual_between(checked.bicharacter.V, v.V) <= 1e-9
    assert calls == {"bicharacter_from_right": 1, "bicharacter_from_left": 0}


def test_a_right_hom_is_read_once_by_its_check_and_extraction(va, monkeypatch):
    """check_right_hom reads the images of the map on their product span
    once, and the extraction of its bicharacter takes what that read kept."""
    v, _ = va
    c, a = v.source, v.target
    reads = []
    real = PairSpan.coefficients

    def counted(span, xs):
        if span.left is c.algC and span.right is a.algC:
            reads.append(len(xs))
        return real(span, xs)

    monkeypatch.setattr(PairSpan, "coefficients", counted)
    dr = check_right_hom(c, a, right_map_from_bicharacter(v))
    assert residual_between(dr.bicharacter.V, v.V) <= 1e-9
    assert reads == [len(c.algC)]


def test_right_hom_rejects_projection_tail(z2):
    # x -> x (x) E00 fails the comodule square since E00 is not grouplike
    c = c0(z2)
    p = np.diag([1.0, 0.0]).astype(complex)
    dr_map = SpanMap(tuple(c.algC), tuple(kron(x, p) for x in c.algC), 2, 4)
    with pytest.raises(RangeViolation):
        check_right_hom(c, c, dr_map)


def test_left_hom_rejects_projection_head(z2):
    c = c0(z2)
    p = np.diag([1.0, 0.0]).astype(complex)
    dl_map = SpanMap(tuple(c.algC), tuple(kron(p, x) for x in c.algC), 2, 4)
    with pytest.raises(RangeViolation):
        check_left_hom(c, c, dl_map)


def test_compatibility_squares(z2, z4, va):
    v, _ = va
    dl = left_from_bicharacter(v)
    dr = right_from_bicharacter(v)
    square, same = check_left_right_compatibility(dl, dr)
    assert square <= 1e-9
    assert same is True


def test_compatibility_detects_different_bicharacters(z2):
    # mixed square always commutes; the second square separates the pair
    c = c0(z2)
    ident = q.identity(c)
    trivial_v = q.check_bicharacter(np.eye(4), c, c)
    dl = left_from_bicharacter(ident)
    dr = right_from_bicharacter(trivial_v)
    square, same = check_left_right_compatibility(dl, dr)
    assert square <= 1e-9
    assert same is False


def test_compatibility_requires_common_source(z2, z4):
    dl = left_from_bicharacter(q.identity(c0(z2)))
    dr = right_from_bicharacter(q.identity(c0(z4)))
    with pytest.raises(ValueError):
        check_left_right_compatibility(dl, dr)


def test_dual_hopf_relation_for_group_homs(z2, z4, s3):
    homs = [
        q.group_hom(z4, z2, (0, 1, 0, 1)),
        q.group_hom(z2, z4, (0, 2)),
        q.group_hom(s3, z2, (0, 1, 1, 0, 0, 1)),
        q.group_hom(z2, s3, (0, 1)),
    ]
    for phi in homs:
        f = q.hom_to_hopf(phi, "c0")
        fhat = q.hom_to_hopf(phi, "cstar")
        assert dual_hopf_relation(f, fhat) <= 1e-9, phi.map


def test_dual_hopf_relation_separates_wrong_pairs(z2, z4):
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    wrong = q.hom_to_hopf(q.trivial_hom(z4, z2), "cstar")
    assert dual_hopf_relation(f, wrong) > 1e-3


def test_dual_hopf_relation_checks_dims(z2, z4, s3):
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    fhat = q.hom_to_hopf(q.group_hom(z2, s3, (0, 1)), "cstar")
    with pytest.raises(DimensionMismatch):
        dual_hopf_relation(f, fhat)


def test_check_hopf_hom_rejects_non_coalgebra_map(z2):
    # swapping the two points is a *-isomorphism of the function algebra
    # but no group map, so comultiplications are not intertwined
    c = c0(z2)
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    swap, resid = span_map_from_pairs([(e0, e1), (e1, e0)])
    assert resid <= 1e-12
    with pytest.raises(HopfHomViolation):
        check_hopf_hom(c, c, swap)


def _with_nan_image(hom_map, k=1):
    images = [m.copy() for m in hom_map.images]
    images[k][0, 0] = np.nan
    return SpanMap(hom_map.basis, tuple(images), hom_map.d, hom_map.dd)


def test_right_hom_with_a_nan_image_fails_closed(va):
    # the NaN sits in a later image, where a Python max() fold would drop it
    v, _ = va
    dr = right_from_bicharacter(v)
    with pytest.raises(RangeViolation):
        check_right_hom(v.source, v.target, _with_nan_image(dr.deltaR))


def test_left_hom_with_a_nan_image_fails_closed(va):
    v, _ = va
    dl = left_from_bicharacter(v)
    with pytest.raises(RangeViolation):
        check_left_hom(v.source, v.target, _with_nan_image(dl.deltaL))


def _gauged(qg, u):
    uu = kron(u, u)
    return q.build_from_unitary(uu @ qg.W @ uu.conj().T, qg.dim)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_one_sided_homs_are_coactions(z2, z4, picture):
    """A right hom of C to A is a coaction of A on C: check_coaction accepts
    deltaR, and the hom's range and comodule square are the comodule
    residuals of its map (the left hom likewise, with C on leg 2).  Haar
    gauging makes every residual a genuine rounding error, not an exact 0."""
    rng = np.random.default_rng(20261018)
    plain = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), picture))
    uc = unitary_group.rvs(plain.source.dim, random_state=rng)
    ua = unitary_group.rvs(plain.target.dim, random_state=rng)
    c, a = _gauged(plain.source, uc), _gauged(plain.target, ua)
    ucua = kron(uc, ua)
    v = q.check_bicharacter(ucua @ plain.V @ ucua.conj().T, c, a)
    dr, dl = right_from_bicharacter(v), left_from_bicharacter(v)
    for hom, phi, leg in ((dr, dr.deltaR, 1), (dl, dl.deltaL, 2)):
        co, _ = comodule_residuals(phi, c.algC, a, leg)
        assert (co["injective"], co["dense"]) == (True, True)
        # the hom reads its coefficients C F, the comodule check their images
        assert co["coassociativity"] == pytest.approx(hom.residuals["comoduleDiagram"], abs=1e-14)
        assert 0 < co["range"] <= 1e-14 and 0 < co["coassociativity"] <= 1e-14
        assert 0 < hom.residuals["range"] <= 1e-14
    coaction = check_coaction(dr.deltaR, a)
    # check_coaction reads deltaR on its own basis, algC, and computes the
    # same comodule residuals
    co, _ = comodule_residuals(dr.deltaR, c.algC, a, 1)
    for key in ("range", "coassociativity"):
        assert coaction.residuals[key] == co[key]


def test_stacked_residuals_match_the_per_element_loops(z2, z4, s3):
    """The Hopf-hom axioms and the comodule rank conditions, computed on whole
    stacks, against loops over basis elements and pairs, on a generic map
    whose residuals are far from zero.  Its images are off the target
    span, where intertwining reads a certified upper bound of the operator
    residual."""
    rng = np.random.default_rng(71)
    c, a = c0(z4), q.qg_from_group(s3, "cstar")
    images = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    f = SpanMap(c.algC, images, 4, 6)
    got = HopfHom(c, a, f).residuals
    pairs = [(x, f(x)) for x in c.algC]
    want = {
        "range": max(membership_residual(a.algC, fx) for _, fx in pairs),
        "star": max(residual_between(f(x.conj().T), fx.conj().T) for x, fx in pairs),
        "multiplicative": max(
            residual_between(f(x @ y), fx @ fy) for x, fx in pairs for y, fy in pairs
        ),
    }
    for key, value in want.items():
        assert value > 1e-3
        assert got[key] == pytest.approx(value, rel=1e-12), key
    oracle = operator_intertwining(f, c, a)
    assert oracle > 1e-3 and got["intertwining"] >= oracle
    # injectivity and the Podles density of a coaction-shaped map, as ranks
    phi = SpanMap(c.algC, rng.standard_normal((4, 8, 8)) + 0j, 4, 8)
    for leg in (1, 2):
        res, _ = comodule_residuals(phi, c.algC, c0(z2), leg)
        gx = [phi(x) for x in c.algC]
        eye = np.eye(4)
        products = [
            vec(y @ (kron(eye, b) if leg == 1 else kron(b, eye))) for y in gx for b in c0(z2).algC
        ]
        assert res["injective"] == (numerical_rank([vec(y) for y in gx]) == 4)
        assert res["dense"] == (numerical_rank(products) == 8)


def _coefficients(phi, c, a, leg):
    """phi's images of c.algC as coefficients on algC (x) algA, C on leg."""
    span = PairSpan(*((c.algC, a.algC) if leg == 1 else (a.algC, c.algC)))
    return span.coefficients(phi.apply_stack(c.algC))


@pytest.mark.parametrize("gauge", ["plain", "haar"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_diagram_residuals_match_the_operator_loops(
    arrows, picture, gauge, diagram_oracles, coassociativity_oracle
):
    """Every commuting diagram read off coefficient tensors agrees with the
    per-element operator loop of tests/conftest.py, arrow by arrow, and the
    Podles and injectivity flags are the operator ranks.  The right and left
    maps are within 1e-14 of their Kronecker-product forms."""
    comodule = diagram_oracles["comodule"]
    coassoc = diagram_oracles["coassocDiagram"]
    compat = diagram_oracles["compatibility"]
    qgs = {}
    for v in gauged_bicharacters(arrows, picture, gauge, 1515):
        c, a = v.source, v.target
        qgs.update({id(c): c, id(a): a})
        dr, dl = right_from_bicharacter(v), left_from_bicharacter(v)
        for m, oracle in ((dr.deltaR, kron_right_map), (dl.deltaL, kron_left_map)):
            assert np.max(np.abs(m.images - oracle(v).images)) <= 1e-14, oracle.__name__
        for hom, m, leg in ((dr, dr.deltaR, 1), (dl, dl.deltaL, 2)):
            want = comodule(m, c.algC, a, leg)
            got = hom.residuals
            assert got["comoduleDiagram"] == pytest.approx(want["coassociativity"], abs=1e-14)
            assert got["coassocDiagram"] == pytest.approx(coassoc(c, a, m, leg), abs=1e-14)
            assert (got["injective"], got["podles"]) == (want["injective"], want["dense"])
        square, same = check_left_right_compatibility(dl, dr)
        want_square, want_second = compat(dl, dr)
        assert square == pytest.approx(want_square, abs=1e-14)
        cc = structure_constants(c)
        second = diagram_residual(
            (cc, 2, _coefficients(dl.deltaL, c, a, 2)), (cc, 1, _coefficients(dr.deltaR, c, a, 1))
        )
        assert second == pytest.approx(want_second, abs=1e-14)
        assert same == (want_second <= EQUATION_TOL)
    for qg in qgs.values():
        assert coassociativity_residual(qg) == pytest.approx(coassociativity_oracle(qg), abs=1e-14)


@pytest.mark.parametrize("leg", [1, 2])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_rank_flags_match_the_operator_ranks_on_rank_deficient_maps(
    z2, z4, picture, leg, diagram_oracles
):
    """In-span maps of C into C (x) A whose coefficients have full rank, rank
    one, or all lie on one element of A's basis: the injectivity and Podles
    flags equal the ranks of the images and of the products."""
    rng = np.random.default_rng(1516)
    c, a = q.qg_from_group(z4, picture), q.qg_from_group(z2, picture)
    span = PairSpan(*((c.algC, a.algC) if leg == 1 else (a.algC, c.algC)))
    n_c, n_a = len(c.algC), len(a.algC)
    shape = (n_c, n_c, n_a) if leg == 1 else (n_c, n_a, n_c)
    generic = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rank_one = np.einsum("k,ij->kij", generic[:, 0, 0], generic[0])
    one_a = generic.copy()
    # keep only A's first basis element
    if leg == 1:
        one_a[:, :, 1:] = 0
    else:
        one_a[:, 1:, :] = 0
    flags = set()
    for coeff in (generic, rank_one, one_a):
        phi = SpanMap(c.algC, span.combine(coeff), c.dim, c.dim * a.dim)
        got, _ = comodule_residuals(phi, c.algC, a, leg)
        want = diagram_oracles["comodule"](phi, c.algC, a, leg)
        assert (got["injective"], got["dense"]) == (want["injective"], want["dense"])
        flags.add((got["injective"], got["dense"]))
    assert {(True, True), (False, False)} <= flags
    # in c0, A's first basis element is a minimal projection, so the
    # products of an injective map on it miss the rest of A
    assert (True, False) in flags or picture == "cstar"


def _gauged_arrow(z2, z4, seed):
    """A Haar-gauged arrow from C0(Z2) to C0(Z4), with its right and left homs."""
    rng = np.random.default_rng(seed)
    plain = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0"))
    uc = unitary_group.rvs(plain.source.dim, random_state=rng)
    ua = unitary_group.rvs(plain.target.dim, random_state=rng)
    c, a = _gauged(plain.source, uc), _gauged(plain.target, ua)
    ucua = kron(uc, ua)
    v = q.check_bicharacter(ucua @ plain.V @ ucua.conj().T, c, a)
    return c, a, right_from_bicharacter(v), left_from_bicharacter(v)


@pytest.mark.parametrize("leg", [1, 2])
def test_image_rotated_inside_the_span_fails_a_diagram(z2, z4, leg):
    """One image turned by 1e-6 within span(algC) (x) span(algA) stays in the
    span but breaks the comodule and coassociativity squares."""
    rng = np.random.default_rng(1517)
    c, a, dr, dl = _gauged_arrow(z2, z4, 1517)
    phi, check = (dr.deltaR, check_right_hom) if leg == 1 else (dl.deltaL, check_left_hom)
    span = PairSpan(*((c.algC, a.algC) if leg == 1 else (a.algC, c.algC)))
    coeff = _coefficients(phi, c, a, leg)
    n = coeff[1].size
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T, 2)
    coeff[1] = (scipy.linalg.expm(1e-6j * h) @ coeff[1].reshape(-1)).reshape(coeff[1].shape)
    turned = SpanMap(c.algC, span.combine(coeff), c.dim, c.dim * a.dim)
    res, _ = one_sided_residuals(c, a, turned, leg)
    assert res["range"] <= 1e-14
    assert max(res["coassocDiagram"], res["comoduleDiagram"]) > 1e-8
    with pytest.raises(RangeViolation, match="Diagram fails"):
        check(c, a, turned)


@pytest.mark.parametrize("leg", [1, 2])
def test_image_pushed_off_the_span_fails_range_first(z2, z4, leg, diagram_oracles):
    """One image moved 1e-6 off span(algC) (x) span(algA): the range gate,
    checked before the squares, rejects it.  The squares are measured on
    the span, so they stay at rounding level while the operator loop sees
    the off-span part."""
    rng = np.random.default_rng(1518)
    c, a, dr, dl = _gauged_arrow(z2, z4, 1518)
    phi, check = (dr.deltaR, check_right_hom) if leg == 1 else (dl.deltaL, check_left_hom)
    span = PairSpan(*((c.algC, a.algC) if leg == 1 else (a.algC, c.algC)))
    images = phi.apply_stack(c.algC)
    n = c.dim * a.dim
    z = rng.standard_normal((1, n, n)) + 1j * rng.standard_normal((1, n, n))
    z -= span.combine(span.coefficients(z))
    images[1] += 1e-6 * z[0] / np.linalg.norm(z) * np.linalg.norm(images[1])
    pushed = SpanMap(c.algC, images, c.dim, n)
    res, _ = one_sided_residuals(c, a, pushed, leg)
    assert 1e-7 < res["range"] < 1e-5
    assert max(res["coassocDiagram"], res["comoduleDiagram"]) <= 1e-14
    assert diagram_oracles["coassocDiagram"](c, a, pushed, leg) > 1e-8
    with pytest.raises(RangeViolation, match="images escape") as exc:
        check(c, a, pushed)
    assert exc.value.residual == res["range"]
