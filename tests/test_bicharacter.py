"""Bicharacter axioms, category laws, and the duality functor."""

import json

from hypothesis import event, given, settings, strategies as st
import numpy as np
import pytest

import qgcalc as q
import qgcalc.bicharacter as bicharacter_module
import qgcalc.qgroup as qgroup_module
from qgcalc.bicharacter import bicharacter_residuals, operator_equation
from qgcalc.cli import main
from qgcalc.coactions import check_corepresentation
from qgcalc.homviews import left_from_bicharacter
from qgcalc.errors import (
    BicharacterViolation,
    CalculusError,
    CoactionViolation,
    ExtractionFailure,
    HopfHomViolation,
    NotUnitary,
    RangeViolation,
    SourceTargetMismatch,
)
from qgcalc.cli import _bicharacter_battery
from qgcalc.qgroup import (
    EQUATION_TOL,
    coassociativity_residual,
    conjugation_coefficients,
    corep_law_residual,
    dual_comultiplication,
    product_constants,
    slice_coefficients,
    unitary_slices,
)
from qgcalc.report import Report, render_text
from qgcalc.serialize import bicharacter_to_obj, write_json
from qgcalc.tensorleg import (
    LegSpace,
    PairSpan,
    SpanMap,
    flip_unitary,
    frob,
    kron,
    residual_between,
)
import conftest
from conftest import (
    apply_map_to_leg,
    delta_map,
    dihedral_group,
    dual_side_residuals,
    embed_on_legs,
    extract_trivial_legs,
    gauged_bicharacters,
    haar_unitary,
    product_composite,
    rotated,
    span_map_from_pairs,
    streamed_bicharacter,
    streamed_corep_law,
    streamed_pentagon,
)

RNG = np.random.default_rng(91514)

EQUATIONS = ("comultSource", "comultTarget", "operatorSource", "operatorTarget")


def c0(g):
    return q.qg_from_group(g, "c0")


def cstar(g):
    return q.qg_from_group(g, "cstar")


@pytest.fixture(scope="module")
def homs(z2, z4, s3):
    return {
        "q42": q.group_hom(z4, z2, (0, 1, 0, 1)),
        "i24": q.group_hom(z2, z4, (0, 2)),
        "sgn": q.group_hom(s3, z2, (0, 1, 1, 0, 0, 1)),
        "t23": q.group_hom(z2, s3, (0, 1)),
    }


def test_identity_arrow_is_w(z4):
    ident = q.identity(c0(z4))
    np.testing.assert_array_equal(ident.V, c0(z4).W)
    assert max(ident.residuals.values()) <= 1e-12


def test_hopf_hom_bicharacter_entry_rule(z2, z4, homs):
    """Pulled back along q: Z4 -> Z2 the unitary is block diagonal over the
    second leg: V[(i,g),(j,g')] = delta_{g,g'} delta_{i, j+q(g)}."""
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    expect = np.zeros((8, 8), dtype=complex)
    for g in range(4):
        for i in range(2):
            for j in range(2):
                if i == (j + homs["q42"].map[g]) % 2:
                    expect[i * 4 + g, j * 4 + g] = 1.0
    np.testing.assert_array_equal(va.V, expect)
    assert va.source.same_unitary(c0(z2))
    assert va.target.same_unitary(c0(z4))


def test_from_hopf_hom_rejects_non_hom(z2):
    # the zero map is linear but not unital, so it is no Hopf *-morphism
    c2 = c0(z2)
    zero, _ = span_map_from_pairs([(x, np.zeros((2, 2), dtype=complex)) for x in c2.algC])
    with pytest.raises(HopfHomViolation):
        q.from_hopf_hom(q.HopfHom(c2, c2, zero))


def test_from_hopf_hom_gates_like_check_hopf_hom(z2, z4):
    # f(1) = (1 + 3e-10) 1 misses the unital tolerance, 1e-10, while every
    # residual stays inside the looser 1e-9
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    m = f.map
    scaled = SpanMap(m.basis, tuple((1 + 3e-10) * y for y in m.images), m.d, m.dd)
    with pytest.raises(HopfHomViolation, match="^unital axiom fails") as exc:
        q.from_hopf_hom(q.HopfHom(f.source, f.target, scaled))
    assert exc.value.tolerance == q.PENTAGON_TOL
    with pytest.raises(HopfHomViolation, match="^unital axiom fails"):
        q.check_hopf_hom(f.source, f.target, scaled)


def test_random_unitary_is_not_a_bicharacter(z2):
    c2 = c0(z2)
    u, _ = np.linalg.qr(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
    with pytest.raises(BicharacterViolation):
        q.check_bicharacter(u, c2, c2)


def test_flip_is_not_a_bicharacter(z2):
    c2 = c0(z2)
    with pytest.raises(BicharacterViolation):
        q.check_bicharacter(flip_unitary(2, 2), c2, c2)


def test_non_unitary_rejected(z2):
    c2 = c0(z2)
    with pytest.raises(ValueError):
        q.check_bicharacter(np.ones((4, 4)), c2, c2)
    with pytest.raises(ValueError):
        q.check_bicharacter(np.eye(8), c2, c2)


def test_nan_v_fails_closed(z3):
    c3 = c0(z3)
    v = c3.W.copy()
    v[2, 5] = np.nan
    with pytest.raises(NotUnitary):
        q.check_bicharacter(v, c3, c3)
    # unchecked, it reads a NaN rInvariance, which the report fails
    unchecked = q.Bicharacter(c3, c3, v, {})
    assert np.isnan(q.check_R_invariance(unchecked))
    report = Report("nan")
    _bicharacter_battery(report, "", unchecked)
    assert not report.passed
    assert render_text(report).splitlines()[1].startswith("  FAIL rInvariance: nan")


@pytest.mark.parametrize(
    "key", ["comultSource", "comultTarget", "operatorSource", "operatorTarget", "membership"]
)
def test_nan_residual_fails_closed(z3, monkeypatch, key):
    c3 = c0(z3)

    def nan_residuals(v, c, a):
        res = bicharacter_residuals(v, c, a)
        res[key] = float("nan")
        return res

    monkeypatch.setattr(bicharacter_module, "bicharacter_residuals", nan_residuals)
    with pytest.raises(BicharacterViolation):
        q.check_bicharacter(c3.W, c3, c3)


def test_residuals_match_the_embedding_oracle(homs):
    """All four equation residuals of a slightly rotated arrow, against the
    same formulas written with explicit Kronecker embeddings."""
    _check_against_the_embedding_oracle(homs)


def test_residuals_match_the_embedding_oracle_one_index_per_slab(homs, monkeypatch):
    monkeypatch.setattr(conftest, "SLAB_ENTRIES", 1)
    _check_against_the_embedding_oracle(homs)


def _check_against_the_embedding_oracle(homs):
    """The streamed oracle matches the explicit Kronecker embeddings, so
    the slab kernel stays covered, and the slice forms read between it and
    3x it: the rotation is off the span, so they read the certified bound."""
    va = q.from_hopf_hom(q.hom_to_hopf(homs["sgn"], "c0"))
    c, a = va.source, va.target
    h = RNG.standard_normal(va.V.shape) + 1j * RNG.standard_normal(va.V.shape)
    ev, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    v = (vecs * np.exp(1e-3j * ev)) @ vecs.conj().T @ va.V
    got = bicharacter_residuals(v, c, a)
    streamed = streamed_bicharacter(v, c, a)

    sp = LegSpace((c.dim, a.dim))
    cca = LegSpace((c.dim, c.dim, a.dim))
    caa = LegSpace((c.dim, a.dim, a.dim))
    v23, v13c = embed_on_legs(v, cca, (2, 3)), embed_on_legs(v, cca, (1, 3))
    v12, v13a = embed_on_legs(v, caa, (1, 2)), embed_on_legs(v, caa, (1, 3))
    wc12, wa23 = embed_on_legs(c.W, cca, (1, 2)), embed_on_legs(a.W, caa, (2, 3))
    on_c = apply_map_to_leg(v, sp, 1, delta_map(c.dual))[0]
    on_a = apply_map_to_leg(v, sp, 2, delta_map(a))[0]
    want = {
        "comultSource": residual_between(on_c, v23 @ v13c),
        "comultTarget": residual_between(on_a, v12 @ v13a),
        "operatorSource": residual_between(v23 @ wc12, wc12 @ v13c @ v23),
        "operatorTarget": residual_between(wa23 @ v12, v12 @ v13a @ wa23),
    }
    for key, value in want.items():
        assert value > 1e-6
        assert streamed[key] == pytest.approx(value, abs=1e-14)
        assert streamed[key] - 1e-15 <= got[key] <= 3 * streamed[key], key


def test_three_leg_residuals_are_exact_on_the_corpus(corpus, coassociativity_oracle):
    """On the 26 corpus quantum groups (0/1 permutation W) every three-leg
    product only copies entries, so the operator forms of the pentagon and
    of coassociativity and the operator-form residuals of the identity arrow
    read exactly 0.0.  The comultiplication forms, the pentagon and
    coassociativity from the structure constants included, go through the
    QR bases of the span maps and stay at rounding level, and so do all
    four equations read off the slices, bounds included."""
    count = 0
    for g in corpus.values():
        for qg in (c0(g), cstar(g)):
            count += 1
            assert streamed_pentagon(qg.W, qg.dim) == 0.0
            assert qg.residuals["pentagon"] <= 1e-14
            assert coassociativity_oracle(qg) == 0.0
            assert coassociativity_residual(qg) <= 1e-15
            oracle = streamed_bicharacter(qg.W, qg, qg)
            assert oracle["operatorSource"] == 0.0 and oracle["operatorTarget"] == 0.0
            assert oracle["comultSource"] <= 1e-15 and oracle["comultTarget"] <= 1e-15
            res = bicharacter_residuals(qg.W, qg, qg)
            assert all(res[key] <= 1e-14 for key in EQUATIONS), res
    assert count == 26


def _gauged_arrows(corpus, picture):
    """The Haar-gauged S3 identity arrow and Z4 -> Z2 Hopf arrow."""
    s3, z4, z2 = corpus["S3"], corpus["Z4"], corpus["Z2"]
    homs = [q.group_hom(s3, s3, tuple(range(6))), q.group_hom(z4, z2, (0, 1, 0, 1))]
    return gauged_bicharacters(homs, picture, "haar", 2929)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_each_bicharacter_path_is_taken_and_gated(corpus, count_calls, picture):
    """The four equations and the corepresentation law are read off the
    slices of every probe, with no streamed residual.  A bicharacter lies
    in span(dual algC) (x) span(algC), and they agree with the operator
    forms to 1e-14, never below them.  So does V exp(i s H) for a hermitian
    H in that span, a *-algebra: it stays in the span and fails the
    equations by about s, which the slice forms read as the operator forms
    do.  A 1e-6 rotation
    of V, the flip and a Haar unitary are off the span: the slice forms
    read the certified bound, never below the operator forms and within 3x
    of them on the rotation, and fail."""
    rng = np.random.default_rng(2931)
    calls = count_calls("conjugation_images")
    for v in _gauged_arrows(corpus, picture):
        c, a = v.source, v.target
        noise = rng.standard_normal(v.V.shape) + 1j * rng.standard_normal(v.V.shape)
        span = PairSpan(c.dual.algC, a.algC)
        h = span.combine(span.coefficients(noise[None]))[0]
        ev, vecs = np.linalg.eigh((h + h.conj().T) / np.linalg.norm(h + h.conj().T))
        inside = [v.V @ (vecs * np.exp(1j * s * ev)) @ vecs.conj().T for s in (1e-3, 1e-8)]
        # (probe, how far above the oracle it may read off the span or None in it, fails)
        probes = (
            (v.V, None, False),
            (inside[0], None, True),
            (inside[1], None, True),
            (rotated(v.V, 1e-6, rng), 3.0, True),
            (flip_unitary(c.dim, a.dim), np.inf, True),
            (haar_unitary(c.dim * a.dim, rng), np.inf, True),
        )
        for x, above, fails in probes:
            calls["conjugation_images"] = 0
            got = dict(bicharacter_residuals(x, c, a), law=corep_law_residual(x, a))
            assert calls["conjugation_images"] == 0
            want = dict(streamed_bicharacter(x, c, a), law=streamed_corep_law(x, a))
            for key, value in want.items():
                if above is None:
                    assert value - 1e-15 <= got[key], key
                    assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-14), key
                else:
                    assert value - 1e-15 <= got[key] <= above * value, key
            assert (max(got[key] for key in EQUATIONS) > EQUATION_TOL) == fails
        calls["conjugation_images"] = 0
        check_corepresentation(v.V, a)
        check_corepresentation(c.W, c)
        assert calls["conjugation_images"] == 0


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_the_slice_forms_never_read_below_the_operator_forms(corpus, picture):
    """Where V is off the span the forms stay at or above the operator
    forms: the bounds on the truncations cover what the slices drop, within
    3x."""
    rng = np.random.default_rng(2932)
    for v in _gauged_arrows(corpus, picture):
        c, a = v.source, v.target
        for size in (1e-4, 1e-10):
            x = rotated(v.V, size, rng)
            got = dict(bicharacter_residuals(x, c, a), law=corep_law_residual(x, a))
            want = dict(streamed_bicharacter(x, c, a), law=streamed_corep_law(x, a))
            for key, value in want.items():
                assert value <= got[key] <= 3 * value, (key, size)


def _nan_on(real, dim, at=0):
    """real, except that the array at index at of what it returns (the
    first, or the only one) for an algebra of dimension dim, or of the
    quantum group of that dimension, holds a NaN."""

    def patched(*args):
        # slice_coefficients(x, h, basis) or f(qg)
        if len(args) == 1:
            reads = args[0].dim
        else:
            reads = args[2].shape[1] if np.ndim(args[2]) else args[1].dim
        out = real(*args)
        if reads != dim:
            return out
        parts = list(out) if isinstance(out, tuple) else [out]
        parts[at] = np.array(parts[at])
        parts[at].flat[0] = np.nan
        return tuple(parts) if isinstance(out, tuple) else parts[0]

    return patched


# where the dual side is read, off the source with no dual: its slices
# X_k, whose span is the dual's algC, and C_hat and its Gram matrix, the
# first two arrays dual_comultiplication returns
_READERS = {
    ("slice_coefficients", "dual"): (bicharacter_module, "unitary_slices", 0),
    ("structure_constants", "dual"): (bicharacter_module, "dual_comultiplication", 0),
    ("comultiplication_gram", "dual"): (bicharacter_module, "dual_comultiplication", 1),
}
_ALL = EQUATIONS + ("membership",)


@pytest.mark.parametrize(
    "name, side, nan_keys",
    [
        ("slice_coefficients", "target", _ALL),
        ("slice_coefficients", "dual", ("comultSource", "operatorSource", "membership")),
        ("structure_constants", "target", ("comultTarget", "operatorTarget")),
        ("structure_constants", "dual", ("comultSource",)),
        ("comultiplication_gram", "target", ("comultTarget", "operatorTarget")),
        ("comultiplication_gram", "dual", ("comultSource",)),
        ("product_constants", "target", ("operatorSource",)),
    ],
)
def test_a_nan_in_what_the_slice_forms_read_fails_closed(
    corpus, monkeypatch, tmp_path, capsys, name, side, nan_keys
):
    """A NaN in V's slice coefficients, in C, in an off-span Gram matrix, in
    the product constants N, or in what the source's dual side is read off
    (its slices, and C_hat and g_hat read off them) reads as a NaN
    residual, which check_bicharacter, check_corepresentation and `verify …
    bicharacter` reject.  It is injected where the forms read it, as a NaN
    inside V is rejected by unitarity first (_READERS).  On the gauged c0
    arrow of Z4 -> Z2 the source is c0(Z2), so its dual side reads algebras
    of dimension 2 and the target, c0(Z4), of dimension 4."""
    (_, v) = _gauged_arrows(corpus, "c0")
    c, a = v.source, v.target
    assert (c.dim, a.dim) == (2, 4)
    path = tmp_path / "v.json"
    write_json(str(path), bicharacter_to_obj(v))
    dim = a.dim if side == "target" else c.dim
    bicharacter_residuals(v.V, c, a)  # what is held is read outside the patch
    with monkeypatch.context() as patch:
        module, attr, at = _READERS.get((name, side), (bicharacter_module, name, 0))
        patch.setattr(module, attr, _nan_on(getattr(module, attr), dim, at))
        res = bicharacter_residuals(v.V, c, a)
        assert {key for key in _ALL if np.isnan(res[key])} == set(nan_keys)
        with pytest.raises(BicharacterViolation):
            q.check_bicharacter(v.V, c, a)
        code = main(["verify", str(path), "bicharacter"])
        captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    failed = {c["name"] for c in json.loads(captured.out)["checks"] if not c["pass"]}
    # rInvariance reads V's Hopf coefficients, off the X_k
    also = {"rInvariance"} if "membership" in nan_keys else set()
    assert failed == set(nan_keys) | also
    if "comultTarget" in nan_keys:
        with monkeypatch.context() as patch:
            patch.setattr(qgroup_module, name, _nan_on(getattr(qgroup_module, name), dim))
            assert np.isnan(corep_law_residual(v.V, a))
            with pytest.raises(CoactionViolation):
                check_corepresentation(v.V, a)


def test_a_nan_entry_in_the_input_reads_nan_on_the_slice_path(corpus):
    """One NaN entry of V makes its slice coefficients and truncation NaN,
    so all four equations, the corepresentation law and the Hopf
    coefficients of the left hom read NaN, and check_corepresentation and
    left_from_bicharacter reject it."""
    (_, v) = _gauged_arrows(corpus, "c0")
    c, a = v.source, v.target
    x = v.V.copy()
    x[1, 2] = np.nan
    res = bicharacter_residuals(x, c, a)
    assert all(np.isnan(res[key]) for key in EQUATIONS), res
    assert np.isnan(corep_law_residual(x, a))
    with pytest.raises(CoactionViolation):
        check_corepresentation(x, a)
    # x keeps v's residuals, as if it had been checked
    with pytest.raises(RangeViolation) as exc:
        left_from_bicharacter(q.Bicharacter(c, a, x, v.residuals))
    assert np.isnan(exc.value.residual)


def test_abstract_and_operator_equations_agree(z2, z4, s3, homs):
    """The comultiplication form and the operator form are computed by
    different arithmetic; they must pass and fail together."""
    eq_keys = ("comultSource", "comultTarget")
    op_keys = ("operatorSource", "operatorTarget")
    subjects = [q.identity(c0(g)) for g in (z2, z4, s3)]
    subjects += [q.from_hopf_hom(q.hom_to_hopf(homs["q42"], pic)) for pic in ("c0", "cstar")]
    for v in subjects:
        res = bicharacter_residuals(v.V, v.source, v.target)
        assert max(res[k] for k in eq_keys) <= 1e-9
        assert max(res[k] for k in op_keys) <= 1e-9
        assert res["membership"] <= 1e-8
    # and a matrix failing one family fails the other
    c2 = c0(z2)
    u, _ = np.linalg.qr(RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4)))
    res = bicharacter_residuals(u, c2, c2)
    assert max(res[k] for k in eq_keys) > 1e-6
    assert max(res[k] for k in op_keys) > 1e-6


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_operator_target_reads_the_delta_the_target_holds(corpus, count_calls, gauge):
    """operatorTarget conjugates by the target's W, whose conjugation is the
    target's Delta: it reads the C and g the target holds, and
    bicharacter_residuals makes one conjugation_coefficients call,
    operatorSource's.  On the 13 corpus groups and D5, in both pictures,
    plain and Haar-gauged, the held pair is the one that call recomputes off
    W's slices, bit for bit, and so is operatorTarget, here on the identity
    arrow."""
    rng = np.random.default_rng(4502)
    calls = count_calls("conjugation_coefficients")
    subjects = 0
    for g in list(corpus.values()) + [dihedral_group(5)]:
        for pic in ("c0", "cstar"):
            a = q.qg_from_group(g, pic)
            if gauge == "haar":
                u = haar_unitary(a.dim, rng)
                uu = kron(u, u)
                a = q.build_from_unitary(uu @ a.W @ uu.conj().T, a.dim)
            dual_comultiplication(a)  # Delta_hat is read once, outside the count
            calls["conjugation_coefficients"] = 0
            res = bicharacter_residuals(a.W, a, a)
            assert calls["conjugation_coefficients"] == 1
            xs, trunc = unitary_slices(a)
            c, g_off = conjugation_coefficients(xs, a.algC, product_constants(a)[0])
            np.testing.assert_array_equal(c, a.structure)
            np.testing.assert_array_equal(g_off, a.gram)
            z = slice_coefficients(a.W, a.dim, a.algC)
            want = operator_equation(z, (c, g_off, trunc), z, a.dim, a, frob(a.W))
            assert res["operatorTarget"] == want
            subjects += 1
    assert subjects == 28


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_the_dual_side_is_read_off_the_source_slices(corpus, arrows, gauge):
    """comultSource, membership and rInvariance are read off the source's
    slices and V's Hopf coefficients, with no dual, and agree with the forms
    read off the dual (dual_side_residuals) on the identity arrows of the 13
    corpus groups and D5 and on the corpus arrows, in both pictures, plain
    and Haar-gauged, to 1e-14.  The Hopf coefficients a checked V keeps are
    the fit its residuals read, bit for bit a fresh one."""
    groups = list(corpus.values()) + [dihedral_group(5)]
    homs = [q.group_hom(g, g, tuple(range(g.order))) for g in groups] + list(arrows)
    count = 0
    for picture in ("c0", "cstar"):
        for v in gauged_bicharacters(homs, picture, gauge, 4701):
            c, a = v.source, v.target
            got = dict(bicharacter_residuals(v.V, c, a), rInvariance=q.check_R_invariance(v))
            for key, value in dual_side_residuals(v.V, c, a).items():
                assert got[key] == pytest.approx(value, rel=0, abs=1e-14), key
            fresh = bicharacter_module._hopf_fit(c, *slice_coefficients(v.V, c.dim, a.algC))
            assert np.array_equal(v.hopf[0], fresh[0]) and v.hopf[1] == fresh[1]
            count += 1
    assert count == 2 * len(homs)


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_the_dual_side_forms_never_read_below_their_oracles(corpus, picture):
    """On 1e-6 and 1e-9 rotations of the gauged S3 identity arrow and Z4 ->
    Z2 arrow, off the span, membership and rInvariance read at or above the
    forms read off the dual and comultSource at or above its operator form,
    the exact residuals there, each within 3x."""
    rng = np.random.default_rng(4702)
    for v in _gauged_arrows(corpus, picture):
        c, a = v.source, v.target
        for size in (1e-6, 1e-9):
            x = rotated(v.V, size, rng)
            got = bicharacter_residuals(x, c, a)
            got["rInvariance"] = q.check_R_invariance(q.Bicharacter(c, a, x, {}))
            want = dual_side_residuals(x, c, a)
            want["comultSource"] = streamed_bicharacter(x, c, a)["comultSource"]
            for key, value in want.items():
                assert value - 1e-15 <= got[key] <= 3 * value, (key, size, got[key], value)


# --- composition --------------------------------------------------------


def test_identity_laws(z2, z4, homs):
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    left = q.compose(q.identity(va.source), va)
    right = q.compose(va, q.identity(va.target))
    assert residual_between(left.V, va.V) <= 1e-9
    assert residual_between(right.V, va.V) <= 1e-9


def test_trivial_composite_is_the_identity_matrix(homs):
    # q after i kills Z2, so the composite bicharacter collapses to 1 (x) 1
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    vb = q.from_hopf_hom(q.hom_to_hopf(homs["i24"], "c0"))
    comp = q.compose(va, vb)
    np.testing.assert_allclose(comp.V, np.eye(4), atol=1e-12)
    assert comp.residuals["extraction"] <= 1e-12

    wa = q.from_hopf_hom(q.hom_to_hopf(homs["i24"], "cstar"))
    wb = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "cstar"))
    comp2 = q.compose(wa, wb)
    np.testing.assert_allclose(comp2.V, np.eye(4), atol=1e-12)


def test_composition_is_associative(homs):
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    vb = q.from_hopf_hom(q.hom_to_hopf(homs["i24"], "c0"))
    vc = q.from_hopf_hom(q.hom_to_hopf(homs["sgn"], "c0"))
    lhs = q.compose(q.compose(va, vb), vc)
    rhs = q.compose(va, q.compose(vb, vc))
    assert residual_between(lhs.V, rhs.V) <= 1e-9


@pytest.mark.parametrize("gauge", ["plain", "haar"])
@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_compose_matches_the_three_leg_product_on_every_composable_pair(
    arrows, picture, gauge
):
    """The pushforward of V along the second arrow is the factor of the
    operator oracle on every composable pair of corpus arrows, and its
    certified residual never reads below the oracle's."""
    bics = gauged_bicharacters(arrows, picture, gauge, 3202)
    pairs = [(v, w) for v in bics for w in bics if v.target.same_unitary(w.source)]
    assert len(pairs) == 933
    for v, w in pairs:
        got = q.compose(v, w)
        want, resid = product_composite(v, w)
        np.testing.assert_allclose(got.V, want, rtol=0, atol=1e-14)
        assert got.residuals["extraction"] >= resid - 1e-15


def test_compose_rejects_a_rotated_arrow(z4):
    """A hand-made arrow 1e-6 off W is no bicharacter: its pushforward's
    certified residual fails extraction, and reads above the oracle's."""
    c = c0(z4)
    bent_w = rotated(c.W, 1e-6, np.random.default_rng(3204))
    bent = bicharacter_module.Bicharacter(c, c, bent_w, {})
    _, want = product_composite(bent, q.identity(c))
    with pytest.raises(ExtractionFailure, match="middle leg") as exc:
        q.compose(bent, q.identity(c))
    assert exc.value.residual >= want > EQUATION_TOL


def _composes_with_the_identity(v):
    """compose(v, 1) and compose(1, v) both pass, each with a certified
    residual no lower than the three-leg product's."""
    c, a = v.source, v.target
    for first, second in ((v, q.identity(a)), (q.identity(c), v)):
        got = q.compose(first, second)
        _, want = product_composite(first, second)
        assert want - 1e-15 <= got.residuals["extraction"] <= EQUATION_TOL


def test_a_rotated_identity_composes_with_the_identity_on_either_side(z4):
    """The Z4 c0 W turned by 1e-9: check_bicharacter accepts it, so it
    composes with the identity on both sides.  The residual is V'23 V12
    V'23* = V12 V''13 read off slices as operatorTarget is, so with the
    identity second it reads no more than V's operatorTarget."""
    c = c0(z4)
    v = q.check_bicharacter(rotated(c.W, 1e-9, np.random.default_rng(3204)), c, c)
    _composes_with_the_identity(v)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=10**6),
    picture=st.sampled_from(["c0", "cstar"]),
    exponent=st.floats(min_value=-11.0, max_value=-8.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_every_accepted_rotation_composes_with_the_identity(arrows, index, picture, exponent, seed):
    """A corpus arrow (d <= 6) turned by exp(i 10^exponent h): whenever
    check_bicharacter accepts it, it composes with the identity on either
    side and passes."""
    (v0,) = gauged_bicharacters([arrows[index % len(arrows)]], picture, "plain", 0)
    x = rotated(v0.V, 10.0**exponent, np.random.default_rng(seed))
    try:
        v = q.check_bicharacter(x, v0.source, v0.target)
    except CalculusError:
        event("rejected by check_bicharacter")
        return
    event("accepted by check_bicharacter")
    _composes_with_the_identity(v)


def test_compose_rejects_mismatched_middle(homs):
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    with pytest.raises(SourceTargetMismatch):
        q.compose(va, va)


def test_nan_extraction_fails_closed(z2):
    # the extraction tail of compose, bicharacter_from_right and
    # bicharacter_from_left: a NaN off the trivial leg's diagonal is no
    # factor, whereas the partial trace alone would skip it
    c = c0(z2)
    sp = LegSpace((2, 2, 2))
    prod = embed_on_legs(c.W, sp, (1, 3))
    prod[0, 2] = np.nan
    with pytest.raises(ExtractionFailure, match="middle leg") as exc:
        factor, resid = extract_trivial_legs(prod, sp, {2})
        bicharacter_module.extract_bicharacter(factor, resid, c, c, "middle leg is not trivial")
    assert np.isnan(exc.value.residual)


# --- duality ------------------------------------------------------------


def test_dual_swaps_and_involutes(z4, homs):
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    dv = q.dual_bicharacter(va)
    assert dv.source.same_unitary(va.target.dual)
    assert dv.target.same_unitary(va.source.dual)
    np.testing.assert_array_equal(q.dual_bicharacter(dv).V, va.V)


def test_dual_of_pullback_is_pushforward(homs):
    # the two Hopf lifts of one group hom are exchanged by the duality functor
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    vhat = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "cstar"))
    np.testing.assert_array_equal(q.dual_bicharacter(va).V, vhat.V)


def test_dual_is_contravariant(homs):
    va = q.from_hopf_hom(q.hom_to_hopf(homs["q42"], "c0"))
    vb = q.from_hopf_hom(q.hom_to_hopf(homs["i24"], "c0"))
    lhs = q.dual_bicharacter(q.compose(va, vb))
    rhs = q.compose(q.dual_bicharacter(vb), q.dual_bicharacter(va))
    assert residual_between(lhs.V, rhs.V) <= 1e-9


def test_r_invariance_of_corpus_bicharacters(z2, z4, s3, homs):
    for g in (z2, z4, s3):
        assert q.check_R_invariance(q.identity(c0(g))) <= 1e-9
    for name in ("q42", "i24", "sgn", "t23"):
        for pic in ("c0", "cstar"):
            v = q.from_hopf_hom(q.hom_to_hopf(homs[name], pic))
            assert q.check_R_invariance(v) <= 1e-9, (name, pic)
