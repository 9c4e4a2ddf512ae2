"""Leg calculus checks against direct index-level enumerations."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import qgcalc as q
from qgcalc.qgroup import _leg_slices
from qgcalc.tensorleg import (
    RANK_CUTOFF,
    LegSpace,
    PairSpan,
    SpanMap,
    apply_map_to_leg,
    conjugation_images,
    flip_adjoint,
    flip_unitary,
    frob,
    gram,
    intertwiner_space,
    kron,
    map_legs,
    membership_residual,
    membership_residuals,
    numerical_rank,
    orthonormal_basis,
    permute_legs,
    residual_between,
    residuals_between,
    unitarity_defect,
    vec,
    unvec,
)
from conftest import (
    Functional,
    apply_map_to_leg as leg_oracle,
    delta_map,
    embed_on_legs,
    extract_trivial_legs,
    legs_product,
    legs_slab,
    mapped_slab,
    pair_basis,
    slice_leg,
    sliced_space,
    span_map_from_pairs,
    streamed_residual,
    tsqr_intertwiner_space,
)
import conftest
from qgcalc import tensorleg
from qgcalc.errors import CalculusError, gate

RNG = np.random.default_rng(20240817)


def random_complex(r, c):
    return RNG.standard_normal((r, c)) + 1j * RNG.standard_normal((r, c))


def random_unitary(n):
    u, _ = np.linalg.qr(random_complex(n, n))
    return u


small_dims = st.integers(min_value=1, max_value=3)


def kron_all(mats):
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def permuted_space(space, perm):
    return LegSpace(tuple(space.dims[p - 1] for p in perm))


# --- kron and friends ---------------------------------------------------


def test_kron_matches_entry_rule():
    a = random_complex(2, 3)
    b = random_complex(3, 2)
    out = kron(a, b)
    for i in range(2):
        for j in range(3):
            for k in range(3):
                for l in range(2):
                    assert out[i * 3 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])


def test_kron_all_folds_left():
    mats = [random_complex(2, 2) for _ in range(3)]
    np.testing.assert_allclose(kron_all(mats), kron(kron(mats[0], mats[1]), mats[2]))


def test_flip_unitary_swaps_factors():
    u = random_complex(2, 2)
    v = random_complex(3, 3)
    sigma = flip_unitary(2, 3)
    np.testing.assert_allclose(sigma @ kron(u, v) @ sigma.conj().T, kron(v, u), atol=1e-12)
    assert unitarity_defect(sigma) == 0.0


def test_vec_unvec_row_major():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(vec(m), [1, 2, 3, 4])
    np.testing.assert_array_equal(unvec([1, 2, 3, 4], 2, 2), m)


# --- leg spaces ---------------------------------------------------------


def test_leg_space_basics():
    sp = LegSpace((2, 3, 4))
    assert sp.nlegs == 3
    assert sp.total == 24
    assert sp.dim(2) == 3
    with pytest.raises(ValueError):
        sp.dim(4)
    with pytest.raises(ValueError):
        LegSpace(())


def test_permuted_and_sliced_space():
    sp = LegSpace((2, 3, 4))
    assert permuted_space(sp, (3, 1, 2)).dims == (4, 2, 3)
    assert sliced_space(sp, 2).dims == (2, 4)
    assert sliced_space(LegSpace((5,)), 1).dims == (1,)


# --- embedding ----------------------------------------------------------


def test_embed_on_legs_13_entry_rule():
    """u placed on legs 1 and 3 must reproduce u[(i,k),(i',k')] delta_{jj'}."""
    d = 2
    u = random_complex(d * d, d * d)
    sp = LegSpace((d, d, d))
    big = embed_on_legs(u, sp, (1, 3))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for ii in range(d):
                    for jj in range(d):
                        for kk in range(d):
                            want = u[i * d + k, ii * d + kk] if j == jj else 0.0
                            got = big[(i * d + j) * d + k, (ii * d + jj) * d + kk]
                            assert got == pytest.approx(want)


def test_embed_respects_leg_order():
    # placing x on legs (2, 1) flips the two factors of x
    a = random_complex(2, 2)
    b = random_complex(2, 2)
    sp = LegSpace((2, 2))
    np.testing.assert_allclose(embed_on_legs(kron(a, b), sp, (2, 1)), kron(b, a), atol=1e-12)


def test_embed_single_leg_is_kron_with_identity():
    x = random_complex(3, 3)
    sp = LegSpace((2, 3))
    np.testing.assert_allclose(embed_on_legs(x, sp, (2,)), kron(np.eye(2), x))
    np.testing.assert_allclose(embed_on_legs(x, LegSpace((3, 2)), (1,)), kron(x, np.eye(2)))


def test_embed_rejects_bad_dims():
    sp = LegSpace((2, 3))
    with pytest.raises(ValueError):
        embed_on_legs(np.eye(4), sp, (2,))
    with pytest.raises(ValueError):
        embed_on_legs(np.eye(2), sp, (1, 1))


# --- products of leg-placed operators ----------------------------------

LEG_CHOICES = ((1,), (2,), (3,), (1, 3), (3, 1), (2, 1), (2, 3), (1, 2, 3), (3, 1, 2))


def _embedded_product(sp, factors):
    out = np.eye(sp.total, dtype=complex)
    for x, legs in factors:
        out = out @ embed_on_legs(x, sp, legs)
    return out


@pytest.mark.parametrize("nfactors", [1, 2, 3, 4])
def test_legs_product_matches_embedded_product(nfactors):
    """Every placement of 1-4 random factors on unequal legs (2, 3, 4),
    including non-adjacent and reversed legs, against the Kronecker oracle."""
    sp = LegSpace((2, 3, 4))
    rng = np.random.default_rng(100 + nfactors)
    picks = rng.choice(len(LEG_CHOICES), size=(40, nfactors))
    for row in picks:
        factors = []
        for k in row:
            legs = LEG_CHOICES[k]
            n = math.prod(sp.dims[l - 1] for l in legs)
            factors.append((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), legs))
        got = legs_product(sp, *factors)
        want = _embedded_product(sp, factors)
        assert got.shape == (24, 24)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_legs_product_covers_every_leg_pair_and_order():
    sp = LegSpace((2, 3, 4))
    for legs in ((1, 3), (3, 1), (2, 3), (3, 2), (1, 2), (2, 1)):
        n = math.prod(sp.dims[l - 1] for l in legs)
        x = random_complex(n, n)
        want = embed_on_legs(x, sp, legs)
        np.testing.assert_allclose(legs_product(sp, (x, legs)), want, atol=1e-12)


def test_legs_product_returns_a_fresh_array():
    x = random_complex(6, 6)
    out = legs_product(LegSpace((2, 3)), (x, (1, 2)))
    out[0, 0] += 1.0
    assert out[0, 0] != x[0, 0]


def test_legs_product_rejects_bad_factors():
    sp = LegSpace((2, 3))
    with pytest.raises(ValueError):
        legs_product(sp)
    with pytest.raises(ValueError):
        legs_product(sp, (np.eye(4), (2,)))
    with pytest.raises(ValueError):
        legs_product(sp, (np.eye(2), (1,)), (np.eye(4), (1, 1)))
    with pytest.raises(ValueError):
        legs_product(sp, (np.eye(2), (3,)))


# --- streamed residuals ------------------------------------------------


def _random_factors(sp, rng, nfactors):
    factors = []
    for k in rng.choice(len(LEG_CHOICES), size=nfactors):
        legs = LEG_CHOICES[k]
        n = math.prod(sp.dims[l - 1] for l in legs)
        factors.append((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), legs))
    return factors


@pytest.mark.parametrize("leg", [1, 2, 3])
def test_legs_slab_is_a_column_slab_of_legs_product(leg):
    sp = LegSpace((2, 3, 4))
    rng = np.random.default_rng(200 + leg)
    d = sp.dims[leg - 1]
    for nfactors in (1, 2, 3, 4):
        for _ in range(10):
            factors = _random_factors(sp, rng, nfactors)
            full = legs_product(sp, *factors).reshape(sp.dims * 2)
            for cols in (slice(0, 1), slice(d - 1, d), slice(0, d)):
                cut = [slice(None)] * 6
                cut[3 + leg - 1] = cols
                want = full[tuple(cut)].reshape(sp.total, -1)
                np.testing.assert_allclose(legs_slab(sp, leg, cols, *factors), want, atol=1e-12)


@pytest.mark.parametrize("slab_entries", [1, 100, conftest.SLAB_ENTRIES])
@pytest.mark.parametrize("nfactors", [1, 2, 3, 4])
def test_streamed_residual_matches_the_materialised_residual(monkeypatch, nfactors, slab_entries):
    """One slab per index, a few indices a slab, and the whole operator in one."""
    monkeypatch.setattr(conftest, "SLAB_ENTRIES", slab_entries)
    sp = LegSpace((2, 3, 4))
    rng = np.random.default_rng(300 + nfactors)
    for _ in range(10):
        lhs, rhs = _random_factors(sp, rng, nfactors), _random_factors(sp, rng, nfactors)
        want = residual_between(legs_product(sp, *lhs), legs_product(sp, *rhs))
        for leg in (1, 2, 3):
            got = streamed_residual(sp, leg, lhs, rhs)
            assert abs(got - want) <= 1e-13 * want


def test_streamed_residual_takes_slab_functions_and_reads_zero_on_equal_sides(monkeypatch):
    monkeypatch.setattr(conftest, "SLAB_ENTRIES", 100)
    sp = LegSpace((2, 3, 4))
    factors = _random_factors(sp, np.random.default_rng(4), 3)
    slabs = lambda cols: legs_slab(sp, 2, cols, *factors)
    assert streamed_residual(sp, 2, slabs, factors) == 0.0


def test_a_nan_factor_gives_a_nan_streamed_residual_that_fails_its_gate(monkeypatch):
    monkeypatch.setattr(conftest, "SLAB_ENTRIES", 100)
    sp = LegSpace((2, 3, 4))
    rng = np.random.default_rng(5)
    lhs, rhs = _random_factors(sp, rng, 3), _random_factors(sp, rng, 2)
    bad = lhs[1][0].copy()
    bad[-1, 0] = np.nan
    lhs[1] = (bad, lhs[1][1])
    for leg in (1, 2, 3):
        res = streamed_residual(sp, leg, lhs, rhs)
        assert np.isnan(res)
        with pytest.raises(CalculusError):
            gate(res, 1e-9, CalculusError, "streamed")


@pytest.mark.parametrize("map_leg, leg", [(1, 2), (2, 1)])
def test_mapped_slab_is_a_column_slab_of_apply_map_to_leg(map_leg, leg):
    sp = LegSpace((2, 3))
    d = sp.dims[map_leg - 1]
    phi = SpanMap(
        tuple(orthonormal_basis([random_complex(d, d) for _ in range(d * d)])),
        tuple(random_complex(2 * d, 2 * d) for _ in range(d * d)),
        d,
        2 * d,
    )
    t = random_complex(6, 6)
    full, out_space = leg_oracle(t, sp, map_leg, phi)
    full = full.reshape(out_space.dims * 2)
    for j in range(sp.dims[leg - 1]):
        cut = [slice(None)] * 4
        cut[2 + leg - 1] = slice(j, j + 1)
        want = full[tuple(cut)].reshape(out_space.total, -1)
        got = mapped_slab(t, sp, map_leg, phi, leg, slice(j, j + 1))
        np.testing.assert_allclose(got, want, atol=1e-12)
    with pytest.raises(ValueError):
        mapped_slab(t, sp, map_leg, phi, map_leg, slice(0, 1))


# --- permutation --------------------------------------------------------


def test_permute_legs_on_elementary_tensor():
    mats = [random_complex(2, 2), random_complex(3, 3), random_complex(2, 2)]
    sp = LegSpace((2, 3, 2))
    got = permute_legs(kron_all(mats), sp, (3, 1, 2))
    np.testing.assert_allclose(got, kron_all([mats[2], mats[0], mats[1]]), atol=1e-12)


def test_permute_legs_round_trip():
    sp = LegSpace((2, 2, 3))
    t = random_complex(12, 12)
    fwd = permute_legs(t, sp, (2, 3, 1))
    # (2,3,1) sends input leg 2 to slot 1; its inverse is (3,1,2)
    back = permute_legs(fwd, permuted_space(sp, (2, 3, 1)), (3, 1, 2))
    np.testing.assert_allclose(back, t, atol=1e-12)


def test_flip_adjoint_is_an_exact_involution():
    sp = LegSpace((2, 3))
    t = random_complex(6, 6)
    sigma = flip_unitary(2, 3)
    got = flip_adjoint(t, sp)
    np.testing.assert_allclose(got, sigma @ t.conj().T @ sigma.conj().T, atol=1e-12)
    np.testing.assert_array_equal(flip_adjoint(got, LegSpace((3, 2))), t)


def test_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_legs(np.eye(4), LegSpace((2, 2)), (1, 1))


# --- slicing ------------------------------------------------------------


def test_slice_leg_on_elementary_tensor():
    a = random_complex(2, 2)
    b = random_complex(3, 3)
    dens = random_complex(2, 2)
    sp = LegSpace((2, 3))
    got = slice_leg(kron(a, b), sp, 1, Functional(dens))
    np.testing.assert_allclose(got, np.trace(dens @ a) * b, atol=1e-12)


def test_slice_leg_is_linear():
    sp = LegSpace((2, 2))
    t1 = random_complex(4, 4)
    t2 = random_complex(4, 4)
    om = Functional(random_complex(2, 2))
    lhs = slice_leg(t1 + 2.5j * t2, sp, 2, om)
    rhs = slice_leg(t1, sp, 2, om) + 2.5j * slice_leg(t2, sp, 2, om)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_matrix_unit_functional_picks_blocks():
    # density E_qp gives omega(a) = a[p, q]
    sp = LegSpace((2, 3))
    t = random_complex(6, 6)
    dens = np.zeros((2, 2), dtype=complex)
    dens[1, 0] = 1.0
    got = slice_leg(t, sp, 1, Functional(dens))
    np.testing.assert_allclose(got, t[0 * 3:(0 + 1) * 3, 1 * 3:(1 + 1) * 3], atol=1e-12)


def test_functional_evaluates_trace():
    dens = random_complex(3, 3)
    x = random_complex(3, 3)
    assert Functional(dens)(x) == pytest.approx(complex(np.trace(dens @ x)))
    with pytest.raises(ValueError):
        Functional(dens)(np.eye(2))


# --- trivial-leg extraction --------------------------------------------


def test_extract_recovers_embedded_factor():
    x = random_complex(3, 3)
    sp = LegSpace((3, 2, 2))
    t = embed_on_legs(x, sp, (1,))
    f, resid = extract_trivial_legs(t, sp, {2, 3})
    assert resid <= 1e-12
    np.testing.assert_allclose(f, x, atol=1e-12)


def test_extract_reports_genuine_action():
    """W of the two-element group acts on both legs; the best rank-one
    approximation misses it by exactly sqrt(2)/2."""
    c2 = q.qg_from_group(q.cyclic_group(2), "c0")
    _, resid = extract_trivial_legs(c2.W, c2.space, {2})
    assert resid == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_extract_reads_nan_as_nan():
    # the NaN sits off the trivial leg's diagonal, where the partial trace
    # never reads it: the factor stays finite, the residual must not
    t = np.eye(8, dtype=complex)
    t[0, 2] = np.nan
    f, resid = extract_trivial_legs(t, LegSpace((2, 2, 2)), {2})
    assert np.all(np.isfinite(f))
    assert np.isnan(resid)


def test_extract_needs_a_remaining_leg():
    with pytest.raises(ValueError):
        extract_trivial_legs(np.eye(4), LegSpace((2, 2)), {1, 2})


# --- intertwiners -------------------------------------------------------


def test_intertwiner_dim_identity_is_one():
    dim, pairs = intertwiner_space(np.eye(4, dtype=complex), 2)
    assert dim == 1
    a, b = pairs[0]
    # the nullspace direction is (lambda 1, lambda 1)
    assert residual_between(a, b) <= 1e-10
    assert residual_between(a, a[0, 0] * np.eye(2)) <= 1e-10


def test_intertwiner_dim_of_flip_is_full():
    # sigma (a (x) 1) = (1 (x) a) sigma for every a
    dim, _ = intertwiner_space(flip_unitary(2, 2), 2)
    assert dim == 4


def test_intertwiner_rejects_wrong_shape():
    with pytest.raises(ValueError):
        intertwiner_space(np.eye(3), 2)


def _stacked_svd_intertwiner_space(w, d, cutoff=1e-9):
    """Reference: (a, b) and the d^4 x 2d^2 system w(a (x) 1) - (1 (x) b)w, by SVD."""
    eye = np.eye(d, dtype=complex)
    cols = []
    for p in range(d):
        for q in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[p, q] = 1.0
            cols.append(vec(w @ np.kron(e, eye)))
    for p in range(d):
        for q in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[p, q] = 1.0
            cols.append(-vec(np.kron(eye, e) @ w))
    system = np.stack(cols, axis=1)
    full = system.shape[0] < system.shape[1]
    u, s, vh = np.linalg.svd(system, full_matrices=full)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > cutoff * smax)) if smax > 0 else 0
    null = vh[rank:].conj()
    return len(null), [(unvec(r[: d * d], d, d), unvec(r[d * d :], d, d)) for r in null]


def _haar(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    qq, r = np.linalg.qr(z)
    return qq * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(m, size, rng):
    """m times exp(i size h) for a random unit-norm hermitian h."""
    h = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    ev, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    ev = ev / np.linalg.norm(ev)
    return (vecs * np.exp(1j * size * ev)) @ vecs.conj().T @ m


def _assert_intertwines(w, d, pairs):
    eye = np.eye(d, dtype=complex)
    for a, b in pairs:
        assert frob(a) == pytest.approx(1.0)
        assert frob(w @ np.kron(a, eye) - np.kron(eye, b) @ w) <= 1e-12


def _gauged(g, picture, rng):
    base = q.qg_from_group(g, picture)
    uu = np.kron(*[_haar(base.dim, rng)] * 2)
    return uu @ base.W @ uu.conj().T, base.dim


def _projector(pairs):
    a = np.stack([vec(x) for x, _ in pairs], axis=1)
    q_, _ = np.linalg.qr(a)
    return q_ @ q_.conj().T


def _check_against_the_stacked_svd(w, d):
    """The library against the (a, b) stacked SVD and the TSQR oracle: equal
    dimensions, equal solution projectors, and pairs that intertwine."""
    dim, pairs = intertwiner_space(w, d)
    assert dim == _stacked_svd_intertwiner_space(w, d)[0]
    odim, opairs = tsqr_intertwiner_space(w, d)
    assert dim == odim
    np.testing.assert_allclose(_projector(pairs), _projector(opairs), atol=1e-9)
    _assert_intertwines(w, d, pairs)
    return dim


def test_intertwiner_space_matches_the_stacked_svd_off_the_corpus():
    """Both invariant extremes, flip times W of Z4, a non-pentagon unitary
    and a 1e-6 rotation off the pentagon in each picture."""
    rng = np.random.default_rng(7)
    corpus = q.standard_corpus()
    assert _check_against_the_stacked_svd(np.eye(9, dtype=complex), 3) == 1
    assert _check_against_the_stacked_svd(flip_unitary(3, 3), 3) == 9
    flip_w = flip_unitary(4, 4) @ q.qg_from_group(corpus["Z4"], "c0").W
    assert _check_against_the_stacked_svd(flip_w, 4) == 4
    assert _check_against_the_stacked_svd(_haar(16, rng), 4) == 1
    for picture in ("c0", "cstar"):
        w, d = _gauged(corpus["S3"], picture, rng)
        assert _check_against_the_stacked_svd(_rotated(w, 1e-6, rng), d) == 1


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_intertwiner_space_matches_the_stacked_svd_on_the_gauged_corpus(corpus, picture):
    """Every corpus group, plain and Haar-gauged."""
    rng = np.random.default_rng(11)
    for g in corpus.values():
        assert g.order <= 8
        base = q.qg_from_group(g, picture)
        assert _check_against_the_stacked_svd(base.W, base.dim) == 1
        assert _check_against_the_stacked_svd(*_gauged(g, picture, rng)) == 1


def test_intertwiner_space_blocked_qr_matches_the_stacked_svd(monkeypatch):
    """The TSQR oracle with one first index per row block, so its R factor
    is reduced block by block: same dimensions as the stacked SVD, and the
    same solution space as a single block."""
    rng = np.random.default_rng(13)
    corpus = q.standard_corpus()
    cases = [
        (np.eye(9, dtype=complex), 3),
        (flip_unitary(3, 3), 3),
        (_haar(16, rng), 4),
        _gauged(corpus["S3"], "c0", rng),
        _gauged(corpus["Q8"], "cstar", rng),
    ]
    w, d = _gauged(corpus["Z4"], "c0", rng)
    cases.append((_rotated(w, 1e-6, rng), d))

    whole = [tsqr_intertwiner_space(w, d) for w, d in cases]
    monkeypatch.setattr(conftest, "SLAB_ENTRIES", 1)
    for (w, d), (dim, pairs) in zip(cases, whole):
        assert _check_against_the_stacked_svd(w, d) == dim
        blocked = tsqr_intertwiner_space(w, d)[1]
        np.testing.assert_allclose(_projector(blocked), _projector(pairs), atol=1e-9)


@pytest.mark.parametrize(
    "below, count",
    [
        ([0.0, 1e-16, 9e-7, 1.1e-6, 0.5], 2),
        ([0.0, 1e-16, 5e-7, 1.5e-6, 0.5], 3),
        ([0.0, 1e-15, 1e-15, 1e-15], 4),
        ([2e-6, 0.5], 0),
    ],
)
def test_intertwiner_candidates_are_cut_at_the_largest_gap(below, count):
    assert tensorleg._candidate_count(1.0 - np.array(below)) == count


def test_a_wide_candidate_window_finds_the_same_solutions(monkeypatch):
    """A Haar unitary spreads the cosines over [0, 1]; with the window opened
    to nearly all of them, the cut, the exact residuals and the Ritz step
    still leave the one solution, the identity."""
    w = _haar(16, np.random.default_rng(23))
    want = intertwiner_space(w, 4)
    monkeypatch.setattr(tensorleg, "CANDIDATE_GAP", 0.99)
    dim, pairs = intertwiner_space(w, 4)
    assert dim == want[0] == 1
    np.testing.assert_allclose(_projector(pairs), _projector(want[1]), atol=1e-9)


# --- bases and membership ----------------------------------------------


def test_orthonormal_basis_dedupes_span():
    a = random_complex(2, 2)
    basis = orthonormal_basis([a, 2 * a, a + 0j])
    assert len(basis) == 1
    assert frob(basis[0]) == pytest.approx(1.0)
    # a non-finite entry is refused, not pivoted
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            orthonormal_basis([a, np.full((2, 2), bad)])


def assert_matches_scipy_qr(mats):
    """orthonormal_basis equals the reference, the basis and rank from
    scipy.linalg.qr with pivoting, bit for bit."""
    mats = np.asarray(mats, dtype=complex)
    a = mats.reshape(len(mats), math.prod(mats.shape[1:])).T
    qq, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > RANK_CUTOFF * diag[0])) if len(diag) and diag[0] > 0 else 0
    got = orthonormal_basis(mats)
    assert len(got) == rank
    assert np.array_equal(got, qq[:, :rank].T.reshape(rank, *mats.shape[1:]))


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_orthonormal_basis_is_scipy_qr_on_corpus_slices(corpus, picture):
    # the algC and leg-2 bases of every corpus group, plain and Haar-gauged,
    # so hom files keep their coefficients
    for g in corpus.values():
        qg = q.qg_from_group(g, picture)
        u = random_unitary(qg.dim)
        uu = kron(u, u)
        for w in (qg.W, uu @ qg.W @ uu.conj().T):
            for leg in (1, 2):
                assert_matches_scipy_qr(_leg_slices(w, qg.dim, leg))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [3, 6, 10], ids=["n<rc", "n=rc", "n>rc"])
def test_orthonormal_basis_is_scipy_qr_on_rank_deficient_stacks(n, order):
    # stacks of 2x3 matrices spanning a random subspace of dimension < min(n, 6)
    rng = np.random.default_rng(n)
    for _ in range(20):
        k = int(rng.integers(1, min(n, 6)))
        spanning = rng.standard_normal((k, 2, 3)) + 1j * rng.standard_normal((k, 2, 3))
        mix = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        assert_matches_scipy_qr(np.asarray(np.einsum("nk,krc->nrc", mix, spanning), order=order))


def test_orthonormal_basis_of_zero_and_empty_stacks():
    for n in (4, 0):
        assert_matches_scipy_qr(np.zeros((n, 2, 3)))
        assert orthonormal_basis(np.zeros((n, 2, 3))).shape == (0, 2, 3)


def _child(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(q.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


def test_importing_the_cli_leaves_scipy_linalg_out():
    _child(
        """
        import sys
        import qgcalc.cli
        from qgcalc import tensorleg
        heavy = [m for m in ("scipy.linalg", "scipy._lib", "numpy.f2py") if m in sys.modules]
        assert heavy == [], heavy
        # a later scipy.linalg shares the extension module, not a second copy
        import scipy.linalg.lapack
        assert scipy.linalg.lapack._flapack is tensorleg._flapack
        """
    )
    _child(
        """
        import sys
        import scipy.linalg
        from qgcalc import tensorleg
        assert tensorleg._flapack is sys.modules["scipy.linalg._flapack"]
        """
    )


def test_membership_residual_frozen_values():
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1.0
    e11 = np.zeros((2, 2), dtype=complex)
    e11[1, 1] = 1.0
    basis = [e00]
    assert membership_residual(basis, e00) <= 1e-12
    # orthogonal unit vector sits at distance exactly 1
    assert membership_residual(basis, e11) == pytest.approx(1.0)
    assert membership_residuals(basis, np.stack([e00, e11])) == pytest.approx(1.0)
    assert membership_residuals(basis, []) == 0.0


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (2, 4)])
def test_pair_span_matches_the_pair_basis_projection(d1, d2):
    """Leg-wise projection onto span(left (x) right) against the stacked
    projection onto the materialised Kronecker products, in and off the span."""
    left = orthonormal_basis([random_complex(d1, d1) for _ in range(d1 + 1)])
    right = orthonormal_basis([random_complex(d2, d2) for _ in range(2)])
    products = pair_basis(left, right)
    span = PairSpan(left, right)
    inside = [sum(complex(*RNG.standard_normal(2)) * p for p in products) for _ in range(3)]
    outside = [random_complex(d1 * d2, d1 * d2) for _ in range(3)]
    for mats in (inside, outside, inside + outside):
        want = membership_residuals(products, mats)
        assert membership_residuals(span, mats) == pytest.approx(want, abs=1e-14)
        assert membership_residuals(span, np.stack(mats)) == pytest.approx(want, abs=1e-14)
    assert membership_residuals(span, inside) <= 1e-14
    assert membership_residuals(span, outside) > 0.1
    coeff = span.coefficients(np.stack(outside))
    want = [[np.vdot(p, x) for p in products] for x in outside]
    np.testing.assert_allclose(coeff.reshape(len(outside), -1), want, atol=1e-13)
    nan = outside[0].copy()
    nan[0, 1] = np.nan
    assert np.isnan(membership_residual(span, nan))
    assert membership_residuals(span, []) == 0.0


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 2), (2, 4)])
def test_pair_span_read_is_coefficients_gram_and_membership(d1, d2):
    """One read against its three separate forms: coefficients, the Gram
    matrix of images - combine(coefficients), and membership_residuals on
    the materialised pair basis, for stacks in the span, off it and mixed.
    The read leaves the parts off the span in the stack, and a NaN in one
    image reads NaN in all three outputs."""
    left = orthonormal_basis([random_complex(d1, d1) for _ in range(d1 + 1)])
    right = orthonormal_basis([random_complex(d2, d2) for _ in range(2)])
    products = pair_basis(left, right)
    span = PairSpan(left, right)
    coeff = random_complex(3, len(left) * len(right)).reshape(3, len(left), len(right))
    inside = span.combine(coeff)
    outside = np.stack([random_complex(d1 * d2, d1 * d2) for _ in range(3)])
    for images in (inside, outside, np.concatenate([inside, outside])):
        stack = images.copy()
        got, g, range_ = span.read(stack)
        want = span.coefficients(images)
        off = images - span.combine(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(g, gram(off), rtol=0, atol=1e-14)
        assert range_ == pytest.approx(membership_residuals(products, images), abs=1e-14)
        np.testing.assert_allclose(stack, off, rtol=0, atol=1e-14)
    assert span.read(inside.copy())[2] <= 1e-14 < 0.1 < span.read(outside.copy())[2]
    nan = outside.copy()
    nan[1, 0, 1] = np.nan
    got, g, range_ = span.read(nan)
    assert np.isnan(got).any() and np.isnan(g).any() and np.isnan(range_)


@pytest.mark.parametrize("d1, d2", [(2, 3), (3, 1)])
def test_pair_span_combine_inverts_coefficients(d1, d2):
    """combine reassembles coefficients on the products l_i (x) r_j: it is
    the pair_basis sum, it inverts coefficients on the span, and after
    coefficients it is the orthogonal projection onto the span; d2 = 1 is
    the Hopf-map form, right leg {1}."""
    left = orthonormal_basis([random_complex(d1, d1) for _ in range(d1 + 1)])
    right = orthonormal_basis([random_complex(d2, d2) for _ in range(2)])
    products = pair_basis(left, right)
    span = PairSpan(left, right)
    coeff = random_complex(4, len(left) * len(right)).reshape(4, len(left), len(right))
    inside = span.combine(coeff)
    assert inside.shape == (4, d1 * d2, d1 * d2)
    for c, x in zip(coeff, inside):
        want = sum(a * p for a, p in zip(c.reshape(-1), products))
        np.testing.assert_allclose(x, want, atol=1e-13)
    np.testing.assert_allclose(span.coefficients(inside), coeff, atol=1e-13)
    outside = np.stack([random_complex(d1 * d2, d1 * d2) for _ in range(3)])
    rest = outside - span.combine(span.coefficients(outside))
    np.testing.assert_allclose(span.coefficients(rest), 0.0, atol=1e-13)
    assert membership_residuals(span, rest) > 0.1


def test_residuals_between_matches_scalar_version():
    xs = np.stack([random_complex(3, 3) for _ in range(4)])
    ys = np.stack([random_complex(3, 3) for _ in range(4)])
    want = max(residual_between(x, y) for x, y in zip(xs, ys))
    assert residuals_between(xs, ys) == pytest.approx(want)
    with pytest.raises(ValueError):
        residuals_between(xs, ys[:2])


# --- span maps ----------------------------------------------------------


def test_span_map_from_consistent_pairs():
    u = random_unitary(3)
    units = []
    for p in range(3):
        for r in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[p, r] = 1.0
            units.append(e)
    phi, resid = span_map_from_pairs([(e, u @ e @ u.conj().T) for e in units])
    assert resid <= 1e-12
    x = random_complex(3, 3)
    np.testing.assert_allclose(phi(x), u @ x @ u.conj().T, atol=1e-10)


def test_span_map_flags_inconsistent_pairs():
    e = np.eye(2, dtype=complex)
    _, resid = span_map_from_pairs([(e, np.eye(3, dtype=complex)), (e, np.zeros((3, 3)))])
    assert resid > 0.1


def test_span_map_apply_stack_matches_call():
    u = random_unitary(2)
    units = []
    for p in range(2):
        for r in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[p, r] = 1.0
            units.append(e)
    phi, _ = span_map_from_pairs([(e, u @ e @ u.conj().T) for e in units])
    xs = np.stack([random_complex(2, 2) for _ in range(5)])
    got = phi.apply_stack(xs)
    for k in range(5):
        np.testing.assert_allclose(got[k], phi(xs[k]), atol=1e-12)


def test_span_map_apply_stack_matches_the_dense_superoperator():
    u = random_unitary(2)
    phi, _ = span_map_from_pairs(
        [(e, kron(e, u @ e @ u.conj().T)) for e in (np.eye(2), np.diag([1.0, -1.0]))]
    )
    # the (dd*dd, d*d) matrix of the map on row-major vectorizations
    s = sum(np.outer(vec(y), vec(b).conj()) for b, y in zip(phi.basis, phi.images))
    x = random_complex(2, 2)
    np.testing.assert_allclose(s @ vec(x), vec(phi(x)), atol=1e-12)
    # apply_stack's factored product against the superoperator
    xs = np.stack([random_complex(2, 2) for _ in range(5)])
    want = xs.reshape(5, 4) @ s.T
    np.testing.assert_allclose(phi.apply_stack(xs).reshape(5, -1), want, atol=1e-12)


def test_numerical_rank_of_non_finite_vectors_is_zero():
    cols = [vec(np.eye(2)), vec(np.diag([1.0, -1.0]))]
    assert numerical_rank(cols) == 2
    cols[1] = cols[1].copy()
    cols[1][0] = np.nan
    assert numerical_rank(cols) == 0


def test_span_map_rejects_wrong_domain():
    phi, _ = span_map_from_pairs([(np.eye(2, dtype=complex), np.eye(2, dtype=complex))])
    with pytest.raises(ValueError):
        phi(np.eye(3))


def test_map_legs_matches_conjugation():
    u = random_unitary(3)
    units = []
    for p in range(3):
        for r in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[p, r] = 1.0
            units.append(e)
    phi, _ = span_map_from_pairs([(e, u @ e @ u.conj().T) for e in units])
    t = random_complex(6, 6)
    got = map_legs(t[None], (2, 3), None, phi)
    big = kron(np.eye(2), u)
    np.testing.assert_allclose(got[0], big @ t @ big.conj().T, atol=1e-10)
    # Ad u on both legs is conjugation by u (x) u
    v = random_unitary(2)
    units_v = np.eye(4, dtype=complex).reshape(4, 2, 2)
    ad_v = SpanMap(units_v, v @ units_v @ v.conj().T, 2, 2)
    big = kron(v, u)
    got = map_legs(t[None], (2, 3), ad_v, phi)
    np.testing.assert_allclose(got[0], big @ t @ big.conj().T, atol=1e-10)


@pytest.mark.parametrize("h, e", [(2, 3), (3, 2), (4, 4)])
def test_conjugation_images_match_the_kron_form(h, e):
    """u (x_k (x) 1) u* for a Haar unitary u on H (x) K, within 1e-14 of
    the Kronecker product it never forms."""
    u = random_unitary(h * e)
    xs = np.stack([random_complex(h, h) for _ in range(3)])
    want = u @ kron(xs, np.eye(e)) @ u.conj().T
    assert residuals_between(conjugation_images(u, xs), want) <= 1e-14


@pytest.mark.parametrize("legs", [(1,), (2,), (1, 2)], ids=["1", "2", "both"])
def test_map_legs_on_a_stack_maps_each_operator(legs):
    """A (n, N, N) stack goes through at once, element k to the map of
    element k, within 1e-14 of the superoperator oracle applied one leg at a
    time; a shape or a domain off the legs is refused."""
    dims = (2, 3)
    maps = [None, None]
    for leg in legs:
        d = dims[leg - 1]
        pairs = [(random_complex(d, d), random_complex(2 * d, 2 * d)) for _ in range(d * d)]
        maps[leg - 1] = span_map_from_pairs(pairs)[0]
    ts = np.stack([random_complex(6, 6) for _ in range(4)])
    got = map_legs(ts, dims, *maps)
    assert got.shape == (4, 6 * 2 ** len(legs), 6 * 2 ** len(legs))
    for t, g in zip(ts, got):
        want, sp = t, LegSpace(dims)
        for leg in legs:
            want, sp = leg_oracle(want, sp, leg, maps[leg - 1])
        assert residual_between(g, want) <= 1e-14
    with pytest.raises(ValueError):
        map_legs(ts[:, :5, :5], dims, *maps)
    with pytest.raises(ValueError):
        map_legs(ts, dims[::-1], *maps)


def test_span_maps_hold_stacks_whatever_they_are_built_from():
    """Bases and images are (n, r, c) arrays: in a built quantum group, its
    algC and its dual's, the images of a coaction, and a SpanMap made from
    tuples."""
    c = q.qg_from_group(q.cyclic_group(3), "c0")
    co = q.comultiplication_coaction(c)
    images = co.gamma.images
    for basis, n, r in ((c.algC, 3, 3), (c.dual.algC, 3, 3), (images, 3, 9)):
        assert isinstance(basis, np.ndarray) and basis.shape == (n, r, r)
    assert isinstance(co.algebraD, np.ndarray) and co.algebraD.shape == (3, 3, 3)
    phi = SpanMap(tuple(c.algC), tuple(images), 3, 9)
    assert phi.basis.shape == (3, 3, 3) and phi.images.shape == (3, 9, 9)
    assert phi.basis.dtype == complex
    np.testing.assert_array_equal(phi.apply_stack(c.algC), co.gamma.apply_stack(c.algC))


def test_apply_map_to_leg_grows_the_leg():
    # a comultiplication-shaped map sends the 2-dim leg to a 4-dim one
    c2 = q.qg_from_group(q.cyclic_group(2), "c0")
    sp = LegSpace((3, 2))
    x = random_complex(2, 2)
    t = kron(np.eye(3), x)
    delta = delta_map(c2)
    got, out_space = apply_map_to_leg(t, sp, 2, delta)
    assert out_space.dims == (3, 4)
    np.testing.assert_allclose(got, kron(np.eye(3), delta(x)), atol=1e-10)


# --- property tests -----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(small_dims, small_dims, st.integers(min_value=0, max_value=10 ** 6))
def test_property_flip_conjugation(d1, d2, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
    b = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
    sigma = flip_unitary(d1, d2)
    assert residual_between(sigma @ kron(a, b) @ sigma.conj().T, kron(b, a)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.permutations([1, 2, 3]), st.integers(min_value=0, max_value=10 ** 6))
def test_property_permute_preserves_norms_and_products(perm, seed):
    rng = np.random.default_rng(seed)
    sp = LegSpace((2, 3, 2))
    t = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    s = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    pt = permute_legs(t, sp, perm)
    ps = permute_legs(s, sp, perm)
    assert frob(pt) == pytest.approx(frob(t))
    # conjugation by a permutation is an algebra morphism
    assert residual_between(pt @ ps, permute_legs(t @ s, sp, perm)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(small_dims, st.integers(min_value=0, max_value=10 ** 6))
def test_property_embed_then_slice_recovers_scalar(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sp = LegSpace((d, 2))
    t = embed_on_legs(x, sp, (1,))
    # slicing leg 1 with a state against x leaves omega(x) times the identity
    dens = np.eye(d, dtype=complex) / d
    got = slice_leg(t, sp, 1, Functional(dens))
    want = (np.trace(x) / d) * np.eye(2)
    assert residual_between(got, want) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10 ** 6))
def test_property_membership_zero_for_span_members(n, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(n)]
    basis = orthonormal_basis(mats)
    combo = sum(c * m for c, m in zip(rng.standard_normal(len(mats)), mats))
    assert membership_residual(basis, combo) <= 1e-10
