"""Finite-group builders, homomorphisms, characters, and Fourier witnesses."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import qgcalc as q
from qgcalc import groups as groups_module
from qgcalc.errors import CalculusError, NotAbelian, NotAGroup
from qgcalc.groups import (
    build_group,
    character_group,
    compose_homs,
    cyclic_group,
    fourier_dual_witness,
    group_hom,
    hom_to_hopf,
    identity_hom,
    product_group,
    qg_from_group,
    standard_corpus,
    symmetric_group_3,
    translation_matrix,
    trivial_group,
    trivial_hom,
)
from qgcalc.qgroup import PENTAGON_TOL, FiniteQuantumGroup, intertwining_residuals
from qgcalc.tensorleg import PairSpan, SpanMap, kron, residual_between, unitarity_defect
from conftest import (
    classical_comultiplication,
    delta_map,
    haar_unitary,
    nudged,
    operator_comultiplication_defects,
    with_delta_images,
)

# order-5 loop: Latin square with two-sided identity 0, found by exhaustive
# search to violate associativity; no group of order 5 looks like this
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


# --- construction and validation ---------------------------------------


def test_cyclic_tables():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.table == tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    assert g.identity == 0
    assert g.inverse == (0, 3, 2, 1)


def test_build_group_rejects_non_square():
    with pytest.raises(ValueError):
        build_group([[0, 1], [1]])


def test_build_group_rejects_out_of_range():
    with pytest.raises(NotAGroup, match="closure"):
        build_group([[0, 1], [1, 7]])


def test_build_group_rejects_missing_identity():
    # the constant product is associative but admits no identity
    with pytest.raises(NotAGroup, match="identity"):
        build_group([[0, 0], [0, 0]])


def test_build_group_rejects_missing_inverse():
    # the {0,1} multiplication monoid has identity 1 but 0 is not invertible
    with pytest.raises(NotAGroup, match="inverse"):
        build_group([[0, 0], [0, 1]])


def test_build_group_rejects_nonassociative_loop():
    with pytest.raises(NotAGroup, match="associat"):
        build_group(NONASSOC_LOOP)


def test_loop_really_is_latin():
    n = 5
    for r in NONASSOC_LOOP:
        assert sorted(r) == list(range(n))
    for c in range(n):
        assert sorted(NONASSOC_LOOP[r][c] for r in range(n)) == list(range(n))
    assert NONASSOC_LOOP[0] == list(range(n))
    assert [NONASSOC_LOOP[r][0] for r in range(n)] == list(range(n))


def test_corpus_membership_and_orders():
    corpus = standard_corpus()
    want = {
        "Z2": 2, "Z3": 3, "Z4": 4, "Z2xZ2": 4, "Z5": 5, "Z6": 6, "S3": 6,
        "Z7": 7, "Z8": 8, "Z4xZ2": 8, "Z2xZ2xZ2": 8, "D4": 8, "Q8": 8,
    }
    assert {name: g.order for name, g in corpus.items()} == want
    for name, g in corpus.items():
        assert g.name == name


def test_abelian_flags():
    corpus = standard_corpus()
    nonabelian = {"S3", "D4", "Q8"}
    for name, g in corpus.items():
        assert g.is_abelian() == (name not in nonabelian), name


def test_quaternion_element_orders():
    q8 = standard_corpus()["Q8"]
    orders = sorted(q8.element_order(a) for a in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_dihedral_element_orders():
    d4 = standard_corpus()["D4"]
    orders = sorted(d4.element_order(a) for a in range(8))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_s3_is_lex_sorted_composition():
    s3 = symmetric_group_3()
    # elements are permutations in lexicographic order; product composes
    # left over right: (0,2,1) after (1,0,2) maps 0 -> 2
    assert s3.mul(1, 2) == 4
    assert s3.inv(3) == 4
    assert s3.element_order(1) == 2
    assert s3.element_order(3) == 3


def test_product_group_lex_indexing():
    g = product_group(cyclic_group(4), cyclic_group(2))
    assert g.order == 8
    # (a, b) sits at index 2a + b; (1,1)*(1,1) = (2,0)
    assert g.mul(3, 3) == 4
    assert g.name == "Z4xZ2"


def test_trivial_group_and_its_qg():
    e = trivial_group()
    assert e.order == 1
    c = qg_from_group(e, "c0")
    assert c.dim == 1
    np.testing.assert_array_equal(c.W, np.eye(1))


# --- homomorphisms ------------------------------------------------------


def test_group_hom_validates_images():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    hom = group_hom(z4, z2, (0, 1, 0, 1))
    assert hom(3) == 1
    with pytest.raises(ValueError):
        group_hom(z4, z2, (0, 1, 1, 0))
    with pytest.raises(ValueError):
        group_hom(z4, z2, (0, 1))
    with pytest.raises(ValueError):
        group_hom(z4, z2, (0, 5, 0, 1))


def test_identity_trivial_compose():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    q42 = group_hom(z4, z2, (0, 1, 0, 1))
    i24 = group_hom(z2, z4, (0, 2))
    assert compose_homs(q42, i24).map == (0, 0)
    assert compose_homs(q42, identity_hom(z4)).map == q42.map
    assert compose_homs(identity_hom(z2), q42).map == q42.map
    assert trivial_hom(z4, z2).map == (0, 0, 0, 0)


def test_sign_hom_on_s3():
    s3, z2 = symmetric_group_3(), cyclic_group(2)
    sgn = group_hom(s3, z2, (0, 1, 1, 0, 0, 1))
    # transpositions are odd, three-cycles even
    assert sgn(1) == 1 and sgn(3) == 0


def test_translation_matrices_represent_the_group():
    s3 = symmetric_group_3()
    for g in range(6):
        rho = translation_matrix(s3, g)
        assert unitarity_defect(rho) == 0.0
        for h in range(6):
            np.testing.assert_array_equal(
                rho @ translation_matrix(s3, h), translation_matrix(s3, s3.mul(g, h))
            )


# --- Hopf lifts ---------------------------------------------------------


def test_pullback_sums_over_fibers():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = hom_to_hopf(group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(f.map(e0), np.diag([1.0, 0, 1, 0]), atol=1e-10)
    np.testing.assert_allclose(f.map(e1), np.diag([0.0, 1, 0, 1]), atol=1e-10)


def test_pushforward_renames_translations():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = hom_to_hopf(group_hom(z2, z4, (0, 2)), "cstar")
    got = f.map(translation_matrix(z2, 1))
    np.testing.assert_allclose(got, translation_matrix(z4, 2), atol=1e-10)
    np.testing.assert_allclose(f.map(np.eye(2)), np.eye(4), atol=1e-10)


def test_hopf_lift_is_contravariant_in_function_picture():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    q42 = group_hom(z4, z2, (0, 1, 0, 1))
    i24 = group_hom(z2, z4, (0, 2))
    comp = compose_homs(q42, i24)
    lifted = hom_to_hopf(comp, "c0")
    fq = hom_to_hopf(q42, "c0")
    fi = hom_to_hopf(i24, "c0")
    for x in lifted.source.algC:
        assert residual_between(lifted.map(x), fi.map(fq.map(x))) <= 1e-12


def test_hopf_lift_is_covariant_in_group_algebra_picture():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    q42 = group_hom(z4, z2, (0, 1, 0, 1))
    i24 = group_hom(z2, z4, (0, 2))
    comp = compose_homs(q42, i24)
    lifted = hom_to_hopf(comp, "cstar")
    fq = hom_to_hopf(q42, "cstar")
    fi = hom_to_hopf(i24, "cstar")
    for x in lifted.source.algC:
        assert residual_between(lifted.map(x), fq.map(fi.map(x))) <= 1e-12


# --- the classical checks of qg_from_group -------------------------------


def _gauged(qg, ys, rng):
    """qg rebuilt from (u (x) u) W (u (x) u)* for a Haar u, and the units
    conjugated by u to match."""
    u = haar_unitary(qg.dim, rng)
    uu = kron(u, u)
    return q.build_from_unitary(uu @ qg.W @ uu.conj().T, qg.dim), u @ ys @ u.conj().T


@pytest.mark.parametrize("gauge", ["plain", "haar"])
def test_classical_checks_match_their_operator_oracles(gauge):
    """On the 26 corpus quantum groups, plain and Haar-gauged, the classical
    checks read off the structure constants agree with the Kronecker-sum
    forms, element by element, to 1e-14."""
    rng = np.random.default_rng(3602)
    for g in standard_corpus().values():
        for picture in ("c0", "cstar"):
            qg = qg_from_group(g, picture)
            ys, c = classical_comultiplication(g, picture)
            if gauge == "haar":
                qg, ys = _gauged(qg, ys, rng)
            got = intertwining_residuals(qg, ys, c)
            want = operator_comultiplication_defects(qg, ys, c)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            assert np.max(got) <= PENTAGON_TOL


@pytest.mark.parametrize("picture", ["c0", "cstar"])
def test_classical_checks_never_read_below_their_oracles(picture):
    """1e-6 perturbations of Delta and of the units, each inside the span it
    lives on and off it, on gauged Z4, S3 and Q8: the coefficient form
    never reads below the operator one by more than 1e-15, and both read
    every perturbation above the gate."""
    rng = np.random.default_rng(3603)
    corpus = standard_corpus()
    for name in ("Z4", "S3", "Q8"):
        ys, c = classical_comultiplication(corpus[name], picture)
        qg, ys = _gauged(qg_from_group(corpus[name], picture), ys, rng)
        d = qg.dim
        images = delta_map(qg).images
        for inside in (True, False):
            moved = nudged(images, PairSpan(qg.algC, qg.algC), 1e-6, inside, rng)
            bad = with_delta_images(qg, moved)
            got = intertwining_residuals(bad, ys, c)
            want = operator_comultiplication_defects(bad, ys, c, SpanMap(qg.algC, moved, d, d * d))
            assert np.all(got >= want - 1e-15) and np.min(want) > PENTAGON_TOL
            units = nudged(ys, PairSpan(qg.algC, np.ones((1, 1, 1))), 1e-6, inside, rng)
            got = intertwining_residuals(qg, units, c)
            want = operator_comultiplication_defects(qg, units, c)
            assert np.all(got >= want - 1e-15) and np.min(want) > PENTAGON_TOL


def test_a_nan_comultiplication_fails_the_classical_checks(monkeypatch):
    """A NaN in the Gram matrix or the structure constants reads NaN in
    either check, and qg_from_group's gate fails closed."""
    z4 = cyclic_group(4)
    for picture in ("c0", "cstar"):
        qg = qg_from_group(z4, picture)
        ys, c = classical_comultiplication(z4, picture)
        for which in ("structure", "gram"):
            held = {"structure": qg.structure.copy(), "gram": qg.gram.copy()}
            held[which][1, 1] = np.nan
            bad = FiniteQuantumGroup(
                qg.dim, qg.W, qg.algC, held["structure"], held["gram"], qg.kacR, qg.residuals
            )
            assert np.isnan(intertwining_residuals(bad, ys, c)).any()
    c0 = qg_from_group(z4, "c0")
    gram = c0.gram.copy()
    gram[0, 0] = np.nan
    tampered = FiniteQuantumGroup(
        c0.dim, c0.W, c0.algC, c0.structure, gram, c0.kacR, c0.residuals
    )
    monkeypatch.setattr(groups_module, "build_from_unitary", lambda w, d: tampered)
    with pytest.raises(CalculusError, match="not classical at element 0"):
        qg_from_group.__wrapped__(z4, "c0")


def test_qg_from_group_rejects_unknown_picture():
    with pytest.raises(ValueError):
        qg_from_group(cyclic_group(2), "vonneumann")


# --- characters and Fourier --------------------------------------------


def test_character_group_of_z4_is_z4():
    dual, phases, m = character_group(cyclic_group(4))
    assert m == 4
    assert dual.table == cyclic_group(4).table
    assert phases[0] == (0, 0, 0, 0)
    # every character is 1 at the identity
    assert all(row[0] == 0 for row in phases)


def test_character_group_of_klein_is_klein():
    v4 = product_group(cyclic_group(2), cyclic_group(2))
    dual, phases, m = character_group(v4)
    assert m == 2
    assert dual.table == v4.table
    assert len(set(phases)) == 4


def test_characters_multiply_exactly():
    g = product_group(cyclic_group(4), cyclic_group(2))
    dual, phases, m = character_group(g)
    for row in phases:
        for a in range(g.order):
            for b in range(g.order):
                assert (row[a] + row[b]) % m == row[g.mul(a, b)] % m


def test_character_group_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        character_group(symmetric_group_3())
    with pytest.raises(NotAbelian):
        fourier_dual_witness(symmetric_group_3())


def test_fourier_witness_z2_frozen():
    f = fourier_dual_witness(cyclic_group(2))
    np.testing.assert_allclose(f, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)
    shift = translation_matrix(cyclic_group(2), 1)
    np.testing.assert_allclose(f @ shift @ f.conj().T, np.diag([1.0, -1.0]), atol=1e-12)


def test_fourier_witness_z4_is_the_dft():
    f = fourier_dual_witness(cyclic_group(4))
    i = 1j
    frozen = np.array(
        [[1, 1, 1, 1], [1, i, -1, -i], [1, -1, 1, -1], [1, -i, -1, i]]
    ) / 2
    np.testing.assert_allclose(f, frozen, atol=1e-12)
    shift = translation_matrix(cyclic_group(4), 1)
    np.testing.assert_allclose(
        f @ shift @ f.conj().T, np.diag([1, -i, -1, i]), atol=1e-12
    )


def test_fourier_witness_all_abelian_corpus():
    for name, g in standard_corpus().items():
        if not g.is_abelian():
            continue
        f = fourier_dual_witness(g)
        assert unitarity_defect(f) <= 1e-10, name


def test_failed_witness_check_raises_under_python_O():
    """The witness checks are typed raises, not asserts that -O strips."""
    script = textwrap.dedent(
        """
        import sys
        from qgcalc import groups
        from qgcalc.errors import CalculusError

        real = groups.character_group

        def repeated_row(g):
            dual, phases, m = real(g)
            return dual, phases[:-1] + phases[:1], m

        groups.character_group = repeated_row
        assert False, "asserts must be stripped here"
        try:
            groups.fourier_dual_witness(groups.cyclic_group(4))
        except CalculusError as exc:
            print(type(exc).__name__, sys.flags.optimize, exc)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(q.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CalculusError 1 character table is not unitary")


def test_build_corpus_script_reproduces_the_shipped_corpus(tmp_path):
    """scripts/build_corpus.py writes the shipped group files byte for byte."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(q.__file__)))
    shipped = os.path.join(src, "qgcalc", "data", "groups")
    script = os.path.join(os.path.dirname(src), "scripts", "build_corpus.py")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, script, "--out", str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(shipped))
    for name in os.listdir(shipped):
        with open(os.path.join(shipped, name), "rb") as want, open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name
