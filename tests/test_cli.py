"""End-to-end command line coverage: exit codes, JSON reports, file outputs."""

import importlib
import inspect
import json
import pkgutil
import shutil

import numpy as np
import pytest

import qgcalc as q
from qgcalc.cli import DEFAULT_CORPUS, _record_failure, main
from qgcalc.bicharacter import Bicharacter
from qgcalc import cli, coactions, homviews, tensorleg
from qgcalc.coactions import (
    Coaction,
    check_corepresentation,
    comultiplication_coaction,
    pushforward_corep,
)
from qgcalc.errors import AlgebraNotClosed, gate
from qgcalc.homviews import (
    HopfHom,
    LeftQGHom,
    RightQGHom,
    left_from_bicharacter,
    left_map_from_bicharacter,
    right_from_bicharacter,
    right_map_from_bicharacter,
)
from qgcalc.qgroup import FiniteQuantumGroup
from qgcalc.report import Report, render_text
from qgcalc.serialize import (
    bicharacter_parts_from_obj,
    bicharacter_to_obj,
    coaction_parts_from_obj,
    coaction_to_obj,
    group_to_obj,
    hom_to_obj,
    matrix_to_obj,
    qg_to_obj,
    write_json,
)
from qgcalc.tensorleg import SpanMap, flip_unitary, residual_between
from conftest import gauged_bicharacters, haar_unitary, rotated


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured


def run_json(capsys, argv):
    code, captured = run_cli(capsys, argv)
    return code, json.loads(captured.out)


def _count_builds(monkeypatch):
    """Records the W of every build_from_unitary call, wherever it is bound."""
    from qgcalc import groups, qgroup, serialize

    digests = []
    real = qgroup.build_from_unitary

    def counted(w, dim):
        digests.append(np.asarray(w, dtype=complex).tobytes())
        return real(w, dim)

    for module in (qgroup, groups, serialize):
        monkeypatch.setattr(module, "build_from_unitary", counted)
    return digests


@pytest.fixture()
def va_file(tmp_path, z2, z4):
    va = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0"))
    path = tmp_path / "va.json"
    write_json(str(path), bicharacter_to_obj(va))
    return str(path), va


def test_verify_good_qg(tmp_path, capsys, z4):
    path = tmp_path / "c4.json"
    write_json(str(path), qg_to_obj(q.qg_from_group(z4, "c0")))
    code, obj = run_json(capsys, ["verify", str(path), "qg"])
    assert code == 0
    assert obj["pass"] is True
    names = {c["name"] for c in obj["checks"]}
    assert {"pentagon", "coassociativity", "manageability"} <= names
    assert all(c["pass"] for c in obj["checks"])


def test_verify_broken_w_exits_one(tmp_path, capsys):
    bad = {"dim": 2, "W": matrix_to_obj(flip_unitary(2, 2))}
    path = tmp_path / "bad.json"
    write_json(str(path), bad)
    code, captured = run_cli(capsys, ["verify", str(path), "qg"])
    assert code == 1
    obj = json.loads(captured.out)
    assert obj["pass"] is False
    assert any(not c["pass"] for c in obj["checks"])


def test_verify_broken_w_records_the_missed_tolerance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_json(str(path), {"dim": 2, "W": matrix_to_obj(flip_unitary(2, 2))})
    code, obj = run_json(capsys, ["verify", str(path), "qg"])
    assert code == 1
    assert [(c["name"], c["tolerance"], c["pass"]) for c in obj["checks"]] == [
        ("PentagonViolation", q.PENTAGON_TOL, False)
    ]


def test_failure_records_keep_the_gate_tolerance():
    report = Report("gated")
    for residual in (1e-3, float("nan")):
        with pytest.raises(AlgebraNotClosed) as exc:
            gate(residual, 1e-8, AlgebraNotClosed, "span is open")
        assert exc.value.tolerance == 1e-8
        _record_failure(report, exc.value)
    _record_failure(report, ValueError("no residual"))
    assert [c.tolerance for c in report.checks] == [1e-8, 1e-8, 0.0]
    assert not any(c.passed for c in report.checks)
    # the NaN residual renders as a failure, not as a pass
    assert render_text(report).splitlines()[2].startswith("  FAIL AlgebraNotClosed: nan")


def test_failure_records_say_why(tmp_path, capsys):
    # the flip's leg-1 slices are the four matrix units, rank 4 > d = 2:
    # its tail, (2 / 4)^(1/2), bounds its distance to every multiplicative
    # unitary from below and is the residual the record carries
    path = tmp_path / "flip.json"
    write_json(str(path), {"dim": 2, "W": matrix_to_obj(flip_unitary(2, 2))})
    code, obj = run_json(capsys, ["verify", str(path), "qg"])
    assert code == 1
    [record] = obj["checks"]
    assert record["name"] == "PentagonViolation"
    why = (
        "leg-1 slices span 4 > d = 2 dimensions; relative distance to every "
        "multiplicative unitary at least 7.07e-01"
    )
    assert record["message"] == why
    code, captured = run_cli(capsys, ["verify", str(path), "qg", "--text"])
    assert code == 1
    assert captured.out.splitlines()[1] == f"  FAIL PentagonViolation: 7.07e-01 <= 1.00e-10 ({why})"


def test_passing_records_carry_no_message(capsys, va_file):
    code, obj = run_json(capsys, ["verify", va_file[0], "bicharacter"])
    assert code == 0
    assert obj["checks"] and all(
        sorted(c) == ["name", "pass", "residual", "tolerance"] for c in obj["checks"]
    )


def test_verify_missing_file_exits_two(tmp_path, capsys):
    code, captured = run_cli(capsys, ["verify", str(tmp_path / "nope.json"), "qg"])
    assert code == 2
    assert "error" in captured.err


@pytest.mark.parametrize(
    "files, kind, err",
    [
        (
            {"top": {"V": matrix_to_obj(np.eye(4)), "source": {"path": 5}, "target": {"path": 5}}},
            "bicharacter",
            "path must be a string, got 5",
        ),
        ({"top": {"path": ["a"]}}, "qg", "path must be a string, got ['a']"),
        ({"top": {"group": {"path": 3}, "picture": "c0"}}, "qg", "path must be a string, got 3"),
        ({"top": {"path": "top.json"}}, "qg", "{dir}/top.json: quantum group path references form a cycle"),
        (
            {"top": {"group": {"path": "g.json"}, "picture": "c0"}, "g": {"path": "g.json"}},
            "qg",
            "{dir}/g.json: group path references form a cycle",
        ),
        # the command reads top.json itself; the reference back to b.json closes the cycle
        (
            {"top": {"path": "b.json"}, "b": {"path": "top.json"}},
            "qg",
            "{dir}/b.json: quantum group path references form a cycle",
        ),
    ],
    ids=["non-string-source", "non-string-qg", "non-string-group", "self-qg", "self-group", "two-files"],
)
def test_bad_path_reference_exits_two(tmp_path, capsys, files, kind, err):
    for name, obj in files.items():
        write_json(str(tmp_path / f"{name}.json"), obj)
    code, captured = run_cli(capsys, ["verify", str(tmp_path / "top.json"), kind])
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {err.format(dir=tmp_path)}\n"


def test_verify_bicharacter_and_text_mode(capsys, va_file):
    path, _ = va_file
    code, obj = run_json(capsys, ["verify", path, "bicharacter"])
    assert code == 0 and obj["pass"] is True
    code, captured = run_cli(capsys, ["verify", path, "bicharacter", "--text"])
    assert code == 0
    assert captured.out.startswith("PASS va.json")


BICHARACTER_CHECKS = [
    "unitarity",
    "comultSource",
    "comultTarget",
    "operatorSource",
    "operatorTarget",
    "membership",
    "rInvariance",
]
HOPF_CHECKS = ["range", "unital", "star", "multiplicative", "intertwining"]
ONE_SIDED_CHECKS = [
    "range",
    "coassocDiagram",
    "comoduleDiagram",
    "injective",
    "podles",
    "extraction",
    "roundTrip",
]


def test_verify_hom_kinds(tmp_path, capsys, z2, z4):
    bicharacter = ["bicharacter." + name for name in BICHARACTER_CHECKS]
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    hopf = tmp_path / "hopf.json"
    write_json(str(hopf), hom_to_obj("hopf", f.source, f.target, f.map))
    code, obj = run_json(capsys, ["verify", str(hopf), "hom"])
    assert code == 0 and obj["pass"] is True
    assert [c["name"] for c in obj["checks"]] == HOPF_CHECKS + bicharacter

    dr = right_from_bicharacter(q.from_hopf_hom(f))
    right = tmp_path / "right.json"
    write_json(str(right), hom_to_obj("right", dr.source, dr.target, dr.deltaR))
    code, obj = run_json(capsys, ["verify", str(right), "hom"])
    assert code == 0 and obj["pass"] is True
    assert [c["name"] for c in obj["checks"]] == ONE_SIDED_CHECKS + bicharacter

    dl = left_from_bicharacter(q.from_hopf_hom(f))
    left = tmp_path / "left.json"
    write_json(str(left), hom_to_obj("left", dl.source, dl.target, dl.deltaL))
    code, obj = run_json(capsys, ["verify", str(left), "hom"])
    assert code == 0 and obj["pass"] is True
    assert [c["name"] for c in obj["checks"]] == ONE_SIDED_CHECKS + bicharacter


def test_commands_compute_each_residual_set_once(count_calls, tmp_path, capsys, va_file, z2, z4):
    # a verified object carries its residuals, so no battery recomputes them
    path_a, va = va_file
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    hopf = tmp_path / "hopf.json"
    write_json(str(hopf), hom_to_obj("hopf", f.source, f.target, f.map))
    dr = right_from_bicharacter(va)
    right = tmp_path / "right.json"
    write_json(str(right), hom_to_obj("right", dr.source, dr.target, dr.deltaR))
    dl = left_from_bicharacter(va)
    left = tmp_path / "left.json"
    write_json(str(left), hom_to_obj("left", dl.source, dl.target, dl.deltaL))
    vb = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z2, z4, (0, 2)), "c0"))
    path_b = tmp_path / "vb.json"
    write_json(str(path_b), bicharacter_to_obj(vb))
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    calls = count_calls(
        "bicharacter_residuals", "HopfHom.verification_residuals", "one_sided_residuals"
    )
    # argv, then the expected bicharacter_residuals, Hopf-hom and one-sided hom
    # residual counts: one per file read and one per bicharacter made or
    # extracted; the round trip of a one-sided hom compares coefficients, and
    # induce turns the file's bicharacter into the right hom it induces
    # along, which reads its residuals off C F, no images
    for argv, *counts in (
        (["dual", path_a], 2, 0, 0),
        (["compose", path_a, str(path_b)], 3, 0, 0),
        (["verify", str(hopf), "hom"], 1, 1, 0),
        (["verify", str(right), "hom"], 1, 0, 1),
        (["verify", str(left), "hom"], 1, 0, 1),
        (["verify", path_a, "bicharacter"], 1, 0, 0),
        (["induce", str(coaction), path_a], 1, 0, 0),
    ):
        calls.update(dict.fromkeys(calls, 0))
        code, _ = run_json(capsys, argv)
        assert code == 0
        assert list(calls.values()) == counts, argv


def test_verifying_a_bicharacter_builds_each_w_once(
    monkeypatch, count_calls, tmp_path, capsys, va_file, z4
):
    # the source-side equations and rInvariance read the source's dual side
    # off its slices, so no dual is built: only the W the file names are;
    # no W is built twice, and each build reads Delta once off W's slices,
    # with no image stack
    ident = tmp_path / "ident.json"
    write_json(str(ident), bicharacter_to_obj(q.identity(q.qg_from_group(z4, "c0"))))
    digests = _count_builds(monkeypatch)
    calls = count_calls("conjugation_images", "_delta_from_slices")
    for path, builds in ((str(ident), 1), (va_file[0], 2)):
        argv = ["verify", path, "bicharacter"]
        digests.clear()
        calls.update(dict.fromkeys(calls, 0))
        code, obj = run_json(capsys, argv)
        assert code == 0 and "rInvariance" in {c["name"] for c in obj["checks"]}
        assert len(digests) == len(set(digests)) == builds, argv
        assert calls == {"conjugation_images": 0, "_delta_from_slices": builds}, argv


def test_each_checked_bicharacter_fits_its_hopf_coefficients_once(
    count_calls, tmp_path, capsys, va_file, z2, z4
):
    # bicharacter_residuals reads V's Hopf coefficients for membership and
    # comultSource, and the Bicharacter keeps that fit, so rInvariance and
    # the hom pictures read it again: one fit per V whose residuals are read
    path_a, va = va_file
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    hopf = tmp_path / "hopf.json"
    write_json(str(hopf), hom_to_obj("hopf", f.source, f.target, f.map))
    files = _one_sided_files(tmp_path, va)
    calls = count_calls("bicharacter_residuals", "_hopf_fit", "check_R_invariance")
    for argv in (
        ["verify", path_a, "bicharacter"],
        ["verify", str(hopf), "hom"],
        ["verify", files["right"], "hom"],
        ["verify", files["left"], "hom"],
    ):
        calls.update(dict.fromkeys(calls, 0))
        code, _ = run_json(capsys, argv)
        assert code == 0
        assert calls["check_R_invariance"] > 0, argv
        assert calls["_hopf_fit"] == calls["bicharacter_residuals"] > 0, (argv, calls)


def test_coaction_commands_take_the_stored_map_as_it_is(
    count_calls, tmp_path, capsys, va_file
):
    # a coaction file's map is stored on its basis, so no command re-derives
    # it: a build forms one basis, algC, the leg-2 closure being read off
    # W's slices, and reading the file orthonormalizes its D once
    path_a, va = va_file
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    calls = count_calls("orthonormal_basis", "build_from_unitary")
    for argv in (["verify", str(coaction), "coaction"], ["induce", str(coaction), path_a]):
        calls.update(dict.fromkeys(calls, 0))
        code, obj = run_json(capsys, argv)
        assert code == 0
        builds = calls["build_from_unitary"]
        assert builds > 0 and calls["orthonormal_basis"] == builds + 1, argv
        well = [c["residual"] for c in obj["checks"] if c["name"].endswith("wellDefined")]
        assert well and max(well) <= 1e-15, argv


def _map_reads(monkeypatch):
    """The stack shapes of the PairSpan.coefficients calls that read a map's
    images: neither a build's read of Delta, on the span of algC with
    itself, nor a bicharacter's membership, a stack of one."""
    reads = []
    real = tensorleg.PairSpan.coefficients

    def counted(span, xs):
        if span.left is not span.right and len(xs) > 1:
            reads.append(np.shape(xs))
        return real(span, xs)

    monkeypatch.setattr(tensorleg.PairSpan, "coefficients", counted)
    return reads


def test_each_map_is_read_once(monkeypatch, tmp_path, capsys, va_file):
    # verify reads a one-sided hom's images for its check, and the
    # extraction takes that read; induce reads the coaction's and the
    # induced coaction's images, once each, the right hom of a bicharacter
    # being its coefficients, and makes the object for --out only when
    # --out is given
    path_a, va = va_file
    files = _one_sided_files(tmp_path, va)
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    reads = _map_reads(monkeypatch)
    for argv, maps in (
        (["verify", files["right"], "hom"], 1),
        (["verify", files["left"], "hom"], 1),
        (["induce", str(coaction), path_a], 2),
    ):
        reads.clear()
        code, _ = run_json(capsys, argv)
        assert code == 0 and len(reads) == maps, (argv, reads)


def _one_sided_files(tmp_path, va):
    """va's right and left hom files, by kind."""
    files = {}
    for kind, hom in (("right", right_from_bicharacter(va)), ("left", left_from_bicharacter(va))):
        files[kind] = str(tmp_path / f"{kind}.json")
        write_json(files[kind], hom_to_obj(kind, hom.source, hom.target, getattr(hom, hom.map_name)))
    return files


def test_extraction_induction_and_pushforward_form_no_three_leg_product(
    count_calls, tmp_path, capsys, va_file
):
    # they read coefficients: no three-leg product (no module binds one:
    # test_the_suite_streams_no_identity), no partial trace, and no map on a
    # leg of W
    # __main__ is skipped: importing it runs the command line
    names = [f"qgcalc.{i.name}" for i in pkgutil.iter_modules(q.__path__) if i.name != "__main__"]
    modules = [q] + [importlib.import_module(name) for name in names]
    assert not [m.__name__ for m in modules if hasattr(m, "extract_trivial_legs")]
    # the one-leg superoperator path is gone; tensorleg's apply_map_to_leg,
    # map_legs on one leg, is kept for the acceptance tests and called by none
    assert not [m.__name__ for m in modules if hasattr(m, "_map_leg")]
    assert [m.__name__ for m in modules if hasattr(m, "apply_map_to_leg")] == ["qgcalc.tensorleg"]
    path_a, va = va_file
    files = _one_sided_files(tmp_path, va)
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    ident = tmp_path / "ident.json"
    write_json(str(ident), bicharacter_to_obj(q.identity(va.target)))
    # every picture of an arrow is a contraction with its Hopf coefficients:
    # no conjugation, antipode or map on a leg; the battery's rInvariance
    # reads both antipodes' coefficients, the dual's off the source's; the
    # builds read Delta off W's slices
    names = (
        "conjugation_images",
        "_delta_from_slices",
        "antipode_coefficients",
        "map_legs",
        "apply_map_to_leg",
        "build_from_unitary",
        "check_R_invariance",
    )
    calls = count_calls(*names)
    for argv in (
        ["verify", files["right"], "hom"],
        ["verify", files["left"], "hom"],
        ["induce", str(coaction), path_a],
        ["induce", str(coaction), files["right"]],
        ["compose", path_a, str(ident)],
    ):
        calls.update(dict.fromkeys(calls, 0))
        code, _ = run_json(capsys, argv)
        assert code == 0
        builds, r_invariance = calls["build_from_unitary"], calls["check_R_invariance"]
        assert builds > 0 and calls["_delta_from_slices"] == builds, argv
        assert calls["conjugation_images"] == 0, argv
        assert calls["antipode_coefficients"] == 2 * r_invariance, argv
        assert calls["map_legs"] == calls["apply_map_to_leg"] == 0, argv
    regular = check_corepresentation(va.source.W, va.source)
    ident_v = q.identity(va.target)
    calls.update(dict.fromkeys(calls, 0))
    for make in (right_map_from_bicharacter, left_map_from_bicharacter):
        make(va).images
    right_from_bicharacter(va).deltaR.images
    left_from_bicharacter(va).deltaL.images
    q.compose(va, ident_v)
    pushforward_corep(regular, va)
    assert calls == dict.fromkeys(names, 0)


def _count_dual_builds(monkeypatch):
    """Counts the duals FiniteQuantumGroup.dual builds: its calls that find
    neither a held dual nor a live builder."""
    built = []
    real = FiniteQuantumGroup.dual

    def dual(qg):
        if qg._dual is None and (qg._builder is None or qg._builder() is None):
            built.append(qg.dim)
        return real.fget(qg)

    monkeypatch.setattr(FiniteQuantumGroup, "dual", property(dual))
    return built


def test_no_command_but_dual_builds_a_dual(
    monkeypatch, count_calls, tmp_path, capsys, va_file, z2, z4
):
    """The bicharacter checks read the source's dual side off its slices:
    verify on bicharacter, Hopf, right and left hom files, compose, induce
    and the API pushforward and functor calls build no dual, dual builds
    exactly two, and each build forms one basis, algC."""
    path_a, va = va_file
    files = _one_sided_files(tmp_path, va)
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    hopf = tmp_path / "hopf.json"
    write_json(str(hopf), hom_to_obj("hopf", f.source, f.target, f.map))
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    ident = tmp_path / "ident.json"
    write_json(str(ident), bicharacter_to_obj(q.identity(va.target)))
    built = _count_dual_builds(monkeypatch)
    calls = count_calls("orthonormal_basis", "build_from_unitary")
    for argv, duals in (
        (["verify", path_a, "bicharacter"], 0),
        (["verify", str(hopf), "hom"], 0),
        (["verify", files["right"], "hom"], 0),
        (["verify", files["left"], "hom"], 0),
        (["compose", path_a, str(ident)], 0),
        (["induce", str(coaction), files["right"]], 0),
        (["dual", path_a], 2),
    ):
        built.clear()
        calls.update(dict.fromkeys(calls, 0))
        code, _ = run_json(capsys, argv)
        assert code == 0 and len(built) == duals, argv
        # a coaction file's D is orthonormalized once when it is read
        assert calls["orthonormal_basis"] == calls["build_from_unitary"] + (argv[0] == "induce")
    fresh = [q.build_from_unitary(x.W, x.dim) for x in (va.source, va.target)]
    va_fresh = q.check_bicharacter(va.V, *fresh)
    built.clear()
    right = right_from_bicharacter(va_fresh)
    coactions.compose_functors_check(right, right_from_bicharacter(q.identity(va_fresh.target)))
    pushforward_corep(check_corepresentation(va_fresh.source.W, va_fresh.source), va_fresh)
    assert built == []


def test_suite_and_hom_commands_search_no_einsum_path(
    monkeypatch, tmp_path, capsys, va_file, z2, z4
):
    """Every leg contraction is a matrix product: the shipped suite and the
    commands on hom files, coactions and arrows make no np.einsum call with
    an optimize argument, whose path search runs again on every call."""
    searched = []
    real = np.einsum

    def einsum(*args, **kwargs):
        if "optimize" in kwargs:
            searched.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    path_a, va = va_file
    files = _one_sided_files(tmp_path, va)
    hopf = tmp_path / "hopf.json"
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    write_json(str(hopf), hom_to_obj("hopf", f.source, f.target, f.map))
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    ident = tmp_path / "ident.json"
    write_json(str(ident), bicharacter_to_obj(q.identity(va.target)))
    for argv in (
        ["suite"],
        ["verify", str(hopf), "hom"],
        ["verify", files["right"], "hom"],
        ["verify", files["left"], "hom"],
        ["induce", str(coaction), files["right"]],
        ["induce", str(coaction), path_a],
        ["compose", path_a, str(ident)],
        ["dual", path_a],
    ):
        code, _ = run_json(capsys, argv)
        assert code == 0, argv
    assert searched == []


def test_suite_induce_and_a_build_make_no_least_squares_call(
    monkeypatch, tmp_path, capsys, va_file, s3
):
    """Induction is (id (x) f)gamma in closed form and the antipode a Gram
    fit: the shipped suite, induce along a bicharacter file and a build of
    a new W make no np.linalg.lstsq call."""
    called = []
    real = np.linalg.lstsq

    def lstsq(*args, **kwargs):
        called.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    path_a, va = va_file
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    for argv in (["suite"], ["induce", str(coaction), path_a]):
        code, _ = run_json(capsys, argv)
        assert code == 0, argv
    w = q.qg_from_group(s3, "cstar").W
    u = haar_unitary(6, np.random.default_rng(4503))
    uu = np.kron(u, u)
    assert q.build_from_unitary(uu @ w @ uu.conj().T, 6).kacR is not None
    assert called == []


def test_the_parser_is_built_once_and_commands_are_looked_up_when_run(
    monkeypatch, capsys, va_file
):
    """Two main calls build one parser, and the command that runs is the
    module's cmd_verify at the time of the call, so a wrapper of it sees it."""
    cli._parser.cache_clear()
    path_a, _ = va_file
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args, report: seen.append(args.path))
    for _ in range(2):
        code, _ = run_json(capsys, ["verify", path_a, "bicharacter"])
        assert code == 0
    assert seen == [path_a, path_a]
    assert cli._parser.cache_info().misses == 1


def _nan_coefficients(real, at):
    """real, except that one coefficient of the map_coefficients (p, g) it
    takes as its argument number at is NaN."""

    def patched(*args):
        p, g = args[at]
        p = p.copy()
        p[0, 0, 0] = np.nan
        return real(*args[:at], (p, g), *args[at + 1 :])

    return patched


def test_nan_extraction_and_solve_exit_one(monkeypatch, tmp_path, capsys, va_file):
    # a NaN in the coefficients the extraction or the induction reads, those
    # the hom's or the coaction's check kept, fails its gate with a NaN
    # residual: exit 1 and a record, no traceback
    path_a, va = va_file
    files = _one_sided_files(tmp_path, va)
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(comultiplication_coaction(va.source)))
    for module, name, at, argv, failure in (
        (homviews, "hopf_fit", 1, ["verify", files["right"], "hom"], "ExtractionFailure"),
        (homviews, "hopf_fit", 1, ["verify", files["left"], "hom"], "ExtractionFailure"),
        (coactions, "_pushed_through", 0, ["induce", str(coaction), path_a], "SolveFailure"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, _nan_coefficients(getattr(module, name), at))
            code, obj = run_json(capsys, argv)
        failed = [c for c in obj["checks"] if not c["pass"]]
        assert code == 1 and [c["name"] for c in failed] == [failure], argv
        assert np.isnan(failed[0]["residual"]), argv


def test_each_battery_reports_its_gate_table(tmp_path, capsys, va_file, z2, z4):
    # the CLI reports what the library gates: same names, same tolerances
    path_a, va = va_file
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    dr, dl = right_from_bicharacter(va), left_from_bicharacter(va)
    files = {
        "qg": (qg_to_obj(f.source), FiniteQuantumGroup.gates),
        "bicharacter": (bicharacter_to_obj(va), Bicharacter.gates),
        "hopf": (hom_to_obj("hopf", f.source, f.target, f.map), HopfHom.gates),
        "right": (hom_to_obj("right", dr.source, dr.target, dr.deltaR), RightQGHom.gates),
        "left": (hom_to_obj("left", dl.source, dl.target, dl.deltaL), LeftQGHom.gates),
        "coaction": (coaction_to_obj(comultiplication_coaction(va.source)), Coaction.gates),
    }
    for name, (obj, table) in files.items():
        path = tmp_path / f"{name}.json"
        write_json(str(path), obj)
        kind = "hom" if name in ("hopf", "right", "left") else name
        code, report = run_json(capsys, ["verify", str(path), kind])
        assert code == 0, name
        reported = [(c["name"], c["tolerance"]) for c in report["checks"]]
        expected = [(key, 0.0 if tol is None else tol) for key, tol, _ in table]
        assert reported[: len(expected)] == expected, name


def test_tol_overrides_every_residual_tolerance(tmp_path, capsys, z4):
    path = tmp_path / "c4.json"
    write_json(str(path), qg_to_obj(q.qg_from_group(z4, "c0")))
    code, obj = run_json(capsys, ["verify", str(path), "qg", "--tol", "1e-3"])
    assert code == 0 and obj["pass"] is True
    booleans = {"intertwinerDimensionOne", "coinvariantDimensionOne"}
    tolerances = {c["name"]: c["tolerance"] for c in obj["checks"]}
    assert booleans < set(tolerances)
    for name, tol in tolerances.items():
        assert tol == (0.0 if name in booleans else 1e-3), name


@pytest.fixture()
def perturbed_file(tmp_path, va_file):
    """va rotated by a unitary of size 1e-6: unitary, no longer a bicharacter."""
    _, va = va_file
    rng = np.random.default_rng(5)
    h = rng.standard_normal(va.V.shape) + 1j * rng.standard_normal(va.V.shape)
    h = (h + h.conj().T) / 2
    w, u = np.linalg.eigh(h / np.linalg.norm(h))
    obj = bicharacter_to_obj(va)
    obj["V"] = matrix_to_obj((u * np.exp(1e-6j * w)) @ u.conj().T @ va.V)
    path = tmp_path / "perturbed.json"
    write_json(str(path), obj)
    return str(path)


def test_tol_judges_the_report_not_the_gates(capsys, perturbed_file):
    # the report's residuals are judged at --tol ...
    code, obj = run_json(capsys, ["verify", perturbed_file, "bicharacter", "--tol", "1e-3"])
    assert code == 0
    assert [c["name"] for c in obj["checks"]] == BICHARACTER_CHECKS
    assert all(c["tolerance"] == 1e-3 for c in obj["checks"])
    # ... while the gate that decides whether V is a bicharacter stays fixed
    code, obj = run_json(capsys, ["dual", perturbed_file, "--tol", "1e-3"])
    assert code == 1
    [record] = obj["checks"]
    assert record["name"] == "BicharacterViolation"
    assert record["tolerance"] == q.EQUATION_TOL
    assert record["residual"] > q.EQUATION_TOL


def test_tol_judges_every_suite_check(tmp_path, capsys):
    d = _copy_corpus(tmp_path, ["z2"])
    code, obj = run_json(capsys, ["suite", str(d), "--tol", "1e-3"])
    assert code == 0
    [subject] = obj["subjects"]
    booleans = {c["name"] for c in subject["checks"] if c["name"].endswith("DimensionOne")}
    assert "doubleDual" in {c["name"] for c in subject["checks"]}
    for c in subject["checks"]:
        assert c["tolerance"] == (0.0 if c["name"] in booleans else 1e-3), c["name"]


def test_no_public_function_takes_a_tolerance():
    # tolerances are the named constants of the claims they gate, and only
    # the report is judged at --tol
    found = []
    # __main__ is skipped: importing it runs the command line
    for info in pkgutil.iter_modules(q.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"qgcalc.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj] + [m for k, m in vars(obj).items() if not k.startswith("_")]
            members += [obj.__init__] if inspect.isclass(obj) else []
            for member in members:
                if not callable(member):
                    continue
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                bad = {"tol", "cutoff", "membership_tol"} & set(params)
                if bad:
                    found.append(f"{module.__name__}.{name}: {sorted(bad)}")
    assert found == []


def test_verify_coaction(tmp_path, capsys, z2, z4):
    c2 = q.qg_from_group(z2, "c0")
    co = q.trivial_coaction(q.qg_from_group(z4, "c0").algC, c2)
    path = tmp_path / "co.json"
    write_json(str(path), coaction_to_obj(co))
    code, obj = run_json(capsys, ["verify", str(path), "coaction"])
    assert code == 0 and obj["pass"] is True


def test_compose_writes_identity(tmp_path, capsys, va_file, z2, z4):
    path_a, va = va_file
    vb = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z2, z4, (0, 2)), "c0"))
    path_b = tmp_path / "vb.json"
    write_json(str(path_b), bicharacter_to_obj(vb))
    out = tmp_path / "comp.json"
    code, obj = run_json(capsys, ["compose", path_a, str(path_b), "--out", str(out)])
    assert code == 0 and obj["pass"] is True
    _, _, v = bicharacter_parts_from_obj(json.loads(out.read_text(encoding="utf-8")))
    # q after i is the trivial endomorphism, so the arrow degenerates to 1 (x) 1
    np.testing.assert_allclose(v, np.eye(4), atol=1e-12)


def test_compose_builds_each_distinct_w_once_per_invocation(
    monkeypatch, count_calls, tmp_path, capsys, va_file, z2, z4
):
    path_a, _ = va_file
    vb = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z2, z4, (0, 2)), "c0"))
    path_b = tmp_path / "vb.json"
    write_json(str(path_b), bicharacter_to_obj(vb))
    digests = _count_builds(monkeypatch)
    calls = count_calls("conjugation_images", "_delta_from_slices")
    code, _ = run_json(capsys, ["compose", path_a, str(path_b)])
    assert code == 0
    # c0(Z4) and c0(Z2), each named by both files, and no dual: each
    # source's dual side is read off its slices; one read of Delta off W's
    # slices per build, no image stack, and nothing of either for the
    # second arrow, pushed along by its coefficients
    assert len(digests) == len(set(digests)) == calls["_delta_from_slices"] == 2
    # built objects do not outlive an invocation: a second one builds again
    code, _ = run_json(capsys, ["compose", path_a, str(path_b)])
    assert code == 0
    assert len(digests) == calls["_delta_from_slices"] == 4 and len(set(digests)) == 2
    assert calls["conjugation_images"] == 0


def test_compose_mismatch_exits_two(capsys, va_file):
    path, _ = va_file
    code, captured = run_cli(capsys, ["compose", path, path])
    assert code == 2
    assert "error" in captured.err


@pytest.fixture()
def nonunitary_file(tmp_path, va_file):
    _, va = va_file
    obj = bicharacter_to_obj(va)
    v = va.V.copy()
    v[1, 2] += 0.25
    obj["V"] = matrix_to_obj(v)
    path = tmp_path / "nonunitary.json"
    write_json(str(path), obj)
    return str(path)


@pytest.mark.parametrize("command", ["compose", "dual"])
def test_non_unitary_v_is_reported_not_raised(capsys, va_file, nonunitary_file, command):
    path, _ = va_file
    argv = ["compose", nonunitary_file, path] if command == "compose" else ["dual", nonunitary_file]
    code, obj = run_json(capsys, argv)
    assert code == 1 and obj["pass"] is False
    assert [c["name"] for c in obj["checks"]] == ["NotUnitary"]


def test_non_finite_entry_exits_two(monkeypatch, tmp_path, capsys, va_file):
    _, va = va_file
    obj = bicharacter_to_obj(va)
    obj["V"]["data"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    write_json(str(path), obj)
    digests = _count_builds(monkeypatch)
    code, captured = run_cli(capsys, ["verify", str(path), "bicharacter"])
    assert code == 2
    assert "not finite" in captured.err
    # V is parsed before either endpoint is built
    assert digests == []


@pytest.mark.parametrize("entry", [float("nan"), 10**400], ids=["nan", "huge"])
def test_unusable_w_exits_two(tmp_path, capsys, z2, entry):
    obj = qg_to_obj(q.qg_from_group(z2, "c0"))
    obj["W"]["data"][0][0] = entry
    path = tmp_path / "w.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    code, captured = run_cli(capsys, ["verify", str(path), "qg"])
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: W: entry 0 is not finite\n"


_ONE = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            {"group": {"order": True, "table": [[0]]}, "picture": "c0"},
            "group: order must be a positive integer, got True",
        ),
        (
            {"group": {"order": 2, "table": [[0, True], [True, 0]]}, "picture": "c0"},
            "group: table entry True is not an integer",
        ),
        ({"dim": True, "W": _ONE}, "dim must be a positive integer, got True"),
        (
            {"dim": 1, "W": {"rows": True, "cols": True, "data": [[1.0, 0.0]]}},
            "W: rows and cols must be positive integers",
        ),
    ],
    ids=["order", "table-entry", "dim", "rows-cols"],
)
def test_a_json_bool_is_not_an_integer_exits_two(tmp_path, capsys, spec, message):
    """JSON true is no size or group element: a ParseError and exit 2, where
    it used to pass as 1 or die in a TypeError."""
    path = tmp_path / "bool.json"
    write_json(str(path), spec)
    code, captured = run_cli(capsys, ["verify", str(path), "qg"])
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_suite_group_of_order_true_fails(tmp_path, capsys):
    d = _copy_corpus(tmp_path, ["z2"])
    write_json(str(d / "bool_group.json"), {"order": True, "table": [[0]]})
    code, obj = run_json(capsys, ["suite", str(d)])
    assert code == 1
    failing = {s["subject"]: s["checks"][-1] for s in obj["subjects"] if not s["pass"]}
    assert list(failing) == ["bool_group.json"]
    assert failing["bool_group.json"]["message"] == (
        "group: order must be a positive integer, got True"
    )


def test_integer_too_large_for_a_float_exits_two(tmp_path, capsys, va_file):
    _, va = va_file
    obj = bicharacter_to_obj(va)
    obj["V"]["data"][0][0] = 10**400
    path = tmp_path / "huge.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    code, captured = run_cli(capsys, ["verify", str(path), "bicharacter"])
    assert code == 2
    assert "entry 0 is not finite" in captured.err


def test_dual_round_trip(tmp_path, capsys, va_file):
    path, va = va_file
    out = tmp_path / "dual.json"
    code, obj = run_json(capsys, ["dual", path, "--out", str(out)])
    assert code == 0 and obj["pass"] is True
    _, _, v = bicharacter_parts_from_obj(json.loads(out.read_text(encoding="utf-8")))
    np.testing.assert_allclose(v, q.dual_bicharacter(va).V, atol=1e-12)


def test_induce_comultiplication_gives_delta_r(tmp_path, capsys, va_file):
    path_v, va = va_file
    dr = right_from_bicharacter(va)
    start = comultiplication_coaction(dr.source)
    path_c = tmp_path / "start.json"
    write_json(str(path_c), coaction_to_obj(start))
    out = tmp_path / "induced.json"
    code, obj = run_json(capsys, ["induce", str(path_c), path_v, "--out", str(out)])
    assert code == 0 and obj["pass"] is True
    # the input and the induced coaction each report the whole coaction table
    table = [(key, 0.0 if tol is None else tol) for key, tol, _ in Coaction.gates]
    assert [(c["name"], c["tolerance"]) for c in obj["checks"]] == (
        [("input." + key, tol) for key, tol in table]
        + [("solve", q.EQUATION_TOL), ("uniqueRank", 0.0)]
        + table
    )
    basis, _, images = coaction_parts_from_obj(json.loads(out.read_text(encoding="utf-8")))
    worst = max(
        residual_between(img, dr.deltaR(d)) for img, d in zip(images, basis)
    )
    assert worst <= 1e-9


def test_induce_blames_a_zero_hom(tmp_path, capsys, z2, z4):
    # the zero map into c0(Z4) (x) c0(Z2) passes every equation, so it is
    # its injectivity gate that must reject it, before anything is induced
    c, a = q.qg_from_group(z4, "c0"), q.qg_from_group(z2, "c0")
    n = c.dim * a.dim
    zero = SpanMap(tuple(c.algC), tuple(np.zeros((n, n), complex) for _ in c.algC), c.dim, n)
    path_h = tmp_path / "zero_right.json"
    write_json(str(path_h), hom_to_obj("right", c, a, zero))
    path_c = tmp_path / "co.json"
    write_json(str(path_c), coaction_to_obj(comultiplication_coaction(c)))
    code, obj = run_json(capsys, ["induce", str(path_c), str(path_h)])
    assert code == 1
    record = obj["checks"][-1]
    assert record["name"] == "RangeViolation"
    assert record["message"] == "deltaR is not injective"


@pytest.mark.parametrize(
    "extra",
    [np.eye(3), np.ones((2, 3))],
    ids=["mixed-shapes", "non-square"],
)
@pytest.mark.parametrize("command", ["verify", "induce"])
def test_malformed_coaction_basis_exits_two(tmp_path, capsys, va_file, command, extra):
    # the file's D basis must be square matrices of one shape before it is stacked
    path_v, va = va_file
    obj = coaction_to_obj(comultiplication_coaction(va.source))
    obj["D"]["basis"].append(matrix_to_obj(extra))
    path_c = tmp_path / "bad_basis.json"
    write_json(str(path_c), obj)
    argv = {"verify": [str(path_c), "coaction"], "induce": [str(path_c), path_v]}[command]
    code, captured = run_cli(capsys, [command] + argv)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: coaction: D basis elements must be square")


def test_induce_mismatched_sources_exits_two(tmp_path, capsys, va_file, z4):
    path_v, va = va_file
    wrong = comultiplication_coaction(q.qg_from_group(z4, "c0"))
    path_c = tmp_path / "wrong.json"
    write_json(str(path_c), coaction_to_obj(wrong))
    code, captured = run_cli(capsys, ["induce", str(path_c), path_v])
    assert code == 2
    assert "error" in captured.err


def _copy_corpus(tmp_path, names):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in names:
        shutil.copy(f"{DEFAULT_CORPUS}/{name}.json", d / f"{name}.json")
    return d


def test_suite_small_corpus_includes_hom_chains(tmp_path, capsys):
    d = _copy_corpus(tmp_path, ["z2", "z4", "s3"])
    code, obj = run_json(capsys, ["suite", str(d)])
    assert code == 0 and obj["pass"] is True
    subjects = [s["subject"] for s in obj["subjects"]]
    assert subjects == ["s3.json", "z2.json", "z4.json", "homChains"]


def test_suite_builds_each_quantum_group_once(monkeypatch, capsys):
    from qgcalc import groups

    digests = _count_builds(monkeypatch)
    # start cold, so every object the suite uses is built inside this run
    groups.qg_from_group.cache_clear()
    code, obj = run_json(capsys, ["suite"])
    assert code == 0 and obj["pass"] is True
    assert len(digests) == len(set(digests))
    group_files = [s for s in obj["subjects"] if s["subject"] != "homChains"]
    assert len(digests) == 2 * len(group_files)


# what checks a library reading against operators: the three-leg products
# and their column slabs, the residual streamed over those slabs, and the
# streamed pentagon and its probe size, which a build used to call
OPERATOR_ORACLES = (
    "legs_product",
    "legs_slab",
    "_contract",
    "_named_legs",
    "slab_width",
    "_sq",
    "streamed_residual",
    "_slab_function",
    "SLAB_ENTRIES",
    "_streamed_pentagon",
    "PENTAGON_PROBE_ENTRIES",
)


def test_the_suite_streams_no_identity(capsys):
    """No qgcalc module defines or binds an operator oracle: every
    three-leg identity the library checks, the pentagon included, is read
    off slice coefficients, and the oracles live in the tests.  The corpus
    suite's 14 subjects pass."""
    from qgcalc import groups

    # __main__ is skipped: importing it runs the command line
    names = [f"qgcalc.{i.name}" for i in pkgutil.iter_modules(q.__path__) if i.name != "__main__"]
    modules = [q] + [importlib.import_module(name) for name in names]
    assert len(modules) == len(names) + 1 > 10
    assert not [(m.__name__, x) for m in modules for x in OPERATOR_ORACLES if hasattr(m, x)]
    groups.qg_from_group.cache_clear()
    code, obj = run_json(capsys, ["suite"])
    assert code == 0 and obj["pass"] is True
    assert len(obj["subjects"]) == 14 and all(s["pass"] for s in obj["subjects"])


def test_a_rotated_gauged_arrow_is_rejected_without_streaming(tmp_path, capsys, z2, z4):
    """A 1e-6 rotation of the Haar-gauged Z4 -> Z2 arrow is off the slice
    spans: `verify … bicharacter`, which streams nothing
    (test_the_suite_streams_no_identity), fails all four equations on
    their certified bounds and `dual` rejects it with BicharacterViolation,
    both exiting 1."""
    [v] = gauged_bicharacters([q.group_hom(z4, z2, (0, 1, 0, 1))], "c0", "haar", 3101)
    obj = bicharacter_to_obj(v)
    obj["V"] = matrix_to_obj(rotated(v.V, 1e-6, np.random.default_rng(3102)))
    path = tmp_path / "rotated.json"
    write_json(str(path), obj)
    code, obj = run_json(capsys, ["verify", str(path), "bicharacter"])
    assert code == 1
    failed = {c["name"] for c in obj["checks"] if not c["pass"]}
    assert {"comultSource", "comultTarget", "operatorSource", "operatorTarget"} <= failed
    code, captured = run_cli(capsys, ["dual", str(path)])
    assert code == 1 and "Traceback" not in captured.err
    [record] = json.loads(captured.out)["checks"]
    assert record["name"] == "BicharacterViolation"
    assert record["residual"] > q.EQUATION_TOL


def test_suite_flags_corrupt_file(tmp_path, capsys, z2):
    d = _copy_corpus(tmp_path, ["z2"])
    (d / "broken.json").write_text("{ bad", encoding="utf-8")
    obj = qg_to_obj(q.qg_from_group(z2, "c0"))
    obj["W"]["data"][0][0] = float("nan")
    write_json(str(d / "nan_w.json"), obj)
    write_json(str(d / "empty_group.json"), {"order": 0, "table": []})
    # two subjects naming the unusable file: each gets its error, not a cycle
    for name in ("ref_a.json", "ref_b.json"):
        ref = {"path": "nan_w.json"}
        write_json(str(d / name), {"V": matrix_to_obj(np.eye(4)), "source": ref, "target": ref})
    code, obj = run_json(capsys, ["suite", str(d)])
    assert code == 1
    failing = {s["subject"]: s["checks"][-1] for s in obj["subjects"] if not s["pass"]}
    assert list(failing) == ["broken.json", "empty_group.json", "nan_w.json", "ref_a.json", "ref_b.json"]
    for name in ("ref_a.json", "ref_b.json"):
        assert failing[name]["message"] == "W: entry 0 is not finite"


def test_suite_empty_dir_warns(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, captured = run_cli(capsys, ["suite", str(d)])
    assert code == 0
    assert "no subjects" in captured.err


def test_suite_missing_dir_exits_two(tmp_path, capsys):
    code, captured = run_cli(capsys, ["suite", str(tmp_path / "absent")])
    assert code == 2
    assert "error" in captured.err


def _strip_times(obj):
    obj = dict(obj)
    obj.pop("wallTime", None)
    obj["subjects"] = [
        {k: v for k, v in s.items() if k != "wallTime"} for s in obj["subjects"]
    ]
    return obj


def test_suite_is_deterministic(tmp_path, capsys):
    d = _copy_corpus(tmp_path, ["z2", "z4"])
    _, first = run_json(capsys, ["suite", str(d)])
    _, second = run_json(capsys, ["suite", str(d)])
    assert _strip_times(first) == _strip_times(second)


def test_report_out_writes_file(tmp_path, capsys, z2):
    path = tmp_path / "c2.json"
    write_json(str(path), qg_to_obj(q.qg_from_group(z2, "c0")))
    dest = tmp_path / "report.json"
    code, obj = run_json(
        capsys, ["verify", str(path), "qg", "--report-out", str(dest)]
    )
    assert code == 0
    assert json.loads(dest.read_text(encoding="utf-8")) == obj


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "x.json", "spam"])
    assert exc.value.code == 2
