"""JSON round trips and error reporting for every file format."""

import json
import os

import numpy as np
import pytest

import qgcalc as q
import qgcalc.serialize as serialize_module
from qgcalc.cli import main
from qgcalc.errors import ParseError
from qgcalc.homviews import right_from_bicharacter
from qgcalc.serialize import (
    bicharacter_parts_from_obj,
    bicharacter_to_obj,
    build_scope,
    coaction_parts_from_obj,
    coaction_to_obj,
    detect_kind,
    group_from_obj,
    group_to_obj,
    hom_parts_from_obj,
    hom_to_obj,
    load_json,
    load_qg,
    matrix_from_obj,
    matrix_to_obj,
    qg_from_obj,
    qg_to_obj,
    write_json,
)
from qgcalc.tensorleg import residual_between

RNG = np.random.default_rng(777)


def test_matrix_round_trip():
    m = RNG.standard_normal((3, 5)) + 1j * RNG.standard_normal((3, 5))
    got = matrix_from_obj(matrix_to_obj(m))
    np.testing.assert_allclose(got, m, atol=1e-15)


def test_matrix_errors():
    with pytest.raises(ParseError):
        matrix_from_obj([1, 2, 3])
    with pytest.raises(ParseError):
        matrix_from_obj({"rows": 2, "cols": 2})
    with pytest.raises(ParseError):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[0, 0]]})
    with pytest.raises(ParseError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [["x", 0]]})
    with pytest.raises(ParseError):
        matrix_from_obj({"rows": 0, "cols": 2, "data": []})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_matrix_rejects_non_finite_entries(tmp_path, bad):
    obj = matrix_to_obj(np.eye(2))
    obj["data"][3][1] = bad
    with pytest.raises(ParseError, match="entry 3"):
        matrix_from_obj(obj)
    # the literals NaN and Infinity survive a JSON round trip
    path = tmp_path / "m.json"
    write_json(str(path), {"m": obj})
    with pytest.raises(ParseError):
        matrix_from_obj(load_json(str(path))["m"])


def _parse_entry_by_entry(data):
    """The entry-by-entry parse, kept as the reference: one complex() a pair."""
    out = np.empty(len(data), dtype=complex)
    for i, (re, im) in enumerate(data):
        out[i] = complex(re, im)
    return out


def test_matrix_parses_bit_for_bit_as_entry_by_entry():
    m = RNG.standard_normal((7, 7)) + 1j * RNG.standard_normal((7, 7))
    obj = matrix_to_obj(m)
    # signed zeros, integers, booleans and a large integer ride along
    obj["data"][:5] = [[-0.0, -0.0], [0.0, -0.0], [3, -2], [True, False], [2**60 + 1, 1]]
    got = matrix_from_obj(obj)
    want = _parse_entry_by_entry(obj["data"]).reshape(7, 7)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_matrix_names_the_first_bad_entry():
    data = [[0.0, 0.0], [float("nan"), 0.0], [0.0, 1.0], ["x", 0.0], [1.0]]
    obj = {"rows": 1, "cols": 5, "data": data}
    # every entry is checked for its form before any is checked for finiteness
    with pytest.raises(ParseError, match=r"^m: entry 3 must be \[re, im\]$"):
        matrix_from_obj(obj, "m")
    data[3] = [1, 2]
    with pytest.raises(ParseError, match=r"^m: entry 4 must be \[re, im\]$"):
        matrix_from_obj(obj, "m")
    data[4] = [0.5, float("inf")]
    with pytest.raises(ParseError, match=r"^m: entry 1 is not finite$"):
        matrix_from_obj(obj, "m")


def test_matrix_rejects_an_integer_too_large_for_a_float():
    obj = {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0, 10**400]]}
    with pytest.raises(ParseError, match="entry 1 is not finite"):
        matrix_from_obj(obj)


# entries numpy reads as numbers or as objects, and what the checks make of them
_EDGE_ENTRIES = {
    "str": [[0.0, 1.0], ["x", 0]],
    "numeric str": [["1.5", 0]],
    "none": [[None, 1.0]],
    "ragged": [[1.0, 2.0], [1.0]],
    "triple": [[1, 2, 3]],
    "empty": [[]],
    "nested": [[[1, 2], 0]],
    "dict": [[{"a": 1}, 0]],
    "flat": [1.0, 2.0],
    "huge int": [[10**400, 0]],
    "above int64": [[2**63 + 1, 0], [3, 4]],
    "above uint64": [[2**64, 1]],
    "below int64": [[-(2**63) - 1, 0]],
    "nan": [[float("nan"), 0]],
    "inf": [[0, float("inf")]],
    "tuple": [(1.0, 2.0)],
    "array": [np.array([1.0, 2.0])],
    "numpy int": [[np.int64(1), 0]],
    "numpy float32": [[np.float32(1), 0.5]],
    "numpy float64": [[np.float64(1.5), 0.5]],
    "bools": [[True, False]],
    "ints": [[2**62 + 3, -(2**62) - 5]],
    "mixed": [[2**60 + 1, 0.5], [3, True], [-0.0, -0.0]],
}


def _outcome(data):
    try:
        return matrix_from_obj({"rows": 1, "cols": len(data), "data": data}).tobytes()
    except ParseError as exc:
        return str(exc)


def test_the_plain_parse_decides_as_the_entry_checks(monkeypatch):
    """Lists of two finite Python numbers are read in one numpy pass; every
    other entry falls back to the entry-by-entry checks, so each input is
    accepted bit for bit, or rejected with the message, as by those checks
    alone."""
    got = {name: _outcome(data) for name, data in _EDGE_ENTRIES.items()}
    m = RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9))
    plain = json.loads(json.dumps(matrix_to_obj(m)))
    assert serialize_module._plain_pairs(plain["data"]) is not None
    fast = matrix_from_obj(plain)
    monkeypatch.setattr(serialize_module, "_plain_pairs", lambda data: None)
    assert got == {name: _outcome(data) for name, data in _EDGE_ENTRIES.items()}
    assert fast.tobytes() == matrix_from_obj(plain).tobytes() == m.tobytes()
    assert isinstance(got["mixed"], bytes) and "must be [re, im]" in got["numpy int"]


def test_load_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_json(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_json(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ParseError):
        load_json(str(arr))


def test_group_round_trip(s3):
    obj = group_to_obj(s3)
    back = group_from_obj(obj)
    assert back.table == s3.table
    assert back.name == "S3"


def test_group_path_reference(tmp_path, z4):
    write_json(str(tmp_path / "z4.json"), group_to_obj(z4))
    got = group_from_obj({"path": "z4.json"}, base=str(tmp_path))
    assert got.table == z4.table


def test_group_errors():
    with pytest.raises(ParseError):
        group_from_obj({"order": 2})
    with pytest.raises(ParseError):
        group_from_obj({"order": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(ParseError):
        group_from_obj({"order": 2, "table": [[0, 1], [1, 0.5]]})


def test_qg_inline_w_round_trip(z2):
    c2 = q.qg_from_group(z2, "c0")
    back = qg_from_obj(qg_to_obj(c2))
    np.testing.assert_allclose(back.W, c2.W, atol=1e-12)


def test_qg_group_picture_form(z4):
    got = qg_from_obj({"group": group_to_obj(z4), "picture": "cstar"})
    assert got.same_unitary(q.qg_from_group(z4, "cstar"))
    with pytest.raises(ParseError):
        qg_from_obj({"group": group_to_obj(z4), "picture": "w*"})


def test_qg_path_form(tmp_path, z2):
    c2 = q.qg_from_group(z2, "c0")
    write_json(str(tmp_path / "c2.json"), qg_to_obj(c2))
    got = load_qg(str(tmp_path / "c2.json"))
    np.testing.assert_allclose(got.W, c2.W, atol=1e-12)
    got2 = qg_from_obj({"path": "c2.json"}, base=str(tmp_path))
    np.testing.assert_allclose(got2.W, c2.W, atol=1e-12)


def test_qg_shape_errors(z2):
    c2 = q.qg_from_group(z2, "c0")
    obj = qg_to_obj(c2)
    obj["dim"] = 3
    with pytest.raises(ParseError):
        qg_from_obj(obj)
    with pytest.raises(ParseError):
        qg_from_obj({"dim": 2})
    with pytest.raises(ParseError):
        qg_from_obj("nope")


def test_bicharacter_round_trip(z2, z4):
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    v = q.from_hopf_hom(f)
    source, target, mat = bicharacter_parts_from_obj(bicharacter_to_obj(v))
    assert source.same_unitary(v.source)
    assert target.same_unitary(v.target)
    np.testing.assert_allclose(mat, v.V, atol=1e-12)


def _counting_builds(monkeypatch):
    calls = []
    real = serialize_module.build_from_unitary

    def counted(w, dim):
        calls.append(dim)
        return real(w, dim)

    monkeypatch.setattr(serialize_module, "build_from_unitary", counted)
    return calls


def test_identity_arrow_builds_its_object_once(monkeypatch, z4):
    c4 = q.qg_from_group(z4, "c0")
    obj = bicharacter_to_obj(q.identity(c4))
    calls = _counting_builds(monkeypatch)
    source, target, v = bicharacter_parts_from_obj(obj)
    assert calls == [4]
    assert target is source
    np.testing.assert_array_equal(v, c4.W)


def test_distinct_endpoints_build_twice(monkeypatch, z2, z4):
    v = q.from_hopf_hom(q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0"))
    calls = _counting_builds(monkeypatch)
    source, target, _ = bicharacter_parts_from_obj(bicharacter_to_obj(v))
    assert calls == [source.dim, target.dim]
    assert source.dim != target.dim


def test_build_scope_memo_ends_with_the_scope(monkeypatch, tmp_path, z2):
    obj = qg_to_obj(q.qg_from_group(z2, "c0"))
    write_json(str(tmp_path / "c2.json"), obj)
    calls = _counting_builds(monkeypatch)
    with build_scope():
        # an inline spec and a path reference naming the same W share one build
        first = qg_from_obj(obj)
        assert qg_from_obj({"path": "c2.json"}, str(tmp_path)) is first
    assert calls == [2]
    # outside a scope each reader call builds afresh
    assert qg_from_obj(obj) is not qg_from_obj(obj)
    assert calls == [2, 2, 2]


def test_an_endomorphism_file_reads_its_object_once(tmp_path, capsys, count_calls, z4):
    """A bicharacter file naming one quantum group file as source and target
    (here the identity arrow, with the two references spelled differently)
    is read, and that file once: two reads, not three."""
    c4 = q.qg_from_group(z4, "c0")
    write_json(str(tmp_path / "c4.json"), qg_to_obj(c4))
    obj = {"source": {"path": "c4.json"}, "target": {"path": "./c4.json"}}
    write_json(str(tmp_path / "v.json"), dict(obj, V=matrix_to_obj(c4.W)))
    calls = count_calls("load_json")
    assert main(["verify", str(tmp_path / "v.json"), "bicharacter"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert calls["load_json"] == 2


def test_bicharacter_shape_error(z2, z4):
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    v = q.from_hopf_hom(f)
    obj = bicharacter_to_obj(v)
    obj["V"] = matrix_to_obj(np.eye(4))
    with pytest.raises(ParseError):
        bicharacter_parts_from_obj(obj)


@pytest.mark.parametrize("kind", ["hopf", "right", "left"])
def test_hom_round_trip(kind, z2, z4):
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    v = q.from_hopf_hom(f)
    if kind == "hopf":
        span = f.map
        source, target = f.source, f.target
    elif kind == "right":
        dr = right_from_bicharacter(v)
        span = dr.deltaR
        source, target = dr.source, dr.target
    else:
        dl = q.left_from_bicharacter(v)
        span = dl.deltaL
        source, target = dl.source, dl.target
    obj = hom_to_obj(kind, source, target, span)
    got_kind, got_source, got_target, images = hom_parts_from_obj(obj)
    assert got_kind == kind
    assert got_source.same_unitary(source)
    worst = max(
        residual_between(img, span(x)) for img, x in zip(images, source.algC)
    )
    assert worst <= 1e-10


def test_hom_convention_is_enforced(z2, z4):
    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    obj = hom_to_obj("hopf", f.source, f.target, f.map)
    obj["basisConvention"] = "rowwise"
    with pytest.raises(ParseError):
        hom_parts_from_obj(obj)
    obj["basisConvention"] = "orthonormalized-slice"
    obj["kind"] = "diagonal"
    with pytest.raises(ParseError):
        hom_parts_from_obj(obj)


def test_coaction_round_trip(z2, z4):
    c2 = q.qg_from_group(z2, "c0")
    co = q.trivial_coaction(q.qg_from_group(z4, "c0").algC, c2)
    basis, qg, images = coaction_parts_from_obj(coaction_to_obj(co))
    assert qg.same_unitary(c2)
    assert len(basis) == 4
    worst = max(residual_between(img, co.gamma(d)) for img, d in zip(images, basis))
    assert worst <= 1e-10


def test_coaction_round_trip_survives_reorthonormalization(z2, z4):
    # pivoted QR flips signs of an already-orthonormal basis; the writer
    # must express gamma against the basis a reader reconstructs
    from qgcalc.coactions import comultiplication_coaction

    for g in (z2, z4):
        c = q.qg_from_group(g, "c0")
        co = comultiplication_coaction(c)
        basis, qg, images = coaction_parts_from_obj(coaction_to_obj(co))
        worst = max(
            residual_between(img, co.gamma(d)) for img, d in zip(images, basis)
        )
        assert worst <= 1e-12


def test_coaction_requires_basis(z2):
    with pytest.raises(ParseError):
        coaction_parts_from_obj({"D": {}, "qg": {}, "gamma": {}})
    with pytest.raises(ParseError):
        coaction_parts_from_obj({"D": {"basis": []}, "qg": {}, "gamma": {}})


def test_detect_kind():
    assert detect_kind({"order": 2, "table": []}) == "group"
    assert detect_kind({"kind": "hopf"}) == "hom"
    assert detect_kind({"V": {}, "source": {}, "target": {}}) == "bicharacter"
    assert detect_kind({"gamma": {}, "D": {}, "qg": {}}) == "coaction"
    assert detect_kind({"dim": 2, "W": {}}) == "qg"
    assert detect_kind({"group": {}, "picture": "c0"}) == "qg"
    with pytest.raises(ParseError):
        detect_kind({"spam": 1})


def test_write_json_trailing_newline(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"a": 1})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1}


def _stock_bytes(tmp_path, obj):
    """What json.dump(obj, fh, indent=2) and a newline write."""
    path = tmp_path / "stock.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    return path.read_bytes()


def test_write_json_writes_the_stock_layout_byte_for_byte(
    tmp_path, capsys, count_calls, z2, z4
):
    """Every kind the command line writes, its --out files (compose, dual,
    induce) and the other writers' objects, NaN and infinite entries, an
    empty data list and data lists that are not all float pairs: the bytes
    json.dump(obj, fh, indent=2) writes, newline included."""
    from qgcalc.coactions import comultiplication_coaction

    f = q.hom_to_hopf(q.group_hom(z4, z2, (0, 1, 0, 1)), "c0")
    v = q.from_hopf_hom(f)
    c4 = q.qg_from_group(z4, "c0")
    objs = [
        bicharacter_to_obj(v),
        coaction_to_obj(comultiplication_coaction(c4)),
        hom_to_obj("hopf", f.source, f.target, f.map),
        hom_to_obj("right", v.source, v.target, right_from_bicharacter(v).deltaR),
        qg_to_obj(c4),
        group_to_obj(z4),
        {"W": {"rows": 1, "cols": 2, "data": [[float("nan"), -0.0], [1e300, -float("inf")]]}},
        {"empty": {"rows": 1, "cols": 1, "data": []}, "list": [], "dict": {}},
        {"ints": {"data": [[1, 2.0]]}, "triple": {"data": [[1.0, 2.0, 3.0]]}},
        {"text": {"data": ["a, b"]}, "tuple": {"data": [(0.5, 1.5)]}},
        [{"data": [[0.5, 1.5]], "note": "x\ny"}, None, 1.25],
        # more pairs than one block of the C encoder's
        {"W": matrix_to_obj(RNG.standard_normal((65, 65)) + 1j * RNG.standard_normal((65, 65)))},
    ]
    path_v, ident = tmp_path / "v.json", tmp_path / "ident.json"
    write_json(str(path_v), bicharacter_to_obj(v))
    write_json(str(ident), bicharacter_to_obj(q.identity(v.target)))
    coaction = tmp_path / "co.json"
    write_json(str(coaction), coaction_to_obj(q.trivial_coaction(c4.algC, f.source)))
    outs = {}
    for name, argv in (
        ("compose", ["compose", str(path_v), str(ident)]),
        ("dual", ["dual", str(path_v)]),
        ("induce", ["induce", str(coaction), str(path_v)]),
    ):
        outs[name] = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(outs[name])]) == 0, name
        objs.append(load_json(str(outs[name])))
    capsys.readouterr()
    calls = count_calls("_write_pairs")
    for obj in objs:
        path = tmp_path / "fast.json"
        write_json(str(path), obj)
        assert path.read_bytes() == _stock_bytes(tmp_path, obj)
    for path in outs.values():
        assert path.read_bytes() == _stock_bytes(tmp_path, load_json(str(path)))
    # the float pairs took the C encoder's path, the rest the stock one
    assert calls["_write_pairs"] > len(objs)
