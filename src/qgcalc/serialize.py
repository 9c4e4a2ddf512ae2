"""JSON readers and writers for every object the command line handles.

Matrices travel as {"rows", "cols", "data": [[re, im], ...]} row-major.
Referenced quantum groups may be inline ({"dim", "W"} or {"group",
"picture"}) or a {"path"} pointing at another file, resolved relative to
the referencing file.  Coefficient matrices for homomorphisms follow the
"orthonormalized-slice" convention: rows and columns are indexed by the
orthonormal slice bases the builders produce, which are deterministic.

Inside one build scope each distinct explicit W is built once, however
many specs or files name it.  The readers that build quantum groups open
a scope unless one is already open, and the command line holds one open
for a whole invocation, so no built object outlives it.
"""

import contextlib
import contextvars
import functools
import itertools
import json
import math
import os

import numpy as np

from .errors import ParseError
from .groups import build_group, qg_from_group
from .qgroup import build_from_unitary
from .tensorleg import PairSpan, orthonormal_basis

__all__ = [
    "load_json",
    "matrix_to_obj",
    "matrix_from_obj",
    "group_from_obj",
    "group_to_obj",
    "qg_from_obj",
    "qg_to_obj",
    "load_qg",
    "bicharacter_parts_from_obj",
    "bicharacter_to_obj",
    "hom_parts_from_obj",
    "hom_to_obj",
    "coaction_parts_from_obj",
    "coaction_to_obj",
    "detect_kind",
    "write_json",
    "build_scope",
]

# (dim, W bytes) or a referenced file's normalised path -> quantum group,
# for the innermost open build scope
_BUILT = contextvars.ContextVar("qgcalc_built", default=None)

# marks a referenced file whose quantum group is being read, so a reference
# back to it is a cycle
_READING = object()


@contextlib.contextmanager
def build_scope():
    """Within this scope, qg_from_obj reads each referenced file once and
    builds each distinct explicit W once.

    Re-entering an open scope shares its memo; the outermost exit drops it.
    """
    if _BUILT.get() is not None:
        yield
        return
    token = _BUILT.set({})
    try:
        yield
    finally:
        _BUILT.reset(token)


def _scoped(reader):
    @functools.wraps(reader)
    def wrapper(*args, **kwargs):
        with build_scope():
            return reader(*args, **kwargs)

    return wrapper


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    return obj


def write_json(path, obj):
    """json.dump(obj, fh, indent=2) and a newline, byte for byte.

    With an indent, json runs its pure-Python encoder, one call per number,
    so each matrix object's "data" list of float pairs is rendered by the C
    encoder (json.dumps without an indent, the same float reprs), a block
    of pairs at a time, and the indent=2 layout rebuilt around it at its
    indentation; everything else is json.dumps(..., indent=2) at its
    indentation.  Like json.dump, it writes piece by piece, never the whole
    text at once.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_indented(fh.write, obj, "")
        fh.write("\n")


# float pairs rendered by one json.dumps call
_PAIR_BLOCK = 4096


def _write_indented(out, obj, prefix):
    """obj as json.dumps(obj, indent=2) lays it out with its first line at
    indentation prefix, passed to out piece by piece: a JSON string holds
    no raw newline, so indenting every line break of the plain layout
    places it there."""
    inner = prefix + "  "
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        sep = "{"
        for key, value in obj.items():
            out(f"{sep}\n{inner}{json.dumps(key)}: ")
            sep = ","
            if key == "data" and _float_pairs(value):
                _write_pairs(out, value, inner)
            else:
                _write_indented(out, value, inner)
        out("\n" + prefix + "}")
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, dict) for v in obj):
        sep = "["
        for value in obj:
            out(f"{sep}\n{inner}")
            sep = ","
            _write_indented(out, value, inner)
        out("\n" + prefix + "]")
    else:
        out(json.dumps(obj, indent=2).replace("\n", "\n" + prefix))


def _float_pairs(data):
    return (
        type(data) is list
        and len(data) > 0
        and all(
            type(p) is list and len(p) == 2 and type(p[0]) is float and type(p[1]) is float
            for p in data
        )
    )


def _write_pairs(out, data, prefix):
    """A non-empty list of float pairs laid out as _write_indented would,
    from the C encoder's "[[a, b], [c, d]]" of each block: a float's repr
    holds no ", " or "]"."""
    one, two = "\n" + prefix + "  ", "\n" + prefix + "    "
    sep = "["
    for start in range(0, len(data), _PAIR_BLOCK):
        body = json.dumps(data[start : start + _PAIR_BLOCK])[2:-2]
        body = body.replace("], [", one + "]," + one + "[" + two).replace(", ", "," + two)
        out(sep + one + "[" + two + body + one + "]")
        sep = ","
    out("\n" + prefix + "]")


def _need(obj, key, what):
    if key not in obj:
        raise ParseError(f"{what} is missing the key {key!r}")
    return obj[key]


def matrix_from_obj(obj, what="matrix"):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object, got {type(obj).__name__}")
    rows = _need(obj, "rows", what)
    cols = _need(obj, "cols", what)
    data = _need(obj, "data", what)
    if not (_is_int(rows) and _is_int(cols) and rows > 0 and cols > 0):
        raise ParseError(f"{what}: rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ParseError(f"{what}: expected {rows * cols} entries, got {got}")
    pairs = _plain_pairs(data)
    if pairs is None:
        if not all(map(_is_entry, data)):
            bad = next(i for i, pair in enumerate(data) if not _is_entry(pair))
            raise ParseError(f"{what}: entry {bad} must be [re, im]")
        try:
            pairs = np.asarray(data, dtype=float)
        except OverflowError:
            pairs = None  # an integer too large for a float is not finite
        if pairs is None or not np.isfinite(pairs).all():
            bad = next(i for i, pair in enumerate(data) if not all(map(_finite, pair)))
            raise ParseError(f"{what}: entry {bad} is not finite")
    # the (re, im) pairs are laid out exactly as complex128 values
    return pairs.view(complex).reshape(rows, cols)


def _plain_pairs(data):
    """data as an (m, 2) float array when every entry is a list of two
    finite int, float or bool values, as JSON gives them, else None, and
    matrix_from_obj's entry-by-entry checks decide.  The form is checked by
    exact type in C loops, stricter than _is_entry's isinstance, and the
    entries are converted as one flat list, cheaper than the nested ones."""
    if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(data))
    if not set(map(type, flat)) <= {int, float, bool}:
        return None
    try:
        pairs = np.array(flat, dtype=float).reshape(-1, 2)
    except OverflowError:
        return None  # an integer too large for a float
    return pairs if np.isfinite(pairs).all() else None


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true/false are bools


def _is_entry(pair):
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and isinstance(pair[0], (int, float))
        and isinstance(pair[1], (int, float))
    )


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def matrix_to_obj(m):
    m = np.asarray(m, dtype=complex)
    data = np.stack([m.real.ravel(), m.imag.ravel()], 1).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _referenced_path(obj, base):
    """The absolute path a {"path"} reference names, relative to base."""
    ref = obj["path"]
    if not isinstance(ref, str):
        raise ParseError(f"path must be a string, got {ref!r}")
    return os.path.abspath(os.path.join(base, ref))


def group_from_obj(obj, base="."):
    if not isinstance(obj, dict):
        raise ParseError("group spec must be an object")
    seen = set()
    while "path" in obj:
        path = _referenced_path(obj, base)
        if path in seen:
            raise ParseError(f"{path}: group path references form a cycle")
        seen.add(path)
        obj, base = load_json(path), os.path.dirname(path)
    order = _need(obj, "order", "group")
    table = _need(obj, "table", "group")
    if not _is_int(order) or order < 1:
        raise ParseError(f"group: order must be a positive integer, got {order!r}")
    if not isinstance(table, list) or len(table) != order:
        raise ParseError("group: order must match the table size")
    for r in table:
        if not isinstance(r, list) or len(r) != order:
            raise ParseError("group: table must be square")
        for v in r:
            if not _is_int(v):
                raise ParseError(f"group: table entry {v!r} is not an integer")
    return build_group(table, name=str(obj.get("name", "")))


def group_to_obj(g):
    out = {"order": g.order, "table": [list(r) for r in g.table]}
    if g.name:
        out["name"] = g.name
    return out


@_scoped
def qg_from_obj(obj, base="."):
    """Build a quantum group from an inline spec or a {"path"} reference."""
    if not isinstance(obj, dict):
        raise ParseError("quantum group spec must be an object")
    if "path" in obj:
        path = _referenced_path(obj, base)
        built = _BUILT.get()
        if built.get(path) is _READING:
            raise ParseError(f"{path}: quantum group path references form a cycle")
        if path not in built:
            built[path] = _READING
            try:
                built[path] = qg_from_obj(load_json(path), base=os.path.dirname(path))
            finally:
                if built[path] is _READING:
                    del built[path]
        return built[path]
    if "group" in obj:
        picture = _need(obj, "picture", "quantum group")
        if picture not in ("c0", "cstar"):
            raise ParseError(f"picture must be 'c0' or 'cstar', got {picture!r}")
        return qg_from_group(group_from_obj(obj["group"], base), picture)
    dim = _need(obj, "dim", "quantum group")
    w = matrix_from_obj(_need(obj, "W", "quantum group"), "W")
    if not _is_int(dim) or dim <= 0:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")
    if w.shape != (dim * dim, dim * dim):
        raise ParseError(
            f"W must be {dim * dim}x{dim * dim} for dim {dim}, got {w.shape[0]}x{w.shape[1]}"
        )
    built = _BUILT.get()
    key = (dim, w.tobytes())
    if key not in built:
        built[key] = build_from_unitary(w, dim)
    return built[key]


def load_qg(path):
    return qg_from_obj(load_json(path), base=os.path.dirname(path) or ".")


def qg_to_obj(qg):
    return {"dim": qg.dim, "W": matrix_to_obj(qg.W)}


@_scoped
def bicharacter_parts_from_obj(obj, base="."):
    """Returns (source, target, V) without running the bicharacter checks.

    V is parsed first, so unusable input is rejected before any build.
    Both endpoints are read in one build scope, so an endpoint whose W
    equals the other's (an endomorphism, such as an identity arrow) is the
    same object, built once.
    """
    v = matrix_from_obj(_need(obj, "V", "bicharacter"), "V")
    source = qg_from_obj(_need(obj, "source", "bicharacter"), base)
    target = qg_from_obj(_need(obj, "target", "bicharacter"), base)
    n = source.dim * target.dim
    if v.shape != (n, n):
        raise ParseError(
            f"V must be {n}x{n} for dims {source.dim} and {target.dim}, "
            f"got {v.shape[0]}x{v.shape[1]}"
        )
    return source, target, v


def bicharacter_to_obj(v):
    return {
        "source": qg_to_obj(v.source),
        "target": qg_to_obj(v.target),
        "V": matrix_to_obj(v.V),
    }


def _hom_span(kind, source, target):
    """The product span a hom file's coefficient rows run over, by hom kind.

    A Hopf map lands in the target algebra alone, the product of its basis
    with the 1 x 1 basis {1}.
    """
    if kind == "hopf":
        return PairSpan(target.algC, np.ones((1, 1, 1)))
    if kind == "right":
        return PairSpan(source.algC, target.algC)
    if kind == "left":
        return PairSpan(target.algC, source.algC)
    raise ValueError(f"unknown hom kind {kind!r}")


def _images_from_coefficients(span, m, what):
    """The images whose coefficients on span are the columns of m."""
    rows = len(span.left) * len(span.right)
    if m.shape[0] != rows:
        raise ParseError(
            f"{what}: coefficient matrix has {m.shape[0]} rows, basis has {rows} elements"
        )
    return span.combine(m.T.reshape(m.shape[1], len(span.left), len(span.right)))


def _coefficients_from_images(span, images):
    """The coefficient matrix of the images on span, one column each."""
    return span.coefficients(images).reshape(len(images), -1).T


@_scoped
def hom_parts_from_obj(obj, base="."):
    """Returns (kind, source, target, span map pieces) for a hom file.

    The coefficient matrix is read against the orthonormalized slice
    bases: columns run over source.algC, rows over target.algC for a
    Hopf map, over the product basis c_i (x) a_j for a right map, and
    over a_j (x) c_i for a left map.
    """
    kind = _need(obj, "kind", "hom")
    if kind not in ("hopf", "right", "left"):
        raise ParseError(f"hom kind must be hopf, right, or left, got {kind!r}")
    convention = _need(obj, "basisConvention", "hom")
    if convention != "orthonormalized-slice":
        raise ParseError(f"unsupported basisConvention {convention!r}")
    m = matrix_from_obj(_need(obj, "matrix", "hom"), "hom matrix")
    source = qg_from_obj(_need(obj, "source", "hom"), base)
    target = qg_from_obj(_need(obj, "target", "hom"), base)
    if m.shape[1] != len(source.algC):
        raise ParseError(
            f"hom matrix has {m.shape[1]} columns, source algebra has {len(source.algC)}"
        )
    images = _images_from_coefficients(_hom_span(kind, source, target), m, "hom")
    return kind, source, target, images


def hom_to_obj(kind, source, target, span_map):
    images = span_map.apply_stack(source.algC)
    m = _coefficients_from_images(_hom_span(kind, source, target), images)
    return {
        "kind": kind,
        "source": qg_to_obj(source),
        "target": qg_to_obj(target),
        "matrix": matrix_to_obj(m),
        "basisConvention": "orthonormalized-slice",
    }


def coaction_parts_from_obj(obj, base="."):
    """Returns (orthonormal D basis, qg, image matrices) for a coaction file."""
    dspec = _need(obj, "D", "coaction")
    if not isinstance(dspec, dict) or not isinstance(dspec.get("basis"), list):
        raise ParseError("coaction: D must be an object with a basis list")
    raw = [matrix_from_obj(b, "D basis element") for b in dspec["basis"]]
    if not raw:
        raise ParseError("coaction: D basis is empty")
    shape = raw[0].shape
    if shape[0] != shape[1] or any(b.shape != shape for b in raw):
        got = ", ".join(f"{b.shape[0]}x{b.shape[1]}" for b in raw)
        raise ParseError(f"coaction: D basis elements must be square and of one shape, got {got}")
    m = matrix_from_obj(_need(obj, "gamma", "coaction"), "gamma")
    qg = qg_from_obj(_need(obj, "qg", "coaction"), base)
    basis = orthonormal_basis(raw)
    if m.shape[1] != len(basis):
        raise ParseError(
            f"gamma has {m.shape[1]} columns, orthonormalized D has {len(basis)}"
        )
    images = _images_from_coefficients(PairSpan(basis, qg.algC), m, "gamma")
    return basis, qg, images


def coaction_to_obj(coaction):
    qg = coaction.qg
    # a reader re-orthonormalizes the stored basis (pivoted QR can flip
    # signs even on orthonormal input), so gamma's coefficients must be
    # taken against that reconstruction, not against algebraD itself
    basis = orthonormal_basis(coaction.algebraD)
    images = coaction.gamma.apply_stack(basis)
    return {
        "D": {"basis": [matrix_to_obj(d) for d in coaction.algebraD]},
        "qg": qg_to_obj(qg),
        "gamma": matrix_to_obj(_coefficients_from_images(PairSpan(basis, qg.algC), images)),
    }


def detect_kind(obj):
    """Guess the subject kind of a parsed JSON object from its keys."""
    if "table" in obj or "order" in obj:
        return "group"
    if "kind" in obj:
        return "hom"
    if "V" in obj:
        return "bicharacter"
    if "gamma" in obj:
        return "coaction"
    if "W" in obj or "dim" in obj or "group" in obj or "picture" in obj:
        return "qg"
    raise ParseError(f"cannot tell what kind of object this is; keys: {sorted(obj)}")
