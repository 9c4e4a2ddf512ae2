"""Finite groups from Cayley tables, the two classical quantum group
pictures they generate, and Fourier cross-checks for abelian groups.

Everything group-theoretic here is exact integer arithmetic on tables;
floating point enters only when a group is turned into a multiplicative
unitary.  The function picture puts the function algebra on the second
leg and the dual picture is literally the dual quantum group, so the two
constructions exercise the duality machinery rather than bypassing it.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import CalculusError, NotAbelian, NotAGroup, gate
from .homviews import check_hopf_hom
from .qgroup import EQUATION_TOL, PENTAGON_TOL, build_from_unitary, intertwining_residuals
from .tensorleg import SpanMap, kron, residual_between, unitarity_defect

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "build_group",
    "group_hom",
    "identity_hom",
    "trivial_hom",
    "compose_homs",
    "trivial_group",
    "cyclic_group",
    "product_group",
    "symmetric_group_3",
    "dihedral_group_4",
    "quaternion_group",
    "standard_corpus",
    "translation_matrix",
    "group_unitary",
    "qg_from_group",
    "hom_to_hopf",
    "character_group",
    "fourier_dual_witness",
]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table, table[a][b] = a*b."""

    order: int
    table: tuple
    identity: int
    inverse: tuple
    name: str = ""

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def element_order(self, a):
        out = self.table[self.identity][a]
        k = 1
        while out != self.identity:
            out = self.table[out][a]
            k += 1
        return k

    def is_abelian(self):
        n = self.order
        return all(
            self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n)
        )

    def __repr__(self):
        label = self.name or f"order-{self.order} group"
        return f"FiniteGroup({label})"


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism of finite groups, stored as the image index list."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple

    def __call__(self, a):
        return self.map[a]


def build_group(table, name=""):
    """Validate a Cayley table and wrap it up.

    Raises NotAGroup naming the first violated axiom; the identity and
    inverse data are computed, not supplied.
    """
    rows = [list(r) for r in table]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError(f"table must be square and nonempty, got {len(rows)} rows")
    for r in rows:
        for v in r:
            if not isinstance(v, (int, np.integer)) or not 0 <= v < n:
                raise NotAGroup(f"closure fails: entry {v!r} outside 0..{n - 1}")
    t = tuple(tuple(int(v) for v in r) for r in rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise NotAGroup(
                        f"associativity fails at ({a},{b},{c}): "
                        f"({a}{b}){c} = {t[t[a][b]][c]} but {a}({b}{c}) = {t[a][t[b][c]]}"
                    )
    identity = None
    for e in range(n):
        if all(t[e][a] == a and t[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("identity fails: no two-sided unit")
    inverse = []
    for a in range(n):
        found = None
        for b in range(n):
            if t[a][b] == identity and t[b][a] == identity:
                found = b
                break
        if found is None:
            raise NotAGroup(f"inverse fails: element {a} has no inverse")
        inverse.append(found)
    return FiniteGroup(n, t, identity, tuple(inverse), name)


def group_hom(source, target, images):
    images = tuple(int(v) for v in images)
    if len(images) != source.order:
        raise ValueError(f"need {source.order} images, got {len(images)}")
    for v in images:
        if not 0 <= v < target.order:
            raise ValueError(f"image {v} outside target range")
    for a in range(source.order):
        for b in range(source.order):
            lhs = images[source.mul(a, b)]
            rhs = target.mul(images[a], images[b])
            if lhs != rhs:
                raise ValueError(
                    f"not a homomorphism at ({a},{b}): {lhs} != {rhs}"
                )
    return GroupHom(source, target, images)


def identity_hom(g):
    return GroupHom(g, g, tuple(range(g.order)))


def trivial_hom(source, target):
    return GroupHom(source, target, (target.identity,) * source.order)


def compose_homs(outer, inner):
    """outer after inner; the middle groups must be the same table."""
    if inner.target != outer.source:
        raise ValueError("homomorphisms do not chain: middle groups differ")
    return GroupHom(
        inner.source, outer.target, tuple(outer.map[v] for v in inner.map)
    )


def trivial_group():
    return build_group([[0]], name="E")


def cyclic_group(n, name=""):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return build_group(table, name=name or f"Z{n}")


def product_group(g, h, name=""):
    """Direct product with lexicographic element order (a, b) -> a*|H| + b."""
    n, m = g.order, h.order
    table = [
        [
            g.table[a1][a2] * m + h.table[b1][b2]
            for a2 in range(n)
            for b2 in range(m)
        ]
        for a1 in range(n)
        for b1 in range(m)
    ]
    return build_group(table, name=name or f"{g.name}x{h.name}")


def _perm_table(perms, name):
    # perms as tuples mapping position -> image; product = left acts after right
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms
    ]
    return build_group(table, name=name)


def symmetric_group_3():
    perms = sorted(itertools.permutations(range(3)))
    return _perm_table(perms, "S3")


def dihedral_group_4():
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)
    elems = {(0, 1, 2, 3)}
    frontier = [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        for q in (r, s):
            com = tuple(p[q[x]] for x in range(4))
            if com not in elems:
                elems.add(com)
                frontier.append(com)
    return _perm_table(sorted(elems), "D4")


def quaternion_group():
    # {±1, ±i, ±j, ±k} as 2x2 complex matrices, Pauli-built
    one = np.eye(2, dtype=complex)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = qi @ qj
    elems = [one, -one, qi, -qi, qj, -qj, qk, -qk]

    def key(m):
        return tuple((int(round(v.real)), int(round(v.imag))) for v in m.reshape(-1))

    index = {key(m): i for i, m in enumerate(elems)}
    table = [[index[key(a @ b)] for b in elems] for a in elems]
    return build_group(table, name="Q8")


def standard_corpus():
    """The named groups of order up to 8 used throughout the test battery."""
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    groups = [
        z2,
        cyclic_group(3),
        z4,
        product_group(z2, z2),
        cyclic_group(5),
        cyclic_group(6),
        symmetric_group_3(),
        cyclic_group(7),
        cyclic_group(8),
        product_group(z4, z2),
        product_group(z2, product_group(z2, z2), name="Z2xZ2xZ2"),
        dihedral_group_4(),
        quaternion_group(),
    ]
    return {g.name: g for g in groups}


def translation_matrix(g, b):
    """The permutation matrix sending the basis vector at a to the one at a*b^-1."""
    n = g.order
    out = np.zeros((n, n), dtype=complex)
    binv = g.inv(b)
    for a in range(n):
        out[g.mul(a, binv), a] = 1.0
    return out


def group_unitary(g):
    """The function-picture multiplicative unitary of g, an exact 0/1 matrix.

    W(delta_a (x) delta_b) = delta_{a b^-1} (x) delta_b.
    """
    n = g.order
    w = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            w[g.mul(a, g.inv(b)) * n + b, a * n + b] = 1.0
    return w


@lru_cache(maxsize=None)
def qg_from_group(g, picture):
    """The function-algebra or group-algebra quantum group of g.

    picture "c0" realizes multiplication of functions on the second leg
    via ``group_unitary(g)``; picture "cstar" is the (cached) dual of the
    c0 object, so both pictures of g cost one build each.  Both are
    verified at construction: the comultiplication must restrict to the
    expected classical formula (intertwining_residuals) and the extracted
    algebra must be the expected span.
    """
    if picture not in ("c0", "cstar"):
        raise ValueError(f"picture must be 'c0' or 'cstar', got {picture!r}")
    n = g.order
    if picture == "c0":
        qg = build_from_unitary(group_unitary(g), n)
        units = np.eye(n)[:, :, None] * np.eye(n)[:, None, :]
        # Delta(u_c) of a point mass is the fibre sum over ab = c of u_a (x) u_b
        fibres = np.zeros((n, n, n))
        fibres[(np.asarray(g.table), *np.indices((n, n)))] = 1.0
        what = "comultiplication is not classical at element {}"
        for c, res in enumerate(intertwining_residuals(qg, units, fibres)):
            gate(res, PENTAGON_TOL, CalculusError, what.format(c))
        if len(qg.algC) != n:
            raise CalculusError(f"expected {n} diagonal directions, got {len(qg.algC)}")
        diag_defect = np.max([np.max(np.abs(x - np.diag(np.diag(x)))) for x in qg.algC])
        gate(diag_defect, PENTAGON_TOL, CalculusError, "function algebra is not diagonal")
        return qg

    out = qg_from_group(g, "c0").dual
    rho = np.stack([translation_matrix(g, b) for b in range(n)])
    # Delta(rho_b) = rho_b (x) rho_b
    grouplike = np.zeros((n, n, n))
    grouplike[(np.arange(n),) * 3] = 1.0
    for b, res in enumerate(intertwining_residuals(out, rho, grouplike)):
        gate(res, PENTAGON_TOL, CalculusError, f"translation at {b} is not group-like")
    if len(out.algC) != n:
        raise CalculusError(f"expected {n} translation directions, got {len(out.algC)}")
    return out


def hom_to_hopf(phi, picture):
    """The Hopf homomorphism a group homomorphism induces.

    In the function picture the arrow reverses (pullback along phi); in
    the group-algebra picture it keeps its direction (pushforward of
    translations).
    """
    g, h = phi.source, phi.target
    if picture == "c0":
        source = qg_from_group(h, "c0")
        target = qg_from_group(g, "c0")
        basis = []
        images = []
        for y in range(h.order):
            e = np.zeros((h.order, h.order), dtype=complex)
            e[y, y] = 1.0
            basis.append(e)
            img = np.zeros((g.order, g.order), dtype=complex)
            for x in range(g.order):
                if phi.map[x] == y:
                    img[x, x] = 1.0
            images.append(img)
        fmap = SpanMap(basis, images, h.order, g.order)
        return check_hopf_hom(source, target, fmap)
    if picture == "cstar":
        source = qg_from_group(g, "cstar")
        target = qg_from_group(h, "cstar")
        sn = 1.0 / np.sqrt(g.order)
        basis = tuple(sn * translation_matrix(g, x) for x in range(g.order))
        images = tuple(sn * translation_matrix(h, phi.map[x]) for x in range(g.order))
        fmap = SpanMap(basis, images, g.order, h.order)
        return check_hopf_hom(source, target, fmap)
    raise ValueError(f"picture must be 'c0' or 'cstar', got {picture!r}")


def _generator_words(g):
    # greedy generating sequence with an exponent word for every element
    words = {g.identity: ()}
    gens = []
    orders = []
    for x in range(g.order):
        if x in words:
            continue
        o = g.element_order(x)
        gens.append(x)
        orders.append(o)
        new = {}
        for elem, w in words.items():
            p = elem
            for j in range(o):
                if p not in new:
                    new[p] = w + (j,)
                p = g.mul(p, x)
        words = new
        if len(words) == g.order:
            break
    return gens, orders, words


def character_group(g):
    """All characters of an abelian group and the group they form.

    Returns (dual group, phase table, m): row k of the phase table gives
    integer phases p with character value exp(2 pi i p / m), rows sorted
    lexicographically so the trivial character comes first.
    """
    if not g.is_abelian():
        raise NotAbelian(f"{g!r} is not abelian")
    n = g.order
    m = lcm(*(g.element_order(x) for x in range(n))) if n > 1 else 1
    gens, orders, words = _generator_words(g)
    found = set()
    for ks in itertools.product(*(range(o) for o in orders)):
        phases = tuple(
            sum(k * w * (m // o) for k, w, o in zip(ks, words[x], orders)) % m
            for x in range(n)
        )
        ok = all(
            phases[g.mul(a, b)] == (phases[a] + phases[b]) % m
            for a in range(n)
            for b in range(n)
        )
        if ok:
            found.add(phases)
    if len(found) != n:
        raise CalculusError(f"character count {len(found)} != order {n}")
    rows = sorted(found)
    index = {p: i for i, p in enumerate(rows)}
    dual_table = [
        [index[tuple((rows[i][x] + rows[j][x]) % m for x in range(n))] for j in range(n)]
        for i in range(n)
    ]
    dual = build_group(dual_table, name=(g.name + "^") if g.name else "dual")
    return dual, tuple(rows), m


def fourier_dual_witness(g):
    """The character-table unitary taking translations to diagonal matrices.

    F[k, a] = chi_k(a) / sqrt(n).  Conjugation by F diagonalizes every
    translation operator, and conjugation by F (x) F carries the dual of
    the function-picture unitary onto the function-picture unitary of the
    character group.  Both facts are checked here, so a returned F is a
    verified witness.
    """
    dual, phases, m = character_group(g)
    n = g.order
    f = np.array(
        [[np.exp(2j * np.pi * phases[k][a] / m) for a in range(n)] for k in range(n)]
    ) / np.sqrt(n)
    gate(unitarity_defect(f), PENTAGON_TOL, CalculusError, "character table is not unitary")
    fd = f.conj().T
    for c in range(n):
        want = np.diag([np.exp(-2j * np.pi * phases[k][c] / m) for k in range(n)])
        gate(
            residual_between(f @ translation_matrix(g, c) @ fd, want),
            PENTAGON_TOL,
            CalculusError,
            f"translation at {c} does not diagonalize",
        )
    what = qg_from_group(g, "cstar").W
    ff = kron(f, f)
    gate(
        residual_between(ff @ what @ ff.conj().T, group_unitary(dual)),
        EQUATION_TOL,
        CalculusError,
        "Fourier conjugation does not match the character group",
    )
    return f
