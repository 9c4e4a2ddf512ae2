"""Inputs, op lists and expected outcomes of the benchmark workloads.

Each workload is generated from the seed once per run, before anything is
timed, into a work directory of JSON files; the program under test only
ever receives those files.  An op is a plain dict that the pass process
executes and the harness judges:

* ``kind``: ``"cli"`` (``qgcalc.cli.main(argv)``), ``"suite"`` (the
  corpus battery, whose subjects are the ops) or ``"api"`` (a public
  function called on objects read from the files);
* ``expect``: ``"pass"`` (exit 0 and every check passing) or ``"reject"``
  (a nonzero exit without an uncaught exception);
* ``defect``: set on ops that hit a defect of the program known when the
  benchmark was written.  Such an op still counts as failed while it
  fails; the tag only keeps it from marking the run incorrect;
* ``recheck``: how the produced ``out`` file is checked after the pass.

The seed drives the Haar gauge unitaries and which entries get corrupted;
the op mix, the verdicts and the work done do not depend on it.
"""

import os

import numpy as np

from qgcalc import bicharacter, coactions, groups, homviews, serialize
from qgcalc.tensorleg import SpanMap
from qgcalc.cli import DEFAULT_CORPUS

WORKLOADS = ("corpus", "dense", "homs")

# Seconds one pass took, when the benchmark was written, on the reference
# box (2 vCPUs at 2.0 GHz, one BLAS thread).  A run issues
# round(seconds / NOMINAL_PASS_S) passes, at least MIN_PASSES, so that the
# number of ops, and with it the percentile that op_tail_s reports, is the
# same for every commit measured.
NOMINAL_PASS_S = {"corpus": 13.5, "dense": 15.5, "homs": 9.0}
# Latencies are each op's best over the passes, so every workload needs
# two.  corpus takes three: its ops are only the 14 subjects, and the third
# pass moves op_tail_s off one subject into the cluster of order-8 groups.
MIN_PASSES = {"corpus": 3, "dense": 2, "homs": 2}

# Group homomorphisms among the corpus groups, as image lists.
HOMS = {
    "q84": ("Z8", "Z4", (0, 1, 2, 3, 0, 1, 2, 3)),
    "q42": ("Z4", "Z2", (0, 1, 0, 1)),
    "i24": ("Z2", "Z4", (0, 2)),
    "sgn": ("S3", "Z2", (0, 1, 1, 0, 0, 1)),
    "q63": ("Z6", "Z3", (0, 1, 2, 0, 1, 2)),
}
PICTURES = ("c0", "cstar")
# Composable pairs (first, then second) per picture.  In the function
# picture arrows reverse, so q42 then q84 runs c0(Z2) -> c0(Z4) -> c0(Z8).
CHAINS = {
    "c0": (("q42", "q84"), ("i24", "q42")),
    "cstar": (("q84", "q42"), ("i24", "q42")),
}
# One chain per picture for compose_functors_check.
FUNCTOR_CHAINS = {"c0": ("q42", "i24"), "cstar": ("i24", "q42")}
# Sources of dimension <= 3 whose regular corep is pushed forward.
PUSHFORWARDS = (("q42", "c0"), ("sgn", "c0"), ("q63", "c0"), ("i24", "cstar"))


def plan_passes(workload, seconds):
    return max(MIN_PASSES[workload], round(seconds / NOMINAL_PASS_S[workload]))


def haar_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _gauge(x, u):
    return u @ x @ u.conj().T


def dihedral_table(n):
    """Cayley table of D_n: element f*n + k is s^f r^k."""

    def mul(a, b):
        fa, ra = divmod(a, n)
        fb, rb = divmod(b, n)
        return ((fa + fb) % 2) * n + ((-ra if fb else ra) + rb) % n

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def _write(work, name, obj):
    path = os.path.join(work, name)
    serialize.write_json(path, obj)
    return path


def _cli(op_id, argv, expect="pass", **extra):
    return dict({"id": op_id, "kind": "cli", "argv": argv, "expect": expect}, **extra)


def corpus_ops(work, rng):
    """The shipped 13-group corpus battery: 14 subjects, all must pass."""
    del work, rng
    return [{"id": "suite", "kind": "suite", "argv": ["suite"], "expect": "pass",
             "subjects": len(os.listdir(DEFAULT_CORPUS)) + 1}]


def dense_ops(work, rng):
    """Gauged D5 at d = 10 in both pictures: W' = (u (x) u) W (u (x) u)*."""
    d5 = groups.build_group(dihedral_table(5), name="D5")
    ops = []
    for picture in PICTURES:
        qg = groups.qg_from_group(d5, picture)
        u = haar_unitary(rng, qg.dim)
        w = _gauge(qg.W, np.kron(u, u))
        wfile = _write(work, f"w_{picture}.json", {"dim": qg.dim, "W": serialize.matrix_to_obj(w)})
        ref = {"path": os.path.basename(wfile)}
        vfile = _write(work, f"v_{picture}.json",
                       {"source": ref, "target": ref, "V": serialize.matrix_to_obj(w)})
        ops.append(_cli(f"qg-{picture}", ["verify", wfile, "qg"]))
        ops.append(_cli(f"identity-{picture}", ["verify", vfile, "bicharacter"]))
    return ops


class _HomFiles:
    """Gauged quantum groups and arrows of the homs workload, as files."""

    def __init__(self, work, rng):
        self.work = work
        self.rng = rng
        corpus = {}
        for name in sorted(os.listdir(DEFAULT_CORPUS)):
            g = serialize.group_from_obj(serialize.load_json(os.path.join(DEFAULT_CORPUS, name)))
            corpus[g.name] = g
        self.groups = corpus
        self.qgs = {}  # (group, picture) -> (gauged qg, u, file name)
        # (hom, picture) -> (Bicharacter, gauged Hopf map, V file, source file, target file)
        self.arrows = {}

    def qg(self, group, picture):
        key = (group, picture)
        if key not in self.qgs:
            plain = groups.qg_from_group(self.groups[group], picture)
            u = haar_unitary(self.rng, plain.dim)
            w = _gauge(plain.W, np.kron(u, u))
            name = f"qg_{group}_{picture}.json"
            _write(self.work, name, {"dim": plain.dim, "W": serialize.matrix_to_obj(w)})
            # read back so every object matches what the program will load
            self.qgs[key] = (serialize.load_qg(os.path.join(self.work, name)), u, name)
        return self.qgs[key]

    def arrow(self, hom, picture):
        key = (hom, picture)
        if key in self.arrows:
            return self.arrows[key]
        src_name, tgt_name, images = HOMS[hom]
        phi = groups.group_hom(self.groups[src_name], self.groups[tgt_name], images)
        hopf = groups.hom_to_hopf(phi, picture)
        ends = (tgt_name, src_name) if picture == "c0" else (src_name, tgt_name)
        (c, uc, cfile), (a, ua, afile) = (self.qg(n, picture) for n in ends)
        # gauge the Hopf map: x -> ua f(uc* x uc) ua*
        images = tuple(
            _gauge(hopf.map(_gauge(b, uc.conj().T)), ua) for b in c.algC
        )
        fmap = SpanMap(tuple(c.algC), images, c.dim, a.dim)
        v = bicharacter.check_bicharacter(_gauge(bicharacter.from_hopf_hom(hopf).V, np.kron(uc, ua)), c, a)
        vfile = _write(self.work, f"v_{hom}_{picture}.json", self.bicharacter_obj(v.V, cfile, afile))
        self.arrows[key] = (v, fmap, vfile, cfile, afile)
        return self.arrows[key]

    @staticmethod
    def bicharacter_obj(v, cfile, afile):
        return {"source": {"path": cfile}, "target": {"path": afile},
                "V": serialize.matrix_to_obj(v)}


def _hom_file_obj(kind, source, target, span_map, cfile, afile):
    obj = serialize.hom_to_obj(kind, source, target, span_map)
    obj["source"], obj["target"] = {"path": cfile}, {"path": afile}
    return obj


def homs_ops(work, rng):
    """Homomorphism and coaction commands at d = 2..8, with corrupted inputs."""
    files = _HomFiles(work, rng)
    ops = []
    out = lambda name: os.path.join(work, "out", name)
    for hom in HOMS:
        for picture in PICTURES:
            v, fmap, vfile, cfile, afile = files.arrow(hom, picture)
            tag = f"{hom}-{picture}"
            ops.append(_cli(f"verify-v-{tag}", ["verify", vfile, "bicharacter"]))
            hopf = _write(work, f"hopf_{tag}.json",
                          _hom_file_obj("hopf", v.source, v.target, fmap, cfile, afile))
            ops.append(_cli(f"verify-hopf-{tag}", ["verify", hopf, "hom"]))
            right = homviews.right_from_bicharacter(v)
            rfile = _write(work, f"right_{tag}.json",
                           _hom_file_obj("right", v.source, v.target, right.deltaR, cfile, afile))
            ops.append(_cli(f"verify-right-{tag}", ["verify", rfile, "hom"]))
            left = homviews.left_from_bicharacter(v)
            lfile = _write(work, f"left_{tag}.json",
                           _hom_file_obj("left", v.source, v.target, left.deltaL, cfile, afile))
            ops.append(_cli(f"verify-left-{tag}", ["verify", lfile, "hom"],
                            defect="left-hom-keyerror"))
            ops.append(_cli(f"dual-{tag}", ["dual", vfile, "--out", out(f"dual_{tag}.json")],
                            out=out(f"dual_{tag}.json"), recheck="dual", source=vfile))
            if hom in ("q42", "i24"):
                co = coactions.comultiplication_coaction(v.source)
                cofile = _write(work, f"coaction_{tag}.json", serialize.coaction_to_obj(co))
                ops.append(_cli(f"verify-coaction-{tag}", ["verify", cofile, "coaction"]))
                ops.append(_cli(f"induce-{tag}",
                                ["induce", cofile, vfile, "--out", out(f"induced_{tag}.json")],
                                out=out(f"induced_{tag}.json"), recheck="coaction"))
    for picture, chains in CHAINS.items():
        for first, second in chains:
            tag = f"{first}-{second}-{picture}"
            argv = ["compose", files.arrow(first, picture)[2], files.arrow(second, picture)[2],
                    "--out", out(f"compose_{tag}.json")]
            ops.append(_cli(f"compose-{tag}", argv, out=argv[-1], recheck="bicharacter"))
    for picture, (first, second) in FUNCTOR_CHAINS.items():
        ops.append({"id": f"functors-{first}-{second}-{picture}", "kind": "api",
                    "call": "compose_functors_check", "expect": "pass",
                    "files": [files.arrow(first, picture)[2], files.arrow(second, picture)[2]]})
    for hom, picture in PUSHFORWARDS:
        ops.append({"id": f"pushforward-{hom}-{picture}", "kind": "api",
                    "call": "pushforward_corep", "expect": "pass",
                    "files": [files.arrow(hom, picture)[2]]})
    ops.extend(_corrupted_ops(files, rng, out))
    return ops


def _corrupted_ops(files, rng, out):
    """Inputs that must be rejected with exit 1 or 2 and no traceback."""
    ops = []

    def corrupt(hom, picture, label, change):
        v, _, _, cfile, afile = files.arrow(hom, picture)
        m = change(v.V.copy())
        return _write(files.work, f"bad_{label}_{hom}_{picture}.json",
                      files.bicharacter_obj(m, cfile, afile))

    def entry(m):
        return tuple(rng.integers(0, m.shape[0], size=2))

    def perturb(m):
        # a unitary rotation by 1e-6: still unitary, no longer a bicharacter
        h = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        h = (h + h.conj().T) / 2
        w, q = np.linalg.eigh(h / np.linalg.norm(h))
        return (q * np.exp(1e-6j * w)) @ q.conj().T @ m

    def nonunitary(m):
        m[entry(m)] += 0.25
        return m

    def nan(m):
        m[entry(m)] = np.nan
        return m

    for hom, picture in (("q42", "c0"), ("sgn", "cstar")):
        tag = f"{hom}-{picture}"
        bad = corrupt(hom, picture, "perturbed", perturb)
        ops.append(_cli(f"verify-perturbed-{tag}", ["verify", bad, "bicharacter"], "reject"))
        ops.append(_cli(f"dual-perturbed-{tag}", ["dual", bad, "--out", out(f"bad_dual_{tag}.json")],
                        "reject"))
        bad = corrupt(hom, picture, "nonunitary", nonunitary)
        ops.append(_cli(f"verify-nonunitary-{tag}", ["verify", bad, "bicharacter"], "reject"))
        ops.append(_cli(f"dual-nonunitary-{tag}", ["dual", bad], "reject",
                        defect="nonunitary-valueerror"))
        bad = corrupt(hom, picture, "nan", nan)
        ops.append(_cli(f"verify-nan-{tag}", ["verify", bad, "bicharacter"], "reject"))
    bad = corrupt("q42", "c0", "nonunitary-first", nonunitary)
    ops.append(_cli("compose-nonunitary-q42-q84-c0",
                    ["compose", bad, files.arrow("q84", "c0")[2]], "reject",
                    defect="nonunitary-valueerror"))
    # middle objects differ: c0(Z4) vs c0(Z2)
    for first, second, picture in (("q42", "q42", "c0"), ("q84", "i24", "cstar")):
        ops.append(_cli(f"compose-mismatch-{first}-{second}-{picture}",
                        ["compose", files.arrow(first, picture)[2],
                         files.arrow(second, picture)[2]], "reject"))
    return ops


GENERATORS = {"corpus": corpus_ops, "dense": dense_ops, "homs": homs_ops}


def generate(workload, seed, work):
    """Write the workload's files under work and return its op list."""
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    return GENERATORS[workload](work, np.random.default_rng(seed))
