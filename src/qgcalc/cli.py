"""Command line: verify subject files, compose and dualize bicharacters,
induce coactions, and run the whole corpus battery.

Output is JSON by default (--text for a human rendering).  Exit codes:
0 all checks pass, 1 a verification failed, 2 the input was unusable.
Everything here is deterministic; no randomized algorithm runs on the
default path.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .bicharacter import (
    Bicharacter,
    bicharacter_residuals,
    check_R_invariance,
    check_bicharacter,
    compose,
    dual_bicharacter,
    from_hopf_hom,
    hom_coefficients,
    identity,
)
from .coactions import (
    check_coaction,
    check_corepresentation,
    compose_functors_check,
    induce_coaction,
    pushforward_corep,
)
from .errors import (
    CalculusError,
    NotKacType,
    NotManageable,
    ParseError,
    SourceTargetMismatch,
)
from .groups import (
    character_group,
    fourier_dual_witness,
    group_hom,
    group_unitary,
    hom_to_hopf,
    qg_from_group,
    trivial_hom,
)
from .homviews import (
    HopfHom,
    LeftQGHom,
    RightQGHom,
    bicharacter_from_left,
    bicharacter_from_right,
    check_left_hom,
    check_left_right_compatibility,
    check_right_hom,
    dual_hopf_relation,
    left_from_bicharacter,
    one_sided_residuals,
    right_from_bicharacter,
)
from .qgroup import (
    EQUATION_TOL,
    PENTAGON_TOL,
    coassociativity_residual,
    coinvariant_dimension,
    manageability_witness,
    transpose_qg,
)
from .report import Check, Report, render_text, report_to_obj
from .serialize import (
    bicharacter_parts_from_obj,
    bicharacter_to_obj,
    build_scope,
    coaction_parts_from_obj,
    coaction_to_obj,
    detect_kind,
    group_from_obj,
    hom_parts_from_obj,
    load_json,
    qg_from_obj,
    write_json,
)
from .tensorleg import (
    SpanMap,
    flip_adjoint,
    intertwiner_space,
    kron,
    map_legs,
    residual_between,
    residuals_between,
    unitarity_defect,
)

__all__ = ["main"]

DEFAULT_CORPUS = os.path.join(os.path.dirname(__file__), "data", "groups")


def _record_failure(report, exc):
    residual = getattr(exc, "residual", None)
    value = float(residual) if residual is not None else float("inf")
    # the tolerance the failed check missed, where it is known; a NaN
    # residual fails against any tolerance
    tolerance = getattr(exc, "tolerance", None)
    tol = float(tolerance) if tolerance is not None else 0.0
    report.checks.append(Check(type(exc).__name__, value, tol, str(exc)))


def _qg_battery(report, prefix, build):
    try:
        qg = build()
    except ParseError:
        raise
    except (CalculusError, ValueError) as exc:
        _record_failure(report, exc)
        return None
    report.add_gates(prefix, qg.gates, qg.residuals)
    report.add(prefix + "coassociativity", coassociativity_residual(qg), EQUATION_TOL)
    dim, _ = intertwiner_space(qg.W, qg.dim)
    report.add_bool(prefix + "intertwinerDimensionOne", dim == 1)
    report.add_bool(prefix + "coinvariantDimensionOne", coinvariant_dimension(qg) == 1)
    try:
        witness = manageability_witness(qg)
        report.add(prefix + "manageability", witness.residual, PENTAGON_TOL)
    except NotManageable as exc:
        _record_failure(report, exc)
    return qg


def _bicharacter_battery(report, prefix, bic):
    report.add_gates(prefix, Bicharacter.gates, bic.residuals)
    try:
        report.add(prefix + "rInvariance", check_R_invariance(bic), EQUATION_TOL)
    except NotKacType as exc:
        _record_failure(report, exc)


def _span_map(kind, source, target, images):
    """A hom's map: into the target for hopf, into source (x) target otherwise."""
    codomain = target.dim if kind == "hopf" else source.dim * target.dim
    return SpanMap(source.algC, images, source.dim, codomain)


def _hom_battery(report, kind, source, target, images):
    fmap = _span_map(kind, source, target, images)
    if kind == "hopf":
        hom = HopfHom(source, target, fmap)
    else:
        cls = RightQGHom if kind == "right" else LeftQGHom
        res, coefficients = one_sided_residuals(source, target, fmap, cls.leg)
        hom = cls(source, target, fmap, res, coefficients)
    report.add_gates("", hom.gates, hom.residuals)
    if not report.passed:
        return
    try:
        if kind == "hopf":
            v = from_hopf_hom(hom)
        else:
            v = hom.bicharacter
            report.add("extraction", v.residuals["extraction"], EQUATION_TOL)
            # the file's map passed its checks; roundTrip pins v's, C F, to it
            p, g = coefficients
            off = np.sqrt(np.diag(g).real)[:, None]
            rows = lambda q, rest: np.concatenate([q.reshape(len(p), -1), rest], axis=1)
            rt = residuals_between(rows(p, off), rows(hom_coefficients(v, hom.leg), 0 * off))
            report.add("roundTrip", rt, EQUATION_TOL)
        _bicharacter_battery(report, "bicharacter.", v)
    except CalculusError as exc:
        _record_failure(report, exc)


def _coaction_battery(report, basis, qg, images, prefix=""):
    hd = basis.shape[1]
    gamma = SpanMap(basis, images, hd, hd * qg.dim)
    try:
        co = check_coaction(gamma, qg)
    except CalculusError as exc:
        _record_failure(report, exc)
        return None
    report.add_gates(prefix, co.gates, co.residuals)
    return co


def _emit(report, args, multi=False):
    if multi:
        obj = {
            "subjects": [report_to_obj(r) for r in report],
            "pass": all(r.passed for r in report),
            "wallTime": sum(r.wallTime for r in report),
        }
        text = "\n".join(render_text(r) for r in report)
        total = len(report)
        good = sum(1 for r in report if r.passed)
        text += f"\n{good}/{total} subjects pass"
    else:
        obj = report_to_obj(report)
        text = render_text(report)
    out = text if args.text else json.dumps(obj, indent=2)
    print(out)
    if getattr(args, "report_out", None):
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")


def _run(args):
    """Runs verify, compose, dual or induce: cmd_<command>(args, report)
    fills the report and returns a function making the object for --out,
    called only when --out is given, or None.  Unusable input propagates to
    main (exit 2); other CalculusErrors fail a check.
    """
    subject = os.path.basename(args.path) if args.command == "verify" else args.command
    report = Report(subject=subject, tol_override=args.tol)
    t0 = time.perf_counter()
    produced = None
    try:
        produced = globals()["cmd_" + args.command](args, report)
    except (ParseError, SourceTargetMismatch):
        raise
    except CalculusError as exc:
        _record_failure(report, exc)
    report.wallTime = time.perf_counter() - t0
    if produced is not None and args.out:
        write_json(args.out, produced())
    _emit(report, args)
    return 0 if report.passed else 1


def _subject(report, kind, obj, base):
    """Runs the battery of one qg, bicharacter, hom or coaction subject."""
    if kind == "qg":
        _qg_battery(report, "", lambda: qg_from_obj(obj, base))
    elif kind == "bicharacter":
        source, target, v = bicharacter_parts_from_obj(obj, base)
        res = bicharacter_residuals(v, source, target)
        bic = Bicharacter(source, target, v, dict(res, unitarity=unitarity_defect(v)))
        bic.hopf = res.hopf
        _bicharacter_battery(report, "", bic)
    elif kind == "hom":
        hkind, source, target, images = hom_parts_from_obj(obj, base)
        _hom_battery(report, hkind, source, target, images)
    else:
        basis, qg, images = coaction_parts_from_obj(obj, base)
        _coaction_battery(report, basis, qg, images)


def cmd_verify(args, report):
    obj = load_json(args.path)
    _subject(report, args.kind, obj, os.path.dirname(args.path) or ".")


def _load_bicharacter_file(path):
    obj = load_json(path)
    base = os.path.dirname(path) or "."
    source, target, v = bicharacter_parts_from_obj(obj, base)
    return check_bicharacter(v, source, target)


def cmd_compose(args, report):
    first = _load_bicharacter_file(args.first)
    second = _load_bicharacter_file(args.second)
    result = compose(first, second)
    report.add("extraction", result.residuals["extraction"], EQUATION_TOL)
    _bicharacter_battery(report, "", result)
    return lambda: bicharacter_to_obj(result)


def cmd_dual(args, report):
    result = dual_bicharacter(_load_bicharacter_file(args.path))
    _bicharacter_battery(report, "", result)
    return lambda: bicharacter_to_obj(result)


def _right_hom_from_file(path):
    obj = load_json(path)
    base = os.path.dirname(path) or "."
    if detect_kind(obj) == "bicharacter":
        source, target, v = bicharacter_parts_from_obj(obj, base)
        return right_from_bicharacter(check_bicharacter(v, source, target))
    kind, source, target, images = hom_parts_from_obj(obj, base)
    fmap = _span_map(kind, source, target, images)
    if kind == "hopf":
        return right_from_bicharacter(from_hopf_hom(HopfHom(source, target, fmap)))
    if kind == "right":
        return check_right_hom(source, target, fmap)
    return right_from_bicharacter(check_left_hom(source, target, fmap).bicharacter)


def cmd_induce(args, report):
    obj = load_json(args.coaction)
    base = os.path.dirname(args.coaction) or "."
    basis, qg, images = coaction_parts_from_obj(obj, base)
    co = _coaction_battery(report, basis, qg, images, prefix="input.")
    if co is None or not report.passed:
        return None
    hom = _right_hom_from_file(args.hom)
    induced = induce_coaction(co, hom)
    report.add("solve", induced.residuals["solve"], EQUATION_TOL)
    report.add_bool("uniqueRank", induced.residuals["uniqueRank"])
    report.add_gates("", induced.gates, induced.residuals)
    return lambda: coaction_to_obj(induced)


def _group_subject(report, g):
    c0 = _qg_battery(report, "c0.", lambda: qg_from_group(g, "c0"))
    cstar = _qg_battery(report, "cstar.", lambda: qg_from_group(g, "cstar"))
    if c0 is None or cstar is None:
        return
    try:
        _, wt = transpose_qg(c0)
        for key in ("dualSideEquation", "flippedComultEquation"):
            report.add("transpose." + key, wt.residuals[key], PENTAGON_TOL)
    except CalculusError as exc:
        _record_failure(report, exc)
    # cstar is c0.dual, so flipping its W back must reproduce c0.W exactly
    double = flip_adjoint(cstar.W, cstar.space)
    report.add("doubleDual", residual_between(double, c0.W), 0.0)
    report.add("identityRInvariance", check_R_invariance(identity(c0)), EQUATION_TOL)
    if g.is_abelian():
        f = fourier_dual_witness(g)
        ff = kron(f, f)
        dual_group, _, _ = character_group(g)
        res = residual_between(ff @ cstar.W @ ff.conj().T, group_unitary(dual_group))
        report.add("fourier", res, EQUATION_TOL)


def _hom_chain_subject(report, groups):
    z2, z4, s3 = groups["Z2"], groups["Z4"], groups["S3"]
    q42 = group_hom(z4, z2, (0, 1, 0, 1))
    i24 = group_hom(z2, z4, (0, 2))
    sgn = group_hom(s3, z2, (0, 1, 1, 0, 0, 1))
    t23 = group_hom(z2, s3, (0, 1))
    # per picture, the arrows a, b, c of a composable chain a then b then c
    chains = {"c0": (q42, i24, sgn), "cstar": (i24, q42, t23)}

    for phi, label in ((q42, "q42"), (i24, "i24"), (sgn, "sgn")):
        fc = hom_to_hopf(phi, "c0")
        fs = hom_to_hopf(phi, "cstar")
        report.add(f"dualHom.{label}", dual_hopf_relation(fc, fs), EQUATION_TOL)

    def agree(name, x, y):
        report.add(name, residual_between(x, y), EQUATION_TOL)

    for picture, (phi_a, phi_b, phi_c) in chains.items():
        p = picture + "."
        hopf_b = hom_to_hopf(phi_b, picture)
        va = from_hopf_hom(hom_to_hopf(phi_a, picture))
        vb = from_hopf_hom(hopf_b)
        vc = from_hopf_hom(hom_to_hopf(phi_c, picture))
        agree(p + "identityLeft", compose(va, identity(va.target)).V, va.V)
        agree(p + "identityRight", compose(identity(va.source), va).V, va.V)
        ab = compose(va, vb)
        agree(p + "associativity", compose(ab, vc).V, compose(va, compose(vb, vc)).V)
        dual_ba = compose(dual_bicharacter(vb), dual_bicharacter(va))
        agree(p + "dualContravariance", dual_bicharacter(ab).V, dual_ba.V)

        dr = right_from_bicharacter(va)
        agree(p + "roundTripRight", bicharacter_from_right(dr).V, va.V)
        dl = left_from_bicharacter(va)
        agree(p + "roundTripLeft", bicharacter_from_left(dl).V, va.V)
        square, same = check_left_right_compatibility(dl, dr)
        report.add(p + "diagram56", square, EQUATION_TOL)
        report.add_bool(p + "diagram57Match", same)
        if picture == "c0":
            v0 = from_hopf_hom(hom_to_hopf(trivial_hom(z4, z2), "c0"))
            dr0 = right_from_bicharacter(v0)
            square2, same2 = check_left_right_compatibility(dl, dr0)
            report.add(p + "diagram56Cross", square2, EQUATION_TOL)
            report.add_bool(p + "diagram57Mismatch", not same2)

        beta = right_from_bicharacter(vb)
        report.add(p + "inducedChain", compose_functors_check(dr, beta), EQUATION_TOL)

        # composing with b's bicharacter is applying b's Hopf map to leg 2
        mapped = map_legs(va.V[None], va.space.dims, None, hopf_b.map)
        agree(p + "hopfComposeFormula", ab.V, mapped[0])

        regular = check_corepresentation(va.source.W, va.source)
        agree(p + "regularPushforward", pushforward_corep(regular, va).X, va.V)


def cmd_suite(args):
    corpus = args.corpus or DEFAULT_CORPUS
    if not os.path.isdir(corpus):
        raise ParseError(f"corpus directory {corpus} does not exist")
    files = sorted(f for f in os.listdir(corpus) if f.endswith(".json"))
    reports = []
    groups = {}
    for fname in files:
        path = os.path.join(corpus, fname)
        report = Report(subject=fname, tol_override=args.tol)
        t0 = time.perf_counter()
        try:
            obj = load_json(path)
            kind = detect_kind(obj)
            if kind == "group":
                g = group_from_obj(obj, corpus)
                _group_subject(report, g)
                if report.passed:
                    groups[g.name or os.path.splitext(fname)[0]] = g
            else:
                _subject(report, kind, obj, corpus)
        except CalculusError as exc:
            _record_failure(report, exc)
        report.wallTime = time.perf_counter() - t0
        reports.append(report)
    if not files:
        print("warning: no subjects found in " + corpus, file=sys.stderr)
    if all(name in groups for name in ("Z2", "Z4", "S3")):
        report = Report(subject="homChains", tol_override=args.tol)
        t0 = time.perf_counter()
        try:
            _hom_chain_subject(report, groups)
        except CalculusError as exc:
            _record_failure(report, exc)
        report.wallTime = time.perf_counter() - t0
        reports.append(report)
    _emit(reports, args, multi=True)
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="one tolerance for every check")
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="JSON output (default)")
    mode.add_argument("--text", action="store_true", help="human-readable output")
    common.add_argument(
        "--out", default=None, help="write the produced object (compose/dual/induce) here"
    )
    common.add_argument(
        "--report-out", default=None, help="also write the report to this path"
    )

    parser = argparse.ArgumentParser(
        prog="qgcalc",
        description="verification calculus for finite quantum groups given by multiplicative unitaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="verify one subject file")
    p.add_argument("path")
    p.add_argument("kind", choices=["qg", "bicharacter", "hom", "coaction"])

    p = sub.add_parser(
        "compose", parents=[common], help="compose two bicharacter files, first then second"
    )
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("dual", parents=[common], help="dualize a bicharacter file")
    p.add_argument("path")

    p = sub.add_parser(
        "induce", parents=[common], help="induce a coaction along a hom or bicharacter"
    )
    p.add_argument("coaction")
    p.add_argument("hom")

    p = sub.add_parser("suite", parents=[common], help="run the corpus battery")
    p.add_argument("corpus", nargs="?", default=None)

    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        # one memo of built quantum groups for the whole invocation
        with build_scope():
            return cmd_suite(args) if args.command == "suite" else _run(args)
    except (ParseError, SourceTargetMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CalculusError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
