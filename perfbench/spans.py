"""Span recorder for the traced pass: wraps the public functions of each
qgcalc layer from the outside, keeps spans in memory, writes them once.

A span is ``[name, start, end, parent, op]`` where ``parent`` is the index
of the enclosing span (-1 at the top) and ``op`` the id of the op that
caused it.  Only the traced pass installs the recorder; untimed and
untraced passes never import this module.
"""

import hashlib
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "serialize", "groups", "qgroup", "tensorleg", "bicharacter", "homviews", "coactions")

# Helpers called 6k-50k times a pass; a span each would cost more than
# their work.
TRIVIAL = {
    "tensorleg": {"kron", "frob", "vec", "unvec", "as_matrix", "residual_between", "sliced_space"}
}


def _w_digest(rec, args, kwargs, result):
    w = np.ascontiguousarray(np.asarray(args[0] if args else kwargs["w"], dtype=complex))
    rec.w_digests.add(hashlib.sha1(w.tobytes()).hexdigest())


def _embed_bytes(rec, args, kwargs, result):
    rec.counters["tensorleg.embed_on_legs.bytes_computed"] += result.nbytes


def _read_bytes(rec, args, kwargs, result):
    rec.counters["serialize.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _written_bytes(rec, args, kwargs, result):
    rec.counters["serialize.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


# Counts taken at the layer boundary, after the wrapped call returns.
AFTER = {
    "qgroup.build_from_unitary": _w_digest,
    "tensorleg.embed_on_legs": _embed_bytes,
    "serialize.load_json": _read_bytes,
    "serialize.write_json": _written_bytes,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = self.base_op = None
        self.counters = {
            "tensorleg.embed_on_legs.bytes_computed": 0,
            "serialize.bytes_read": 0,
            "serialize.bytes_written": 0,
        }
        self.w_digests = set()
        self.originals = {}

    def wrap(self, name, fn):
        rec = self
        after = AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                rec.stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def start_op(self, op_id):
        self.op = self.base_op = op_id

    def install(self):
        """Wrap every public function of each layer, wherever qgcalc imported it.

        Also makes each cli Report extend the op id with its subject, so the
        spans of a suite subject carry that subject.
        """
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qgcalc.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or attr in TRIVIAL.get(layer, ())
                ):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "qgcalc" and not modname.startswith("qgcalc."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        cli = sys.modules["qgcalc.cli"]
        rec = self

        class Report(cli.Report):
            def __init__(self, subject, *args, **kwargs):
                super().__init__(subject, *args, **kwargs)
                rec.op = f"{rec.base_op}/{subject}"

        cli.Report = Report

    def dump(self):
        """The spans and boundary counts, as one JSON-ready dict."""
        cache = self.originals["groups.qg_from_group"].cache_info()
        counters = dict(self.counters)
        counters["qgroup.build_from_unitary.distinct_w"] = len(self.w_digests)
        counters["groups.qg_from_group.hits"] = cache.hits
        counters["groups.qg_from_group.misses"] = cache.misses
        return {"spans": self.spans, "counters": counters}
