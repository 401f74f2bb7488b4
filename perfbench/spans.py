"""In-memory spans around the calls between scargraph's modules.

The tracer replaces, for the life of a traced run only, the module
attributes through which one layer calls another (``scargraph.base.girth``
is the binding ``validate_base`` uses, ``scargraph.scars.girth`` the one
``glue`` uses).  Nothing under ``src/`` changes: the program looks the name
up in its own module namespace at call time and finds the wrapper.

Each call records a span ``[name, start, end, parent, op, attrs]``; counts
come from return values and argument files, never from inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

import scargraph.base
import scargraph.certificate
import scargraph.cli
import scargraph.graphs
import scargraph.pairing
import scargraph.scars

NAME, START, END, PARENT, OP, ATTRS = range(6)


def _file_bytes(path_arg_index):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg_index])}
    return count


def _spectral(args, kwargs, result):
    return {"method": result.method, "matvecs": result.iterations,
            "residual": result.residual_bound}


def _glue(args, kwargs, result):
    # glue() retries with seed + 1000003 * attempt and keeps the winner
    seed = kwargs.get("seed", args[2] if len(args) > 2 else 0)
    return {"attempts": (result.seeds_used[0] - seed) // 1000003 + 1}


def _pairing(args, kwargs, result):
    return {"d": result.d, "depth": result.depth, "swaps": result.swap_count}


_certificate = scargraph.certificate.Certificate

# (owner, attribute, span name, counter): every boundary the four workloads
# cross.  Spans named alike are summed into one per-layer metric.
BOUNDARIES = [
    (scargraph.base, "girth", "graphs.girth.base", None),
    (scargraph.scars, "girth", "graphs.girth.glued", None),
    (scargraph.certificate, "girth", "graphs.girth.glued", None),
    (scargraph.graphs, "girth", "graphs.girth.glued", None),
    (scargraph.graphs, "bfs_distances", "graphs.bfs_distances", None),
    (scargraph.scars, "bfs_distances", "graphs.bfs_distances", None),
    (scargraph.graphs, "build_graph", "graphs.build_graph", None),
    (scargraph.pairing, "build_graph", "graphs.build_graph", None),
    (scargraph.cli, "load_graph", "graphs.io", _file_bytes(0)),
    (scargraph.cli, "save_edge_list", "graphs.io", _file_bytes(1)),
    (scargraph.graphs, "save_edge_list", "graphs.io", _file_bytes(1)),
    (scargraph.pairing, "pair_trees", "pairing.pair_trees", _pairing),
    (scargraph.scars, "multi_glue", "scars.multi_glue", None),
    (scargraph.cli, "multi_glue", "scars.multi_glue", None),
    (scargraph.scars, "greedy_packing", "scars.greedy_packing", None),
    (scargraph.scars, "carve_site", "scars.carve_site", None),
    (scargraph.scars, "glue", "scars.glue", _glue),
    (scargraph.certificate, "localized_eigenvector",
     "scars.localized_eigenvector", None),
    (scargraph.base, "extreme_eigenvalues", "spectral", _spectral),
    (scargraph.certificate, "extreme_eigenvalues", "spectral", _spectral),
    (scargraph.base, "validate_base", "base.validate_base", None),
    (scargraph.cli, "validate_base", "base.validate_base", None),
    (scargraph.certificate, "build_certificate", "certificate.build", None),
    (scargraph.cli, "build_certificate", "certificate.build", None),
    (scargraph.certificate, "verify_certificate", "certificate.verify", None),
    (scargraph.cli, "verify_certificate", "certificate.verify", None),
    (_certificate, "save", "certificate.io", _file_bytes(1)),
    (_certificate, "load", "certificate.io", _file_bytes(0)),
    (scargraph.certificate, "scarring_witness", "qe", None),
    (scargraph.cli, "scarring_witness", "qe", None),
    (scargraph.cli, "min_support_for_mass", "qe", None),
    (scargraph.cli, "main", "cli", None),
    (scargraph.cli, "_cmd_construct", "cli", None),
    (scargraph.cli, "_cmd_verify", "cli", None),
    (scargraph.cli, "_cmd_qe", "cli.qe", None),
]


def boundary_key(owner, attr):
    """Dotted path of a wrapped attribute, e.g. ``scargraph.base.girth``."""
    prefix = owner.__name__ if inspect.ismodule(owner) \
        else f"{owner.__module__}.{owner.__qualname__}"
    return f"{prefix}.{attr}"


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.op = None
        self._stack = []
        self._undo = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.op, {}])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, key, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if counter is not None:
                span[ATTRS] = counter(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for owner, attr, name, counter in BOUNDARIES:
            key = boundary_key(owner, attr)
            self.calls[key] = 0
            original = inspect.getattr_static(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(getattr(owner, attr), name, key, counter))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")


def span_cost_s():
    """Wall time one wrapped call adds, measured on a no-op function."""
    n = 20000
    tracer = Tracer()
    tracer.calls["noop"] = 0

    def noop():
        return None

    wrapped = tracer._wrap(noop, "noop", "noop", None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def self_times(spans):
    """Per span: its duration minus the durations of its children.

    ``spans`` is the tracer's whole list, since parents are indices into it.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, own, op_s):
    """Per-layer metrics of one op, from its spans and their self times.

    ``X_s`` is the inclusive time of calls named X, ``X.self_s`` the time
    not covered by child spans.
    """
    total, selfs, counts, attrs = {}, {}, {}, {}
    for s, t in zip(spans, own):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        selfs[name] = selfs.get(name, 0.0) + t
        counts[name] = counts.get(name, 0) + 1
        # a call that raised has no counter attributes
        if s[ATTRS]:
            attrs.setdefault(name, []).append(s[ATTRS])

    def calls(name):
        return counts.get(name, 0)

    def summed(name, key):
        return sum(a[key] for a in attrs.get(name, []))

    spectral = attrs.get("spectral", [])
    spectral_s = {"dense": 0.0, "iterative": 0.0}
    for s in spans:
        if s[NAME] == "spectral" and s[ATTRS]:
            spectral_s[s[ATTRS]["method"]] += s[END] - s[START]
    glue_calls = len(attrs.get("scars.glue", []))
    return {
        "graphs.girth.base_s": total.get("graphs.girth.base", 0.0),
        "graphs.girth.glued_s": total.get("graphs.girth.glued", 0.0),
        "graphs.girth.calls": calls("graphs.girth.base")
        + calls("graphs.girth.glued"),
        "graphs.bfs_distances_s": total.get("graphs.bfs_distances", 0.0),
        "graphs.bfs_distances.calls": calls("graphs.bfs_distances"),
        "graphs.build_graph_s": total.get("graphs.build_graph", 0.0),
        "graphs.io_s": total.get("graphs.io", 0.0),
        "graphs.io_bytes": summed("graphs.io", "bytes"),
        "pairing.pair_trees_s": total.get("pairing.pair_trees", 0.0),
        "pairing.pair_trees.d4D6_s": sum(
            (s[END] - s[START] for s in spans
             if s[NAME] == "pairing.pair_trees"
             and (s[ATTRS].get("d"), s[ATTRS].get("depth")) == (4, 6)),
            0.0),
        "pairing.swaps": summed("pairing.pair_trees", "swaps"),
        "scars.glue.self_s": selfs.get("scars.glue", 0.0),
        "scars.greedy_packing_s": total.get("scars.greedy_packing", 0.0),
        "scars.carve_site_s": total.get("scars.carve_site", 0.0),
        "scars.glue.attempts": summed("scars.glue", "attempts") / glue_calls
        if glue_calls else 0.0,
        "scars.localized_eigenvector_s":
            total.get("scars.localized_eigenvector", 0.0),
        "spectral.iterative_s": spectral_s["iterative"],
        "spectral.iterative.calls": sum(
            a["method"] == "iterative" for a in spectral),
        "spectral.matvecs": sum(a["matvecs"] for a in spectral
                                if a["method"] == "iterative"),
        "spectral.residual_max": max((a["residual"] for a in spectral),
                                     default=0.0),
        "spectral.dense_s": spectral_s["dense"],
        "spectral.dense.calls": sum(a["method"] == "dense" for a in spectral),
        "base.validate_base.self_s": selfs.get("base.validate_base", 0.0),
        "certificate.build.self_s": selfs.get("certificate.build", 0.0),
        "certificate.verify.self_s": selfs.get("certificate.verify", 0.0),
        "certificate.io_s": total.get("certificate.io", 0.0),
        "certificate.bytes": summed("certificate.io", "bytes"),
        "qe.self_s": selfs.get("qe", 0.0),
        "cli.qe.self_s": selfs.get("cli.qe", 0.0),
        "cli.self_s": selfs.get("cli", 0.0),
        "trace.op_s": op_s,
        "trace.spans": len(spans),
    }


def self_time_ranking(spans, own):
    """(name, self seconds) for every span name, largest first."""
    acc = {}
    for s, t in zip(spans, own):
        acc[s[NAME]] = acc.get(s[NAME], 0.0) + t
    return sorted(acc.items(), key=lambda kv: -kv[1])
