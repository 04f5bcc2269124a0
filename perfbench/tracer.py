"""Per-layer tracing from outside the program.

The wrappers replace public functions and methods of ``tropimpl`` at every
place they are looked up: module attributes (including names bound by
``from .x import y``) and class attributes.  Each call records a span
``[layer, start, end, parent]`` in memory plus counts; nothing is written
until the caller asks.  ``Tracer.install`` and ``Tracer.remove`` bracket
one traced job, so untraced jobs always run the untouched program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _gfp_kernel_counts(counts, args, kwargs, result):
    counts["exactcore.gfp_kernel_rows"] += len(args[0])
    counts["exactcore.gfp_kernel_nullity"] += len(result)


def _crt_counts(counts, args, kwargs, result):
    # only the call that succeeded: its prime list is the one the job used
    counts["exactcore.crt_primes"] = len(args[1])


def _vandermonde_counts(counts, args, kwargs, result):
    counts["interpolate.vandermonde_kernel_useful"] += 1


def _sample_counts(counts, args, kwargs, result):
    counts["interpolate.samples"] += len(result)


def _row_counts(counts, args, kwargs, result):
    counts["interpolate.rows"] += 1


def _lattice_counts(counts, args, kwargs, result):
    counts["polyhedra.lattice_points_count"] += len(result)


def _cycle_counts(counts, args, kwargs, result):
    counts["tropical.cycle_cones"] += len(result)


# (layer, module, function or "Class.method", extra counter)
# The cli.main span is the root; its self time is argument parsing, JSON
# reading, artifact assembly in cmd_* and the atomic write.
TARGETS = [
    ("cli", "cli", "main", None),
    ("implicitize.get_trop_a_disc", "implicitize", "get_trop_a_disc", None),
    ("implicitize.get_tropical_cycle", "implicitize", "get_tropical_cycle",
     None),
    ("implicitize.reconstruct_polytope", "implicitize",
     "reconstruct_polytope", None),
    ("implicitize.get_vertex", "implicitize", "get_vertex", None),
    ("tropical.push_forward_cycle", "tropical", "push_forward_cycle",
     _cycle_counts),
    ("tropical.stable_sum", "tropical", "stable_sum", None),
    ("polyhedra.mixed_volume", "polyhedra", "mixed_volume", None),
    ("polyhedra.polytope_init", "polyhedra", "Polytope.__init__", None),
    ("polyhedra.lattice_points", "polyhedra", "Polytope.lattice_points",
     _lattice_counts),
    ("polyhedra.cone_contains", "polyhedra", "Cone.contains", None),
    ("polyhedra.cone_contains", "polyhedra", "Cone.contains_relint", None),
    ("exactcore.saturate", "exactcore", "saturate", None),
    ("exactcore.rational_kernel", "exactcore", "rational_kernel", None),
    ("exactcore.gfp_echelon", "exactcore", "gfp_echelon", None),
    ("exactcore.gfp_kernel", "exactcore", "gfp_kernel", _gfp_kernel_counts),
    ("exactcore.crt_reconstruct", "exactcore", "crt_rational_reconstruct",
     _crt_counts),
    ("interpolate.implicit_equation", "interpolate", "implicit_equation",
     None),
    ("interpolate.vandermonde_kernel", "interpolate", "vandermonde_kernel",
     _vandermonde_counts),
    ("interpolate.sample", "interpolate", "horn_sample", _sample_counts),
    ("interpolate.sample", "interpolate", "sample_points", _sample_counts),
    ("interpolate.row_eval", "interpolate", "MonomialBasis.row_mod",
     _row_counts),
    ("interpolate.row_eval", "interpolate", "MonomialBasis.row", _row_counts),
    ("interpolate.verify", "interpolate", "_verify", None),
    ("chow.chow_fan", "chow", "chow_fan", None),
    ("chow.chow_polytope", "chow", "chow_polytope", None),
    ("chow.chow_form", "chow", "chow_form", None),
]


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self):
        self.spans = []      # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, layer, fn, extra):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = layer + "_calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                counts[calls] += 1
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        traced.perfbench_layer = layer
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "tropimpl" or name.startswith("tropimpl."))
                   and m is not None]
        for layer, module, attr, extra in TARGETS:
            owner = sys.modules["tropimpl." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(layer, original, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def self_times(self):
        """Seconds per layer: each span's duration minus its children's.

        Spans nest (one thread), so children never overlap one another
        and the parts they cover simply add up.
        """
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += (end - start) - child
        return dict(out)

    def total_times(self, layers):
        """Seconds per layer in ``layers``, children included.

        Only a layer's outermost spans count, so a layer that re-enters
        itself is not counted twice.
        """
        spans = self.spans
        out = dict.fromkeys(layers, 0.0)
        for layer, start, end, parent in spans:
            if layer not in out:
                continue
            while parent >= 0 and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                out[layer] += end - start
        return out

    def dump(self, fh, job):
        """Write this job's spans, then its counts, as JSON lines."""
        for index, (layer, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"job": job, "id": index, "name": layer,
                                 "start": start, "end": end,
                                 "parent": parent}) + "\n")
        fh.write(json.dumps({"job": job, "counts": dict(self.counts)}) + "\n")


def is_installed():
    """True when any traced wrapper is still bound in tropimpl."""
    for name, m in list(sys.modules.items()):
        if not (name == "tropimpl" or name.startswith("tropimpl.")):
            continue
        for value in vars(m).values():
            candidates = [value]
            if isinstance(value, type):
                candidates = list(vars(value).values())
            for v in candidates:
                if hasattr(v, "perfbench_layer"):
                    return True
    return False
