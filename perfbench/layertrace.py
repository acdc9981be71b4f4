"""Span tracer wrapped around the public functions of each isotypic layer.

``install`` rebinds every target in every loaded ``isotypic`` module that
holds it (``from .lr import tensor_pair`` makes a second binding in each
importing module), and the ``WeylOp``/``FockPoly`` methods on their classes.
Each call records one span (name, start, end, parent span) in
flat arrays that stay in memory until ``summary`` reduces them; the
program's own code is not touched.
"""

from __future__ import annotations

import sys
import time
from array import array

# (metric layer, module, attribute, what to count from the result).
# A ``None`` module means the attribute is a method "Class.method" of fock.
SPANNED = (
    ("lr.lr_coefficient", "lr", "lr_coefficient", "nonzero"),
    ("lr.tensor_pair", "lr", "tensor_pair", "terms"),
    ("lr.tensor_multi", "lr", "tensor_multi", None),
    ("lr.tensor_mixed", "lr", "tensor_mixed", None),
    ("stable_limits.stable_tensor", "stable_limits", "stable_tensor", "probes"),
    ("stable_limits.stable_branch", "stable_limits", "stable_branch", "probes"),
    ("stable_limits.identity_multiplicity", "stable_limits", "identity_multiplicity", None),
    ("characters.greedy_decompose", "characters", "greedy_decompose", None),
    ("characters.schur_laurent_on_so_torus", "characters", "schur_laurent_on_so_torus", None),
    ("characters.so_character", "characters", "so_character", None),
    ("characters.dim", "characters", "dim", None),
    ("branching.reciprocity_check", "branching", "reciprocity_check", None),
    ("branching.dual_side_multiplicity", "branching", "dual_side_multiplicity", None),
    ("branching.restrict", "branching", "restrict_gl_to_so", None),
    ("branching.restrict", "branching", "restrict_gl_to_sp", None),
    ("fock.WeylOp.matmul", None, "WeylOp.__matmul__", "weyl_terms"),
    ("fock.WeylOp.apply", None, "WeylOp.apply", None),
    ("fock.FockPoly.substitute", None, "FockPoly.substitute", None),
    ("fock.check_covariance", "fock", "check_covariance", None),
    ("fock.harmonic_project_rank1", "fock", "harmonic_project_rank1", None),
    ("fock.hwv", "fock", "hwv", None),
    ("fock.generators", "fock", "sl2_generators", None),
    ("fock.generators", "fock", "sp2n_generators", None),
    ("fock.generators", "fock", "supq_laplacians", None),
    ("cli.build_parser", "cli", "build_parser", None),
    ("cli.cache_get", "cli", "cache_get", "hit"),
    ("cli.cache_put", "cli", "cache_put", None),
    ("cli.render_human", "cli", "render_human", None),
)
# Hot, cheap functions: counted only, because a span would cost more than
# the call itself.
COUNTED = (
    ("signatures.canonicalize", "signatures", "canonicalize"),
    ("fock.weyl_commutator", "fock", "weyl_commutator"),
)


def _result_count(kind, result):
    if kind == "nonzero":
        return 1 if result else 0
    if kind == "terms":
        return len(result)
    if kind == "probes":
        return len(result.probes)
    if kind == "weyl_terms":
        return len(result.terms)
    return 1 if result is not None else 0  # "hit"


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.enabled = True
        self.so_character_cache = None

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def wrap_spanned(self, name, fn, count_kind):
        nid = self.name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack = self.span_parent, self.stack
        counts = self.counts
        count_key = f"{name}.{count_kind}" if count_kind else None
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_key is not None:
                counts[count_key] = counts.get(count_key, 0) + _result_count(count_kind, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Rebind every target in every loaded isotypic module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "isotypic" or n.startswith("isotypic."))
        ]
        fock = sys.modules["isotypic.fock"]
        self.so_character_cache = sys.modules["isotypic.characters"].so_character
        for name, module, attr, kind in SPANNED:
            if module is None:
                cls_name, meth = attr.split(".")
                cls = getattr(fock, cls_name)
                setattr(cls, meth, self.wrap_spanned(name, cls.__dict__[meth], kind))
                continue
            self._rebind(
                modules, module, attr,
                lambda fn, name=name, kind=kind: self.wrap_spanned(name, fn, kind),
            )
        for name, module, attr in COUNTED:
            self._rebind(
                modules, module, attr, lambda fn, name=name: self.wrap_counted(name, fn)
            )

    @staticmethod
    def _rebind(modules, module, attr, make_wrapper):
        original = getattr(sys.modules[f"isotypic.{module}"], attr)
        wrapper = make_wrapper(original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)

    def stop(self):
        """Stop recording; keep the so_character memo statistics seen so far."""
        self.enabled = False
        if self.so_character_cache is not None:
            info = self.so_character_cache.cache_info()
            self.counts["characters.so_character.cache_hits"] = info.hits
            self.counts["characters.so_character.cache_misses"] = info.misses

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, and parent/child call pairs."""
        n = len(self.span_start)
        child_time = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        per_name: dict = {}
        pairs: dict = {}
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            dur = ends[i] - starts[i]
            entry = per_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_time[i]
            p = parents[i]
            if p >= 0:
                key = f"{names[self.span_name[p]]}>{name}"
                pairs[key] = pairs.get(key, 0) + 1
        return {
            "spans": {
                k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in per_name.items()
            },
            "pairs": pairs,
            "counts": dict(self.counts),
        }


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.span_start)
        t.span_name.append(self.nid)
        t.span_parent.append(t.stack[-1] if t.stack else -1)
        t.span_end.append(0.0)
        t.stack.append(self.idx)
        t.span_start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.span_end[self.idx] = time.perf_counter()
        t.stack.pop()
        return False
