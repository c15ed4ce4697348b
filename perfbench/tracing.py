"""Span tracer and scalar-op counter that wrap ``qsylv`` from the outside.

The tracer replaces each layer's public functions with timing wrappers, in
every ``qsylv`` module namespace that bound them by name (``mmul`` lives in
both ``qsylv.qmatrix`` and ``qsylv.mpinv``, for example), and restores the
originals afterwards.  A span records its parent, so self time -- a span's
duration minus the part its child spans cover -- is computed afterwards.

Quaternion scalar operations are far too frequent to time one by one.  They
are counted by :class:`ScalarCounter` in a pass of their own, so the
counter's cost never lands in the self time of ``rcdet`` or ``qmatrix``; in
the timed pass their cost lands in the self time of whichever layer calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from time import perf_counter
from typing import Callable

#: The traced layers, innermost first.  ``quaternion`` is counted, not timed.
LAYERS = ("qmatrix", "svd", "rcdet", "mpinv", "solvers", "jsonio", "cli")

#: Functions the per-layer metrics are computed from.  One that no longer
#: exists is reported as absent, never as zero.
REQUIRED = (
    "qmatrix.mmul", "qmatrix.rank", "qmatrix.complex_embed",
    "svd.svd",
    "rcdet.rdet", "rcdet.cdet", "rcdet.bordered_cdet_sum", "rcdet.bordered_rdet_sum",
    "rcdet.principal_minor_sum",
    "mpinv.mp_oracle", "mpinv.proj_p_cramer", "mpinv.proj_q_cramer",
    "solvers.check_consistency", "solvers.derive_aux", "solvers.cramer_axb",
    "solvers.cramer_ax", "solvers.solve",
    "jsonio.dumps",
    "cli.main",
)

#: Classes whose methods are not wrapped: scalar quaternions are counted instead.
SKIP_CLASSES = {"quaternion.Quaternion"}


def _size_of_first(args, result):
    """Shape facts recorded with a span, for the ``*.max_dim`` and ``*.terms`` metrics."""
    first = args[0] if args else None
    shape = getattr(first, "shape", None)
    return tuple(shape) if shape is not None else None


def _length_of_result(args, result):
    return len(result)


#: Extra facts recorded per span: name -> fn(args, result).
SPAN_INFO: dict[str, Callable] = {
    "svd.svd": _size_of_first,
    "rcdet.rdet": _size_of_first,
    "rcdet.cdet": _size_of_first,
    "jsonio.dumps": _length_of_result,
}


def discover(layer: str) -> dict[str, tuple[object, str, object]]:
    """Public callables of ``qsylv.<layer>``: ``qualified name -> (owner, attr, raw)``.

    Module-level functions defined in the module (an ``lru_cache`` wrapper
    counts), plus plain, static and class methods of the classes it defines.
    Properties and dunders are left alone.
    """
    module = importlib.import_module(f"qsylv.{layer}")
    found: dict[str, tuple[object, str, object]] = {}
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(value, "__wrapped__", value)
        if getattr(target, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(target):
            found[f"{layer}.{name}"] = (module, name, value)
        elif inspect.isclass(value) and f"{layer}.{name}" not in SKIP_CLASSES:
            if issubclass(value, (BaseException,)) or hasattr(value, "__members__"):
                continue
            for attr, raw in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    found[f"{layer}.{name}.{attr}"] = (value, attr, raw)
    return found


class Tracer:
    """Wraps the layers' functions once; :meth:`enable` swaps the wrappers in
    and :meth:`disable` swaps the originals back, so untraced timing runs the
    unmodified program.

    Every call of a wrapped function appends ``[span_id, parent_id, name,
    start, end, info, op]`` to :attr:`spans`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []
        originals: dict[int, Callable] = {}
        wrapped = []
        for layer in LAYERS:
            try:
                found = discover(layer)
            except ImportError:
                continue
            for name, (owner, attr, raw) in found.items():
                wrapped.append(name)
                if isinstance(raw, (staticmethod, classmethod)):
                    self._plan.append((owner, attr, raw, type(raw)(self._wrap(name, raw.__func__))))
                elif inspect.ismodule(owner):
                    originals[id(raw)] = self._wrap(name, raw)
                else:
                    self._plan.append((owner, attr, raw, self._wrap(name, raw)))
        for module in _qsylv_modules():
            for attr, value in vars(module).items():
                if id(value) in originals:
                    self._plan.append((module, attr, value, originals[id(value)]))
        self.wrapped = sorted(wrapped)
        self.absent = [name for name in REQUIRED if name not in wrapped]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        info = SPAN_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None, self.op]
            spans.append(record)
            stack.append(record[0])
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if info is not None:
                record[5] = info(args, result)
            return result

        return wrapper

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def _qsylv_modules() -> list:
    return [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "qsylv"]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children's
    intervals clipped to it.  ``spans`` rows are ``[id, parent, name, start,
    end, ...]`` with ``id`` equal to the row index."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[3], span[4]))
    out = []
    for span in spans:
        start, end = span[3], span[4]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(span[0], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def outermost(spans, names) -> list[list]:
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    by_id = {span[0]: span for span in spans}
    keep = []
    for span in spans:
        if span[2] not in names:
            continue
        parent = by_id.get(span[1])
        while parent is not None and parent[2] not in names:
            parent = by_id.get(parent[1])
        if parent is None:
            keep.append(span)
    return keep


class ScalarCounter:
    """Counts quaternion multiplications and additions while enabled.

    ``mul`` counts ``Quaternion.__mul__`` (``__rmul__`` goes through it);
    ``add`` counts ``__add__``, ``__radd__`` and ``__sub__`` plus the
    ``n - 1`` additions inside each ``qsum`` of ``n`` terms.
    """

    def __init__(self):
        self.counts = {"mul": 0, "add": 0}
        self._plan: list[tuple[object, str, object, object]] = []
        quaternion = importlib.import_module("qsylv.quaternion")
        cls = quaternion.Quaternion
        for attr, field in (("__mul__", "mul"), ("__add__", "add"), ("__radd__", "add"),
                            ("__sub__", "add")):
            original = vars(cls)[attr]
            self._plan.append((cls, attr, original, self._counted(original, field)))
        qsum = quaternion.qsum
        counts = self.counts

        @functools.wraps(qsum)
        def counted_qsum(values):
            items = list(values)
            counts["add"] += max(len(items) - 1, 0)
            return qsum(items)

        for module in _qsylv_modules():
            for attr, value in vars(module).items():
                if value is qsum:
                    self._plan.append((module, attr, qsum, counted_qsum))

    def _counted(self, fn: Callable, field: str) -> Callable:
        counts = self.counts

        def wrapper(a, b):
            counts[field] += 1
            return fn(a, b)

        return wrapper

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)


def span_summary(spans, ops: int) -> dict[str, float]:
    """Per-op per-layer metrics from one pass's spans over ``ops`` ops."""
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        layer_self[span[2].split(".", 1)[0]] += own
    names = [span[2] for span in spans]

    def count(*wanted: str) -> float:
        return sum(1 for n in names if n in wanted) / ops

    def inclusive(*wanted: str) -> float:
        return sum(s[4] - s[3] for s in outermost(spans, set(wanted))) / ops

    det_spans = [s for s in spans if s[2] in ("rcdet.rdet", "rcdet.cdet") and s[5]]
    svd_spans = [s for s in spans if s[2] == "svd.svd" and s[5]]
    return {
        "qmatrix.mmul_calls": count("qmatrix.mmul"),
        "qmatrix.rank_calls": count("qmatrix.rank"),
        "qmatrix.embed_calls": count("qmatrix.complex_embed"),
        "qmatrix.self_s": layer_self["qmatrix"] / ops,
        "svd.calls": len(outermost(spans, {"svd.svd"})) / ops,
        "svd.max_dim": float(max((max(s[5]) for s in svd_spans), default=0)),
        "svd.self_s": layer_self["svd"] / ops,
        "rcdet.expansions": count("rcdet.rdet", "rcdet.cdet"),
        "rcdet.terms": sum(math.factorial(s[5][0]) for s in det_spans) / ops,
        "rcdet.max_dim": float(max((s[5][0] for s in det_spans), default=0)),
        "rcdet.bordered_calls": count("rcdet.bordered_cdet_sum", "rcdet.bordered_rdet_sum"),
        "rcdet.minor_sum_calls": count("rcdet.principal_minor_sum"),
        "rcdet.self_s": layer_self["rcdet"] / ops,
        "mpinv.oracle_calls": count("mpinv.mp_oracle"),
        "mpinv.proj_cramer_calls": count("mpinv.proj_p_cramer", "mpinv.proj_q_cramer"),
        "mpinv.self_s": layer_self["mpinv"] / ops,
        "solvers.check_s": inclusive("solvers.check_consistency"),
        "solvers.derive_aux_s": inclusive("solvers.derive_aux"),
        "solvers.cramer_s": inclusive("solvers.cramer_axb", "solvers.cramer_ax"),
        "solvers.self_s": layer_self["solvers"] / ops,
        "jsonio.self_s": layer_self["jsonio"] / ops,
        "jsonio.bytes_out": sum(s[5] or 0 for s in spans if s[2] == "jsonio.dumps") / ops,
        "cli.self_s": layer_self["cli"] / ops,
    }


#: Which wrapped functions each span-derived metric rests on.
METRIC_SOURCES = {
    "qmatrix.mmul_calls": ("qmatrix.mmul",),
    "qmatrix.rank_calls": ("qmatrix.rank",),
    "qmatrix.embed_calls": ("qmatrix.complex_embed",),
    "svd.calls": ("svd.svd",),
    "svd.max_dim": ("svd.svd",),
    "rcdet.expansions": ("rcdet.rdet", "rcdet.cdet"),
    "rcdet.terms": ("rcdet.rdet", "rcdet.cdet"),
    "rcdet.max_dim": ("rcdet.rdet", "rcdet.cdet"),
    "rcdet.bordered_calls": ("rcdet.bordered_cdet_sum", "rcdet.bordered_rdet_sum"),
    "rcdet.minor_sum_calls": ("rcdet.principal_minor_sum",),
    "mpinv.oracle_calls": ("mpinv.mp_oracle",),
    "mpinv.proj_cramer_calls": ("mpinv.proj_p_cramer", "mpinv.proj_q_cramer"),
    "solvers.check_s": ("solvers.check_consistency",),
    "solvers.derive_aux_s": ("solvers.derive_aux",),
    "solvers.derive_aux_misses": ("solvers.derive_aux",),
    "solvers.cramer_s": ("solvers.cramer_axb", "solvers.cramer_ax"),
    "jsonio.bytes_out": ("jsonio.dumps",),
}
