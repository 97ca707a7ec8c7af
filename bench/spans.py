"""Span timing from outside the program: wrap the public functions of the
traced ``megraph`` modules, aggregate spans in memory, restore on exit.

Self time is a span's duration minus the part of it its child spans cover.
Spans of one thread nest properly, so a stack suffices: a closing span adds
its duration to its parent's child time. The live tracer and the replay of
recorded spans (:func:`self_times`) share that one aggregator.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

TRACED_MODULES = (
    "landmarks",
    "graph",
    "model",
    "losses",
    "autodiff",
    "params",
    "training",
    "checks",
)


class SpanStats:
    """Per-name call counts, inclusive and self seconds, from nested spans.

    Inclusive time counts only the outermost active span of a name, so a
    function that re-enters itself is not counted twice. ``root_s`` is the
    time covered by spans that have no parent; when the aggregation is
    right, the self times of all names add up to it.
    """

    def __init__(self, names):
        self.names = list(names)
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self._depth = [0] * n
        self._stack: list[list] = []
        self.root_s = 0.0

    def open(self, idx: int, t: float) -> None:
        self._stack.append([idx, t, 0.0])
        self._depth[idx] += 1

    def close(self, t: float) -> None:
        idx, start, child = self._stack.pop()
        duration = t - start
        self.calls[idx] += 1
        self.self_s[idx] += duration - child
        self._depth[idx] -= 1
        if self._depth[idx] == 0:
            self.total_s[idx] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def active(self, idx: int) -> bool:
        return self._depth[idx] > 0

    def by_name(self) -> dict[str, dict]:
        return {
            name: {
                "calls": self.calls[i],
                "s": self.total_s[i],
                "self_s": self.self_s[i],
            }
            for i, name in enumerate(self.names)
        }


def self_times(spans) -> dict[str, dict]:
    """Aggregate recorded spans ``(name, start, end, parent)``.

    ``parent`` is the index of the enclosing span in ``spans`` or None. The
    spans must nest: a child lies inside its parent's interval and siblings
    do not overlap.
    """
    children: dict[int | None, list[int]] = {}
    for i, (_, start, end, parent) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ends before it starts")
        if parent is not None:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {i} is not inside its parent {parent}")
        children.setdefault(parent, []).append(i)
    for kids in children.values():
        kids.sort(key=lambda i: (spans[i][1], spans[i][2]))
        for a, b in zip(kids, kids[1:]):
            if spans[b][1] < spans[a][2]:
                raise ValueError(f"sibling spans {a} and {b} overlap")
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    stats = SpanStats(names)
    # Depth-first replay: open a span, replay its children, close it.
    stack = [(i, False) for i in reversed(children.get(None, []))]
    while stack:
        i, done = stack.pop()
        name, start, end, _ = spans[i]
        if done:
            stats.close(end)
            continue
        stats.open(index[name], start)
        stack.append((i, True))
        stack.extend((k, False) for k in reversed(children.get(i, [])))
    result = stats.by_name()
    result["(root)"] = {"calls": 0, "s": stats.root_s, "self_s": 0.0}
    return result


# -- live tracing -------------------------------------------------------------


@dataclass
class Binding:
    """One place a traced callable is looked up: an attribute of a module or
    a class. ``original`` is the object found there before patching."""

    owner: object
    attr: str
    original: object


def _public_callables(module) -> list[tuple[str, object, str, object]]:
    """(metric name, owner, attribute, function) for each public function and
    public method defined in ``module``.

    Methods are named ``<module>.<method>`` unless that name is taken in the
    module, then ``<module>.<Class>.<method>``.
    """
    short = module.__name__.rsplit(".", 1)[-1]
    found = []
    funcs = set()
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found.append((f"{short}.{attr}", module, attr, obj))
            funcs.add(attr)
    methods = []
    for cls_name, cls in vars(module).items():
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        for attr, obj in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                func = obj.__func__
            elif inspect.isfunction(obj):
                func = obj
            else:
                continue
            methods.append((cls_name, cls, attr, func))
    counts: dict[str, int] = {}
    for _, _, attr, _ in methods:
        counts[attr] = counts.get(attr, 0) + 1
    for cls_name, cls, attr, func in methods:
        clash = attr in funcs or counts[attr] > 1
        name = f"{short}.{cls_name}.{attr}" if clash else f"{short}.{attr}"
        found.append((name, cls, attr, func))
    return found


Hook = Callable[["Tracer", tuple, dict, object], None]

HOOK_SPAN = "trace.hooks"


def is_wrapper(obj) -> bool:
    """True for the timing wrappers :class:`Tracer` installs."""
    return inspect.isfunction(obj) and getattr(obj, "_timing_wrapper", False) is True


@dataclass
class Tracer:
    """Patches every binding of the traced functions with a timing wrapper.

    ``package`` is the imported ``megraph`` package. Functions are patched
    in every ``megraph`` module that holds them, because callers import
    names directly (``from .params import sgd_step``) and a patch of the
    defining module alone would miss their calls. ``after`` maps a metric
    name to a hook run after each call returns. Hooks run inside a span of
    their own, ``HOOK_SPAN``, so their cost is kept out of the self time of
    the program's functions.
    """

    package: object
    after: dict[str, Hook] = field(default_factory=dict)

    def __post_init__(self):
        prefix = self.package.__name__
        entries = []
        for name in TRACED_MODULES:
            entries.extend(_public_callables(sys.modules[f"{prefix}.{name}"]))
        self.stats = SpanStats([e[0] for e in entries] + [HOOK_SPAN])
        self.index = {name: i for i, name in enumerate(self.stats.names)}
        self._entries = entries
        self.bindings: list[Binding] = []

    def _wrap(self, idx: int, func):
        stats, clock = self.stats, time.perf_counter
        hook = self.after.get(self.stats.names[idx])
        hook_idx = self.index[HOOK_SPAN]

        def traced(*args, **kwargs):
            stats.open(idx, clock())
            try:
                result = func(*args, **kwargs)
            finally:
                stats.close(clock())
            if hook is not None:
                stats.open(hook_idx, clock())
                try:
                    hook(self, args, kwargs, result)
                finally:
                    stats.close(clock())
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced._timing_wrapper = True
        return traced

    def patch(self) -> None:
        if self.bindings:
            raise RuntimeError("tracer is already patched")
        wrappers = {}
        for name, owner, attr, func in self._entries:
            wrappers[id(func)] = (func, self._wrap(self.index[name], func))
        # Module-level names: every megraph module, including the untraced
        # ones and the package itself, may hold a traced function.
        prefix = self.package.__name__
        namespaces = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.bindings.append(Binding(module, attr, obj))
                    setattr(module, attr, hit[1])
        for _, owner, attr, func in self._entries:
            if inspect.isclass(owner):
                original = vars(owner)[attr]
                wrapped = wrappers[id(func)][1]
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrapped)
                elif isinstance(original, staticmethod):
                    wrapped = staticmethod(wrapped)
                self.bindings.append(Binding(owner, attr, original))
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for b in reversed(self.bindings):
            setattr(b.owner, b.attr, b.original)

    def unrestored(self) -> list[str]:
        """Bindings that do not hold their original object (empty after a
        correct :meth:`restore`)."""
        bad = []
        for b in self.bindings:
            current = vars(b.owner).get(b.attr)
            if current is not b.original:
                owner = getattr(b.owner, "__name__", repr(b.owner))
                bad.append(f"{owner}.{b.attr}")
        return bad

    def calls(self, name: str) -> int:
        return self.stats.calls[self.index[name]]

    def active(self, name: str) -> bool:
        return self.stats.active(self.index[name])
