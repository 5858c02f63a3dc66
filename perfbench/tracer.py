"""Outside-in spans around every public function of the defcolor layers.

``Tracer.install`` wraps each public module-level function of the layer
modules and rebinds the wrapper in every loaded ``defcolor.*`` module that
holds the original by name, so calls made inside the package (for example
``build_scheme`` calling ``certify_entry``) are seen as well as the
benchmark's own calls.  Spans are aggregated in memory as they close: each
span knows its parent through the call stack, so a function's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "graphs",
    "minors",
    "depth",
    "coloring",
    "hugeint",
    "constants",
    "scheme.homogeneous",
    "scheme.split",
    "scheme.steps",
    "scheme.build",
    "scheme.certify",
    "scheme.colorer",
    "scheme.serialize",
    "cli",
)


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Per-function call counts and self time, plus event counters."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "defcolor" or name.startswith("defcolor."))
        }
        for layer in LAYERS:
            mod = modules["defcolor." + layer]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    for name, val in list(vars(other).items()):
                        if val is fn:
                            self._undo.append((other, name, fn))
                            setattr(other, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._undo):
            setattr(mod, name, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        active = self._active
        on_call = _CALL_HOOKS.get(name)
        on_result = _RESULT_HOOKS.get(name)
        on_error = _ERROR_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            frame = [0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            else:
                if on_result is not None:
                    on_result(self, result)
                return result
            finally:
                dur = clock() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                stat.calls += 1
                stat.self_s += own
                if name == "scheme.certify.certify_entry" and active.get(
                    "scheme.build.build_scheme"
                ):
                    self.count("scheme.certify.certify_entry.in_build_s", own)

        return wrapper



def _first_sight(exc: BaseException) -> bool:
    """True the first time an exception passes a hook on its way out."""
    if getattr(exc, "_perfbench_seen", False):
        return False
    exc._perfbench_seen = True
    return True


def _count_verdicts(tracer: Tracer, report) -> None:
    tracer.count("scheme.certify.fail_verdicts", len(report.failures()))
    tracer.count("scheme.certify.skipped_verdicts", len(report.skipped()))


def _count_homogeneous(tracer: Tracer, triple) -> None:
    if triple is None:
        tracer.count("scheme.homogeneous.find_homogeneous.misses")


def _count_json_bytes(tracer: Tracer, text) -> None:
    tracer.count("scheme.serialize.bytes", len(text))


def _budget_hook(prefix: str):
    def hook(tracer: Tracer, exc: BaseException) -> None:
        if type(exc).__name__ == "BudgetExceededError":
            tracer.count(prefix + ".budget_stops")

    return hook


def _bucket_hook(tracer: Tracer, exc: BaseException) -> None:
    if type(exc).__name__ == "BucketTooSmallError" and _first_sight(exc):
        tracer.count("scheme.steps.bucket_errors")


def _crash_hook(tracer: Tracer, exc: BaseException) -> None:
    if type(exc).__name__ != "InputFormatError" and _first_sight(exc):
        tracer.count("scheme.certify.crashes")


_CALL_HOOKS = {
    "scheme.serialize.scheme_from_json": lambda tracer, args: _count_json_bytes(
        tracer, args[0]
    ),
}

_RESULT_HOOKS = {
    "scheme.certify.certify_entry": _count_verdicts,
    "scheme.homogeneous.find_homogeneous": _count_homogeneous,
    "scheme.serialize.scheme_to_json": _count_json_bytes,
}

_ERROR_HOOKS = {
    "minors.has_minor": _budget_hook("minors.has_minor"),
    "coloring.decide_defective": _budget_hook("coloring.decide_defective"),
    "scheme.steps.del_step": _bucket_hook,
    "scheme.steps.contract_step": _bucket_hook,
    "scheme.certify.certify_entry": _crash_hook,
    "scheme.certify.certify_scheme": _crash_hook,
}
