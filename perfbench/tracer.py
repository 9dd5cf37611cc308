"""Per-layer tracing: wrap named package functions to count calls and time them.

Each target is named ``module.function`` and resolved inside the package when
tracing starts. Every binding of the same function object in the package's
loaded modules is replaced by the wrapper, so calls through a
``from .module import name`` alias, and calls from inside the defining module
(such as ``G_rr`` calling ``L_rr``), are counted too. A target that no longer
resolves, after a rename say, is listed in ``missing`` instead of failing.

Self time is a call's duration minus the time spent in traced calls it made.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    outer_iters: List[int] = field(default_factory=list)
    max_array_bytes: int = 0

    def p50_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def _array_bytes(result) -> int:
    """Bytes held by the arrays of a dataclass result, from their shapes."""
    fields = getattr(result, "__dataclass_fields__", None)
    if not fields:
        return 0
    return sum(getattr(getattr(result, name), "nbytes", 0) for name in fields)


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, package: str, targets: Sequence[str]):
        self.package = package
        self.stats: Dict[str, CallStats] = {t: CallStats() for t in targets}
        self.missing: List[str] = []
        self._stack: List[float] = []
        self._restore: List[tuple] = []

    def _resolve(self, target: str):
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        fn = getattr(module, attr, None)
        return fn if callable(fn) else None

    def _wrap(self, fn, st: CallStats):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - child
                st.durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed
            iters = getattr(result, "outer_iters", None)
            if isinstance(iters, int):
                st.outer_iters.append(iters)
            st.max_array_bytes = max(st.max_array_bytes, _array_bytes(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for target, st in self.stats.items():
            fn = self._resolve(target)
            if fn is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(fn, st)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()
