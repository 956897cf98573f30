"""Per-layer spans for the traced benchmark run.

The tracer replaces every public function of the package's layer modules
with a timing wrapper, in every ``buresgeo`` namespace that binds it: the
package itself re-exports most of them, and ``metric`` imports
``hubner_form`` and the Dittmann forms by name. A wrapper that missed such a
binding would undercount calls and read as a speed-up, so the bench
self-test pins the counts.

Each span records its call count, its total time and its self time: its
duration minus the time covered by the spans it encloses. Spans live in
memory only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("matcore", "coset", "bures", "metric", "recover", "sampling", "cli")

# In cli only the entry point is a layer boundary; the cmd_* functions and the
# renderers are its body, so their time stays in cli.main's self time.
CLI_SPANS = ("main",)

# The scipy fallback that recover binds by name; it runs 0 times today.
FOREIGN_SPANS = (("recover", "least_squares"),)


class Tracer:
    """Call counts, total and self times, keyed ``<module>.<function>``."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()

    def _wrap(self, key: str, fn):
        calls, total_s, self_s, stack = self.calls, self.total_s, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                total_s[key] += dt
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt

        return span

    def install(self, package) -> None:
        """Wrap the layer functions of ``package`` and rebind every alias."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in LAYERS}
        spans: dict[int, tuple[object, object]] = {}
        for name, mod in modules.items():
            for attr, val in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(val)
                        or val.__module__ != mod.__name__):
                    continue
                if name == "cli" and attr not in CLI_SPANS:
                    continue
                spans[id(val)] = (val, self._wrap(f"{name}.{attr}", val))
        for name, attr in FOREIGN_SPANS:
            val = getattr(modules[name], attr)
            spans[id(val)] = (val, self._wrap(f"{name}.{attr}", val))
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                hit = spans.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()
