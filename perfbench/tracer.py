"""Per-layer tracing of crflag from outside the package.

``install()`` replaces every public function of the layer modules with a
timing wrapper, in its defining module and in every ``crflag`` module that
bound the same object by name (``survey`` and ``cli`` import ``analyze`` and
the oracle functions that way).  ``InvolutionData.apply`` runs millions of
times per sweep, so it gets a counting-only wrapper.  Nothing under the
package's source tree is edited; the wrappers live only in the traced
interpreter.

A function's total time is the time spent inside its wrapped calls; its
self time leaves out the time spent in the wrapped calls those made.
Bookkeeping done after a call returns (the analyze latency list, the
repeat-key set) is charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("roots", "parabolic", "involution", "cralgebra", "chevalley", "survey", "cli")


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.wrapped: set[str] = set()
        self.analyze_us: list[float] = []
        self.repeat_keys: set = set()
        self.repeats = 0
        self.repeat_key_missing = False
        self._apply_calls = 0
        # one [child_seconds, layer] frame per open wrapped call
        self._stack: list[list] = []

    def timed(self, layer: str, name: str, fn, after=None):
        key = f"{layer}.{name}"
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer it leaves
                if len(stack) < 2 or stack[-2][1] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[key] += dur - frame[0]
                total_s[key] += dur
                calls[key] += 1
            if after is not None:
                after(args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        self.wrapped.add(key)
        return wrapper

    def counting(self, fn):
        def wrapper(*args, **kwargs):
            self._apply_calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_analyze(self, args, result, dur):
        self.analyze_us.append(dur * 1e6)
        try:
            rs, q = args[0], args[1]
            key = (rs.family, rs.rank, q.root_set, result.sigma_q)
        except (AttributeError, IndexError):
            self.repeat_key_missing = True
            return
        if key in self.repeat_keys:
            self.repeats += 1
        else:
            self.repeat_keys.add(key)

    def snapshot(self) -> dict:
        """Raw counters as plain JSON data."""
        return {
            "wrapped": sorted(self.wrapped),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "errors": {layer: self.errors[layer] for layer in LAYERS},
            "apply_calls": self._apply_calls if "involution.apply" in self.wrapped else None,
            "analyze_us": self.analyze_us,
            "repeats": None if self.repeat_key_missing else self.repeats,
        }


def _public_functions(module):
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install() -> Tracer:
    """Wrap the public functions of every layer module that exists."""
    tracer = Tracer()
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"crflag.{layer}")
        except ModuleNotFoundError:
            continue
    package_modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "crflag" or n.startswith("crflag."))
    ]
    for layer, module in modules.items():
        for name, fn in list(_public_functions(module)):
            after = tracer._after_analyze if (layer, name) == ("cralgebra", "analyze") else None
            wrapper = tracer.timed(layer, name, fn, after)
            for m in package_modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
    cls = getattr(modules.get("involution"), "InvolutionData", None)
    if cls is not None and callable(getattr(cls, "apply", None)):
        cls.apply = tracer.counting(cls.apply)
        tracer.wrapped.add("involution.apply")
    return tracer
