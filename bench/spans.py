"""Spans around the package's public functions, installed from outside.

Each wrapped call records one span: (name, parent span, start, end,
outcome).  The outcome is the name of the exception the call raised, or
what an observer makes of its result (a hit flag for ``detect``, a size for
``build_corpus``).  Spans stay in memory and are reduced after the pass:
a span's self time is its duration minus the durations of its children.

Wrappers are installed on every name that binds the original function in a
``dtargets`` module (``dtargets.config.strengthened_cut_check``,
``dtargets.cli.edge_colour``, the defining module's own global, ...), so
calls between modules and within a module are both seen.  ``src/`` is not
touched.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer (module) -> public functions wrapped in the traced run
WRAPPED: dict[str, tuple[str, ...]] = {
    "planar": ("parse_dtarget", "validate", "connectivity_level"),
    "cuts": ("min_odd_cut", "is_oddly_connected", "strengthened_cut_check"),
    "config": ("is_prime", "detect", "detect_all"),
    "discharge": ("charge_report",),
    "coloring": ("edge_colour", "perfect_matchings", "verify_colouring"),
    "switching": ("switch_square", "is_smaller"),
    "corpus": ("build_corpus",),
    "cli": ("main",),
}

_OBSERVERS = {
    "config.detect": lambda result: "hit" if result else "miss",
    "corpus.build_corpus": len,
}

NAME, PARENT, START, END, OUTCOME = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index][OUTCOME] = type(exc).__name__
                raise
            finally:
                spans[index][END] = clock()
                stack.pop()
            if observe is not None:
                spans[index][OUTCOME] = observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def unwind(self) -> None:
        """Close spans left open by an exception raised inside the wrapper's
        own bookkeeping (the per-call alarm can fire anywhere)."""
        now = time.perf_counter()
        while self.stack:
            span = self.spans[self.stack.pop()]
            if span[END] == 0.0:
                span[END] = now

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "dtargets" or name.startswith("dtargets.")
        ]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"dtargets.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer self time and call counts, plus the
        outcome counts the benchmark reports."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = {}
        for layer, names in WRAPPED.items():
            out[f"{layer}.self_s"] = 0.0
            for fname in names:
                out[f"{layer}.{fname}.self_s"] = 0.0
                out[f"{layer}.{fname}.calls"] = 0
        refused = timeouts = hits = rejected = validated_in_corpus = kept = 0
        for i, span in enumerate(spans):
            name, outcome = span[NAME], span[OUTCOME]
            layer = name.split(".", 1)[0]
            self_s = span[END] - span[START] - child_time[i]
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            if layer == "cuts" and outcome == "TooLarge":
                refused += 1
            if (layer == "coloring" and outcome == "CallTimeout"  # worker.CallTimeout
                    and not parent.startswith("coloring.")):
                timeouts += 1
            if name == "config.detect" and outcome == "hit":
                hits += 1
            if name == "switching.switch_square" and outcome == "WouldGoNegative":
                rejected += 1
            if name == "planar.validate" and parent == "corpus.build_corpus":
                validated_in_corpus += 1
            if name == "corpus.build_corpus" and isinstance(outcome, int):
                kept += outcome
        out["cuts.refused"] = refused
        out["coloring.timeouts"] = timeouts
        out["config.detect.hit_ratio"] = _ratio(hits, out["config.detect.calls"])
        # build_corpus validates every enumerated target once before filtering.
        out["corpus.accept_ratio"] = _ratio(kept, validated_in_corpus)
        out["switching.reject_ratio"] = _ratio(
            rejected, out["switching.switch_square.calls"]
        )
        out["trace.self_total_s"] = sum(out[f"{layer}.self_s"] for layer in WRAPPED)
        return out


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0 where the workload never reaches the layer."""
    return part / whole if whole else 0.0
