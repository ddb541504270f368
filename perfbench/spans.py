"""In-memory span tracer for the traced benchmark run.

The tracer wraps semiwalk from the outside: every public function of each
layer module and every public method of the classes defined there. A
function is reached through several bindings (``semiwalk.build_family``,
``semiwalk.family.build_family``, ``semiwalk.dynamics.build_family``), so
each binding that holds the original is re-pointed at the one wrapper.
``uninstall`` restores them, so untraced passes run the unwrapped code.

A span is ``[name, start, end, parent index, op name]``. Counters are taken
at the same boundary from arguments and return values, so they repeat
exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "szegedy", "family", "cycles", "dynamics", "circuit", "corpus", "cli")


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _emit_counts(args, kwargs, out):
    artifacts = _arg(args, kwargs, 3, "artifacts")
    return {"cli.artifacts": len(artifacts),
            "cli.artifact_bytes": sum(len(text.encode()) for text in artifacts.values())}


# Span name -> counters derived from (args, kwargs, return value).
COUNTERS = {
    # args[0] is the operator instance
    "szegedy.apply": lambda a, kw, out: {"szegedy.state_steps": _arg(a, kw, 2, "steps", 1)},
    "family.build_family": lambda a, kw, out: {"family.members": len(out.members)},
    "family.unitary_period": lambda a, kw, out: {
        "family.unitary_period.powers": _arg(a, kw, 1, "t_max") if out is None else out},
    "dynamics.limiting_distribution": lambda a, kw, out: {
        "dynamics.limit.iterations": out.iterations, f"dynamics.limit.{out.mode}": 1},
    "dynamics.sample_trajectories": lambda a, kw, out: {"dynamics.trajectories": len(out)},
    "graphs.deserialize": lambda a, kw, out: {
        "graphs.deserialize.bytes": len(_arg(a, kw, 0, "text").encode())},
    "graphs.serialize": lambda a, kw, out: {"graphs.serialize.bytes": len(out.encode())},
    # private, wrapped for its counts only: it is where the CLI writes artifacts
    "cli._emit": _emit_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self.on = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for name, member in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, name, self._wrap(f"{layer}.{name}", member))
        emit = importlib.import_module(f"{package.__name__}.cli")._emit
        wrappers[emit] = self._wrap("cli._emit", emit, span=False)
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> tuple[list[list], Counter]:
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, span: bool = True):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if span:
                record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                record[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    tracer._stack.pop()
            else:
                out = fn(*args, **kwargs)
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, out))
            return out

        return traced


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per span name: ``.calls``, inclusive ``.s`` and ``.self_s``.

    Self time is a span's duration minus the time its child spans cover; on
    one thread the children of a span never overlap, so that is their sum.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(int)
    for k, (name, start, end, _, _) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".s"] += end - start
        out[name + ".self_s"] += end - start - covered[k]
    return out


def outermost_seconds(spans: list[list], layer: str) -> float:
    """Time inside ``layer`` spans whose parent is outside that layer."""
    prefix = layer + "."
    return sum(
        end - start
        for name, start, end, parent, _ in spans
        if name.startswith(prefix) and (parent < 0 or not spans[parent][0].startswith(prefix))
    )


def write_tsv(path, *groups: list[list]) -> None:
    """Write span groups to one TSV, renumbering parents to the file's rows."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart\tend\tparent\top\n")
        base = 0
        for group in groups:
            for k, (name, start, end, parent, op) in enumerate(group):
                parent = base + parent if parent >= 0 else -1
                fh.write(f"{base + k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
            base += len(group)
