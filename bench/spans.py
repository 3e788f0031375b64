"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of ``diracosc`` by replacing the module
attribute each caller looks the function up through, and restores every
original on ``uninstall``.  Nothing inside the package changes; an untraced
run never installs a wrapper.

Sites (module attribute -> who looks it up there):

- ``model.reduced_coefficients``: ``spectrum``, ``oracle``, the benchmark;
- ``spectrum.find_states``: ``spectrum.sweep``, ``cli``, the benchmark; the
  oracle binds it by name at import, so ``oracle.find_states`` is a second
  site of the same span;
- ``spectrum.energy_condition``: ``find_states`` and ``_package`` call the
  module global;
- ``oracle.self_consistent_energy``, ``oracle.fd_eigenvalue`` and
  ``oracle.sturm_count``: module globals of ``oracle``;
- ``special.laguerre`` and ``special.log_gamma``: ``wavefunc`` and
  ``spectrum`` call them through the ``special`` module attribute.

Spans (name, start, end, parent) are kept in flat arrays and written out
with ``dump``.  ``special.laguerre`` and ``special.log_gamma`` run about
10^4 times per state inside the norm quadrature, so they are counted, not
spanned: a span each would cost more than the function itself.  Even a
counter costs as much as the function, so the counters are a tracer of
their own (``Tracer(counting=True)``), installed in a separate run of the
request; the span times never include their cost.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name); a second site of one span shares its name
SPAN_SITES = (
    ("model", "reduced_coefficients", "model.reduced_coefficients"),
    ("spectrum", "find_states", "spectrum.find_states"),
    ("oracle", "find_states", "spectrum.find_states"),
    ("spectrum", "energy_condition", "spectrum.energy_condition"),
    ("spectrum", "sweep", "spectrum.sweep"),
    ("oracle", "compare", "oracle.compare"),
    ("oracle", "self_consistent_energy", "oracle.self_consistent_energy"),
    ("oracle", "fd_eigenvalue", "oracle.fd_eigenvalue"),
    ("oracle", "sturm_count", "oracle.sturm_count"),
    ("wavefunc", "radial_profile", "wavefunc.radial_profile"),
    ("wavefunc", "ode_residual", "wavefunc.ode_residual"),
    ("wavefunc", "count_nodes", "wavefunc.count_nodes"),
    ("special", "integrate_halfline", "special.integrate_halfline"),
    ("nu", "pi_candidates", "nu.pi_candidates"),
    ("nu", "eigen_condition", "nu.eigen_condition"),
    ("cli", "main", "cli.main"),
)
COUNT_SITES = (
    ("special", "laguerre", "special.laguerre"),
    ("special", "log_gamma", "special.log_gamma"),
)


def _module(name: str):
    return importlib.import_module(f"diracosc.{name}")


class Tracer:
    """Spans on ``SPAN_SITES``, or with ``counting`` call counts on
    ``COUNT_SITES`` only."""

    def __init__(self, counting: bool = False) -> None:
        self._sites = COUNT_SITES if counting else SPAN_SITES
        self._wrap = self._count if counting else self._span
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.grid_points = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in self._sites:
            self._patch(module, attr, self._wrap(name, getattr(_module(module), attr)))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, module: str, attr: str, wrapper) -> None:
        mod = _module(module)
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _span(self, name: str, fn):
        sid = self._ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        is_fd = name == "oracle.fd_eigenvalue"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            if is_fd:
                # one solve on the grid and one on its nested h/2 grid
                points = args[2].points if len(args) > 2 else kwargs["grid"].points
                self.grid_points += 3 * points + 1
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[index] = clock()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time (s), median duration (s).

        Self time is a span's duration minus the durations of its direct
        children, so nested calls of one name are not counted twice.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child_time = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        out = {}
        for sid, label in enumerate(self.names):
            mask = name == sid
            calls = int(mask.sum())
            if calls == 0:
                continue
            out[label] = {
                "calls": calls,
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "p50_s": float(np.median(dur[mask])),
            }
        return out

    def dump(self, path: str) -> None:
        """Write every span to a NumPy archive: names, and per span its
        name index, start, end (perf_counter seconds) and parent index
        (-1 at the root)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
