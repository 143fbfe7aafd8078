"""Spans and counters at the public function boundaries of ``nrcdamp``.

Tracing is installed from outside: each wrapped function is replaced, in
every ``nrcdamp`` module that holds it (``cli`` imports names with
``from .x import y``, and modules call their own functions through module
globals), by a wrapper that records a span and the counters below. No
source under ``src/`` changes. Spans stay in memory; :meth:`Tracer.summary`
folds them into per-function totals when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# layer -> public functions the benchmark reaches through the CLI pipeline
WRAPPED = {
    "lti": ("freq_response", "poly_roots"),
    "plants": ("build_plant",),
    "nrc": ("synthesize_nrc",),
    "loops": ("root_locus_n", "inner_closed_loop"),
    "tracking": (
        "margins",
        "bandwidth",
        "tune_kp",
        "dual_sensitivities",
        "nyquist_net_crossings",
        "objective_report",
        "bundle_to_csv",
    ),
    "sim": (
        "discretize",
        "simulate_dual_loop",
        "trace_to_csv",
        "open_loop_response",
        "chirp_identify",
        "frf_to_csv",
    ),
    "cli": ("parse_config_dict", "run_design", "run_simulate", "run_identify"),
}

WRITERS = ("tracking.bundle_to_csv", "sim.trace_to_csv", "sim.frf_to_csv")


@dataclass
class FnStats:
    """Totals of one wrapped function over a set of spans."""

    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    scalar_calls: int = 0
    points: int = 0
    samples: int = 0
    bytes: int = 0

    def add(self, other: "FnStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class Tracer:
    """In-memory span recorder; ``enabled`` gates recording at run time.

    A span is ``[name, parent span index, start, end, failed, work size,
    op]``; the spans of one op share its ``op`` index.
    """

    enabled: bool = False
    op: int = -1
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, 0.0, 0.0, False, _extra(name, args), self.op]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if name in WRITERS:
                    span[5] = _file_size(args[1])

        return traced

    def summary(self) -> dict[str, FnStats]:
        """Per-function totals; child_s is the time of direct child spans."""
        stats = {f"{layer}.{fn}": FnStats() for layer, fns in WRAPPED.items() for fn in fns}
        for name, parent, start, end, failed, extra, _ in self.spans:
            s = stats[name]
            s.calls += 1
            s.errors += failed
            s.total_s += end - start
            if parent >= 0:
                stats[self.spans[parent][0]].child_s += end - start
            if name == "lti.freq_response":
                s.scalar_calls += extra == 0
                s.points += max(extra, 1)
            elif name == "sim.simulate_dual_loop":
                s.samples += extra
            elif name in WRITERS:
                s.bytes += extra
        return stats


def _extra(name: str, args) -> int:
    """Size of the work a call was given: FRF points or simulated samples."""
    if name == "lti.freq_response":
        return int(np.size(args[1])) if np.ndim(args[1]) else 0
    if name == "sim.simulate_dual_loop":
        return int(np.size(args[3]))
    return 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Replace every wrapped function in every loaded ``nrcdamp`` module."""
    import nrcdamp.cli  # noqa: F401  (loads every module the CLI calls into)

    modules = [m for k, m in sys.modules.items() if k == "nrcdamp" or k.startswith("nrcdamp.")]
    for layer, fns in WRAPPED.items():
        home = sys.modules[f"nrcdamp.{layer}"]
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def merge(summaries) -> dict[str, FnStats]:
    total: dict[str, FnStats] = {}
    for summary in summaries:
        for name, s in summary.items():
            total.setdefault(name, FnStats()).add(s)
    return total


def to_json(stats: dict[str, FnStats]) -> dict:
    return {name: vars(s) for name, s in stats.items()}


def from_json(data: dict) -> dict[str, FnStats]:
    return {name: FnStats(**fields) for name, fields in data.items()}


def importtime(stderr: str) -> tuple[float, float]:
    """Seconds of ``import nrcdamp`` and of the scipy modules it loads, from
    the ``-X importtime`` log of a fresh interpreter.

    scipy loads ``scipy.signal`` lazily, so the log has no line of its own
    for it; its cost is the cumulative time of the outermost scipy modules,
    those not imported by another scipy module (nrcdamp imports no other
    part of scipy).
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line.split("|")
        if cumulative.strip().isdigit():  # skips the header line
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    # a module's line follows the lines of the modules it imported, one
    # level deeper, so walking backwards meets each importer first
    nrcdamp_s = scipy_s = 0.0
    stack: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        importer = stack[-1][1] if stack else ""
        if name == "nrcdamp":
            nrcdamp_s = cumulative
        elif name.split(".")[0] == "scipy" and importer.split(".")[0] != "scipy":
            scipy_s += cumulative
        stack.append((depth, name))
    return nrcdamp_s, scipy_s
