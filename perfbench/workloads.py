"""Seeded inputs, operations and output checks of the two workloads.

Every workload is a closed loop: one caller in one process sends the next
operation only after the previous one has returned. An operation writes its
artifacts into a directory of its own; the check that follows it reads them
back and compares them with values recomputed through the public
``nrcdamp`` API. A run is one program call (an analysis pass or one CLI
process); a timed op is the run that a latency sample covers.

- ``cold-cli``: a fresh ``python -m nrcdamp.cli <cmd>`` process per op,
  rotating ``design``, ``simulate`` and ``identify`` on
  ``configs/surrogate.json``, plus a fresh ``python -c "import nrcdamp"``.
- ``design-sweep``: in process; one op is one analysis pass (design, sens,
  margins, bode and rootlocus) on a seeded perturbation of the surrogate.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
COLD_ROTATION = ("design", "simulate", "identify", "import")
# Grid densities of the design-sweep ops, in this order. Op time grows with
# the grid, so the ops sort into three classes: the p50 falls at three
# quarters of the 400 class (ranks 20-60 %) and the p90 at three quarters of
# the 2000 class (ranks 60-100 %). Each sits inside a class of 40 % of the
# ops and away from its middle, where load from other tenants of a shared
# host, which slows a varying share of the ops, moves a quantile most. A
# 45 s run holds over 150 ops, so the p90 has over ten beyond it.
PPD_CYCLE = (100, 400, 400, 2000, 2000)
CHILD_TIMEOUT_S = 60.0

# Acceptance tolerances: criterion 13 (simulation vs FRF) and criterion 11
# (chirp identification) of the repository's acceptance suite.
SIM_GAIN_REL_TOL = 0.02
IDENT_BAND_HZ = (10.0, 3000.0)
IDENT_MAG_DB_TOL = 1.0
IDENT_PHASE_DEG_TOL = 5.0
IDENT_MIN_COHERENCE = 0.99
KP_REL_TOL = 1e-9


class CheckFailed(Exception):
    """A run returned, but its output is wrong."""


@dataclass
class Run:
    """One program call inside a timed op."""

    kind: str
    raw: dict | None
    out_dir: Path
    wall_s: float = 0.0
    error: str | None = None
    rss_mb: float = 0.0


def load_cli():
    """Import the package under test (``src`` must be on ``sys.path``)."""
    import nrcdamp
    import nrcdamp.cli

    return nrcdamp, nrcdamp.cli


def load_surrogate(root: Path) -> dict:
    return json.loads((root / "configs" / "surrogate.json").read_text(encoding="utf-8"))


def env_with_src(root: Path) -> dict:
    env = dict(os.environ)
    parts = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def grid_points(nd, raw: dict) -> int:
    g = raw["grid"]
    return int(nd.log_grid(g["f_min_hz"], g["f_max_hz"], g["pts_per_decade"]).size)


def _scale_load(raw: dict, eta: float) -> None:
    for mode in raw["plant"]["modes"]:
        mode["freq_hz"] *= eta


def design_config(base: dict, seed: int, index: int) -> dict:
    """Seeded design perturbation of the surrogate for op ``index``.

    The grid density follows ``PPD_CYCLE`` by position, so a run of whole
    cycles has the same mix of grid sizes whatever the seed.
    """
    rng = np.random.default_rng([seed, index])
    raw = copy.deepcopy(base)
    raw["nrc"]["gamma"] = float(rng.uniform(0.95, 0.999))
    raw["nrc"]["n"] = float(rng.uniform(4.0, 10.0))
    raw["tracker"]["omega_b_hz"] = float(rng.uniform(250.0, 450.0))
    _scale_load(raw, float(rng.uniform(0.8, 1.0)))
    raw["grid"]["pts_per_decade"] = PPD_CYCLE[index % len(PPD_CYCLE)]
    return raw


# ---------------------------------------------------------------------------
# warm workload


class DesignSweep:
    """In-process analysis passes over seeded design perturbations."""

    cycle = len(PPD_CYCLE)

    def __init__(self, root: Path, seed: int):
        self.nd, self.cli = load_cli()
        self.base = load_surrogate(root)
        self.seed = seed
        self.warm = copy.deepcopy(self.base)
        self.warm["grid"]["pts_per_decade"] = PPD_CYCLE[0]

    def runs(self, index: int, out_dir: Path) -> list[Run]:
        return [Run("analysis", design_config(self.base, self.seed, index), out_dir)]

    def warm_runs(self, out_dir: Path) -> list[Run]:
        return [Run("analysis", self.warm, out_dir)]

    def execute(self, run: Run) -> None:
        cfg = self.cli.parse_config_dict(run.raw)
        for name in ("design", "sens", "margins", "bode", "rootlocus"):
            sub = run.out_dir / name
            sub.mkdir(parents=True)
            getattr(self.cli, f"run_{name}")(cfg, sub)

    def check(self, run: Run) -> None:
        check_design(self.nd, self.cli, run.raw, run.out_dir / "design")
        for sub, name in (
            ("sens", "sensitivities.csv"),
            ("margins", "margins.json"),
            ("bode", "bode.csv"),
            ("rootlocus", "rootlocus.csv"),
        ):
            if not (run.out_dir / sub / name).is_file():
                raise CheckFailed(f"{sub}: {name} not written")


# ---------------------------------------------------------------------------
# cold workload


class ColdCli:
    """Fresh interpreter per run on ``configs/surrogate.json``."""

    cycle = len(COLD_ROTATION)

    def __init__(self, root: Path, traced_runner: Path | None = None):
        self.nd, self.cli = load_cli()
        self.config = root / "configs" / "surrogate.json"
        self.raw = load_surrogate(root)
        self.env = env_with_src(root)
        self.runner = traced_runner
        self.trace_files: list[Path] = []

    def runs(self, index: int, out_dir: Path) -> list[Run]:
        kind = COLD_ROTATION[index % len(COLD_ROTATION)]
        return [Run(kind, None if kind == "import" else self.raw, out_dir)]

    def argv(self, run: Run) -> list[str]:
        if self.runner is None:
            if run.kind == "import":
                return [sys.executable, "-c", "import nrcdamp"]
            return [sys.executable, "-m", "nrcdamp.cli", run.kind, str(self.config),
                    "--out", str(run.out_dir)]
        trace_file = run.out_dir.with_name(run.out_dir.name + ".trace.json")
        self.trace_files.append(trace_file)
        cmd = ["--import-only"] if run.kind == "import" else [
            run.kind, str(self.config), "--out", str(run.out_dir)]
        return [sys.executable, str(self.runner), str(trace_file), *cmd]

    def execute(self, run: Run) -> None:
        run.out_dir.mkdir(parents=True)
        run.rss_mb, status = run_process(self.argv(run), self.env, CHILD_TIMEOUT_S)
        if status != 0:
            raise RuntimeError(f"{run.kind} process exited with status {status}")

    def check(self, run: Run) -> None:
        if run.kind == "design":
            check_design(self.nd, self.cli, run.raw, run.out_dir)
        elif run.kind == "simulate":
            check_simulate(self.nd, self.cli, run.raw, run.out_dir)
        elif run.kind == "identify":
            check_identify(self.nd, self.cli, run.raw, run.out_dir)


def run_process(argv: list[str], env: dict, timeout_s: float) -> tuple[float, int]:
    """Run one child to completion: (its peak RSS in MB, its exit status)."""
    proc = subprocess.Popen(
        argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
    )
    # wait4 reaps the child and returns its own resource usage; the timer
    # kills a child that hangs, so the run still ends within its budget
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


# ---------------------------------------------------------------------------
# checks


def _public_loop(nd, cfg):
    """Plant and damper transfer functions, and G_d, rebuilt from specs."""
    plant_spec = cfg.plant.to_spec()
    g_tf = nd.build_plant(plant_spec)
    cd_tf = nd.synthesize_nrc(plant_spec, cfg.nrc)

    def gd_eval(w):
        g = nd.freq_response(g_tf, w)
        return g / (1.0 + g * nd.freq_response(cd_tf, w))

    return g_tf, cd_tf, gd_eval


def _finite_scalars(node, where: str) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _finite_scalars(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _finite_scalars(value, f"{where}[{i}]")
    elif isinstance(node, (bool, str)):
        return
    elif node is None or not math.isfinite(node):
        raise CheckFailed(f"{where} is not finite: {node!r}")


def check_design(nd, cli, raw: dict, out_dir: Path) -> None:
    """Stable dual loop, finite summary, kp = 1/|G_d(i w_b)| recomputed."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["dual_loop"]["stable"] is not True:
        raise CheckFailed("design: dual loop not stable")
    _finite_scalars(summary, "summary")
    cfg = cli.parse_config_dict(raw)
    _, _, gd_eval = _public_loop(nd, cfg)
    kp_ref = 1.0 / abs(complex(gd_eval(TWO_PI * cfg.tracker.omega_b_hz)))
    kp = summary["tuning"]["kp"]
    if not abs(kp - kp_ref) <= KP_REL_TOL * kp_ref:
        raise CheckFailed(f"design: kp {kp!r} != 1/|G_d(i w_b)| = {kp_ref!r}")


def check_simulate(nd, cli, raw: dict, out_dir: Path) -> None:
    """Steady-state sine gain within 2% of |T_yr(i w_r)| (criterion 13)."""
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    cfg = cli.parse_config_dict(raw)
    g_tf, cd_tf, gd_eval = _public_loop(nd, cfg)
    tr = cfg.tracker
    kp = nd.tune_kp(gd_eval, TWO_PI * tr.omega_b_hz)
    ct_tf = nd.build_tracker(
        nd.TrackerSpec(
            pi=nd.PiSpec(kp=kp, omega_i_rad_s=TWO_PI * tr.omega_i_hz),
            notches=tr.notches,
            lowpass_corner_rad_s=None if tr.lowpass_hz is None else TWO_PI * tr.lowpass_hz,
        )
    )
    w = TWO_PI * cfg.sim.reference.freq_hz
    g = nd.freq_response(g_tf, w)
    ct = nd.freq_response(ct_tf, w)
    target = abs(complex(g * ct / (1.0 + g * (ct + nd.freq_response(cd_tf, w)))))
    gain = metrics["steady_state_gain"]
    if not abs(gain - target) <= SIM_GAIN_REL_TOL * target:
        raise CheckFailed(f"simulate: gain {gain!r} vs |T_yr| {target!r}")
    with open(out_dir / "trace.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    expected = int(round(cfg.sim.duration_s / cfg.sim.ts_s))
    if rows != expected:
        raise CheckFailed(f"simulate: trace has {rows} rows, expected {expected}")


def check_identify(nd, cli, raw: dict, out_dir: Path) -> None:
    """FRF within 1 dB / 5 deg of the plant, coherence > 0.99 (criterion 11)."""
    data = np.loadtxt(out_dir / "frf.csv", delimiter=",", skiprows=1, ndmin=2)
    f, mag, phase, coh = data.T
    band = (f >= IDENT_BAND_HZ[0]) & (f <= IDENT_BAND_HZ[1])
    cfg = cli.parse_config_dict(raw)
    ref = nd.freq_response(nd.build_plant(cfg.plant.to_spec()), TWO_PI * f[band])
    dmag = mag[band] - 20.0 * np.log10(np.abs(ref))
    ref_ph = np.degrees(np.unwrap(np.angle(ref)))
    est_ph = phase[band]
    est_ph = est_ph - 360.0 * round((est_ph[0] - ref_ph[0]) / 360.0)
    worst = (
        float(np.max(np.abs(dmag))),
        float(np.max(np.abs(est_ph - ref_ph))),
        float(np.min(coh[band])),
    )
    if not (
        worst[0] < IDENT_MAG_DB_TOL
        and worst[1] < IDENT_PHASE_DEG_TOL
        and worst[2] > IDENT_MIN_COHERENCE
    ):
        raise CheckFailed(
            "identify: |dmag| %.3g dB, |dphase| %.3g deg, min coherence %.5g" % worst
        )
