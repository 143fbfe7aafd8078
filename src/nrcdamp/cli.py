"""Config-driven command-line front end.

Reads a JSON experiment configuration (frequencies in Hz, delays in us),
runs design/analysis/simulation pipelines and writes CSV/JSON artifacts
plus a one-page text summary. Identical config and seed produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .lti import bode_to_csv, freq_response, log_grid, write_csv
from .plants import ModeSpec, PlantSpec, build_plant
from .nrc import NrcSpec, nrc_gains, synthesize_nrc
from .loops import (
    inner_charpoly,
    locus_to_csv,
    root_locus_n,
    routh_cubic,
)
from .tracking import (
    BandwidthReport,
    MarginsReport,
    NotchSpec,
    PiSpec,
    TrackerSpec,
    bandwidth,
    build_tracker,
    bundle_to_csv,
    dual_sensitivities,
    margins,
    nyquist_net_crossings,
    objective_report,
    pm_feasibility,
    tune_kp,
)
from .sim import (
    chirp_identify,
    discretize,
    dual_loop_state_space,
    frf_to_csv,
    make_reference,
    make_uniform_noise,
    open_loop_response,
    simulate_dual_loop,
    sinusoid_amplitude,
    spectral_radius,
    trace_to_csv,
    tracking_metrics,
)

TWO_PI = 2.0 * math.pi

COMMANDS = (
    "bode",
    "design",
    "rootlocus",
    "sens",
    "margins",
    "simulate",
    "identify",
    "sweep",
)

# Config sections a command needs, checked in this order before --out is
# made; sweep checks design's on the config of every value.
REQUIRED_SECTIONS = {
    "design": ("tracker", "nrc"),
    "rootlocus": ("nrc",),
    "sens": ("nrc",),
    "margins": ("nrc",),
    "simulate": ("sim", "nrc", "tracker"),
}


class ConfigError(ValueError):
    """Configuration rejected; message names the offending key."""


@dataclass(frozen=True)
class PlantConfig:
    """Plant section with parsed modes; ``to_spec`` converts the rest to SI units."""

    gain: float
    modes: tuple  # of ModeSpec
    amp_corner_hz: float | None = None
    delay_us: float = 0.0

    def to_spec(self) -> PlantSpec:
        return PlantSpec(
            gain=self.gain,
            modes=self.modes,
            amp_corner_rad_s=None
            if self.amp_corner_hz is None
            else TWO_PI * self.amp_corner_hz,
            delay_s=self.delay_us * 1e-6,
        )


@dataclass(frozen=True)
class ReferenceSpec:
    kind: str
    amplitude: float
    freq_hz: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    ts_us: float
    duration_s: float
    reference: ReferenceSpec
    seed: int = 0
    noise_amplitude: float = 0.0
    disturbance_amplitude: float = 0.0
    disturbance_freq_hz: float = 0.0

    @property
    def ts_s(self) -> float:
        return self.ts_us * 1e-6


@dataclass(frozen=True)
class GridSpec:
    f_min_hz: float
    f_max_hz: float
    pts_per_decade: int


@dataclass(frozen=True)
class TargetSpec:
    gm_db: float = 6.0
    pm_deg: float = 60.0
    bound_db: float = 3.0


@dataclass(frozen=True)
class TrackerConfig:
    """Raw tracker configuration: explicit kp or tune-by-bandwidth."""

    kp: float | None
    omega_b_hz: float | None
    omega_i_hz: float
    notches: tuple
    lowpass_hz: float | None


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantConfig
    nrc: NrcSpec | None
    tracker: TrackerConfig | None
    grid: GridSpec
    sim: SimConfig | None
    targets: TargetSpec


def _num(mapping, key, where, *, positive=False, nonneg=False, default=None):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"config error at {where}.{key}: required key missing")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config error at {where}.{key}: must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"config error at {where}.{key}: must be finite")
    if positive and value <= 0.0:
        raise ConfigError(f"config error at {where}.{key}: must be > 0")
    if nonneg and value < 0.0:
        raise ConfigError(f"config error at {where}.{key}: must be >= 0")
    return value


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"config error at {where}: unknown key '{sorted(unknown)[0]}'"
        )


def parse_config_dict(raw: dict) -> ExperimentConfig:
    """Validate a configuration dictionary into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config error at top level: expected a JSON object")
    _check_keys(raw, ("plant", "nrc", "tracker", "grid", "sim", "targets"), "config")

    if "plant" not in raw:
        raise ConfigError("config error at plant: required key missing")
    praw = raw["plant"]
    _check_keys(praw, ("gain", "modes", "amp_corner_hz", "delay_us"), "plant")
    gain = _num(praw, "gain", "plant", positive=True)
    modes_raw = praw.get("modes")
    if not isinstance(modes_raw, list) or not modes_raw:
        raise ConfigError("config error at plant.modes: need a nonempty list")
    modes = []
    for i, m in enumerate(modes_raw):
        where = f"plant.modes[{i}]"
        _check_keys(m, ("freq_hz", "zeta", "weight"), where)
        modes.append(
            ModeSpec(
                omega_rad_s=TWO_PI * _num(m, "freq_hz", where, positive=True),
                zeta=_num(m, "zeta", where, nonneg=True),
                weight=_num(m, "weight", where, nonneg=True, default=1.0),
            )
        )
    amp_hz = praw.get("amp_corner_hz")
    if amp_hz is not None:
        amp_hz = _num(praw, "amp_corner_hz", "plant", positive=True)
    delay_us = _num(praw, "delay_us", "plant", nonneg=True, default=0.0)
    plant = PlantConfig(
        gain=gain, modes=tuple(modes), amp_corner_hz=amp_hz, delay_us=delay_us
    )
    try:
        plant.to_spec()  # enforce the library invariants at load time
    except ValueError as exc:
        raise ConfigError(f"config error at plant: {exc}") from exc

    nrc_spec = None
    if "nrc" in raw:
        nraw = raw["nrc"]
        _check_keys(nraw, ("gamma", "n", "taming_l"), "nrc")
        gamma = _num(nraw, "gamma", "nrc")
        if not (0.0 < gamma <= 1.0):
            raise ConfigError(
                "config error at nrc.gamma: gamma must lie in (0,1]; "
                "the damping loop loses stability for gamma > 1"
            )
        n = _num(nraw, "n", "nrc", positive=True)
        taming_l = nraw.get("taming_l")
        if taming_l is not None:
            taming_l = _num(nraw, "taming_l", "nrc", positive=True)
        nrc_spec = NrcSpec(gamma=gamma, n=n, taming_l=taming_l)

    tracker = None
    if "tracker" in raw:
        traw = raw["tracker"]
        _check_keys(
            traw, ("kp", "omega_b_hz", "omega_i_hz", "notches", "lowpass_hz"), "tracker"
        )
        has_kp = "kp" in traw
        has_wb = "omega_b_hz" in traw
        if has_kp == has_wb:
            raise ConfigError(
                "config error at tracker: exactly one of kp / omega_b_hz required"
            )
        kp = _num(traw, "kp", "tracker", positive=True) if has_kp else None
        wb = _num(traw, "omega_b_hz", "tracker", positive=True) if has_wb else None
        wi = _num(traw, "omega_i_hz", "tracker", nonneg=True)
        notches = []
        for i, nt in enumerate(traw.get("notches", [])):
            where = f"tracker.notches[{i}]"
            _check_keys(nt, ("freq_hz", "q_num", "q_den"), where)
            notches.append(
                NotchSpec(
                    omega_rad_s=TWO_PI * _num(nt, "freq_hz", where, positive=True),
                    q_num=_num(nt, "q_num", where, positive=True),
                    q_den=_num(nt, "q_den", where, positive=True),
                )
            )
        lp = traw.get("lowpass_hz")
        if lp is not None:
            lp = _num(traw, "lowpass_hz", "tracker", positive=True)
        tracker = TrackerConfig(
            kp=kp, omega_b_hz=wb, omega_i_hz=wi, notches=tuple(notches), lowpass_hz=lp
        )

    graw = raw.get("grid", {})
    _check_keys(graw, ("f_min_hz", "f_max_hz", "pts_per_decade"), "grid")
    grid = GridSpec(
        f_min_hz=_num(graw, "f_min_hz", "grid", positive=True, default=1.0),
        f_max_hz=_num(graw, "f_max_hz", "grid", positive=True, default=10000.0),
        pts_per_decade=int(_num(graw, "pts_per_decade", "grid", positive=True, default=400)),
    )
    if grid.f_min_hz >= grid.f_max_hz:
        raise ConfigError("config error at grid: f_min_hz must be < f_max_hz")

    sim = None
    if "sim" in raw:
        sraw = raw["sim"]
        _check_keys(
            sraw,
            (
                "ts_us",
                "duration_s",
                "reference",
                "seed",
                "noise_amplitude",
                "disturbance_amplitude",
                "disturbance_freq_hz",
            ),
            "sim",
        )
        ts_us = _num(sraw, "ts_us", "sim", positive=True)
        ts_s = ts_us * 1e-6
        rraw = sraw.get("reference", {})
        _check_keys(rraw, ("kind", "amplitude", "freq_hz"), "sim.reference")
        kind = rraw.get("kind", "step")
        if kind not in ("step", "sine"):
            raise ConfigError(
                "config error at sim.reference.kind: must be 'step' or 'sine'"
            )
        ref = ReferenceSpec(
            kind=kind,
            amplitude=_num(rraw, "amplitude", "sim.reference", default=1.0),
            freq_hz=_num(rraw, "freq_hz", "sim.reference", nonneg=True, default=0.0),
        )
        if kind == "sine" and ref.freq_hz <= 0.0:
            raise ConfigError("config error at sim.reference.freq_hz: must be > 0")
        sim = SimConfig(
            ts_us=ts_us,
            duration_s=_num(sraw, "duration_s", "sim", positive=True),
            reference=ref,
            seed=int(_num(sraw, "seed", "sim", nonneg=True, default=0.0)),
            noise_amplitude=_num(sraw, "noise_amplitude", "sim", nonneg=True, default=0.0),
            disturbance_amplitude=_num(
                sraw, "disturbance_amplitude", "sim", nonneg=True, default=0.0
            ),
            disturbance_freq_hz=_num(
                sraw, "disturbance_freq_hz", "sim", nonneg=True, default=0.0
            ),
        )
        if ts_s >= 1.0 / (2.0 * grid.f_max_hz):
            raise ConfigError(
                "config error at sim.ts_us: need ts < 1/(2*f_max_hz) of the grid"
            )

    traw = raw.get("targets", {})
    _check_keys(traw, ("gm_db", "pm_deg", "bound_db"), "targets")
    targets = TargetSpec(
        gm_db=_num(traw, "gm_db", "targets", default=6.0),
        pm_deg=_num(traw, "pm_deg", "targets", default=60.0),
        bound_db=_num(traw, "bound_db", "targets", positive=True, default=3.0),
    )

    return ExperimentConfig(
        plant=plant, nrc=nrc_spec, tracker=tracker, grid=grid, sim=sim, targets=targets
    )


def _read_config_json(path):
    """Read a JSON config file without validating it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config error: invalid JSON ({exc})")


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    return parse_config_dict(_read_config_json(path))


# ---------------------------------------------------------------------------
# pipeline pieces


class _DesignContext:
    """One configured design, evaluated once.

    Holds the transfer functions, exact pointwise evaluators (delay
    included) for the analyses, and the FRFs ``g``, ``cd``, ``ct`` and
    ``gd`` on the config grid, each computed on first use. ``ct`` is zeros
    when the config has no tracker.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.plant_spec = cfg.plant.to_spec()
        self.plant_tf = build_plant(self.plant_spec)
        self.k, self.omega_a = nrc_gains(self.plant_spec, cfg.nrc)
        self.cd_tf = synthesize_nrc(self.plant_spec, cfg.nrc)
        self.grid = log_grid(cfg.grid.f_min_hz, cfg.grid.f_max_hz, cfg.grid.pts_per_decade)
        self.omega_n = self.plant_spec.omega_n

        self.ct_tf = None
        self.kp = None
        self.nu = None
        if cfg.tracker is not None:
            wi = TWO_PI * cfg.tracker.omega_i_hz
            if cfg.tracker.kp is not None:
                self.kp = cfg.tracker.kp
            else:
                wb = TWO_PI * cfg.tracker.omega_b_hz
                self.kp = tune_kp(self.gd_eval, wb)
                self.nu = self.omega_n / wb
            self.ct_tf = build_tracker(
                TrackerSpec(
                    pi=PiSpec(kp=self.kp, omega_i_rad_s=wi),
                    notches=cfg.tracker.notches,
                    lowpass_corner_rad_s=None
                    if cfg.tracker.lowpass_hz is None
                    else TWO_PI * cfg.tracker.lowpass_hz,
                )
            )

    # pointwise evaluators (vector-safe)
    def g_eval(self, omega):
        return freq_response(self.plant_tf, omega)

    def cd_eval(self, omega):
        return freq_response(self.cd_tf, omega)

    def gd_eval(self, omega):
        g = self.g_eval(omega)
        return g / (1.0 + g * self.cd_eval(omega))

    def ct_eval(self, omega):
        return freq_response(self.ct_tf, omega)

    def ld_eval(self, omega):
        return self.g_eval(omega) * (self.ct_eval(omega) + self.cd_eval(omega))

    def t_yr_eval(self, omega):
        g = self.g_eval(omega)
        ct = self.ct_eval(omega)
        return g * ct / (1.0 + g * (ct + self.cd_eval(omega)))

    def outer_loop_eval(self, omega):
        return self.ct_eval(omega) * self.gd_eval(omega)

    @cached_property
    def g(self):
        return self.g_eval(self.grid)

    @cached_property
    def cd(self):
        return self.cd_eval(self.grid)

    @cached_property
    def ct(self):
        return np.zeros_like(self.g) if self.ct_tf is None else self.ct_eval(self.grid)

    @cached_property
    def gd(self):
        return self.g / (1.0 + self.g * self.cd)

    def loop_margins(self) -> tuple[MarginsReport, MarginsReport, int]:
        """Margins of the outer loop C_t G_d and of the dual loop L_D, and
        the net Nyquist crossings of L_D."""
        outer = margins(self.grid, self.outer_loop_eval)
        dual = margins(self.grid, self.ld_eval)
        return outer, dual, nyquist_net_crossings(self.grid, self.ld_eval)

    def margins_json(self) -> dict:
        """The ``margins.json`` payload of a design with a tracker: outer-loop
        margins with their target flags, dual-loop margins with the Nyquist
        verdict."""
        outer, dual, net = self.loop_margins()
        targets = self.cfg.targets
        return {
            "outer_loop": {
                **_margins_dict(outer),
                "meets_gm_target": outer.gain_margin_db is not None
                and outer.gain_margin_db >= targets.gm_db,
                "meets_pm_target": bool(outer.crossovers)
                and min(pm for _, pm in outer.crossovers) >= targets.pm_deg,
            },
            "dual_loop": {
                **_margins_dict(dual),
                "nyquist_net_crossings": net,
                "stable": net == 0,
            },
        }


def _stability_verdict(ctx: _DesignContext) -> str:
    """Inner-loop verdict from the delay-free rational closure."""
    from dataclasses import replace

    from .loops import inner_closed_loop

    delay_free = replace(ctx.plant_spec, delay_s=0.0)
    result = inner_closed_loop(delay_free, ctx.cd_tf)
    poles = result.poles
    scale = max(1.0, float(np.max(np.abs(poles))))
    if np.any(np.abs(poles) < 1e-9 * scale):
        return "marginally stable (integrator pole at s=0)"
    if np.all(poles.real < 0.0):
        return "stable"
    return "UNSTABLE"


def _fmt(x, digits=6):
    if x is None:
        return "n/a"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.{digits}g}"


def run_design(cfg: ExperimentConfig, out_dir: Path, exact_tan60: bool = False) -> dict:
    """Full pipeline: damping synthesis, inner-loop report, tracker tuning,
    sensitivities, margins/bandwidth and the objective scorecard."""
    ctx = _DesignContext(cfg)
    grid = ctx.grid

    peak_plant = abs(complex(ctx.g_eval(ctx.omega_n)))
    peak_inner = abs(complex(ctx.gd_eval(ctx.omega_n)))
    peak_reduction_db = 20.0 * math.log10(peak_plant / peak_inner)

    bundle = dual_sensitivities(ctx.g, ctx.ct, ctx.cd, grid)
    bw = {  # each distinct bound bisected once
        bound: bandwidth(grid, ctx.t_yr_eval, bound)
        for bound in dict.fromkeys((3.0, 1.0, cfg.targets.bound_db))
    }

    margins_out = ctx.margins_json()

    hi_band = (grid[-1] / math.sqrt(10.0), grid[-1])
    objectives = objective_report(
        bundle, bw[3.0], ctx.ct_eval, ctx.ld_eval, ctx.omega_n, hi_band
    )

    feasibility = None
    if ctx.nu is not None:
        value, feasible = pm_feasibility(ctx.nu, cfg.nrc.n, exact_tan60=exact_tan60)
        feasibility = {"nu": ctx.nu, "value": value, "feasible": feasible}

    summary = {
        "tuning": {
            "k": ctx.k,
            "omega_a_rad_s": ctx.omega_a,
            "kp": ctx.kp,
            "omega_i_hz": cfg.tracker.omega_i_hz,
        },
        "inner_loop": {
            "verdict": _stability_verdict(ctx),
            "peak_reduction_db": peak_reduction_db,
        },
        "dual_loop": {  # margins.json's, less the gain margin
            k: v for k, v in margins_out["dual_loop"].items() if k != "gain_margin_db"
        },
        "outer_loop": margins_out["outer_loop"],
        "bandwidth": {
            "wc_1db_hz": _hz(bw[1.0]),
            "wc_3db_hz": _hz(bw[3.0]),
            "wc_target_hz": _hz(bw[cfg.targets.bound_db]),
            "bound_db": cfg.targets.bound_db,
        },
        "objectives": {
            "bandwidth": _obj_dict(objectives.bandwidth, scale=1.0 / TWO_PI, unit="hz"),
            "tracker_corner": _obj_dict(
                objectives.tracker_corner, scale=1.0 / TWO_PI, unit="hz"
            ),
            "resonance_loop_gain": _obj_dict(objectives.resonance_loop_gain),
            "highband_loop_gain": _obj_dict(objectives.highband_loop_gain),
        },
    }
    if feasibility is not None:
        summary["pm_feasibility"] = feasibility

    bundle_to_csv(bundle, out_dir / "sensitivities.csv")
    _write_json(out_dir / "margins.json", margins_out)
    _write_json(out_dir / "summary.json", summary)
    (out_dir / "summary.txt").write_text(summarize(summary), encoding="utf-8")
    return summary


def _hz(rep: BandwidthReport) -> float | None:
    return None if rep.grid_end else rep.omega_c_rad_s / TWO_PI


def _obj_dict(obj, scale: float = 1.0, unit: str = "") -> dict:
    value = obj.value if obj.value is None else obj.value * scale
    target = obj.target * scale
    d = {"value": value, "target": target, "passed": obj.passed}
    if unit:
        d["unit"] = unit
    return d


def summarize(summary: dict) -> str:
    """One-page human-readable report of a design run."""
    t = summary["tuning"]
    lines = [
        "design summary",
        "==============",
        f"damping controller: k = {_fmt(t['k'])}, omega_a = {_fmt(t['omega_a_rad_s'])} rad/s"
        f" ({_fmt(t['omega_a_rad_s'] / TWO_PI)} Hz)",
        f"tracker: kp = {_fmt(t['kp'])}, omega_i = {_fmt(t['omega_i_hz'])} Hz",
        f"inner loop: {summary['inner_loop']['verdict']}; resonance peak reduced "
        f"{_fmt(summary['inner_loop']['peak_reduction_db'], 4)} dB",
        f"dual loop: {'stable' if summary['dual_loop']['stable'] else 'UNSTABLE'}"
        f" (net critical crossings {summary['dual_loop']['nyquist_net_crossings']})",
    ]
    ol = summary["outer_loop"]
    pm_txt = ", ".join(
        f"{_fmt(c['phase_margin_deg'], 4)} deg @ {_fmt(c['freq_hz'], 5)} Hz"
        for c in ol["crossovers"]
    )
    lines.append(
        f"outer loop margins: GM = {_fmt(ol['gain_margin_db'], 4)} dB; PM = {pm_txt or 'none'}"
    )
    bw = summary["bandwidth"]
    lines.append(
        f"closed-loop bandwidth: +/-1 dB at {_fmt(bw['wc_1db_hz'], 6)} Hz, "
        f"+/-3 dB at {_fmt(bw['wc_3db_hz'], 6)} Hz"
    )
    lines.append("objective scorecard:")
    names = {
        "bandwidth": "O1 tracking bandwidth",
        "tracker_corner": "O2 tracker high-gain corner",
        "resonance_loop_gain": "O3 loop gain at resonance",
        "highband_loop_gain": "O4 high-band loop gain",
    }
    for key, label in names.items():
        o = summary["objectives"][key]
        unit = f" {o['unit']}" if "unit" in o else ""
        verdict = "pass" if o["passed"] else "FAIL"
        lines.append(
            f"  {label}: {_fmt(o['value'], 6)}{unit} (target {_fmt(o['target'], 6)}{unit}) -> {verdict}"
        )
    if "pm_feasibility" in summary:
        fz = summary["pm_feasibility"]
        lines.append(
            f"pm feasibility at nu = {_fmt(fz['nu'], 5)}: value = {_fmt(fz['value'], 5)}"
            f" -> {'feasible' if fz['feasible'] else 'infeasible'}"
        )
    return "\n".join(lines) + "\n"


def run_bode(cfg: ExperimentConfig, out_dir: Path) -> dict:
    if cfg.nrc is None:
        grid = log_grid(cfg.grid.f_min_hz, cfg.grid.f_max_hz, cfg.grid.pts_per_decade)
        cols = {"plant": freq_response(build_plant(cfg.plant.to_spec()), grid)}
    else:
        ctx = _DesignContext(cfg)
        grid, cols = ctx.grid, {"plant": ctx.g, "nrc": ctx.cd, "inner_loop": ctx.gd}
    bode_to_csv(out_dir / "bode.csv", grid, cols)
    return {"files": ["bode.csv"], "columns": list(cols)}


def run_rootlocus(
    cfg: ExperimentConfig, out_dir: Path, n_min=0.1, n_max=10.0, n_points=500
) -> dict:
    first = cfg.plant.to_spec().modes[0]
    single = PlantSpec(gain=cfg.plant.gain, modes=(first,))
    trace = root_locus_n(
        single, cfg.nrc.gamma, np.geomspace(n_min, n_max, int(n_points))
    )
    locus_to_csv(trace, out_dir / "rootlocus.csv")
    report = routh_cubic(
        inner_charpoly(first.omega_rad_s, first.zeta, cfg.nrc.gamma, cfg.nrc.n)
    )
    summary = {
        "bifurcation_n": trace.bifurcation_n,
        "configured_n": cfg.nrc.n,
        "routh_first_column": list(report.first_column),
        "stable": report.stable,
        "marginal": report.marginal,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def run_sens(cfg: ExperimentConfig, out_dir: Path) -> dict:
    ctx = _DesignContext(cfg)
    bundle = dual_sensitivities(ctx.g, ctx.ct, ctx.cd, ctx.grid)
    bundle_to_csv(bundle, out_dir / "sensitivities.csv")
    return {"files": ["sensitivities.csv"], "points": int(ctx.grid.size)}


def run_margins(cfg: ExperimentConfig, out_dir: Path) -> dict:
    ctx = _DesignContext(cfg)
    if ctx.ct_tf is None:
        inner = margins(ctx.grid, lambda w: ctx.g_eval(w) * ctx.cd_eval(w))
        out = {"inner_loop": _margins_dict(inner)}
    else:
        out = ctx.margins_json()
    _write_json(out_dir / "margins.json", out)
    return out


def _crossovers(rep: MarginsReport) -> list:
    return [{"freq_hz": w / TWO_PI, "phase_margin_deg": pm} for w, pm in rep.crossovers]


def _margins_dict(rep: MarginsReport) -> dict:
    return {"gain_margin_db": rep.gain_margin_db, "crossovers": _crossovers(rep)}


def run_simulate(cfg: ExperimentConfig, out_dir: Path, seed=None) -> dict:
    """Simulate the sampled dual loop; a loop whose closed-loop spectral
    radius exceeds 1 diverges and is refused before it runs."""
    ctx = _DesignContext(cfg)
    ts = cfg.sim.ts_s
    plant_d = discretize(ctx.plant_tf, ts)
    tracker_d = discretize(ctx.ct_tf, ts)
    nrc_d = discretize(ctx.cd_tf, ts)
    rho = spectral_radius(dual_loop_state_space(plant_d, tracker_d, nrc_d))
    if rho > 1.0:
        raise ValueError(
            f"simulation diverged: closed-loop spectral radius {rho:.6g} > 1"
        )
    ref = cfg.sim.reference
    r = make_reference(ref.kind, ref.amplitude, ts, cfg.sim.duration_s, ref.freq_hz)
    use_seed = cfg.sim.seed if seed is None else seed
    n = (
        make_uniform_noise(use_seed, cfg.sim.noise_amplitude, r.size)
        if cfg.sim.noise_amplitude > 0.0
        else np.zeros(r.size)
    )
    if cfg.sim.disturbance_amplitude > 0.0 and cfg.sim.disturbance_freq_hz > 0.0:
        t = np.arange(r.size) * ts
        d = cfg.sim.disturbance_amplitude * np.sin(
            TWO_PI * cfg.sim.disturbance_freq_hz * t
        )
    else:
        d = np.zeros(r.size)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        trace = simulate_dual_loop(plant_d, tracker_d, nrc_d, r, d, n)
    if not (np.isfinite(trace.u).all() and np.isfinite(trace.y_meas).all()):
        raise ValueError("simulation diverged: the trace is not finite")
    trace_to_csv(trace, out_dir / "trace.csv")
    e_max, e_rms = tracking_metrics(trace.r, trace.y_meas)
    metrics = {
        "e_max": e_max,
        "e_rms": e_rms,
        "seed": use_seed,
        "closed_loop_spectral_radius": rho,
    }
    if ref.kind == "sine":
        amp = sinusoid_amplitude(trace.y_meas, ref.freq_hz, ts)
        metrics["steady_state_amplitude"] = amp
        metrics["steady_state_gain"] = amp / ref.amplitude
    _write_json(out_dir / "metrics.json", metrics)
    return metrics


def run_identify(cfg: ExperimentConfig, out_dir: Path) -> dict:
    fs = 1.0 / cfg.sim.ts_s if cfg.sim is not None else 33300.0
    duration = 10.0  # fixed sweep preset: 10 Hz .. 5 kHz over 10 s
    f_hi = min(5000.0, 0.4 * fs)
    u, y = open_loop_response(
        cfg.plant.to_spec(), fs=fs, duration_s=duration, f1=f_hi
    )
    seg = 1 << max(10, int(math.log2(u.size / 5.0)))
    est = chirp_identify(u, y, fs, min(seg, u.size // 2))
    frf_to_csv(est, out_dir / "frf.csv")
    band = (est.freq_hz > 50.0) & (est.freq_hz < f_hi)
    peak_hz = float(est.freq_hz[band][np.argmax(est.mag_db[band])])
    summary = {
        "files": ["frf.csv"],
        "fs_hz": fs,
        "duration_s": duration,
        "peak_freq_hz": peak_hz,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def _sweep_configs(cfg_raw: dict, param: str, values) -> list:
    """The validated config of each sweep value: ``cfg_raw`` with the dotted
    key ``param`` set to it."""
    configs = []
    for v in values:
        raw = json.loads(json.dumps(cfg_raw))
        node = raw
        *head, last = param.split(".")
        for key in head:
            node = node.setdefault(key, {})
        node[last] = v
        cfg = parse_config_dict(raw)
        _require_sections("design", cfg)
        configs.append(cfg)
    return configs


def run_sweep(configs, out_dir: Path, param: str, values, exact_tan60=False) -> dict:
    """Re-run the design pipeline over a one-parameter sweep."""
    rows = []
    for cfg, v in zip(configs, values):
        sub = out_dir / f"{param.replace('.', '_')}_{v:g}"
        sub.mkdir(parents=True, exist_ok=True)
        summary = run_design(cfg, sub, exact_tan60=exact_tan60)
        rows.append(
            {
                "value": v,
                "wc_3db_hz": summary["bandwidth"]["wc_3db_hz"],
                "peak_reduction_db": summary["inner_loop"]["peak_reduction_db"],
                "gain_margin_db": summary["outer_loop"]["gain_margin_db"],
                "dual_stable": summary["dual_loop"]["stable"],
            }
        )
    names = ("value", "wc_3db_hz", "peak_reduction_db", "gain_margin_db", "dual_stable")
    write_csv(out_dir / "sweep.csv", names, [[row[n] for row in rows] for n in names])
    return {"rows": rows}


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n",
        encoding="utf-8",
    )


def _require_sections(cmd: str, cfg: ExperimentConfig) -> None:
    for section in REQUIRED_SECTIONS.get(cmd, ()):
        if getattr(cfg, section) is None:
            article = "an" if section == "nrc" else "a"
            raise ConfigError(
                f"config error at {section}: {cmd} needs {article} {section} section"
            )


def run_command(cmd: str, cfg_path, out_dir, **kwargs) -> int:
    """Dispatch a CLI command; returns the process exit status.

    The config, the overrides and the sections the command needs are all
    checked before ``out_dir`` is made, so a config error leaves no
    directory behind; a command that fails later removes ``out_dir`` if it
    made it and nothing was written there.
    """
    out = Path(out_dir)
    made = not out.exists()
    status = _dispatch(cmd, cfg_path, out, kwargs)
    if status and made and out.is_dir() and not any(out.iterdir()):
        out.rmdir()
    return status


def _dispatch(cmd: str, cfg_path, out: Path, kwargs: dict) -> int:
    try:
        if cmd == "sweep":
            values = _sweep_values(kwargs["values"])
            raw = _read_config_json(cfg_path)
            parse_config_dict(raw)  # validate before mutating
            configs = _sweep_configs(raw, kwargs["param"], values)
            out.mkdir(parents=True, exist_ok=True)
            run_sweep(
                configs,
                out,
                kwargs["param"],
                values,
                exact_tan60=kwargs.get("exact_tan60", False),
            )
            return 0
        cfg = parse_config(cfg_path)
        cfg = _apply_overrides(cfg, kwargs.get("grid_override"))
        _require_sections(cmd, cfg)
        out.mkdir(parents=True, exist_ok=True)
        if cmd == "bode":
            run_bode(cfg, out)
        elif cmd == "design":
            run_design(cfg, out, exact_tan60=kwargs.get("exact_tan60", False))
        elif cmd == "rootlocus":
            run_rootlocus(
                cfg,
                out,
                n_min=kwargs.get("n_min", 0.1),
                n_max=kwargs.get("n_max", 10.0),
                n_points=kwargs.get("n_points", 500),
            )
        elif cmd == "sens":
            run_sens(cfg, out)
        elif cmd == "margins":
            run_margins(cfg, out)
        elif cmd == "simulate":
            run_simulate(cfg, out, seed=kwargs.get("seed"))
        elif cmd == "identify":
            run_identify(cfg, out)
        else:
            print(f"unknown command '{cmd}'", file=sys.stderr)
            return 2
        return 0
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _sweep_values(values) -> list:
    """The ``--values`` items as finite floats."""
    out = []
    for v in values:
        try:
            x = float(v)
        except (TypeError, ValueError):
            raise ConfigError(f"config error at --values: {v!r} is not a number") from None
        if not math.isfinite(x):
            raise ConfigError(f"config error at --values: {v!r} is not finite")
        out.append(x)
    return out


def _apply_overrides(cfg: ExperimentConfig, grid_override):
    if grid_override is None:
        return cfg
    from dataclasses import replace

    try:
        fmin, fmax, ppd = grid_override.split(",")
        grid = GridSpec(
            f_min_hz=float(fmin), f_max_hz=float(fmax), pts_per_decade=int(ppd)
        )
    except ValueError:
        raise ConfigError("config error at --grid-override: expected fmin,fmax,ppd")
    if not 0.0 < grid.f_min_hz < grid.f_max_hz < math.inf or grid.pts_per_decade < 2:
        raise ConfigError("config error at --grid-override: invalid grid")
    return replace(cfg, grid=grid)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nrcdamp",
        description="Active damping / dual-loop control design and simulation",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--grid-override", default=None, metavar="FMIN,FMAX,PPD",
        help="replace the config frequency grid",
    )
    parser.add_argument("--seed", type=int, default=None, help="override sim seed")
    parser.add_argument(
        "--exact-tan60", action="store_true",
        help="use tan(60 deg) instead of 1.75 in the PM feasibility rule",
    )
    parser.add_argument("--n-min", type=float, default=0.1, help="rootlocus n start")
    parser.add_argument("--n-max", type=float, default=10.0, help="rootlocus n end")
    parser.add_argument("--n-points", type=int, default=500, help="rootlocus n count")
    parser.add_argument(
        "--param", default="nrc.n", help="sweep: dotted config key to vary"
    )
    parser.add_argument(
        "--values", default=None,
        help="sweep: comma-separated numeric values for --param",
    )
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--values" in argv[:-1]:  # argparse takes a list such as -3,6 for an option
        i = argv.index("--values")
        argv[i : i + 2] = ["--values=" + argv[i + 1]]
    args = parser.parse_args(argv)

    kwargs = dict(
        grid_override=args.grid_override,
        seed=args.seed,
        exact_tan60=args.exact_tan60,
        n_min=args.n_min,
        n_max=args.n_max,
        n_points=args.n_points,
    )
    if args.command == "sweep":
        if not args.values:
            print("sweep needs --values", file=sys.stderr)
            return 2
        kwargs["param"] = args.param
        kwargs["values"] = args.values.split(",")
    return run_command(args.command, args.config, args.out, **kwargs)


if __name__ == "__main__":
    sys.exit(main())
