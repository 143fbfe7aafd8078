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
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .lti import bode_to_csv, freq_response, log_grid, mag_db, write_csv
from .plants import ModeSpec, PlantSpec, build_plant
from .nrc import NrcSpec
from .loops import inner_charpoly, locus_to_csv, root_locus_n, routh_cubic
from .tracking import (
    BandwidthReport,
    MarginsReport,
    NotchSpec,
    PiSpec,
    TrackerSpec,
    pm_feasibility,
)
from .design import Design
from .sim import (
    IDENTIFY_OVERSAMPLE,
    SINE_SKIP_FRAC,
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

# Each command and the config sections it needs, checked in this order
# before --out is made; sweep checks design's on the config of every value.
COMMANDS = {
    "bode": (),
    "design": ("tracker", "nrc"),
    "rootlocus": ("nrc",),
    "sens": ("nrc",),
    "margins": ("nrc",),
    "simulate": ("sim", "nrc", "tracker"),
    "identify": (),
    "sweep": (),
}

# Bounds on the arrays a run allocates, from the bytes per item measured on
# the command (grids of 40,001 to 400,001 points, records of 0.17 to 16 M
# samples): the grid and simulate bounds sit near 400 MB of peak RSS, and
# identify's near 55 MB.
MAX_GRID_POINTS = 1_000_000  # design and sens: about 370 B per grid point
MAX_SIM_SAMPLES = 5_000_000  # simulate: about 72 B per sample
MAX_IDENTIFY_SAMPLES = 16_000_000  # identify: about 1.2 B per sample of its 8x run
# The batched root locus peaks at about 270 bytes per point of n, so this
# bounds it near 270 MB.
MAX_LOCUS_POINTS = 1_000_000


class ConfigError(ValueError):
    """Configuration rejected; message names the offending key."""


def _fail(at: str, message: str):
    raise ConfigError(f"config error at {at}: {message}")


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


# Leaf rules of the schema; a value that breaks one "must be <rule>".
NUMBER, POSITIVE, NONNEG = "a number", "> 0", ">= 0"
INT_GE2, INT_GE0, KIND = "an integer >= 2", "an integer >= 0", "'step' or 'sine'"
REQUIRED = object()  # the default of a key that must be given

_MODE = {"freq_hz": (POSITIVE, REQUIRED), "zeta": (NONNEG, REQUIRED), "weight": (NONNEG, 1.0)}
_NOTCH = {key: (POSITIVE, REQUIRED) for key in ("freq_hz", "q_num", "q_den")}
_REFERENCE = {"kind": (KIND, "step"), "amplitude": (NUMBER, 1.0), "freq_hz": (NONNEG, 0.0)}

# The one config schema: section -> (schema, default), and in a schema
# key -> (rule, default). A rule is a leaf rule, a nested schema (an object)
# or [schema] (a list of objects, nonempty when required). An absent key
# takes its default, which passes the rule too; a default of None leaves it
# None. JSON null counts as absent unless the key is REQUIRED.
SCHEMA = {
    "plant": ({
        "gain": (POSITIVE, REQUIRED), "modes": ([_MODE], REQUIRED),
        "amp_corner_hz": (POSITIVE, None), "delay_us": (NONNEG, 0.0),
    }, REQUIRED),
    "nrc": ({
        "gamma": (NUMBER, REQUIRED), "n": (POSITIVE, REQUIRED), "taming_l": (POSITIVE, None),
    }, None),
    "tracker": ({
        "kp": (POSITIVE, None), "omega_b_hz": (POSITIVE, None), "omega_i_hz": (NONNEG, REQUIRED),
        "notches": ([_NOTCH], []), "lowpass_hz": (POSITIVE, None),
    }, None),
    "grid": ({
        "f_min_hz": (POSITIVE, 1.0), "f_max_hz": (POSITIVE, 10000.0),
        "pts_per_decade": (INT_GE2, 400),
    }, {}),
    "sim": ({
        "ts_us": (POSITIVE, REQUIRED), "duration_s": (POSITIVE, REQUIRED),
        "reference": (_REFERENCE, {}), "seed": (INT_GE0, 0), "noise_amplitude": (NONNEG, 0.0),
        "disturbance_amplitude": (NONNEG, 0.0), "disturbance_freq_hz": (NONNEG, 0.0),
    }, None),
    "targets": ({
        "gm_db": (NUMBER, 6.0), "pm_deg": (NUMBER, 60.0), "bound_db": (POSITIVE, 3.0),
    }, {}),
}


def _leaf(rule: str, value, at: str):
    """``value`` checked against a leaf rule; numbers come back as float,
    integers as int (a given int exactly)."""
    if rule == KIND:
        if value not in ("step", "sine"):
            _fail(at, f"must be {rule}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(at, "must be a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        _fail(at, "must be finite")
    if rule in (POSITIVE, INT_GE2) and x <= 0.0:
        _fail(at, "must be > 0")
    if rule in (NONNEG, INT_GE0) and x < 0.0:
        _fail(at, "must be >= 0")
    if rule in (INT_GE2, INT_GE0):
        if not x.is_integer() or rule == INT_GE2 and x < 2.0:
            _fail(at, f"must be {rule}")
        return value if isinstance(value, int) else int(x)
    return x


def _walk(schema: dict, raw, at: str) -> SimpleNamespace:
    """The JSON object ``raw`` checked against ``schema``; every message
    names ``at.key``."""
    if not isinstance(raw, dict):
        _fail(at, "must be an object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        _fail(at or "config", f"unknown key '{unknown[0]}'")
    out = {}
    for key, (rule, default) in schema.items():
        path = f"{at}.{key}" if at else key
        value = raw.get(key)
        if value is None and default is not REQUIRED:
            value = default
        elif key not in raw:
            _fail(path, "required key missing")
        if value is None and default is None:
            out[key] = None
        elif isinstance(rule, dict):
            out[key] = _walk(rule, value, path)
        elif isinstance(rule, list):
            if not isinstance(value, list) or not value and default is REQUIRED:
                _fail(path, "need a nonempty list" if default is REQUIRED else "need a list")
            out[key] = tuple(_walk(rule[0], v, f"{path}[{i}]") for i, v in enumerate(value))
        else:
            out[key] = _leaf(rule, value, path)
    return SimpleNamespace(**out)


def _build(section: str, spec, **fields):
    """``spec(**fields)``; a library invariant it breaks is a config error
    at ``section``."""
    try:
        return spec(**fields)
    except ValueError as exc:
        raise ConfigError(f"config error at {section}: {exc}") from exc


class _Config(SimpleNamespace):
    """A parsed config (see ``parse_config_dict``), with its ``design``.

    The design sits in a slot, outside the namespace's fields, so a config
    compares and prints the same before and after a command has run on it.
    """

    __slots__ = ("_design",)

    @property
    def design(self) -> Design:
        """The config's design, built from its specs the first time a command
        asks for it and then shared by every command run on the config."""
        if not hasattr(self, "_design"):
            tr = self.tracker
            tracker = omega_b = None
            if tr is not None:
                kp = 1.0 if tr.kp is None else tr.kp  # stands in when the design tunes kp
                pi = PiSpec(kp=kp, omega_i_rad_s=TWO_PI * tr.omega_i_hz)
                lowpass = None if tr.lowpass_hz is None else TWO_PI * tr.lowpass_hz
                tracker = TrackerSpec(pi=pi, notches=tr.notches, lowpass_corner_rad_s=lowpass)
                omega_b = None if tr.omega_b_hz is None else TWO_PI * tr.omega_b_hz
            grid = log_grid(self.grid.f_min_hz, self.grid.f_max_hz, self.grid.pts_per_decade)
            self._design = Design(self.plant.to_spec(), self.nrc, grid, tracker, omega_b)
        return self._design


def parse_config_dict(raw: dict) -> _Config:
    """Validate a configuration dictionary against ``SCHEMA``, then the
    checks that span keys. Returns one namespace per section (None for an
    absent optional one); ``plant`` is a ``PlantConfig``, ``nrc`` an
    ``NrcSpec``, the tracker's notches ``NotchSpec``s, and ``sim`` gains
    ``ts_s``.

    The config is read-only: nothing changes it once it is returned. So its
    design, the refined reports included, is evaluated once, on first use,
    and shared by every command run on it (``_Config.design``)."""
    if not isinstance(raw, dict):
        raise ConfigError("config error at top level: expected a JSON object")
    cfg = _Config(**vars(_walk(SCHEMA, raw, "")))
    p = cfg.plant
    modes = tuple(ModeSpec(TWO_PI * m.freq_hz, m.zeta, m.weight) for m in p.modes)
    cfg.plant = PlantConfig(p.gain, modes, p.amp_corner_hz, p.delay_us)
    _build("plant", cfg.plant.to_spec)  # enforce the library invariants at load time

    if cfg.nrc is not None:
        if not 0.0 < cfg.nrc.gamma <= 1.0:
            _fail(
                "nrc.gamma",
                "gamma must lie in (0,1]; the damping loop loses stability for gamma > 1",
            )
        cfg.nrc = _build("nrc", NrcSpec, **vars(cfg.nrc))

    tr = cfg.tracker
    if tr is not None:
        if (tr.kp is None) == (tr.omega_b_hz is None):
            _fail("tracker", "exactly one of kp / omega_b_hz required")
        tr.notches = tuple(
            NotchSpec(TWO_PI * nt.freq_hz, nt.q_num, nt.q_den) for nt in tr.notches
        )
        # kp is not known before tuning; 1 stands in while the notches are checked
        _build("tracker", TrackerSpec, pi=PiSpec(kp=1.0), notches=tr.notches)

    g = cfg.grid
    if g.f_min_hz >= g.f_max_hz:
        _fail("grid", "f_min_hz must be < f_max_hz")
    if math.log10(g.f_max_hz / g.f_min_hz) * g.pts_per_decade + 1.0 > MAX_GRID_POINTS:
        _fail("grid.pts_per_decade", f"must keep the grid to at most {MAX_GRID_POINTS} points")

    sim = cfg.sim
    if sim is not None:
        sim.ts_s = sim.ts_us * 1e-6
        if sim.reference.kind == "sine" and sim.reference.freq_hz <= 0.0:
            _fail("sim.reference.freq_hz", "must be > 0")
        nsamp = round(sim.duration_s / sim.ts_s)
        if nsamp < 1:
            _fail("sim.duration_s", "must last at least one sample of ts_us")
        tail = nsamp - int(nsamp * SINE_SKIP_FRAC)
        if sim.reference.kind == "sine" and tail * sim.ts_s * sim.reference.freq_hz < 1.0:
            _fail("sim.duration_s", "must hold one whole sine cycle after the skipped transient")
        if sim.ts_s >= 1.0 / (2.0 * cfg.grid.f_max_hz):
            _fail("sim.ts_us", "need ts < 1/(2*f_max_hz) of the grid")
    return cfg


def _read_config_json(path):
    """Read a JSON config file without validating it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config error: invalid JSON ({exc})")


def margins_json(outer: MarginsReport, dual: MarginsReport, targets) -> dict:
    """The ``margins.json`` payload of a design with a tracker: outer-loop
    margins with their flags against ``targets``, dual-loop margins with the
    Nyquist verdict."""
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
            "nyquist_net_crossings": dual.nyquist_net_crossings,
            "stable": dual.nyquist_net_crossings == 0,
        },
    }


def _fmt(x, digits=6):
    if x is None:
        return "n/a"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.{digits}g}"


def run_design(cfg: _Config, out_dir: Path, exact_tan60: bool = False) -> dict:
    """The config's ``Design`` read into ``summary.json``, ``margins.json``,
    ``summary.txt`` and ``sensitivities.csv``: damping synthesis, inner-loop
    report, tracker tuning, margins/bandwidth and the objective scorecard."""
    ctx = cfg.design
    peak_reduction_db = ctx.peak_reduction_db
    start_db = float(mag_db(ctx.frf.t_yr[0]))  # every band must hold T_yr at the grid start
    for bound, key in ((1.0, "grid.f_min_hz"), (cfg.targets.bound_db, "targets.bound_db")):
        if abs(start_db) > bound:
            where = f"|T_yr| is {start_db:.3g} dB at {ctx.grid[0] / TWO_PI:g} Hz"
            _fail(key, f"{where}, outside the +/-{bound:g} dB band")
    bw3, bw1, bw_target, inner, outer, dual, w_ct = ctx.reports(
        3.0, 1.0, cfg.targets.bound_db, "inner", "outer", "ld", "ct"
    )
    margins_out = margins_json(outer, dual, cfg.targets)
    objectives = ctx.objectives()

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
            **_margins_dict(inner),
            "nyquist_net_crossings": inner.nyquist_net_crossings,
            "verdict": ctx.inner_verdict(),
            "peak_reduction_db": peak_reduction_db,
        },
        "dual_loop": {  # margins.json's, less the gain margin
            k: v for k, v in margins_out["dual_loop"].items() if k != "gain_margin_db"
        },
        "outer_loop": margins_out["outer_loop"],
        "bandwidth": {
            "wc_1db_hz": _hz(bw1),
            "wc_3db_hz": _hz(bw3),
            "wc_target_hz": _hz(bw_target),
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

    out_dir.mkdir(parents=True, exist_ok=True)
    ctx.write_sensitivities(out_dir / "sensitivities.csv")
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


def run_bode(cfg: _Config, out_dir: Path) -> dict:
    if cfg.nrc is None:
        grid = log_grid(cfg.grid.f_min_hz, cfg.grid.f_max_hz, cfg.grid.pts_per_decade)
        cols = {"plant": freq_response(build_plant(cfg.plant.to_spec()), grid)}
    else:
        ctx = cfg.design
        grid, cols = ctx.grid, {"plant": ctx.frf.g, "nrc": ctx.frf.cd, "inner_loop": ctx.frf.gd}
    bode_to_csv(out_dir / "bode.csv", grid, cols)
    return {"files": ["bode.csv"], "columns": list(cols)}


def run_rootlocus(
    cfg: SimpleNamespace, out_dir: Path, n_min=0.1, n_max=10.0, n_points=500
) -> dict:
    first = cfg.plant.modes[0]
    w, zeta, gamma = first.omega_rad_s, first.zeta, cfg.nrc.gamma
    trace = root_locus_n(w, zeta, gamma, np.geomspace(n_min, n_max, int(n_points)))
    locus_to_csv(trace, out_dir / "rootlocus.csv")
    report = routh_cubic(inner_charpoly(w, zeta, gamma, cfg.nrc.n))
    summary = {
        "bifurcation_n": trace.bifurcation_n,
        "configured_n": cfg.nrc.n,
        "routh_first_column": list(report.first_column),
        "stable": report.stable,
        "marginal": report.marginal,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def run_sens(cfg: _Config, out_dir: Path) -> dict:
    ctx = cfg.design
    ctx.write_sensitivities(out_dir / "sensitivities.csv")
    return {"files": ["sensitivities.csv"], "points": int(ctx.grid.size)}


def run_margins(cfg: _Config, out_dir: Path) -> dict:
    ctx = cfg.design
    if ctx.ct_tf is None:
        (inner,) = ctx.reports("inner")
        out = {"inner_loop": _margins_dict(inner)}
    else:
        out = margins_json(*ctx.reports("outer", "ld"), cfg.targets)
    _write_json(out_dir / "margins.json", out)
    return out


def _crossovers(rep: MarginsReport) -> list:
    return [{"freq_hz": w / TWO_PI, "phase_margin_deg": pm} for w, pm in rep.crossovers]


def _margins_dict(rep: MarginsReport) -> dict:
    return {"gain_margin_db": rep.gain_margin_db, "crossovers": _crossovers(rep)}


def run_simulate(cfg: _Config, out_dir: Path) -> dict:
    """Simulate the sampled dual loop; a loop whose closed-loop spectral
    radius exceeds 1 diverges and is refused before it runs."""
    ts = cfg.sim.ts_s
    if round(cfg.sim.duration_s / ts) > MAX_SIM_SAMPLES:
        _fail("sim.duration_s", f"must last at most {MAX_SIM_SAMPLES} samples of ts_us")
    ctx = cfg.design
    plant_d = discretize(ctx.plant_tf, ts)
    tracker_d = discretize(ctx.ct_tf, ts)
    nrc_d = discretize(ctx.cd_tf, ts)
    rho = spectral_radius(dual_loop_state_space(plant_d, tracker_d, nrc_d))
    if rho > 1.0:
        raise ValueError(
            f"simulation diverged: closed-loop spectral radius {rho:.6g} > 1"
        )
    sim, ref = cfg.sim, cfg.sim.reference
    r = make_reference(ref.kind, ref.amplitude, ts, sim.duration_s, ref.freq_hz)
    n = make_uniform_noise(sim.seed, sim.noise_amplitude, r.size)
    if sim.disturbance_amplitude > 0.0 and sim.disturbance_freq_hz > 0.0:
        d = make_reference(
            "sine", sim.disturbance_amplitude, ts, sim.duration_s, sim.disturbance_freq_hz
        )
    else:
        d = np.zeros(r.size)
    trace = simulate_dual_loop(plant_d, tracker_d, nrc_d, r, d, n)
    if not (np.isfinite(trace.u).all() and np.isfinite(trace.y_meas).all()):
        raise ValueError("simulation diverged: the trace is not finite")
    trace_to_csv(trace, out_dir / "trace.csv")
    e_max, e_rms = tracking_metrics(trace.r, trace.y_meas)
    metrics = {
        "e_max": e_max,
        "e_rms": e_rms,
        "seed": sim.seed,
        "closed_loop_spectral_radius": rho,
    }
    if ref.kind == "sine":
        amp = sinusoid_amplitude(trace.y_meas, ref.freq_hz, ts)
        metrics["steady_state_amplitude"] = amp
        metrics["steady_state_gain"] = amp / ref.amplitude
    _write_json(out_dir / "metrics.json", metrics)
    return metrics


def run_identify(cfg: SimpleNamespace, out_dir: Path) -> dict:
    fs = 1.0 / cfg.sim.ts_s if cfg.sim is not None else 33300.0
    duration = 10.0  # fixed sweep preset: 10 Hz .. 5 kHz over 10 s
    f_hi = min(5000.0, 0.4 * fs)
    fine = round(duration * (fs * IDENTIFY_OVERSAMPLE))
    if fine > MAX_IDENTIFY_SAMPLES:
        _fail("sim.ts_us", f"too fast to identify: the sweep needs > {MAX_IDENTIFY_SAMPLES} samples")
    size = len(range(0, fine, IDENTIFY_OVERSAMPLE))
    seg = min(1 << max(10, int(math.log2(size / 5.0))), size // 2)
    freqs = np.fft.rfftfreq(seg, 1.0 / fs)  # the Welch bins
    band = (freqs > 50.0) & (freqs < f_hi)
    if not band.any():  # also when f_hi <= 10 Hz, the sweep's start
        _fail("sim.ts_us", "too slow to identify: no Welch bin in (50 Hz, 0.4/ts)")
    chunks = open_loop_response(cfg.plant.to_spec(), fs=fs, duration_s=duration, f1=f_hi)
    est = chirp_identify(chunks, fs, seg)
    frf_to_csv(est, out_dir / "frf.csv")
    peak_hz = float(est.freq_hz[band][np.argmax(est.mag_db[band])])
    summary = {
        "files": ["frf.csv"],
        "fs_hz": fs,
        "duration_s": duration,
        "peak_freq_hz": peak_hz,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def _edit(raw: dict, key: str, value) -> dict:
    """A copy of the raw config ``raw`` with the dotted ``key`` set to
    ``value``; an absent or null object on the way is made. The file is
    validated before any edit, so only a ``--param`` key can pass through a
    non-object."""
    raw = json.loads(json.dumps(raw))
    node = raw
    *head, last = key.split(".")
    for k in head:
        if node.get(k) is None:  # null counts as absent
            node[k] = {}
        node = node[k]
        if not isinstance(node, dict):
            _fail("--param", f"{key!r} passes through {k!r}, which is not an object")
    node[last] = value
    return raw


def run_sweep(configs: list, out_dir: Path, param: str, values, exact_tan60=False) -> dict:
    """Re-run the design pipeline over a one-parameter sweep, one config of
    ``configs`` per value. The list is emptied as it runs, so each config,
    and the design it holds, goes when its value is done."""
    rows = []
    for v in values:
        cfg = configs.pop(0)
        sub = out_dir / f"{param.replace('.', '_')}_{v:g}"
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


def _require_sections(cmd: str, cfg: SimpleNamespace) -> SimpleNamespace:
    """``cfg``, checked to hold every section ``cmd`` needs, and for
    ``design`` a damped first mode."""
    for section in COMMANDS.get(cmd, ()):
        if getattr(cfg, section) is None:
            article = "an" if section == "nrc" else "a"
            raise ConfigError(
                f"config error at {section}: {cmd} needs {article} {section} section"
            )
    if cmd == "design" and cfg.plant.modes[0].zeta == 0.0:
        _fail(
            "plant.modes[0].zeta",
            "must be > 0 for design: the peak reduction and O3 are taken at the"
            " first mode, where an undamped G is unbounded",
        )
    return cfg


def run_command(cmd: str, cfg_path, out_dir, **kwargs) -> int:
    """Dispatch a CLI command; returns the process exit status.

    The config, the flags and the sections the command needs are all
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
    """Run ``cmd``. The file is validated first, so its errors name its keys;
    then each flag that sets a config value edits the raw config, and an
    error at a key a flag set names the flag."""
    flags = {}  # dotted config key -> the flag that set it
    try:
        values = _sweep_values(kwargs.get("values")) if cmd == "sweep" else ()
        raw = _read_config_json(cfg_path)
        cfg = _require_sections(cmd, parse_config_dict(raw))
        if kwargs.get("grid_override") is not None:
            flags["grid"] = "--grid-override"
            try:
                fmin, fmax, ppd = kwargs["grid_override"].split(",")
                grid = dict(f_min_hz=float(fmin), f_max_hz=float(fmax), pts_per_decade=int(ppd))
            except ValueError:
                _fail("--grid-override", "expected fmin,fmax,ppd")
            raw = _edit(raw, "grid", grid)
        if cmd == "simulate" and kwargs.get("seed") is not None:
            flags["sim.seed"] = "--seed"
            raw = _edit(raw, "sim.seed", kwargs["seed"])
        if flags:
            cfg = parse_config_dict(raw)
        locus = _locus_flags(kwargs) if cmd == "rootlocus" else ()
        if cmd == "sweep":  # --values sets the --param key, so its errors name the key
            flags[kwargs["param"]] = kwargs["param"]
        configs = [
            _require_sections("design", parse_config_dict(_edit(raw, kwargs["param"], v)))
            for v in values
        ]
        out.mkdir(parents=True, exist_ok=True)
        exact_tan60 = kwargs.get("exact_tan60", False)
        if cmd == "sweep":
            run_sweep(configs, out, kwargs["param"], values, exact_tan60=exact_tan60)
        elif cmd == "bode":
            run_bode(cfg, out)
        elif cmd == "design":
            run_design(cfg, out, exact_tan60=exact_tan60)
        elif cmd == "rootlocus":
            run_rootlocus(cfg, out, *locus)
        elif cmd == "sens":
            run_sens(cfg, out)
        elif cmd == "margins":
            run_margins(cfg, out)
        elif cmd == "simulate":
            run_simulate(cfg, out)
        elif cmd == "identify":
            run_identify(cfg, out)
        else:
            print(f"unknown command '{cmd}'", file=sys.stderr)
            return 2
        return 0
    except ConfigError as exc:
        at, _, rest = str(exc).partition(":")
        at = at.removeprefix("config error at ")
        owners = [key for key in flags if at == key or at.startswith(key + ".")]
        message = f"config error at {flags[max(owners, key=len)]}:{rest}" if owners else str(exc)
        print(message, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _sweep_values(values) -> list:
    """The ``--values`` items as finite floats whose ``%g`` forms, which
    name their output directories, are distinct."""
    if values is None:
        _fail("--values", "sweep needs a comma-separated list of numbers")
    out, seen = [], {}
    for v in values:
        try:
            x = float(v)
        except (TypeError, ValueError):
            raise ConfigError(f"config error at --values: {v!r} is not a number") from None
        if not math.isfinite(x):
            raise ConfigError(f"config error at --values: {v!r} is not finite")
        name = f"{x:g}"
        if name in seen:
            _fail("--values", f"{seen[name]!r} and {v!r} share one output directory")
        seen[name] = v
        out.append(x)
    return out


def _locus_flags(kwargs: dict) -> tuple:
    """The rootlocus ``--n-min``, ``--n-max`` and ``--n-points``, checked
    like config keys."""
    n_min = _leaf(POSITIVE, kwargs.get("n_min", 0.1), "--n-min")
    n_max = _leaf(POSITIVE, kwargs.get("n_max", 10.0), "--n-max")
    if n_max <= n_min:
        _fail("--n-max", "must be > --n-min")
    n_points = _leaf(INT_GE2, kwargs.get("n_points", 500), "--n-points")
    if n_points > MAX_LOCUS_POINTS:
        _fail("--n-points", f"must be <= {MAX_LOCUS_POINTS}")
    return n_min, n_max, n_points


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
    parser.add_argument("--seed", type=int, default=None, help="simulate: set sim.seed")
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
        "--values", default=None, type=lambda text: text.split(","),
        help="sweep: comma-separated numeric values for --param",
    )
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--values" in argv[:-1]:  # argparse takes a list such as -3,6 for an option
        i = argv.index("--values")
        argv[i : i + 2] = ["--values=" + argv[i + 1]]
    args = vars(parser.parse_args(argv))
    return run_command(args.pop("command"), args.pop("config"), args.pop("out"), **args)

if __name__ == "__main__":
    sys.exit(main())
