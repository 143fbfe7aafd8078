import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import nrcdamp
import nrcdamp.cli
import nrcdamp.design
import nrcdamp.tracking
from closed_forms import nrc_gains
from nrcdamp import (
    DiscreteSS,
    bandwidth,
    discretize,
    dual_loop_state_space,
    dual_sensitivities,
    freq_response,
    log_grid,
    make_uniform_noise,
    margins,
    objective_report,
    pm_feasibility,
    spectral_radius,
)
from nrcdamp.cli import (
    COMMANDS,
    MAX_GRID_POINTS,
    MAX_LOCUS_POINTS,
    ConfigError,
    _hz,
    _locus_flags,
    _margins_dict,
    _obj_dict,
    _read_config_json,
    main,
    parse_config_dict,
    run_command,
    run_design,
    run_margins,
    summarize,
)
from nrcdamp.design import Design


def minimal_config():
    return {
        "plant": {
            "gain": 1.0,
            "modes": [{"freq_hz": 100.0, "zeta": 0.01, "weight": 1.0}],
        }
    }


def write(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


NOTCH = {"freq_hz": 1000.0, "q_num": 1.1, "q_den": 1.0}
PPD_RULE = "config error at grid.pts_per_decade: must be an integer >= 2"
GRID_CAP = "config error at grid.pts_per_decade: must keep the grid to at most"

# (command, dotted key of the surrogate config, its bad value, message)
MALFORMED = [
    ("design", "nrc", None, "config error at nrc: design needs an nrc section"),
    ("design", "nrc", [], "config error at nrc: must be an object"),
    ("design", "nrc", 5, "config error at nrc: must be an object"),
    ("design", "tracker", None, "config error at tracker: design needs a tracker section"),
    ("design", "tracker", [], "config error at tracker: must be an object"),
    ("design", "tracker", 5, "config error at tracker: must be an object"),
    ("simulate", "sim", None, "config error at sim: simulate needs a sim section"),
    ("simulate", "sim", [], "config error at sim: must be an object"),
    ("simulate", "sim", 5, "config error at sim: must be an object"),
    ("design", "grid", [], "config error at grid: must be an object"),
    ("design", "grid", 5, "config error at grid: must be an object"),
    ("design", "plant.modes", [5], "config error at plant.modes[0]: must be an object"),
    ("design", "tracker.notches", [5], "config error at tracker.notches[0]: must be an object"),
    ("design", "tracker.notches", 5, "config error at tracker.notches: need a list"),
    ("simulate", "sim.reference", 5, "config error at sim.reference: must be an object"),
    ("design", "grid.pts_per_decade", 1, PPD_RULE),
    ("design", "grid.pts_per_decade", 0.5, PPD_RULE),
    ("design", "grid.pts_per_decade", 400.7, PPD_RULE),
    ("simulate", "sim.seed", 1.5, "config error at sim.seed: must be an integer >= 0"),
    (
        "design",
        "tracker.notches",
        [NOTCH, NOTCH],
        "config error at tracker: notch frequencies must be distinct",
    ),
    (
        "simulate",
        "sim.duration_s",
        1e-5,
        "config error at sim.duration_s: must last at least one sample of ts_us",
    ),
    (  # three samples of the 100 Hz sine; simulate exited 1 and left a trace.csv
        "simulate",
        "sim.duration_s",
        9e-5,
        "config error at sim.duration_s: must hold one whole sine cycle after the skipped "
        "transient",
    ),
    (
        "design",
        "grid",
        {"f_min_hz": 2000.0, "f_max_hz": 1000.0},
        "config error at grid: f_min_hz must be < f_max_hz",
    ),
    (
        "simulate",
        "sim.reference.freq_hz",
        0.0,
        "config error at sim.reference.freq_hz: must be > 0",
    ),
    (
        "simulate",
        "sim.reference.kind",
        "ramp",
        "config error at sim.reference.kind: must be 'step' or 'sine'",
    ),
    ("design", "plant.gain", "x", "config error at plant.gain: must be a number"),
    # oversized arrays are refused before anything is allocated
    ("bode", "grid.pts_per_decade", 10**11, f"{GRID_CAP} 1000000 points"),
    (
        "simulate",
        "sim.duration_s",
        1e12,
        "config error at sim.duration_s: must last at most 5000000 samples of ts_us",
    ),
    (
        "identify",
        "sim.ts_us",
        1e-6,
        "config error at sim.ts_us: too fast to identify: the sweep needs > 16000000 samples",
    ),
]


class TestParseConfig:
    def test_minimal_plant_only(self):
        cfg = parse_config_dict(minimal_config())
        assert cfg.tracker is None and cfg.nrc is None and cfg.sim is None
        assert cfg.plant.gain == 1.0
        assert cfg.grid.pts_per_decade == 400

    def test_gamma_rejection_names_stability(self):
        raw = minimal_config()
        raw["nrc"] = {"gamma": 1.2, "n": 3.0}
        with pytest.raises(ConfigError, match=r"gamma must lie in \(0,1\]"):
            parse_config_dict(raw)

    def test_unknown_key_named(self):
        raw = minimal_config()
        raw["plant"]["delay_ms"] = 1.0
        with pytest.raises(ConfigError, match="delay_ms"):
            parse_config_dict(raw)

    def test_offending_key_in_message(self):
        raw = minimal_config()
        raw["plant"]["modes"][0]["freq_hz"] = -5.0
        with pytest.raises(ConfigError, match=r"plant\.modes\[0\]\.freq_hz"):
            parse_config_dict(raw)

    def test_tracker_kp_xor_bandwidth(self):
        raw = minimal_config()
        raw["tracker"] = {"kp": 1.0, "omega_b_hz": 100.0, "omega_i_hz": 1.0}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_dict(raw)
        raw["tracker"] = {"omega_i_hz": 1.0}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_dict(raw)

    def test_sim_nyquist_guard(self):
        raw = minimal_config()
        raw["grid"] = {"f_min_hz": 1.0, "f_max_hz": 20000.0, "pts_per_decade": 100}
        raw["sim"] = {
            "ts_us": 30.0,
            "duration_s": 0.1,
            "reference": {"kind": "step", "amplitude": 1.0},
        }
        with pytest.raises(ConfigError, match="ts_us"):
            parse_config_dict(raw)

    def test_null_means_absent(self):
        raw = minimal_config()
        raw.update(nrc=None, tracker=None, grid=None, sim=None, targets=None)
        raw["plant"]["amp_corner_hz"] = None
        assert parse_config_dict(raw) == parse_config_dict(minimal_config())

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            _read_config_json(tmp_path / "nope.json")


class TestCommands:
    def test_rootlocus_reference(self, tmp_path):
        raw = minimal_config()
        raw["nrc"] = {"gamma": 1.0, "n": 3.0}
        p = write(tmp_path, raw)
        out = tmp_path / "out"
        assert run_command("rootlocus", p, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bifurcation_n"] == pytest.approx(2.8484, abs=1e-3)
        assert summary["marginal"] is True
        header = (out / "rootlocus.csv").read_text().splitlines()[0]
        assert header == "n,re_p2,im_p2,re_p3,im_p3"

    def test_rootlocus_wide_n_range_ends(self, tmp_path, surrogate_raw):
        # far out in n the pole pair looks real to rounding while the cubic's
        # discriminant says complex; at gamma 0.999 it is complex again from
        # n = 46.2, so no grid point of 0.1 .. 1e60 bifurcates
        out = tmp_path / "out"
        src = str(Path(nrcdamp.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nrcdamp.cli", "rootlocus", str(write(tmp_path, surrogate_raw)),
             "--n-max", "1e60", "--n-points", "5", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "summary.json").read_text())["bifurcation_n"] is None

    def test_rootlocus_far_n_is_quiet(self, tmp_path, surrogate_raw, capsys):
        # the discriminant stays finite up to n = 1e300: no overflow warning
        out = tmp_path / "out"
        argv = ["rootlocus", str(write(tmp_path, surrogate_raw)), "--out", str(out),
                "--n-max", "1e300", "--n-points", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "summary.json").read_text())["bifurcation_n"] is None

    def test_design_pipeline_outputs(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        assert run_command("design", p, out) == 0
        for name in ("summary.json", "summary.txt", "sensitivities.csv", "margins.json"):
            assert (out / name).exists()
        s = json.loads((out / "summary.json").read_text())
        assert s["bandwidth"]["wc_3db_hz"] > 739.0
        assert s["dual_loop"]["stable"] is True
        text = (out / "summary.txt").read_text()
        assert "O1 tracking bandwidth" in text
        assert "+/-1 dB" in text and "+/-3 dB" in text

    @pytest.mark.parametrize("pm_deg, meets", [(59.0, False), (40.0, True)])
    def test_pm_target_flag(self, tmp_path, surrogate_raw, pm_deg, meets):
        # the surrogate's outer loop has 44.81 deg of phase margin
        surrogate_raw["targets"]["pm_deg"] = pm_deg
        out = tmp_path / "out"
        assert run_command("design", write(tmp_path, surrogate_raw), out) == 0
        for name in ("summary.json", "margins.json"):
            outer = json.loads((out / name).read_text())["outer_loop"]
            assert outer["meets_pm_target"] is meets
            assert min(c["phase_margin_deg"] for c in outer["crossovers"]) == pytest.approx(
                44.81, abs=0.01
            )

    def test_exact_tan60_changes_only_pm_feasibility(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        argv = ["design", str(p), "--out"]
        assert main(argv + [str(tmp_path / "default")]) == 0
        assert main(argv + [str(tmp_path / "exact"), "--exact-tan60"]) == 0
        default, exact = (
            json.loads((tmp_path / name / "summary.json").read_text())
            for name in ("default", "exact")
        )
        fz = exact.pop("pm_feasibility")
        assert fz["value"] == pm_feasibility(fz["nu"], surrogate_raw["nrc"]["n"], True)[0]
        assert fz["value"] == pytest.approx(290.190, abs=1e-3)
        assert default.pop("pm_feasibility")["value"] == pytest.approx(294.417, abs=1e-3)
        assert exact == default

    def test_tracker_corner_at_grid_end(self, tmp_path, surrogate_raw):
        # |C_t| of a bare PI with kp 20 stays above the O2 threshold up to
        # the grid end, so O2 reads the grid end
        surrogate_raw["tracker"] = {"kp": 20.0, "omega_i_hz": 28.0}
        out = tmp_path / "out"
        assert run_command("design", write(tmp_path, surrogate_raw), out) == 0
        corner = json.loads((out / "summary.json").read_text())["objectives"]["tracker_corner"]
        assert corner["value"] == pytest.approx(surrogate_raw["grid"]["f_max_hz"], rel=1e-12)

    def test_seed_flag_sets_sim_seed(self, tmp_path, surrogate_raw):
        out = tmp_path / "out"
        argv = ["simulate", str(write(tmp_path, surrogate_raw)), "--seed", "7"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["seed"] == 7

    def test_marginal_verdict_line(self, tmp_path, surrogate_raw):
        raw = surrogate_raw
        raw["plant"] = {
            "gain": 1.0,
            "modes": [{"freq_hz": 739.0, "zeta": 0.01, "weight": 1.0}],
        }
        raw["nrc"] = {"gamma": 1.0, "n": 3.0}
        raw["tracker"] = {"omega_b_hz": 200.0, "omega_i_hz": 20.0, "notches": []}
        del raw["sim"]
        p = write(tmp_path, raw)
        out = tmp_path / "out"
        assert run_command("design", p, out) == 0
        text = (out / "summary.txt").read_text()
        assert "marginally stable (integrator pole at s=0)" in text

    def test_simulate_outputs(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        assert run_command("simulate", p, out) == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "time_s,r,d,n,u,x_true,y_meas,e"
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"e_max", "e_rms"}
        assert metrics["e_rms"] <= metrics["e_max"]

    def test_identify_outputs(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        assert run_command("identify", p, out) == 0
        header = (out / "frf.csv").read_text().splitlines()[0]
        assert header == "freq_hz,mag_db,phase_deg,coherence"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["peak_freq_hz"] == pytest.approx(739.0, rel=0.01)

    @pytest.mark.parametrize("ts_us", [8000.0, 40000.0])
    def test_identify_too_slow_leaves_no_out_dir(self, tmp_path, surrogate_raw, capsys, ts_us):
        # both pass the grid's Nyquist guard at f_max_hz 10; at 8000 us no
        # Welch bin lies in (50 Hz, 0.4/ts), at 40000 us the sweep would end
        # at its 10 Hz start
        surrogate_raw["grid"]["f_max_hz"] = 10.0
        surrogate_raw["sim"]["ts_us"] = ts_us
        out = tmp_path / "out"
        assert run_command("identify", write(tmp_path, surrogate_raw), out) == 2
        assert "config error at sim.ts_us" in capsys.readouterr().err
        assert not out.exists()

    def test_bode_plant_only(self, tmp_path):
        p = write(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert run_command("bode", p, out) == 0
        header = (out / "bode.csv").read_text().splitlines()[0]
        assert header.startswith("freq_hz,plant_mag_db,plant_phase_deg")

    def test_margins_outputs(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        assert run_command("margins", p, out) == 0
        m = json.loads((out / "margins.json").read_text())
        assert "outer_loop" in m and "dual_loop" in m
        assert m["outer_loop"]["gain_margin_db"] > 0

    def test_sweep(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        rc = run_command(
            "sweep", p, out, param="nrc.n", values=[4.0, 8.0], exact_tan60=False
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,wc_3db_hz,peak_reduction_db,gain_margin_db,dual_stable"
        assert len(lines) == 3

    def test_sweep_grid_override(self, tmp_path, surrogate_raw):
        out = tmp_path / "out"
        argv = ["sweep", str(write(tmp_path, surrogate_raw)), "--values", "4"]
        assert main(argv + ["--grid-override", "1,100,50", "--out", str(out)]) == 0
        # a header and 101 points: two decades at 50 per decade
        assert len((out / "nrc_n_4" / "sensitivities.csv").read_text().splitlines()) == 102

    @pytest.mark.parametrize("values", [["--values", "-3,6"], ["--values=-3,6"]])
    def test_sweep_negative_values(self, tmp_path, surrogate_raw, values):
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        argv = ["sweep", str(p), "--out", str(out), "--param", "targets.gm_db"]
        assert main(argv + values) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [-3.0, 6.0]

    def test_design_scalars_independent_of_grid(self, tmp_path, surrogate_raw):
        # every design scalar is refined on exact evaluators, so the JSON
        # artifacts agree across grid densities to 1e-6 relative
        p = write(tmp_path, surrogate_raw)

        def artifacts(ppd):
            out = tmp_path / str(ppd)
            assert run_command("design", p, out, grid_override=f"1,10000,{ppd}") == 0
            names = ("summary.json", "margins.json")
            return [json.loads((out / n).read_text()) for n in names]

        def agree(a, b):
            if isinstance(b, dict):
                return a.keys() == b.keys() and all(agree(a[k], b[k]) for k in b)
            if isinstance(b, list):
                return len(a) == len(b) and all(map(agree, a, b))
            if isinstance(b, float):
                return type(a) is float and math.isclose(a, b, rel_tol=1e-6)
            return type(a) is type(b) and a == b

        fine = artifacts(4000)
        for ppd in (50, 100):
            assert agree(artifacts(ppd), fine), ppd

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_deterministic_outputs(self, tmp_path, surrogate_raw, cmd):
        kwargs = {
            "simulate": {"seed": 7},
            "sweep": {"param": "nrc.n", "values": [4.0, 8.0]},
        }.get(cmd, {})
        p = write(tmp_path, surrogate_raw)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_command(cmd, p, out1, **kwargs) == 0
        assert run_command(cmd, p, out2, **kwargs) == 0
        files = sorted(f.relative_to(out1) for f in out1.rglob("*") if f.is_file())
        assert files
        assert files == sorted(f.relative_to(out2) for f in out2.rglob("*") if f.is_file())
        for f in files:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f

    @pytest.mark.parametrize("cmd", ["design", "margins"])
    def test_one_grid_frf_per_transfer_function(self, tmp_path, surrogate_raw, monkeypatch, cmd):
        # G, C_d and C_t are each evaluated once on the grid, together in one
        # stacked call; the analyses read those arrays and call the
        # evaluators only to refine
        calls = []
        evaluate = nrcdamp.lti.FrfStack.__call__

        def counted(stack, omega):
            calls.append((np.size(omega), stack.tfs))
            return evaluate(stack, omega)

        monkeypatch.setattr(nrcdamp.lti.FrfStack, "__call__", counted)
        monkeypatch.setattr(nrcdamp.cli, "freq_response", None)  # no per-TF path
        cfg = parse_config_dict(surrogate_raw)
        getattr(nrcdamp.cli, f"run_{cmd}")(cfg, tmp_path)
        grid_size = len(log_grid(1.0, 10000.0, 400))
        on_grid = [tfs for size, tfs in calls if size == grid_size]
        assert len(on_grid) == 1
        ctx = cfg.design
        assert list(map(repr, on_grid[0])) == list(map(repr, (ctx.plant_tf, ctx.cd_tf, ctx.ct_tf)))

    @pytest.mark.parametrize("taming_l", [None, 3.0])
    def test_one_plant_build_per_context(self, surrogate_raw, monkeypatch, taming_l):
        # the plant, the damper gains and the damper come from one build
        builds = []
        build = nrcdamp.build_plant

        def counted(spec):
            builds.append(spec)
            return build(spec)

        # nrcdamp.nrc is also a function
        for module in ("nrcdamp.cli", "nrcdamp.design", "nrcdamp.nrc"):
            monkeypatch.setattr(sys.modules[module], "build_plant", counted)
        surrogate_raw["nrc"]["taming_l"] = taming_l
        cfg = parse_config_dict(surrogate_raw)
        ctx = cfg.design
        assert builds == [ctx.plant_spec]
        assert (ctx.k, ctx.omega_a) == nrc_gains(ctx.plant_spec, cfg.nrc)
        assert repr(ctx.cd_tf) == repr(nrcdamp.synthesize_nrc(ctx.plant_spec, cfg.nrc))

    @pytest.mark.parametrize("omega_b_hz, net", [(380.0, 0), (800.0, -1)])
    def test_dual_loop_verdict(self, tmp_path, surrogate_raw, omega_b_hz, net):
        surrogate_raw["tracker"]["omega_b_hz"] = omega_b_hz
        out = tmp_path / "out"
        assert run_command("design", write(tmp_path, surrogate_raw), out) == 0
        summary = json.loads((out / "summary.json").read_text())["dual_loop"]
        dual = json.loads((out / "margins.json").read_text())["dual_loop"]
        for verdict in (summary, dual):
            assert verdict["nyquist_net_crossings"] == net
            assert verdict["stable"] is (net == 0)
        assert summary["crossovers"] == dual["crossovers"]
        text = (out / "summary.txt").read_text()
        assert ("dual loop: UNSTABLE" in text) is (net != 0)

    @pytest.mark.parametrize("n", [4.0, 8.0])
    @pytest.mark.parametrize("zeta", [0.0, 1e-9, 1e-6, 1e-4])
    def test_undamped_second_mode_verdict(self, tmp_path, surrogate_raw, zeta, n):
        # across the (nearly) undamped 983 Hz mode the phase of L_D turns by
        # about 180 degrees between two grid points, either way as the grid
        # sees it; the mode's own turn is -180, and the sampled dual loop is
        # stable (spectral radius 0.9943 at every zeta and n here)
        surrogate_raw["plant"]["modes"][1]["zeta"] = zeta
        surrogate_raw["nrc"]["n"] = n
        cfg = parse_config_dict(surrogate_raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = nrcdamp.cli.run_design(cfg, tmp_path)
            margins = nrcdamp.cli.run_margins(cfg, tmp_path)
        for dual in (summary["dual_loop"], margins["dual_loop"]):
            assert dual["nyquist_net_crossings"] == 0
            assert dual["stable"] is True

    @pytest.mark.parametrize("cmd", ["design", "sweep"])
    def test_undamped_first_mode_refused(self, tmp_path, surrogate_raw, capsys, cmd):
        # design reads the peak reduction and O3 at the first mode, on the
        # pole of an undamped G; it wrote NaN and Infinity there and exited 0
        surrogate_raw["plant"]["modes"][0]["zeta"] = 0.0
        out = tmp_path / "out"
        kwargs = {"param": "nrc.n", "values": [4.0, 8.0]} if cmd == "sweep" else {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(cmd, write(tmp_path, surrogate_raw), out, **kwargs) == 2
        err = capsys.readouterr().err
        assert "config error at plant.modes[0].zeta: must be > 0 for design" in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["margins", "sens", "bode", "rootlocus", "simulate", "identify"])
    def test_undamped_first_mode_accepted(self, tmp_path, surrogate_raw, cmd):
        # the other commands never evaluate G on its poles
        surrogate_raw["plant"]["modes"][0]["zeta"] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(cmd, write(tmp_path, surrogate_raw), tmp_path / "out") == 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 10: an undamped higher mode on a grid point makes _bisect"
        " meet inf/inf in G_d and T_yr; design and margins exit 1 with"
        " 'cannot convert float NaN to integer'",
    )
    @pytest.mark.parametrize("cmd", ["design", "margins"])
    def test_undamped_second_mode_on_grid_point(self, tmp_path, surrogate_raw, cmd):
        # 1000 Hz is a point of the 400-per-decade grid from 1 Hz; a valid
        # config exits 0, or 2 if refused, and never reports a NaN
        surrogate_raw["plant"]["modes"][1].update(freq_hz=1000.0, zeta=0.0)
        src = str(Path(nrcdamp.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nrcdamp.cli", cmd, str(write(tmp_path, surrogate_raw)),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode in (0, 2), proc.stderr
        assert "NaN" not in proc.stderr

    def test_short_sine_boundary(self, tmp_path, surrogate_raw):
        # at ts = 30 us a 100 Hz cycle is 333.3 samples; 833 samples leave
        # 334 after the skipped 60 %, 832 leave 333
        sim = surrogate_raw["sim"]
        sim["duration_s"] = 833 * 30e-6
        out = tmp_path / "out"
        assert run_command("simulate", write(tmp_path, surrogate_raw), out) == 0
        assert "steady_state_gain" in json.loads((out / "metrics.json").read_text())
        sim["duration_s"] = 832 * 30e-6
        assert run_command("simulate", write(tmp_path, surrogate_raw), tmp_path / "b") == 2

    def test_diverging_simulation_exit_code(self, tmp_path, surrogate_raw, capsys):
        surrogate_raw["tracker"]["omega_b_hz"] = 20000.0
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        assert run_command("simulate", p, out) == 1
        assert "simulation diverged" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("kp, rho", [(2.6, "1.00617"), (3.0, "1.00937")])
    def test_unstable_loop_refused(self, tmp_path, surrogate_raw, capsys, kp, rho):
        # such loops ran to exit 0 with e_max = 2.7e43 and 2.2e66
        del surrogate_raw["tracker"]["omega_b_hz"]
        surrogate_raw["tracker"]["kp"] = kp
        out = tmp_path / "out"
        assert run_command("simulate", write(tmp_path, surrogate_raw), out) == 1
        err = capsys.readouterr().err
        assert f"simulation diverged: closed-loop spectral radius {rho} > 1" in err
        assert not out.exists()  # refused after the out directory was made

    def test_failed_command_keeps_out_dir_it_did_not_make(self, tmp_path, surrogate_raw):
        del surrogate_raw["tracker"]["omega_b_hz"]
        surrogate_raw["tracker"]["kp"] = 2.6
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["simulate", str(p), "--out", str(out)]) == 1
        assert out.is_dir()

    def test_simulate_reports_spectral_radius(self, tmp_path, surrogate_raw):
        out = tmp_path / "out"
        assert run_command("simulate", write(tmp_path, surrogate_raw), out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["closed_loop_spectral_radius"] == pytest.approx(0.99432, abs=1e-4)

    def test_margins_json_one_schema(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        assert run_command("design", p, tmp_path / "design") == 0
        assert run_command("margins", p, tmp_path / "margins") == 0
        design = (tmp_path / "design" / "margins.json").read_bytes()
        assert design == (tmp_path / "margins" / "margins.json").read_bytes()
        m = json.loads(design)
        assert set(m["outer_loop"]) == {
            "gain_margin_db", "crossovers", "meets_gm_target", "meets_pm_target"
        }
        assert set(m["dual_loop"]) == {
            "gain_margin_db", "crossovers", "nyquist_net_crossings", "stable"
        }

    @pytest.mark.parametrize(
        "cmd, drop, message",
        [
            ("design", "tracker", "config error at tracker: design needs a tracker section"),
            ("design", "nrc", "config error at nrc: design needs an nrc section"),
            ("sens", "nrc", "config error at nrc: sens needs an nrc section"),
            ("margins", "nrc", "config error at nrc: margins needs an nrc section"),
            ("rootlocus", "nrc", "config error at nrc: rootlocus needs an nrc section"),
            ("simulate", "sim", "config error at sim: simulate needs a sim section"),
            ("simulate", "nrc", "config error at nrc: simulate needs an nrc section"),
            ("simulate", "tracker", "config error at tracker: simulate needs a tracker section"),
            ("sweep", "tracker", "config error at tracker: design needs a tracker section"),
        ],
    )
    def test_missing_section_leaves_no_out_dir(
        self, tmp_path, surrogate_raw, capsys, cmd, drop, message
    ):
        del surrogate_raw[drop]
        kwargs = {"param": "nrc.n", "values": ["4"]} if cmd == "sweep" else {}
        out = tmp_path / "out"
        assert run_command(cmd, write(tmp_path, surrogate_raw), out, **kwargs) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_bad_value_leaves_no_out_dir(self, tmp_path, surrogate_raw, capsys):
        # every value's config is validated before the first design runs
        out = tmp_path / "out"
        argv = ["sweep", str(write(tmp_path, surrogate_raw)), "--values=4,-1"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "config error at nrc.n: must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        raw = minimal_config()
        raw["nrc"] = {"gamma": 2.0, "n": 1.0}
        p = write(tmp_path, raw)
        assert run_command("design", p, tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("plant", "gain", "nan"), ("nrc", "n", "inf"), ("tracker", "omega_i_hz", "-inf")],
    )
    def test_non_finite_number_exit_code(
        self, tmp_path, surrogate_raw, capsys, section, key, value
    ):
        # Python's json reads and writes NaN and +-Infinity
        surrogate_raw[section][key] = float(value)
        p = write(tmp_path, surrogate_raw)
        assert run_command("design", p, tmp_path / "out") == 2
        assert f"{section}.{key}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_section_exit_code(self, tmp_path):
        p = write(tmp_path, minimal_config())
        assert run_command("design", p, tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "config, values, message",
        [
            ("nope.json", "1,2", "config file not found"),
            ("bad.json", "1,2", "invalid JSON"),
            ("config.json", "1,x", "config error at --values: 'x' is not a number"),
            ("config.json", "4,inf", "config error at --values: 'inf' is not finite"),
        ],
    )
    def test_sweep_bad_input_exit_code(
        self, tmp_path, surrogate_raw, capsys, config, values, message
    ):
        write(tmp_path, surrogate_raw)
        (tmp_path / "bad.json").write_text("{")
        argv = ["sweep", str(tmp_path / config), "--values", values]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_override(self, tmp_path):
        p = write(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert run_command("bode", p, out, grid_override="10,100,50") == 0
        rows = (out / "bode.csv").read_text().splitlines()
        first = float(rows[1].split(",")[0])
        last = float(rows[-1].split(",")[0])
        assert first == pytest.approx(10.0)
        assert last == pytest.approx(100.0)

    @pytest.mark.parametrize("override", ["0,100,50", "nan,100,50", "1,inf,50"])
    def test_grid_override_rejects_bad_bounds(self, tmp_path, capsys, override):
        p = write(tmp_path, minimal_config())
        assert run_command("bode", p, tmp_path / "out", grid_override=override) == 2
        assert "config error at --grid-override" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd, key, value, message", MALFORMED)
    def test_malformed_config_leaves_no_out_dir(
        self, tmp_path, surrogate_raw, capsys, cmd, key, value, message
    ):
        *head, last = key.split(".")
        node = surrogate_raw
        for k in head:
            node = node[k]
        node[last] = value
        out = tmp_path / "out"
        assert run_command(cmd, write(tmp_path, surrogate_raw), out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["simulate", "--grid-override", "1,20000,50"],
                "config error at sim.ts_us: need ts < 1/(2*f_max_hz) of the grid",
            ),
            (["rootlocus", "--n-points", "1"], "at --n-points: must be an integer >= 2"),
            (["rootlocus", "--n-min", "5", "--n-max", "1"], "at --n-max: must be > --n-min"),
            (["rootlocus", "--n-min", "-1"], "config error at --n-min: must be > 0"),
            (
                ["sweep", "--param", "plant.modes.0", "--values", "1,2"],
                "config error at --param: 'plant.modes.0' passes through 'modes'",
            ),
            (
                ["sweep", "--values", "4,4.0000001"],
                "config error at --values: '4' and '4.0000001' share one output directory",
            ),
            (
                ["sweep", "--values", "4", "--grid-override", "0,100,50"],
                "config error at --grid-override: must be > 0",
            ),
            (["simulate", "--seed", "-1"], "config error at --seed: must be >= 0"),
            (  # refused before the locus array is allocated
                ["rootlocus", "--n-points", "10000000000000"],
                "config error at --n-points: must be <= 1000000",
            ),
            (["sweep"], "config error at --values: sweep needs a comma-separated list"),
            (  # --values, not --grid-override, set the key that breaks its rule
                ["sweep", "--param", "grid.pts_per_decade", "--values", "1"]
                + ["--grid-override", "1,100,50"],
                PPD_RULE,
            ),
            (
                ["bode", "--grid-override", "1,2"],
                "config error at --grid-override: expected fmin,fmax,ppd",
            ),
            (
                ["bode", "--grid-override", "1,10000,100000000000"],
                "config error at --grid-override: must keep the grid to at most 1000000 points",
            ),
        ],
    )
    def test_malformed_flag_leaves_no_out_dir(
        self, tmp_path, surrogate_raw, capsys, args, message
    ):
        out = tmp_path / "out"
        argv = [args[0], str(write(tmp_path, surrogate_raw)), "--out", str(out)] + args[1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err
        assert not out.exists()

    def test_grid_point_limit(self):
        raw = minimal_config()
        raw["grid"] = {"f_min_hz": 1.0, "f_max_hz": 10.0, "pts_per_decade": MAX_GRID_POINTS - 1}
        assert parse_config_dict(raw).grid.pts_per_decade == MAX_GRID_POINTS - 1
        raw["grid"]["pts_per_decade"] = MAX_GRID_POINTS
        with pytest.raises(ConfigError, match=f"{GRID_CAP} {MAX_GRID_POINTS} points"):
            parse_config_dict(raw)

    def test_sample_limits_name_their_keys(self, tmp_path, surrogate_raw, capsys, monkeypatch):
        # the surrogate's 0.5 s simulate (16,667 samples) and its identify
        # sweep (2,666,667 samples at 8x) each one sample over a lowered bound
        p = write(tmp_path, surrogate_raw)
        monkeypatch.setattr(nrcdamp.cli, "MAX_SIM_SAMPLES", 16_666)
        monkeypatch.setattr(nrcdamp.cli, "MAX_IDENTIFY_SAMPLES", 2_666_666)
        for cmd, key in (("simulate", "sim.duration_s"), ("identify", "sim.ts_us")):
            assert run_command(cmd, p, tmp_path / cmd) == 2
            assert capsys.readouterr().err.startswith(f"config error at {key}: ")
            assert not (tmp_path / cmd).exists()

    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_seed_above_2_53_kept_exact(self, tmp_path, surrogate_raw, via):
        seed = 2**53 + 1  # float(seed) is 2**53
        sim = surrogate_raw["sim"]
        sim.update(duration_s=0.05, noise_amplitude=1e-3)
        if via == "file":
            sim["seed"] = seed
        out = tmp_path / "out"
        argv = ["simulate", str(write(tmp_path, surrogate_raw)), "--out", str(out)]
        assert main(argv + (["--seed", str(seed)] if via == "flag" else [])) == 0
        assert json.loads((out / "metrics.json").read_text())["seed"] == seed
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        noise = make_uniform_noise(seed, 1e-3, len(rows))
        assert [row.split(",")[3] for row in rows] == ["%.12g" % v for v in noise]

    def test_sweep_makes_an_absent_section(self, tmp_path, surrogate_raw):
        del surrogate_raw["targets"]
        out = tmp_path / "out"
        status = run_command(
            "sweep", write(tmp_path, surrogate_raw), out, param="targets.gm_db", values=["3", "9"]
        )
        assert status == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_rootlocus_pair_real_from_the_start(self, tmp_path, surrogate_raw):
        out = tmp_path / "out"
        argv = ["rootlocus", str(write(tmp_path, surrogate_raw)), "--out", str(out)]
        assert main(argv + ["--n-min", "5", "--n-max", "10"]) == 0
        assert json.loads((out / "summary.json").read_text())["bifurcation_n"] == 5.0

    def test_rootlocus_point_limit(self):
        assert _locus_flags({"n_points": MAX_LOCUS_POINTS})[2] == MAX_LOCUS_POINTS
        with pytest.raises(ConfigError, match="at --n-points: must be <= 1000000"):
            _locus_flags({"n_points": MAX_LOCUS_POINTS + 1})

    @pytest.mark.parametrize("cmd", ["design", "identify"])
    def test_missing_config_file_leaves_no_out_dir(self, tmp_path, capsys, cmd):
        out = tmp_path / "out"
        assert main([cmd, str(tmp_path / "nope.json"), "--out", str(out)]) == 2
        assert "config file not found" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_command_loads_no_scipy(self, tmp_path, surrogate_raw, cmd):
        # scipy is a test dependency only: with its import blocked, every
        # command still runs
        p = write(tmp_path, surrogate_raw)
        extra = ["--values", "4,8"] if cmd == "sweep" else []
        argv = [cmd, str(p), "--out", str(tmp_path / "out")] + extra
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import nrcdamp.cli\n"
            f"assert nrcdamp.cli.main({argv!r}) == 0\n"
        )
        src = str(Path(nrcdamp.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


def perturbed(raw, variant):
    """The surrogate with a perturbed design: a loaded, retuned one, one
    whose dual loop is unstable, or one with a single design feature
    changed."""
    if variant == "loaded":
        raw["nrc"].update(gamma=0.97, n=5.0)
        raw["tracker"]["omega_b_hz"] = 300.0
        raw["targets"]["bound_db"] = 2.0
        for mode in raw["plant"]["modes"]:
            mode["freq_hz"] *= 0.9
    elif variant == "unstable":
        raw["nrc"]["n"] = 4.5
        raw["tracker"]["omega_b_hz"] = 800.0
        raw["targets"]["bound_db"] = 1.0
    elif variant == "no_tracker":
        del raw["tracker"]
    elif variant == "kp":
        raw["tracker"]["kp"] = 0.9
        del raw["tracker"]["omega_b_hz"]
    elif variant == "gamma_1":
        raw["nrc"]["gamma"] = 1.0
    elif variant == "no_delay":
        raw["plant"]["delay_us"] = 0.0
    elif variant == "taming":
        raw["nrc"]["taming_l"] = 3.0
        raw["plant"]["amp_corner_hz"] = 20000.0
    return raw


def json_bytes(payload) -> bytes:
    """``payload`` as the commands write their JSON artifacts."""
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n").encode()


def public_margins(cfg):
    """The outer and dual loop margins of ``cfg``'s design, each bisected
    alone through ``margins``."""
    ctx = cfg.design
    outer = margins(ctx.grid, ctx.frf.outer, lambda w: ctx.at(w).outer)
    dual = margins(ctx.grid, ctx.frf.ld, lambda w: ctx.at(w).ld)
    return nrcdamp.cli.margins_json(outer, dual, cfg.targets)


class TestMergedRefinement:
    """``design`` and ``margins`` refine every bracket in one bisection pass;
    each refined value keeps the bits that the public analyses give when
    each bisects alone."""

    @pytest.mark.parametrize("ppd", [50, 400, 2000])
    @pytest.mark.parametrize("variant", ["surrogate", "loaded", "unstable"])
    def test_design_matches_public_path(self, tmp_path, surrogate_raw, variant, ppd):
        raw = perturbed(surrogate_raw, variant)
        raw["grid"]["pts_per_decade"] = ppd
        cfg = parse_config_dict(raw)
        run_design(cfg, tmp_path)

        ctx = cfg.design
        grid, frf = ctx.grid, ctx.frf
        bw = {
            b: bandwidth(grid, frf.t_yr, lambda w: ctx.at(w).t_yr, b)
            for b in (3.0, 1.0, cfg.targets.bound_db)
        }
        margins_json = public_margins(cfg)
        objectives = objective_report(
            dual_sensitivities(frf.g, frf.ct, frf.cd, grid), bw[3.0],
            lambda w: freq_response(ctx.ct_tf, w),
            lambda w: ctx.at(w).ld, ctx.omega_n,
        )
        assert (tmp_path / "margins.json").read_bytes() == json_bytes(margins_json)

        summary = json.loads((tmp_path / "summary.json").read_text())
        summary["bandwidth"].update(
            wc_1db_hz=_hz(bw[1.0]), wc_3db_hz=_hz(bw[3.0]),
            wc_target_hz=_hz(bw[cfg.targets.bound_db]),
        )
        inner = margins(grid, frf.inner, lambda w: ctx.at(w).inner)
        summary["inner_loop"].update(
            _margins_dict(inner), nyquist_net_crossings=inner.nyquist_net_crossings
        )
        summary["outer_loop"] = margins_json["outer_loop"]
        summary["dual_loop"] = {
            k: v for k, v in margins_json["dual_loop"].items() if k != "gain_margin_db"
        }
        hz = {"scale": 1.0 / (2.0 * math.pi), "unit": "hz"}
        summary["objectives"] = {
            "bandwidth": _obj_dict(objectives.bandwidth, **hz),
            "tracker_corner": _obj_dict(objectives.tracker_corner, **hz),
            "resonance_loop_gain": _obj_dict(objectives.resonance_loop_gain),
            "highband_loop_gain": _obj_dict(objectives.highband_loop_gain),
        }
        assert (tmp_path / "summary.json").read_bytes() == json_bytes(summary)

    @pytest.mark.parametrize("ppd", [50, 400, 2000])
    @pytest.mark.parametrize("variant", ["surrogate", "loaded", "unstable"])
    def test_margins_matches_public_path(self, tmp_path, surrogate_raw, variant, ppd):
        raw = perturbed(surrogate_raw, variant)
        raw["grid"]["pts_per_decade"] = ppd
        cfg = parse_config_dict(raw)
        run_margins(cfg, tmp_path)
        expected = json_bytes(public_margins(cfg))
        assert (tmp_path / "margins.json").read_bytes() == expected

    def test_inner_margins_match_public_path(self, tmp_path, surrogate_raw):
        del surrogate_raw["tracker"]
        cfg = parse_config_dict(surrogate_raw)
        run_margins(cfg, tmp_path)
        ctx = cfg.design
        inner = margins(ctx.grid, ctx.frf.inner, lambda w: ctx.at(w).inner)
        expected = {"inner_loop": _margins_dict(inner)}
        assert (tmp_path / "margins.json").read_bytes() == json_bytes(expected)

    @pytest.mark.parametrize("ppd", [50, 400, 2000])
    @pytest.mark.parametrize("run", [run_design, run_margins])
    def test_one_bisection_pass(self, tmp_path, surrogate_raw, monkeypatch, run, ppd):
        # 31 to 36 halvings, four to an evaluator call, and one call at the
        # crossings, besides the grid, w_b and w_n calls (the separate passes
        # made 130 to 226 calls, one halving a call made 34 to 40)
        at_calls, passes = [], []
        at, bisect = Design.at, nrcdamp.tracking._bisect

        def counted_at(ctx, omega):
            at_calls.append(np.size(omega))
            return at(ctx, omega)

        def counted_bisect(brackets, evaluator):
            passes.append(len(brackets))
            return bisect(brackets, evaluator)

        monkeypatch.setattr(Design, "at", counted_at)
        monkeypatch.setattr(nrcdamp.tracking, "_bisect", counted_bisect)
        surrogate_raw["grid"]["pts_per_decade"] = ppd
        run(parse_config_dict(surrogate_raw), tmp_path)
        assert len(passes) == 1
        assert len(at_calls) <= 13

    @pytest.mark.parametrize(
        "key, value", [(("targets", "bound_db"), 1e-9), (("grid", "f_min_hz"), 2000.0)]
    )
    def test_margins_requests_no_bandwidth(self, tmp_path, surrogate_raw, capsys, key, value):
        # |T_yr| leaves so narrow a band, or the grid starts so high, that a
        # bandwidth cannot be bracketed: design rejects the key that sets
        # the band or the grid start, margins does not ask
        surrogate_raw[key[0]][key[1]] = value
        p = write(tmp_path, surrogate_raw)
        assert run_command("margins", p, tmp_path / "margins") == 0
        expected = json_bytes(public_margins(parse_config_dict(surrogate_raw)))
        assert (tmp_path / "margins" / "margins.json").read_bytes() == expected
        capsys.readouterr()
        assert run_command("design", p, tmp_path / "design") == 2
        assert capsys.readouterr().err == {
            "bound_db": "config error at targets.bound_db: "
            "|T_yr| is 0.000799 dB at 1 Hz, outside the +/-1e-09 dB band\n",
            "f_min_hz": "config error at grid.f_min_hz: "
            "|T_yr| is -20.3 dB at 2000 Hz, outside the +/-1 dB band\n",
        }[key[1]]
        assert not (tmp_path / "design").exists()

    def test_band_start_names_grid_override(self, tmp_path, surrogate_raw, capsys):
        # the same grid start from the flag names the flag, in design and sweep
        p = write(tmp_path, surrogate_raw)
        want = (
            "config error at --grid-override: "
            "|T_yr| is -20.3 dB at 2000 Hz, outside the +/-1 dB band\n"
        )
        assert run_command("design", p, tmp_path / "d", grid_override="2000,10000,50") == 2
        assert capsys.readouterr().err == want
        status = run_command(
            "sweep", p, tmp_path / "s", grid_override="2000,10000,50",
            param="nrc.n", values=["8"],
        )
        assert status == 2 and capsys.readouterr().err == want
        assert not (tmp_path / "d").exists() and not (tmp_path / "s").exists()


def sampled_inner_radius(ctx, ts) -> float:
    """Spectral radius of the inner loop as sampled: the dual loop's state
    space with an order-0 tracker block."""
    empty = (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((1, 1)))
    no_tracker = DiscreteSS(*empty, ts)
    plant_d, nrc_d = discretize(ctx.plant_tf, ts), discretize(ctx.cd_tf, ts)
    return spectral_radius(dual_loop_state_space(plant_d, no_tracker, nrc_d))


class TestInnerVerdict:
    """``design`` judges the inner loop by the Nyquist count of the delayed
    G C_d, refined in the same pass as the dual loop's; gamma = 1 reads
    marginal only while the count is zero."""

    @pytest.mark.parametrize(
        "n, delay_us, verdict, net, gm_db",
        [
            (0.5, 150.0, "UNSTABLE", -1, -12.64),
            (0.8, 150.0, "UNSTABLE", -1, -3.46),
            (1.0, 150.0, "stable", 0, 0.69),
            (2.0, 400.0, "UNSTABLE", -1, -17.40),
            (8.0, 150.0, "stable", 0, 18.68),
        ],
    )
    def test_verdict_matches_sampled_loop(
        self, tmp_path, surrogate_raw, n, delay_us, verdict, net, gm_db
    ):
        surrogate_raw["nrc"]["n"] = n
        surrogate_raw["plant"]["delay_us"] = delay_us
        cfg = parse_config_dict(surrogate_raw)
        inner = run_design(cfg, tmp_path)["inner_loop"]
        rho = sampled_inner_radius(cfg.design, cfg.sim.ts_s)
        assert (rho > 1.0) is (verdict == "UNSTABLE")
        assert inner["verdict"] == verdict
        assert inner["nyquist_net_crossings"] == net
        assert inner["gain_margin_db"] == pytest.approx(gm_db, abs=0.01)

    @pytest.mark.parametrize(
        "n, verdict, net, gm_db",
        [
            (0.5, "UNSTABLE", -1, -12.65),
            (8.0, "marginally stable (integrator pole at s=0)", 0, 18.68),
        ],
    )
    def test_count_wins_over_gamma_one(self, tmp_path, surrogate_raw, n, verdict, net, gm_db):
        # gamma = 1 puts 1 + G C_d through zero at s = 0; the marginal test
        # reads gamma and evaluates nothing there, so no warning is raised
        surrogate_raw["nrc"].update(gamma=1.0, n=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command("design", write(tmp_path, surrogate_raw), tmp_path / "out") == 0
        inner = json.loads((tmp_path / "out" / "summary.json").read_text())["inner_loop"]
        assert inner["verdict"] == verdict
        assert inner["nyquist_net_crossings"] == net
        assert inner["gain_margin_db"] == pytest.approx(gm_db, abs=0.01)
        assert f"inner loop: {verdict};" in (tmp_path / "out" / "summary.txt").read_text()

    def test_six_mode_plant(self, tmp_path, surrogate_raw):
        # the surrogate plus four modes: the delay-free rational closure
        # refused this plant (characteristic polynomial of degree 13)
        surrogate_raw["plant"]["modes"] += [
            {"freq_hz": f, "weight": w, "zeta": 0.01}
            for f, w in ((1376.0, 0.15), (1780.0, 0.12), (2100.0, 0.09), (2556.0, 0.06))
        ]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command("design", write(tmp_path, surrogate_raw), out) == 0
        inner = json.loads((out / "summary.json").read_text())["inner_loop"]
        assert inner["verdict"] == "stable"
        assert inner["nyquist_net_crossings"] == 0
        cfg = parse_config_dict(surrogate_raw)
        assert sampled_inner_radius(cfg.design, cfg.sim.ts_s) < 1.0

    def test_one_plant_build_per_design(self, tmp_path, surrogate_raw, monkeypatch):
        # the verdict reads the context's delayed loop; nothing builds a
        # second, delay-free plant
        builds = []
        build = nrcdamp.build_plant

        def counted(spec):
            builds.append(spec)
            return build(spec)

        for module in ("nrcdamp.cli", "nrcdamp.design", "nrcdamp.nrc", "nrcdamp.loops"):
            monkeypatch.setattr(sys.modules[module], "build_plant", counted)
        run_design(parse_config_dict(surrogate_raw), tmp_path)
        assert len(builds) == 1


def run_each(cfg_of, cmds, root) -> dict:
    """Each command run on ``cfg_of()`` into ``root/<cmd>``; the bytes of
    every file written, and of the message of a command that fails."""
    for cmd in cmds:
        out = root / cmd
        out.mkdir(parents=True)
        try:
            getattr(nrcdamp.cli, f"run_{cmd}")(cfg_of(), out)
        except ValueError as exc:
            (out / "error.txt").write_text(f"{type(exc).__name__}: {exc}")
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSharedDesign:
    """Every command run on one parsed config shares its one design: the
    plant, the tuning, the grid evaluation, the sensitivities and each
    refined report are made once, with the bytes each command writes alone."""

    @pytest.mark.parametrize("ppd", [50, 400, 2000])
    @pytest.mark.parametrize(
        "variant", ["surrogate", "no_tracker", "kp", "gamma_1", "no_delay", "taming"]
    )
    @pytest.mark.parametrize(
        "cmds",
        [
            ("design", "sens", "margins", "bode", "simulate"),
            ("margins", "sens", "design", "bode", "simulate"),  # design fills no cache first
        ],
        ids=["design_first", "margins_first"],
    )
    def test_sharing_changes_no_bytes(self, tmp_path, surrogate_raw, variant, ppd, cmds):
        raw = perturbed(surrogate_raw, variant)
        raw["grid"]["pts_per_decade"] = ppd
        raw["sim"]["duration_s"] = 0.05
        if variant == "no_tracker":
            cmds = tuple(c for c in cmds if c in ("sens", "margins", "bode"))
        shared = parse_config_dict(raw)
        together = run_each(lambda: shared, cmds, tmp_path / "shared")
        alone = run_each(lambda: parse_config_dict(raw), cmds, tmp_path / "alone")
        assert len(together) >= len(cmds)
        assert together == alone

    def test_one_pass_does_each_step_once(self, tmp_path, surrogate_raw, monkeypatch):
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (nrcdamp.cli, nrcdamp.design, sys.modules["nrcdamp.nrc"]):
            counted(module, "build_plant")
        for name in ("_tune", "tune_kp", "dual_sensitivities"):
            counted(nrcdamp.design, name)
        cfg = parse_config_dict(surrogate_raw)
        for cmd in ("design", "sens", "margins", "bode", "rootlocus"):
            (tmp_path / cmd).mkdir()
            getattr(nrcdamp.cli, f"run_{cmd}")(cfg, tmp_path / cmd)
        assert calls == {"build_plant": 1, "_tune": 1, "tune_kp": 1, "dual_sensitivities": 1}

    def test_margins_after_design_evaluates_nothing(self, tmp_path, surrogate_raw, monkeypatch):
        at_calls = []
        at = Design.at

        def counted_at(ctx, omega):
            at_calls.append(np.size(omega))
            return at(ctx, omega)

        monkeypatch.setattr(Design, "at", counted_at)
        cfg = parse_config_dict(surrogate_raw)
        run_design(cfg, tmp_path / "design")
        assert at_calls
        at_calls.clear()
        (tmp_path / "margins").mkdir()
        run_margins(cfg, tmp_path / "margins")
        assert at_calls == []

    def test_design_goes_with_its_config(self, tmp_path, surrogate_raw):
        # the design holds no reference back to its config, so reference
        # counting alone frees both
        cfg = parse_config_dict(surrogate_raw)
        run_design(cfg, tmp_path)
        design = weakref.ref(cfg.design)
        gc.disable()
        try:
            del cfg
            assert design() is None
        finally:
            gc.enable()

    def test_config_unchanged_by_a_command(self, tmp_path, surrogate_raw):
        cfg = parse_config_dict(surrogate_raw)
        before = repr(cfg)
        run_design(cfg, tmp_path)
        assert cfg == parse_config_dict(surrogate_raw)
        assert repr(cfg) == before
        assert "_design" not in vars(cfg)

    def test_sweep_keeps_one_design(self, tmp_path, surrogate_raw, monkeypatch):
        alive, most = weakref.WeakSet(), []
        init = Design.__init__

        def tracked(ctx, *args):
            init(ctx, *args)
            alive.add(ctx)
            most.append(len(alive))

        monkeypatch.setattr(Design, "__init__", tracked)
        surrogate_raw["grid"]["pts_per_decade"] = 2000
        p = write(tmp_path, surrogate_raw)
        gc.disable()
        try:
            status = run_command(
                "sweep", p, tmp_path / "out", param="nrc.n", values=["5", "6", "7", "8"]
            )
        finally:
            gc.enable()
        assert status == 0
        assert most == [1, 1, 1, 1]


# the variants of the sensitivities tests, and the commands whose order
# they run in (design needs a tracker)
SENS_ORDERS = {
    "surrogate": [("design", "sens"), ("sens", "design")],
    "no_tracker": [("sens", "sens")],
    "kp": [("design", "sens"), ("sens", "design")],
    "no_delay": [("design", "sens"), ("sens", "design")],
    "gamma_1": [("design", "sens"), ("sens", "design")],
}


class TestSensitivitiesOnce:
    """A design formats its ``sensitivities.csv`` once, and keeps on the grid
    only G, C_d and C_t, from which the loop functions are derived."""

    @pytest.mark.parametrize("ppd", [50, 400, 2000, 8000])
    @pytest.mark.parametrize("variant", list(SENS_ORDERS))
    def test_formatted_once(self, tmp_path, surrogate_raw, monkeypatch, variant, ppd):
        raw = perturbed(surrogate_raw, variant)
        raw["grid"]["pts_per_decade"] = ppd
        (tmp_path / "alone").mkdir()
        nrcdamp.cli.run_sens(parse_config_dict(raw), tmp_path / "alone")
        expected = (tmp_path / "alone" / "sensitivities.csv").read_bytes()

        formats = []
        write = nrcdamp.design.bundle_to_csv

        def counted(frf, path):
            formats.append(path)
            return write(frf, path)

        monkeypatch.setattr(nrcdamp.design, "bundle_to_csv", counted)
        for order in SENS_ORDERS[variant]:
            formats.clear()
            cfg = parse_config_dict(raw)
            for k, cmd in enumerate(order):
                out = tmp_path / "-".join(order) / f"{k}_{cmd}"
                out.mkdir(parents=True)
                getattr(nrcdamp.cli, f"run_{cmd}")(cfg, out)
                assert (out / "sensitivities.csv").read_bytes() == expected
            assert len(formats) == 1

    @pytest.mark.parametrize("ppd", [50, 400, 2000, 8000])
    @pytest.mark.parametrize("variant", list(SENS_ORDERS))
    def test_derived_fields(self, tmp_path, surrogate_raw, variant, ppd):
        raw = perturbed(surrogate_raw, variant)
        raw["grid"]["pts_per_decade"] = ppd
        cfg = parse_config_dict(raw)
        ctx = cfg.design
        frf = ctx.at(ctx.grid)
        g, cd, ct = frf.g, frf.cd, frf.ct
        inner = g * cd
        gd = g / (1.0 + inner)
        ld = g * (ct + cd)
        eager = {
            "gd": gd, "inner": inner, "outer": ct * gd, "ld": ld, "t_yr": g * ct / (1.0 + ld),
            "t_xr_comp": (1.0 + g * cd) / (1.0 + ld), "s_yn": 1.0 / (1.0 + ld),
            "s_xn": -ld / (1.0 + ld), "ps_yd": g / (1.0 + ld),
        }
        for name, value in eager.items():
            assert np.array_equal(getattr(frf, name), value), name

        bundle = dual_sensitivities(g, ct, cd, ctx.grid)
        assert np.array_equal(ctx.frf.ld, bundle.ld)
        if cfg.tracker is not None:
            grid = ctx.grid
            o4 = float(np.max(np.abs(bundle.ld[grid >= grid[-1] / math.sqrt(10.0)])))
            summary = run_design(cfg, tmp_path)
            assert summary["objectives"]["highband_loop_gain"]["value"] == o4

    @pytest.mark.parametrize("ppd", [2000, 8000])
    def test_what_the_design_keeps(self, tmp_path, surrogate_raw, ppd):
        # what goes when the config goes, once design, sens and bode have
        # run: G, C_d and C_t, the grid, the csv bytes and small objects
        # (the reports, the transfer functions, the config's own fields)
        slack = 64 * 1024
        surrogate_raw["grid"]["pts_per_decade"] = ppd
        tracemalloc.start()
        try:
            cfg = parse_config_dict(surrogate_raw)
            for cmd in ("design", "sens", "bode"):
                (tmp_path / cmd).mkdir()
                getattr(nrcdamp.cli, f"run_{cmd}")(cfg, tmp_path / cmd)
            points = cfg.design.grid.size
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del cfg
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        text = (tmp_path / "sens" / "sensitivities.csv").stat().st_size
        assert held <= 3 * 16 * points + 8 * points + text + slack


class TestSummarize:
    def test_scorecard_lines(self, tmp_path, surrogate_raw):
        p = write(tmp_path, surrogate_raw)
        out = tmp_path / "out"
        run_command("design", p, out)
        s = json.loads((out / "summary.json").read_text())
        text = summarize(s)
        for label in ("O1", "O2", "O3", "O4"):
            assert label in text
        assert "GM" in text and "PM" in text
