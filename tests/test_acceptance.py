"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time

import numpy as np
import pytest

import closed_forms as cf
import nrcdamp as nd
from nrcdamp.cli import parse_config_dict, run_command

TWO_PI = 2.0 * np.pi
_RESULTS = []


@pytest.fixture(scope="module", autouse=True)
def acceptance_scorecard():
    yield
    print("\nacceptance scorecard")
    print("--------------------")
    for line in _RESULTS:
        print(line)


def record(num, desc, ok):
    _RESULTS.append(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def freq_normalized(coeffs, w):
    c = np.asarray(coeffs, dtype=float)
    deg = c.size - 1
    return c * w ** np.arange(c.size) / w**deg


def test_criterion_1_closed_form_poles():
    desc = "closed-form inner poles match numeric rooting (< 1 ms)"
    p1, p2, p3 = cf.inner_poles_closed_form(1.0, 0.0, 3.0)
    closed = np.sort_complex(np.array([p1, p2, p3]))
    ok = np.allclose(closed, [-2.0, -1.0, 0.0], atol=1e-12)
    numeric = nd.poly_roots(nd.inner_charpoly(1.0, 0.0, 1.0, 3.0))
    ok &= np.max(np.abs(np.sort_complex(numeric) - closed)) < 1e-9
    # warmed-up runtime of one closed-form + one numeric solve
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        cf.inner_poles_closed_form(1.0, 0.0, 3.0)
        nd.poly_roots(nd.inner_charpoly(1.0, 0.0, 1.0, 3.0))
        best = min(best, time.perf_counter() - t0)
    ok &= best < 1e-3
    assert record(1, desc, bool(ok))


def test_criterion_2_bifurcation_thresholds():
    desc = "root locus recovers the complete-damping threshold (< 1 s each)"
    ok = True
    grid = np.geomspace(0.5, 5.0, 150)
    for zeta in (0.0, 0.01, 0.05, 0.1):
        t0 = time.perf_counter()
        trace = nd.root_locus_n(1.0, zeta, 1.0, grid)
        dt = time.perf_counter() - t0
        ok &= abs(trace.bifurcation_n - 2.0 * (np.sqrt(2.0) + zeta)) < 1e-3
        ok &= dt < 1.0
    assert record(2, desc, bool(ok))


def test_criterion_3_routh_consistency():
    desc = "Routh verdict matches numeric root signs on 1000 random draws"
    rng = np.random.default_rng(2024)
    disagreements = 0
    checked = 0
    while checked < 1000:
        gamma = rng.uniform(0.05, 1.25)
        n = rng.uniform(0.5, 10.0)
        zeta = rng.uniform(0.0, 0.1)
        wn = 10.0 ** rng.uniform(0.0, 4.0)
        cp = nd.inner_charpoly(wn, zeta, gamma, n)
        roots = nd.poly_roots(cp)
        max_re = float(np.max(roots.real))
        if abs(max_re) < 1e-9 * wn:
            continue
        checked += 1
        verdict = nd.routh_cubic(cp).stable
        if verdict != (max_re < 0.0):
            disagreements += 1
    assert record(3, desc, disagreements == 0)


def test_criterion_4_dc_gain_law():
    desc = "inner-loop DC gain g/(1-gamma); infinite marker at gamma = 1"
    ok = True
    for g in (1.0, 2.0):
        plant = nd.PlantSpec(gain=g, modes=(nd.ModeSpec(1.0, 0.01),))
        for gamma in (0.25, 0.5, 0.9):
            cd = nd.nrc(gamma / g, 3.0)
            dc = nd.dc_gain(nd.tf_feedback(nd.build_plant(plant), cd))
            ok &= abs(dc - g / (1.0 - gamma)) <= 1e-9 * abs(g / (1.0 - gamma))
        dc = nd.dc_gain(nd.tf_feedback(nd.build_plant(plant), nd.nrc(1.0 / g, 3.0)))
        ok &= np.isinf(dc)
    assert record(4, desc, bool(ok))


def test_criterion_5_two_mode_damped_gain():
    desc = "two-mode inner-loop gain at the second mode equals (1+beta)/gamma"
    ok = True
    for alpha in (1.5, 2.0, 3.0):
        for beta in (0.2, 0.5, 1.0):
            for gamma in (0.5, 1.0):
                for n in (2.0, 3.0, 8.0):
                    g2d = cf.two_mode_inner_loop(alpha, beta, gamma, n, 1.0)
                    val = abs(nd.freq_response(g2d, alpha))
                    ok &= abs(val - (1.0 + beta) / gamma) <= 1e-3 * (1.0 + beta) / gamma
    # spot check at hardware scale
    wn = TWO_PI * 739.0
    g2d = cf.two_mode_inner_loop(1.5, 0.5, 1.0, 3.0, wn)
    ok &= abs(abs(nd.freq_response(g2d, 1.5 * wn)) - 1.5) <= 1.5e-3
    assert record(5, desc, bool(ok))


def test_criterion_6_load_robustness():
    desc = "controller tuned unloaded keeps fully real poles under load"
    wn = TWO_PI * 739.0
    plant = nd.PlantSpec(gain=1.0, modes=(nd.ModeSpec(wn, 0.01),))
    controller = nd.nrc(1.0, 3.0 * wn)  # gamma = 1, n = 3 at eta = 1
    ok = True
    for eta in (0.75, 0.5):
        res = nd.inner_closed_loop(nd.scale_load(plant, eta), controller)
        ok &= np.max(np.abs(res.poles.imag)) < 1e-6 * wn
        roots = nd.poly_roots(cf.loaded_inner_charpoly(wn, 0.01, 3.0, eta))
        ok &= np.max(np.abs(roots.imag)) < 1e-6 * wn
    assert record(6, desc, bool(ok))


def test_criterion_7_delay_equivalence():
    desc = "all-pass delay closure matches the independent composition"
    ok = True
    for wn in (1.0, TWO_PI * 739.0):
        plant = nd.build_plant(nd.PlantSpec(gain=1.0, modes=(nd.ModeSpec(wn, 0.0),)))
        for n in (2.0, 3.0, 8.0):
            for m in (1.0, 3.0, 10.0, 100.0):
                direct = cf.delayed_inner_loop(wn, n, m)
                composed = nd.tf_feedback(
                    nd.tf_series(plant, cf.pade1(2.0 / (m * wn))),
                    nd.nrc(1.0, n * wn),
                )
                for attr in ("num", "den"):
                    a = freq_normalized(getattr(direct, attr).coeffs, wn)
                    b = freq_normalized(getattr(composed, attr).coeffs, wn)
                    scale = np.max(np.abs(a))
                    ok &= a.size == b.size and np.max(np.abs(a - b)) <= 1e-9 * scale
    assert record(7, desc, bool(ok))


def test_criterion_8_complementarity_identities():
    desc = "T_yr + T'_xr = 1 and S_yn - S_xn = 1 on three unrelated loops"
    triples = []
    grid1 = nd.log_grid(0.01, 100.0, 400)
    plant1 = nd.build_plant(nd.PlantSpec(gain=1.0, modes=(nd.ModeSpec(1.0, 0.01),)))
    ct1 = nd.build_tracker(nd.TrackerSpec(pi=nd.PiSpec(kp=2.0, omega_i_rad_s=0.1)))
    triples.append((grid1, plant1, ct1, nd.nrc(1.0, 3.0)))

    grid2 = nd.log_grid(1.0, 10000.0, 400)
    plant2 = nd.build_plant(
        nd.PlantSpec(
            gain=0.4,
            modes=(
                nd.ModeSpec(TWO_PI * 739.0, 0.01),
                nd.ModeSpec(TWO_PI * 983.0, 0.01, weight=0.3),
            ),
            amp_corner_rad_s=TWO_PI * 4000.0,
        )
    )
    ct2 = nd.build_tracker(
        nd.TrackerSpec(
            pi=nd.PiSpec(kp=0.8, omega_i_rad_s=TWO_PI * 28.0),
            notches=(nd.NotchSpec(TWO_PI * 1000.0, 1.1, 1.0),),
            lowpass_corner_rad_s=TWO_PI * 5000.0,
        )
    )
    triples.append((grid2, plant2, ct2, nd.tame_nrc(1.9, TWO_PI * 5912.0, TWO_PI * 2000.0)))

    grid3 = nd.log_grid(0.1, 1000.0, 400)
    plant3 = nd.build_plant(
        nd.PlantSpec(gain=2.0, modes=(nd.ModeSpec(TWO_PI * 50.0, 0.05),), delay_s=2e-4)
    )
    ct3 = nd.build_tracker(nd.TrackerSpec(pi=nd.PiSpec(kp=0.3)))
    triples.append((grid3, plant3, ct3, nd.nrc(0.45, TWO_PI * 120.0)))

    worst = 0.0
    for grid, g_tf, ct_tf, cd_tf in triples:
        b = nd.dual_sensitivities(
            nd.freq_response(g_tf, grid),
            nd.freq_response(ct_tf, grid),
            nd.freq_response(cd_tf, grid),
            grid,
        )
        worst = max(worst, float(np.max(np.abs(b.t_yr + b.t_xr_comp - 1.0))))
        worst = max(worst, float(np.max(np.abs(b.s_yn - b.s_xn - 1.0))))
    assert record(8, desc, worst < 1e-9)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the documented terminal-error law 2/(2+kp) is not reachable by the "
        "negative-feedback dual loop: its exact steady state is "
        "(1-gamma)/(1-gamma+kp), vanishing as gamma -> 1 (see README, "
        "'Known discrepancies'); the faithful simulation therefore cannot "
        "land on the stated value"
    ),
)
def test_criterion_9_ess_law():
    desc = "P-only terminal error matches 2/(2+kp) within 1%"
    gamma = 0.999  # k' = k + dk with dk = -1e-3 on a unit-DC plant
    plant = nd.PlantSpec(gain=1.0, modes=(nd.ModeSpec(TWO_PI * 100.0, 0.0),))
    g = nd.build_plant(plant)
    k, wa = cf.nrc_gains(plant, nd.NrcSpec(gamma=gamma, n=3.0))
    ts = 30e-6
    ok = True
    for kp in (1.0, 10.0, 298.3569):
        ct = nd.build_tracker(nd.TrackerSpec(pi=nd.PiSpec(kp=kp)))
        r = nd.make_reference("step", 1.0, ts, 0.4)
        z = np.zeros(r.size)
        t0 = time.perf_counter()
        trace = nd.simulate_dual_loop(
            nd.discretize(g, ts),
            nd.discretize(ct, ts),
            nd.discretize(nd.nrc(k, wa), ts),
            r,
            z,
            z,
        )
        dt = time.perf_counter() - t0
        e_term = float(np.mean(np.abs(trace.e[-300:])))
        expected = cf.steady_state_error(kp)
        ok &= abs(e_term - expected) <= 0.01 * expected
        ok &= dt < 5.0
    assert record(9, desc, bool(ok))


def test_criterion_10_surrogate_design_pipeline(tmp_path, surrogate_raw):
    desc = "surrogate design: >= 20 dB peak cut, wc(3dB) > wn, margins > 0"
    cfg_path = tmp_path / "surrogate.json"
    cfg_path.write_text(json.dumps(surrogate_raw))
    t0 = time.perf_counter()
    rc = run_command("design", cfg_path, tmp_path / "out")
    dt = time.perf_counter() - t0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    ok = rc == 0 and dt < 30.0
    ok &= summary["inner_loop"]["peak_reduction_db"] >= 20.0
    ok &= summary["bandwidth"]["wc_3db_hz"] > 739.0
    pms = [c["phase_margin_deg"] for c in summary["outer_loop"]["crossovers"]]
    ok &= len(pms) > 0 and all(pm > 0.0 for pm in pms)
    ok &= summary["dual_loop"]["stable"] is True
    assert record(10, desc, bool(ok))


def test_criterion_11_chirp_identification():
    desc = "chirp estimate within 1 dB / 5 deg of the analytic response"
    t0 = time.perf_counter()
    spec = nd.nanopositioner_surrogate()
    fs = 33300.0
    est = nd.chirp_identify(nd.open_loop_response(spec, fs=fs, duration_s=10.0), fs, 1 << 16)
    dt = time.perf_counter() - t0
    band = (est.freq_hz >= 10.0) & (est.freq_hz <= 3000.0)
    f = est.freq_hz[band]
    ref = nd.freq_response(nd.build_plant(spec), TWO_PI * f)
    dmag = est.mag_db[band] - 20.0 * np.log10(np.abs(ref))
    ref_ph = np.degrees(np.unwrap(np.angle(ref)))
    est_ph = est.phase_deg[band]
    est_ph = est_ph - 360.0 * round((est_ph[0] - ref_ph[0]) / 360.0)
    ok = dt < 30.0
    ok &= float(np.max(np.abs(dmag))) < 1.0
    ok &= float(np.max(np.abs(est_ph - ref_ph))) < 5.0
    ok &= float(np.min(est.coherence[band])) > 0.99
    assert record(11, desc, bool(ok))


def test_criterion_12_pm_feasibility_boundary():
    desc = "feasibility boundary at nu=2 and measured 60 deg phase margin"
    nu = 2.0
    n_ref = (16.0 + np.sqrt(599.0)) / 14.0
    # independent root of the feasibility quadratic
    roots = np.roots([1.75 * nu**2, -2.0 * nu**3, 1.75 * (1.0 - 2.0 * nu**2)])
    n_num = float(np.max(roots))
    ok = abs(n_num - n_ref) < 1e-6
    value, _ = nd.pm_feasibility(nu, n_ref)
    ok &= abs(value) < 1e-9

    # proportional loop closed at wb = wn/2 with the boundary corner ratio
    wn, wb = 1.0, 0.5
    plant = nd.PlantSpec(gain=1.0, modes=(nd.ModeSpec(wn, 0.0),))
    gd = nd.tf_feedback(nd.build_plant(plant), nd.nrc(1.0, n_ref * wn))
    kp = nd.tune_kp(lambda w: nd.freq_response(gd, w), wb)
    grid = nd.log_grid(1e-3 / TWO_PI, 10.0 / TWO_PI, 400)

    def l_eval(w):
        return kp * nd.freq_response(gd, w)

    rep = nd.margins(grid, l_eval(grid), l_eval)
    cross = min(rep.crossovers, key=lambda c: abs(c[0] - wb))
    ok &= abs(cross[0] - wb) < 1e-6
    ok &= abs(cross[1] - 60.0) <= 2.0
    assert record(12, desc, bool(ok))


def test_criterion_13_simulation_matches_frf(surrogate_raw):
    desc = "steady-state sine gain matches |T_yr| within 2%"
    cfg = parse_config_dict(surrogate_raw)
    ctx = cfg.design
    ts = cfg.sim.ts_s
    plant_d = nd.discretize(ctx.plant_tf, ts)
    tracker_d = nd.discretize(ctx.ct_tf, ts)
    nrc_d = nd.discretize(ctx.cd_tf, ts)
    ok = True
    for f in (50.0, 100.0, 200.0, 500.0):
        r = nd.make_reference("sine", 1.0, ts, 0.35, f)
        z = np.zeros(r.size)
        trace = nd.simulate_dual_loop(plant_d, tracker_d, nrc_d, r, z, z)
        amp = nd.sinusoid_amplitude(trace.y_meas, f, ts)
        target = abs(complex(ctx.at(TWO_PI * f).t_yr))
        ok &= abs(amp - target) <= 0.02 * target
    assert record(13, desc, bool(ok))
