"""The design pipeline as one library object, ``Design``: the damper tuned
on the plant (k = gamma/G(0), corner at n times the first resonance), the
tracker's kp tuned to a crossover when asked, and the dual loop's exact
evaluator, sensitivities, refined margins and bandwidths, verdict, peak
reduction and objective scorecard, each computed on first use and kept."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .lti import FrfStack
from .plants import PlantSpec, build_plant
from .nrc import NrcSpec, _tune
from .tracking import (
    Frf, ObjectiveReport, TrackerSpec, _bandwidth_plan, _corner_plan, _margins_plan, _refine,
    _scorecard, build_tracker, bundle_to_csv, dual_sensitivities, tune_kp,
)


class Design:
    """The damped plant, with the tracker when one is given, on ``grid``
    (rad/s).

    With ``omega_b`` (rad/s), the tracker's kp is tuned to
    1/|G_d(i omega_b)| and replaces ``tracker.pi.kp``. ``at`` evaluates G,
    C_d and C_t exactly at any frequency; ``frf`` is its value on the
    grid, from which the analyses bracket before ``reports`` refines on
    ``at``. A design holds only the specs it is built from, so a holder of
    the design (such as a parsed config) forms no reference cycle with it.
    """

    def __init__(self, plant: PlantSpec, nrc: NrcSpec, grid, tracker: TrackerSpec | None = None,
                 omega_b: float | None = None):
        self.plant_spec, self.nrc, self.grid = plant, nrc, grid
        self.plant_tf = build_plant(plant)  # the design's one build
        self.k, self.omega_a, self.cd_tf = _tune(self.plant_tf, plant, nrc)
        self.omega_n = plant.omega_n
        self._reports = {}
        self._sensitivities_csv = None

        self.frfs = FrfStack((self.plant_tf, self.cd_tf))  # ``at``'s one evaluation
        self.tracker, self.ct_tf, self.kp, self.nu = tracker, None, None, None
        if tracker is not None:
            if omega_b is not None:
                kp = tune_kp(lambda w: self.at(w).gd, omega_b)
                self.tracker = replace(tracker, pi=replace(tracker.pi, kp=kp))
                self.nu = self.omega_n / omega_b
            self.kp = self.tracker.pi.kp
            self.ct_tf = build_tracker(self.tracker)
            self.frfs = FrfStack((self.plant_tf, self.cd_tf, self.ct_tf))

    def at(self, omega) -> Frf:
        """G, C_d and C_t at ``omega`` (vector-safe), evaluated together in one
        stacked pass with the bits of ``freq_response``, with the loop
        functions derived from them (see ``tracking.Frf``); C_t is zeros
        without a tracker."""
        g, cd, *ct = self.frfs(omega)
        return Frf(omega, g, cd, ct[0] if ct else np.zeros_like(g))

    @cached_property
    def frf(self) -> Frf:
        return self.at(self.grid)

    @cached_property
    def at_n(self) -> Frf:
        """``at`` the first resonance, where the peak reduction and O3 are read."""
        return self.at(self.omega_n)

    @property
    def peak_reduction_db(self) -> float:
        """How far the damper lowers |G| at the first resonance: |G|/|G_d|."""
        at_n = self.at_n
        return 20.0 * math.log10(abs(complex(at_n.g)) / abs(complex(at_n.gd)))

    def write_sensitivities(self, path: Path) -> None:
        """Write the design's ``sensitivities.csv`` to ``path``. The first
        write formats the six dual closed-loop functions of ``frf``; the
        design keeps the bytes of that file and writes them again for every
        later command."""
        if self._sensitivities_csv is None:
            frf = self.frf
            bundle_to_csv(dual_sensitivities(frf.g, frf.ct, frf.cd, self.grid), path)
            self._sensitivities_csv = path.read_bytes()
        else:
            path.write_bytes(self._sensitivities_csv)

    def reports(self, *names) -> list:
        """The refined report of each named plan: a bound in dB names the
        band exit of T_yr there, "inner", "outer" and "ld" the margins of
        those ``at`` fields, and "ct" O2's tracker corner. The plans not
        refined yet are refined together in one ``_refine`` pass, and each
        report is kept; ``_bisect`` gives the same bits to plans refined
        together or apart."""
        todo = [name for name in dict.fromkeys(names) if name not in self._reports]
        if todo:
            plans = [self._plan(name) for name in todo]
            self._reports.update(zip(todo, _refine(plans, self.at)))
        return [self._reports[name] for name in names]

    def _plan(self, name):
        if name == "ct":
            return _corner_plan(self.grid, self.frf.ct, "ct")
        if name not in ("inner", "outer", "ld"):
            return _bandwidth_plan(self.grid, self.frf.t_yr, name, "t_yr")
        # each loop is told the lightly damped poles it has: G's modes in
        # G C_d, C_t's notches in C_t G_d, and both in L_D
        modes = [(m.omega_rad_s, m.zeta) for m in self.plant_spec.modes]
        tracker = self.tracker
        notches = [(nt.omega_rad_s, 0.5 / nt.q_den) for nt in tracker.notches] if tracker else []
        resonances = {"inner": modes, "outer": notches, "ld": modes + notches}[name]
        return _margins_plan(self.grid, getattr(self.frf, name), name, resonances)

    def inner_verdict(self) -> str:
        """The inner loop's verdict, from the Nyquist count of the delayed
        G C_d; with k = gamma/G(0), 1 + G(0) C_d(0) = 1 - gamma, so gamma = 1
        leaves a pole at s = 0."""
        (inner,) = self.reports("inner")
        if inner.nyquist_net_crossings:
            return "UNSTABLE"
        if abs(1.0 - self.nrc.gamma) <= 1e-9:
            return "marginally stable (integrator pole at s=0)"
        return "stable"

    def objectives(self) -> ObjectiveReport:
        """The four shaping objectives, on the refined +/-3 dB bandwidth and
        tracker corner, and on |L_D| at the first resonance."""
        bw3, w_ct = self.reports(3.0, "ct")
        ld_res = float(np.abs(self.at_n.ld))
        return _scorecard(self.frf, bw3, w_ct, ld_res, self.omega_n)
