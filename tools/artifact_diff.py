"""Compare every command's artifacts between a git ref and this tree.

    python tools/artifact_diff.py <git-ref>

Checks ``<git-ref>`` out in a temporary ``git worktree`` (removed at the
end) and runs each command, ``sweep --param nrc.n --values 4,8`` included,
as a fresh ``python -m nrcdamp.cli`` process on a fixed set of configs,
once with that tree's ``src`` and once with this tree's, uncommitted
changes included. It compares the bytes of every output file, the exit
codes and stderr, with the run's paths replaced by placeholders. Each
difference is printed; the exit status is 1 if there is any, else 0.

The configs are ``configs/surrogate.json``; one edit of it each (a tamed
damper with an amplifier corner, no tracker, no damper, kp given, no
delay, gamma 1, n 1, 8000 points per decade, and ``sim.ts_us`` 5 and 7:
at 5 us ``identify`` takes 2^18-sample Welch segments, at 7 us the end of
its record cuts a lifted row, and ``simulate`` runs off the 30 us rate at
both); and 40 seeded perturbations
of the modes, damper, tracker crossover, delay (0, 30, 150 or 160 us) and
grid density (50 to 2000 points per decade).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("bode", "design", "rootlocus", "sens", "margins", "simulate", "identify", "sweep")
SWEEP_FLAGS = ("--param", "nrc.n", "--values", "4,8")
SEED, PERTURBATIONS = 0, 40
WORKERS = 2  # processes at a time


def configs(base: dict) -> dict:
    """Name -> raw config: the surrogate, its one-edit variants and the
    seeded perturbations."""

    def edited(edit) -> dict:
        raw = json.loads(json.dumps(base))
        edit(raw)
        return raw

    def given_kp(raw):
        del raw["tracker"]["omega_b_hz"]
        raw["tracker"]["kp"] = 0.9

    out = {
        "surrogate": edited(lambda raw: None),
        "tamed": edited(
            lambda raw: (raw["nrc"].update(taming_l=3.0), raw["plant"].update(amp_corner_hz=4000.0))
        ),
        "no-tracker": edited(lambda raw: raw.pop("tracker")),
        "no-nrc": edited(lambda raw: raw.pop("nrc")),
        "kp": edited(given_kp),
        "no-delay": edited(lambda raw: raw["plant"].update(delay_us=0.0)),
        "gamma-1": edited(lambda raw: raw["nrc"].update(gamma=1.0)),
        "n-1": edited(lambda raw: raw["nrc"].update(n=1.0)),
        "ppd-8000": edited(lambda raw: raw["grid"].update(pts_per_decade=8000)),
        "ts-5": edited(lambda raw: raw["sim"].update(ts_us=5.0)),
        "ts-7": edited(lambda raw: raw["sim"].update(ts_us=7.0)),
    }
    rng = np.random.default_rng(SEED)
    for i in range(PERTURBATIONS):
        raw = edited(lambda raw: None)
        for mode in raw["plant"]["modes"]:
            mode["freq_hz"] *= float(rng.uniform(0.8, 1.2))
            mode["zeta"] = float(rng.uniform(0.003, 0.05))
        raw["plant"]["delay_us"] = float(rng.choice([0.0, 30.0, 150.0, 160.0]))
        raw["nrc"]["gamma"] = float(rng.uniform(0.9, 1.0))
        raw["nrc"]["n"] = float(math.exp(rng.uniform(0.0, 3.0)))  # 1 to 20
        raw["tracker"]["omega_b_hz"] = float(rng.uniform(200.0, 600.0))
        raw["grid"]["pts_per_decade"] = int(rng.integers(50, 2001))
        out[f"seeded-{i:02d}"] = raw
    return out


def run(tree: Path, out_root: Path, job: tuple) -> tuple:
    """(exit status, stderr with the paths of the run replaced, {file: bytes})
    of the command ``job`` = (config name, command, config path) run with
    ``tree``'s package into ``out_root``."""
    name, cmd, config = job
    out = out_root / name / cmd
    argv = [sys.executable, "-m", "nrcdamp.cli", cmd, str(config), "--out", str(out)]
    proc = subprocess.run(
        argv + list(SWEEP_FLAGS if cmd == "sweep" else ()),
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        cwd=config.parent,
        capture_output=True,
        text=True,
    )
    stderr = proc.stderr.replace(str(out), "<out>").replace(str(tree), "<tree>")
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, stderr, files


def differences(ref: tuple, here: tuple) -> list:
    """What differs between two results of ``run``."""
    found = []
    if ref[0] != here[0]:
        found.append(f"exit status {ref[0]} vs {here[0]}")
    if ref[1] != here[1]:
        found.append(f"stderr {ref[1]!r} vs {here[1]!r}")
    for name in sorted(set(ref[2]) | set(here[2])):
        if name not in here[2]:
            found.append(f"{name} only at the ref")
        elif name not in ref[2]:
            found.append(f"{name} only in this tree")
        elif ref[2][name] != here[2][name]:
            found.append(f"{name} differs")
    return found


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_diff.py <git-ref>", file=sys.stderr)
        return 2
    base = json.loads((ROOT / "configs" / "surrogate.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        worktree = tmp / "worktree"
        added = subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(worktree), argv[0]],
            capture_output=True,
            text=True,
        )
        if added.returncode:
            print(added.stderr, end="", file=sys.stderr)
            return 2
        try:
            jobs = []
            for name, raw in configs(base).items():
                path = tmp / "configs" / f"{name}.json"
                path.parent.mkdir(exist_ok=True)
                path.write_text(json.dumps(raw), encoding="utf-8")
                jobs += [(name, cmd, path) for cmd in COMMANDS]
            results = {}
            with ThreadPoolExecutor(WORKERS) as pool:
                for label, tree in (("ref", worktree), ("tree", ROOT)):
                    results[label] = list(pool.map(partial(run, tree, tmp / f"out-{label}"), jobs))
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(worktree)],
                capture_output=True,
            )
    count = 0
    for (name, cmd, _), ref, here in zip(jobs, results["ref"], results["tree"]):
        for difference in differences(ref, here):
            print(f"{cmd} {name}: {difference}")
            count += 1
    files = sum(len(ref[2]) for ref in results["ref"])
    statuses = Counter(ref[0] for ref in results["ref"])
    print(f"{len(jobs)} runs (exit statuses at the ref: {dict(sorted(statuses.items()))}),"
          f" {files} files at the ref: {count} difference(s) from {argv[0]}")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
