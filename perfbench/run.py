"""nrcdamp benchmark: two closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``cold-cli`` (a fresh CLI process per
run) and ``design-sweep`` (warm in-process analysis passes). One caller
sends the next op only after the last one returned. A run measures whole
cycles of ops (a cycle is the workload's fixed rotation of op kinds or grid
sizes) until their wall time reaches ``--seconds``.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
Every workload reports each of them, on its own op:

- ``setup_s``: cold-cli, the median fresh-interpreter ``import nrcdamp``;
  design-sweep, the median of three set-ups (this process and two fresh
  helpers), each the import of the package plus a warm-up op. Each op's
  inputs are drawn from ``--seed`` and the op index before its timer starts.
- ``op_p50_ms``, ``op_p90_ms``: wall time of one op (cold-cli: one
  design, simulate or identify process; design-sweep: one analysis pass).
- ``ops_per_s``: ops completed per second of op wall time.
- ``peak_rss_mb``: peak resident memory of the program (cold-cli: its
  largest process).

``--trace 1`` is a separate run. It measures the same ops untraced for half
of ``--seconds``, then again with spans and counters at the public function
boundaries of every layer (see ``tracing.py``) for the other half. It prints
the per-layer metrics, the tracing overhead (traced minus untraced) on each
end-to-end metric, ``-X importtime`` figures of a fresh interpreter, and
how many artifacts differ between the untraced and the traced execution of
the same op.

Every run's output is checked (see ``workloads.py``); a failed run counts in
``failed`` and is never dropped. The line before the result is a report:
the environment, the sample count next to every timing, each workload's
per-command figures, the fail ratio, and sha256 digests of the artifacts
(per file for the first cycle, per op for every op), which repeat exactly
for a given seed.
"""

import time

T_START = time.perf_counter()  # a warm workload's set-up starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-cli", "design-sweep")
SETUP_REPEATS = 3  # warm set-ups per run whose median is setup_s
COLD_SETUP_IMPORTS = 2  # fresh imports before the first timed cold-cli op
IMPORTTIME_REPEATS = 2
SAMPLE_PERIOD_US = 30.0  # sim.ts_us of configs/surrogate.json

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement loop


def run_op(workload, index: int, out: Path, tracer=None) -> dict:
    """Time one op, then check its runs and digest its artifacts."""
    runs = workload.runs(index, out)
    if tracer is not None:
        tracer.op = index
    t0 = time.perf_counter()
    for run in runs:
        r0 = time.perf_counter()
        try:
            workload.execute(run)
        except Exception:  # recorded as a failed run, never dropped
            run.error = traceback.format_exc(limit=4)
        run.wall_s = time.perf_counter() - r0
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False  # the checks call the public API too
    for run in runs:
        if run.error is None:
            try:
                workload.check(run)
            except Exception:
                run.error = traceback.format_exc(limit=4)
        if run.error is not None:
            print(f"perfbench: {run.kind} run of op {index} failed:\n{run.error}", file=sys.stderr)
    if tracer is not None:
        tracer.enabled = True
    files = artifact_digests(out)
    shutil.rmtree(out, ignore_errors=True)
    return {"index": index, "wall_s": wall, "runs": runs, "files": files}


def loop(workload, work: Path, seconds: float, tag: str, tracer=None) -> list[dict]:
    """Ops from index 0, in whole cycles, until their wall time reaches ``seconds``."""
    ops, busy, index = [], 0.0, 0
    while busy < seconds or index % workload.cycle:
        op = run_op(workload, index, work / f"{tag}{index:05d}", tracer)
        ops.append(op)
        busy += op["wall_s"]
        index += 1
    return ops


def artifact_digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in out.rglob("*") if p.is_file())
    }


def op_digest(op) -> str:
    lines = "".join(f"{name}:{digest}\n" for name, digest in op["files"].items())
    return hashlib.sha256(lines.encode()).hexdigest()


def runs_of(ops, kind=None):
    return [r for op in ops for r in op["runs"] if kind is None or r.kind == kind]


def percentile_ms(walls, q) -> float:
    return float(np.percentile(np.asarray(walls, dtype=float), q)) * 1e3


# ---------------------------------------------------------------------------
# set-up


def make_workload(name: str, seed: int, traced_runner=None):
    if name == "design-sweep":
        return wl.DesignSweep(ROOT, seed)
    return wl.ColdCli(ROOT, traced_runner)


def warm_setup(args, work: Path):
    """Import and one warm-up op: (workload, seconds since start)."""
    workload = make_workload(args.workload, args.seed)
    for run in workload.warm_runs(work / "warmup"):
        workload.execute(run)
    shutil.rmtree(work / "warmup", ignore_errors=True)
    return workload, time.perf_counter() - T_START


def helper_setups(args, count: int) -> list[float]:
    """Set-up seconds of fresh helper processes of this script."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
            stdout=subprocess.PIPE, text=True, timeout=wl.CHILD_TIMEOUT_S, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def import_walls(ops) -> list[float]:
    return [r.wall_s for r in runs_of(ops, "import")]


def importtime_figures() -> dict:
    nrc, sig = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nrcdamp"],
            env=wl.env_with_src(ROOT), stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
            text=True, timeout=wl.CHILD_TIMEOUT_S, check=True,
        )
        nrcdamp_s, scipy_s = tracing.importtime(proc.stderr)
        nrc.append(nrcdamp_s)
        sig.append(scipy_s)
    return {
        "import.nrcdamp_s": (statistics.median(nrc), "s"),
        "import.scipy_signal_s": (statistics.median(sig), "s"),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(cold: bool, ops, setup_s: float, rss_mb: float) -> dict:
    """End-to-end metrics of one phase; cold-cli imports feed only setup_s."""
    walls = [op["wall_s"] for op in ops if not (cold and op["runs"][0].kind == "import")]
    return {
        "setup_s": setup_s,
        "op_p50_ms": percentile_ms(walls, 50),
        "op_p90_ms": percentile_ms(walls, 90),
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": rss_mb,
    }


def command_figures(name: str, ops) -> dict:
    """The per-command figures of one workload, each with its sample count."""
    if name == "cold-cli":
        out = {}
        for kind in ("design", "simulate", "identify"):
            walls = [r.wall_s for r in runs_of(ops, kind)]
            out[f"cli_{kind}_s"] = {"value": statistics.median(walls), "unit": "s", "n": len(walls)}
        return out
    walls = [op["wall_s"] for op in ops]
    n = len(walls)
    return {
        "analyses_per_s": {"value": n / sum(walls), "unit": "1/s", "n": n},
        "analysis_p50_ms": {"value": percentile_ms(walls, 50), "unit": "ms", "n": n},
        "analysis_p90_ms": {"value": percentile_ms(walls, 90), "unit": "ms", "n": n},
    }


def layer_metrics(stats, traced_ops: int, grid_total: int) -> dict:
    """Per-layer figures from the spans of ``traced_ops`` traced ops."""
    fr = stats["lti.freq_response"]
    sim = stats["sim.simulate_dual_loop"]
    us_per_sample = sim.total_s / sim.samples * 1e6 if sim.samples else 0.0
    m = {
        "trace.ops": (traced_ops, "count"),
        "lti.freq_response.calls": (fr.calls, "count"),
        "lti.freq_response.scalar_calls": (fr.scalar_calls, "count"),
        "lti.freq_response.points": (fr.points, "count"),
        "lti.freq_response.s": (fr.total_s, "s"),
        "lti.poly_roots.calls": (stats["lti.poly_roots"].calls, "count"),
        "lti.poly_roots.s": (stats["lti.poly_roots"].total_s, "s"),
        "lti.points_per_grid_point": (fr.points / grid_total if grid_total else 0.0, "ratio"),
        "plants.build_plant.calls": (stats["plants.build_plant"].calls, "count"),
        "nrc.synthesize_nrc.calls": (stats["nrc.synthesize_nrc"].calls, "count"),
        "sim.simulate_dual_loop.us_per_sample": (us_per_sample, "us"),
        "sim.simulate_dual_loop.realtime_ratio": (us_per_sample / SAMPLE_PERIOD_US, "ratio"),
        "sim.discretize.calls": (stats["sim.discretize"].calls, "count"),
        "cli.parse_config_dict.s": (stats["cli.parse_config_dict"].total_s, "s"),
    }
    for name in (
        "tracking.margins", "tracking.bandwidth", "tracking.tune_kp",
        "tracking.dual_sensitivities", "tracking.nyquist_net_crossings",
        "tracking.objective_report", "tracking.bundle_to_csv",
        "loops.root_locus_n", "loops.inner_closed_loop", "sim.discretize",
        "sim.trace_to_csv", "sim.open_loop_response", "sim.chirp_identify",
        "sim.frf_to_csv",
    ):
        m[f"{name}.s"] = (stats[name].total_s, "s")
    for name in ("tracking.bundle_to_csv", "sim.trace_to_csv", "sim.frf_to_csv"):
        m[f"{name}.bytes"] = (stats[name].bytes, "B")
    for name in ("cli.run_design", "cli.run_simulate", "cli.run_identify"):
        m[f"{name}.self_s"] = (stats[name].total_s - stats[name].child_s, "s")
    for name, s in stats.items():
        m[f"{name}.errors"] = (s.errors, "count")
    return m


def artifact_mismatches(plain, traced) -> tuple[int, int]:
    """(files compared, files that differ) between two executions of an op."""
    by_index = {op["index"]: op["files"] for op in plain}
    compared = differ = 0
    for op in traced:
        if op["index"] not in by_index:
            continue
        ref = by_index[op["index"]]
        for name in set(ref) | set(op["files"]):
            compared += 1
            differ += ref.get(name) != op["files"].get(name)
    return compared, differ


# ---------------------------------------------------------------------------
# one run


def environment(seed: int) -> dict:
    import scipy

    commit = None
    try:  # the benchmark may run in a checkout that is not a git repository
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nrcdamp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def max_rss_mb(ops) -> float:
    return max(r.rss_mb for r in runs_of(ops))


def traced_phase(args, workload, work: Path, phase_s: float, ops, metrics, setup_s: float):
    """Re-run the ops of the untraced phase with tracing on.

    Returns the traced ops, the per-layer metrics and the traced end-to-end
    metrics; cold-cli traces inside each child through ``traced_cli.py``.
    """
    if args.workload == "cold-cli":
        traced = make_workload(args.workload, args.seed, HERE / "traced_cli.py")
        traced_ops = loop(traced, work, phase_s, "traced")
        stats = tracing.merge(
            tracing.from_json(json.loads(path.read_text(encoding="utf-8")))
            for path in traced.trace_files
            if path.is_file()
        )
        setup_over = statistics.median(import_walls(traced_ops)) - statistics.median(
            import_walls(ops)
        )
        rss = max_rss_mb(traced_ops)
    else:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        tracing.install(tracer)  # the only set-up work tracing adds
        setup_over = time.perf_counter() - t0
        tracer.enabled = True
        traced_ops = loop(workload, work, phase_s, "traced", tracer)
        tracer.enabled = False
        stats = tracer.summary()
        rss = self_rss_mb()
    traced_metrics = end_to_end(
        args.workload == "cold-cli", traced_ops, setup_s + setup_over, rss
    )
    grid_total = sum(
        wl.grid_points(workload.nd, r.raw) for r in runs_of(traced_ops) if r.raw is not None
    )
    layers = layer_metrics(stats, len(traced_ops), grid_total)
    layers.update(importtime_figures())
    for key, value in traced_metrics.items():
        layers[f"overhead.{key}"] = (value - metrics[key], E2E_UNITS[key])
    compared, differ = artifact_mismatches(ops, traced_ops)
    layers["artifacts.compared"] = (compared, "count")
    layers["artifacts.mismatches"] = (differ, "count")
    return traced_ops, layers, traced_metrics


def measure(args, work: Path):
    """Set up, measure and check one run: (result, report)."""
    cold = args.workload == "cold-cli"
    phase_s = args.seconds / 2.0 if args.trace else args.seconds
    if cold:
        workload = make_workload(args.workload, args.seed)
        first_import = wl.COLD_ROTATION.index("import")
        setup_ops = [
            run_op(workload, first_import, work / f"setup{i}") for i in range(COLD_SETUP_IMPORTS)
        ]
        ops = loop(workload, work, phase_s, "op")
        setups = import_walls(setup_ops + ops)
        setup_s, rss = statistics.median(setups), max_rss_mb(ops)
    else:
        workload, own_setup = warm_setup(args, work)
        setups = [own_setup] + helper_setups(args, SETUP_REPEATS - 1)
        setup_ops = []
        ops = loop(workload, work, phase_s, "op")
        setup_s, rss = statistics.median(setups), self_rss_mb()
    metrics = end_to_end(cold, ops, setup_s, rss)

    report = {
        "environment": environment(args.seed),
        "end_to_end": {
            k: {"value": v, "unit": E2E_UNITS[k], "n": len(setups) if k == "setup_s" else len(ops)}
            for k, v in metrics.items()
        },
        "commands": command_figures(args.workload, ops),
        "artifacts": {
            "first_cycle_sha256": {
                f"{op['index']}/{name}": digest
                for op in ops[: workload.cycle]
                for name, digest in op["files"].items()
            },
            "per_op_sha256": [op_digest(op) for op in ops],
        },
    }
    all_ops = setup_ops + ops
    layers = {}
    if args.trace:
        traced_ops, layers, traced_metrics = traced_phase(
            args, workload, work, phase_s, ops, metrics, setup_s
        )
        report["traced"] = {"ops": len(traced_ops), "end_to_end": traced_metrics}
        all_ops += traced_ops

    runs = runs_of(all_ops)
    failed = sum(r.error is not None for r in runs)
    report["fail_ratio"] = {"value": failed / len(runs), "attempted": len(runs), "failed": failed}
    correct = failed == 0
    if args.trace:
        layers["bench.fail_ratio"] = (failed / len(runs), "ratio")
        correct = correct and layers["artifacts.mismatches"][0] == 0
        out = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        out = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    result = {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": out}
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nrcdamp" / "__init__.py").is_file() or not (
        ROOT / "configs" / "surrogate.json"
    ).is_file():
        print(f"perfbench: no nrcdamp source tree (src/nrcdamp, configs) in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_only:
            _, setup_s = warm_setup(args, work)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result, report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
