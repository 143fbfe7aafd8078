"""Every function defined in ``src/nrcdamp`` is one that a command runs.

The eight commands run in-process through ``cli.main`` on the surrogate and
on copies that reach other branches (a tamed controller with an amplifier
corner, no tracker, no damping controller, a sine reference with noise and
a disturbance) while a profiler records each function entered. A function
no command reaches is a test oracle (``tests/closed_forms.py``) or dead
code, unless ``UNREACHED`` names it with the reason it stays.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import nrcdamp
from nrcdamp.cli import COMMANDS, main

PACKAGE = Path(nrcdamp.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# module.qualname -> why the package keeps it although no command calls it
UNREACHED = {
    "lti.Polynomial.__repr__": "__repr__",
    "lti.RationalTF.__repr__": "__repr__",
    "lti._words": "run at import, to build the CSV kernel's tables",
    "lti._ones": "run at import, to build the CSV kernel's tables",
    "lti.poles_zeros": "test oracle of the delay-free closure; moves with ROADMAP item 8",
    "lti.poly_roots": "test oracle of the delay-free closure; the benchmark tracer wraps it by name; moves with ROADMAP item 8",
    "lti.tf_feedback": "test oracle of the delay-free closure; moves with ROADMAP item 8",
    "loops.analyze_inner_loop": "test oracle of the delay-free closure; moves with ROADMAP item 8",
    "loops.damping_ratio": "test oracle of the delay-free closure; moves with ROADMAP item 8",
    "loops.inner_closed_loop": "test oracle of the delay-free closure; the benchmark tracer wraps it by name; moves with ROADMAP item 8",
    "loops.min_resonant_damping": "test oracle of the delay-free closure; moves with ROADMAP item 8",
    "nrc.synthesize_nrc": "benchmark tracer and checks; commands tune through nrc._tune",
    "plants.nanopositioner_surrogate": "README library example (an installed package ships no configs/)",
    "plants.scale_load": "ROADMAP item 4, the fixed-design load scenarios",
    "sim.discrete_frf": "ROADMAP item 2, the sampled evaluator",
    "tracking.bandwidth": "benchmark tracer",
    "tracking.margins": "benchmark tracer",
    "tracking.nyquist_net_crossings": "benchmark tracer",
    "tracking.objective_report": "benchmark tracer",
}


def defined_functions() -> dict:
    """(file, first line, name) of each def in the package -> module.qualname."""
    out = {}

    def visit(node, prefix, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(filename, first, child.name)] = f"{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.", filename)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", filename)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", str(path))
    return out


def variants(raw: dict) -> dict:
    """The surrogate with a short record, and copies of it with one edit each."""
    base = json.loads(json.dumps(raw))
    base["sim"]["duration_s"] = 0.05

    def edited(edit):
        cfg = json.loads(json.dumps(base))
        edit(cfg)
        return cfg

    return {
        "surrogate": base,
        "tamed": edited(lambda c: (c["nrc"].update(taming_l=3.0), c["plant"].update(amp_corner_hz=4000.0))),
        "no-tracker": edited(lambda c: c.pop("tracker")),
        "no-nrc": edited(lambda c: c.pop("nrc")),
        "noisy": edited(
            lambda c: c["sim"].update(
                noise_amplitude=1e-3, disturbance_amplitude=0.01, disturbance_freq_hz=700.0
            )
        ),
    }


def test_every_function_is_reached(tmp_path, surrogate_raw):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name, cfg in variants(surrogate_raw).items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            for cmd in COMMANDS:
                flags = ["--grid-override", "1,4000,50"]
                if cmd == "sweep":
                    flags += ["--param", "nrc.n", "--values", "4,8"]
                status = main([cmd, str(path), "--out", str(tmp_path / name / cmd), *flags])
                # a command refuses only a config that lacks a section it needs
                needs = COMMANDS["design" if cmd == "sweep" else cmd]
                assert status == (2 if any(s not in cfg for s in needs) else 0), (name, cmd)
    finally:
        sys.setprofile(previous)

    defined = defined_functions()
    unreached = {qualname for key, qualname in defined.items() if key not in entered}
    assert unreached - set(UNREACHED) == set(), "functions no command reaches"
    assert set(UNREACHED) - unreached == set(), "allowlisted functions a command now reaches"


def test_traced_names_resolve():
    # the benchmark's tracer wraps each name of its ``WRAPPED`` table in its
    # ``nrcdamp`` module, and ``tracing.install`` raises AttributeError on a
    # name the module no longer defines; read the table without importing
    # the benchmark
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "WRAPPED" for target in node.targets)
    ]
    missing = [
        f"{layer}.{name}"
        for layer, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nrcdamp.{layer}"), name, None))
    ]
    assert missing == []
