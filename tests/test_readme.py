"""The README's library example runs in a fresh ``python -W error`` process,
with scipy unavailable, and ends by printing a stable sampled loop's radius."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, run_python):
    text = README.read_text(encoding="utf-8")
    fence = chr(96) * 3
    section = text.split("## Library example", 1)[1]
    block = section.split(fence + "python\n", 1)[1].split(fence, 1)[0]
    script = tmp_path / "readme_example.py"
    script.write_text("import sys\nsys.modules['scipy'] = None\n" + block, encoding="utf-8")
    proc = run_python("-W", "error", str(script))
    assert proc.returncode == 0, proc.stderr
    # its last line is the sampled dual loop's spectral radius
    assert 0.0 < float(proc.stdout.split()[-1]) < 1.0
