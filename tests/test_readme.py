"""The README's library example runs as its CI step runs it: a fresh
``python -W error`` process, with scipy unavailable."""

import os
import subprocess
import sys
from pathlib import Path

import nrcdamp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path):
    # the block is cut out exactly as the CI step cuts it
    text = README.read_text(encoding="utf-8")
    fence = chr(96) * 3
    section = text.split("## Library example", 1)[1]
    block = section.split(fence + "python\n", 1)[1].split(fence, 1)[0]
    script = tmp_path / "readme_example.py"
    script.write_text("import sys\nsys.modules['scipy'] = None\n" + block, encoding="utf-8")
    src = str(Path(nrcdamp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
