"""Run the nrcdamp CLI with tracing installed, for the traced cold-cli runs.

    python perfbench/traced_cli.py <trace.json> <command> <config> --out <dir>
    python perfbench/traced_cli.py <trace.json> --import-only

Writes per-function totals of the spans to ``<trace.json>`` and exits with
the CLI's status. ``src`` must be on ``PYTHONPATH``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    status = 0
    if cli_args != ["--import-only"]:
        import nrcdamp.cli

        tracer.enabled = True
        try:
            status = nrcdamp.cli.main(cli_args)
        finally:
            tracer.enabled = False
    trace_path.write_text(json.dumps(tracing.to_json(tracer.summary())), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
