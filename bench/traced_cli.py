"""One traced `qhpp` command in a fresh interpreter.

    python3 bench/traced_cli.py OUT.json <qhpp arguments>

Times the cold ``import qhpp.cli``, runs ``cli.main`` once under a Tracer with
stdout captured, re-renders a finished classification report untraced, writes
the per-layer metrics to OUT.json and then prints the command's stdout, so the
caller sees exactly what the untraced command prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracing import FILTERS, Tracer  # noqa: E402


def main() -> int:
    out_path, args = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    from qhpp import cli
    import_ms = (time.perf_counter() - start) * 1e3

    tracer = Tracer()
    buf = io.StringIO()
    with tracer, contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(args)
        verb_ms = (time.perf_counter() - start) * 1e3
    metrics = tracer.export()
    metrics["cli.import_ms"] = import_ms
    verb = args[0]
    if verb == "classify":
        index, fmt = int(args[2]), args[4]
        report = tracer.reports[index]
        start = time.perf_counter()
        if fmt == "json":
            json.dumps(cli.report_to_json(report), indent=2, sort_keys=True)
        else:
            cli.report_to_markdown(report)
        metrics[f"cli.render_{fmt}_ms.idx{index}"] = (time.perf_counter() - start) * 1e3
        # Both formats of one index classify once each; count the outcomes once.
        if fmt == "json":
            for name in FILTERS:
                metrics[f"screening.obstructed.{name}.idx{index}"] = sum(
                    r.verdict(name).obstructed for r in report.candidates)
    else:
        metrics[f"cli.verb_ms.{verb}"] = verb_ms
    out_path.write_text(json.dumps(metrics))
    sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
