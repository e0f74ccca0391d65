"""One pass over a workload's command list, in the interpreter it starts in.

    PYTHONPATH=src python3 bench/worker.py MANIFEST [--trace] [--spans PATH]

Runs ``symrig.cli.main(argv)`` for each command in order (a closed loop with
one client), capturing stdout. After the timed pass it checks every output
and prints one JSON line: pass time, per-command latencies, failures, peak
RSS and, with ``--trace``, the per-layer metrics of this pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import check_command


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the spans of this pass here as JSON lines")
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))

    import symrig
    import symrig.cli

    source = (Path.cwd() / "src" / "symrig").resolve()
    if Path(symrig.__file__).resolve().parent != source:
        print(f"symrig was imported from {symrig.__file__}, not from {source}", file=sys.stderr)
        return 2

    run = symrig.cli.main
    tracer = None
    if args.trace:
        from tracing import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("cli", "cli.main", run)

    commands = manifest["commands"]
    latencies, outputs = [], []
    start = perf_counter()
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.request = i
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = run(cmd["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash fails this command, the pass goes on
                code = traceback.format_exc(limit=-3)
        latencies.append(perf_counter() - t0)
        outputs.append((code, buf.getvalue()))
    pass_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = []
    for i, (cmd, (code, text)) in enumerate(zip(commands, outputs)):
        try:
            why = check_command(cmd, code, text, manifest["problems"][cmd["problem"]])
        except (KeyError, TypeError, ValueError, IndexError) as exc:  # output of the wrong shape
            why = [f"unexpected output: {type(exc).__name__}: {exc}"]
        if why:
            failed.append({"command": i, "argv": cmd["argv"], "why": why})
    result = {"pass_s": pass_s, "latencies": latencies, "failed": failed, "rss_mb": rss_mb}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span_id, parent, layer, name, request, t0, t1 in tracer.spans:
                    fh.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                         "name": name, "request": request,
                                         "start": t0 - start, "end": t1 - start}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
