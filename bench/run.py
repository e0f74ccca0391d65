"""The symrig benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # every workload, one after another
    python3 bench/run.py --smoke

Run from the repository root. The benchmark generates the workload's
problems from the seed, checks them, then runs passes over the workload's
command list until S seconds have gone by (and at least two passes). Each pass is
a fresh interpreter (``bench/worker.py``) that calls ``symrig.cli.main``
once per command, one after another: a closed loop with a single client.
BLAS runs single-threaded in every pass.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

* ``pass_s``: median wall time of one pass over the command list;
* ``cmd_p50_ms`` / ``cmd_tail_ms``: median single-command latency, and the
  latency with exactly ten slower commands beyond it (its percentile and
  the sample count are on the line before);
* ``setup_s``: median time from a fresh interpreter to ``import symrig`` done,
  over several interpreters started between the passes;
* ``peak_rss_mb``: the largest max-RSS of a pass.

With ``--trace 1`` it holds the per-layer metrics of traced passes (spans
around symrig's module boundaries, see ``tracing.py``), alternated with
untraced passes that give ``trace.overhead_frac``. The spans of the last
traced pass are written to ``.bench_work/spans-<workload>-<seed>.jsonl``.

Every command's exit code and output are checked (``checks.py``);
``failed`` counts commands that differ from their expected values, and the
line before the result gives ``failed_frac`` and the run's metadata.

``--smoke`` runs every workload at its smallest size, traced and not, parses
every generated problem with symrig, and checks that every metric named in
BENCHMARK.json is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = Path(".bench_work")
SRC = Path("src") / "symrig"
SETUP_REPEATS = 9
# Set-up samples taken before each pass, so that a run of two passes still
# draws them from two moments rather than one.
SETUPS_PER_PASS = 5
# Every command latency is one sample; two passes give each command of the
# slowest workload two samples per run.
MIN_PASSES = 2
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170
SETUP_CODE = "import symrig, time; print(repr(time.perf_counter()))"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def measure_setup(env: dict) -> float:
    """Time from starting a fresh interpreter to ``import symrig`` done.

    The child reads the same monotonic clock right after the import.
    """
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    return float(proc.stdout) - t0


def run_pass(manifest: Path, env: dict, trace: bool, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), str(manifest)]
    if trace:
        argv.append("--trace")
        if spans is not None:
            argv += ["--spans", str(spans)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def parse_problems(manifest: Path, env: dict) -> list[str]:
    """Problems symrig fails to parse although a command expects them to work."""
    code = (
        "import json, sys\n"
        "from symrig.errors import SymrigError\n"
        "from symrig.problem import load_problem\n"
        "bad = []\n"
        "for path, must_parse in json.load(sys.stdin):\n"
        "    try:\n"
        "        load_problem(path)\n"
        "        ok = True\n"
        "    except SymrigError:\n"
        "        ok = False\n"
        "    if ok != must_parse:\n"
        "        bad.append(path)\n"
        "print(json.dumps(bad))\n"
    )
    data = json.loads(manifest.read_text(encoding="utf-8"))
    paths = {}
    for cmd in data["commands"]:
        if "--problem" in cmd["argv"]:
            path = cmd["argv"][cmd["argv"].index("--problem") + 1]
            paths[path] = paths.get(path, False) or cmd["expect"]["exit"] == 0
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(list(paths.items())),
                          env=env, capture_output=True, text=True, check=True,
                          timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout)


def metadata(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.glob("*.py"))}
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _env()["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "source_lines": {"total": sum(lines.values()), **lines},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Measure one workload; return the result object and the detail object."""
    env = _env()
    wl = workloads.build(workload, seed, size)
    problems = [] if workload == "fixtures" else wl.problems
    bad = {p.name: f for p in problems if (f := checks.check_problem(p.data, p.check_info()))}
    if bad:
        raise RuntimeError(f"generated problems fail the generator check: {bad}")

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    spans = WORK_ROOT / f"spans-{workload}-{seed}.jsonl"
    try:
        manifest = workloads.write(wl, seed, workdir)
        if size == "smoke":
            unparsed = parse_problems(manifest, env)
            if unparsed:
                raise RuntimeError(f"symrig does not parse as expected: {unparsed}")
        # Set-up samples are spread over the first passes of the run.
        setups, plain, traced = [], [], []
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            commands = sum(len(p["latencies"]) for p in plain)
            if trace:
                if elapsed >= seconds and plain and traced:
                    break
                use_trace = len(traced) < len(plain)
            else:
                if elapsed >= seconds and len(plain) >= MIN_PASSES and commands > TAIL_BEYOND:
                    break
                use_trace = False
            for _ in range(min(SETUPS_PER_PASS, SETUP_REPEATS - len(setups))):
                setups.append(measure_setup(env))
            result = run_pass(manifest, env, use_trace, spans if use_trace else None)
            (traced if use_trace else plain).append(result)
        setups += [measure_setup(env) for _ in range(SETUP_REPEATS - len(setups))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    pass_times = [p["pass_s"] for p in plain]
    detail = {
        "workload": workload,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_s_quartiles": _quartiles(pass_times),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "metadata": metadata(seed),
    }
    if trace:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(p["layers"][key] for p in traced)
        layers["trace.overhead_frac"] = (statistics.median(p["pass_s"] for p in traced)
                                         / statistics.median(pass_times) - 1.0)
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        detail["self_share"] = {k[:-7]: v / self_total for k, v in layers.items()
                                if k.endswith(".self_s")}
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        latencies = sorted(lat for p in plain for lat in p["latencies"])
        n = len(latencies)
        detail["cmd_tail"] = {"percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "cmd_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "cmd_tail_ms": {"value": 1e3 * latencies[n - TAIL_BEYOND - 1], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(p["rss_mb"] for p in plain), "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, detail


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def smoke() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, detail = run(workload, 1, 0.0, trace, size="smoke")
            want = {m["name"] for m in spec[group]}
            missing = sorted(want - set(result["metrics"]))
            extra = sorted(set(result["metrics"]) - want)
            good = result["correct"] and not missing and not extra
            ok = ok and good
            print(json.dumps({"workload": workload, "trace": int(trace), "ok": good,
                              "missing": missing, "extra": extra,
                              "failures": detail["failures"]}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"no {SRC} here: run from the root of a symrig checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, detail = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(detail))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
