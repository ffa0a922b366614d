"""cavityq benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_analytic --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it benchmarks the package under
``src/`` and nothing installed elsewhere. With ``--trace 0`` it prints the
end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` the
per-layer metrics, from a run whose layer functions are wrapped by
``perfbench/tracer.py``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit, plus the error rate and the inputs'
repeat share. A full record of the run, with the sha256 of every report,
goes to ``.bench_out/``.

Every workload runs in fresh processes of ``perfbench/worker.py`` with
BLAS pinned to one thread. Set-up time is the median over several fresh
processes, each timed from its start to the end of its first operation.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# fresh processes timed for set-up, besides the one that runs the workload
SETUP_SAMPLES = 5
# every process must end well inside the 180 s a run may take
DEADLINE_S = 170.0


def _child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv, timeout):
    """Run a worker; returns (its last stdout line as JSON, seconds from start)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + argv,
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {argv[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {argv[0]} printed no result")
    out = json.loads(lines[-1])
    return out, out["setup_end"] - started


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cavityq" / "cli.py").is_file():
        print(f"error: no cavityq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    started = time.monotonic()

    def budget():
        return DEADLINE_S - (time.monotonic() - started)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        errors = []
        if not args.trace:
            for k in range(SETUP_SAMPLES):
                out, seconds = _spawn(
                    ["setup", *common, "--workdir", str(workdir / f"setup{k}")],
                    timeout=budget(),
                )
                setup.append(seconds)
                errors += out["errors"]
        record = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        run, seconds = _spawn(
            [
                "main", *common,
                "--workdir", str(workdir / "main"),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--record", str(record),
            ],
            timeout=budget(),
        )
        setup.append(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = dict(run["metrics"])
    measured["setup_s"] = statistics.median(setup)
    declared = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    problems = run["problems"] + [f"set-up: {e}" for e in errors]
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.workload == "exact" and not args.trace:
        # a leaf is the exact counterpart of a trial: the same number
        print(f"leaves_per_s = {metrics['trials_per_s']['value']:.6g} 1/s (as trials_per_s)")
    print(f"error_rate = {run['error_rate']:.6g} ratio ({run['failed']} of {run['attempted']} operations)")
    print(
        f"timed ops = {run['timed_ops']} in {run['rotations']} rotations, "
        f"{run['trials']} trials or leaves, {run['wall_s']:.3f} s, "
        f"cpu/wall {run['cpu_share']:.3f}"
    )
    print(f"repeat_share = {run['repeat_share']:.4f}")
    print(f"setup samples (s) = {[round(s, 4) for s in setup]}")
    env = run["environment"]
    print(
        f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, jsonschema {env['jsonschema']}, git {env['git_sha']}, "
        f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}"
    )
    for p in problems:
        print(f"problem: {p}")
    print(f"record: {record.relative_to(ROOT)}")
    result = {
        "correct": run["failed"] == 0 and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
