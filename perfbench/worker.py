"""One benchmark process: set-up, timed closed loop, then checks.

    python3 perfbench/worker.py setup --workload W --seed N --workdir D
    python3 perfbench/worker.py main  --workload W --seed N --workdir D \
        --seconds S --trace 0|1 --record R

``perfbench/run.py`` starts this script in a fresh process with BLAS
threads pinned and ``src`` on the path; it is not meant to be run by hand.
``setup`` imports the package, runs the warm-up operation and reports
when it ended. ``main`` does the same, runs the self-test of the tracer,
then the timed phase, then every output check and oracle, and prints one
JSON line. Oracles run only after timing, so their caches cannot warm
the timed phase.
"""

import argparse
import dataclasses
import gzip
import hashlib
import importlib.metadata
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

FIDELITY_FLOOR = 1.0 - 1e-9
STATIONARITY_CEILING = 1e-12
SIGMAS = 5
# one-sided normal tail beyond 5 sigma; tails are exact binomial sums,
# because a normal 5-sigma band is far too narrow for a few trials
ALPHA = 2.866515718791939e-07


def _log_pmf(k, n, p):
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def _binom_le(k, n, p):
    """P(X <= k) for X ~ Binomial(n, p)."""
    if k < 0:
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return sum(math.exp(_log_pmf(j, n, p)) for j in range(k + 1))


def _binom_ge(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    return _binom_le(n - k, n, 1.0 - p)


def _import_package():
    import cavityq
    from cavityq import cli, experiments

    where = Path(cavityq.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"cavityq imported from {where}, not from this checkout")
    return cli, experiments


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _num(x):
    return "none" if x is None else "%.17g" % x


@dataclasses.dataclass
class Result:
    op: workloads.Op
    latency: float = 0.0
    cpu: float = 0.0
    rc: object = None
    out: Path = None
    work: int = 0  # trials run, or branch-tree leaves enumerated
    value: object = None  # reduced exact-query answer
    digest: str = ""
    errors: list = dataclasses.field(default_factory=list)


class Runner:
    """Executes operations the way a user of the package would."""

    def __init__(self, workdir, cli, experiments):
        self.workdir = Path(workdir)
        self.cli = cli
        self.experiments = experiments
        (self.workdir / "configs").mkdir(parents=True, exist_ok=True)
        (self.workdir / "out").mkdir(parents=True, exist_ok=True)

    def execute(self, op, tag=""):
        name = f"op{op.index}{tag}"
        config = self.workdir / "configs" / f"{name}.json"
        config.write_text(json.dumps(op.doc, indent=1), encoding="utf-8")
        res = Result(op, out=self.workdir / "out" / name)
        kind = op.kind
        try:
            if kind.command in ("run", "sweep"):
                self._cli(res, config)
            else:
                self._query(res, config)
        except Exception:
            res.errors.append(traceback.format_exc(limit=4))
        return res

    def _cli(self, res, config):
        kind = res.op.kind
        argv = [kind.command, "--config", str(config), "--out", str(res.out)]
        if kind.check:
            argv.append("--check")
        started = time.perf_counter()
        cpu = time.process_time()
        try:
            res.rc = self.cli.main(argv)
        except SystemExit as exc:
            res.rc = exc.code
        res.latency = time.perf_counter() - started
        res.cpu = time.process_time() - cpu
        points = len(res.op.doc["sweep"]["values"]) if kind.command == "sweep" else 1
        res.work = kind.trials * points

    def _query(self, res, config):
        cfg = self.cli.load_config(str(config))
        experiments = self.experiments
        if res.op.kind.command == "enumerate":
            started = time.perf_counter()
            cpu = time.process_time()
            records = experiments.enumerate_branches(cfg)
            res.latency = time.perf_counter() - started
            res.cpu = time.process_time() - cpu
            res.work = len(records)
            rows = [
                (r.weight, r.success, r.attempts, r.fidelity, r.outcomes)
                for r in records
            ]
            res.value = rows
            text = "\n".join(
                f"{_num(w)}|{int(s)}|{a}|{_num(f)}|{o}" for w, s, a, f, o in rows
            )
        else:
            started = time.perf_counter()
            cpu = time.process_time()
            value = experiments.estimate_process_fidelity(cfg.noise, purified=True)
            res.latency = time.perf_counter() - started
            res.cpu = time.process_time() - cpu
            res.value = value
            text = _num(value)
        res.digest = hashlib.sha256(text.encode()).hexdigest()

    def hashes(self, res):
        """sha256 of every file the operation wrote, by relative path."""
        if not res.out.is_dir():
            return {"answer": res.digest} if res.digest else {}
        return {
            str(p.relative_to(res.out)): _sha256(p)
            for p in sorted(res.out.rglob("*"))
            if p.is_file()
        }


class Checker:
    """Output checks against exact laws, run after the timed phase."""

    def __init__(self, runner):
        self.cli = runner.cli
        self.experiments = runner.experiments
        self.laws = {}

    def success_law(self, doc, max_attempts=None):
        """Exact success probability by branch enumeration, cached per config."""
        key = json.dumps(
            [doc["protocol"], doc["noise"], doc["protocol_params"], max_attempts],
            sort_keys=True,
        )
        if key not in self.laws:
            cfg = self.cli.parse_config({**doc, "trials": 1})
            if max_attempts is not None:
                cfg = dataclasses.replace(cfg, max_attempts=max_attempts)
            records = self.experiments.enumerate_branches(cfg)
            self.laws[key] = sum(r.weight for r in records if r.success)
        return self.laws[key]

    @staticmethod
    def _tails(name, successes, n, p, errors):
        if _binom_le(successes, n, p) < ALPHA or _binom_ge(successes, n, p) < ALPHA:
            errors.append(
                f"{name}: {successes} of {n} is beyond {SIGMAS} sigma of "
                f"its exact law {p!r}"
            )

    def check(self, res):
        if res.errors:
            return res.errors
        errors = []
        command = res.op.kind.command
        try:
            if command == "run":
                self._check_run(res, errors)
            elif command == "sweep":
                self._check_sweep(res, errors)
            elif command == "enumerate":
                self._check_enumeration(res, errors)
            else:
                self._check_process_fidelity(res, errors)
        except Exception:
            # missing or malformed outputs fail this operation, not the run
            errors.append(traceback.format_exc(limit=4))
        return errors

    def _check_run(self, res, errors):
        doc = res.op.doc
        if res.rc != 0:
            errors.append(f"exit code {res.rc!r}, expected 0")
            return
        summary = json.loads((res.out / "report.json").read_text())["summary"]
        n = summary["trials"]
        if n != doc["trials"]:
            errors.append(f"report has {n} trials, config asked for {doc['trials']}")
            return
        thermal = doc["noise"].get("p_therm", 0.0) > 0.0
        if not thermal and (
            summary["min_fidelity"] is None or summary["min_fidelity"] < FIDELITY_FLOOR
        ):
            errors.append(f"min fidelity {summary['min_fidelity']!r} below the floor")
        successes = round(summary["success_probability"] * n)
        protocol = doc["protocol"]
        if protocol == "epr":
            p_attempt = self.success_law(doc, max_attempts=1)
            law = self.experiments.attempt_statistics(p_attempt, doc["max_attempts"])
            self._tails("success rate", successes, n, law.success_probability, errors)
            with open(res.out / "trials.csv", encoding="utf-8") as fh:
                next(fh)
                attempts = sum(int(line.split(",")[2]) for line in fh)
            # failures before the heralds are negative binomial per attempt
            failures = attempts - successes
            if successes and (
                _binom_le(successes - 1, attempts - 1, p_attempt) < ALPHA
                or _binom_ge(successes, attempts, p_attempt) < ALPHA
            ):
                errors.append(
                    f"herald rate: {successes} heralds after {failures} misses is "
                    f"beyond {SIGMAS} sigma of its exact law {p_attempt!r}"
                )
        elif not (protocol == "gate_purified" and thermal):
            # the thermal purified gate has thousands of leaves: no law
            self._tails("herald rate", successes, n, self.success_law(doc), errors)

    def _check_sweep(self, res, errors):
        if res.rc != 0:
            errors.append(f"exit code {res.rc!r}, expected 0")
            return
        values = res.op.doc["sweep"]["values"]
        with open(res.out / "sweep.csv", encoding="utf-8") as fh:
            next(fh)
            rows = [line.rstrip("\r\n").split(",") for line in fh]
        if [float(r[1]) for r in rows] != [float(v) for v in values]:
            errors.append("sweep.csv does not list the configured grid")
            return
        devs = [float(r[7]) for r in rows]
        if any(b < a for a, b in zip(devs, devs[1:])):
            errors.append(f"stationarity deviations decrease: {devs}")
        if values[0] == 0.0 and devs[0] > STATIONARITY_CEILING:
            errors.append(f"vacuum stationarity deviation {devs[0]!r}")
        for k in range(len(values)):
            if not (res.out / f"point_{k}" / "report.json").is_file():
                errors.append(f"point_{k}/report.json missing")

    def _check_enumeration(self, res, errors):
        doc = res.op.doc
        rows = res.value
        total = sum(w for w, *_ in rows)
        if abs(total - 1.0) > 1e-10:
            errors.append(f"leaf weights sum to {total!r}")
        thermal = doc["noise"].get("p_therm", 0.0) > 0.0
        wins = [row for row in rows if row[1]]
        if not thermal and any(f < FIDELITY_FLOOR for _, _, _, f, _ in wins):
            errors.append("a heralded leaf is below the fidelity floor")
        if doc["protocol"] == "epr":
            law = self.experiments.attempt_statistics(
                self.success_law(doc, max_attempts=1), doc["max_attempts"]
            )
            got = sum(w for w, *_ in wins)
            if abs(got - law.success_probability) > 1e-9:
                errors.append(
                    f"enumerated success {got!r} differs from the truncated "
                    f"geometric law {law.success_probability!r}"
                )

    def _check_process_fidelity(self, res, errors):
        if res.value < FIDELITY_FLOOR:
            errors.append(f"process fidelity {res.value!r} below the floor")
        # leaves behind the answer: the gate tree for every probe input
        cfg = self.cli.parse_config(res.op.doc)
        for amps in self.experiments.PROBE_AMPS:
            probe = dataclasses.replace(cfg, protocol_params={"amps": amps})
            res.work += len(self.experiments.enumerate_branches(probe))


def _versions():
    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def _git_sha():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = git / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **_versions(),
        "git_sha": _git_sha(),
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def per_layer_metrics(tr, results, ops):
    n = len(results)
    agg = tr.aggregate()
    out = {}
    for name, row in agg.items():
        out[f"{name}.calls"] = row["calls"] / n
        out[f"{name}.total_ms"] = row["total_ms"] / n
        out[f"{name}.self_ms"] = row["self_ms"] / n

    def share(part, name):
        calls = agg[name]["calls"]
        return part / calls if calls else 0.0

    out["experiments.enumerate_branches.leaves"] = tr.leaves / n
    out["protocols.ScriptedChooser.choose.replayed_share"] = share(
        tr.replayed, "protocols.ScriptedChooser.choose"
    )
    out["dynamics.propagator.repeat_share"] = share(
        tr.propagator_repeats, "dynamics.propagator"
    )
    out["channels.make_local_channel.repeat_share"] = share(
        tr.channel_repeats, "channels.make_local_channel"
    )
    out["hilbert.apply.state_mb"] = tr.state_bytes / 1e6 / n
    out["inputs.repeat_share"] = workloads.repeat_share(ops)
    out["trace.op_ms_p50"] = statistics.median(r.latency for r in results) * 1e3
    out["trace.spans_per_op"] = len(tr.spans) / n
    return out


def end_to_end_metrics(results, wall, peak_rss_mb):
    latencies = [r.latency * 1e3 for r in results]
    rotations = len({r.op.rotation for r in results})
    return {
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "trials_per_s": sum(r.work for r in results) / wall,
        # a mean, not a median: the CPU switches between two speeds every
        # few seconds, and a median over rotations jumps between the two
        "exact_s": wall / rotations,
        "peak_rss_mb": peak_rss_mb,
    }


def _write_spans(tr, path):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"names": tr.names, "fields": ["name", "start_ns", "end_ns", "parent", "op"]}, fh)
        fh.write("\n")
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")


def main_run(args):
    load_start = _loadavg()
    cli, experiments = _import_package()
    runner = Runner(args.workdir, cli, experiments)
    stream = workloads.plan(args.workload, args.seed)
    warm = runner.execute(next(stream))
    setup_end = time.monotonic()

    problems = []
    first = tracing.selftest()
    second = tracing.selftest()
    problems += [f"tracer self-test: {p}" for p in first]
    if first != second:
        problems.append("tracer self-test did not repeat exactly")
    problems += [f"wrapper before timing: {p}" for p in tracing.surviving_wrappers()]

    tr = tracing.Tracer() if args.trace else None
    results = []
    if tr:
        tr.install()
    started = time.perf_counter()
    deadline = started + args.seconds
    try:
        for op in stream:
            # stop only between rotations, so every kind keeps its share
            if results and op.rotation != results[-1].op.rotation:
                if time.perf_counter() >= deadline:
                    break
            if tr:
                tr.op = op.index
            results.append(runner.execute(op))
    finally:
        if tr:
            tr.uninstall()
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += [f"wrapper after timing: {p}" for p in tracing.surviving_wrappers()]

    checker = Checker(runner)
    failed = 0
    op_rows = []
    for res in [warm] + results:
        errors = checker.check(res)
        failed += bool(errors)
        op_rows.append(
            {
                "index": res.op.index,
                "rotation": res.op.rotation,
                "kind": res.op.kind.name,
                "latency_ms": res.latency * 1e3,
                "cpu_ms": res.cpu * 1e3,
                "work": res.work,
                "rc": res.rc,
                "sha256": runner.hashes(res),
                "errors": errors,
            }
        )
    rerun = runner.execute(warm.op, tag="_rerun")
    if rerun.errors or runner.hashes(rerun) != op_rows[0]["sha256"]:
        failed += not op_rows[0]["errors"]
        op_rows[0]["errors"].append("rerun of the first operation is not byte-identical")

    ops = [warm.op] + [r.op for r in results]
    metrics = end_to_end_metrics(results, wall, peak_rss_mb)
    if tr:
        metrics.update(per_layer_metrics(tr, results, ops))
    attempted = len(op_rows)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_end": setup_end,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "timed_ops": len(results),
        "rotations": len({r.op.rotation for r in results}),
        "trials": sum(r.work for r in results),
        "wall_s": wall,
        "cpu_share": sum(r.cpu for r in results) / sum(r.latency for r in results),
        "repeat_share": workloads.repeat_share(ops),
        "metrics": metrics,
        "environment": {**environment(), "loadavg_start": load_start, "loadavg_end": _loadavg()},
    }
    record = Path(args.record)
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**summary, "ops": op_rows}, indent=1), encoding="utf-8")
    if tr:
        _write_spans(tr, record.with_suffix(".spans.jsonl.gz"))
    print(json.dumps(summary))


def setup_run(args):
    cli, experiments = _import_package()
    res = Runner(args.workdir, cli, experiments).execute(next(workloads.plan(args.workload, args.seed)))
    print(json.dumps({"setup_end": time.monotonic(), "errors": res.errors}))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "main"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    args = parser.parse_args()
    if args.mode == "setup":
        setup_run(args)
    else:
        main_run(args)


if __name__ == "__main__":
    main()
