"""Benchmark of exact verification with heckeverify.

One run measures one workload::

    python3 perfbench/run.py --workload two-boundary --seed 7 --seconds 20 --trace 0

and prints the environment as one JSON line, then the result as the last
line: ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` it runs every workload one after another, each in a fresh
process, and prints each one's metrics by name and unit.

A run with ``--seed n`` verifies the workload at suite seeds ``2n`` and
``2n + 1`` (a traced run at ``2n`` only).  An untraced run (``--trace 0``)
times fresh single-threaded processes of the program in ``src`` of this
checkout:

* ``wall_s`` and ``peak_rss_mib``: ``heckeverify suite`` on the workload, run
  as the installed console script runs it (``launch.py``), spawn to exit;
* ``verify_s``: the time ``run_suite`` takes inside that same process;
* ``setup_s``: a process that imports the package and builds the workload's
  representations (and kits), spawn to exit (``setup_probe.py``).

Rounds of one suite process and one set-up process per suite seed repeat
until ``--seconds`` have passed, so a run measures whole rounds and at least
one; set-up is also sampled a few times before the first round, and each
metric is the median of its samples.  A traced run (``--trace 1``) instead
alternates an untraced and a traced ``run_suite`` in a worker that has
imported the package, and reports the per-layer metrics.  Either way, all
reports at one suite seed must be byte-identical, and the dense oracle
checks specialization 0 after the timed rounds.  One operation is one check
in a report; it fails when its status is ``fail`` or the oracle contradicts it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("suite-default", "two-boundary", "one-boundary", "algebra")
SETUP_SAMPLES = 6
DEADLINE_S = 170   # a run that has not finished by now is killed


class Children:
    """Processes the run started; all are killed and reaped on exit."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def spawn(self, args, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(args, cwd=ROOT, **kwargs)
        self.procs.append(proc)
        return proc

    def wait(self, proc) -> tuple[int, float]:
        """Wait for ``proc``; return (exit code, peak RSS in MiB)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.procs.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.procs.clear()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_SEED", None)   # would override the workload seed
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def timed(children: Children, args, env) -> tuple[float, float]:
    """Spawn-to-exit seconds and peak RSS (MiB) of one process; it must exit 0 or 1."""
    t0 = time.perf_counter()
    proc = children.spawn(args, env=env, stdout=subprocess.DEVNULL)
    code, rss = children.wait(proc)
    seconds = time.perf_counter() - t0
    if code not in (0, 1):   # 1: the report holds failing checks
        raise RuntimeError(f"{' '.join(args)} exited with {code}")
    return seconds, rss


class Worker:
    def __init__(self, children: Children, config: str, seed: int, env):
        self.proc = children.spawn([sys.executable, os.path.join(HERE, "worker.py"), config,
                                    str(seed)], env=env, stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True)

    def call(self, cmd: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker died during {cmd!r}")
        return json.loads(line)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def count_failed(reports: list[str], oracle: dict) -> tuple[int, int]:
    """(attempted, failed) over every report of the run."""
    contradicted = {c for r in oracle["results"] if not r["ok"] for c in r["checks"]}
    spec0 = oracle["spec0"].items()
    attempted = failed = 0
    for text in reports:
        for entry in json.loads(text)["reports"]:
            attempted += 1
            if entry["status"] == "fail" or (
                    entry["check_name"] in contradicted
                    and all(entry["params"].get(k) == v for k, v in spec0)):
                failed += 1
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    config = os.path.join("perfbench", "workloads", f"{workload}.json")
    # two suite seeds halve the spread that the inputs of a single seed add
    seeds = [2 * seed] if trace else [2 * seed, 2 * seed + 1]
    env = child_env()
    children = Children()
    samples: dict[str, list] = {}
    reports: dict[int, list[str]] = {s: [] for s in seeds}

    def setup(s: int) -> list[str]:
        return [sys.executable, os.path.join(HERE, "setup_probe.py"), config, str(s)]

    try:
        for s in seeds:
            timed(children, setup(s), env)   # untimed warm-up: page cache, bytecode
        start = time.perf_counter()
        if trace:
            worker = Worker(children, config, seeds[0], env)
        else:
            samples["setup_s"] = [timed(children, setup(seeds[i % 2]), env)[0]
                                  for i in range(SETUP_SAMPLES)]
        while True:
            for s in seeds:
                if trace:
                    plain = worker.call("verify")
                    traced = worker.call("trace", spans=os.path.join(
                        OUT, f"trace-{workload}-suite{s}.json"))
                    reports[s] += [plain["report"], traced["report"]]
                    for name, value in (("verify_s", plain["seconds"]),
                                        ("traced_s", traced["seconds"]),
                                        ("layers", traced["metrics"])):
                        samples.setdefault(name, []).append(value)
                    continue
                report = os.path.join(OUT, f"report-{workload}-suite{s}.json")
                timing = os.path.join(OUT, f"timing-{workload}-suite{s}.txt")
                for stale in (report, timing):   # a crashed process must not pass
                    if os.path.exists(stale):
                        os.remove(stale)
                wall, rss = timed(children, [
                    sys.executable, os.path.join(HERE, "launch.py"), timing, "suite",
                    "--config", config, "--seed", str(s), "--out", report], env)
                with open(report, encoding="utf-8") as fh:
                    reports[s].append(fh.read())
                with open(timing, encoding="utf-8") as fh:
                    verify = float(fh.read())
                for name, value in (("wall_s", wall), ("peak_rss_mib", rss),
                                    ("verify_s", verify),
                                    ("setup_s", timed(children, setup(s), env)[0])):
                    samples.setdefault(name, []).append(value)
            if time.perf_counter() - start >= seconds:
                break
        if not trace:
            worker = Worker(children, config, seeds[0], env)
        oracle = worker.call("oracle", report=reports[seeds[0]][-1])
        environment = worker.call("env")
        environment.update(git_sha=git_sha(), workload=workload, seed=seed,
                           suite_seeds=seeds, trace=int(trace))
        worker.proc.stdin.close()
        children.wait(worker.proc)
    finally:
        children.close()

    problems = [f"oracle: {r['identity']}: {r['detail']}" for r in oracle["results"]
                if not r["ok"]]
    for s, texts in reports.items():
        if len(set(texts)) != 1:
            problems.append(f"{len(set(texts))} different reports at suite seed {s}")
    if trace:
        metrics = {}
        for name in samples["layers"][0]:
            values = [layers[name] for layers in samples["layers"]]
            if name.rsplit(".", 1)[-1] in ("s", "self_s"):
                metrics[name] = statistics.median(values)
            elif len(set(values)) != 1:
                problems.append(f"count {name} differs between traced rounds: {values}")
            else:
                metrics[name] = values[0]
        metrics["trace.overhead_ratio"] = (statistics.median(samples["traced_s"])
                                           / statistics.median(samples["verify_s"]))
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")
    attempted, failed = count_failed([t for texts in reports.values() for t in texts], oracle)
    record = {"environment": environment, "samples": samples, "problems": problems,
              "oracle": oracle["results"]}
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in problems:
        print(line, file=sys.stderr)
    return {"environment": environment,
            "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": metrics[name], "unit": unit}
                                   for name, unit in declared.items()}}}


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of this script."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: failed to run (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(lines[-1])
        status |= 0 if result["correct"] and not result["failed"] else 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "heckeverify", "cli.py")):
        print(f"no heckeverify sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    os.makedirs(OUT, exist_ok=True)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  declared_metrics(bool(args.trace)))
    signal.alarm(0)
    print(json.dumps(out["environment"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
