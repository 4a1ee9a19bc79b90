"""The stokesproj benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is one experiment config
under ``perfbench/configs`` run through ``stokesproj.cli.main``, one
fresh child process per repeat and one process at a time, until
``--seconds`` have been measured.  Every CSV is checked against
``perfbench/reference``.  With ``--trace 0`` the last line of stdout is
a JSON object with the end-to-end metrics (medians over the repeats);
with ``--trace 1`` every repeat is traced and it holds the per-layer
metrics.  ``--workload all`` runs every workload in turn, in an order
drawn from the seed.  See perfbench/README.md for the metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import csvcheck
import layers

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
REL = os.path.relpath(BENCH, ROOT)

# name -> CLI subcommand; the config is perfbench/configs/<name>.cfg.
WORKLOADS = {
    "steady-p1": "steady-sweep",
    "conv-inc-p1": "transient-convergence",
    "probe-p2": "stability-probe",
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_UNTRACED = 3
CHILD_TIMEOUT_S = 170.0
# One BLAS thread: on a small shared machine, spinning BLAS threads made
# repeat-to-run times depend on the neighbours' load.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "stokesproj")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run_child(name, trace, deadline, setup_only=False):
    """One child process; returns (result dict, list of failure reasons)."""
    out_csv = f"{REL}/_work/{name}.csv"
    result_path = os.path.join(WORK, "result.json")
    for path in (result_path, os.path.join(ROOT, out_csv)):
        if os.path.exists(path):
            os.remove(path)
    cmd = [
        sys.executable,
        os.path.join(REL, "child.py"),
        WORKLOADS[name],
        f"{REL}/configs/{name}.cfg",
        out_csv,
        result_path,
    ]
    if trace:
        cmd += ["--trace", os.path.join(WORK, f"{name}-spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    loadavg = os.getloadavg()[0]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=dict(os.environ, **BLAS_THREADS),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"loadavg_1m": loadavg}, ["timed out"]
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"loadavg_1m": loadavg}, [f"child exit {proc.returncode}: {proc.stderr[-2000:]}"]
    with open(result_path) as fh:
        result = json.load(fh)
    result["loadavg_1m"] = loadavg
    if setup_only:
        return result, []
    problems = []
    if result["rc"] != 0:
        problems.append(f"cli exit {result['rc']}: {proc.stderr[-2000:]}")
    if result["wrappers_left"]:
        problems.append(f"tracer wrappers installed: {result['wrappers_left'][:5]}")
    if not problems:
        with open(os.path.join(ROOT, out_csv)) as fh:
            text = fh.read()
        with open(os.path.join(BENCH, "reference", f"{name}.csv")) as fh:
            reference = fh.read()
        problems += [f"failed row: {row}" for row in csvcheck.failed_rows(text)]
        problems += csvcheck.mismatches(text, reference)[:10]
    return result, problems


def run_workload(name, seconds, trace, deadline):
    """Repeat one workload for ``seconds``; returns the run record.

    Untraced, each repeat is a full child followed by a setup-only child,
    so that ``setup_s`` has two samples per repeat.  Traced, each repeat
    is one traced child.
    """
    warm, problems = run_child(name, False, deadline, setup_only=True)
    if problems:
        return {"workload": name, "samples": [], "setups": [], "failures": problems, "warmup": warm}
    samples, setups, failures = [], [], []
    start = time.monotonic()
    longest = 0.0
    while not failures:
        repeat_start = time.monotonic()
        result, problems = run_child(name, trace, deadline)
        result["ok"] = not problems
        samples.append(result)
        failures += problems
        if not trace and not problems:
            extra, problems = run_child(name, False, deadline, setup_only=True)
            failures += problems
            setups += [result["setup_s"]] + ([extra["setup_s"]] if not problems else [])
        longest = max(longest, time.monotonic() - repeat_start)
        enough = len(samples) >= (1 if trace else MIN_UNTRACED)
        if enough and time.monotonic() - start + longest > seconds:
            break
    return {"workload": name, "samples": samples, "setups": setups, "failures": failures,
            "warmup": warm}


def summarize(record, trace):
    """The contract's metrics dict for one workload record."""
    ok = [s for s in record["samples"] if s["ok"]]
    if not ok or record["failures"]:
        return {}
    if trace:
        return {
            metric: {"value": statistics.median(s["layers"][metric] for s in ok), "unit": unit}
            for metric, unit in layers.PER_LAYER
        }
    values = {metric: statistics.median(s[metric] for s in ok) for metric, _ in END_TO_END}
    values["setup_s"] = statistics.median(record["setups"])
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}


def environment(seed):
    return {
        "git_revision": git_revision(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        path
        for path in ["src/stokesproj/cli.py"]
        + [f"{REL}/configs/{name}.cfg" for name in WORKLOADS]
        + [f"{REL}/reference/{name}.csv" for name in WORKLOADS]
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(f"benchmark inputs missing: {missing}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    lock = open(os.path.join(WORK, "lock"), "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print("another benchmark run is in progress; runs must not overlap", file=sys.stderr)
        return 3

    rng = random.Random(args.seed)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    deadline = time.monotonic() + CHILD_TIMEOUT_S * len(names)
    env = environment(args.seed)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        record = run_workload(name, args.seconds, bool(args.trace), deadline)
        warm = record["warmup"]
        record["environment"] = env = dict(
            env, numpy=warm.get("numpy"), scipy=warm.get("scipy"), blas=warm.get("blas")
        )
        with open(os.path.join(WORK, f"{name}-trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        samples = record["samples"]
        runs = max(1, len(samples))
        runs_failed = sum(not s["ok"] for s in samples) or int(bool(record["failures"]))
        attempted += runs
        failed += runs_failed
        print(f"# {name}: {len(samples)} runs, {len(record['setups'])} setup samples, "
              f"load average {[round(s['loadavg_1m'], 2) for s in samples]}")
        for problem in record["failures"]:
            print(f"# {name} FAILED: {problem}")
        print(f"# {name} failed_ops {runs_failed / runs:g} share")
        for metric, entry in summarize(record, bool(args.trace)).items():
            print(f"# {name} {metric} {entry['value']:.6g} {entry['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = entry
    print("# environment " + json.dumps(env, sort_keys=True))
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
