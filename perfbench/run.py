"""Repository benchmark: one command, four workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload gemm-thrash --seed 20230613 \\
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and then runs a traced
phase, and reports the per-layer metrics plus ``trace.overhead_frac``
(the traced phase's throughput loss against the untraced one). Metric
names, units and bounds come from ``BENCHMARK.json``.

Every run checks the program's output against golden values. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero
when any check failed. The lines above it are a readable report with
the host facts. A record of the run (host facts, metrics, errors, and
the spans of a traced run) is written under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPS = 5
#: The program's import is timed in this many fresh interpreters; the
#: median is reported.
IMPORT_REPS = 5
_IMPORT_PROBE = ("import sys, time; started = time.perf_counter(); "
                 "sys.path[:0] = sys.argv[1:]; import perfbench.workloads; "
                 "print(time.perf_counter() - started)")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _configure_environment() -> dict:
    """Pin the program's configuration: the engine's ``REPRO_*`` knobs
    come from the environment, so an inherited one would change what
    is measured. Temporary files (the engine's mmapped segment ring)
    go inside the checkout, so the benchmark writes nowhere else; the
    returned facts say whether that is the filesystem the default
    temporary directory is on."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    default_tmp = tempfile.gettempdir()
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    return {"ring_dir_on_default_tmp_fs":
            os.stat(tmp).st_dev == os.stat(default_tmp).st_dev}


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(ROOT)],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


def git_sha() -> str:
    """HEAD's commit from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """Content hash of ``src/``; identifies the code when there is no
    git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(workload_facts: dict, env_facts: dict) -> dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    facts = {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        **env_facts,
    }
    for key in ("engine_mode", "n_workers"):
        if key in workload_facts:
            facts[key] = workload_facts[key]
    # Results are comparable only between runs with equal keys: the
    # engine mode and worker count follow the CPU count.
    facts["comparable_key"] = "|".join(str(facts.get(k)) for k in (
        "usable_cpus", "machine", "python", "numpy", "engine_mode",
        "n_workers"))
    return facts


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child
    (the engine's workers are joined by then)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup(workload, seed: int):
    """Set the workload up ``SETUP_REPS`` times, tearing down all but
    the last; returns ``(state, median seconds)``."""
    times = []
    for rep in range(SETUP_REPS):
        started = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - started)
        if rep < SETUP_REPS - 1:
            workload.teardown(state)
    return state, statistics.median(times)


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        spec: dict, env_facts: dict) -> dict:
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    state, setup_s = _setup(workload, seed)
    tracer = None
    try:
        if not traced:
            phase = workload.measure(state, seconds)
            checked = [phase]
        else:
            plain = workload.measure(state, seconds / 2)
            tracer = Tracer(f"{workload_name}-{seed}")
            workload.patch(tracer)
            try:
                phase = workload.measure(state, seconds / 2, tracer)
            finally:
                tracer.restore()
            checked = [plain, phase]
            layers = workload.layers(state, tracer, phase)
            layers["trace.overhead_frac"] = (
                1.0 - phase.work_per_s / plain.work_per_s)
    finally:
        workload.teardown(state)

    facts = {k: v for p in checked for k, v in p.facts.items()}
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    errors = [e for p in checked for e in p.errors]
    if traced:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = set(layers) - set(values)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        values.update(layers)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = dict(phase.end_to_end(), peak_rss_mb=peak_rss_mb())
        # The import probes run last: their interpreters are children
        # too, and must not count towards the peak RSS.
        values["setup_s"] = import_seconds() + setup_s
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise KeyError(f"end-to-end metrics {sorted(values)} do not "
                           f"match BENCHMARK.json {sorted(units)}")
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(traced),
        "host": host_facts(facts, env_facts),
        "facts": facts,
        "errors": errors, "tracer": tracer,
        "result": {
            "correct": not errors and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(values[name]),
                               "unit": units[name]} for name in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20230613)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        _fail(f"run from a checkout of the repository: {SRC / 'repro'} "
              f"and {spec_path} are required")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; choose from {names}")

    env_facts = _configure_environment()
    sys.path[:0] = [str(SRC), str(ROOT)]

    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spec, env_facts)
    result = record["result"]

    runs = WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer")
    if tracer is not None:
        tracer.dump(runs / f"{stem}.spans.jsonl")
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(record["host"], sort_keys=True))
    if record["facts"]:
        print("facts: " + json.dumps(record["facts"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:16.6g} {metric['unit']}")
    print(f"checks: {result['attempted'] - result['failed']}/"
          f"{result['attempted']} operations passed")
    for error in record["errors"]:
        print("  FAIL " + error.rstrip().replace("\n", "\n       "))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
