#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_driver from source on first use (CMake, into
.bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when that is set),
runs the workload, and prints:

  * a `fingerprint:` line (host, compiler, build type, commit, MTS_* knobs);
  * one `accounting:` line per phase (operations attempted and failed);
  * with --trace 1, each layer's self time and the tracing overhead, and
    the Chrome trace's path after checking it against tools/trace_schema.json;
  * last, one JSON object: correct, attempted, failed, and the metrics that
    BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
    --trace 1).  A metric the build does not record is left out.

Exits non-zero, without the JSON line, when the program cannot be built or
the driver fails; exits 1 after the JSON line when an answer check failed.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target) if os.path.isabs(target) else ROOT / target
    return base / "perfbench"


def build_driver() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}; nothing to build")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # One build at a time per build tree, also when runs overlap.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            run_build(["cmake", "-S", str(HERE), "-B", str(out),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        run_build(["cmake", "--build", str(out), "--target", "perfbench_driver", "-j", jobs])
    return out / "perfbench_driver"


def run_build(command: list[str]) -> None:
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        raise SystemExit(f"perfbench: build step failed: {' '.join(command)}")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks() -> list[int] | None:
    """The aggregate CPU line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal (in clock ticks), or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:9]
        return [int(f) for f in fields] if len(fields) == 8 else None
    except (OSError, ValueError, IndexError):
        return None


def steal_pct(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests while the
    driver ran.  On a shared host it is the first suspect for a noisy run."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(100.0 * delta[7] / sum(delta), 2) if sum(delta) > 0 else None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return result.stdout.strip() or "unknown"


def fingerprint(notes: dict, cpu_steal_pct: float | None) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "compiler": notes.get("compiler", "unknown"),
        "build_type": notes.get("build_type", "unknown"),
        "commit": git_commit(),
        "mts_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MTS_")},
        "threads": notes.get("threads"),
        "server_workers": notes.get("server_workers"),
        "connections": notes.get("connections"),
        "city": notes.get("city"),
        "cpu_steal_pct": cpu_steal_pct,
    }


def validate_schema(value, schema, path="$") -> str | None:
    """The JSON-schema subset tools/trace_schema.json uses: type, required,
    properties, items, enum, minimum.  Returns the first violation."""
    if "enum" in schema:
        return None if value in schema["enum"] else f"{path}: {value!r} not in {schema['enum']}"
    kind = schema.get("type")
    checks = {
        "object": lambda v: isinstance(v, dict),
        "array": lambda v: isinstance(v, list),
        "string": lambda v: isinstance(v, str),
        "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    }
    if kind in checks and not checks[kind](value):
        return f"{path}: expected {kind}"
    if "minimum" in schema and value < schema["minimum"]:
        return f"{path}: {value} < {schema['minimum']}"
    if kind == "object":
        for key in schema.get("required", []):
            if key not in value:
                return f"{path}: missing {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                problem = validate_schema(value[key], sub, f"{path}.{key}")
                if problem:
                    return problem
    if kind == "array" and "items" in schema:
        for i, item in enumerate(value):
            problem = validate_schema(item, schema["items"], f"{path}[{i}]")
            if problem:
                return problem
    return None


def check_trace(trace_file: Path) -> str | None:
    schema_file = ROOT / "tools" / "trace_schema.json"
    if not schema_file.is_file():
        return f"no trace schema at {schema_file}"
    try:
        trace = json.loads(trace_file.read_text())
    except (OSError, ValueError) as error:
        return f"unreadable trace {trace_file}: {error}"
    if not trace.get("traceEvents"):
        return "trace has no events"
    return validate_schema(trace, json.loads(schema_file.read_text()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    # The driver knows every workload, including ones BENCHMARK.json does
    # not gate (boston: see README.md), and rejects unknown names itself.
    wanted = [m["name"] for m in spec[section]]

    driver = build_driver()
    work_dir = build_dir().parent / "work" / args.workload
    command = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    ticks_before = cpu_ticks()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    stolen = steal_pct(ticks_before, cpu_ticks())
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench: driver exited {result.returncode} without a result")
    full = json.loads(lines[-1])

    print("fingerprint: " + json.dumps(fingerprint(full["notes"], stolen), sort_keys=True))
    for tally in full["accounting"]:
        extra = " ".join(f"{k}={v}" for k, v in tally.items()
                         if k not in ("phase", "attempted", "failed"))
        print(f"accounting: {tally['phase']:<18} attempted={tally['attempted']} "
              f"failed={tally['failed']} {extra}".rstrip())
    correct = bool(full["correct"])
    for failure in full["check_failures"]:
        print(f"check failed: {failure}")
    metrics = full["metrics"]
    if args.trace:
        for name in sorted(n for n in metrics if n.startswith("self_s.")):
            print(f"layer self time: {name[len('self_s.'):]:<10} {metrics[name]['value']:.6f} s")
        for name in sorted(n for n in metrics if n.startswith("trace_overhead.")):
            print(f"trace overhead: {name[len('trace_overhead.'):]:<16} "
                  f"{metrics[name]['value']:+.2f} %")
        trace_file = Path(full["notes"].get("trace_file", ""))
        problem = check_trace(trace_file)
        if problem:
            print(f"check failed: trace file: {problem}")
            correct = False
        else:
            print(f"trace: {trace_file} (valid against tools/trace_schema.json)")
    missing = [n for n in wanted if n not in metrics]
    if missing:
        print("not recorded by this build: " + ", ".join(missing))
    print(json.dumps({
        "correct": correct,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {n: metrics[n] for n in wanted if n in metrics},
    }))
    return 0 if correct and result.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
