#!/usr/bin/env python3
"""The repository benchmark: builds femtod and the perfbench load generator
from source, then runs one workload and prints its result.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The build goes to $CARGO_TARGET_DIR (default .bench_build) and the run's
scratch files (femtod socket, log, traces) to .perfbench_run/<workload>.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --smoke is a short self-check of the
benchmark itself (see smoke()).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1", "serve_unique", "serve_repeat")


def build(build_dir):
    """Configures and builds perfbench + femtod; returns the two binaries."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "femtod", "-j", jobs], check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "femto", "femtod"))


def commit():
    """The git commit when the checkout has one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    root = os.path.dirname(HERE)
    for top in ("src", "tools", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_once(binaries, workload, seed, seconds, trace, extra=(),
             expected=None, echo=True):
    """Runs one workload; returns (stdout lines, parsed result)."""
    perfbench, femtod = binaries
    run_dir = os.path.join(".perfbench_run", workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [perfbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--femtod", femtod, "--run-dir", run_dir,
           "--expected", expected or os.path.join(HERE, "expected_table1.json")]
    proc = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                          timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited %d" % proc.returncode)
    return lines, json.loads(lines[-1])


def smoke(binaries):
    """Self-check: every BENCHMARK.json metric is printed with a unit on
    every workload, a wrong expected count is caught, and a daemon that is
    killed or hangs mid-run fails its requests instead of hanging the run.
    table1 runs on the first 3 rows of the expected-count file."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check_names(workload, trace, result, lines):
        names = spec["per_layer" if trace else "end_to_end"]
        for m in names:
            got = result["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"]:
                problems.append("%s trace=%d: %s missing or unit is not %s"
                                % (workload, trace, m["name"], m["unit"]))
            elif not any(line.startswith(m["name"] + " ") and
                         line.rstrip().endswith(" " + m["unit"])
                         for line in lines):
                problems.append("%s trace=%d: %s not in the report"
                                % (workload, trace, m["name"]))
        extra = set(result["metrics"]) - {m["name"] for m in names}
        if extra:
            problems.append("%s trace=%d: unlisted metrics %s"
                            % (workload, trace, sorted(extra)))
        if not result["correct"] or result["failed"]:
            problems.append("%s trace=%d: not correct" % (workload, trace))

    with open(os.path.join(HERE, "expected_table1.json")) as f:
        expected = json.load(f)
    expected["rows"] = expected["rows"][:3]
    os.makedirs(".perfbench_run", exist_ok=True)
    short_path = os.path.join(".perfbench_run", "expected_3rows.json")
    with open(short_path, "w") as f:
        json.dump(expected, f)

    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_once(binaries, workload, 7, 2, trace,
                                     expected=short_path, echo=False)
            check_names(workload, trace, result, lines)

    expected["rows"][0]["GT"] += 1
    wrong_path = os.path.join(".perfbench_run", "expected_wrong.json")
    with open(wrong_path, "w") as f:
        json.dump(expected, f)
    _, result = run_once(binaries, "table1", 7, 1, 0, expected=wrong_path,
                         echo=False)
    if result["correct"] or result["failed"] != 1:
        problems.append("a wrong expected count was not caught: %r" % result)

    for fault in ("kill", "stop"):
        _, result = run_once(binaries, "serve_repeat", 7, 5, 0,
                             ["--daemon-fault", fault], echo=False)
        if result["correct"] or result["failed"] == 0:
            problems.append("a daemon fault (%s) did not fail the run: %r"
                            % (fault, result))

    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke: %s" % ("ok" if not problems else
                         "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    try:
        binaries = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(binaries)
    print("context: commit=%s" % commit())
    try:
        _, result = run_once(binaries, args.workload, args.seed, args.seconds,
                             args.trace)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
