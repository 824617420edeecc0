#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

One workload, from inputs generated from the seed:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The self-tests of the benchmark's own arithmetic:

    python3 perfbench/run.py --selftest

The program is built from source with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under the
checkout root; an up-to-date build is reused. Build output goes to
stderr. The benchmark's stdout is passed through; its last line is the
result JSON, whose metric names and units are checked against
BENCHMARK.json. Exits non-zero when the build fails, an output check
fails, or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run may take its seconds plus set-up and checks; anything slower is
# hung and is stopped.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    if not (out / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    return made.returncode == 0


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def check_result(line, trace):
    """Problems with the result line against BENCHMARK.json; [] if none."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(units) & set(got) if units[n] != got[n])
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s, wrong unit %s" % (missing, extra, wrong))
    if trace == "0":
        zero = sorted(n for n, m in result["metrics"].items()
                      if m["value"] == 0)
        if zero:
            problems.append("end-to-end metrics read 0: %s" % zero)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["learn_link", "serve", "live_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")],
                              check=False).returncode

    work = out.parent / "work" / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--workdir", str(work),
               "--source-id", source_id()]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        shutil.rmtree(work, ignore_errors=True)
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    spans = work / "spans.jsonl"
    if spans.exists():
        traces = out.parent / "traces"
        traces.mkdir(exist_ok=True)
        shutil.move(str(spans), str(
            traces / ("%s-seed%d.jsonl" % (args.workload, args.seed))))
    shutil.rmtree(work, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    has_result = bool(lines) and lines[-1].startswith("{")
    problems = check_result(lines[-1], args.trace) if has_result else [
        "no result line"]
    # A failed output check prints its result (correct: false) and exits
    # non-zero; a malformed result is withheld.
    shown = lines if has_result and not problems else lines[:-1]
    sys.stdout.write("\n".join(shown) + "\n")
    if process.returncode != 0:
        problems.append("workload exited %d" % process.returncode)
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
