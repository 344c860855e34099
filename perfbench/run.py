#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a checkout. The engine and the benchmark binary are
compiled from source into .bench_build/perfbench (an up-to-date build is
reused). The binary's standard output is passed through; a `provenance`
line is added before the last line, which is the JSON result
{"correct", "attempted", "failed", "metrics"}. With --record, the
provenance, the route audit's counts (the binary's `audit` line) and the
result are also appended to FILE as one JSON line, the input of
perfbench/compare.py.
"""

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "urpsm_perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-G", "Unix Makefiles", "-S", HERE,
                        "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "urpsm_perfbench", "-j", str(min(4, nproc()))],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def git_sha():
    """The commit, when the checkout is a git work tree; else None."""
    if os.environ.get("URPSM_GIT_SHA"):
        return os.environ["URPSM_GIT_SHA"]
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a work tree; an enclosing repository is not ours
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Digest of every file the benchmark build reads: the root build file,
    src/ and perfbench/. It identifies the measured code in any checkout,
    git or not."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--record")
    args = parser.parse_args()

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print("perfbench: the benchmark binary printed no result", file=sys.stderr)
        return proc.returncode or 5

    compiler = line_value(lines, "compiler=\"", "\"")
    build_type = line_value(lines, "build_type=", " ")
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "compiler": compiler,
        "build_type": build_type,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "started": started,
    }
    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(lines[-1], flush=True)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"provenance": provenance,
                                "audit": audit(lines), "result": result},
                               sort_keys=True) + "\n")
    return proc.returncode


def audit(lines):
    """The route audit's counts from the binary's `audit {...}` line."""
    for line in lines:
        if line.startswith("audit {"):
            return json.loads(line[len("audit "):])
    return None


def line_value(lines, prefix, terminator):
    """The text after `prefix` up to `terminator` on the `build` line."""
    for line in lines:
        if line.startswith("build ") and prefix in line:
            rest = line.split(prefix, 1)[1]
            return rest.split(terminator, 1)[0]
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
