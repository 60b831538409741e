#!/usr/bin/env python3
"""Builds and runs the REVERE query-path benchmark.

    python3 querybench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Run from the repository root. The library and the querybench program
are built from source in Release into $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to stderr, so the last line of
stdout is the program's JSON result. Exits nonzero when the build fails,
an answer is wrong, or the sources are missing.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """sha256 over every library and benchmark source, in path order."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir if build_dir.is_absolute()
                 else pathlib.Path.cwd() / build_dir) / "querybench"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "--target", "querybench",
                 "--parallel", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("querybench: build failed: " + " ".join(cmd))
    return build_dir / "querybench"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["lookup", "bulk_join", "overlay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("querybench: no REVERE sources at " + str(ROOT / "src"))
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
