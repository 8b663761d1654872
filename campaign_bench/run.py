#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark (see README.md).

    python3 campaign_bench/run.py --workload ss_day --seed 1 --seconds 10 --trace 0
    python3 campaign_bench/run.py --self-test

Builds the checkout's src/ and the campaign_bench program in Release with
SSPLANE_OBS=ON under $CARGO_TARGET_DIR (default .bench_build), then runs it
from the checkout root. Its last stdout line is the JSON result. The build
log goes to build.log in the build directory, and its tail to stderr when
the build fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "campaign_bench"


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    out = build_dir()
    cache = out / "CMakeCache.txt"
    home = "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR
    if cache.is_file() and home not in cache.read_text():
        shutil.rmtree(out)  # configured for a checkout at another path
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    log.write_text("")
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release",
         "-DSSPLANE_OBS=ON"],
        ["cmake", "--build", str(out), "-j", str(jobs())],
    ]
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            sys.stderr.write(log.read_text()[-4000:])
            sys.stderr.write("\ncampaign_bench: build failed: %s\n" % " ".join(cmd))
            return None
    return out / "campaign_bench"


def provenance():
    """The git commit when the checkout is a git work tree, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git-" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not (ROOT / "src" / "exp" / "campaign.h").is_file():
        sys.stderr.write("campaign_bench: no ssplane sources at %s\n" % (ROOT / "src"))
        return 2
    binary = build()
    if binary is None:
        return 4

    if args.self_test:
        cmd = [str(binary), "--self-test", "--seed", str(args.seed)]
    else:
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", provenance()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("campaign_bench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 5


if __name__ == "__main__":
    sys.exit(main())
