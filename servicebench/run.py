#!/usr/bin/env python3
"""Build and run the tps-service end-to-end benchmark.

Usage, from the root of a checkout of the repository:

    python3 servicebench/run.py --workload durable-ingest|live-query|inproc-query|all \
        --seed N --seconds S --trace 0|1

It builds the `tps-service` binary and the `servicebench` harness from
source (release profile, into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the harness (once per workload for `all`). The harness prints a human-readable table on
standard error, writes the full result with provenance and raw per-job
samples to `servicebench/out/results/`, spans of a traced run to
`servicebench/out/spans/`, and prints one JSON object as the last line of
standard output. The exit code is nonzero when the build fails, the
sources are missing, any output fails its correctness check, or no job
completes.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("durable-ingest", "live-query", "inproc-query")

# Everything the benchmark builds from; a missing one means this is not a
# checkout of the repository.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates/service/Cargo.toml", "servicebench/Cargo.toml")


def fail(message):
    print(f"servicebench: {message}", file=sys.stderr)
    sys.exit(2)


def command_output(cmd, env=None):
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "servicebench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "target"))
            for name in files:
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    paths.append(os.path.relpath(os.path.join(base, name), ROOT))
    for rel in sorted(paths):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def cargo_build(args, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a checkout of the repository (missing {', '.join(missing)})")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    cargo_build(["-p", "tps-service", "--bin", "tps-service"], target_dir)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target_dir)

    rustc = command_output(["rustc", "--version"]) or "unknown"
    # The ceiling keeps git from taking the commit of a repository that
    # merely contains this checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    commit = command_output(["git", "rev-parse", "HEAD"], git_env) or "unknown (not a git checkout)"
    digest = source_digest()
    code = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        harness = [
            os.path.join(target_dir, "release", "servicebench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--service-bin", os.path.join(target_dir, "release", "tps-service"),
            "--out", os.path.join(HERE, "out"),
            "--rustc", rustc,
            "--commit", commit,
            "--source-digest", digest,
        ]
        done = subprocess.run(harness, cwd=ROOT)
        code = code or done.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
