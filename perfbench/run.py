#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the closed Erms loop.

Run from the root of the repository:

    python3 perfbench/run.py --workload taobao-inproc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a Cargo package of its own (perfbench/Cargo.toml). It is
built in release mode into $CARGO_TARGET_DIR (default .bench_build). A
run prints a host fingerprint, the benchmark's report and, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["taobao-inproc", "taobao-sharded", "daemon-loop"]
# Threads each workload runs, for the fingerprint.
THREADS = {
    "taobao-inproc": "1",
    "taobao-sharded": "1 (both DES shards on one thread)",
    "daemon-loop": "agent + open-loop reader + 2 daemon workers",
}


def build():
    """Builds the benchmark; exits non-zero without a result on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(r.returncode or 1)
    return os.path.join(target, "release", "erms-perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """The checked-out commit, read from .git without running git (the
    benchmark may run in a plain copy of the sources)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def source_digest():
    """SHA-256 over the sources the benchmark builds, to identify the code
    where no commit is available."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "stubs", "perfbench"]
    files = []
    for r in roots:
        p = os.path.join(ROOT, r)
        if os.path.isfile(p):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                if name.endswith((".rs", ".toml", ".lock", ".py", ".tsv", ".md")):
                    files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fingerprint(workload, seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": rustc_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "threads": THREADS.get(workload, "?"),
    }


def run(binary, args):
    """Runs the benchmark binary; returns (stdout lines, result object)."""
    r = subprocess.run([binary] + args, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)}: exit {r.returncode}\n{r.stdout}\n{r.stderr}")
    return lines, json.loads(lines[-1])


def digest_line(lines):
    """The digest line's columns: digest, workload, size, seed, digest
    value, verdict."""
    return next(l for l in lines if l.startswith("digest\t")).split("\t")


def selftest(binary):
    """Tiny runs of every workload: every metric of BENCHMARK.json is
    printed with its unit, a traced run reproduces the untraced digest,
    a second seed runs, and a perturbed plan trips the digest gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        base = ["--workload", w, "--seconds", "1", "--tiny"]
        digests = {}
        for trace in (0, 1):
            lines, res = run(binary, base + ["--seed", "1", "--trace", str(trace)])
            digests[trace] = digest_line(lines)
            check(res["correct"] and res["failed"] == 0, f"{w} trace {trace}: correct")
            check(digests[trace][5].startswith("matches"), f"{w} trace {trace}: digest pinned")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units[trace], f"{w} trace {trace}: every metric with its unit")
        check(digests[0][4] == digests[1][4], f"{w}: traced digest equals untraced")
        lines, res = run(binary, base + ["--seed", "2", "--trace", "0"])
        check(res["correct"], f"{w}: second seed runs and matches its pin")
        lines, res = run(binary, base + ["--seed", "1", "--trace", "0", "--perturb"])
        check(not res["correct"] and res["failed"] > 0, f"{w}: perturbed plan trips the digest gate")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--tiny", action="store_true", help="run at the self-test sizes")
    a = p.parse_args()

    binary = build()
    if a.selftest:
        return selftest(binary)
    if a.workload is None or a.seed is None:
        p.error("--workload and --seed are required")
    print("fingerprint " + json.dumps(fingerprint(a.workload, a.seed)), flush=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace] + (["--tiny"] if a.tiny else [])
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
