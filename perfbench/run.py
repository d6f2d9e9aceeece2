#!/usr/bin/env python3
"""ASRS query benchmark: build the program from source, run one workload, print one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call builds the repository's main sources plus the benchmark
(`perfbench/build.sbt`, a source dependency on the root build) with sbt and
caches the resulting classpath under `.bench_build/` (or `$CARGO_TARGET_DIR`);
later calls reuse it until a source or build file changes. The measurement
itself runs in one JVM (`repro.perfbench.Main`); its progress goes to stderr
and the last line of stdout is the result object
`{"correct", "attempted", "failed", "metrics"}`. Any build or run failure
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Spark on Java 17 needs these module openings when launched without spark-submit.
JVM_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Every file whose change must trigger a rebuild, relative to ROOT."""
    out = []
    for top in ("src/main", "project", "perfbench/src", "perfbench/project"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if x != "target"]
            out += [os.path.relpath(os.path.join(d, f), ROOT) for f in files]
    out += ["build.sbt", "perfbench/build.sbt"]
    return sorted(out)


def source_hash():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(build_dir):
    """Compile with sbt once per source state; return the runtime classpath."""
    stamp = os.path.join(build_dir, "classpath.json")
    digest = source_hash()
    if os.path.exists(stamp):
        with open(stamp) as f:
            cached = json.load(f)
        if cached.get("sources") == digest:
            return cached["classpath"]
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           f"-Dsbt.global.base={os.path.join(build_dir, 'sbt-global')}", f"-J-Djava.io.tmpdir={tmp}",
           "export perfbench/Runtime/fullClasspath"]
    log_path = os.path.join(build_dir, "build.log")
    print("perfbench: building with sbt (first run only)", file=sys.stderr)
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE,
                                  stderr=log, text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build did not finish: {e}")
        log.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or "perfbench" not in lines[-1]:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"build failed (exit {proc.returncode}); log in {log_path}")
    classpath = lines[-1].strip()
    with open(stamp, "w") as f:
        json.dump({"sources": digest, "classpath": classpath}, f)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for rel in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"no program source at {rel}: run from the root of a full checkout")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    classpath = build(build_dir)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)

    cmd = (["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1"] + JVM_OPENS +
           ["-cp", classpath, "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", tmp])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail(f"metric {name} is not a finite number: {v!r}")
    print(json.dumps(result))
    sys.exit(0)


if __name__ == "__main__":
    main()
