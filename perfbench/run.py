#!/usr/bin/env python3
"""PUG-Summ benchmark: one command that builds the program from source,
answers a workload's seeded provenance questions, checks the answers and
prints every metric with its unit.

    python3 perfbench/run.py --workload whynot-sampled --seed 42 --seconds 10 --trace 0

Run it from the root of a checkout. Everything it writes goes to
`.bench_build/` there. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["whynot-sampled", "exact-patterns"]
RUN_LIMIT_S = 175  # the JVM ends its last question by 160 s
HEAP = "3g"
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def result_ok(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict) and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = build.ROOT
    build_dir = os.path.join(root, ".bench_build")
    try:
        classes, source_digest = build.build(build_dir, root)
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build_dir, "run")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp = os.pathsep.join([classes, os.path.join(root, "perfbench", "resources"),
                          os.path.join(build.spark_jars(), "*")])
    cmd = [build.java(), f"-Xmx{HEAP}", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(root, "perfbench", "resources", "log4j2.properties")]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", cp, "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work]
    env = dict(os.environ, PERFBENCH_COMMIT=commit(root), PERFBENCH_SOURCE_DIGEST=source_digest,
               SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))

    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] run exceeded {RUN_LIMIT_S}s; stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not result_ok(lines[-1]):
        print(out, file=sys.stderr)
        print(f"[perfbench] run failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
