#!/usr/bin/env python3
"""Qd-tree layout-lifecycle benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpch-greedy --seed 1 --seconds 10 --trace 0

Builds the repository's main sources together with the benchmark program
(perfbench/build.sbt, once per source change), runs one workload in a fresh
JVM, and prints as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` gives the end-to-end
metrics, `--trace 1` the per-layer ones. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
TARGET = BENCH / "target"
CLASSPATH = TARGET / "bench.classpath"

WORKLOADS = ("tpch-greedy", "errlog-int-woodblock")
END_TO_END = ("setup_s", "build_s", "ingest_rows_per_s", "query_p50_ms", "query_p90_ms",
              "access_pct", "rows_read_pct")
PER_LAYER = ("encode.ms", "sample.ms", "sample.rows", "cutmask.ms", "cutmask.cuts", "greedy.ms",
             "greedy.leaves", "woodblock.ms", "woodblock.episodes_per_s", "woodblock.leaves",
             "woodblock.rollout_only_ms", "ingest.write_ms", "ingest.files", "ingest.bytes",
             "blockstats.ms", "evaluate.ms", "route_query.us_p50", "route_query.kept_blocks_pct",
             "router.open_ms_p50", "scan.exec_ms_p50", "scan.files", "scan.bytes", "scan.rows")
# Spark worker threads: two, and never more than the cores this process may
# use, so that the driver thread, JIT, GC and other tenants of a small shared
# machine do not leave tasks waiting for a core.
SPARK_THREADS = min(2, len(os.sched_getaffinity(0)))
DRIVER_HEAP = "3g"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    roots = [ROOT / "src" / "main" / "scala", BENCH / "src"]
    files = [p for r in roots for p in sorted(r.rglob("*.scala"))]
    return files + [BENCH / "build.sbt", BENCH / "project" / "build.properties"]


def build():
    """Compile with sbt when any source is newer than the recorded classpath."""
    srcs = sources()
    if CLASSPATH.exists() and all(p.stat().st_mtime <= CLASSPATH.stat().st_mtime for p in srcs):
        return CLASSPATH.read_text().strip()
    TARGET.mkdir(parents=True, exist_ok=True)
    log = TARGET / "build.log"
    with open(log, "w") as out:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=BENCH, stdout=subprocess.PIPE, stderr=out, text=True, timeout=840)
        out.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"build failed, see {log}")
    CLASSPATH.write_text(lines[-1] + "\n")
    return lines[-1]


def source_digest():
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no repro sources under {ROOT}; run from a checkout of the repository")
    if not os.environ.get("SPARK_HOME") or shutil.which("sbt") is None or shutil.which("java") is None:
        fail("needs SPARK_HOME, sbt and java")

    classpath = build()
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    result_file = WORK / "result.json"
    log = WORK / "run.log"
    cmd = ["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={WORK / 'tmp'}", "-cp", classpath,
           "perfbench.Lifecycle", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--threads", str(SPARK_THREADS),
           "--work", str(WORK), "--out", str(result_file)]
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s, see {log}")
    if proc.returncode != 0 or not result_file.exists():
        fail(f"run failed with exit code {proc.returncode}, see {log}")

    env = {}
    for line in stdout.splitlines():
        if line.startswith("ENV "):
            env = json.loads(line[4:])
    env.update(driver_heap=DRIVER_HEAP, git_sha=git_sha(), source_sha256=source_digest())
    result = json.loads(result_file.read_text())
    expected = PER_LAYER if args.trace else END_TO_END
    if set(result) != {"correct", "attempted", "failed", "metrics"} or set(result["metrics"]) != set(expected):
        fail(f"malformed result: {result}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
