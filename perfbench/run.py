#!/usr/bin/env python3
"""PUG-Summ benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the program and the harness from
source (see build.py), runs one benchmark JVM, and passes its output
through: the last line of standard output is the JSON result. Workloads,
metrics and their rationale are described in perfbench/WORKLOADS.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

# The JVM must be gone well before the 180 s limit of one run.
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Spark's standard Java 17 module opens (spark-submit adds these itself).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def commit() -> str:
    if not (build.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    classes = build.build()
    scratch = build.BUILD / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *OPENS,
           f"-Djava.io.tmpdir={scratch / 'tmp'}", f"-Dperfbench.scratch={scratch}",
           "-cp", f"{classes}{os.pathsep}{build.spark_jars() / '*'}",
           "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--commit", commit()]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, start_new_session=True)
    code = 124
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run: over {RUN_TIMEOUT_S} s, killed", file=sys.stderr)
    finally:
        # Also reached on SIGTERM (see below): never leave the JVM behind.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    return code


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    sys.exit(main())
