#!/usr/bin/env python3
"""Build file of the PUG-Summ benchmark.

Compiles the program's main sources (``src/main/scala``) together with the
benchmark harness (``perfbench/src``) with the Scala compiler that ships in
Spark's own ``jars/`` directory, so the build needs neither sbt nor a
dependency download. Output goes to ``.bench_build/perfbench/classes``; a
stamp over the compiled sources makes a rebuild a no-op when nothing
changed.

    python3 perfbench/build.py            # from the repository root
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CLASSES = BUILD / "classes"
STAMP = BUILD / "classes.stamp"

# Main-scope files the benchmark does not call and whose dependencies are not
# on Spark's classpath: the DuckDB test oracle.
EXCLUDED = {"Oracle.scala"}


def spark_jars() -> Path:
    """Spark's jar directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            sys.exit("build: neither SPARK_HOME nor spark-submit is available")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        sys.exit(f"build: no scala-compiler jar in {jars}")
    return jars


def sources() -> list:
    main = ROOT / "src" / "main" / "scala"
    bench = ROOT / "perfbench" / "src"
    if not main.is_dir():
        sys.exit(f"build: program sources not found at {main}")
    files = [p for p in sorted(main.rglob("*.scala")) if p.name not in EXCLUDED]
    files += sorted(bench.rglob("*.scala"))
    return files


def stamp_of(files, jars: Path) -> str:
    h = hashlib.sha256()
    h.update(" ".join(sorted(p.name for p in jars.glob("*.jar"))).encode())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build() -> Path:
    """Compile if needed; return the classes directory."""
    jars = spark_jars()
    files = sources()
    stamp = stamp_of(files, jars)
    if STAMP.exists() and STAMP.read_text() == stamp and CLASSES.is_dir():
        return CLASSES
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", str(CLASSES)] + [str(p) for p in files]
    print(f"build: compiling {len(files)} Scala sources", file=sys.stderr, flush=True)
    res = subprocess.run(cmd, cwd=ROOT)
    if res.returncode != 0:
        shutil.rmtree(CLASSES, ignore_errors=True)
        sys.exit(f"build: scalac failed with exit code {res.returncode}")
    STAMP.write_text(stamp)
    return CLASSES


if __name__ == "__main__":
    print(build())
