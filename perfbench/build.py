"""Build file of the benchmark: compiles the repository's main sources and
the benchmark's own Scala sources into one class directory with the Scala
compiler that ships with Spark. No sbt, no dependency resolution.

    python3 perfbench/build.py            # builds into .bench_build/

A build is skipped when the digest of the sources, the Spark jar listing
and the JVM version matches the digest of the last build.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ["src/main/scala", "jobs", "perfbench/src"]


class BuildError(Exception):
    pass


def spark_jars():
    """$SPARK_HOME/jars: Spark, its dependencies and the Scala compiler."""
    home = os.environ.get("SPARK_HOME")
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("Spark jars not found; set SPARK_HOME to a Spark 4 (Scala 2.13) install")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def sources(root=ROOT):
    if not os.path.isdir(os.path.join(root, "src/main/scala")):
        raise BuildError("repository sources (src/main/scala) not found")
    files = []
    for d in SOURCE_DIRS:
        files += glob.glob(os.path.join(root, d, "**", "*.scala"), recursive=True)
    return sorted(files)


def digest(files, root=ROOT):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update("\n".join(sorted(os.listdir(spark_jars()))).encode())
    version = subprocess.run([java(), "-version"], capture_output=True, text=True)
    h.update("".join(l for l in version.stderr.splitlines(True) if not l.startswith("Picked up")).encode())
    return h.hexdigest()


def build(build_dir, root=ROOT):
    """Compile if needed; return (class directory, source digest)."""
    files = sources(root)
    want = digest(files, root)
    classes = os.path.join(build_dir, "classes")
    stamp = os.path.join(build_dir, "classes.digest")
    if os.path.isdir(classes) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == want:
                return classes, want
    jars = spark_jars()

    def jar(name):
        found = glob.glob(os.path.join(jars, f"{name}-2.13.*.jar"))
        if not found:
            raise BuildError(f"{name} 2.13 jar not found in {jars}")
        return found[0]

    compiler_cp = os.pathsep.join(jar(n) for n in ("scala-compiler", "scala-library", "scala-reflect"))
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    args_file = os.path.join(build_dir, "sources.txt")
    with open(args_file, "w") as fh:
        fh.write("\n".join(files) + "\n")
    print(f"[perfbench] compiling {len(files)} Scala files", file=sys.stderr, flush=True)
    proc = subprocess.run(
        [java(), "-Xss8m", "-Xmx2g", "-cp", compiler_cp, "scala.tools.nsc.Main",
         "-nowarn", "-classpath", os.path.join(jars, "*"), "-d", tmp, "@" + args_file],
        stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp, "w") as fh:
        fh.write(want + "\n")
    return classes, want


if __name__ == "__main__":
    try:
        print(build(os.path.join(ROOT, ".bench_build"))[0])
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
