#!/usr/bin/env python3
"""Build and run the benchmark.

Run from the repository root:

    python3 _perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program (this directory's Go module, which uses the
repository through a `replace` of its parent directory) and the pilutd
daemon into the build directory ($CARGO_TARGET_DIR, default
.bench_build), then runs the benchmark with the same arguments. The Go
build cache and temporary files stay inside the build directory, and no
module is ever downloaded. Without the repository around this directory
the build fails and the script exits non-zero without a result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_hash():
    """sha256 over the Go sources and module files the benchmark builds."""
    h = hashlib.sha256()
    for top in ("cmd", "internal", HERE):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".go") or name == "go.mod":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    with open(os.path.join(ROOT, "go.mod"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no Go module around the benchmark directory", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    for d in (bindir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOFLAGS="-mod=mod", GOPROXY="off", GOWORK="off",
               GOTOOLCHAIN="local")
    built = subprocess.run(["go", "build", "-o", bindir + os.sep, ".", "repro/cmd/pilutd"],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    args = [os.path.join(bindir, "perfbench"),
            "-pilutd", os.path.join(bindir, "pilutd"),
            "-out", os.path.join(build, "results"),
            "-spec", os.path.join(ROOT, "BENCHMARK.json"),
            "-commit", commit(),
            "-source-sha256", source_hash()]
    args += sys.argv[1:]
    os.chdir(ROOT)
    os.execve(args[0], args, env)


if __name__ == "__main__":
    sys.exit(main())
