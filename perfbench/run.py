#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, else .bench_build), with the Go build cache
and temporary files kept there too, and rebuilt whenever a Go source file or
go.mod of the repository changes. The arguments are passed through; the
program's last line of standard output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_digest(root):
    """Hash every go.mod, go.sum and .go file under root, build dir excluded."""
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for f in filenames:
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                paths.append(os.path.join(dirpath, f))
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def commit_id(root, digest):
    """The git commit when root is a work tree, else the source digest."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "src-sha256:" + digest[:16]


def build(root, build_dir, binary, digest):
    stamp = binary + ".digest"
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return True
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    try:
        out = subprocess.run(["go", "build", "-o", binary, "."],
                             cwd=os.path.join(root, "perfbench"), env=env,
                             capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return False
    if out.returncode != 0:
        print("perfbench: build failed:\n" + out.stderr, file=sys.stderr)
        return False
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    return True


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.abspath(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    digest = source_digest(root)
    if not build(root, build_dir, binary, digest):
        return 1
    cmd = [binary] + sys.argv[1:] + ["--commit", commit_id(root, digest)]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
