#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

The arguments are passed to perfbench.exe (see perfbench/perfbench.ml);
its last line of standard output is the JSON result.  Exits non-zero,
without a result, when the build or the run fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/sorl_tune.exe", "./perfbench/perfbench.exe"]
SOURCE_DIRS = ["lib", "bin", "perfbench"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def provenance():
    """The git commit of the sources, or an MD5 over them when the tree
    is an export rather than a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        if out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.md5()
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "md5:" + h.hexdigest()[:12]


def run_group(cmd, timeout_s, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout_s} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode


def main():
    if not os.path.isfile("dune-project"):
        fail("run from the repository root (no dune-project here)")
    build = run_group(
        ["dune", "build", "--root", "."] + TARGETS, BUILD_TIMEOUT_S, stdout=sys.stderr,
    )
    if build != 0:
        fail(f"build failed (dune exit {build})")
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    server = os.path.join("_build", "default", "bin", "sorl_tune.exe")
    cmd = [exe] + sys.argv[1:] + ["--server", server, "--commit", provenance()]
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S)
    if code != 0:
        fail(f"benchmark exited with {code}")


if __name__ == "__main__":
    main()
