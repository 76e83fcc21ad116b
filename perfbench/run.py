#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload esd_lbm --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
then runs esd_perfbench. Build output goes to stderr; the last stdout line
is the result object. Extra flags (--records, --warmup, --expect-digest)
pass through to esd_perfbench; selftest.py uses them.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "esd_perfbench")

_child = None
_tmp = None


def _cleanup():
    if _child is not None and _child.poll() is None:
        _child.terminate()
        _child.wait()
    if _tmp is not None:
        shutil.rmtree(_tmp, ignore_errors=True)


def _on_signal(signum, _frame):
    # Unwind to main()'s finally, which stops the child and waits for it.
    raise SystemExit(128 + signum)


def run_child(cmd, **kwargs):
    """Run @cmd to completion; a signal to this script stops it too."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    rc = _child.wait()
    _child = None
    return rc


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/ next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    # Only this checkout's own repository: never search parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    global _tmp
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        build()
        os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
        _tmp = tempfile.mkdtemp(dir=os.path.join(BUILD_ROOT, "tmp"))
        rc = run_child([BINARY, *sys.argv[1:], "--tmpdir", _tmp,
                        "--git-sha", git_sha()])
    finally:
        _cleanup()
    sys.exit(rc)


if __name__ == "__main__":
    main()
