#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The OCaml benchmark in perfbench/_src is compiled against the checkout's
own lib/ in a private dune workspace under .bench_build/ (the leading
underscore keeps the repository's dune build out of perfbench/_src).
The last line of standard output is the JSON result: with --trace 0 every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer one,
each with its unit.  The line before it stamps the run with the CPU
count, the pool's default jobs, the jobs the workload used, the OCaml
version and the seed.  Any failure to build, run or produce a complete
result exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WS = os.path.join(ROOT, ".bench_build", "ws")
EXE = os.path.join(WS, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def copy_if_changed(s, d):
    with open(s, "rb") as f:
        data = f.read()
    if os.path.isfile(d):
        with open(d, "rb") as f:
            if f.read() == data:
                return
    with open(d, "wb") as f:
        f.write(data)


def sync_tree(src, dst, skip=()):
    """Mirror src into dst, rewriting only files whose bytes changed so
    dune's incremental build stays warm."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for name in sorted(os.listdir(src)):
        if name.startswith(".") or name == "_build" or name in skip:
            continue
        s, d = os.path.join(src, name), os.path.join(dst, name)
        wanted.add(name)
        if os.path.isdir(s):
            sync_tree(s, d)
        else:
            copy_if_changed(s, d)
    for name in os.listdir(dst):
        if name not in wanted and name != "_build":
            p = os.path.join(dst, name)
            shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)


def build():
    lib = os.path.join(ROOT, "lib")
    if not os.path.isdir(lib):
        die("no lib/ in %s: run from the root of a checkout" % ROOT)
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    sync_tree(lib, os.path.join(WS, "lib"))
    src = os.path.join(HERE, "_src")
    sync_tree(src, os.path.join(WS, "perfbench"), skip=("dune-project",))
    copy_if_changed(os.path.join(src, "dune-project"),
                    os.path.join(WS, "dune-project"))
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, ".bench_build", "cache")
    env["XDG_CONFIG_HOME"] = os.path.join(ROOT, ".bench_build", "config")
    cmd = ["dune", "build", "--root", WS, "--profile", "release",
           "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed (exit %d)" % r.returncode)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    spec = load_spec()
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("run timed out after %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        die("benchmark exited %d" % r.returncode)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        die("benchmark printed no result")
    stamp = json.loads(lines[-2])["stamp"]
    res = json.loads(lines[-1])
    stamp["nproc"] = os.cpu_count()
    stamp["affinity"] = len(os.sched_getaffinity(0))
    stamp["trace"] = a.trace
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]
    got = res["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in declared})
    if missing or extra:
        die("metric set mismatch: missing %s, undeclared %s" % (missing, extra))
    metrics = {}
    for m in declared:
        v = got[m["name"]]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die("metric %s is not a finite number: %r" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if res["attempted"] < 1:
        die("no operation attempted")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
