#!/usr/bin/env python3
"""Propagator benchmark for jitfd: one command, every metric.

    python3 propbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--self-test]

Builds the jitfd library and the propbench driver from source (first run
only, into .bench_build/ at the repository root), generates the
workload's inputs from the seed, runs the workload and prints, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (every trace off); --trace 1
reports the per-layer ledger. The line before it records the run context
(nproc, LLC, compilers, seed, inputs, sizes, fail_frac). --self-test
corrupts one checked value and must report fail_frac > 0. See README.md
for the workloads and what each metric should move.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "propbench")

# Ranks x OpenMP threads per rank = 2, half the host's nproc (4): the
# spare cores let the scheduler move a rank or thread off a core that
# something else is using, instead of stalling the whole lock-stepped
# run. No rank is pinned. The binary refuses a thread count that does
# not match its own workload table. BENCHMARK.json lists shot-acoustic
# and overlap-acoustic-shm; halo-elastic runs by hand (see README.md).
# setup_s is the median of `setups` cold set-ups, each a process with its
# own fresh JIT cache: set-up-only processes plus the measured run. The
# shot's 8 s set-up needs fewer samples than the others' sub-second,
# compile-dominated ones.
WORKLOADS = {
    "shot-acoustic": {"ranks": 1, "threads": 2, "edge": 472, "setups": 3},
    "halo-elastic": {"ranks": 2, "threads": 1, "edge": 48, "setups": 5},
    "overlap-acoustic-shm": {"ranks": 2, "threads": 1, "edge": 128,
                             "setups": 5},
}

E2E_UNITS = {
    "gpts_per_s": "GPts/s",
    "solve_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "grid.init_s": "s",
    "grid.field_mib": "MiB",
    "grid.subnormal_share": "frac",
    "ir.lower_s": "s",
    "ir.flops_per_point": "flop/pt",
    "ir.halo_spots": "count",
    "codegen.emit_s": "s",
    "codegen.compile_s": "s",
    "codegen.cache_hits": "count",
    "codegen.sweep_s": "s",
    "codegen.sweep_gbs": "GB/s",
    "codegen.sweep_bw_frac": "frac",
    "codegen.sweep_imbalance": "ratio",
    "runtime.halo_s": "s",
    "runtime.halo_share": "frac",
    "runtime.wait_s": "s",
    "runtime.pack_gbs": "GB/s",
    "runtime.unpack_gbs": "GB/s",
    "runtime.msgs_per_step": "msg/step",
    "runtime.bytes_per_step": "B/step",
    "runtime.copies_per_msg": "copy/msg",
    "runtime.pool_misses": "count",
    "smpi.latency_us": "us",
    "smpi.bw_gbs": "GB/s",
    "smpi.barrier_us": "us",
    "smpi.allreduce_us": "us",
    "smpi.launch_s": "s",
    "sparse.apply_s": "s",
    "obs.health_s": "s",
    "obs.trace_overhead_frac": "frac",
    "core.apply_overhead_us": "us",
    "core.unattributed_share": "frac",
    "host.triad_gbs": "GB/s",
    "bench.timer_overhead_frac": "frac",
    "bench.ledger_wall_s": "s",
}

# Variables that would change what a workload runs; the benchmark sets
# the ones it needs itself.
CLEARED_PREFIXES = ("JITFD_", "OMP_", "GOMP_", "KMP_")


def fail(msg, code=1):
    print("propbench: " + msg, file=sys.stderr)
    sys.exit(code)


def llc_bytes():
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as f:
            text = f.read().strip()
    except OSError:
        return 32 << 20  # No L3 reported: size the triad for 32 MiB.
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
    return int(text.rstrip("KMG")) * scale


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
        return out.stdout.splitlines()[0] if out.stdout else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def generate_inputs(name, seed):
    """The workload's inputs, a pure function of (workload, seed)."""
    rng = random.Random("%s:%d" % (name, seed))
    edge = WORKLOADS[name]["edge"]
    if name == "shot-acoustic":
        # Source near the centre (small jitter keeps the subnormal shell
        # on the same threads for every seed); receivers 5-7 points away.
        c = (edge - 1) / 2.0
        src = [c + rng.uniform(-3.0, 3.0) for _ in range(3)]
        rec = [src[0] + rng.uniform(5.0, 7.0), src[1] - 16.0 + rng.uniform(0, 1),
               src[2] + rng.uniform(-1.0, 1.0), 1.0]
        return {"src": src, "rec": rec}
    lo, hi = [], []
    for _ in range(3):
        size = rng.randint(edge // 8, edge // 5)
        start = rng.randint(8, edge - 8 - size)
        lo.append(start)
        hi.append(start + size)
    background = rng.uniform(1.0, 2.0)
    # Amplitude below half the background keeps every value far from 0.
    return {"box": lo + hi, "background": background,
            "amplitude": rng.uniform(0.2, 0.45) * background}


def input_args(inputs):
    args = []
    for key in ("src", "rec", "box"):
        if key in inputs:
            args += ["--" + key, ",".join(repr(v) for v in inputs[key])]
    for key in ("amplitude", "background"):
        if key in inputs:
            args += ["--" + key, repr(inputs[key])]
    return args


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(log, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
            if subprocess.run(cmd, stdout=out, stderr=out, env=env).returncode:
                fail("cmake configure failed; see " + log)
        cmd = ["cmake", "--build", BUILD, "--parallel", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=out, stderr=out, env=env).returncode:
            fail("build failed; see " + log)
    return os.path.join(BUILD, "propbench")


def run_binary(binary, args, env, scratch, tag):
    """One propbench process with a fresh private JIT cache and TMPDIR."""
    cache = os.path.join(scratch, tag + "-cache")
    tmp = os.path.join(scratch, tag + "-tmp")
    os.makedirs(cache)
    os.makedirs(tmp)
    penv = dict(env, JITFD_CACHE_DIR=cache, TMPDIR=tmp)
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              env=penv, cwd=scratch, timeout=170)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % tag)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s exited with %d" % (tag, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def episode_percentile(chunks, per_episode, q):
    """Median over episodes of each episode's q-th percentile chunk time.

    Every episode has at least 100 chunks, so at least 10 lie beyond its
    p90. A burst from a neighbouring tenant that spoils a minority of the
    episodes leaves the median unmoved; a pooled percentile would jump.
    """
    groups = [chunks[i:i + per_episode]
              for i in range(0, len(chunks), per_episode)]
    return statistics.median(
        statistics.quantiles(g, n=100, method="inclusive")[q - 1]
        for g in groups)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="corrupt one checked value; fail_frac must be > 0")
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("jitfd sources (src/) not found next to propbench/", 2)

    env = {k: v for k, v in os.environ.items()
           if not k.startswith(CLEARED_PREFIXES)}
    cleared = sorted(set(os.environ) - set(env))
    wl = WORKLOADS[a.workload]
    env["OMP_NUM_THREADS"] = str(wl["threads"])

    binary = build(env)
    inputs = generate_inputs(a.workload, a.seed)
    llc = llc_bytes()
    scratch = os.path.join(BUILD, "runs", "%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(scratch)
    common = ["--workload", a.workload, "--seconds", repr(a.seconds)]
    common += input_args(inputs)
    if a.self_test:
        common.append("--corrupt")
    try:
        # The reference runs in a process of its own, so its memory and
        # time stay out of every measured figure.
        common += ["--reference", os.path.join(scratch, "reference.bin")]
        ref = run_binary(binary, ["--mode", "reference"] + common, env,
                         scratch, "reference")
        if a.trace:
            raw = run_binary(binary, ["--mode", "trace", "--llc-bytes", str(llc)]
                             + common, env, scratch, "trace")
            metrics = {k: raw[k] for k in LAYER_UNITS}
            units = LAYER_UNITS
        else:
            setups = [run_binary(binary, ["--mode", "setup"] + common, env,
                                 scratch, "setup%d" % i)["setup_s"]
                      for i in range(wl["setups"] - 1)]
            raw = run_binary(binary, ["--mode", "run"] + common, env, scratch,
                             "run")
            setups.append(raw["setup_s"])
            setup_s = statistics.median(setups)
            episodes = raw["episode_s"]
            chunks = raw["chunk_ms"]
            per_episode = -(-raw["episode_steps"] // raw["chunk_steps"])
            # Throughput of the median episode: every episode steps the
            # same work, and the median ignores a neighbour's burst.
            episode = statistics.median(episodes)
            metrics = {
                "gpts_per_s": raw["points"] * raw["episode_steps"] / episode / 1e9,
                "solve_s": setup_s + episode,
                "setup_s": setup_s,
                "step_ms_p50": episode_percentile(chunks, per_episode, 50),
                "step_ms_p90": episode_percentile(chunks, per_episode, 90),
                "peak_rss_mib": raw["peak_rss_mib"],
            }
            units = E2E_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = int(raw["attempted"] + ref["attempted"])
    failed = int(raw["failed"] + ref["failed"])
    context = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "self_test": a.self_test, "inputs": inputs,
        "ranks": wl["ranks"], "omp_threads_per_rank": wl["threads"],
        "grid": [wl["edge"]] * 3, "nproc": os.cpu_count(),
        "llc_mib": llc / (1 << 20), "cc": first_line(["cc", "--version"]),
        "cxx": first_line(["c++", "--version"]),
        "cleared_env": cleared,
        "fail_frac": failed / attempted if attempted else 1.0,
        "interp_rel_err": ref["interp_err"],
    }
    if a.trace:
        context["ledger_steps"] = raw["ledger_steps"]
    else:
        context.update(wavefield_buffer_mib=raw["buffer_mib"],
                       setup_samples_s=setups, episodes=len(episodes),
                       step_samples=len(chunks), max_rel_err=raw["max_err"],
                       subnormal_share=raw["subnormal_share"])
    print(json.dumps({"context": context}))
    finite = all(isinstance(v, (int, float)) for v in metrics.values())
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
