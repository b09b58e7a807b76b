"""Benchmark of the latency model's own flows, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload case1 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``case1`` (Case 1 mapper search),
``case2`` (Case 2 workload sweep rows), ``case3`` (Case 3 architecture DSE
design points), ``fig5`` (Fig. 5 model vs simulator validation) and
``serve`` (the Case 1 search against a daemon in its own process). The
program is imported from ``src/`` of the checkout; without it the
benchmark exits with an error.

A run sets its workload up, makes one untimed warm-up operation, times
operations for ``--seconds`` and checks every output it kept. Eight more
set-ups, spread over the measured time (which pauses for them), give
``setup_s`` from the fastest of them: the in-process workloads are set up
in a fresh interpreter each time (import plus set-up, what a command-line
user waits for), the served one boots a fresh daemon and connects to it.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics ``op_scaled_ms`` and
``setup_s``: the fastest operation of the run (for ``case2`` and
``fig5``, the sum over their layers of each layer's fastest operation:
one pass over the sweep or table) and the fastest set-up, both scaled to
the speed of a quiet host. The host this was written on (2 vCPUs under
KVM) shares its cores with other machines and runs Python code 1x to
1.6x slower for seconds to minutes at a time. Between runs, a run's
median and even its 10th percentile moved with that by 15-40 %, the
median of five set-ups by 30-40 %, the fastest operation by 5-15 % and
in a slow minute by 40 %. So after each operation the run also times
:func:`reference`, fixed code that shares nothing with the program, and
multiplies both minima by ``REF_MS`` over the reference's fastest time.
Over ten runs that cut the spread of the fastest operation from 12 % to
3 % of its median (``case2``). The measured minima and the reference's
time go to standard error.

``--trace 1`` times each program layer (``layers.py``) and reports per
operation the mean self time of each layer (``<layer>_ms``), the mean
traced operation time (``traced_op_ms``), the part of it no layer of the
benchmark's own process covers (``other_ms``) and event counts. For
``serve``, the daemon's layer times are added as measured there: they
overlap the client's time and each other (``queue_wait_ms`` sums the
waits of requests queued together), so they are not part of
``other_ms``; ``queue_depth`` is the mean shard queue depth a request
found on arrival.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: A run that has not finished by then is abandoned (the contract is 180 s).
WATCHDOG_S = 170
#: Set-ups per run; ``setup_s`` comes from the fastest of them.
SETUP_REPS = 8
#: Fastest time of :func:`reference` in a benchmark run on a quiet host
#: (2 vCPUs under KVM), in ms: the speed the end-to-end metrics scale to.
REF_MS = 1.83
WORKLOADS = ("case1", "case2", "case3", "fig5", "serve")


def import_program(root: str) -> None:
    """Put the checkout's ``src`` first on the path and make sure it is used."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def make_workload(name: str, seed: int, trace: bool):
    import workloads

    if name == "case1":
        return workloads.Case1Mapper(seed)
    if name == "case2":
        return workloads.Case2Sweep(seed)
    if name == "case3":
        return workloads.Case3ArchDse(seed)
    if name == "fig5":
        return workloads.Fig5Validation(seed)
    return workloads.ServedSearch(seed, trace)


def cold_setup_seconds(args) -> float:
    """Seconds for a fresh interpreter to import the program and set up."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    try:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {ready!r}")
    return elapsed


def setup_seconds(workload, args) -> float:
    """One timed set-up, torn down again."""
    if workload.cold_setup:
        return cold_setup_seconds(args)
    t0 = time.perf_counter()
    state = workload.setup()
    elapsed = time.perf_counter() - t0
    workload.close(state)
    return elapsed


def reference() -> int:
    """A fixed computation that shares no code with the program.

    It is made of what a model operation is made of, interpreted Python
    (tuples, dicts, sorting) and NumPy calls on small arrays, so that a
    slower host slows it by about as much as it slows the program.
    """
    rng = random.Random(0)
    data = [rng.random() for __ in range(2000)]
    table = {}
    for i, x in enumerate(data):
        table[(i % 97, int(x * 1000))] = x
    pairs = tuple(zip(sorted(data), data))
    lanes = numpy.arange(64, dtype=numpy.int64)
    for __ in range(300):
        lanes = numpy.minimum(lanes + 3, 1000) % 997
    return len(table) + len(pairs) + int(lanes.sum())


def measure(workload, state, args, clock):
    """Time operations for ``args.seconds``, pausing for untraced set-ups.

    The set-ups are spread evenly over the run, so that their minimum does
    not hang on the host's speed during one stretch of a few seconds.
    """
    times = {}
    refs = []
    attempted = failed = 0
    errors = []
    setups = [] if args.trace else [
        args.seconds * i / SETUP_REPS for i in range(SETUP_REPS)
    ]
    setup_times = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline:
        if setups and time.perf_counter() - start >= setups[0]:
            setups.pop(0)
            t0 = time.perf_counter()
            setup_times.append(setup_seconds(workload, args))
            paused = time.perf_counter() - t0
            start += paused
            deadline += paused
            continue
        with clock.paused():
            arg = workload.prepare(state)
        attempted += 1
        t0 = time.perf_counter()
        try:
            group = workload.op(state, arg)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        times.setdefault(group, []).append(time.perf_counter() - t0)
        if not args.trace:
            t0 = time.perf_counter()
            reference()
            refs.append(time.perf_counter() - t0)
    return times, attempted, failed, errors, setup_times, refs


def run(args) -> dict:
    import layers

    workload = make_workload(args.workload, args.seed, bool(args.trace))
    clock = layers.LayerClock()
    if args.trace:
        layers.instrument_kernel(clock)
        layers.instrument_client(clock)
    state = workload.setup()
    try:
        workload.op(state, workload.prepare(state))  # warm-up, untimed
        clock.reset()
        times, attempted, failed, errors, setup_times, refs = measure(
            workload, state, args, clock
        )
        layer_s, counts = clock.totals()
        errors += workload.check(state)
    finally:
        clock.restore()
        server = workload.close(state) or {}

    ops = sum(len(v) for v in times.values())
    busy_s = sum(sum(v) for v in times.values())
    if not ops:
        raise RuntimeError(f"no operation completed: {errors[:3]}")
    units = ops / len(times)  # units of work done (case2, fig5: passes)
    for line in errors[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {ops} operations in "
          f"{len(times)} group(s), {len(setup_times)} set-ups", file=sys.stderr)

    if not args.trace:
        op_s = sum(min(v) for v in times.values())
        speed = REF_MS / (1e3 * min(refs))  # >1 while the host is slow
        print(f"perfbench: measured fastest operation {1e3 * op_s:.3f} ms, "
              f"set-up {min(setup_times):.4f} s, reference "
              f"{1e3 * min(refs):.4f} ms", file=sys.stderr)
        metrics = {
            "op_scaled_ms": (1e3 * op_s * speed, "ms"),
            "setup_s": (min(setup_times) * speed, "s"),
        }
    else:
        # Only this process's layers add up to the operation time: the
        # daemon works beside the client, its requests beside each other.
        timed = sum(layer_s.get(layer, 0.0) for layer in layers.LAYERS)
        # The daemon's totals also cover the warm-up's requests; scale
        # them to the requests the measured operations sent.
        server_counts = dict(server.get("counts", {}))
        served = server_counts.pop("served", 0)
        scale = counts.get("requests", 0) / served if served else 0.0
        for layer, seconds in server.get("seconds", {}).items():
            layer_s[layer] = layer_s.get(layer, 0.0) + seconds * scale
        for name, count in server_counts.items():
            counts[name] = counts.get(name, 0) + count * scale
        metrics = {
            f"{layer}_ms": (1e3 * layer_s.get(layer, 0.0) / units, "ms")
            for layer in layers.LAYERS
        }
        metrics["other_ms"] = (1e3 * (busy_s - timed) / units, "ms")
        metrics["traced_op_ms"] = (1e3 * busy_s / units, "ms")
        for name in layers.COUNTS:
            metrics[name] = (counts.get(name, 0) / units, "count")
        requests = counts.get("requests", 0)
        metrics["queue_depth"] = (
            counts.get("queue_depth", 0) / requests if requests else 0.0, "count"
        )
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit "
                             "(how setup_s times a cold start)")
    args = parser.parse_args()

    def expired(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, expired)
    signal.alarm(WATCHDOG_S)
    import_program(os.getcwd())
    if args.setup_only:
        workload = make_workload(args.workload, args.seed, False)
        workload.close(workload.setup())
        print("ready", flush=True)
        return 0
    result = run(args)
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
