"""Run one bsqpt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tomo_batch --seed 1 --seconds 30 --trace 0

Workloads: ``paper_fit``, ``tomo_batch``, ``cli_session`` (see
``workloads.py`` and ``README.md``). The package is imported from ``src/``
next to this directory, so the benchmark measures the checkout it sits in.

``--trace 0`` runs items in a closed loop (the next item starts when the
previous one is done) for ``--seconds`` and reports the end-to-end metrics
named in ``BENCHMARK.json``, with every time scaled to the reference
machine speed by the gauge in ``speed.py``; the process and its children
stay on one CPU, the one the gauge reads. ``--trace 1`` runs the workload's fixed item
list twice per item, once plain and once with spans around every call into
``bsqpt``, and reports the per-layer metrics. Either way every output is
checked against the oracle; a failed check makes the exit code 1. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Every matrix is 16x16 or 256x256: pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import subprocess
import sys
import time
from statistics import median, quantiles

from spans import NULL, Tracer
from speed import EVERY_S, Gauge, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
SELF_LAYERS = ("tomography", "channel", "fitting", "bsfilter", "linalg", "cli", "bench")
BUILD_REPEATS = 5


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_item(wl, k: int, inp, tr, fits: list) -> tuple[float, str | None]:
    """Run item ``k`` (timed) and check it (not timed); return its time and any error."""
    tr.item = k
    t0 = time.perf_counter()
    try:
        with tr.span("bench.item"):
            out = wl.run(inp, tr)
    except Exception as exc:  # a crashing item is a failed item, not a crashed benchmark
        return time.perf_counter() - t0, f"item {k}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    tr.item = None
    try:
        wl.check(inp, out, tr, fits)
    except Exception as exc:
        return elapsed, f"item {k}: {type(exc).__name__}: {exc}"
    return elapsed, None


def check_run(wl, fits: list, errors: list[str]) -> None:
    """Whole-run checks, only meaningful once every item passed its own."""
    if errors:
        return
    try:
        wl.check_all(fits)
    except Exception as exc:
        errors.append(f"run: {type(exc).__name__}: {exc}")


def timed_run(wl, seconds: float) -> tuple[list[float], list[float], list[str]]:
    """Closed loop in whole rounds of items, ending at the round boundary nearest ``seconds``.

    A round of ``cli_session`` takes about 10 s; stopping at the first
    boundary past ``seconds`` would make every run 5 s longer on average.
    Returns each item's time as measured and scaled to the reference speed
    by the gauge readings around it (see ``speed.py``), and the errors.
    """
    gauge = Gauge()
    times, scaled, errors, fits = [], [], [], []
    last = gauge.reading()
    start = round_start = time.perf_counter()
    for k, inp in enumerate(wl.items()):
        elapsed, error = run_item(wl, k, inp, NULL, fits)
        times.append(elapsed)
        if error:
            errors.append(error)
        n = k + 1
        if n % wl.boundary == 0 or sum(times[len(scaled):]) >= EVERY_S:
            reading = gauge.reading()
            factor = scale(last, reading)
            scaled.extend(t * factor for t in times[len(scaled):])
            last = reading
        if n % wl.boundary == 0:
            now = time.perf_counter()
            # Another round like the last one would end further past ``seconds``
            # than now is short of it.
            if n >= wl.min_items and now - start + (now - round_start) / 2 >= seconds:
                break
            round_start = now
    check_run(wl, fits, errors)
    return times, scaled, errors


def end_to_end(wl, times: list[float], scaled: list[float], setup_s: float,
               peak_rss_mb: float) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics, from item times scaled to the reference speed."""
    tail = quantiles(scaled, n=100, method="inclusive")[wl.tail_pct - 1]
    beyond = sum(t > tail for t in scaled)
    # Outside load slows this kind of machine in phases of seconds, so item
    # times are bimodal and one median over the run jumps between the modes.
    # The median of each round, averaged over the rounds, moves smoothly
    # with the share of slow phases instead.
    size = wl.boundary
    round_p50 = [median(scaled[i:i + size]) for i in range(0, len(scaled), size)]
    notes = [
        f"item_tail_ms is p{wl.tail_pct} over {len(scaled)} items, "
        f"{beyond} beyond it{'' if beyond >= 10 else ' (fewer than ten)'}",
        f"as measured, before scaling to the reference speed: items_per_s "
        f"{len(times) / sum(times):.6g} 1/s, machine at {sum(times) / sum(scaled):.4g}x "
        f"the reference time",
    ]
    return {
        "setup_s": setup_s,
        "items_per_s": len(scaled) / sum(scaled),
        "item_p50_ms": 1e3 * sum(round_p50) / len(round_p50),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb,
    }, notes


def traced_run(wl, tracer):
    """Each of the workload's trace items untraced, then traced, back to back."""
    plain, traced, errors, fits = [], [], [], []
    for k, inp in zip(range(wl.trace_items), wl.items()):
        for tr, times in ((NULL, plain), (tracer, traced)):
            elapsed, error = run_item(wl, k, inp, tr, fits if tr is tracer else [])
            times.append(elapsed)
            if error:
                errors.append(error)
    tracer.item = None
    probes = {}
    try:
        probes = probe_layers(wl, tracer)
    except Exception as exc:
        errors.append(f"probes: {type(exc).__name__}: {exc}")
    check_run(wl, fits, errors)
    return plain, traced, fits, probes, errors


def probe_layers(wl, tracer) -> dict[str, float]:
    """Set-up layers timed cold, then the workload's own probes."""
    from bsqpt import bases, tomography

    for _ in range(BUILD_REPEATS):
        with tracer.span("tomography.build_input_set"):
            tomography.build_input_set()
        bases.build_basis.cache_clear()
        with tracer.span("bases.build_basis.cold"):
            for kind in bases.BASIS_KINDS:
                bases.build_basis(kind)
    return wl.probe_layers(tracer)


def layer_metrics(tracer, plain, traced, fits, probes, commands) -> dict[str, float]:
    def stat(name, fn, scale=1.0):
        d = tracer.durations(name)
        return scale * fn(d) if d else 0.0

    m = {}
    for name in ("tomography.reconstruct_process", "tomography.simulate_counts"):
        m[f"{name}.calls"] = len(tracer.durations(name))
        m[f"{name}.busy_s"] = stat(name, sum)
        m[f"{name}.p50_us"] = stat(name, median, 1e6)
    m["tomography.build_input_set.ms"] = stat("tomography.build_input_set", median, 1e3)
    m["bases.build_basis.cold_ms"] = stat("bases.build_basis.cold", median, 1e3)
    m["fitting.fit.calls"] = len(tracer.durations("fitting.fit"))
    m["fitting.fit.busy_s"] = stat("fitting.fit", sum)
    m["fitting.fit.p50_ms"] = stat("fitting.fit", median, 1e3)
    evaluations = sum(f.evaluations for f in fits)
    m["fitting.evaluations"] = evaluations
    m["fitting.us_per_evaluation"] = 1e6 * m["fitting.fit.busy_s"] / evaluations if evaluations else 0.0
    m["fitting.converged_frac"] = sum(f.converged for f in fits) / len(fits) if fits else 0.0
    m["fitting.p_rmse"] = (
        math.sqrt(sum((f.p_fit - f.p_true) ** 2 for f in fits) / len(fits)) if fits else 0.0
    )
    m["channel.transform_process_matrix.p50_us"] = stat("channel.transform_process_matrix", median, 1e6)
    m["channel.choi_from_kraus.p50_us"] = stat("channel.choi_from_kraus", median, 1e6)
    m["linalg.project_to_psd.busy_s"] = stat("linalg.project_to_psd", sum)
    m["linalg.project_to_psd.p50_us"] = stat("linalg.project_to_psd", median, 1e6)
    m["bsfilter.kraus_pair.p50_us"] = stat("bsfilter.kraus_pair", median, 1e6)
    m["bsfilter.hom_dip.ms"] = stat("bsfilter.hom_dip", median, 1e3)
    m["cli.interpreter_ms"] = probes.get("cli.interpreter_ms", 0.0)
    m["cli.import_ms"] = probes.get("cli.import_ms", 0.0)
    for command in commands:
        for mode in ("cold", "warm"):
            m[f"cli.{command}.{mode}_ms"] = stat(f"cli.{command}.{mode}", median, 1e3)
    for direction in ("read", "write"):
        m[f"fileio.{direction}.busy_ms"] = stat(f"fileio.{direction}", sum, 1e3)
        m[f"fileio.{direction}.bytes"] = probes.get(f"fileio.{direction}.bytes", 0)

    # Self time per layer, inside items only: span duration minus child spans.
    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.item is not None:
            self_s[span.layer] += own
    item_s = sum(traced)
    for layer in SELF_LAYERS:
        m[f"self_s.{layer}"] = self_s[layer]
        m[f"self_frac.{layer}"] = self_s[layer] / item_s
    m["trace.items"] = len(traced)
    m["trace.item_ms"] = 1e3 * item_s / len(traced)
    m["trace.overhead_frac"] = item_s / sum(plain) - 1.0
    return m


def machine_context(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bsqpt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_affinity": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def setup_seconds(args: argparse.Namespace) -> float:
    """Median, over fresh processes, of the time from process start to first item ready.

    Each probe is scaled to the reference speed by the gauge readings around it.
    """
    gauge = Gauge()
    samples = []
    before = gauge.reading()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        after = gauge.reading()
        samples.append(elapsed * scale(before, after))
        before = after
    return median(samples)


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU: the one the gauge reads.

    Outside load slows each CPU of the reference machine on its own, so a
    gauge reading tells the speed of an item only when both ran on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not os.path.isfile(os.path.join(SRC, "bsqpt", "__init__.py")):
        print(f"error: no bsqpt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import COMMANDS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        wl = WORKLOADS[args.workload](args.seed, ROOT)
        try:
            wl.warm_up()
            print("ready", flush=True)
        finally:
            wl.close()
        return 0

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    wl = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        wl.warm_up()
        if args.trace:
            tracer = Tracer()
            plain, traced, fits, probes, errors = traced_run(wl, tracer)
            values = layer_metrics(tracer, plain, traced, fits, probes, COMMANDS)
            attempted = len(plain) + len(traced)
            notes = [f"trace: {len(tracer.spans)} spans over {len(traced)} items"]
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
        else:
            times, scaled, errors = timed_run(wl, args.seconds)
            # Read before any other child process is started: on cli_session
            # every item is a child, and the peak must be theirs alone.
            peak_rss_mb = resource.getrusage(wl.rss_of).ru_maxrss / 1024.0
            attempted = len(times)
    finally:
        wl.close()
    if not args.trace:
        values, notes = end_to_end(wl, times, scaled, setup_seconds(args), peak_rss_mb)
    context = machine_context(args)

    failed_items = sum(1 for e in errors if e.startswith("item "))
    correct = not errors
    for error in errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print("context " + json.dumps(context, sort_keys=True))
    for note in notes:
        print(note)
    print(f"failed_frac {failed_items / attempted:.6g} ratio "
          f"({failed_items} of {attempted} items failed a check)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed_items,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_to_one_cpu()
    raise SystemExit(main())
