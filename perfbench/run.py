"""The repository benchmark: one seeded workload per run, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decode_long --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cnn_stream``  -- one client in a closed loop over three serving
  Engines (MobileNet-v1@128, SqueezeNet-v1.1@96, ResNet-18@64, each
  through ``converter.optimize``), fed decks of one image per model in
  seeded order.
* ``decode_long`` -- offline batches of 12 fresh fp32 prompts of 4-12
  tokens, 48 greedy tokens each, four seats, no prefix cache.
* ``prefix_chat`` -- 12-prompt batches, each prompt one of four seeded
  40-token prefixes plus 2-8 fresh tokens, 4 new tokens, prefix cache on.
* ``decode_int8`` -- ``decode_long`` traffic with int8 weights and int8 KV.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``throughput_per_s`` -- images/s on ``cnn_stream``, generated tokens/s
  on the genai workloads, over the time spent inside the front door;
* ``ttft_p50_ms`` / ``ttft_p90_ms`` -- time from a request's submission to
  its first output: the image's inference latency on ``cnn_stream``, time
  to first token (queueing in the offline batch included) on genai;
* ``tpot_p50_ms`` -- time per output after the first: on genai a
  request's ``(end-to-end - TTFT) / (tokens - 1)``, on ``cnn_stream`` the
  gap between consecutive images of one deck.  Its tail moves with host
  contention far more than the median does, so the p90 and p99 are
  printed in the summary line but not reported as metrics.

These four are read over the whole window and reported at the reference
host speed.  A shared host's speed drifts by a third or more within
minutes, far beyond any bound a program change could be held to, so
after each unit of traffic the run times a fixed piece of numpy work
(:func:`calibrate`: GEMMs and a chain of small row-wise ops) on the same
core.  Each unit's times are divided by its host factor, the median of
the calibrations nearest to it over ``CALIBRATION_REF_S``; the rate is
items over the scaled times.  The summary line prints the rate as
measured and the factors.  The program never runs the calibration, so a
slower program is reported slower by exactly its own slowdown.

* ``setup_s`` -- median over several cold processes, each with an empty
  pre-inference cache directory of its own, of the time from engine
  construction to the first result (which is then checked), normalized
  the same way by a calibration taken in that process;
* ``peak_rss_mb`` -- the measuring process's peak resident set, read when
  the timed window closes.

BLAS runs one thread: the benchmark is a single stream, and a
two-thread GEMM on a two-core shared host stalls whenever any other
process takes a core.

``--trace 1`` runs a slice of the same traffic twice in one process,
untraced and then traced on fresh engines, and prints the per-layer
metrics worked out from the spans by :mod:`ledger` (``.ms`` is
milliseconds per image or per generated token, ``.self_ms`` and
``kv_move_ms`` a span's self time per item, ``.calls`` calls per image or
token).  Two summarise the trace itself: ``unattributed.ms``, the traced
wall time per item that no ``op`` span covers, and ``trace.overhead``,
traced over untraced wall time for the same units.

Every output is checked outside the timed window; a mismatch counts as a
failed request.  All files the run writes go to a directory under
``.perfbench_tmp/`` in the repository root, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

# Set before numpy loads BLAS; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
#: Calibrations a set-up probe takes after its measurement.
PROBE_CALIBRATIONS = 7
PROBE_TIMEOUT_S = 120
#: The reference host speed: a round figure near the median of :func:`calibrate`
#: on a 2-vCPU 2.1 GHz x86-64 VM with one BLAS thread.
CALIBRATION_REF_S = 0.014
#: A unit's host factor is the median of the calibrations up to this many
#: units before and after it.
LOCAL_SPAN = 2
#: Share of ``--seconds`` the untraced slice of a traced run takes.
TRACE_SLICE = 0.4


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 when nothing was served."""
    return float(np.percentile(values, q)) if values else 0.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


_CAL = np.random.default_rng(0)
_CAL_SQUARE = _CAL.standard_normal((192, 192), dtype=np.float32)
_CAL_ROWS = _CAL.standard_normal((16, 64), dtype=np.float32)
_CAL_PROJ = _CAL.standard_normal((64, 64), dtype=np.float32)


def calibrate() -> float:
    """Seconds this host takes, now, for a fixed piece of numpy work.

    The mix follows the program's: GEMMs (convolutions, projections) and
    short row-wise ops whose cost is mostly interpreter and dispatch
    (attention, norms and activations on a few decode rows).
    """
    start = time.perf_counter()
    for _ in range(60):
        _CAL_SQUARE @ _CAL_SQUARE
    x = _CAL_ROWS
    for _ in range(500):
        y = x @ _CAL_PROJ
        y = np.exp(y - y.max(-1, keepdims=True))
        x = y / y.sum(-1, keepdims=True)
    return time.perf_counter() - start


def host_factor(calibrations: List[float]) -> float:
    """How much slower than the reference speed the host ran."""
    return statistics.median(calibrations) / CALIBRATION_REF_S


def local_factors(calibrations: List[float]) -> List[float]:
    """Each unit's host factor, from the calibrations nearest to it (one
    is taken after every unit): the host's speed drifts within a run too."""
    return [
        host_factor(calibrations[max(0, i - LOCAL_SPAN) : i + LOCAL_SPAN + 1])
        for i in range(len(calibrations))
    ]


# -- set-up -------------------------------------------------------------------


def probe_setup(workload, seed: int, index: int, run_dir: str) -> Dict[str, object]:
    """Cold set-up in this (fresh) process: construction to first result."""
    traffic = workload.traffic(seed, 100 + index)
    units = workload.setup_units(traffic)
    start = time.perf_counter()
    server = workload.server(os.path.join(run_dir, "cache"))
    outcomes = [server.run(unit) for unit in units]
    setup_s = time.perf_counter() - start
    factor = host_factor([calibrate() for _ in range(PROBE_CALIBRATIONS)])
    wrong = sum(server.wrong(u, o) + o.errors for u, o in zip(units, outcomes))
    return {
        "setup_s": setup_s / factor,
        "raw_s": setup_s,
        "correct": wrong == 0 and server.counts_ok(),
    }


def measure_setup(args) -> List[Dict[str, object]]:
    """Run the set-up probes one after another, each in its own process."""
    probes = []
    for index in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
            "--probe-setup", str(index),
        ]
        proc = subprocess.run(
            cmd, cwd=str(ROOT), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


# -- end-to-end run ------------------------------------------------------------


def check(server, records) -> Dict[str, int]:
    """Check every output against its reference; reconcile the counts."""
    counts = {"sent": 0, "errors": 0, "wrong": 0, "counts_ok": int(server.counts_ok())}
    for unit, outcome in records:
        counts["sent"] += outcome.sent
        counts["errors"] += outcome.errors
        counts["wrong"] += server.wrong(unit, outcome)
        counts["counts_ok"] &= int(outcome.counts_ok)
    return counts


def replayed(workload, seed: int, outcomes):
    """Pair each outcome with its unit, regenerated from the seed.

    The timed run keeps no inputs, so its peak memory is the program's
    and does not grow with the number of requests served.
    """
    traffic = workload.traffic(seed, 0)
    setup = workload.setup_units(traffic)
    for i, outcome in enumerate(outcomes):
        yield (setup[i] if i < len(setup) else traffic.next()), outcome


def end_to_end(args, workload, run_dir: str) -> Dict[str, object]:
    probes = measure_setup(args)
    traffic = workload.traffic(args.seed, 0)
    server = workload.server(os.path.join(run_dir, "cache"))
    # Warm-up: lazy set-up (decode cells, prefix cache) is done before timing.
    warm = [server.run(unit) for unit in workload.setup_units(traffic) + [traffic.next()]]
    window, walls, calibrations = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        began = time.perf_counter()
        window.append(server.run(traffic.next()))
        walls.append(time.perf_counter() - began)
        calibrations.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    items = sum(o.items for o in window)
    factors = local_factors(calibrations)
    busy_s = sum(walls)
    ttft = [t / f for o, f in zip(window, factors) for t in o.ttft_ms]
    tpot = [t / f for o, f in zip(window, factors) for t in o.tpot_ms]
    counts = check(server, replayed(workload, args.seed, warm + window))
    failed = counts["errors"] + counts["wrong"]
    correct = (
        failed == 0 and counts["counts_ok"] == 1
        and all(p["correct"] for p in probes)
    )
    print(
        f"{workload.name}: sent {counts['sent']} succeeded {counts['sent'] - failed} "
        f"failed {failed} (errors {counts['errors']}, wrong {counts['wrong']}); "
        f"counts reconciled: {bool(counts['counts_ok'])}; "
        f"{items} {workload.item}s in {busy_s:.2f} s ({items / busy_s:.1f}/s as "
        f"measured), host factor {host_factor(calibrations):.3f} "
        f"[{min(factors):.3f}, {max(factors):.3f}]; tpot p90 "
        f"{percentile(tpot, 90):.3f} p99 {percentile(tpot, 99):.3f} ms; "
        f"set-up probes {[round(p['raw_s'], 4) for p in probes]} s as measured"
    )
    metrics = {
        "throughput_per_s": metric(
            items / sum(w / f for w, f in zip(walls, factors)), "1/s"
        ),
        "ttft_p50_ms": metric(percentile(ttft, 50), "ms"),
        "ttft_p90_ms": metric(percentile(ttft, 90), "ms"),
        "tpot_p50_ms": metric(percentile(tpot, 50), "ms"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return {
        "correct": correct,
        "attempted": counts["sent"],
        "failed": failed,
        "metrics": metrics,
    }


# -- traced run ------------------------------------------------------------------


def shared_prefix_share(prompts_before, prompts) -> float:
    """Share of ``prompts``' tokens lying in a prefix of an earlier prompt."""
    seen = set()

    def add(prompt):
        for k in range(1, len(prompt) + 1):
            seen.add(tuple(prompt[:k]))

    for prompt in prompts_before:
        add(prompt)
    shared = total = 0
    for prompt in prompts:
        k = len(prompt)
        while k and tuple(prompt[:k]) not in seen:
            k -= 1
        shared += k
        total += len(prompt)
        add(prompt)
    return shared / total if total else 0.0


def registry_totals(server) -> Dict[str, float]:
    """Program counters read back from the engines' private registries."""
    regs = server.registries()
    names = ("engine.cache.hits", "engine.cache.misses", "kvcache.evictions",
             "genai.preemptions", "kvcache.cow_materializes",
             "genai.prefix_hit_tokens")
    return {n: float(sum(r.value(n) for r in regs)) for n in names}


def traced(args, workload, run_dir: str) -> Dict[str, object]:
    from ledger import DECODE_SPAN, KERNELS, Layer, Probes, layer_times
    from repro.obs import Tracer, set_tracer

    traffic = workload.traffic(args.seed, 0)
    warm = workload.setup_units(traffic) + [traffic.next()]

    # Untraced slice: fixes the units and the wall time to compare against.
    plain = workload.server(os.path.join(run_dir, "plain"))
    for unit in warm:
        plain.run(unit)
    units, wall_plain = [], 0.0
    while wall_plain < args.seconds * TRACE_SLICE:
        units.append(traffic.next())
        start = time.perf_counter()
        plain.run(units[-1])
        wall_plain += time.perf_counter() - start

    tracer = Tracer()
    previous = set_tracer(tracer)
    probes = Probes(tracer)
    probes.install()
    try:
        server = workload.server(os.path.join(run_dir, "traced"))
        if workload.genai:
            probes.allocator = server.engine.allocator
        outcomes = [server.run(unit) for unit in warm]
        probes.reset()
        before = registry_totals(server)
        mark = tracer.mark()
        start = time.perf_counter()
        window = [server.run(unit) for unit in units]
        wall = time.perf_counter() - start
        after = registry_totals(server)
    finally:
        probes.uninstall()
        set_tracer(previous)

    counts = check(server, zip(warm + units, outcomes + window))
    failed = counts["errors"] + counts["wrong"]
    items = max(sum(o.items for o in window), 1)
    layers = layer_times(tracer.spans_since(mark))

    def layer(name: str) -> Layer:
        return layers.get(name, Layer())

    kernels = list(KERNELS.values()) + ["other"]
    op_s = sum(layer(k).total_s for k in kernels)
    if op_s == 0.0:
        raise RuntimeError("traced window recorded no op spans")
    # Every session the traced server built, warm-up and window alike.
    prepare = layer_times(
        s for s in tracer.spans if s.name == "session.prepare"
    ).get("session.prepare", Layer())
    delta = {k: after[k] - before[k] for k in after}

    def per_item_ms(seconds: float) -> Dict[str, object]:
        return metric(seconds * 1000.0 / items, "ms/item")

    def per_item(count: float, unit: str = "count/item") -> Dict[str, object]:
        return metric(count / items, unit)

    metrics: Dict[str, Dict[str, object]] = {}
    for name in kernels:
        metrics[f"kernels.{name}.ms"] = per_item_ms(layer(name).total_s)
        metrics[f"kernels.{name}.calls"] = per_item(layer(name).calls, "calls/item")
    step = layer("genai.decode_step")
    prompt_tokens = sum(len(p) for unit in units if workload.genai for p in unit)
    util = probes.page_utilization
    metrics.update({
        "core.executor.self_ms": per_item_ms(layer("session.run").self_s),
        "core.prepare.ms": metric(prepare.total_s * 1000.0, "ms"),
        "serving.infer.self_ms": per_item_ms(layer("engine.infer").self_s),
        "serving.pool.wait_ms": per_item_ms(layer("pool.checkout_wait").total_s),
        "serving.cache.hits": metric(after["engine.cache.hits"], "count"),
        "serving.cache.misses": metric(after["engine.cache.misses"], "count"),
        "genai.prefill.ms": per_item_ms(layer("genai.prefill").total_s),
        "genai.prefill.tokens": per_item(
            layer("genai.prefill").args["tokens"], "tokens/item"
        ),
        "genai.decode.ms": per_item_ms(layer(DECODE_SPAN).total_s),
        "genai.decode.steps": per_item(step.calls, "steps/item"),
        "genai.decode.batch_mean": metric(
            step.args["batch"] / step.calls if step.calls else 0.0, "rows/step"
        ),
        "genai.decode.kv_move_ms": per_item_ms(layer(DECODE_SPAN).self_s),
        "genai.scheduler.self_ms": per_item_ms(layer("genai.generate").self_s),
        "genai.kvcache.allocs": per_item(probes.allocs),
        "genai.kvcache.evictions": per_item(delta["kvcache.evictions"]),
        "genai.kvcache.preemptions": per_item(delta["genai.preemptions"]),
        "genai.kvcache.page_utilization": metric(
            sum(util) / len(util) if util else 0.0, "ratio"
        ),
        "genai.kvcache.bytes_per_token": metric(
            server.engine.kv_config.per_token_bytes if workload.genai else 0.0,
            "B/token",
        ),
        "genai.prefix.hit_token_share": metric(
            delta["genai.prefix_hit_tokens"] / prompt_tokens if prompt_tokens else 0.0,
            "ratio",
        ),
        "genai.prefix.cow_materializes": per_item(delta["kvcache.cow_materializes"]),
        "traffic.shared_prefix_share": metric(
            shared_prefix_share(
                [p for unit in warm for p in unit],
                [p for unit in units for p in unit],
            ) if workload.genai else 0.0,
            "ratio",
        ),
        "unattributed.ms": per_item_ms(wall - op_s),
        "trace.overhead": metric(wall / wall_plain, "ratio"),
    })
    print(
        f"{workload.name} (traced): sent {counts['sent']} failed {failed}; "
        f"{items} {workload.item}s; op spans cover {op_s / wall:.1%} of traced wall"
    )
    return {
        "correct": failed == 0 and counts["counts_ok"] == 1,
        "attempted": counts["sent"],
        "failed": failed,
        "metrics": metrics,
    }


# -- entry point -------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception: a running set-up probe is killed
    # and waited for, and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Workload

    workload = Workload.named(args.workload)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(tmp_root))
    # Anything that falls back to the default pre-inference cache lands in
    # this run's directory, never in the user's home.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "default-cache")
    try:
        if args.probe_setup is not None:
            result = probe_setup(workload, args.seed, args.probe_setup, run_dir)
        elif args.trace:
            result = traced(args, workload, run_dir)
        else:
            result = end_to_end(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
