"""Per-layer accounting for the traced run, from the program's own spans.

With a tracer installed process-wide (``set_tracer``) the program records
a span at each layer boundary the benchmark reports:

=========================  =========================================
span                       layer
=========================  =========================================
``op``-category spans      one kernel call
``session.run``            the executor around its kernels
``session.prepare``        a session's pre-inference construction
``engine.infer``           the serving front door
``pool.checkout_wait``     waiting for a pooled session
``genai.generate``         the generation scheduler
``genai.prefill``          one prompt's prefill
``genai.decode_step``      the decode graph of one batched step
=========================  =========================================

A span's *self* time is its duration minus the time its child spans
cover, children being the spans of the same thread that lie inside its
interval (:func:`layer_times`).

One boundary has no span of its own: ``DecodeRunner.step`` gathers each
row's K/V into the decode feeds and writes the new rows back around
``genai.decode_step``.  :class:`Probes` wraps it in a ``perfbench.decode``
span, so that gather and write-back is that span's self time, and counts
``KVCacheAllocator.alloc`` calls.  The tracer is installed process-wide
because a tracer given through ``GenerationConfig(trace=...)`` does not
reach the prefill/decode sessions; a decode step that records no ``op``
span fails the run rather than reporting zeros.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.genai.decode import DecodeRunner
from repro.genai.kvcache import KVCacheAllocator
from repro.obs import Tracer

#: Kernel op types reported by name; every other op type is summed into
#: ``kernels.other``.
KERNELS = {
    "Conv2D": "conv2d",
    "DepthwiseConv2D": "depthwise_conv2d",
    "FullyConnected": "fully_connected",
    "MaxPool": "max_pool",
    "Attention": "attention",
    "LayerNorm": "layer_norm",
    "Gelu": "gelu",
    "MatMul": "matmul",
}
DECODE_SPAN = "perfbench.decode"


class MissingOpSpans(RuntimeError):
    """A decode step ran without recording a single op span."""


class Probes:
    """The benchmark's own probes on the layers that record no span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.allocs = 0
        self.page_utilization: List[float] = []
        self.allocator: Optional[KVCacheAllocator] = None
        self._saved: List[tuple] = []

    def install(self) -> None:
        probes = self
        step, alloc = DecodeRunner.step, KVCacheAllocator.alloc

        def traced_step(runner, *args, **kwargs):
            with probes.tracer.span(DECODE_SPAN, "perfbench"):
                out = step(runner, *args, **kwargs)
            if probes.allocator is not None:
                probes.page_utilization.append(probes.allocator.page_utilization())
            return out

        def counted_alloc(allocator, *args, **kwargs):
            probes.allocs += 1
            return alloc(allocator, *args, **kwargs)

        self._saved = [(DecodeRunner, "step", step), (KVCacheAllocator, "alloc", alloc)]
        DecodeRunner.step = traced_step
        KVCacheAllocator.alloc = counted_alloc

    def uninstall(self) -> None:
        for cls, attr, original in self._saved:
            setattr(cls, attr, original)
        self._saved = []

    def reset(self) -> None:
        """Start the measured window."""
        self.allocs = 0
        self.page_utilization.clear()


@dataclass
class Layer:
    """Totals over every span of one name."""

    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    args: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


def layer_times(spans) -> Dict[str, Layer]:
    """``span name -> Layer`` (``op`` spans keyed by kernel name).

    One pass per thread nests the spans by interval: a span's parent is
    the innermost earlier span of its thread whose interval holds it.
    Numeric span arguments are summed into ``Layer.args``.
    """
    layers: Dict[str, Layer] = defaultdict(Layer)
    by_thread = defaultdict(list)
    for span in spans:
        if not span.instant:
            by_thread[span.tid].append(span)
    missing_ops = 0
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.start_us, -s.dur_us))
        stack: List[list] = []          # [span, child_us, has_op]

        def close(entry) -> None:
            nonlocal missing_ops
            span, child_us, has_op = entry
            if span.name == "genai.decode_step" and not has_op:
                missing_ops += 1
            name = (KERNELS.get(span.args.get("op"), "other")
                    if span.category == "op" else span.name)
            layer = layers[name]
            layer.total_s += span.dur_us / 1e6
            layer.self_s += (span.dur_us - child_us) / 1e6
            layer.calls += 1
            for key, value in span.args.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    layer.args[key] += value

        for span in thread_spans:
            while stack and span.start_us >= stack[-1][0].end_us:
                close(stack.pop())
            if stack:
                stack[-1][1] += span.dur_us
                if span.category == "op":
                    for entry in stack:
                        entry[2] = True
            stack.append([span, 0.0, False])
        while stack:
            close(stack.pop())
    if missing_ops:
        raise MissingOpSpans(f"{missing_ops} decode steps recorded no op spans")
    return layers
