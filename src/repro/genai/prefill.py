"""Prefill: run a whole prompt through a bucketed, pre-prepared graph.

Autoregressive serving seems to contradict the paper's core premise —
pre-inference (Section 3.2) assumes fixed shapes, generation does not.
The resolution is *shape bucketing*: prompts run on the smallest prepared
``full``-mode graph whose length bucket fits, padded up.  Padding is free
correctness-wise because the decoder is causal — logits and K/V rows
``[:prompt_len]`` never see the padding positions — and cheap
latency-wise because buckets double, bounding overwork at 2x.

Each bucket's session is created once (the prepare/execute split of
Figure 3, amortized across every prompt that lands in the bucket),
warmed through the :class:`~repro.serving.PreInferenceCache`, and shared
through a :class:`~repro.serving.SessionPool`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.memory import MemoryPlan
from ..core.session import Session, SessionArtifacts, SessionConfig
from ..faults.errors import TransientFault
from ..faults.plan import FaultPlan, get_fault_plan
from ..faults.resilience import retry_transient
from ..ir.graph import Graph
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.tracer import Tracer, get_tracer
from ..serving.cache import PreInferenceArtifacts, PreInferenceCache
from ..serving.pool import SessionPool
from .kvcache import KVSlab

__all__ = ["length_buckets", "bucket_for_length", "PrefillRunner", "cached_session"]


def length_buckets(max_seq: int, smallest: int = 8) -> List[int]:
    """Doubling prompt-length buckets ending exactly at ``max_seq``."""
    buckets: List[int] = []
    cap = min(smallest, max_seq)
    while cap < max_seq:
        buckets.append(cap)
        cap *= 2
    buckets.append(max_seq)
    return buckets


def bucket_for_length(length: int, buckets: List[int]) -> int:
    """Smallest bucket >= ``length``; raises past the largest."""
    for cap in buckets:
        if cap >= length:
            return cap
    raise ValueError(f"length {length} exceeds largest bucket {buckets[-1]}")


def cached_session(
    graph: Graph,
    config: SessionConfig,
    cache: Optional[PreInferenceCache],
    tracer: Tracer,
    faults: FaultPlan,
    retries: int = 3,
    donor: Optional[MemoryPlan] = None,
) -> Session:
    """Build one session, warmed through the pre-inference cache.

    A per-bucket copy of ``Engine._create_session``'s contract: look the
    artifacts up by (graph, config) key, apply on hit, persist on miss,
    and degrade to cacheless on persistent cache IO faults
    (``fallback.cache``) — the cache can never take down preparation.

    ``donor`` optionally seeds the session with an adjacent bucket's
    memory plan: on a cache miss the session tries
    :func:`repro.core.memory.adapt_plan` (re-proven by memcheck) before
    planning from scratch, so sibling buckets share one arena layout.
    """

    def cache_io(fn, label: str):
        try:
            return retry_transient(
                fn, retries=retries, rng=faults.rng_for(label), label=label
            )
        except TransientFault:
            get_metrics().counter("fallback.cache").inc()
            return None

    artifacts = None
    hit = False
    if cache is not None:
        key = cache.key(graph, config)
        cached = cache_io(lambda: cache.load(key), "cache.load")
        if cached is not None:
            artifacts = cached.apply()
            hit = True
        tracer.instant("cache.hit" if hit else "cache.miss", "genai", key=key)
    if donor is not None:
        if artifacts is None:
            artifacts = SessionArtifacts(plan_donor=donor)
        elif artifacts.plan_donor is None:
            artifacts.plan_donor = donor
    session = Session(graph, config, artifacts=artifacts)
    if cache is not None and not hit:
        cache_io(
            lambda: cache.store(key, PreInferenceArtifacts.from_session(session)),
            "cache.store",
        )
    return session


class PrefillRunner:
    """Bucketed prompt execution writing K/V rows straight into a slab."""

    def __init__(
        self,
        build_graph: Callable[[int], Graph],
        max_seq: int,
        layers: int,
        pool_size: int = 1,
        smallest_bucket: int = 8,
        session_config: Optional[SessionConfig] = None,
        cache: Optional[PreInferenceCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
        retries: int = 3,
    ) -> None:
        self.build_graph = build_graph
        self.layers = layers
        self.buckets = length_buckets(max_seq, smallest_bucket)
        self.pool_size = pool_size
        self.session_config = session_config if session_config is not None else SessionConfig()
        self.cache = cache
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.faults = faults if faults is not None else get_fault_plan()
        self.retries = retries
        self._pools: Dict[int, SessionPool] = {}
        # Largest memory plan built by any bucket so far: donated to the
        # next bucket's sessions so adjacent buckets share one arena
        # layout instead of re-planning per bucket.
        self._donor_plan: Optional[MemoryPlan] = None

    def _offer_donor(self, plan: Optional[MemoryPlan]) -> None:
        if plan is None:
            return
        if self._donor_plan is None or plan.arena_bytes > self._donor_plan.arena_bytes:
            self._donor_plan = plan

    def _pool(self, bucket: int) -> SessionPool:
        pool = self._pools.get(bucket)
        if pool is None:
            graph = self.build_graph(bucket)
            config = replace(self.session_config, faults=self.faults)

            def factory(graph=graph, config=config) -> Session:
                session = cached_session(
                    graph, config, self.cache, self.tracer, self.faults,
                    self.retries, donor=self._donor_plan,
                )
                self._offer_donor(session.memory_plan)
                return session

            pool = SessionPool(
                factory,
                self.pool_size,
                metrics=self.metrics,
                tracer=self.tracer,
                faults=self.faults,
                retries=self.retries,
            )
            self._pools[bucket] = pool
        return pool

    def warm(self) -> None:
        """Prepare every bucket up front (the Figure-3 prepare phase).

        Largest bucket first: its memory plan becomes the donor every
        smaller bucket adapts (same tensors, same liveness intervals,
        smaller sizes), so the whole bucket ladder shares one arena
        layout and plans memory exactly once.
        """
        for bucket in reversed(self.buckets):
            self._pool(bucket)

    def run(self, prompt: List[int], slab: KVSlab) -> np.ndarray:
        """Execute the prompt; fill ``slab`` rows ``[:len(prompt)]``.

        Returns the last prompt token's logits row ``(vocab,)`` — the
        distribution the first generated token is sampled from.
        """
        n = len(prompt)
        if n < 1:
            raise ValueError("empty prompt")
        if slab.capacity < n:
            raise ValueError(
                f"slab capacity {slab.capacity} cannot hold a {n}-token prompt"
            )
        bucket = bucket_for_length(n, self.buckets)
        tokens = np.zeros((1, bucket), np.int32)
        tokens[0, :n] = np.asarray(prompt, np.int32)
        positions = np.arange(bucket, dtype=np.int32).reshape(1, bucket)
        with self.tracer.span("genai.prefill", "genai", tokens=n, bucket=bucket):
            with self._pool(bucket).acquire() as session:
                out = session.run({"tokens": tokens, "positions": positions})
        slab.write_rows(0, np.stack([
            out[f"l{layer}_{kv}"][0, :, :n, :]
            for layer in range(self.layers) for kv in ("k", "v")
        ]))
        slab.length = n
        self.metrics.counter("genai.prefill_tokens").inc(n)
        return out["logits"][0, n - 1]

    def close(self) -> None:
        self._pools.clear()
