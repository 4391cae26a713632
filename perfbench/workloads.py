"""Seeded traffic, servers and output checks for each benchmark workload.

Every workload has three parts:

* a *traffic* stream made only from the seed (the program receives the
  generated inputs and nothing else);
* a *server*: the engines under test, each with its own
  :class:`MetricsRegistry`, plus ``run(unit)`` driving one unit of
  traffic through the public front door (``serving.Engine.infer`` or
  ``genai.GenerationEngine.generate``);
* a *check* run outside any timed window: every output is compared with
  an independent reference, and the counts the engines report are
  reconciled with the counts the benchmark sent.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.converter import optimize
from repro.core.reference import execute_reference
from repro.core.session import Session
from repro.genai import GenerationConfig, GenerationEngine, GenRequest, SamplingParams
from repro.models import build_model
from repro.models.text import tiny_decoder
from repro.obs import MetricsRegistry, RequestTracker
from repro.serving import Engine, EngineConfig

#: (zoo name, input size): gemm1x1 + depthwise, Winograd + pooling,
#: sliding + Winograd -- the scheme mix of the paper's CPU figures.
CNN_MODELS: Tuple[Tuple[str, int], ...] = (
    ("mobilenet_v1", 128),
    ("squeezenet_v1.1", 96),
    ("resnet18", 64),
)
#: Tolerances against the reference executor.  Outputs are softmax
#: probabilities near 1e-3, so the absolute floor is kept well below them.
CNN_RTOL = 1e-4
CNN_ATOL = 1e-7

#: Four seats serve a batch in waves of four, and every request of a wave
#: waits as long for its first token.  With 12 prompts the TTFT median and
#: p90 fall inside a wave (the 2nd and 3rd); with 16 the median fell on
#: the gap between two waves and jumped from one run to the next.
PROMPTS_PER_BATCH = 12
VOCAB = 256  # GenerationConfig's default vocabulary


@dataclass
class Outcome:
    """What one unit of traffic produced, before any check."""

    sent: int
    errors: int
    items: int                      # images, or generated tokens
    ttft_ms: List[float]
    tpot_ms: List[float]
    outputs: object                 # kept for the check
    counts_ok: bool = True


# -- cnn_stream ---------------------------------------------------------------


Request = Tuple[int, Dict[str, np.ndarray]]


class CnnTraffic:
    """Images for a single client in a closed loop.  A unit is a deck of
    one image per model in seeded order, so every run serves the same
    model mix and a deck's rate does not depend on the draw."""

    def __init__(self, graphs, rng: np.random.Generator) -> None:
        self.graphs = graphs
        self.rng = rng

    def next(self) -> List[Request]:
        deck = []
        for model in self.rng.permutation(len(self.graphs)):
            graph = self.graphs[int(model)]
            name = graph.inputs[0]
            image = self.rng.standard_normal(graph.desc(name).shape, dtype=np.float32)
            deck.append((int(model), {name: image}))
        return deck


class CnnServer:
    """One serving Engine per model, each with a private registry."""

    def __init__(self, graphs, cache_dir: str) -> None:
        self.graphs = graphs
        self.engines = [
            Engine(g, EngineConfig(cache_dir=cache_dir, metrics=MetricsRegistry()))
            for g in graphs
        ]
        self.sent = [0] * len(graphs)

    def run(self, deck: List[Request]) -> Outcome:
        """Serve the images one after another; the gap between two
        consecutive completions of the deck is this stream's time per
        output."""
        latency, gaps, outputs = [], [], []
        errors = 0
        last_done: Optional[float] = None
        for model, feeds in deck:
            self.sent[model] += 1
            began = time.perf_counter()
            try:
                outputs.append(self.engines[model].infer(feeds))
            except Exception as exc:  # a failed request is counted, not fatal
                print(f"request failed: {exc!r}", file=sys.stderr)
                outputs.append(None)
                errors += 1
                continue
            done = time.perf_counter()
            latency.append((done - began) * 1000.0)
            if last_done is not None:
                gaps.append((done - last_done) * 1000.0)
            last_done = done
        return Outcome(len(deck), errors, len(deck) - errors, latency, gaps, outputs)

    def wrong(self, deck: List[Request], outcome: Outcome) -> int:
        bad = 0
        for (model, feeds), got in zip(deck, outcome.outputs):
            if got is None:
                continue
            graph = self.graphs[model]
            name = graph.outputs[0]
            ref = execute_reference(graph, feeds)[name]
            same = (
                got[name].shape == ref.shape
                and np.allclose(got[name], ref, rtol=CNN_RTOL, atol=CNN_ATOL)
                and int(np.argmax(got[name])) == int(np.argmax(ref))
            )
            bad += int(not same)
        return bad

    def counts_ok(self) -> bool:
        return all(
            e.stats.requests == n for e, n in zip(self.engines, self.sent)
        )

    def registries(self) -> List[MetricsRegistry]:
        return [e.metrics for e in self.engines]


def cnn_graphs():
    return [optimize(build_model(name, input_size=size)) for name, size in CNN_MODELS]


# -- genai workloads ----------------------------------------------------------


@dataclass(frozen=True)
class GenSpec:
    config: Dict[str, object]
    max_tokens: int
    shared_prefixes: int = 0        # 0: fresh prompts of 4-12 tokens
    prefix_tokens: int = 40


GEN_SPECS: Dict[str, GenSpec] = {
    "decode_long": GenSpec(config={}, max_tokens=48),
    "prefix_chat": GenSpec(config={"prefix_cache": True}, max_tokens=4,
                           shared_prefixes=4),
    "decode_int8": GenSpec(
        config={"quantize_weights": True, "kv_dtype": "int8"}, max_tokens=48
    ),
}


class PromptTraffic:
    """Unique prompts; with ``shared_prefixes`` each is one of a few
    seeded system prefixes followed by 2-8 fresh tokens."""

    def __init__(self, spec: GenSpec, rng: np.random.Generator) -> None:
        self.rng = rng
        self.prefixes = [
            [int(t) for t in rng.integers(0, VOCAB, size=spec.prefix_tokens)]
            for _ in range(spec.shared_prefixes)
        ]
        self._seen: Set[Tuple[int, ...]] = set()

    def prompt(self) -> List[int]:
        rng = self.rng
        while True:
            if self.prefixes:
                head = self.prefixes[int(rng.integers(len(self.prefixes)))]
                tail = rng.integers(0, VOCAB, size=int(rng.integers(2, 9)))
                prompt = head + [int(t) for t in tail]
            else:
                prompt = [int(t) for t in rng.integers(0, VOCAB, size=int(rng.integers(4, 13)))]
            key = tuple(prompt)
            if key not in self._seen:
                self._seen.add(key)
                return prompt

    def next(self) -> List[List[int]]:
        return [self.prompt() for _ in range(PROMPTS_PER_BATCH)]


def gen_config(spec: GenSpec, cache_dir: str, **overrides) -> GenerationConfig:
    kwargs = dict(spec.config, cache_dir=cache_dir, metrics=MetricsRegistry())
    kwargs.update(overrides)
    return GenerationConfig(**kwargs)


class TokenTimes:
    """Per-request TTFT and TPOT from the engine's request timelines.

    Attached as the :class:`RequestTracker`'s recorder, it receives every
    timeline event.  TPOT is a request's mean time per output token after
    the first, ``(end-to-end - TTFT) / (tokens - 1)``: single gaps between
    tokens depend on how many capacity-bucket groups share the step, and
    their median jumps between those modes from one traffic mix to the
    next.
    """

    def __init__(self) -> None:
        self._first: Dict[str, float] = {}
        self.ttft_ms: List[float] = []
        self.tpot_ms: List[float] = []

    def record(self, event) -> None:
        if event.name == "first_token":
            self._first[event.request_id] = event.t_ms
        elif event.name == "finish":
            first = self._first.pop(event.request_id, None)
            if first is None:
                return
            self.ttft_ms.append(first)
            tokens = event.args.get("tokens", 0)
            if tokens > 1:
                self.tpot_ms.append((event.t_ms - first) / (tokens - 1))

    def dump(self, *args, **kwargs) -> None:
        return None  # no postmortem files: the run writes nothing

    def take(self) -> Tuple[List[float], List[float]]:
        out = (self.ttft_ms, self.tpot_ms)
        self._first, self.ttft_ms, self.tpot_ms = {}, [], []
        return out


class GenServer:
    """One GenerationEngine with a private registry and SLO tracker."""

    def __init__(self, spec: GenSpec, cache_dir: str) -> None:
        self.spec = spec
        self.cache_dir = cache_dir
        self.slo = MetricsRegistry()
        self.times = TokenTimes()
        self.engine = GenerationEngine(gen_config(
            spec, cache_dir,
            requests=RequestTracker(metrics=self.slo, recorder=self.times),
        ))
        self.params = SamplingParams(max_tokens=spec.max_tokens)
        self.sent = 0
        self._checker = None

    def run(self, prompts: List[List[int]]) -> Outcome:
        self.sent += len(prompts)
        try:
            results = self.engine.generate(prompts, self.params)
        except Exception as exc:  # a failed batch is counted, not fatal
            print(f"generate failed: {exc!r}", file=sys.stderr)
            self.slo.clear()
            self.times.take()
            return Outcome(len(prompts), len(prompts), 0, [], [], repr(exc))
        ttft, tpot = self.times.take()
        counts_ok = (
            self.slo.value("slo.requests") == len(prompts)
            and len(ttft) == sum(1 for r in results if r.tokens)
        )
        self.slo.clear()
        errors = sum(1 for r in results if r.finish_reason == "error")
        items = sum(len(r.tokens) for r in results if r.finish_reason != "error")
        return Outcome(len(prompts), errors, items, ttft, tpot, results, counts_ok)

    def counts_ok(self) -> bool:
        m = self.engine.metrics
        return m.value("genai.requests") + m.value("genai.request_errors") == self.sent

    def registries(self) -> List[MetricsRegistry]:
        return [self.engine.metrics]

    def wrong(self, prompts, outcome: Outcome) -> int:
        if isinstance(outcome.outputs, str):
            return 0
        if self._checker is None:
            self._checker = (
                SerialReference(self.spec, self.cache_dir)
                if self.spec.config.get("kv_dtype") == "int8"
                else FullRecompute(self.engine.config)
            )
        return self._checker.wrong(outcome.outputs)


class FullRecompute:
    """Teacher-forced check: one full-mode pass over prompt + generated
    tokens must predict every generated token by argmax.

    The decoder is causal, so padding the sequence to ``max_seq`` leaves
    every earlier position's logits untouched.
    """

    def __init__(self, config: GenerationConfig) -> None:
        self.max_seq = config.max_seq
        graph = tiny_decoder(
            mode="full", seq_len=config.max_seq, vocab=config.vocab,
            max_seq=config.max_seq, d_model=config.d_model, heads=config.heads,
            layers=config.layers, seed=config.seed,
        )
        self.session = Session(graph)
        self.positions = np.arange(self.max_seq, dtype=np.int32).reshape(1, -1)

    def wrong(self, results) -> int:
        bad = 0
        for r in results:
            if r.finish_reason == "error":
                continue
            seq = list(r.prompt) + list(r.tokens[:-1])
            tokens = np.zeros((1, self.max_seq), np.int32)
            tokens[0, : len(seq)] = seq
            logits = self.session.run({"tokens": tokens, "positions": self.positions})
            first = len(r.prompt) - 1
            predicted = logits["logits"][0, first : first + len(r.tokens)].argmax(-1)
            bad += int([int(t) for t in predicted] != list(r.tokens))
        return bad


class SerialReference:
    """Batched int8 decode must equal a one-seat engine of the same config
    (batched int8 GEMM is bitwise equal to the per-row product).

    Reference requests get ids unique over the engine's life: a one-seat
    engine fails a request whose id matches a retained slab from an
    earlier ``generate`` call ("preempted 3 times: kv arena exhausted").
    """

    def __init__(self, spec: GenSpec, cache_dir: str) -> None:
        self.engine = GenerationEngine(gen_config(spec, cache_dir, max_batch=1))
        self.params = SamplingParams(max_tokens=spec.max_tokens)
        self.sent = 0

    def wrong(self, results) -> int:
        served = [r for r in results if r.finish_reason != "error"]
        if not served:
            return 0
        requests = [
            GenRequest(f"ref-{self.sent + i}", r.prompt, self.params)
            for i, r in enumerate(served)
        ]
        self.sent += len(requests)
        ref = self.engine.generate(requests)
        return sum(int(a.tokens != b.tokens or a.finish_reason != b.finish_reason)
                   for a, b in zip(served, ref))


# -- the common interface -----------------------------------------------------

WORKLOADS = ("cnn_stream",) + tuple(GEN_SPECS)


@dataclass
class Workload:
    """A named workload: builds its traffic and its servers."""

    name: str
    graphs: Optional[list] = None
    spec: Optional[GenSpec] = None
    item: str = "image"

    @classmethod
    def named(cls, name: str) -> "Workload":
        if name == "cnn_stream":
            return cls(name, graphs=cnn_graphs())
        if name in GEN_SPECS:
            return cls(name, spec=GEN_SPECS[name], item="token")
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

    @property
    def genai(self) -> bool:
        return self.spec is not None

    def traffic(self, seed: int, stream: int):
        rng = np.random.default_rng([seed, stream])
        if self.genai:
            return PromptTraffic(self.spec, rng)
        return CnnTraffic(self.graphs, rng)

    def server(self, cache_dir: str):
        if self.genai:
            return GenServer(self.spec, cache_dir)
        return CnnServer(self.graphs, cache_dir)

    def setup_units(self, traffic) -> list:
        """What a cold server answers to count as set up: one request per
        engine (one prompt, or one image for each model)."""
        if self.genai:
            return [[traffic.prompt()]]
        return [traffic.next()]
