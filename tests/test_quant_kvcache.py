"""Quantized KV-cache mode (``KVCacheConfig(kv_dtype="int8")``).

Contracts under test: per-row symmetric quantize-on-write / dequant-on-
read, the >= 3x capacity win at equal arena bytes, bit-verbatim payload
+ scales movement through grow/COW/materialize, slab-wide (step-batched)
K/V movement bytewise equal to the per-layer accessors (fp32 and int8),
the scale-table reset on fresh carves, the memcheck extent rule for int8
arenas, and engine-level determinism (seeded replay, prefix on/off
identity, chaos storm).
"""

import numpy as np
import pytest

from repro.analysis import check_slab_plan, has_errors
from repro.genai import (
    GenerationConfig,
    GenerationEngine,
    KVCacheAllocator,
    KVCacheConfig,
    SamplingParams,
)
from repro.genai.kvcache import KVCacheUseAfterFree
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.quant import dequantize_rows, quantize_rows

pytestmark = pytest.mark.quant

RNG = np.random.default_rng(31)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield
    set_metrics(previous)


def make_config(**overrides):
    base = dict(layers=2, heads=2, d_head=8, page_tokens=8,
                capacity_tokens=128, max_seq=64, kv_dtype="int8")
    base.update(overrides)
    return KVCacheConfig(**base)


def rows(heads, n, d_head, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (heads, n, d_head)).astype(np.float32)


class TestConfig:
    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            make_config(kv_dtype="float16")

    def test_int8_requires_aligned_head_dim(self):
        with pytest.raises(ValueError):
            make_config(d_head=6)

    def test_capacity_ratio_at_least_3x(self):
        # both the bench geometry (d_head=16) and the chaos geometry
        # (d_head=8) must clear the acceptance bar
        for d_head in (8, 16):
            q = make_config(d_head=d_head)
            fp = make_config(d_head=d_head, kv_dtype="float32")
            assert fp.per_token_bytes / q.per_token_bytes >= 3.0

    def test_per_token_bytes_includes_row_scales(self):
        cfg = make_config()
        # layers * {k,v} * (heads*d_head int8 payload + one f32 scale)
        assert cfg.per_token_bytes == 2 * 2 * (2 * 8 * 1 + 4)


class TestRowCodec:
    def test_round_trip_error_bounded(self):
        x = rows(2, 6, 8, seed=1)
        q, scales = quantize_rows(x)
        back = dequantize_rows(q, scales)
        # symmetric per-row: error <= scale/2 = max_abs/254 per row
        per_row_bound = np.abs(x).max(axis=(0, 2)) / 254 + 1e-7
        err = np.abs(back - x).max(axis=(0, 2))
        assert (err <= per_row_bound).all()

    def test_zero_scale_sentinel_round_trips_to_zero(self):
        x = np.zeros((2, 3, 8), np.float32)
        q, scales = quantize_rows(x)
        assert not scales.any()
        np.testing.assert_array_equal(dequantize_rows(q, scales), x)


class TestSlab:
    def test_raw_view_is_int8_read_is_float32(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s0", 8)
        assert slab.k(0).dtype == np.int8
        assert slab.k_read(0).dtype == np.float32

    def test_write_read_round_trip_bounded(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s0", 8)
        x = rows(2, 5, 8, seed=2)
        slab.write_k(0, 0, x)
        got = slab.k_read(0)[:, :5]
        assert np.abs(got - x).max() <= np.abs(x).max() / 254 + 1e-7

    def test_fresh_carve_resets_recycled_scales(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=32))
        first = alloc.alloc("a", 32)
        # poison the whole arena through the first owner's raw bytes,
        # including where the next owner's scales table will land
        first.buffer[first.offset_bytes : first.offset_bytes + first.nbytes] = 0x7F
        alloc.release(first)
        second = alloc.alloc("b", 32)
        # unwritten rows must dequantize to exact zeros, not junk
        np.testing.assert_array_equal(
            second.k_read(0), np.zeros_like(second.k_read(0))
        )
        alloc.release(second)

    def test_grow_moves_rows_and_scales_verbatim(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        slab = alloc.alloc("s0", 8)
        x = rows(2, 8, 8, seed=3)
        for layer in range(2):
            slab.write_k(layer, 0, x)
            slab.write_v(layer, 0, -x)
        slab.length = 8
        before = slab.k_read(0)[:, :8].copy()
        raw_before = slab.k(0)[:, :8].copy()
        grown = alloc.grow(slab, 40)
        assert grown.capacity > 8
        np.testing.assert_array_equal(grown.k(0)[:, :8], raw_before)
        np.testing.assert_array_equal(grown.k_read(0)[:, :8], before)
        alloc.release(grown)

    def test_cow_share_and_materialize_are_bit_identical(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        parent = alloc.alloc("p", 16)
        x = rows(2, 16, 8, seed=4)
        for layer in range(2):
            parent.write_k(layer, 0, x)
            parent.write_v(layer, 0, 2 * x)
        parent.length = 16
        alloc.release(parent, evictable=True)
        child = alloc.share(parent, "c", 16)
        assert child.shared
        np.testing.assert_array_equal(child.k(1), parent.k(1))
        # a shared view must reject writes outright
        with pytest.raises((ValueError, RuntimeError)):
            child.write_k(0, 0, x[:, :1])
        owned = alloc.materialize(child, 24)
        assert not owned.shared
        np.testing.assert_array_equal(owned.k(1)[:, :16], parent.k(1)[:, :16])
        np.testing.assert_array_equal(
            owned.k_read(1)[:, :16], parent.k_read(1)[:, :16]
        )
        alloc.release(owned)

    def test_use_after_free_raises_through_read(self):
        alloc = KVCacheAllocator(make_config())
        slab = alloc.alloc("s0", 8)
        alloc.release(slab, evictable=False)
        with pytest.raises(KVCacheUseAfterFree):
            slab.k_read(0)


def plane_rows(n, seed, layers=2, heads=2, d_head=8):
    """Float32 rows of every plane: ``(2 * layers, heads, n, d_head)``."""
    return np.random.default_rng(seed).standard_normal(
        (2 * layers, heads, n, d_head)).astype(np.float32)


def stored(slab):
    """The bytes of the slab's rows ``[:length]``: payload, then scales."""
    payload = slab.planes()[:, :, : slab.length].tobytes()
    if not slab.config.quantized:
        return payload
    return payload + slab.row_scales()[:, : slab.length].tobytes()


def write_row_by_row(slab, start, values):
    """The reference: one ``write_k``/``write_v`` call per layer per row."""
    for t in range(values.shape[2]):
        for layer in range(slab.config.layers):
            slab.write_k(layer, start + t, values[2 * layer][:, t : t + 1])
            slab.write_v(layer, start + t, values[2 * layer + 1][:, t : t + 1])


@pytest.mark.parametrize("kv_dtype", ["float32", "int8"])
class TestBatchedMovement:
    """Slab-wide K/V movement is bytewise the per-(layer, row) accessors."""

    def pair(self, kv_dtype, tokens=24):
        cfg = make_config(kv_dtype=kv_dtype)
        batched, reference = KVCacheAllocator(cfg), KVCacheAllocator(cfg)
        return (batched, batched.alloc("s", tokens)), (reference, reference.alloc("s", tokens))

    def test_write_rows_equals_row_by_row_writes(self, kv_dtype):
        (_, a), (_, b) = self.pair(kv_dtype)
        prompt = plane_rows(7, seed=5)
        a.write_rows(0, prompt)
        write_row_by_row(b, 0, prompt)
        for t in range(7, 12):
            row = plane_rows(1, seed=t)
            a.write_rows(t, row)
            write_row_by_row(b, t, row)
        a.length = b.length = 12
        assert stored(a) == stored(b)

    def test_read_into_equals_per_layer_reads(self, kv_dtype):
        (_, slab), _ = self.pair(kv_dtype)
        slab.write_rows(0, plane_rows(9, seed=6))
        slab.length = 9
        out = np.full((4, 2, slab.capacity, 8), np.nan, np.float32)
        slab.read_into(out)
        for layer in range(2):
            assert out[2 * layer, :, :9].tobytes() == slab.k_read(layer)[:, :9].tobytes()
            assert out[2 * layer + 1, :, :9].tobytes() == slab.v_read(layer)[:, :9].tobytes()
        assert np.isnan(out[:, :, 9:]).all()  # rows past length untouched

    def test_step_encode_equals_per_slab_writes(self, kv_dtype):
        # The decode step: every slab's new row encoded in one call, then
        # one scatter per slab.
        cfg = make_config(kv_dtype=kv_dtype)
        a, b = KVCacheAllocator(cfg), KVCacheAllocator(cfg)
        lengths = (3, 0, 6)
        slabs_a = [a.alloc(f"s{i}", 8) for i in range(3)]
        slabs_b = [b.alloc(f"s{i}", 8) for i in range(3)]
        for i, n in enumerate(lengths):
            prompt = plane_rows(n, seed=20 + i)
            slabs_a[i].write_rows(0, prompt)
            write_row_by_row(slabs_b[i], 0, prompt)
        new = np.stack([plane_rows(1, seed=30 + i) for i in range(3)], axis=1)
        payload, scales = cfg.encode_rows(new)  # (2 * layers, 3, heads, 1, d_head)
        for i, n in enumerate(lengths):
            slabs_a[i].put_rows(n, payload[:, i], None if scales is None else scales[:, i])
            write_row_by_row(slabs_b[i], n, new[:, i])
            slabs_a[i].length = slabs_b[i].length = n + 1
            assert stored(slabs_a[i]) == stored(slabs_b[i])

    def test_movement_survives_grow_and_materialize(self, kv_dtype):
        (alloc_a, a), (alloc_b, b) = self.pair(kv_dtype, tokens=8)
        prompt = plane_rows(8, seed=7)
        a.write_rows(0, prompt)
        write_row_by_row(b, 0, prompt)
        a.length = b.length = 8
        a, b = alloc_a.grow(a, 9), alloc_b.grow(b, 9)
        assert a.capacity == b.capacity > 8
        a.write_rows(8, plane_rows(1, seed=8))
        write_row_by_row(b, 8, plane_rows(1, seed=8))
        a.length = b.length = 9
        assert stored(a) == stored(b)
        # COW: share the prefix, materialize through grow, write on.
        alloc_a.release(a, evictable=True)
        alloc_b.release(b, evictable=True)
        ca = alloc_a.grow(alloc_a.share(a, "c", 9), 10)
        cb = alloc_b.grow(alloc_b.share(b, "c", 9), 10)
        assert not ca.shared and not cb.shared
        ca.write_rows(9, plane_rows(1, seed=9))
        write_row_by_row(cb, 9, plane_rows(1, seed=9))
        ca.length = cb.length = 10
        assert stored(ca) == stored(cb)
        out_a = np.zeros((4, 2, ca.capacity, 8), np.float32)
        out_b = np.zeros_like(out_a)
        ca.read_into(out_a)
        cb.read_into(out_b)
        assert out_a.tobytes() == out_b.tobytes()

    def test_shared_slab_rejects_slab_wide_writes(self, kv_dtype):
        (alloc, parent), _ = self.pair(kv_dtype, tokens=8)
        parent.write_rows(0, plane_rows(4, seed=10))
        parent.length = 4
        before = stored(parent)
        child = alloc.share(parent, "c", 4)
        payload, scales = child.config.encode_rows(plane_rows(1, seed=11))
        with pytest.raises(ValueError):
            child.write_rows(4, plane_rows(1, seed=11))
        with pytest.raises(ValueError):
            child.put_rows(4, payload, scales)
        with pytest.raises(ValueError):
            child.planes()[:, :, 0] = 0
        if kv_dtype == "int8":
            with pytest.raises(ValueError):
                child.row_scales()[:, 0] = 0
        assert stored(parent) == before
        out = np.zeros((4, 2, 8, 8), np.float32)
        child.read_into(out)  # reading through the shared view is fine

    def test_freed_slab_views_raise(self, kv_dtype):
        (alloc, slab), _ = self.pair(kv_dtype, tokens=8)
        alloc.release(slab)
        with pytest.raises(KVCacheUseAfterFree):
            slab.planes()
        with pytest.raises(KVCacheUseAfterFree):
            slab.read_into(np.zeros((4, 2, 8, 8), np.float32))
        with pytest.raises(KVCacheUseAfterFree):
            slab.write_rows(0, plane_rows(1, seed=12))
        if kv_dtype == "int8":
            with pytest.raises(KVCacheUseAfterFree):
                slab.row_scales()
        else:
            with pytest.raises(ValueError):
                slab.row_scales()  # fp32 slabs keep no scales table


class TestMemcheck:
    def test_live_int8_layout_is_clean(self):
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        slabs = [alloc.alloc(f"s{i}", 8 * (i + 1)) for i in range(3)]
        report = alloc.check()
        assert not has_errors(report.diagnostics)
        for slab in slabs:
            alloc.release(slab)

    def test_under_carved_arena_flags_quant_extent(self):
        # an int8 slab carved without room for its scales table
        cfg = make_config()
        alloc = KVCacheAllocator(make_config(capacity_tokens=128))
        slab = alloc.alloc("s0", 8)
        plan = alloc.to_memory_plan()
        report = check_slab_plan(
            plan,
            page_bytes=cfg.page_bytes,
            per_token_bytes=cfg.per_token_bytes,
            token_capacities={slab.seq_id: slab.capacity * 2},  # lie: 2x rows
        )
        assert any(d.rule == "mem-quant-extent" for d in report.diagnostics)
        alloc.release(slab)

    def test_fp_bytes_on_int8_arena_flags_quant_extent(self):
        # fp32 accounting on an int8 arena over-carves ~3-4x: the rule
        # must notice nbytes >= 2*need + page
        fp = make_config(kv_dtype="float32")
        q = make_config()
        alloc = KVCacheAllocator(fp)
        slab = alloc.alloc("s0", 8)
        plan = alloc.to_memory_plan()
        report = check_slab_plan(
            plan,
            page_bytes=q.page_bytes,
            per_token_bytes=q.per_token_bytes,
            token_capacities={slab.seq_id: slab.capacity},
        )
        assert any(d.rule == "mem-quant-extent" for d in report.diagnostics)
        alloc.release(slab)


def engine_config(**overrides):
    base = dict(vocab=64, max_seq=24, d_model=16, heads=2, layers=1,
                seed=11, max_batch=2, page_tokens=4, capacity_tokens=64,
                smallest_bucket=8, kv_dtype="int8")
    base.update(overrides)
    return GenerationConfig(**base)


def generate(config, n_prompts=4, max_tokens=8, prompt_seed=11):
    engine = GenerationEngine(config)
    try:
        gen = np.random.default_rng(prompt_seed)
        prompts = [
            [int(t) for t in gen.integers(0, config.vocab, size=int(n))]
            for n in gen.integers(2, 7, size=n_prompts)
        ]
        results = engine.generate(prompts, SamplingParams(max_tokens=max_tokens))
        return [r.tokens for r in results]
    finally:
        engine.close()


class TestEngine:
    def test_seeded_replay_is_bit_identical(self):
        assert generate(engine_config()) == generate(engine_config())

    def test_quantized_weights_replay_is_bit_identical(self):
        cfg = dict(quantize_weights=True)
        assert generate(engine_config(**cfg)) == generate(engine_config(**cfg))

    def test_prefix_cache_on_off_identity(self):
        # single-layer: decode-written and prefill-written rows agree
        # bitwise, so the prefix cache cannot perturb quantized tokens
        off = generate(engine_config())
        on = generate(engine_config(prefix_cache=True, retain_kv=True))
        assert off == on

    def test_stats_report_quantized_bytes_per_token(self):
        engine = GenerationEngine(engine_config())
        try:
            q_bpt = engine.stats()["kv_bytes_per_token"]
        finally:
            engine.close()
        engine = GenerationEngine(engine_config(kv_dtype="float32"))
        try:
            fp_bpt = engine.stats()["kv_bytes_per_token"]
        finally:
            engine.close()
        assert fp_bpt / q_bpt >= 3.0


@pytest.mark.chaos
class TestQuantizedChaos:
    def test_small_storm_with_int8_kv_is_clean(self):
        from repro.faults.chaos import run_chaos_storm

        report = run_chaos_storm(seed=5, target_faults=12, max_rounds=12,
                                 kv_dtype="int8")
        assert report.ok, report.summary()
        assert report.injected >= 12
        assert report.mismatched == 0 and report.crashes == 0
