"""Int8 GEMM kernels (:mod:`repro.kernels.qgemm`), their op-runner
dispatch, and the quantized entries in the scheme-selection cost model.

The load-bearing property is *exact accumulation*: the float BLAS GEMM
returns the int32 sum bit for bit (checked against an int64 oracle on
both sides of the float32/float64 switch), which makes the batched
product bitwise equal to the per-row product (decode's token-invariance
for free) and the result independent of tile size.
"""

import numpy as np
import pytest

from repro.backends import BackendError
from repro.core.schemes import (
    SchemeConfig,
    clear_scheme_memo,
    select_conv_scheme,
    select_graph_schemes,
)
from repro.core.session import Session
from repro.ir import GraphBuilder
from repro.kernels import GemmStats, matmul, qgemm, qmatmul, quantize_rowwise
from repro.kernels.matmul import tiled_matmul
from repro.kernels.qgemm import gemm_dtype
from repro.quant import quantize_graph

from .gold import qgemm_int64, qmatmul_int64

pytestmark = pytest.mark.quant

RNG = np.random.default_rng(99)


def quantize_weights(w):
    scales = (np.abs(w).max(axis=0) / 127.0).astype(np.float32)
    safe = np.where(scales > 0, scales, 1.0).astype(np.float32)
    wq = np.clip(np.rint(w / safe), -127, 127).astype(np.int8)
    return wq, scales


class TestQuantizeRowwise:
    def test_scales_are_max_abs_over_127(self):
        x = RNG.standard_normal((4, 16)).astype(np.float32)
        xq, scales = quantize_rowwise(x)
        np.testing.assert_allclose(scales, np.abs(x).max(axis=1) / 127.0,
                                   rtol=1e-6)
        assert xq.dtype == np.int8
        assert np.abs(xq).max() <= 127

    def test_zero_row_gets_zero_scale_and_zero_codes(self):
        x = np.zeros((2, 8), np.float32)
        x[1] = RNG.standard_normal(8)
        xq, scales = quantize_rowwise(x)
        assert scales[0] == 0.0
        assert not xq[0].any()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            quantize_rowwise(np.zeros((2, 2, 2), np.float32))


class TestQgemm:
    def test_matches_fp_matmul_within_quant_error(self):
        x = RNG.standard_normal((6, 32)).astype(np.float32)
        w = RNG.standard_normal((32, 10)).astype(np.float32)
        wq, col_scales = quantize_weights(w)
        out = qmatmul(x, wq, col_scales)
        ref = matmul(x, w)
        # first-order error budget: per element, |dx*w| + |x*dw| with
        # dx <= x_scale/2 and dw <= w_scale/2, summed over the reduction
        bound = 32 * np.abs(x).max() * np.abs(w).max() / 127
        assert np.max(np.abs(out - ref)) <= bound

    def test_batched_equals_rowwise_bitwise(self):
        # THE decode contract: exact accumulation is associative, so row
        # t of the batched product is bitwise the single-row product.
        x = RNG.standard_normal((8, 24)).astype(np.float32)
        w = RNG.standard_normal((24, 12)).astype(np.float32)
        wq, cs = quantize_weights(w)
        full = qmatmul(x, wq, cs)
        for t in range(x.shape[0]):
            row = qmatmul(x[t : t + 1], wq, cs)
            np.testing.assert_array_equal(full[t : t + 1], row)

    def test_tile_size_never_changes_the_result(self):
        x = RNG.standard_normal((5, 40)).astype(np.float32)
        w = RNG.standard_normal((40, 9)).astype(np.float32)
        wq, cs = quantize_weights(w)
        outs = [qmatmul(x, wq, cs, tile=t) for t in (4, 16, 512)]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_leading_axes_flatten_and_restore(self):
        x = RNG.standard_normal((2, 3, 16)).astype(np.float32)
        w = RNG.standard_normal((16, 5)).astype(np.float32)
        wq, cs = quantize_weights(w)
        out = qmatmul(x, wq, cs)
        assert out.shape == (2, 3, 5)
        np.testing.assert_array_equal(
            out.reshape(6, 5), qmatmul(x.reshape(6, 16), wq, cs)
        )

    def test_records_gemm_stats(self):
        stats = GemmStats()
        x = RNG.standard_normal((4, 8)).astype(np.float32)
        w = RNG.standard_normal((8, 4)).astype(np.float32)
        wq, cs = quantize_weights(w)
        qmatmul(x, wq, cs, stats=stats)
        assert stats.mul_elements == 4 * 8 * 4
        assert stats.base_multiplies >= 1

    @pytest.mark.parametrize("shape,tile", [
        ((4, 8, 4), 512), ((9, 20, 7), 4), ((5, 33, 16), 16), ((0, 8, 4), 4),
    ])
    def test_stats_record_the_fp_tile_walk(self, shape, tile):
        # One BLAS call, but the stats are those of the blocked walk.
        n, k, m = shape
        x = RNG.standard_normal((n, k)).astype(np.float32)
        wq, cs = quantize_weights(RNG.standard_normal((k, m)).astype(np.float32))
        got, want = GemmStats(), GemmStats()
        qmatmul(x, wq, cs, tile=tile, stats=got)
        tiled_matmul(x, wq.astype(np.float32), tile=tile, stats=want)
        assert got == want

    def test_rejects_float_operands(self):
        with pytest.raises(ValueError):
            qgemm(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.int8),
                  np.ones(2, np.float32), np.ones(2, np.float32))

    def test_int32_overflow_guard(self):
        k = 1 << 18  # 127 * 127 * 2**18 > 2**31
        with pytest.raises(ValueError):
            qgemm(np.zeros((1, k), np.int8), np.zeros((k, 1), np.int8),
                  np.ones(1, np.float32), np.ones(1, np.float32))

    def test_mismatched_scale_shape_rejected(self):
        wq = np.zeros((8, 4), np.int8)
        with pytest.raises(ValueError):
            qmatmul(np.zeros((1, 8), np.float32), wq, np.ones(3, np.float32))


def int8(shape, rng):
    return rng.integers(-127, 128, size=shape).astype(np.int8)


class TestInt64Oracle:
    """``qgemm``/``qmatmul`` bytes equal an int64 reference GEMM."""

    # 1040 * 127**2 < 2**24 <= 1041 * 127**2: the float32 -> float64 switch.
    DEPTHS = (1, 64, 1039, 1040, 1041, 3000)

    def test_dtype_switches_where_float32_stops_being_exact(self):
        assert gemm_dtype(1040) is np.float32
        assert gemm_dtype(1041) is np.float64
        assert gemm_dtype(3000) is np.float64

    @pytest.mark.parametrize("k", DEPTHS)
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_qgemm_equals_oracle(self, k, n):
        rng = np.random.default_rng(k * 10 + n)
        xq, wq = int8((n, k), rng), int8((k, 9), rng)
        rs = rng.uniform(0, 0.05, n).astype(np.float32)
        cs = rng.uniform(0, 0.05, 9).astype(np.float32)
        got = qgemm(xq, wq, rs, cs)
        want = qgemm_int64(xq, wq, rs, cs)
        assert got.dtype == np.float32 and got.shape == (n, 9)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", DEPTHS)
    def test_qmatmul_equals_oracle(self, k):
        rng = np.random.default_rng(k)
        x = (rng.standard_normal((6, k)) * rng.uniform(0.1, 10, (6, 1))).astype(np.float32)
        x[2] = 0.0  # an all-zero row: scale 0.0, zero codes
        wq = int8((k, 11), rng)
        cs = rng.uniform(0, 0.05, 11).astype(np.float32)
        got = qmatmul(x, wq, cs)
        assert got.tobytes() == qmatmul_int64(x, wq, cs).tobytes()
        assert not got[2].any()

    @pytest.mark.parametrize("k", [1040, 1041, 3000])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_saturated_operands(self, k, signs):
        # Every product is +-127**2: partial sums reach the full bound.
        xq = np.full((3, k), 127 * signs[0], np.int8)
        wq = np.full((k, 5), 127 * signs[1], np.int8)
        ones = np.ones(3, np.float32), np.ones(5, np.float32)
        got = qgemm(xq, wq, *ones)
        want = qgemm_int64(xq, wq, *ones)
        assert got.tobytes() == want.tobytes()
        x = np.full((3, k), 2.5 * signs[0], np.float32)
        assert qmatmul(x, wq, ones[1]).tobytes() == qmatmul_int64(x, wq, ones[1]).tobytes()

    @pytest.mark.parametrize("k", [1040, 1041, 3000])
    @pytest.mark.parametrize("n", [1, 4])
    def test_near_saturated_sums(self, k, n):
        # Uneven sums far past 2**24: a float32 accumulator rounds them
        # along the way, so only the float64 GEMM can match the oracle.
        rng = np.random.default_rng(k + n)
        xq = np.full((n, k), 127, np.int8)
        xq[:, ::7] = 126
        wq = rng.integers(100, 128, size=(k, 64)).astype(np.int8)
        for sign in (1, -1):
            ones = np.ones(n, np.float32), np.ones(64, np.float32)
            got = qgemm(sign * xq, wq, *ones)
            assert got.tobytes() == qgemm_int64(sign * xq, wq, *ones).tobytes()
            x = (sign * xq).astype(np.float32)  # row scale 1.0: codes == xq
            assert qmatmul(x, wq, ones[1]).tobytes() == qmatmul_int64(x, wq, ones[1]).tobytes()

    def test_empty_batch(self):
        wq = int8((1041, 4), np.random.default_rng(0))
        out = qmatmul(np.zeros((0, 1041), np.float32), wq, np.ones(4, np.float32))
        assert out.shape == (0, 4) and out.dtype == np.float32

    def test_batched_equals_rowwise_past_the_switch(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 3000)).astype(np.float32)
        wq = int8((3000, 6), rng)
        cs = rng.uniform(0, 0.05, 6).astype(np.float32)
        full = qmatmul(x, wq, cs)
        for t in range(7):
            assert full[t : t + 1].tobytes() == qmatmul(x[t : t + 1], wq, cs).tobytes()


class TestOpRunnerDispatch:
    def graph(self):
        b = GraphBuilder("mm", seed=1)
        x = b.input("x", (3, 16))
        w = b.constant(RNG.standard_normal((16, 8)).astype(np.float32), name="w")
        b.output(b.matmul(x, w))
        return b.finish()

    def test_int8_matmul_runs_and_tracks_fp(self):
        graph = self.graph()
        q = quantize_graph(graph)
        feeds = {"x": RNG.standard_normal((3, 16)).astype(np.float32)}
        ref = Session(graph).run(feeds)
        out = Session(q).run(feeds)
        (name,) = ref.keys()
        assert np.max(np.abs(out[name] - ref[name])) <= 0.1

    def test_int8_weights_without_scales_is_a_typed_error(self):
        q = quantize_graph(self.graph())
        for node in q.nodes:
            node.attrs.pop("weight_scales", None)
        with pytest.raises(BackendError):
            Session(q).run({"x": np.zeros((3, 16), np.float32)})


class TestSchemeSelection:
    def setup_method(self):
        clear_scheme_memo()

    def test_quantized_sliding_matches_fp_sliding(self):
        # A geometry where fp picks sliding: the quantized decision is
        # the same direct scheme at the same price.
        cfg = SchemeConfig()
        fp = select_conv_scheme((3, 3), 16, 16, (4, 4), config=cfg)
        q = select_conv_scheme((3, 3), 16, 16, (4, 4), config=cfg,
                               quantized=True)
        assert fp.kind == q.kind == "sliding"
        assert q.cost == fp.cost
        assert q.alternatives["sliding"] == fp.alternatives["sliding"]

    def test_quantized_never_selects_winograd(self):
        # A geometry where fp happily picks Winograd.
        cfg = SchemeConfig()
        fp = select_conv_scheme((3, 3), 64, 64, (56, 56), config=cfg)
        assert fp.kind.startswith("winograd")
        q = select_conv_scheme((3, 3), 64, 64, (56, 56), config=cfg,
                               quantized=True)
        assert q.kind == "sliding"
        # ...but still reports the Winograd costs for the record.
        assert any(k.startswith("winograd") for k in q.alternatives)

    def test_quantized_gemm1x1_matches_fp_gemm1x1(self):
        cfg = SchemeConfig()
        fp = select_conv_scheme((1, 1), 32, 32, (8, 8), config=cfg)
        q = select_conv_scheme((1, 1), 32, 32, (8, 8), config=cfg,
                               quantized=True)
        assert fp.kind == q.kind == "gemm1x1"
        assert q.cost == fp.cost

    def test_memo_keys_do_not_collide(self):
        # Where fp picks Winograd the two decisions differ in kind, so a
        # shared memo entry would hand one caller the other's scheme —
        # whichever of the two is memoized first.
        cfg = SchemeConfig()
        args = ((3, 3), 64, 64, (56, 56))
        for order in ([False, True], [True, False]):
            clear_scheme_memo()
            got = {
                quantized: select_conv_scheme(*args, config=cfg, quantized=quantized)
                for quantized in order
            }
            assert got[False].kind.startswith("winograd")
            assert got[True].kind == "sliding"

    def test_graph_walk_detects_int8_conv_weights(self):
        b = GraphBuilder("convnet", seed=0)
        x = b.input("in", (1, 8, 16, 16))
        x = b.conv(x, oc=8, kernel=3, pad_mode="same")
        b.output(x)
        graph = b.finish()
        fp_schemes = select_graph_schemes(graph)
        (wname,) = [n.inputs[1] for n in graph.nodes
                    if n.op_type == "Conv2D"]
        w = graph.constants[wname]
        scales = (np.abs(w.reshape(8, -1)).max(axis=1) / 127.0)
        graph.constants[wname] = np.clip(
            np.rint(w / scales.reshape(-1, 1, 1, 1)), -127, 127
        ).astype(np.int8)
        q_schemes = select_graph_schemes(graph)
        for name, decision in q_schemes.items():
            assert not decision.kind.startswith("winograd")
            assert decision.cost <= fp_schemes[name].cost
