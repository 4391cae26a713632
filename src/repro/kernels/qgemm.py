"""Int8 GEMM/MatMul micro-kernels, beside the fp family on one substrate.

MNN registers its int8 kernels on the same packed-layout substrate as
the fp path so scheme selection keeps ranking schemes correctly; this
module does the python equivalent: the int8 GEMM runs on the same BLAS
GEMM as :func:`repro.kernels.matmul.matmul`, records the same blocked
tile walk (tile edges stay multiples of ``SIMD_WIDTH`` — the NC4HW4 lane
count) into the same :class:`~repro.kernels.matmul.GemmStats`, and
differs only in the arithmetic contract:

* activations quantize **dynamically per row** (symmetric, zero-point
  0) — the MNN-LLM weight-only recipe, no calibration pass needed;
* accumulation is **exact**: the result equals the integer sum
  ``sum_k xq[i, k] * wq[k, j]`` bit for bit, although the GEMM runs in
  float.  Every product is an integer of magnitude at most ``127**2``,
  so every partial sum of a depth-``k`` reduction is an integer of
  magnitude at most ``k * 127**2``.  While that bound stays below
  ``2**24`` (``k <= 1040``) every such integer is a float32, and below
  ``2**53`` a float64 — so every addition BLAS performs is exact, in
  whatever order, blocking or FMA grouping it chooses.  The sum is
  therefore associative in fact, which buys a property the fp GEMM has
  to work for: row ``t`` of a batched product is *bitwise* equal to the
  single-row product.  A ``rowwise`` MatMul needs no per-row loop on the
  int8 path — the batched kernel has decode's token-invariance for free;
* dequantization multiplies each exact sum by ``row_scale x col_scale``
  in float32, element-wise (no float reductions anywhere).

The reduction depth stays bounded by the int32 range (``k * 127**2 <
2**31``), so the int32 sum the contract names is itself well defined.

Winograd/Strassen stay fp-only: their transforms are float arithmetic
on non-integer values, which would forfeit exactness — the scheme
selector (:mod:`repro.core.schemes`) excludes them for int8 layers.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .matmul import GemmStats

__all__ = ["QGEMM_TILE", "gemm_dtype", "quantize_rowwise", "qgemm", "qmatmul"]

#: Micro-kernel tile edge of the recorded int8 tile walk.  int8 operands
#: pack 4x more elements per cache line than float32, so the
#: cache-resident tile edge doubles relative to the fp kernel's 256 while
#: staying a SIMD_WIDTH multiple.
QGEMM_TILE = 512

_MAX_PRODUCT = 127 * 127


def gemm_dtype(k: int) -> type:
    """The narrowest float dtype whose GEMM is exact at reduction depth ``k``.

    float32 while every partial sum stays below ``2**24`` (``k <= 1040``),
    float64 beyond.  Raises ``ValueError`` once the integer sum would
    leave the int32 range.
    """
    bound = k * _MAX_PRODUCT
    if bound >= 2**31:
        raise ValueError(f"reduction depth {k} overflows the int32 accumulator")
    return np.float32 if bound < 2**24 else np.float64


def _quantize_codes(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row symmetric quantization codes of a 2-D float32 activation,
    held as float32 integers in ``[-127, 127]``, and the row scales."""
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D activation, got shape {x.shape}")
    max_abs = np.abs(x).max(axis=1) if x.size else np.zeros(x.shape[0], np.float32)
    scales = (max_abs / 127.0).astype(np.float32, copy=False)
    safe = np.where(scales > 0, scales, np.float32(1.0))
    codes = np.rint(x / safe.reshape(-1, 1))
    np.minimum(codes, 127, out=codes)  # clip to [-127, 127], in place
    np.maximum(codes, -127, out=codes)
    return codes, scales


def quantize_rowwise(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dynamic per-row symmetric int8 quantization of a 2-D activation.

    Returns ``(xq, scales)`` with one float32 scale per row
    (``max_abs / 127``; all-zero rows get scale 0.0 and quantize to
    zeros).  Pure function of ``x`` — no calibration state — so the
    quantized bytes are identical on every execution path.
    """
    codes, scales = _quantize_codes(np.asarray(x, np.float32))
    return codes.astype(np.int8), scales


def _exact_gemm(
    a: np.ndarray,
    b: np.ndarray,
    row_scales: np.ndarray,
    col_scales: np.ndarray,
    tile: int,
    stats: Optional[GemmStats],
) -> np.ndarray:
    """One BLAS GEMM over integer-valued float operands, then the dequant.

    ``stats`` records the blocked tile walk of ``tile``-edged base
    multiplies arithmetically: the BLAS call does the same multiplies.
    """
    n, k = a.shape
    m = b.shape[1]
    if stats is not None and n and k and m:
        stats.base_multiplies += math.prod(-(-d // tile) for d in (n, k, m))
        stats.mul_elements += n * k * m
    acc = (a @ b).astype(np.float32, copy=False)
    scale = np.asarray(row_scales, np.float32).reshape(-1, 1) * np.asarray(
        col_scales, np.float32
    ).reshape(1, -1)
    acc *= scale
    return acc


def qgemm(
    xq: np.ndarray,
    wq: np.ndarray,
    row_scales: np.ndarray,
    col_scales: np.ndarray,
    tile: int = QGEMM_TILE,
    stats: Optional[GemmStats] = None,
) -> np.ndarray:
    """Int8 GEMM with exact accumulation and float32 dequant.

    ``C[i, j] = (sum_k xq[i, k] * wq[k, j]) * row_scales[i] * col_scales[j]``

    The sum runs as one float BLAS GEMM in :func:`gemm_dtype` ``(k)``,
    which is exact for every order of summation (module docstring), so
    it equals the int32 sum bit for bit and is batch-invariant.
    """
    if xq.dtype != np.int8 or wq.dtype != np.int8:
        raise ValueError(
            f"qgemm wants int8 operands, got {xq.dtype} x {wq.dtype}"
        )
    if xq.ndim != 2 or wq.ndim != 2 or xq.shape[1] != wq.shape[0]:
        raise ValueError(f"bad GEMM shapes {xq.shape} x {wq.shape}")
    dtype = gemm_dtype(xq.shape[1])
    return _exact_gemm(
        xq.astype(dtype), wq.astype(dtype), row_scales, col_scales, tile, stats
    )


def qmatmul(
    x: np.ndarray,
    wq: np.ndarray,
    col_scales: np.ndarray,
    tile: int = QGEMM_TILE,
    stats: Optional[GemmStats] = None,
) -> np.ndarray:
    """Float-in/float-out MatMul over int8 weights (the op-runner entry).

    Flattens leading axes to rows, quantizes each row dynamically, runs
    the exact GEMM and dequantizes — the drop-in int8 twin of
    :func:`repro.kernels.matmul.matmul` for a constant rhs.  The row
    codes are made directly in the GEMM dtype (the same integers
    :func:`quantize_rowwise` stores as int8), and the weights are cast
    per call, so no float copy of them outlives the call.  Because the
    accumulation is exact, the result for row ``t`` is bitwise identical
    whether ``x`` carries one token or a whole sequence, which is the
    property decode-step pre-inference relies on.
    """
    wq = np.asarray(wq)
    if wq.ndim != 2:
        raise ValueError(f"qmatmul weights must be 2-D, got shape {wq.shape}")
    if wq.dtype != np.int8:
        raise ValueError(f"qmatmul wants int8 weights, got {wq.dtype}")
    cs = np.asarray(col_scales, np.float32)
    if cs.shape != (wq.shape[1],):
        raise ValueError(
            f"weight_scales shape {cs.shape} != output channels ({wq.shape[1]},)"
        )
    x = np.asarray(x, np.float32)
    if x.shape[-1] != wq.shape[0]:
        raise ValueError(f"bad GEMM shapes {x.shape} x {wq.shape}")
    dtype = gemm_dtype(wq.shape[0])
    codes, row_scales = _quantize_codes(x.reshape(-1, x.shape[-1]))
    out = _exact_gemm(
        codes.astype(dtype, copy=False), wq.astype(dtype), row_scales, cs, tile, stats
    )
    return out.reshape(*x.shape[:-1], wq.shape[1])
