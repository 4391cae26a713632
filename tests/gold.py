"""Gold-standard naive reference implementations.

Per the project's performance guide, every optimized kernel is validated
against a slow, obviously-correct loop version kept here in the test tree.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def conv2d_naive(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dilation: Tuple[int, int] = (1, 1),
    groups: int = 1,
) -> np.ndarray:
    """Direct convolution with explicit loops over output pixels."""
    n, ic, _, _ = x.shape
    oc = weights.shape[0]
    kh, kw = weights.shape[2], weights.shape[3]
    sh, sw = stride
    dh, dw = dilation
    top, bottom, left, right = pads
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (top, bottom), (left, right)))
    eff_kh = (kh - 1) * dh + 1
    eff_kw = (kw - 1) * dw + 1
    oh = (xp.shape[2] - eff_kh) // sh + 1
    ow = (xp.shape[3] - eff_kw) // sw + 1
    icg, ocg = ic // groups, oc // groups
    out = np.zeros((n, oc, oh, ow))
    w64 = weights.astype(np.float64)
    for g in range(groups):
        for o in range(ocg):
            oc_idx = g * ocg + o
            for i in range(oh):
                for j in range(ow):
                    patch = xp[
                        :,
                        g * icg : (g + 1) * icg,
                        i * sh : i * sh + eff_kh : dh,
                        j * sw : j * sw + eff_kw : dw,
                    ]
                    out[:, oc_idx, i, j] = (patch * w64[oc_idx]).sum(axis=(1, 2, 3))
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1).astype(np.float64)
    return out


def depthwise_conv2d_naive(x, weights, bias=None, stride=(1, 1), pads=(0, 0, 0, 0),
                           dilation=(1, 1)):
    """Depthwise conv as a grouped conv with groups == channels."""
    return conv2d_naive(x, weights, bias, stride, pads, dilation, groups=x.shape[1])


def max_pool2d_naive(x, kernel, stride, pads, out_hw):
    kh, kw = kernel
    sh, sw = stride
    top, bottom, left, right = pads
    oh, ow = out_hw
    need_h = (oh - 1) * sh + kh
    need_w = (ow - 1) * sw + kw
    grow_h = max(0, need_h - (x.shape[2] + top + bottom))
    grow_w = max(0, need_w - (x.shape[3] + left + right))
    xp = np.pad(
        x,
        ((0, 0), (0, 0), (top, bottom + grow_h), (left, right + grow_w)),
        constant_values=-np.inf,
    )
    out = np.empty((x.shape[0], x.shape[1], oh, ow), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            out[:, :, i, j] = xp[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw].max(axis=(2, 3))
    return out


def avg_pool2d_naive(x, kernel, stride, pads, out_hw, count_include_pad=False):
    kh, kw = kernel
    sh, sw = stride
    top, bottom, left, right = pads
    oh, ow = out_hw
    mask = np.pad(np.ones_like(x), ((0, 0), (0, 0), (top, bottom), (left, right)))
    xp = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    need_h = (oh - 1) * sh + kh
    need_w = (ow - 1) * sw + kw
    grow_h = max(0, need_h - xp.shape[2])
    grow_w = max(0, need_w - xp.shape[3])
    xp = np.pad(xp, ((0, 0), (0, 0), (0, grow_h), (0, grow_w)))
    mask = np.pad(mask, ((0, 0), (0, 0), (0, grow_h), (0, grow_w)))
    out = np.empty((x.shape[0], x.shape[1], oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            window = xp[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
            if count_include_pad:
                out[:, :, i, j] = window.sum(axis=(2, 3)) / (kh * kw)
            else:
                counts = mask[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw].sum(axis=(2, 3))
                out[:, :, i, j] = window.sum(axis=(2, 3)) / counts
    return out


def conv_transpose2d_naive(x, weights, bias=None, stride=(1, 1), pads=(0, 0, 0, 0),
                           output_padding=(0, 0)):
    n, ic, ih, iw = x.shape
    _, oc, kh, kw = weights.shape
    sh, sw = stride
    top, bottom, left, right = pads
    full = np.zeros((n, oc, (ih - 1) * sh + kh, (iw - 1) * sw + kw))
    for b in range(n):
        for c_in in range(ic):
            for i in range(ih):
                for j in range(iw):
                    full[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw] += (
                        x[b, c_in, i, j] * weights[c_in]
                    )
    oh = full.shape[2] - top - bottom + output_padding[0]
    ow = full.shape[3] - left - right + output_padding[1]
    out = np.zeros((n, oc, oh, ow))
    crop = full[:, :, top : top + oh, left : left + ow]
    out[:, :, : crop.shape[2], : crop.shape[3]] = crop
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def qgemm_int64(xq, wq, row_scales, col_scales):
    """Int8 GEMM reference: every product and sum in int64, then the
    float32 dequant ``sum * (row_scale * col_scale)``."""
    n, k = xq.shape
    m = wq.shape[1]
    acc = np.zeros((n, m), np.int64)
    for p in range(k):
        acc += np.outer(xq[:, p].astype(np.int64), wq[p].astype(np.int64))
    scale = np.asarray(row_scales, np.float32).reshape(-1, 1) * np.asarray(
        col_scales, np.float32
    ).reshape(1, -1)
    return acc.astype(np.float32) * scale


def quantize_rowwise_naive(x):
    """Per-row symmetric int8 codes (as int8) and float32 scales, row by row."""
    xq = np.zeros(x.shape, np.int8)
    scales = np.zeros(x.shape[0], np.float32)
    for i, row in enumerate(np.asarray(x, np.float32)):
        scale = np.float32(np.abs(row).max() / np.float32(127.0)) if row.size else np.float32(0)
        scales[i] = scale
        if scale > 0:
            xq[i] = np.clip(np.rint(row / scale), -127, 127).astype(np.int8)
    return xq, scales


def qmatmul_int64(x, wq, col_scales):
    """:func:`repro.kernels.qmatmul` from the naive quantizer and the
    int64 GEMM: the bytes the fast kernel must reproduce."""
    rows = np.asarray(x, np.float32).reshape(-1, x.shape[-1])
    xq, scales = quantize_rowwise_naive(rows)
    out = qgemm_int64(xq, wq, scales, col_scales)
    return out.reshape(*x.shape[:-1], wq.shape[1])
