"""Sequence-model kernels: LayerNorm, GELU, LSTM, attention.

These back the Transformer/LSTM operators (paper Figure 1 lists RNN, LSTM
and Transformer among the model families a universal engine must cover).
All kernels are vectorized over batch and, where possible, time.

The attention kernels are deliberately *not* vectorized over the query
axis: each query row is computed as an independent GEMV over exactly the
keys visible to it.  BLAS GEMM is not bitwise batch-invariant (row ``t``
of an ``M = T`` GEMM can differ in the last ulp from the same row computed
with ``M = 1``), so a vectorized prefill and a row-at-a-time decode would
drift apart.  With the row-loop formulation, a cached decode step issues
byte-for-byte the same GEMV calls as the corresponding row of a
full-sequence recompute — bit-identity by construction, which
``repro.genai`` relies on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["gelu", "layer_norm", "lstm_forward", "attention", "attention_step"]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation, as in BERT).

    The cube is two multiplies, not ``x**3``: numpy's float ``power``
    runs the generic ``pow`` routine per element, an order of magnitude
    slower.
    """
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    axis: int = -1,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Layer normalization over one axis with affine parameters."""
    axis = axis % x.ndim
    mean = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    normed = (x - mean) / np.sqrt(var + epsilon)
    shape = [1] * x.ndim
    shape[axis] = x.shape[axis]
    return normed * gamma.reshape(shape) + beta.reshape(shape)


def _attend_row(
    q_row: np.ndarray, keys: np.ndarray, values: np.ndarray, scale: np.float32
) -> np.ndarray:
    """One query row attending over ``keys``/``values`` (the GEMV core).

    Every caller — full-sequence, bucketed prefill, single-token decode —
    funnels through this function with identically shaped contiguous
    operands, which is what makes cached decode bitwise equal to a full
    recompute.
    """
    scores = (keys @ q_row) * scale
    scores = scores - scores.max()
    weights = np.exp(scores)
    weights /= weights.sum(dtype=weights.dtype)
    return weights @ values


def _merged_kv(cache: Optional[np.ndarray], new: np.ndarray, base: int) -> np.ndarray:
    """Valid cache rows followed by the freshly computed rows, contiguous."""
    if cache is None or base == 0:
        return new if cache is None else np.ascontiguousarray(new)
    return np.concatenate([cache[:base], new], axis=0)


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    lengths: Optional[np.ndarray] = None,
    k_cache: Optional[np.ndarray] = None,
    v_cache: Optional[np.ndarray] = None,
    causal: bool = True,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Multi-head scaled-dot-product attention with optional cached K/V.

    Args:
        q: (N, H, Tq, dh) query rows for the current tokens.
        k / v: (N, H, Tq, dh) keys/values for the *same* current tokens.
        lengths: optional (N,) int — how many tokens are already cached
            per sequence (0 when absent).
        k_cache / v_cache: optional (N, H, cap, dh) cache; rows
            ``[:lengths[n]]`` are valid, rows beyond are ignored.
        causal: query row ``t`` sees keys ``[: lengths[n] + t + 1]``;
            non-causal rows see every valid key.
        scale: score scale, default ``dh ** -0.5``.

    Returns:
        (N, H, Tq, dh) context rows, dtype of ``q``.
    """
    n, h, tq, dh = q.shape
    if k.shape != v.shape:
        raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
    if (k_cache is None) != (v_cache is None):
        raise ValueError("k_cache and v_cache must be given together")
    scale_f = np.float32(dh**-0.5 if scale is None else scale)
    out = np.empty_like(q)
    for ni in range(n):
        base = 0 if lengths is None else int(lengths[ni])
        for hi in range(h):
            keys = _merged_kv(
                None if k_cache is None else k_cache[ni, hi], k[ni, hi], base
            )
            values = _merged_kv(
                None if v_cache is None else v_cache[ni, hi], v[ni, hi], base
            )
            total = base + tq
            for t in range(tq):
                valid = base + t + 1 if causal else total
                out[ni, hi, t] = _attend_row(
                    q[ni, hi, t], keys[:valid], values[:valid], scale_f
                )
    return out


def attention_step(
    q: np.ndarray,
    k_new: np.ndarray,
    v_new: np.ndarray,
    k_cache: np.ndarray,
    v_cache: np.ndarray,
    lengths: np.ndarray,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Incremental single-query attention against a K/V cache.

    Args:
        q: (N, H, dh) — the one new query row per sequence.
        k_new / v_new: (N, H, dh) — the new token's key/value rows.
        k_cache / v_cache: (N, H, cap, dh) with ``lengths[n]`` valid rows.
        lengths: (N,) cached-token counts (the new token excluded).

    Returns:
        (N, H, dh) context rows, bit-identical to row ``lengths[n]`` of a
        causal full-sequence :func:`attention` over the same tokens.
    """
    out = attention(
        q[:, :, None, :],
        k_new[:, :, None, :],
        v_new[:, :, None, :],
        lengths=lengths,
        k_cache=k_cache,
        v_cache=v_cache,
        causal=True,
        scale=scale,
    )
    return out[:, :, 0, :]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(
    x: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    bias: Optional[np.ndarray] = None,
    return_sequences: bool = False,
) -> np.ndarray:
    """Single-layer LSTM over a batched sequence.

    Args:
        x: (N, T, features) input sequence.
        w_ih: (4*H, features) input weights, gate order [i, f, g, o].
        w_hh: (4*H, H) recurrent weights.
        bias: optional (4*H,) bias.
        return_sequences: return all hidden states (N, T, H) instead of
            just the final one (N, H).
    """
    n, t, features = x.shape
    hidden = w_hh.shape[1]
    if w_ih.shape != (4 * hidden, features):
        raise ValueError(f"w_ih {w_ih.shape} != ({4 * hidden}, {features})")
    # Pre-compute all input projections in one GEMM over (N*T, features).
    proj = x.reshape(n * t, features) @ w_ih.T
    if bias is not None:
        proj = proj + bias
    proj = proj.reshape(n, t, 4 * hidden)

    h = np.zeros((n, hidden), dtype=x.dtype)
    c = np.zeros((n, hidden), dtype=x.dtype)
    outputs = np.empty((n, t, hidden), dtype=x.dtype) if return_sequences else None
    w_hh_t = w_hh.T
    for step in range(t):
        gates = proj[:, step] + h @ w_hh_t
        i = _sigmoid(gates[:, :hidden])
        f = _sigmoid(gates[:, hidden : 2 * hidden])
        g = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o = _sigmoid(gates[:, 3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        if outputs is not None:
            outputs[:, step] = h
    return outputs if outputs is not None else h
