"""Independent oracle for the exact shift word sums.

For a shift with 0/1 transition matrix ``A`` and a profile given per symbol
``s`` as a positive ``d x d`` matrix ``M_s`` (``d = 1`` with ``M_s =
[e^{w_s}]`` for drifts and symbol weights), the sum over admissible words
of length ``n + k`` of ``e^{phi_n}`` is

    u0 B^(n-1) c,   B[(s,i),(t,j)] = A[s,t] M_t[i,j],

with ``u0[(s,j)]`` the column sums of ``M_s`` and ``c[(s,j)] = (A^k 1)[s]``
counting the free trailing symbols.  The power is taken by repeated
squaring with a log scale, so it shares no code with pdim's step-by-step
DP.
"""

from __future__ import annotations

import math

import numpy as np


def _transitions(system: dict) -> np.ndarray:
    if system["kind"] == "full_shift":
        k = int(system.get("k", 2))
        return np.ones((k, k))
    if system["kind"] == "sft":
        return np.array(system["matrix"], dtype=float)
    raise ValueError(f"no exact oracle for system {system['kind']!r}")


def _symbol_log_weights(potential: dict, k: int) -> np.ndarray:
    kind = potential["kind"]
    if kind == "constant_drift":
        return np.full(k, float(potential["a"]))
    if kind == "symbol_weights":
        return np.array(potential["table"], dtype=float)
    if kind == "sum":
        return sum(_symbol_log_weights(t, k) for t in potential["terms"])
    raise ValueError(f"no exact oracle for potential {kind!r}")


def _symbol_matrices(potential: dict, k: int) -> np.ndarray:
    if potential["kind"] == "matrix_cocycle":
        return np.array(potential["mats"], dtype=float)
    return np.exp(_symbol_log_weights(potential, k)).reshape(k, 1, 1)


def _log_vec_power(u: np.ndarray, B: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """``u B^p`` as (vector, log scale), normalising by the max entry."""
    scale = 0.0
    P, pscale = B.copy(), 0.0
    while p:
        if p & 1:
            u = u @ P
            top = u.max()
            u, scale = u / top, scale + pscale + math.log(top)
        p >>= 1
        if p:
            P = P @ P
            top = P.max()
            P, pscale = P / top, 2.0 * pscale + math.log(top)
    return u, scale


def log_word_sum(config: dict, n: int, k: int) -> float:
    """log of the weighted sum over admissible words of length ``n + k``."""
    A = _transitions(config["system"])
    q = A.shape[0]
    M = _symbol_matrices(config.get("potential") or {"kind": "constant_drift", "a": 0.0}, q)
    d = M.shape[1]
    B = np.einsum("st,tij->sitj", A, M).reshape(q * d, q * d)
    u0 = M.sum(axis=1).reshape(q * d)
    u, scale = _log_vec_power(u0, B, n - 1)
    trailing = np.linalg.matrix_power(A, k) @ np.ones(q)
    c = np.repeat(trailing, d)
    return scale + math.log(float(u @ c))
