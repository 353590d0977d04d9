"""Brute-force engine: chunked full-space enumeration.

Independent of the backtracking join kernels by design, so the two routes
can cross-check each other. Candidate instances are ranked lexicographically
by (set declaration order, value declaration order) — the same order the
join search produces — and materialised chunk by chunk as value-index
matrices; consistency is a vectorised row-key membership test per relation.
"""

from __future__ import annotations

import numpy as np

from .encode import EncodedNetwork

__all__ = [
    "bf_collect",
    "bf_collect_distinct_reps",
    "bf_count",
    "bf_count_distinct",
]

_CHUNK = 1 << 18


def _divisors(enc: EncodedNetwork, fixed: list[int]) -> np.ndarray:
    """Mixed-radix divisor per free set; the first declared varies slowest."""
    divs = np.zeros(enc.n_sets, dtype=np.int64)
    div = 1
    for i in range(enc.n_sets - 1, -1, -1):
        if fixed[i] < 0:
            divs[i] = div
            div *= int(enc.sizes[i])
    return divs


def _chunk_values(enc: EncodedNetwork, fixed: list[int], divs: np.ndarray,
                  lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.int64)
    vals = np.empty((hi - lo, enc.n_sets), dtype=np.int64)
    for i in range(enc.n_sets):
        if fixed[i] >= 0:
            vals[:, i] = fixed[i]
        else:
            vals[:, i] = (idx // divs[i]) % enc.sizes[i]
    return vals


def _consistent_mask(enc: EncodedNetwork, vals: np.ndarray) -> np.ndarray:
    mask = np.ones(vals.shape[0], dtype=bool)
    n_rels = len(enc.scope_start) - 1
    for r in range(n_rels):
        keys = enc.rowkeys_flat[enc.rowkeys_start[r]:enc.rowkeys_start[r + 1]]
        if keys.size == 0:
            mask[:] = False
            return mask
        key = np.zeros(vals.shape[0], dtype=np.int64)
        for j in range(enc.scope_start[r], enc.scope_start[r + 1]):
            key += vals[:, enc.scope_flat[j]] * enc.scope_strides[j]
        pos = np.searchsorted(keys, key)
        ok = pos < keys.size
        ok[ok] = keys[pos[ok]] == key[ok]
        mask &= ok
        if not mask.any():
            return mask
    return mask


def _iter_consistent(enc: EncodedNetwork, fixed: list[int]):
    """Yield consistent completions as value-index matrices, in rank order."""
    total = enc.space_size(fixed)
    divs = _divisors(enc, fixed)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        vals = _chunk_values(enc, fixed, divs, lo, hi)
        mask = _consistent_mask(enc, vals)
        if mask.any():
            yield vals[mask]


def bf_count(enc: EncodedNetwork, fixed: list[int], cap: int) -> int:
    """Count consistent completions; with ``cap`` > 0 return min(count, cap)."""
    count = 0
    for rows in _iter_consistent(enc, fixed):
        count += rows.shape[0]
        if cap > 0 and count >= cap:
            return cap
    return count


def bf_collect(enc: EncodedNetwork, fixed: list[int], max_rows: int) -> np.ndarray:
    """First ``max_rows`` consistent completions as a value-index matrix."""
    if max_rows <= 0:
        return np.empty((0, enc.n_sets), dtype=np.int64)
    parts: list[np.ndarray] = []
    have = 0
    for rows in _iter_consistent(enc, fixed):
        take = min(rows.shape[0], max_rows - have)
        parts.append(rows[:take])
        have += take
        if have >= max_rows:
            break
    if not parts:
        return np.empty((0, enc.n_sets), dtype=np.int64)
    return np.concatenate(parts, axis=0)


def bf_count_distinct(enc: EncodedNetwork, fixed: list[int],
                      target_strides: np.ndarray, cap: int) -> int:
    """Count distinct target projections; with ``cap`` > 0 return min(count, cap)."""
    uniq = np.empty(0, dtype=np.int64)
    for rows in _iter_consistent(enc, fixed):
        pk = rows @ target_strides
        uniq = np.unique(np.concatenate([uniq, pk]))
        if cap > 0 and uniq.size >= cap:
            return cap
    return int(uniq.size)


def bf_collect_distinct_reps(enc: EncodedNetwork, fixed: list[int],
                             target_strides: np.ndarray, k: int) -> np.ndarray:
    """First completion for each of the first ``k`` distinct projections.

    Representatives keep the order in which their projection first appears.
    """
    if k <= 0:
        return np.empty((0, enc.n_sets), dtype=np.int64)
    found: dict[int, tuple[int, np.ndarray]] = {}
    done = 0
    for rows in _iter_consistent(enc, fixed):
        pk = rows @ target_strides
        uniq, first = np.unique(pk, return_index=True)
        for key, idx in zip(uniq.tolist(), first.tolist()):
            if key not in found:
                found[key] = (done + idx, rows[idx].copy())
        done += rows.shape[0]
        # Later chunks only append later ranks, so the first k are stable.
        if len(found) >= k:
            break
    ordered = sorted(found.values(), key=lambda pair: pair[0])[:k]
    if not ordered:
        return np.empty((0, enc.n_sets), dtype=np.int64)
    return np.stack([row for _, row in ordered], axis=0)
