"""Backtracking join search over encoded networks.

``search`` runs one depth-first walk over the sets in declaration order,
assigning one value per level and checking every relation as soon as its
scope is fully assigned (its trigger level). Enumeration order is therefore
lexicographic in (set declaration order, value declaration order), which
the rest of the package relies on for deterministic witnesses.

At each consistent completion (a leaf) the walk does three things:

- it counts the completion; when ``seen`` is non-empty, only a completion
  whose target projection (``target_strides`` dotted with it) is new
  counts, and that projection's key goes into the next slot of ``seen``;
- it copies a counted completion into the next row of ``out`` while rows
  remain;
- it returns once ``cap`` completions have been counted; ``cap <= 0``
  returns 0 without searching. A non-empty ``seen`` must have at least
  ``cap`` slots.

The four exported entry points are single calls into ``search`` that pick
the leaf behaviour through those buffers. The ``seen`` scan is linear in
the keys met so far, so distinct counting is meant for small caps or small
targets.

``_search`` is written in nopython-compatible form. numba is optional (the
``jit`` extra): when it imports, ``search`` is ``_search`` compiled with its
``@njit(cache=True)`` and ``JIT_ENABLED`` is true; otherwise ``search`` is
the interpreted ``_search`` itself. Results are identical either way.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "JIT_ENABLED",
    "collect_completions",
    "collect_distinct_reps",
    "count_completions",
    "count_distinct_capped",
    "search",
]

# Stands in for "no cap": more completions than an int64 key space holds.
_UNCAPPED = (1 << 63) - 1
_NO_KEYS = np.zeros(0, dtype=np.int64)
_NO_ROWS = np.zeros((0, 0), dtype=np.int64)


def _search(sizes, fixed, scope_flat, scope_strides, scope_start,
            rowkeys_flat, rowkeys_start, trig_rels, trig_start,
            target_strides, seen, out, cap):
    """Walk the completions of ``fixed``; see the module docstring."""
    n = sizes.shape[0]
    distinct = seen.shape[0] > 0
    if cap <= 0:
        return 0
    cur = np.zeros(n, dtype=np.int64)
    trial = np.zeros(n, dtype=np.int64)
    count = 0
    level = 0
    while level >= 0:
        if fixed[level] >= 0:
            base = fixed[level]
            width = 1
        else:
            base = 0
            width = sizes[level]
        t = trial[level]
        advanced = False
        while t < width:
            cur[level] = base + t
            t += 1
            ok = True
            for ti in range(trig_start[level], trig_start[level + 1]):
                r = trig_rels[ti]
                key = 0
                for j in range(scope_start[r], scope_start[r + 1]):
                    key += cur[scope_flat[j]] * scope_strides[j]
                lo = rowkeys_start[r]
                hi = rowkeys_start[r + 1]
                found = False
                while lo < hi:
                    mid = (lo + hi) // 2
                    k = rowkeys_flat[mid]
                    if k == key:
                        found = True
                        break
                    if k < key:
                        lo = mid + 1
                    else:
                        hi = mid
                if not found:
                    ok = False
                    break
            if ok:
                advanced = True
                break
        trial[level] = t
        if not advanced:
            level -= 1
            continue
        if level < n - 1:
            level += 1
            trial[level] = 0
            continue
        if distinct:
            pkey = 0
            for i in range(n):
                pkey += cur[i] * target_strides[i]
            new = True
            for s in range(count):
                if seen[s] == pkey:
                    new = False
                    break
            if not new:
                continue
            seen[count] = pkey
        if count < out.shape[0]:
            for i in range(n):
                out[count, i] = cur[i]
        count += 1
        if count >= cap:
            return count
    return count


JIT_ENABLED = False
search = _search
try:
    from numba import njit
except ImportError:
    pass
else:
    search = njit(cache=True)(_search)
    JIT_ENABLED = True


def count_completions(sizes, fixed, scope_flat, scope_strides, scope_start,
                      rowkeys_flat, rowkeys_start, trig_rels, trig_start, cap):
    """Count consistent completions of ``fixed``; stop early at ``cap`` > 0."""
    return search(sizes, fixed, scope_flat, scope_strides, scope_start,
                  rowkeys_flat, rowkeys_start, trig_rels, trig_start,
                  _NO_KEYS, _NO_KEYS, _NO_ROWS, cap if cap > 0 else _UNCAPPED)


def collect_completions(sizes, fixed, scope_flat, scope_strides, scope_start,
                        rowkeys_flat, rowkeys_start, trig_rels, trig_start, out):
    """Write the first ``out.shape[0]`` completions into ``out``; return count."""
    return search(sizes, fixed, scope_flat, scope_strides, scope_start,
                  rowkeys_flat, rowkeys_start, trig_rels, trig_start,
                  _NO_KEYS, _NO_KEYS, out, out.shape[0])


def count_distinct_capped(sizes, fixed, scope_flat, scope_strides, scope_start,
                          rowkeys_flat, rowkeys_start, trig_rels, trig_start,
                          target_strides, seen):
    """Count distinct target projections of completions, up to ``len(seen)``."""
    return search(sizes, fixed, scope_flat, scope_strides, scope_start,
                  rowkeys_flat, rowkeys_start, trig_rels, trig_start,
                  target_strides, seen, _NO_ROWS, seen.shape[0])


def collect_distinct_reps(sizes, fixed, scope_flat, scope_strides, scope_start,
                          rowkeys_flat, rowkeys_start, trig_rels, trig_start,
                          target_strides, seen, reps):
    """Collect the first completion for each of the first ``len(seen)``
    distinct target projections, in order of first appearance."""
    return search(sizes, fixed, scope_flat, scope_strides, scope_start,
                  rowkeys_flat, rowkeys_start, trig_rels, trig_start,
                  target_strides, seen, reps, seen.shape[0])
