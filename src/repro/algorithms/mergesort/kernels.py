"""Simulated OpenCL kernels for mergesort.

Three kernels, matching §6's implementation:

- :func:`sublist_merge_kernel` — the hybrid scheme's per-sublist merge:
  one work-item per pair of runs, a sequential two-pointer merge inside
  the thread.  Divergent (data-dependent branches, serial dependency
  chain), so it runs at the calibrated scalar rate γ.  With the §6.3
  permutation applied its accesses are coalesced; without, strided.
- :func:`permute_kernel` — the §6.3 optimization: gather the i-th
  elements of all sublists into contiguous positions (and scatter back
  before returning data to the CPU).  Regular and cheap.
- :func:`binary_search_merge_kernel` — the fully-parallel merge used by
  the GPU-only comparator (Fig. 9): one work-item per *element*, each
  performing an independent binary search.  Uniform control flow —
  regular, latency-hidden.

All kernels operate on a host-side NumPy array standing in for the
device buffer contents; ``args`` carry the launch geometry.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.algorithms.mergesort.merges import (
    merge_binary_search,
    merge_pairs_level,
    merge_two_pointer,
)
from repro.opencl.kernel import AccessPattern, Kernel

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def sublist_merge_kernel(
    array: np.ndarray, size: int, coalesced: bool = True
) -> Kernel:
    """Merge adjacent pairs of sorted ``size/2`` runs; one item per pair.

    ``args`` at launch: ``{"offset": first pair index, "pairs": count}``.
    """
    half = size // 2

    def scalar_fn(gid: int, args) -> None:
        pair = args.get("offset", 0) + gid
        lo = pair * size
        view = array[lo : lo + size]
        view[:] = merge_two_pointer(view[:half].copy(), view[half:].copy())

    def vector_fn(n_items: int, args) -> None:
        offset = args.get("offset", 0)
        lo, hi = offset * size, (offset + n_items) * size
        merge_pairs_level(array[lo:hi], size)

    return Kernel(
        name=f"merge[size={size}]",
        ops_per_item=lambda args: float(size),
        vector_fn=vector_fn,
        scalar_fn=scalar_fn,
        divergent=True,
        access=AccessPattern.COALESCED if coalesced else AccessPattern.STRIDED,
    )


def permute_kernel(array: np.ndarray, num_sublists: int, inverse: bool = False) -> Kernel:
    """§6.3's layout change: one work-item per element, gather/scatter.

    Forward: element ``j`` of sublist ``s`` moves to position
    ``j * num_sublists + s`` (i-th elements of all sublists become
    contiguous).  ``inverse=True`` undoes it before the CPU reads the
    data back.  Cost: one read + one write per item.
    """

    def vector_fn(n_items: int, args) -> None:
        data = array[:n_items]
        width = n_items // num_sublists
        if not inverse:
            data[:] = data.reshape(num_sublists, width).T.ravel()
        else:
            data[:] = data.reshape(width, num_sublists).T.ravel()

    def scalar_fn(gid: int, args) -> None:  # executed against a snapshot
        snapshot = args["snapshot"]
        width = snapshot.size // num_sublists
        s, j = divmod(gid, width)
        if not inverse:
            array[j * num_sublists + s] = snapshot[gid]
        else:
            array[s * width + j] = snapshot[j * num_sublists + s]

    return Kernel(
        name=f"permute[{num_sublists}{'^-1' if inverse else ''}]",
        ops_per_item=lambda args: 2.0,
        vector_fn=vector_fn,
        scalar_fn=scalar_fn,
        divergent=False,
        access=AccessPattern.COALESCED,
    )


def binary_search_merge_kernel(array: np.ndarray, size: int) -> Kernel:
    """Fig. 9's parallel merge: one work-item per element.

    Each element binary-searches the sibling run for its output rank:
    ``log2(size/2) + 1`` ops of uniform control flow.

    ``args`` at launch: ``{"offset": first pair, "pairs": count}``;
    the NDRange covers ``pairs * size`` work-items.  The run sizes are
    powers of two, whose ``log2`` is exact.
    """
    half = size // 2

    def vector_fn(n_items: int, args) -> None:
        offset = args.get("offset", 0)
        lo = offset * size
        flat = array[lo : lo + n_items]
        for row in flat.reshape(-1, size):
            row[:] = merge_binary_search(row[:half].copy(), row[half:].copy())

    def scalar_fn(gid: int, args) -> None:
        import numpy as np

        snapshot = args["snapshot"]
        offset = args.get("offset", 0)
        pair, idx = divmod(gid, size)
        lo = (offset + pair) * size
        left = snapshot[lo : lo + half]
        right = snapshot[lo + half : lo + size]
        if idx < half:  # element of the left run
            value = left[idx]
            rank = idx + int(np.searchsorted(right, value, side="left"))
        else:
            value = right[idx - half]
            rank = (idx - half) + int(np.searchsorted(left, value, side="right"))
        array[lo + rank] = value

    return Kernel(
        name=f"bsmerge[size={size}]",
        ops_per_item=lambda args: math.log2(max(half, 2)) + 1.0,
        vector_fn=vector_fn,
        scalar_fn=scalar_fn,
        divergent=False,
        access=AccessPattern.COALESCED,
    )
