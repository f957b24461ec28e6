"""Check `tensor._gelu` against GELU through the signed erf on every float32 input.

    PYTHONPATH=src python3 tools/gelu_sweep.py

`_gelu` evaluates erf on |x / sqrt2| and takes the sign back from
fmin(x / sqrt2, 0). This compares its cdf and its output, bit for bit, with
0.5 * (1 + erf(x / sqrt2)) and x times that, over all 2^32 float32 bit
patterns, 2^22 at a time: NaNs of either sign, infinities, signed zeros
and subnormals included. It takes no arguments, prints the mismatching
patterns, at most ten, and a summary line, and exits 1 if any pattern
differs. It holds about 100 MB and takes a few minutes on one core.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from scipy.special import erf

from maskvid import tensor as tk

_CHUNK = 1 << 22  # patterns checked at a time


def main() -> int:
    offsets, bits = np.arange(_CHUNK, dtype=np.uint32), np.empty(_CHUNK, np.uint32)
    cdf, out = np.empty(_CHUNK, np.float32), np.empty(_CHUNK, np.float32)
    x = bits.view(np.float32)
    mismatched, start = 0, time.perf_counter()
    for first in range(0, 1 << 32, _CHUNK):
        np.add(offsets, np.uint32(first), out=bits)
        with np.errstate(all="ignore"):
            tk._gelu(x, cdf, out)
            want_cdf = 0.5 * (1.0 + erf(x * tk._INV_SQRT2))
            want_out = x * want_cdf
        bad = np.flatnonzero((cdf.view(np.uint32) != want_cdf.view(np.uint32))
                             | (out.view(np.uint32) != want_out.view(np.uint32)))
        for i in bad[:max(0, 10 - mismatched)]:
            print(f"mismatch x=0x{bits[i]:08x} cdf {cdf[i]!r} vs {want_cdf[i]!r}, "
                  f"out {out[i]!r} vs {want_out[i]!r}")
        mismatched += len(bad)
    print(f"gelu_sweep: {mismatched} of {1 << 32} float32 patterns differ "
          f"({time.perf_counter() - start:.0f} s)")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
