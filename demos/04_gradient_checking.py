"""Show the finite-difference machinery on a small hand-built network.

Builds a two-layer network out of the differentiable primitives and the
gradient suite's recorded GELU kernel, checks its tape gradients against
central differences, and prints the per-parameter worst relative error.
Then runs the package-wide gradient suite.
"""

import numpy as np

from maskvid import gradsuite
from maskvid import tensor as tk
from maskvid.tensor import Param, Tensor, finite_diff_check


def main():
    rng = np.random.default_rng(0)
    w1 = Param(rng.standard_normal((6, 16)) / np.sqrt(6), "w1", dtype=np.float64)
    b1 = Param(np.zeros(16), "b1", dtype=np.float64)
    w2 = Param(rng.standard_normal((16, 3)) / 4.0, "w2", dtype=np.float64)
    b2 = Param(np.zeros(3), "b2", dtype=np.float64)
    x = Tensor(rng.standard_normal((10, 6)))
    labels = rng.integers(0, 3, size=10)

    def loss():
        h = gradsuite.kernel_gelu(tk.linear(x, w1.value, b1.value))
        return tk.cross_entropy(tk.linear(h, w2.value, b2.value), labels)

    for p in (w1, b1, w2, b2):
        err = finite_diff_check(loss, [p])
        print(f"{p.name}: max relative gradient error {err:.3e}")

    print("\nfull suite (primitives + whole-model forward):")
    worst = gradsuite.run_gradient_suite(verbose=True)
    print(f"worst: {worst:.3e}  ({'OK' if worst < 1e-4 else 'FAIL'} at 1e-4)")


if __name__ == "__main__":
    main()
