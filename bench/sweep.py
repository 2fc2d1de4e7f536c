"""Scaling sweep: how each layer's cost grows with strands n, letters L and
components k.  Prints the Markdown tables of bench/README.md.

    python3 bench/sweep.py

Each cell is the median wall time of ``REPS`` calls, each on a freshly drawn
input of that size; the inputs come from ``SEED``.  This is not a workload:
it has no pass/fail and no entry in BENCHMARK.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

from braidgate import BraidWord, gates, invariants, quantum, rep  # noqa: E402

import workloads as wl  # noqa: E402

SWEEP_L = 24
SEED = 0
REPS = 5


def median_ms(make, call, rng) -> float:
    times = []
    for _ in range(REPS):
        args = make(rng)
        t0 = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def table(title: str, head: list[str], rows: list[list]) -> None:
    print(f"\n{title}\n")
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for row in rows:
        print("| " + " | ".join(f"{x:.3g}" if isinstance(x, float) else str(x) for x in row) + " |")


def main() -> None:
    rng = np.random.default_rng(SEED)

    rows = []
    for n in range(4, 11):
        def word(rng, n=n):
            return (BraidWord(n, wl.random_letters(rng, n, SWEEP_L)),)

        rows.append([
            n,
            2**n,
            median_ms(word, invariants.tau, rng),
            median_ms(word, lambda b: rep.rep_matrix(b, gates.R), rng),
        ])
    table(f"`tau` and `rep_matrix(R)` at L = {SWEEP_L} (ms)", ["n", "dim", "tau", "rep_matrix"], rows)

    rows = []
    p = invariants.BracketParams.from_theta(0.3)
    for L in range(4, 14):
        def word3(rng, L=L):
            return (BraidWord(3, wl.random_letters(rng, 3, L)), p)

        rows.append([
            L,
            2**L,
            median_ms(word3, invariants.bracket_oracle, rng),
            median_ms(word3, invariants.bracket3, rng),
        ])
    table("`bracket_oracle` and `bracket3` on 3 strands (ms)", ["L", "states", "bracket_oracle", "bracket3"], rows)

    rows = []
    for k in range(4, 16):
        def wordk(rng, k=k):
            return (BraidWord(k, wl.fixed_component_word(rng, k)), 1j, np.exp(0.3j))

        rows.append([k, 2**k, median_ms(wordk, invariants.linking_state_sum, rng)])
    table(
        f"`linking_state_sum` over k components ({2 * (wl.LINK_CONJ_L + wl.LINK_SQUARES)} letters, ms)",
        ["k", "labelings", "linking_state_sum"],
        rows,
    )

    rows = []
    for n in range(1, 4):
        def unitary(rng, n=n):
            z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            return np.linalg.qr(z)[0], wl.random_state(rng, 2**n), int(rng.integers(2**31))

        rows.append([n, 4**n, median_ms(unitary, quantum.teleport_protocol, rng)])
    table("`teleport_protocol` on a random n-qubit unitary (ms)", ["n", "outcomes", "teleport_protocol"], rows)


if __name__ == "__main__":
    main()
