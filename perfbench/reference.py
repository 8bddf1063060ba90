"""A fixed pure-Python computation that measures how fast the machine is now.

The benchmark runs this between operations, in the client process, so jvu
code never touches it.  Its work resembles a gap check in miniature: sparse
noncommutative products on dicts keyed by tuple words, and Gauss-Jordan
elimination over Fractions.  On a shared machine the speed of such code can
swing by 1.5x or more over seconds to minutes; scaling each operation's time
by REFERENCE_S / (the kernel's time around that operation) removes most of
that swing while leaving every change to jvu in the figures.
"""

import time
from fractions import Fraction

#: The kernel's time on the recording machine at full speed (README.md).
REFERENCE_S = 0.045

_WORDS = [tuple((i // 3**k) % 3 for k in range(4)) for i in range(81)]


def _products():
    p = {w: i % 4 + 1 for i, w in enumerate(_WORDS)}
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in p.items():
            w = w1 + w2
            s = (out.get(w, 0) + c1 * c2) % 7
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return len(out)


def _elimination(n=10):
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i * j) % 4 + 1) for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def kernel_s() -> float:
    """Seconds the fixed computation takes right now."""
    t = time.perf_counter()
    for _ in range(8):
        _products()
        _elimination()
    return time.perf_counter() - t
