"""Reference kernel: fixed numpy work that measures how fast the machine is now.

On a shared machine the speed of one CPU changes by up to a factor of
1.8 for seconds to minutes at a time. The kernel runs between ops, on
the same kind of work the program does (4x4 products, kron, eig, svd),
and never calls gatesynth, so its time changes with the machine and not
with the program. Op times are scaled by it to the speed at which the
kernel takes REF_US.
"""

import time

import numpy as np

import check
import corpus

REF_US = 450.0   # kernel time at the speed scaled times are expressed at
REF_GROUP = 8    # ops whose kernel times scale one op: the op and its neighbours

_rng = np.random.default_rng(20260101)
_ENTANGLER = corpus.dress(_rng, corpus.CNOT)
_RECORDS = [rec for _ in range(8) for rec in
            (("local", corpus.haar_unitary(_rng, 2), corpus.haar_unitary(_rng, 2)),
             ("entangler",))]
_TARGET = corpus.haar_unitary(_rng, 4)
_M = corpus.haar_unitary(_rng, 4)


def run() -> float:
    """Run the kernel once; return its process CPU time in seconds."""
    c0 = time.process_time()
    check.judge(_RECORDS, 1.0, _ENTANGLER, _TARGET, (100,))
    for _ in range(4):
        np.linalg.eig(_M @ _M.T)
        np.linalg.svd(_M)
    return time.process_time() - c0


def scale(ref_s: list) -> np.ndarray:
    """Per op: REF_US over the mean kernel time of the REF_GROUP ops around it."""
    ref = np.asarray(ref_s, dtype=float)
    n = len(ref)
    csum = np.concatenate(([0.0], np.cumsum(ref)))
    lo = np.clip(np.arange(n) - REF_GROUP // 2, 0, max(n - REF_GROUP, 0))
    hi = np.minimum(lo + REF_GROUP, n)
    return REF_US * 1e-6 * (hi - lo) / (csum[hi] - csum[lo])
