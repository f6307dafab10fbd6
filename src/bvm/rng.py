"""Deterministic, splittable random streams and the chunk map over them.

Every random draw in this package flows through fixed-size chunks of a
counter-based Philox generator keyed by ``(seed, stream, chunk index)``.
A chunk is always generated in full and then sliced, so the first *k*
draws of a request never depend on how many draws were requested in
total, and any chunk can be drawn on its own, anywhere, with the same
bits.

:func:`map_chunks` is the one chunk loop: the Monte Carlo estimator,
the comparison density, the metrics' resampling loops (binned pdf, area
bootstrap, divergence sampler) and the model evidence's prior draws all
run on it. Each worker draws, scores and reduces whole chunks of its
own, and the results come back in chunk order, so work spread over any
number of threads reproduces the single-threaded result bit for bit.
``BVM_THREADS`` (default 1) sets the number of workers; it parallelises
sampling as well as kernels, so any user code a chunk calls (such as a
divergence ``sampler`` or an evidence model function) must be a pure
function of its arguments. The memory an estimate holds is
O(CHUNK_SIZE x path length x workers), not O(k).
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Draws per chunk. Small enough that fully materialising the final
# partial chunk is cheap, large enough that chunk bookkeeping is noise.
CHUNK_SIZE = 4096

# Stream ids. Every id a draw in this package uses is named here, and no
# two names share an id. Callers composing their own multi-stream
# computations should pick ids well clear of these.
MODEL_STREAM = 0
DATA_STREAM = 1
TOLERANCE_STREAM = 2
RESAMPLE_STREAM = 3
BAND_STREAM = 7
INSTANCE_STREAM = 11  # the noise of a generated data instance
QUANTILE_STREAM = 17  # empirical quantiles and histograms without a cdf
REGION_STREAM = 19  # region mass without a cdf


def chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Fresh generator for one chunk of one named stream under a master seed."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(stream), int(chunk)))
    return np.random.Generator(np.random.Philox(ss))


def num_chunks(n: int) -> int:
    return -(-int(n) // CHUNK_SIZE)


def _chunks(n: int) -> list:
    """(chunk index, draw count) of every chunk of an n-draw request."""
    return [(c, min(CHUNK_SIZE, n - c * CHUNK_SIZE)) for c in range(num_chunks(n))]


def _max_workers() -> int:
    try:
        return max(1, int(os.environ.get("BVM_THREADS", "1")))
    except ValueError:
        return 1


def map_chunks(fn, n: int) -> list:
    """``[fn(c, m) for each chunk c of an n-draw request]``, in chunk order.

    ``m`` is the chunk's draw count. ``fn`` must be a pure function of its
    arguments; it then gives the same results under any scheduling. Up to
    ``BVM_THREADS`` threads run it, and thread i owns the chunks
    c = i (mod threads), so there is no per-chunk task overhead. When
    chunks raise, the exception of the lowest-numbered one propagates.
    """
    chunks = _chunks(n)
    workers = min(_max_workers(), len(chunks))
    if workers <= 1:
        return [fn(c, m) for c, m in chunks]
    results = [None] * len(chunks)
    failures = []  # (chunk, exception): each worker stops at its first

    def own(i):
        for c, m in chunks[i::workers]:
            try:
                results[c] = fn(c, m)
            except Exception as exc:
                failures.append((c, exc))
                return

    threads = [threading.Thread(target=own, args=(i,), daemon=True) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results
