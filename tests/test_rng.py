"""Chunked streams: stream ids, chunk draw counts, and the chunk map."""

import sys

import numpy as np
import pytest

from bvm import rng
from bvm.distributions import Categorical, Normal
from bvm.rng import CHUNK_SIZE, map_chunks


def test_stream_ids_are_distinct():
    ids = {name: value for name, value in vars(rng).items() if name.endswith("_STREAM")}
    assert len(ids) >= 8
    assert len(set(ids.values())) == len(ids), ids


@pytest.mark.parametrize("dist", [Normal(0.0, 1.0), Categorical(["a", "b"], [0.3, 0.7])])
def test_draw_chunk_is_a_slice_of_sample(dist):
    n = 3 * CHUNK_SIZE - 11
    whole = dist.sample(4, n, stream=5)
    for c in range(3):
        m = min(CHUNK_SIZE, n - c * CHUNK_SIZE)
        assert np.array_equal(dist.draw_chunk(4, 5, c, m), whole[c * CHUNK_SIZE : c * CHUNK_SIZE + m])


@pytest.mark.parametrize("threads", ["1", "2", "3", "8"])
def test_map_chunks_returns_chunk_order(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    n = 40 * CHUNK_SIZE + 1
    expected = [(c, CHUNK_SIZE) for c in range(40)] + [(40, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        assert map_chunks(lambda c, m: (c, m), n) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_map_chunks_raises_lowest_failing_chunk(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)

    def fn(c, m):
        if c in (2, 5):
            raise ValueError(f"chunk {c}")
        return c

    with pytest.raises(ValueError, match="chunk 2"):
        map_chunks(fn, 6 * CHUNK_SIZE)
