"""Chunked streams: stream ids, chunk keys, chunk draws, and the chunk fold.

The package derives chunk keys without ``np.random.SeedSequence``;
:func:`fresh_rng` keeps the ``SeedSequence`` formula as the oracle that
every key and every draw must reproduce.
"""

import ast
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from bvm import rng
from bvm.distributions import Categorical, Distribution, Empirical, Normal, StudentT
from bvm.rng import CHUNK_SIZE, _KEY_BLOCK, _draw_chunk, fold_chunks

STREAMS = sorted(v for name, v in vars(rng).items() if name.endswith("_STREAM"))


def fresh_rng(seed, stream, chunk):
    """A chunk's generator as numpy spawns it from a SeedSequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream, chunk))))


def fresh_chunk(dist, seed, stream, chunk, m=CHUNK_SIZE):
    return dist._draw(fresh_rng(seed, stream, chunk), CHUNK_SIZE)[:m]


def test_stream_ids_are_distinct():
    ids = {name: value for name, value in vars(rng).items() if name.endswith("_STREAM")}
    assert set(ids) == {"MODEL_STREAM", "DATA_STREAM", "RESAMPLE_STREAM", "BAND_STREAM", "INSTANCE_STREAM"}
    assert len(set(ids.values())) == len(ids), ids


def _generator_sites(source: str) -> list:
    """(enclosing function, name) of every code use of a numpy generator
    constructor: a call of ``Philox`` or ``Generator``, or any reference to
    ``default_rng`` or ``SeedSequence``. Docstrings and comments may name them."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            names, wanted = [getattr(node.func, "attr", getattr(node.func, "id", None))], {"Philox", "Generator"}
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names, wanted = [getattr(node, "attr", getattr(node, "id", None))], {"default_rng", "SeedSequence"}
        elif isinstance(node, ast.ImportFrom):
            names, wanted = [alias.name for alias in node.names], {"default_rng", "SeedSequence"}
        else:
            names, wanted = [], set()
        sites.extend((where, name) for name in names if name in wanted)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return sites


def test_generators_are_built_only_in_draw_chunk():
    src = Path(rng.__file__).parent
    found = {path.name: _generator_sites(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {
        "rng.py": [("_draw_chunk", "Generator"), ("_draw_chunk", "Philox")]
    }
    # The scan sees what it must reject.
    assert _generator_sites("def f():\n    return np.random.default_rng(0)\n") == [("f", "default_rng")]
    assert _generator_sites("from numpy.random import SeedSequence\n") == [(None, "SeedSequence")]
    assert _generator_sites("g = Generator(Philox(1))\nx: np.random.Generator\n") == [(None, "Generator"), (None, "Philox")]


@pytest.mark.parametrize("dist", [Normal(0.0, 1.0), Categorical(["a", "b"], [0.3, 0.7])])
def test_draw_chunk_is_a_slice_of_sample(dist):
    n = 3 * CHUNK_SIZE - 11
    whole = dist.sample(4, n, stream=5)
    for c in range(3):
        m = min(CHUNK_SIZE, n - c * CHUNK_SIZE)
        assert np.array_equal(dist.draw_chunk(4, 5, c, m), whole[c * CHUNK_SIZE : c * CHUNK_SIZE + m])


class _FastSwitching:
    """Switch threads as often as possible while the block runs."""

    def __enter__(self):
        self.interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

    def __exit__(self, *exc):
        sys.setswitchinterval(self.interval)


FOLD_THREADS = ["1", "2", "3", "8"]


def _in_time(fn, seconds=60.0):
    """``fn()`` on a thread joined with a timeout, so that a fold that
    deadlocks fails its test instead of hanging the suite."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the fold did not finish in {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.mark.parametrize("threads", FOLD_THREADS)
def test_fold_chunks_folds_in_chunk_order_within_the_window(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    window = 2 * int(threads)
    n = 40 * CHUNK_SIZE + 1
    folded = []
    ahead = []  # how far past the fold each chunk started

    def fn(c, m):
        ahead.append(c - len(folded))
        return c, m

    def fold(acc, result):
        folded.append(result)
        return acc + result[1]

    with _FastSwitching():
        assert _in_time(lambda: fold_chunks(fn, n, fold, 0)) == n
    assert folded == [(c, CHUNK_SIZE) for c in range(40)] + [(40, 1)]
    assert max(ahead) < window


@pytest.mark.parametrize("threads", FOLD_THREADS)
def test_fold_chunks_raises_lowest_failing_chunk(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)

    def fn(c, m):
        if c in (2, 5):
            raise ValueError(f"chunk {c}")
        return c

    with _FastSwitching(), pytest.raises(ValueError, match="chunk 2"):
        _in_time(lambda: fold_chunks(fn, 6 * CHUNK_SIZE, lambda acc, c: acc + [c], []))

    def fold(acc, c):  # a failing fold counts as a failure of the chunk it folds
        if c == 1:
            raise ValueError("fold 1")
        return acc

    with _FastSwitching(), pytest.raises(ValueError, match="fold 1"):
        _in_time(lambda: fold_chunks(fn, 6 * CHUNK_SIZE, fold, None))


@pytest.mark.parametrize("threads", FOLD_THREADS)
def test_fold_chunks_runs_no_chunk_past_the_window_of_a_failure(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    window = 2 * int(threads)
    calls = []

    def fn(c, m):
        calls.append(c)
        if c == 3:
            time.sleep(0.02)  # the other workers run ahead while chunk 3 fails
            raise ValueError("chunk 3")
        return c

    with _FastSwitching(), pytest.raises(ValueError, match="chunk 3"):
        _in_time(lambda: fold_chunks(fn, 200 * CHUNK_SIZE, lambda acc, c: acc, None))
    assert sorted(calls) == sorted(set(calls))
    assert set(range(4)) <= set(calls)
    assert max(calls) < 3 + window


@pytest.mark.parametrize("threads", FOLD_THREADS)
def test_fold_chunks_leaves_no_thread_behind_a_failure(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    before = threading.active_count()

    def fn(c, m):
        if c % 7 == 4:
            raise ValueError(f"chunk {c}")
        return c

    with _FastSwitching(), pytest.raises(ValueError, match="chunk 4"):
        _in_time(lambda: fold_chunks(fn, 50 * CHUNK_SIZE, lambda acc, c: acc, None))
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5])
def test_chunk_keys_equal_seed_sequence_keys(seed):
    chunks = [*range(_KEY_BLOCK + 2), 2**32 - 1, 2**32]
    for stream in STREAMS + [2**33]:
        for c in chunks:
            want = np.random.SeedSequence(entropy=seed, spawn_key=(stream, c)).generate_state(2, np.uint64)
            assert np.array_equal(rng._chunk_key(seed, stream, c), want), (seed, stream, c)
            # The whole state: key, counter, buffer and the buffered uint32.
            assert _draw_chunk(seed, stream, c, lambda g: repr(g.bit_generator.state)) == repr(
                fresh_rng(seed, stream, c).bit_generator.state
            ), (seed, stream, c)


@pytest.mark.parametrize(
    "seed, stream, chunk", [(1.5, 0, 0), (-1, 0, 0), (0, -2, 0), (0, 0, -3), (0, 0.5, 0), (0, 0, 2.25)]
)
def test_non_integral_or_negative_ids_are_rejected(seed, stream, chunk):
    with pytest.raises(ValueError, match="nonnegative integer"):
        _draw_chunk(seed, stream, chunk, lambda g: None)
    with pytest.raises(ValueError, match="nonnegative integer"):
        Normal(0.0, 1.0).draw_chunk(seed, stream, chunk, 10)


@pytest.mark.parametrize("m", [0, -3, CHUNK_SIZE + 1, 5000])
def test_draw_chunk_rejects_a_count_outside_one_chunk(m):
    with pytest.raises(ValueError, match="chunk draws"):
        Normal(0.0, 1.0).draw_chunk(1, 0, 0, m)


@dataclass(frozen=True)
class _OddWords(Distribution):
    """Draws an odd number of 32-bit words, so half of a 64-bit Philox
    output stays buffered in the generator afterwards."""

    def _draw(self, rng, m):
        out = rng.integers(0, 7, size=m, dtype=np.int32)
        rng.integers(0, 7, dtype=np.int32)
        return out


KINDS = [Normal(0.3, 2.0), _OddWords(), Empirical(np.arange(17.0)), Categorical([1.0, 2.0, 5.0], [0.2, 0.5, 0.3]),
         StudentT(0.0, 3.0, 1.5), Categorical(["a", "b"], [0.4, 0.6])]


def test_reused_generator_draws_what_a_fresh_one_draws():
    # Each kind leaves different state behind (a buffered 32-bit word, a
    # partly used Philox block); the next chunk must not see any of it.
    for i in range(3 * len(KINDS)):
        dist, c, m = KINDS[i % len(KINDS)], (7 * i) % (_KEY_BLOCK + 3), 1 + (997 * i) % CHUNK_SIZE
        got = dist.draw_chunk(11, 1 + i % 2, c, m)
        assert np.array_equal(got, fresh_chunk(dist, 11, 1 + i % 2, c, m)), (dist, c, m)


@dataclass(frozen=True)
class _Nested(Distribution):
    """Draws from its generator, then another distribution's chunk, then
    its generator again."""

    inner: Distribution

    def _draw(self, rng, m):
        head = rng.normal(size=m // 2)
        inner = self.inner.draw_chunk(5, 3, 1, m - m // 2)
        return np.concatenate([head, inner + rng.normal(size=m - m // 2)])


def test_nested_draw_keeps_both_draws_bits():
    inner = Categorical([0.0, 1.0], [0.5, 0.5])
    got = _Nested(inner).draw_chunk(4, 2, 0, CHUNK_SIZE)
    outer = fresh_rng(4, 2, 0)
    head = outer.normal(size=CHUNK_SIZE // 2)
    want = np.concatenate([head, fresh_chunk(inner, 5, 3, 1, CHUNK_SIZE // 2) + outer.normal(size=CHUNK_SIZE // 2)])
    assert np.array_equal(got, want)
    assert np.array_equal(inner.draw_chunk(5, 3, 1, 9), fresh_chunk(inner, 5, 3, 1, 9))


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_sample_bits_do_not_depend_on_threads(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    model, data = Normal(0.2, 1.0), StudentT(0.0, 4.0, 0.5)

    def chunk(c, m):  # one chunk of a stream, and a whole sample, on each worker
        return c, model.draw_chunk(9, 0, c, m), data.sample(9 + c, 100, stream=1)

    def check(seen, result):  # in chunk order, as each chunk is folded
        c, draws, sample = result
        assert c == seen
        assert np.array_equal(draws, fresh_chunk(model, 9, 0, c, draws.size)), c
        assert np.array_equal(sample, fresh_chunk(data, 9 + c, 1, 0, 100)), c
        return seen + 1

    with _FastSwitching():
        n = (_KEY_BLOCK + 5) * CHUNK_SIZE - 7  # crosses a key block; ends part-way
        assert _in_time(lambda: fold_chunks(chunk, n, check, 0)) == _KEY_BLOCK + 5


def test_a_thread_drawing_from_many_streams_keeps_few_key_blocks():
    dist = Normal(0.0, 1.0)
    for stream in range(100, 140):
        assert np.array_equal(dist.draw_chunk(2, stream, 3, 5), fresh_chunk(dist, 2, stream, 3, 5)), stream
    assert 1 <= len(rng._local.keys) <= rng._KEY_STREAMS
