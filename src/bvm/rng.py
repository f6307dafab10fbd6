"""Deterministic, splittable random streams and the chunk fold over them.

Every random draw in this package flows through fixed-size chunks of a
counter-based Philox generator keyed by ``(seed, stream, chunk index)``.
A chunk is always generated in full and then sliced, so the first *k*
draws of a request never depend on how many draws were requested in
total, and any chunk can be drawn on its own, anywhere, with the same
bits.

:func:`fold_chunks` is the one chunk loop: the Monte Carlo estimator,
the comparison density (its range, then its counts), the metrics'
resampling loops (binned pdf, area bootstrap, divergence sampler) and
the model evidence's prior draws all run on it. Each worker draws,
scores and reduces whole chunks of its own, and the results are folded
in chunk order, so work spread over any number of threads reproduces
the single-threaded result bit for bit.
``BVM_THREADS`` (default 1) sets the number of workers; it parallelises
sampling as well as kernels, so any user code a chunk calls (such as a
divergence ``sampler`` or an evidence model function) must be a pure
function of its arguments. A fold holds one chunk per worker and at most
two results per worker that wait for an earlier chunk: its memory does
not grow with the number of chunks, O(CHUNK_SIZE x path length x
workers) for an estimate.

A chunk's Philox key is the one ``np.random.SeedSequence(entropy=seed,
spawn_key=(stream, chunk)).generate_state(2, np.uint64)`` gives, but no
``SeedSequence`` is built: :func:`_philox_keys` runs numpy's entropy
mixing in ``uint32`` arithmetic for a block of ``_KEY_BLOCK`` consecutive
chunk ids at once, mixing the seed's words once for the whole block. Each
thread keeps the block it last drew from, one per stream.

:func:`_draw_chunk` is the one way to a chunk's generator: every draw in
the package - ``Distribution.draw_chunk``, the metrics' resampling loops
and a generated data instance's noise - runs on it. It re-keys the
calling thread's own Philox in place (the key, counter 0, an empty
buffer), which gives the bits of a fresh generator at a small part of
the cost of building one. A draw must therefore not keep the generator
it is given: the thread's next chunk re-keys it.
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
RESAMPLE_STREAM = 3
BAND_STREAM = 7
INSTANCE_STREAM = 11  # the noise of a generated data instance


# Chunk ids whose keys are derived together. A power of two, so every id
# in an aligned block has the same number of 32-bit words.
_KEY_BLOCK = 64
_KEY_STREAMS = 8  # key blocks a thread keeps at most: one per stream

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_ZERO_WORDS = (0, 0, 0, 0)  # a fresh Philox's counter and buffer

_local = threading.local()  # per thread: "keys", one key block per stream; "generator"


def _words(n: int) -> list:
    """The 32-bit words of a nonnegative int, least significant first, as
    ``SeedSequence`` splits its entropy and spawn key (0 is one word)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_constants(count: int, init: int, mult: int) -> list:
    """The first *count* values of a SeedSequence hash constant, which is
    multiplied by *mult* at every step whatever the data."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


# SeedSequence's two mixing steps in uint32 arithmetic. They take Python
# ints or uint32 arrays, which wrap on their own.
def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return out ^ out >> 16


_STATE_CONSTS = np.array(_hash_constants(_POOL_SIZE + 1, _INIT_B, _MULT_B), dtype=np.uint32)


def _nonnegative_int(name: str, value) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return n


def _philox_keys(seed: int, stream: int, first: int, count: int) -> np.ndarray:
    """Philox keys of chunks ``first .. first + count - 1`` of a stream, as a
    (count, 2) uint64 array: row i is
    ``SeedSequence(entropy=seed, spawn_key=(stream, first + i)).generate_state(2, np.uint64)``.

    The block must not cross a multiple of 2**32, so that every chunk id
    in it has the same words above the first.
    """
    # Entropy: the seed padded to the pool size (numpy pads whenever there
    # is a spawn key), then the stream's and the chunk's words. The chunk
    # words come last, so everything before them is mixed once per block.
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    chunk_words = _words(first)
    words = entropy[_POOL_SIZE:] + _words(stream) + chunk_words
    hashes = _hash_constants(_POOL_SIZE * (_POOL_SIZE + len(words)) + 1, _INIT_A, _MULT_A)
    # The pool takes the first pool-size words, and each of them is then
    # mixed into every other pool word...
    pool = [_hashmix(w, hashes[i], hashes[i + 1]) for i, w in enumerate(entropy[:_POOL_SIZE])]
    h = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes[h], hashes[h + 1]))
                h += 1
    # ...then each further word is mixed into every pool word in turn: one
    # row of the block per chunk id, one column per pool word.
    pool = np.array(pool, dtype=np.uint32)
    consts = np.array(hashes[h:], dtype=np.uint32)
    words[-len(chunk_words)] += np.arange(count, dtype=np.uint32)[:, None]
    for i, w in enumerate(words):
        pool = _mix(pool, _hashmix(w, consts[_POOL_SIZE * i : _POOL_SIZE * (i + 1)],
                                   consts[_POOL_SIZE * i + 1 : _POOL_SIZE * (i + 1) + 1]))
    # generate_state(2, np.uint64): one hashed word per pool word, read as
    # little-endian 64-bit pairs.
    state = _hashmix(pool, _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _chunk_key(seed, stream, chunk) -> np.ndarray:
    """The Philox key of one chunk, from the calling thread's key block
    for the stream; a chunk outside it replaces the block."""
    seed = _nonnegative_int("seed", seed)
    stream = _nonnegative_int("stream", stream)
    chunk = _nonnegative_int("chunk", chunk)
    blocks = _local.__dict__.setdefault("keys", {})
    first = chunk - chunk % _KEY_BLOCK
    block = blocks.get(stream)
    if block is None or block[0] != seed or block[1] != first:
        if block is None and len(blocks) >= _KEY_STREAMS:
            blocks.clear()  # so a thread that draws from many streams holds few blocks
        block = blocks[stream] = (seed, first, _philox_keys(seed, stream, first, _KEY_BLOCK))
    return block[2][chunk - first]


def _draw_chunk(seed: int, stream: int, chunk: int, draw, *args):
    """``draw(generator, *args)`` on one chunk of a stream, with the calling
    thread's own generator re-keyed to the chunk's fresh state.

    The generator is taken from the thread while ``draw`` runs, so a draw
    nested in it builds a generator of its own and neither disturbs the
    other's bits.
    """
    key = _chunk_key(seed, stream, chunk)
    generator = _local.__dict__.pop("generator", None)
    if generator is None:
        generator = np.random.Generator(np.random.Philox(key=0))  # keeps no SeedSequence; re-keyed below
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,  # empty: the next draw generates a block
        "has_uint32": 0,
        "uinteger": 0,
    }
    try:
        return draw(generator, *args)
    finally:
        _local.generator = generator


def num_chunks(n: int) -> int:
    return -(-int(n) // CHUNK_SIZE)


def _chunk_draws(n: int, c: int) -> int:
    """Draws in chunk c of an n-draw request."""
    return min(CHUNK_SIZE, n - c * CHUNK_SIZE)


def _chunks(n: int):
    """(chunk index, draw count) of every chunk of an n-draw request, lazily."""
    return ((c, _chunk_draws(n, c)) for c in range(num_chunks(n)))


def _max_workers() -> int:
    try:
        return max(1, int(os.environ.get("BVM_THREADS", "1")))
    except ValueError:
        return 1


def fold_chunks(fn, n: int, fold, acc):
    """``acc = fold(acc, fn(c, m))`` for each chunk c of an n-draw request,
    in chunk order; returns the final ``acc``.

    ``m`` is the chunk's draw count. ``fn`` must be a pure function of its
    arguments; it then gives the same results under any scheduling, and
    the fold sees them in the same order. Up to ``BVM_THREADS`` threads run
    ``fn``, and thread i owns the chunks c = i (mod threads), so there is
    no per-chunk task overhead. The thread that stores chunk c's result
    also folds it and every further result that is ready in order, under
    one lock, so no thread waits to fold. A thread that gets 2 x threads
    chunks ahead of the fold waits for it, so at most that many results are
    held. When chunks raise, the exception of the lowest-numbered one
    propagates: chunks above a failed one are skipped, lower ones still run.
    """
    nc = num_chunks(n)
    workers = min(_max_workers(), nc)
    if workers <= 1:
        for c in range(nc):
            acc = fold(acc, fn(c, _chunk_draws(n, c)))
        return acc
    window = 2 * workers
    lock = threading.Lock()
    room = threading.Condition(lock)  # a worker too far ahead of the fold waits here
    pending = {}  # chunk -> result, stored but not yet folded
    folded, failed, error, waiting = 0, nc, None, 0  # failed: the lowest failing chunk

    def fail(c, exc):  # under the lock
        nonlocal failed, error
        if c < failed:
            failed, error = c, exc
        if waiting:
            room.notify_all()

    def own(i):
        nonlocal acc, folded, waiting
        for c in range(i, nc, workers):
            with lock:
                while folded + window <= c < failed:
                    waiting += 1
                    room.wait()
                    waiting -= 1
                if c > failed:
                    return
            try:
                result = fn(c, _chunk_draws(n, c))
            except BaseException as exc:  # raised by the caller; a worker that died silently would stall the others
                with lock:
                    fail(c, exc)
                return
            with lock:
                pending[c] = result  # the fold never passes a failed chunk
                del result
                try:
                    while folded in pending:
                        acc = fold(acc, pending.pop(folded))
                        folded += 1
                except BaseException as exc:
                    fail(folded, exc)
                if waiting:
                    room.notify_all()

    threads = [threading.Thread(target=own, args=(i,), daemon=True) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if error is not None:
        raise error
    return acc
