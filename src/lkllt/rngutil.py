"""Deterministic, splittable random-stream plumbing.

A master seed fans out to fixed-size replicate blocks.  Block k owns
replicates [k*BLOCK, (k+1)*BLOCK) and draws from a Philox generator keyed by
(master_seed, k).  Because keys never depend on the total replicate count,
growing the count leaves earlier replicates' draws unchanged, and blocks may
be evaluated in any order (or in parallel) with identical results.

A sampler whose replicates each take a fixed number of 64-bit draws (its
``stride``) may also be split inside a block: Philox jumps straight to any
replicate of its block, so a span of replicates draws what the whole block
would have drawn for them.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterator

import numpy as np

BLOCK = 4096


def block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    """Generator for one replicate block; the seed is taken modulo 2^64."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def blocks(
    master_seed: int, replicates: int, stride: int | None = None, pieces: int = 1
) -> Iterator[tuple[int, int, np.random.Generator]]:
    """Yield (start, count, rng) triples covering range(replicates) in order,
    cut at every block end.

    A sampler whose replicates each take ``stride`` 64-bit draws may also be
    cut into ``pieces`` near-equal runs: a run starting ``skip`` replicates
    into block k draws from block k's generator moved past skip * stride
    draws.  Philox makes four 64-bit outputs per counter step: ``advance``
    moves whole steps and ``random_raw`` the rest.
    """
    cuts = set(range(0, replicates, BLOCK))
    if stride is not None and replicates:
        cuts.update(i * replicates // pieces for i in range(pieces))
    cuts = sorted(cuts)
    for start, end in zip(cuts, cuts[1:] + [replicates]):
        k, skip = divmod(start, BLOCK)
        rng = block_rng(master_seed, k)
        if skip:
            rng.bit_generator.advance(skip * stride // 4)
            rng.bit_generator.random_raw(skip * stride % 4)
        yield start, end - start, rng


def thread_count() -> int:
    raw = os.environ.get("LKLLT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_blocks(fn: Callable, master_seed: int, replicates: int) -> list:
    """Apply ``fn(start, count, rng)`` to every block, in replicate order.

    Runs on LKLLT_THREADS threads, the calling one among them, when that is
    more than one; results are returned in replicate order either way, so
    the reduction downstream is deterministic.  If ``fn`` has a ``stride``
    attribute, the number of 64-bit draws each of its replicates takes, the
    blocks are also cut into one near-equal run per thread (see ``blocks``);
    every replicate draws the same numbers either way.
    """
    n_threads = thread_count()
    work = blocks(master_seed, replicates, getattr(fn, "stride", None), n_threads)
    if n_threads > 1:
        work = list(work)
    # on one thread each generator is made as its block runs, so none is
    # kept per block
    if n_threads == 1 or len(work) == 1:
        return [fn(*w) for w in work]
    # plain threads: concurrent.futures would cost each process about 5 ms
    # of imports (it pulls in logging)
    results = [None] * len(work)
    failed = []
    todo = iter(range(len(work)))
    lock = threading.Lock()

    def worker():
        while not failed:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(*work[i])
            except BaseException as exc:
                failed.append((i, exc))

    helpers = [threading.Thread(target=worker) for _ in range(min(n_threads, len(work)) - 1)]
    for t in helpers:
        t.start()
    worker()
    for t in helpers:
        t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results
