import sys
import threading

import numpy as np
import pytest

from lkllt.rngutil import BLOCK, block_rng, blocks, map_blocks, thread_count


def test_seeds_are_taken_modulo_2_64_and_stay_distinct():
    # the key holds the seed modulo 2^64 exactly, whatever its size or sign
    def draws(seed):
        return block_rng(seed, 3).bit_generator.random_raw(4)

    assert np.array_equal(draws(-1), draws(2**64 - 1))
    assert np.array_equal(draws(-3), draws(2**64 - 3))
    assert not np.array_equal(draws(-1), draws(0))
    assert not np.array_equal(draws(-1), draws(-3))
    assert not np.array_equal(draws(2**63 + 5), draws(2**63))


def _after_plain_draws(seed: int, k: int, draws: int) -> np.random.Generator:
    """Block k's generator after ``draws`` 64-bit draws, taken one chunk at a time."""
    rng = block_rng(seed, k)
    for size in [1 << 16] * (draws >> 16) + [draws & 0xFFFF]:
        rng.bit_generator.random_raw(size)
    return rng


@pytest.mark.parametrize("replicates", [1, 2, 4095, 4097, 9001])
@pytest.mark.parametrize("pieces", [2, 3, 7])
@pytest.mark.parametrize("stride", [1, 3, 4, 5, 2016])
def test_blocks_cut_with_a_stride_cover_replicates_at_their_block_offsets(
    stride, pieces, replicates
):
    spans = list(blocks(11, replicates, stride, pieces))
    starts = [start for start, _, _ in spans]
    ends = [start + count for start, count, _ in spans]
    assert starts[0] == 0 and ends[-1] == replicates
    assert starts[1:] == ends[:-1]
    assert all(count > 0 for _, count, _ in spans)
    # no span crosses a block end, and every block end is a cut
    assert all(start // BLOCK == (end - 1) // BLOCK for start, end in zip(starts, ends))
    assert set(range(BLOCK, replicates, BLOCK)) <= set(starts)
    # at least the near-equal cuts
    assert len(spans) >= min(pieces, replicates)
    for start, _, rng in spans:
        k, skip = divmod(start, BLOCK)
        want = _after_plain_draws(11, k, skip * stride).bit_generator.random_raw(8)
        assert np.array_equal(rng.bit_generator.random_raw(8), want), (start, stride)


def _uniform_block(start, count, rng):
    return start, rng.random((count, 3))


_uniform_block.stride = 3


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_map_blocks_spans_give_the_block_draws(threads, monkeypatch):
    monkeypatch.setenv("LKLLT_THREADS", threads)
    parts = map_blocks(_uniform_block, 5, 9001)
    got = np.concatenate([values for _, values in parts])
    want = np.concatenate([rng.random((count, 3)) for _, count, rng in blocks(5, 9001)])
    assert np.array_equal(got, want)
    starts = [start for start, _ in parts]
    assert starts == sorted(starts)
    if threads == "1":  # one thread keeps whole blocks
        assert starts == [0, BLOCK, 2 * BLOCK]


@pytest.mark.parametrize("replicates", [0, 1, 4096, 9001])
def test_blocks_without_a_stride_are_whole_blocks(replicates):
    want = [(s, min(BLOCK, replicates - s)) for s in range(0, replicates, BLOCK)]
    for pieces in (1, 3):
        got = list(blocks(11, replicates, None, pieces))
        assert [(start, count) for start, count, _ in got] == want
        for start, _, rng in got:
            want_raw = block_rng(11, start // BLOCK).bit_generator.random_raw(4)
            assert np.array_equal(rng.bit_generator.random_raw(4), want_raw)


def _failing_block(start, count, rng):
    if start >= BLOCK:
        raise ValueError(f"block at {start}")
    return start


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_map_blocks_raises_the_first_failing_block(threads, monkeypatch):
    monkeypatch.setenv("LKLLT_THREADS", threads)
    with pytest.raises(ValueError, match=f"block at {BLOCK}$"):
        map_blocks(_failing_block, 5, 4 * BLOCK)
    assert map_blocks(_failing_block, 5, BLOCK) == [0]


def _stride_cases():
    from lkllt.curie_weiss import CWPairModel, CWParams
    from lkllt.er import ERPairModel, _gnp_stride, _triangle_count_block

    def triangles(n, p):
        return lambda rng, count: _triangle_count_block(n, p, rng, count), _gnp_stride(n)

    def pair(model, m):
        return lambda rng, count: model.q_block(rng, count, m), model.stride

    return {
        "er-tri-count-16": triangles(16, 0.25),
        "er-tri-count-64": triangles(64, 0.125),
        "er-tri-pair": pair(ERPairModel(12, 0.25, "triangles"), 1),
        "er-iso-pair": pair(ERPairModel(20, 0.05, "isolated"), 2),
        "cw-pair": pair(CWPairModel(CWParams(100, 0.5, 0.0)), 2),
    }


@pytest.mark.parametrize("case", sorted(_stride_cases()))
@pytest.mark.parametrize("count", [1, 7, 300])
def test_declared_strides_match_the_draws(case, count):
    # a stride that disagrees with the sampler's draws would move bytes with
    # LKLLT_THREADS; here each sampler leaves its generator exactly
    # count * stride 64-bit draws on
    draw, stride = _stride_cases()[case]
    rng = block_rng(3, 0)
    draw(rng, count)
    want = _after_plain_draws(3, 0, count * stride).bit_generator.random_raw(8)
    assert np.array_equal(rng.bit_generator.random_raw(8), want)


def test_map_blocks_hands_out_each_run_once_under_contention(monkeypatch):
    # eight threads on tiny runs with a switch interval of a microsecond: a
    # lost update of the shared work counter would run a span twice or skip one
    calls = []

    def block(start, count, rng):
        calls.append(start)
        return start, count

    block.stride = 1
    monkeypatch.setenv("LKLLT_THREADS", "8")
    want = [(start, count) for start, count, _ in blocks(5, 3 * BLOCK + 7, 1, 8)]
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            runner = threading.Thread(target=lambda: got.append(map_blocks(block, 5, 3 * BLOCK + 7)))
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 50
    assert sorted(calls) == sorted([start for start, _ in want] * 50)


@pytest.mark.parametrize("raw,want", [("abc", 1), ("0", 1), ("-2", 1), ("3", 3)])
def test_thread_count_falls_back_to_one(raw, want, monkeypatch):
    monkeypatch.setenv("LKLLT_THREADS", raw)
    assert thread_count() == want
