"""Self-time arithmetic of the benchmark's span recorder.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Recorder, Span, SpanIndex  # noqa: E402


def span(sid, name, start, end, parent=None, thread=1, cpu=0.0):
    return Span(sid, name, start, end, parent, thread, 1, False, cpu)


def by_name(idx, name):
    (s,) = idx.by_name[name]
    return s


class Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tri_q_inside_two_step():
    # tri_q11_two_step [0, 10] calls tri_q twice: [1, 3] and [4, 6]
    idx = SpanIndex([
        span(1, "er.tri_q11_two_step", 0.0, 10.0),
        span(2, "er.tri_q", 1.0, 3.0, parent=1),
        span(3, "er.tri_q", 4.0, 6.0, parent=1),
    ])
    assert idx.self_time(by_name(idx, "er.tri_q11_two_step")) == pytest.approx(6.0)
    assert [idx.self_time(s) for s in idx.by_name["er.tri_q"]] == [2.0, 2.0]
    assert idx.busy("er.tri_q11_two_step", "er.tri_q") == pytest.approx(10.0)
    assert idx.busy("er.tri_q", under=("er.tri_q11_two_step",)) == pytest.approx(4.0)


def test_distance_inside_lk_sides_subtracts_children_only():
    # a grandchild is covered by its parent and is not subtracted twice
    idx = SpanIndex([
        span(1, "lk.lk_sides", 0.0, 10.0),
        span(2, "lattice.smooth_uniform", 1.0, 2.0, parent=1),
        span(3, "metrics.distance", 3.0, 7.0, parent=1),
        span(4, "metrics._aligned", 4.0, 5.0, parent=3),
    ])
    assert idx.self_time(by_name(idx, "lk.lk_sides")) == pytest.approx(5.0)
    assert idx.self_time(by_name(idx, "metrics.distance")) == pytest.approx(3.0)
    assert idx.own_time("lk.", "lk.lk_sides") == pytest.approx(5.0)
    assert idx.own_time("metrics.", "lk.lk_sides") == pytest.approx(4.0)


def test_children_overlapping_across_threads():
    # two pool threads run blocks [1, 6] and [3, 9] under map_blocks [0, 10]:
    # together they cover [1, 9], so the map span's self time is 2, not 10 - 5 - 6
    idx = SpanIndex([
        span(1, "rngutil.map_blocks", 0.0, 10.0, thread=1),
        span(2, "rngutil.block", 1.0, 6.0, parent=1, thread=2, cpu=4.0),
        span(3, "rngutil.block", 3.0, 9.0, parent=1, thread=3, cpu=3.0),
    ])
    assert idx.self_time(by_name(idx, "rngutil.map_blocks")) == pytest.approx(2.0)
    assert idx.busy("rngutil.block") == pytest.approx(11.0)  # thread-seconds
    assert idx.waited("rngutil.block") == pytest.approx((5.0 - 4.0) + (6.0 - 3.0))


def test_child_outliving_its_parent_is_clipped():
    idx = SpanIndex([span(1, "a", 0.0, 4.0), span(2, "b", 3.0, 8.0, parent=1)])
    assert idx.self_time(by_name(idx, "a")) == pytest.approx(3.0)


def test_recorder_nests_calls_and_counts_work():
    rec = Recorder(clock=Ticks())
    inner = rec.wrap("er.tri_q", lambda g: g, work=lambda a, k, r: a[0])
    outer = rec.wrap("er.tri_q11_two_step", lambda: inner(3) + inner(4))
    assert outer() == 7
    idx = SpanIndex(rec.spans)
    top = by_name(idx, "er.tri_q11_two_step")
    assert top.parent is None
    assert [s.parent for s in idx.by_name["er.tri_q"]] == [top.sid, top.sid]
    assert idx.work("er.tri_q") == 7
    # ticks: outer opens at 1; inner spans [2, 3] and [4, 5]; outer closes at 6
    assert idx.self_time(top) == pytest.approx(3.0)


def test_recorder_marks_errors_and_restores_the_stack():
    rec = Recorder(clock=Ticks())

    def fail():
        raise ValueError("budget")

    with pytest.raises(ValueError):
        rec.wrap("rgg._bnb_mis", fail)()
    assert rec.current() is None
    assert SpanIndex(rec.spans).errors("rgg._bnb_mis") == 1


def test_block_on_another_thread_gets_the_submitting_span_as_parent():
    rec = Recorder()
    seen = []

    def submit():
        parent = rec.current()
        worker = threading.Thread(
            target=lambda: seen.append(rec.call("rngutil.block", lambda: 5, parent=parent, cpu=True))
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    rec.wrap("rngutil.map_blocks", submit)()
    idx = SpanIndex(rec.spans)
    block, top = by_name(idx, "rngutil.block"), by_name(idx, "rngutil.map_blocks")
    assert seen == [5]
    assert block.parent == top.sid and block.thread != top.thread
    assert top.start <= block.start <= block.end <= top.end
    assert 0.0 <= idx.self_time(top) <= top.duration
