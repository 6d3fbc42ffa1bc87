"""Backend and session tests: determinism, causality, cache consistency."""

import functools
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fixtures import make_divergence_pair
from reference_impl import (
    ref_copy_target,
    ref_ngram_counts,
    ref_ngram_logits,
    ref_table_logits,
)

from reflectspec import models
from reflectspec.errors import (
    InvalidConfigError,
    InvalidTokenError,
    SessionRangeError,
)
from reflectspec.models import (
    BlendModel,
    Model,
    ModelSession,
    ModelSpec,
    NgramModel,
    ReflectionAwareModel,
    TableModel,
    build_model,
    pair_models,
    token_typecode,
)
from reflectspec.tokens import make_rng, sampling_distribution, softmax


def random_context(rng, vocab, max_len=12):
    return [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(1, max_len)))]


ALL_BACKENDS = ["table", "ngram", "blend", "reflective"]


def build_backend(kind, vocab=16, seed=5):
    if kind == "table":
        return TableModel(vocab, seed=seed, order=2)
    if kind == "ngram":
        rng = make_rng(seed)
        docs = [random_context(rng, vocab, 30) for _ in range(6)]
        return NgramModel(docs, vocab, order=2, smoothing=0.5)
    if kind == "blend":
        return BlendModel(TableModel(vocab, seed=seed), TableModel(vocab, seed=seed + 1), 0.4)
    if kind == "reflective":
        return ReflectionAwareModel(TableModel(vocab, seed=seed), vocab - 1, 0.5)
    raise AssertionError(kind)


class TestModelSession:
    def test_forward_returns_one_logit_vector_per_position(self):
        s = ModelSession(TableModel(8, seed=1))
        out = s.forward([1, 2, 3])
        assert len(out) == 3 and all(v.shape == (8,) for v in out)
        assert len(s) == 3

    @pytest.mark.parametrize("vocab, itemsize", [(8, 1), (256, 1), (257, 2), (65536, 2), (65537, 4)])
    def test_context_is_the_narrowest_typed_buffer(self, vocab, itemsize):
        seen = []

        class Recording(TableModel):
            def next_logits(self, context):
                seen.append((type(context), context.typecode, context.tolist()))
                return super().next_logits(context)

        s = ModelSession(Recording(vocab, seed=1))
        s.forward([1, vocab - 1, 0])
        code = token_typecode(vocab)
        assert array(code).itemsize == itemsize
        buffer = type(s._tokens)
        assert buffer is not array and issubclass(buffer, array)
        assert seen == [
            (buffer, code, [1]),
            (buffer, code, [1, vocab - 1]),
            (buffer, code, [1, vocab - 1, 0]),
        ]
        tokens = s.tokens
        assert type(tokens) is list and tokens == [1, vocab - 1, 0]
        tokens.append(2)  # a copy: the session is unchanged
        assert len(s) == 3

    def test_a_row_that_raises_leaves_the_session_unchanged(self):
        s = ModelSession(TableModel(16), -1.0)
        with pytest.raises(InvalidConfigError):
            s.forward([1, 2])
        assert len(s) == 0 and s._rows == []

        class FailsAfter(TableModel):
            def next_logits(self, context):
                if context[-1] == 9:
                    raise RuntimeError("no row")
                return super().next_logits(context)

        s = ModelSession(FailsAfter(16, seed=1))
        s.forward([3, 4])
        rows = list(s._rows)
        with pytest.raises(RuntimeError, match="no row"):
            s.forward([5, 9, 6])
        assert s.tokens == [3, 4] and s._rows == rows
        fresh = ModelSession(TableModel(16, seed=1))
        want = fresh.forward([3, 4, 5, 6])
        got = s.forward([5, 6])
        assert [r.tobytes() for r in rows + got] == [r.tobytes() for r in want]
        assert s.tokens == fresh.tokens

    def test_a_vocabulary_no_typecode_holds_is_a_config_error(self):
        assert token_typecode(2**64) == "Q"
        # A window model refuses this vocabulary at construction already.
        big = Model()
        big.vocab_size = 2**64 + 1
        message = r"vocab_size must be <= 2\*\*64, got 18446744073709551617"
        with pytest.raises(InvalidConfigError, match=message):
            ModelSession(big)
        with pytest.raises(InvalidConfigError, match=message):
            ReflectionAwareModel(big, 0, 0.5)

    def test_rejects_out_of_vocab_tokens(self):
        s = ModelSession(TableModel(8, seed=1))
        with pytest.raises(InvalidTokenError):
            s.forward([1, 8])
        with pytest.raises(InvalidTokenError):
            s.forward([-1])

    @pytest.mark.parametrize("bad", [1.9, 2.0, np.float64(3.0), "3", None, 1 + 0j])
    def test_rejects_a_token_that_is_not_an_integer_naming_it(self, bad):
        # int() would truncate 1.9 to 1 and read "3" as 3.
        s = ModelSession(TableModel(8, seed=1))
        s.forward([1])
        with pytest.raises(InvalidTokenError, match=f"^token {re.escape(repr(bad))} is not an integer$"):
            s.forward([2, bad])
        assert s.tokens == [1]

    def test_python_and_numpy_integers_are_tokens(self):
        want = ModelSession(TableModel(8, seed=1)).forward([1, 2, 3, 4])
        s = ModelSession(TableModel(8, seed=1))
        got = s.forward([True, np.uint8(2), np.int64(3), np.array(4)[()]])
        assert s.tokens == [1, 2, 3, 4] and all(type(t) is int for t in s.tokens)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_a_corpus_token_that_is_not_an_integer_is_rejected(self):
        with pytest.raises(InvalidTokenError, match=r"^corpus token 1\.5 is not an integer$"):
            NgramModel([[0, 1], [2, 1.5]], 4)

    @pytest.mark.parametrize("kind", ALL_BACKENDS)
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_a_session_at_a_temperature_caches_next_distribution_rows(self, kind, temperature):
        model = build_backend(kind)
        s = ModelSession(model, temperature)
        tokens = random_context(make_rng(5), model.vocab_size, 20)
        rows = s.forward(tokens)
        want = [
            sampling_distribution(build_backend(kind).next_logits(tokens[: j + 1]), temperature)
            for j in range(len(tokens))
        ]
        assert [r.tobytes() for r in rows] == [w.tobytes() for w in want]
        assert s.last_row is rows[-1]
        s.truncate(2)
        assert s.last_row is rows[1]

    @pytest.mark.parametrize("kind", ALL_BACKENDS)
    def test_incremental_equals_from_scratch(self, kind):
        model = build_backend(kind)
        rng = make_rng(77)
        a = random_context(rng, model.vocab_size)
        b = random_context(rng, model.vocab_size)
        s1 = ModelSession(model)
        split = s1.forward(a) + s1.forward(b)
        s2 = ModelSession(model)
        whole = s2.forward(a + b)
        for x, y in zip(split, whole):
            assert np.max(np.abs(x - y)) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_BACKENDS)
    def test_truncate_then_append_matches_fresh_session(self, kind):
        model = build_backend(kind)
        s = ModelSession(model)
        s.forward([1, 2, 3])
        s.truncate(1)
        regrown = s.forward([4])
        fresh = ModelSession(model)
        expected = fresh.forward([1, 4])
        assert np.max(np.abs(regrown[0] - expected[1])) <= 1e-12
        assert s.tokens == [1, 4]

    def test_truncate_to_current_is_noop(self):
        s = ModelSession(TableModel(8, seed=1))
        s.forward([1, 2])
        before = s.last_logits.copy()
        s.truncate(2)
        assert s.tokens == [1, 2]
        assert np.array_equal(s.last_logits, before)

    def test_truncate_to_zero(self):
        s = ModelSession(TableModel(8, seed=1))
        s.forward([1, 2])
        s.truncate(0)
        assert len(s) == 0

    def test_truncate_out_of_range(self):
        s = ModelSession(TableModel(8, seed=1))
        s.forward([1])
        with pytest.raises(SessionRangeError):
            s.truncate(2)
        with pytest.raises(SessionRangeError):
            s.truncate(-1)

    @pytest.mark.parametrize("keep", [1.5, "2", None])
    def test_truncate_refuses_a_length_that_is_not_an_integer_naming_it(self, keep):
        s = ModelSession(TableModel(8, seed=1))
        s.forward([1, 2, 3])
        with pytest.raises(InvalidConfigError, match=f"^keep_length must be an integer, got {re.escape(repr(keep))}$"):
            s.truncate(keep)
        assert s.tokens == [1, 2, 3] and len(s._rows) == 3
        s.truncate(np.int64(2))  # a numpy integer is a length
        assert s.tokens == [1, 2]

    @pytest.mark.parametrize("kind", ALL_BACKENDS)
    def test_causality(self, kind):
        # Changing a later token never changes logits at earlier positions.
        model = build_backend(kind)
        s1 = ModelSession(model)
        out1 = s1.forward([1, 2, 3, 4])
        s2 = ModelSession(model)
        out2 = s2.forward([1, 2, 3, 5])
        for j in range(3):
            assert np.array_equal(out1[j], out2[j])


class TestTableModel:
    def test_same_spec_same_function(self):
        spec = ModelSpec("table", 16, seed=9, order=2)
        m1, m2 = build_model(spec), build_model(spec)
        rng = make_rng(0)
        for _ in range(50):
            ctx = random_context(rng, 16)
            assert np.array_equal(m1.next_logits(ctx), m2.next_logits(ctx))

    def test_different_seeds_differ_somewhere(self):
        m1 = TableModel(16, seed=1)
        m2 = TableModel(16, seed=2)
        rng = make_rng(0)
        contexts = [random_context(rng, 16) for _ in range(100)]
        assert any(
            not np.array_equal(m1.next_logits(c), m2.next_logits(c)) for c in contexts
        )

    def test_logits_bounded(self):
        m = TableModel(16, seed=3)
        rng = make_rng(0)
        for _ in range(1000):
            logits = m.next_logits(random_context(rng, 16))
            assert logits.min() >= -4.0 and logits.max() <= 4.0

    def test_conditions_only_on_trailing_order(self):
        m = TableModel(16, seed=3, order=2)
        assert np.array_equal(m.next_logits([9, 1, 2]), m.next_logits([5, 1, 2]))

    @pytest.mark.parametrize("seed", [-(2**63), -1, 0, 2**63 - 1])
    def test_signed_64_bit_seeds_build(self, seed):
        logits = TableModel(8, seed=seed).next_logits([1, 2])
        assert logits.min() >= -4.0 and logits.max() <= 4.0

    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63, 10**23])
    def test_seed_outside_signed_64_bits_rejected(self, seed):
        with pytest.raises(InvalidConfigError, match=rf"^seed must lie in .* got {seed}$"):
            TableModel(8, seed=seed)


def distinct_windows(vocab, order, count, seed, held=()):
    """``count`` distinct token windows: ``count // 2`` drawn from ``held``
    (all of them if fewer), every one-token window (a context at a sequence
    start) below ``min(vocab, 8)``, then random ``order``-token windows."""
    rng = make_rng(seed)
    held = sorted(tuple(w) for w in held)
    picks = rng.choice(len(held), min(len(held), count // 2), replace=False) if held else ()
    windows = {held[i] for i in picks} | {(a,) for a in range(min(vocab, 8))}
    while len(windows) < count:
        windows.add(tuple(int(t) for t in rng.integers(0, vocab, size=order)))
    return [list(w) for w in sorted(windows)]


def assert_memo_matches_fresh(m, fresh_logits, vocab, seed, held=()):
    """Query more distinct windows than ``m``'s memo holds, half of them
    from ``held`` if it has that many, twice in shuffled order and once more
    under a longer context, each against ``fresh_logits(window)``; the memo
    ends full. Returns the windows."""
    capacity = models.MEMO_WINDOWS
    windows = distinct_windows(vocab, m.order, 2 * capacity, seed, held)
    assert len(windows) > capacity
    rng = make_rng(seed + 1)
    for _ in range(2):
        for i in rng.permutation(len(windows)):
            w = windows[i]
            fresh = fresh_logits(w)
            assert np.array_equal(m.next_logits(w), fresh)
            if len(w) == m.order:
                assert np.array_equal(m.next_logits([int(rng.integers(vocab))] + w), fresh)
    assert len(m._memo) == capacity
    return windows


def assert_memo_stays_bounded(m, vocab):
    capacity = models.MEMO_WINDOWS
    for w in distinct_windows(vocab, m.order, 2 * capacity, seed=0):
        m.next_logits(w)
        assert len(m._memo) <= capacity
    assert len(m._memo) == capacity


# At order 3, V=64 has too many windows to keep whole (266,305, 243 MB at
# 912 B a row) and keeps the last MEMO_WINDOWS; V=16 keeps all its 4,369.
WINDOW_ORDER = 3
WINDOW_DOCS = [[1, 5, 7, 9, 5, 7], [5, 7, 9, 2, 6, 7, 9, 1], [3, 5, 6]]


def window_backend(kind, vocab=64):
    if kind == "table":
        return TableModel(vocab, seed=6, order=WINDOW_ORDER)
    return NgramModel(WINDOW_DOCS, vocab, order=WINDOW_ORDER, smoothing=0.5)


def window_contexts(kind):
    """(window, its contexts): windows shorter than the order (empty only
    for the n-gram: a session never asks a table about an empty context),
    equal to it, and windows that differ only in their oldest token; a
    full window also under two longer contexts."""
    windows = [(5,), (5, 7), (5, 7, 9), (6, 7, 9)]
    if kind == "ngram":
        windows.insert(0, ())
    for window in windows:
        contexts = [window]
        if len(window) == WINDOW_ORDER:
            contexts += [(3,) + window, (1, 2, 8) + window]
        yield window, contexts


class TestWindowKey:
    """A context's memo key is its window: the trailing ``order`` tokens, or
    the whole context when it is shorter, as plain ints whatever the
    sequence type, on a whole space and a bounded one alike."""

    @pytest.mark.parametrize("vocab, capacity", [(16, 4369), (64, models.MEMO_WINDOWS)])
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_every_context_form_hits_its_window_entry(self, kind, vocab, capacity):
        m = window_backend(kind, vocab)
        fresh = window_backend(kind, vocab)
        assert m.capacity == capacity
        typecode = token_typecode(m.vocab_size)
        for n, (window, contexts) in enumerate(window_contexts(kind), 1):
            first = m.next_logits(list(window))
            assert not first.flags.writeable
            assert first.tobytes() == fresh.window_logits(window).tobytes()
            for ctx in contexts:
                for form in (list(ctx), tuple(ctx), array(typecode, ctx)):
                    assert m.window_key(form) == window
                    assert m.next_logits(form) is first, (window, form)
            assert len(m._memo) == n and list(m._memo)[-1] == window
            assert all(type(t) is int for t in list(m._memo)[-1])
        # Windows that differ only in their oldest token are separate entries
        # with separate logits.
        assert not np.array_equal(m.next_logits([5, 7, 9]), m.next_logits([6, 7, 9]))


def max_whole_order(vocab):
    """The largest order whose window space a memo keeps whole at ``vocab``."""
    order = 0
    row = 8 * vocab + models.ROW_OVERHEAD
    while sum(vocab**n for n in range(order + 2)) * row <= models.TABLE_BYTES:
        order += 1
    return order


class TestMemoSize:
    """A memo keeps its whole window space when every window fits in
    ``TABLE_BYTES`` at ``8 * V + ROW_OVERHEAD`` bytes a row, and the last
    ``MEMO_WINDOWS`` windows otherwise."""

    @pytest.mark.parametrize("vocab", [8, 64, 401, 4096])
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_every_vocabulary_keeps_memo_windows_rows(self, kind, vocab):
        # Order 6 gives V=8 more windows (8**6) than the memo holds, and too
        # many to keep whole.
        if kind == "table":
            m = TableModel(vocab, seed=1, order=6)
        else:
            m = NgramModel([[0, 1, 2, 3, 4, 5, 6, 7, 1, 3]], vocab, order=6)
        assert m.capacity == models.MEMO_WINDOWS == 64
        for w in distinct_windows(vocab, 6, models.MEMO_WINDOWS + 50, seed=2):
            m.next_logits(w)
        assert len(m._memo) == len(m._memo._order) == models.MEMO_WINDOWS
        assert all(a.shape == (vocab,) for a in m._memo.values())

    @pytest.mark.parametrize(
        "vocab, order, whole",
        [(64, 2, True), (66, 2, True), (67, 2, False), (80, 2, False), (698, 1, True),
         (699, 1, False), (2, 12, True), (2, 13, False), (2, 17, False)],
    )
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_the_whole_space_fits_in_its_budget(self, kind, vocab, order, whole):
        # V=66 at order 2 keeps 4,423 windows in 4,104,544 bytes of 4 MiB,
        # V=67 would need 4,265,352. Every space kept bounded here would fit
        # at 8 * V bytes a row: only ROW_OVERHEAD leaves it out.
        if kind == "table":
            m = TableModel(vocab, seed=4, order=order)
        else:
            m = NgramModel([[0, 1, 0]], vocab, order=order)
        n_windows = sum(vocab**n for n in range(order + 1))
        assert n_windows * 8 * vocab <= models.TABLE_BYTES
        assert m.capacity == (n_windows if whole else models.MEMO_WINDOWS)
        assert (n_windows * (8 * vocab + models.ROW_OVERHEAD) <= models.TABLE_BYTES) == whole
        assert order == max_whole_order(vocab) or not whole

    def test_the_benchmarks_space_is_kept_whole(self):
        # V=64 at order 2, the table target and draft of reflect-long and
        # table-short: 4,161 windows in 3.80 MB.
        assert TableModel(64, order=2).capacity == 4161
        assert 4161 * (8 * 64 + models.ROW_OVERHEAD) == 3_794_832 <= models.TABLE_BYTES

    def test_a_space_of_tiny_rows_keeps_memo_windows_and_builds_empty(self):
        # V=2 at order 17: 262,143 windows fill 4 MiB at 16 bytes a row, but
        # would hold ~109 MB as kept rows.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = TableModel(2, seed=1, order=17)
            built = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert m.capacity == models.MEMO_WINDOWS and m._memo == {}
        assert built < 4096
        for w in distinct_windows(2, 17, 3 * models.MEMO_WINDOWS, seed=5):
            m.next_logits(w)
        assert len(m._memo) == models.MEMO_WINDOWS

    def test_a_huge_order_builds_at_once(self):
        # Counting every window of a huge order would sum ever larger powers
        # of V; the count stops once the space overflows its budget.
        code = (
            "import time\n"
            "from reflectspec.models import TableModel\n"
            "start = time.perf_counter()\n"
            "m = TableModel(64, order=10**6)\n"
            "print(time.perf_counter() - start, m.capacity)\n"
        )
        seconds, capacity = run_python(code, timeout=20).split()
        assert float(seconds) < 1.0 and int(capacity) == models.MEMO_WINDOWS


class TestMemoBytes:
    """``ROW_OVERHEAD`` is a measurement: filling every logits and q row of
    the benchmark's V=64, order-2 pair grows each memo, as ``tracemalloc``
    traces it, by at most ``capacity * (8 * V + ROW_OVERHEAD)`` bytes, and
    that stays under ``TABLE_BYTES``."""

    def test_every_row_of_the_benchmarks_pair_fits_its_bound(self):
        vocab = 64
        base, noise = TableModel(vocab, seed=1), TableModel(vocab, seed=2)
        draft = BlendModel(base, noise, 0.3)
        windows = [list(w) for w in all_windows(vocab, 2)]
        base.next_logits([0])  # numpy.random's import is no row's cost
        draft.next_distribution([0], 0.8)
        bound = base.capacity * (8 * vocab + models.ROW_OVERHEAD)
        tracemalloc.start()
        try:
            grown = []
            for fill in (base.next_logits, lambda w: draft.next_distribution(w, 0.8)):
                before = tracemalloc.get_traced_memory()[0]
                for w in windows:
                    fill(w)
                grown.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert base.capacity == draft.capacity == len(windows) == 4161
        assert len(base._memo) == len(draft._q_memo) == len(windows) and noise._memo == {}
        for growth in grown:
            assert 8 * vocab * len(windows) < growth <= bound < models.TABLE_BYTES


class TestMemoEvictionOrder:
    """The memo evicts in insertion order: a hit does not refresh a window,
    and a window evicted and read again counts as new."""

    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_oldest_inserted_window_goes_first(self, kind, monkeypatch):
        monkeypatch.setattr(models, "MEMO_WINDOWS", 3)
        if kind == "table":
            m = TableModel(401, seed=1, order=2)
        else:
            m = NgramModel([[0, 1, 2, 3, 4, 5]], 401, order=2)
        assert m.capacity == 3
        a, b, c, d, e = (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)
        for window in (a, b, c, a, d):
            m.next_logits(list(window))
        assert list(m._memo) == [b, c, d]
        for window in (b, a, e):
            m.next_logits(list(window))
        assert list(m._memo) == [d, a, e]
        assert list(m._memo._order) == [d, a, e]


class TestTableMemo:
    def test_matches_fresh_instance_in_shuffled_order_and_after_eviction(self):
        for vocab, order in ((64, 3), (1024, 2)):
            m = TableModel(vocab, seed=4, order=order)

            def fresh(w):
                return TableModel(vocab, seed=4, order=order).next_logits(w)

            assert_memo_matches_fresh(m, fresh, vocab, seed=3)

    def test_never_exceeds_bound(self):
        for vocab in (64, 4096):
            assert_memo_stays_bounded(TableModel(vocab, seed=1, order=3), vocab)

    @pytest.mark.parametrize("vocab", [8, 401])  # a whole space, a bounded one
    def test_returned_logits_are_read_only(self, vocab):
        m = TableModel(vocab, seed=2)
        logits = m.next_logits([1, 2])
        with pytest.raises(ValueError):
            logits[0] = 0.0
        with pytest.raises(ValueError):
            m.next_logits([1, 2])[:] += 1.0

    def test_numpy_tokens_share_the_plain_int_entry(self):
        m = TableModel(401, seed=2)
        plain = m.next_logits([3, 1, 2])
        assert m.next_logits([np.int64(1), np.int64(2)]) is plain
        assert len(m._memo) == 1


def all_windows(vocab, order):
    """Every window of length 0 to ``order``, shortest first."""
    return [w for n in range(order + 1) for w in itertools.product(range(vocab), repeat=n)]


def run_python(code, timeout):
    """Run ``code`` in a fresh interpreter that imports this ``reflectspec``;
    returns its stdout, or fails the test on an error or at ``timeout``."""
    src = str(Path(models.__file__).resolve().parents[1])
    try:
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"no result within {timeout} s")
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLogitsTable:
    """A ``WindowModel`` whose window space fits in ``TABLE_BYTES`` keeps
    every window's logits, computed on the window's first lookup; the
    logits stay those of ``Generator(PCG64(window_seed))``, byte for byte."""

    @pytest.mark.parametrize("seed", [-(2**63), -1, 0, 2**63 - 1])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("vocab", [2, 3, 16, 64])
    def test_every_window_matches_reference_on_first_and_repeated_lookup(self, vocab, order, seed):
        m = TableModel(vocab, seed=seed, order=order)
        windows = all_windows(vocab, order)
        expected = [ref_table_logits(seed, w, vocab).tobytes() for w in windows]
        assert m.capacity == len(windows) and m._memo == {}
        for _ in range(2):
            assert [m.next_logits(list(w)).tobytes() for w in windows] == expected
            assert list(m._memo) == windows
        # A token outside the vocabulary has no row.
        for w in [(vocab,), (0, vocab + 5), (-1,), (-1, 0)]:
            if len(w) <= order:
                with pytest.raises(InvalidTokenError, match="outside vocabulary"):
                    m.next_logits(list(w))
        assert list(m._memo) == windows

    def test_a_lookup_keeps_only_its_windows_row(self):
        m = TableModel(64, seed=4, order=2)
        assert m.capacity == 4161 and m._memo == {}
        m.next_logits([9, 5, 7])
        assert list(m._memo) == [(5, 7)]
        assert m._memo[(5, 7)].tobytes() == ref_table_logits(4, (5, 7), 64).tobytes()

    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_rows_are_read_only(self, kind):
        m = build_backend(kind)
        row = m.next_logits([1, 2])
        assert not row.flags.writeable and m._memo[(1, 2)] is row
        with pytest.raises(ValueError):
            row[0] = 0.0
        with pytest.raises(ValueError):
            m.next_logits([3, 1, 2])[:] += 1.0

    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_a_kept_row_is_read_not_recomputed(self, kind, monkeypatch):
        m = build_backend(kind)
        poked = m.next_logits([1, 2]) + 1.0
        m._memo[(1, 2)] = poked
        monkeypatch.setattr(m, "window_logits", lambda window: pytest.fail("recomputed"))
        assert m.next_logits([1, 2]) is poked
        assert m.next_logits([7, 1, 2]) is poked

    @pytest.mark.parametrize("vocab, order", [(401, 2), (64, 3)])
    def test_large_window_spaces_keep_memo_windows(self, vocab, order):
        m = TableModel(vocab, seed=4, order=order)
        assert m.capacity == models.MEMO_WINDOWS
        for w in distinct_windows(vocab, order, 20, seed=2):
            assert m.next_logits(w).tobytes() == ref_table_logits(4, w[-order:], vocab).tobytes()
        assert len(m._memo) == 20


def fresh_q(build, context, temperature):
    """The draft row of ``context`` as a freshly built model computes it."""
    return sampling_distribution(build().next_logits(list(context)), temperature)


def window_blend(vocab, order, seed=4):
    return BlendModel(
        TableModel(vocab, seed=seed, order=order), TableModel(vocab, seed=seed + 1, order=order), 0.3
    )


class TestDistributionTable:
    """A model with a window key keeps one memo of ``next_distribution``
    rows for the last temperature asked, each computed by the same
    ``sampling_distribution(next_logits(context), temperature)`` call a
    model without one makes, and as many as its logits memo keeps."""

    @pytest.mark.parametrize("temperature", [0.0, 0.8, 1.3])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("vocab", [2, 3, 16, 64])
    @pytest.mark.parametrize("kind", ["table", "blend"])
    def test_every_window_matches_a_fresh_model_on_first_and_repeated_lookup(
        self, kind, vocab, order, temperature, monkeypatch
    ):
        def build():
            if kind == "table":
                return TableModel(vocab, seed=4, order=order)
            return window_blend(vocab, order)

        m, reference = build(), build()
        windows = all_windows(vocab, order)
        want = [fresh_q(lambda: reference, w, temperature).tobytes() for w in windows]
        assert [m.next_distribution(list(w), temperature).tobytes() for w in windows] == want
        assert list(m._q_memo) == windows and m._q_memo.temperature == temperature
        # A kept row is read: no logits are computed on a repeated lookup.
        monkeypatch.setattr(m, "next_logits", lambda context: pytest.fail("recomputed"))
        assert [m.next_distribution(list(w), temperature).tobytes() for w in windows] == want

    def test_a_new_temperature_replaces_the_memo_and_back(self):
        m = window_blend(16, 2)
        contexts = [[1, 2], [3], [15, 0, 7], [2, 2]]
        first = m.next_distribution(contexts[0], 0.8)
        memo = m._q_memo
        for temperature in (0.8, 1.3, 0.0, 0.8):
            for ctx in contexts:
                got = m.next_distribution(ctx, temperature)
                want = fresh_q(lambda: window_blend(16, 2), ctx, temperature)
                assert got.tobytes() == want.tobytes()
            assert m._q_memo.temperature == temperature and len(m._q_memo) == len(contexts)
        assert m._q_memo is not memo  # the 0.8 memo was replaced, then rebuilt
        assert m.next_distribution(contexts[0], 0.8).tobytes() == first.tobytes()

    @pytest.mark.parametrize("temperature", [float("nan"), -1.0])
    @pytest.mark.parametrize("kind", ["table", "blend"])
    def test_a_refused_temperature_keeps_the_memo(self, kind, temperature, monkeypatch):
        m = TableModel(16, seed=1) if kind == "table" else window_blend(16, 2)
        first = m.next_distribution([1, 2], 0.8)
        memo = m._q_memo
        with pytest.raises(InvalidConfigError, match="^temperature must be >= 0"):
            m.next_distribution([1, 2], temperature)
        assert m._q_memo is memo and memo.temperature == 0.8
        # The 0.8 row is read, not recomputed.
        monkeypatch.setattr(m, "next_logits", lambda context: pytest.fail("recomputed"))
        assert m.next_distribution([1, 2], 0.8) is first

    @pytest.mark.parametrize("kind", ["table", "blend"])
    def test_rows_are_read_only(self, kind):
        m = TableModel(16, seed=4) if kind == "table" else window_blend(16, 2)
        row = m.next_distribution([1, 2], 0.8)
        assert not row.flags.writeable and m._q_memo[(1, 2)] is row
        with pytest.raises(ValueError):
            row[0] = 0.0

    @pytest.mark.parametrize(
        "build, context",
        [
            (lambda: TableModel(401, seed=4), [1, 400]),
            (lambda: TableModel(64, seed=4, order=3), [1, 2, 3]),
            (lambda: window_blend(64, 3), [1, 2, 3]),
            (lambda: TableModel(64, seed=4, order=10**6), [1, 2, 3]),
        ],
    )
    def test_a_bounded_space_keeps_memo_windows_q_rows(self, build, context):
        m = build()
        assert m.capacity == models.MEMO_WINDOWS
        for _ in range(2):
            got = m.next_distribution(context, 0.8)
            assert got.tobytes() == fresh_q(build, context, 0.8).tobytes()
        assert list(m._q_memo) == [m.window_key(context)]
        for w in distinct_windows(64, 3, models.MEMO_WINDOWS + 10, seed=1):
            m.next_distribution(w, 0.8)
        assert len(m._q_memo) == models.MEMO_WINDOWS

    @pytest.mark.parametrize(
        "build, context",
        [
            (lambda: BlendModel(build_backend("reflective"), TableModel(16, seed=6), 0.4), [1, 2]),
            (lambda: build_backend("reflective"), [1, 15, 1]),
        ],
    )
    def test_a_model_without_a_window_key_keeps_no_row(self, build, context):
        m = build()
        assert m.window_key is None
        for _ in range(2):
            got = m.next_distribution(context, 0.8)
            assert got.tobytes() == fresh_q(build, context, 0.8).tobytes()
        assert m._q_memo is None

    @pytest.mark.parametrize(
        "build, context, token",
        [
            (lambda: TableModel(16, seed=4), [1, 16], 16),
            (lambda: build_backend("ngram"), [2, -1], -1),
            (lambda: BlendModel(TableModel(16, seed=6), build_backend("ngram"), 0.4), [1, 16], 16),
        ],
    )
    def test_an_out_of_vocabulary_window_is_refused_and_keeps_nothing(self, build, context, token):
        m = build()
        message = f"^token {token} outside vocabulary of size 16$"
        with pytest.raises(InvalidTokenError, match=message):
            m.window_key(context)
        for _ in range(2):
            with pytest.raises(InvalidTokenError, match=message):
                m.next_distribution(context, 0.8)
        assert m._q_memo is None

    @pytest.mark.parametrize("larger", [0, 1])
    def test_a_blend_of_two_orders_takes_the_larger_order_parts_key(self, larger):
        parts = [TableModel(16, seed=4, order=1), TableModel(16, seed=5, order=1)]
        parts[larger] = TableModel(16, seed=5, order=2)
        b = BlendModel(*parts, 0.3)
        assert b.window_key == parts[larger].window_key
        assert b.capacity == parts[larger].capacity == 1 + 16 + 16**2
        rng = make_rng(3)
        for _ in range(50):
            ctx = random_context(rng, 16)
            assert b.window_key(ctx) == tuple(ctx[-2:])
            want = sampling_distribution(b.next_logits(ctx), 0.8)
            assert b.next_distribution(ctx, 0.8).tobytes() == want.tobytes()
        # Contexts that differ only before the larger window share its row.
        assert b.next_distribution([7, 1, 2], 0.8) is b.next_distribution([1, 2], 0.8)


def blend_parts(orders, forced):
    """A primary and a secondary table model of the given orders at V=16,
    with bounded memos when ``forced`` (no space fits in ``TABLE_BYTES``
    = 0)."""
    with pytest.MonkeyPatch.context() as mp:
        if forced:
            mp.setattr(models, "TABLE_BYTES", 0)
        return [TableModel(16, seed=20 + i, order=order) for i, order in enumerate(orders)]


class TestBlendSecondaryFormula:
    """A blend reads its primary through ``next_logits`` and its secondary
    through ``window_logits`` of the secondary's window, checked first by
    ``token_ids``: the bytes are a fresh secondary's, and the secondary
    keeps nothing."""

    @pytest.mark.parametrize("orders", [(1, 1), (2, 2), (2, 1), (1, 2), (1, 3)])
    @pytest.mark.parametrize("forced", [False, True])
    def test_the_blend_is_bit_identical_to_its_formula(self, orders, forced):
        primary, secondary = blend_parts(orders, forced)
        blend = BlendModel(primary, secondary, 0.3)
        fresh = blend_parts(orders, forced)[1]
        rng = make_rng(sum(orders) + forced)
        contexts = [[7], [0, 15], [15, 0, 3]] + [random_context(rng, 16) for _ in range(150)]
        for _ in range(2):
            for ctx in contexts:
                want = 0.7 * primary.next_logits(ctx) + 0.3 * fresh.next_logits(ctx)
                assert blend.next_logits(ctx).tobytes() == want.tobytes(), ctx
                q = sampling_distribution(want, 0.8)
                assert blend.next_distribution(ctx, 0.8).tobytes() == q.tobytes(), ctx
        assert secondary._memo == {}

    @pytest.mark.parametrize(
        "ctx, message",
        [
            ([1, 16], "token 16 outside vocabulary of size 16"),
            ([-1, 1, 2], "token -1 outside vocabulary of size 16"),
            ([1, 1.5], "token 1.5 is not an integer"),
            ([1.5, 2, 3], "token 1.5 is not an integer"),
        ],
    )
    @pytest.mark.parametrize("orders", [(2, 2), (1, 3), (3, 1)])
    def test_a_bad_token_in_either_window_is_refused_on_both_routes(self, orders, ctx, message):
        for forced in (False, True):
            blend = BlendModel(*blend_parts(orders, forced), 0.3)
            if len(ctx) > max(orders):
                # The token lies outside both windows and is never read.
                blend.next_logits(ctx)
                continue
            for call in (blend.next_logits, lambda c: blend.next_distribution(c, 0.8)):
                with pytest.raises(InvalidTokenError, match=f"^{re.escape(message)}$"):
                    call(ctx)
            assert blend.secondary._memo == {}

    @pytest.mark.parametrize("secondary", ["reflective", "blend"])
    def test_a_secondary_that_is_not_a_window_model_is_refused(self, secondary):
        with pytest.raises(InvalidConfigError, match="secondary must be a WindowModel"):
            BlendModel(TableModel(16, seed=1), build_backend(secondary), 0.4)


def lookup_corpus(vocab):
    return [[(3 * i + 1) % vocab for i in range(40)], [i % vocab for i in range(25)]]


@st.composite
def lookup_cases(draw):
    """A vocabulary and an order whose window space is kept whole, distinct
    windows (empty only for the n-gram) and a lookup order over them that
    first meets each window in turn and repeats some."""
    kind = draw(st.sampled_from(["table", "ngram", "blend"]))
    vocab = draw(st.integers(min_value=2, max_value=64))
    order = draw(st.integers(min_value=1, max_value=min(3, max_whole_order(vocab))))
    shortest = 0 if kind == "ngram" else 1
    window = st.lists(
        st.integers(min_value=0, max_value=vocab - 1), min_size=shortest, max_size=order
    ).map(tuple)
    windows = draw(st.lists(window, min_size=1, max_size=12, unique=True))
    lookups = []
    for n in range(1, len(windows) + 1):
        lookups.append(n - 1)
        lookups += draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
    return kind, vocab, order, windows, lookups


class TestMemoRows:
    """A memo keeps each window's row from its first lookup, computed once
    and in first-lookup order, and serves the same array after."""

    @settings(max_examples=60, deadline=None)
    @given(lookup_cases(), st.sampled_from([0.0, 0.8]))
    def test_rows_are_kept_in_first_lookup_order(self, case, temperature):
        kind, vocab, order, windows, lookups = case

        def build():
            if kind == "table":
                return TableModel(vocab, seed=4, order=order)
            if kind == "ngram":
                return NgramModel(lookup_corpus(vocab), vocab, order=order, smoothing=0.5)
            return window_blend(vocab, order)

        m, fresh = build(), build()
        if kind == "blend":  # the q memo: count softmaxes
            target, counted = models, "sampling_distribution"

            def lookup(w):
                return m.next_distribution(list(w), temperature)

            def expected(w):
                return fresh_q(lambda: fresh, w, temperature)

        else:  # the logits memo: count window formulas
            target, counted = m, "window_logits"
            lookup = m.next_logits
            if kind == "table":
                def expected(w):
                    return ref_table_logits(4, w, vocab)
            else:
                expected = fresh.window_logits

        computed = []
        with pytest.MonkeyPatch.context() as mp:
            inner = getattr(target, counted)
            mp.setattr(target, counted, lambda *a: computed.append(a) or inner(*a))
            first = {}
            for i in lookups:
                got = lookup(list(windows[i]))
                if i in first:  # a repeat reads the row its first lookup kept
                    assert got is first[i]
                else:
                    first[i] = got
                assert len(computed) == len(first)
        memo = m._q_memo if kind == "blend" else m._memo
        assert list(memo) == windows == list(memo._order)
        assert [memo[w].tobytes() for w in windows] == [expected(w).tobytes() for w in windows]
        if kind == "blend":
            # A new temperature starts a new memo, in its own lookup order.
            for w in windows[::-1]:
                m.next_distribution(list(w), 1.3)
            assert m._q_memo.temperature == 1.3 and list(m._q_memo) == windows[::-1]
            want = [fresh_q(lambda: fresh, w, 1.3).tobytes() for w in windows[::-1]]
            assert [m._q_memo[w].tobytes() for w in windows[::-1]] == want

    def test_resident_growth_follows_the_kept_rows(self):
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("no /proc/self/statm to read the resident set from")
        # 512 of the 4,161 windows at V=64: about 370 KB of kept rows, where
        # the whole space would take 3 MB.
        code = (
            "import os\n"
            "from reflectspec.models import TableModel\n"
            "def resident():\n"
            "    with open('/proc/self/statm') as f:\n"
            "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "m = TableModel(64, order=2)\n"
            "m.next_logits([0])\n"
            "before = resident()\n"
            "for a in range(64):\n"
            "    for k in range(8):\n"
            "        m.next_logits([a, 8 * k + 7])\n"
            "print(resident() - before)\n"
        )
        assert int(run_python(code, timeout=60)) <= 1024 * 1024


# Every integer typecode of ``array``; V=64 and the tokens outside it fit in
# the narrowest.
ARRAY_TYPECODES = "bBhHiIlLqQ"


def both_paths(kind, vocab=64, order=2):
    """The same backend built once keeping its whole window space and once
    with a bounded memo (no space fits in ``TABLE_BYTES`` = 0)."""

    def build():
        if kind == "table":
            return TableModel(vocab, seed=8, order=order)
        rng = make_rng(8)
        docs = [random_context(rng, vocab, 60) for _ in range(40)]
        return NgramModel(docs, vocab, order=order, smoothing=0.5)

    whole = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "TABLE_BYTES", 0)
        bounded = build()
    assert whole.capacity > models.MEMO_WINDOWS == bounded.capacity
    return whole, bounded


class TestTableMemoDifferential:
    """A whole space and a bounded memo serve the same bytes for every
    context form."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_every_context_form_gets_the_same_bytes(self, kind, order):
        whole, bounded = both_paths(kind, order=order)
        rng = make_rng(order)
        contexts = [[], [63], [0, 63], [64], [70, 1], [1, 64], [63, 127], [-1], [2, -3]]
        contexts += [random_context(rng, 64) for _ in range(200)]
        if kind == "table":
            contexts.remove([])  # a session never asks a table about it
        for _ in range(2):
            for ctx in contexts:
                forms = [ctx, [np.int64(t) for t in ctx]]
                if min(ctx, default=0) >= 0:
                    forms += [array(code, ctx) for code in ARRAY_TYPECODES]
                if all(0 <= t < 64 for t in ctx[-order:]):
                    want = bounded.next_logits(ctx).tobytes()
                    for form in forms:
                        assert whole.next_logits(form).tobytes() == want, (ctx, form)
                    continue
                # A window outside the vocabulary is refused on both routes.
                for model, form in itertools.product((whole, bounded), forms):
                    with pytest.raises(InvalidTokenError, match="outside vocabulary of size 64$"):
                        model.next_logits(form)
        assert len(whole._memo) >= len(bounded._memo) > 0


class TestOutOfVocabularyWindows:
    """A window that holds a token outside the vocabulary, or one that is not
    an integer, is refused with an ``InvalidTokenError`` naming the token,
    on a whole space and a bounded memo alike, and nothing is kept for it.
    A token older than the window is never read."""

    @pytest.mark.parametrize("token", [-1, -(2**70), 64, 2**64, 2**70])
    @pytest.mark.parametrize("order, forced", [(2, False), (2, True), (3, False)])
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_the_window_is_refused_naming_the_token(self, kind, order, forced, token):
        def build():
            if kind == "table":
                return TableModel(64, seed=1, order=order)
            return NgramModel(WINDOW_DOCS, 64, order=order, smoothing=0.5)

        with pytest.MonkeyPatch.context() as mp:
            if forced:
                mp.setattr(models, "TABLE_BYTES", 0)
            m = build()
        assert (m.capacity > models.MEMO_WINDOWS) == (order == 2 and not forced)
        message = f"^token {token} outside vocabulary of size 64$"
        for window in ([token], [token, 1], [1, token], [5, token, 1][-order:]):
            forms = [window, tuple(window)]
            if -(2**63) <= token < 2**63:
                forms.append([np.int64(t) for t in window])
            for form in forms:
                with pytest.raises(InvalidTokenError, match=message):
                    m.next_logits(form)
        assert m._memo == {}
        inside = [5, 1, 7][:order]
        want = build().next_logits(inside).tobytes()
        assert m.next_logits([token] + inside).tobytes() == want

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("window", [[1, 1.5], [1.5, 1], [np.float64(2.0)], ["a", 1]])
    def test_a_non_integer_token_is_refused_naming_it_on_both_routes(self, window, forced):
        with pytest.MonkeyPatch.context() as mp:
            if forced:
                mp.setattr(models, "TABLE_BYTES", 0)
            m = TableModel(16, seed=1)
        assert (m.capacity == models.MEMO_WINDOWS) == forced
        bad = next(t for t in window if not isinstance(t, int))
        message = f"^token {re.escape(repr(bad))} is not an integer$"
        for call in (m.next_logits, lambda c: m.next_distribution(c, 0.8)):
            with pytest.raises(InvalidTokenError, match=message):
                call(window)
        assert m._memo == {} and m._q_memo is None

    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0)], ids=["float", "float64"])
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_a_float_is_refused_when_the_memo_holds_its_value(self, kind, bad):
        # 1.0 == 1 and hashes alike, so it would hit window (1, 2)'s entry.
        if kind == "table":
            m = TableModel(401, seed=1)
        else:
            m = NgramModel(WINDOW_DOCS, 401, order=2)
        assert m.capacity == models.MEMO_WINDOWS
        held = m.next_logits([1, 2])
        message = f"^token {re.escape(repr(bad))} is not an integer$"
        for call in (m.next_logits, lambda c: m.next_distribution(c, 0.8)):
            with pytest.raises(InvalidTokenError, match=message):
                call([bad, 2])
        assert list(m._memo) == [(1, 2)] and m.next_logits([1, 2]) is held


NUMPY_INTEGERS = [np.uint8, np.int8, np.uint16, np.int64, np.uint64]


class TestNumpyIntegerWindows:
    """A window of numpy integer tokens reads as its values: it keys the
    plain-int window's row, whatever the width of the integer type."""

    @pytest.mark.parametrize("dtype", NUMPY_INTEGERS)
    def test_a_numpy_window_keeps_and_reads_its_own_row(self, dtype):
        m, fresh = TableModel(64, seed=3), TableModel(64, seed=3)
        window = [dtype(5), dtype(7)]
        assert m.next_logits(window).tobytes() == fresh.next_logits([5, 7]).tobytes()
        want = fresh.next_distribution([5, 7], 0.8).tobytes()
        assert m.next_distribution(window, 0.8).tobytes() == want
        for memo in (m._memo, m._q_memo):
            assert list(memo) == [(5, 7)] and all(type(t) is int for t in next(iter(memo)))
        assert m.next_logits([1, 7]).tobytes() == ref_table_logits(3, (1, 7), 64).tobytes()

    @pytest.mark.parametrize("form", [int] + NUMPY_INTEGERS)
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_window_key_is_the_plain_int_window(self, kind, form):
        if kind == "table":
            m = TableModel(5, seed=1, order=2)
        else:
            m = NgramModel([[0, 1, 2, 3, 4, 1]], 5, order=2)
        for w in all_windows(5, 2):
            key = m.window_key([form(t) for t in w])
            assert key == w and all(type(t) is int for t in key)


# The span of trailing tokens each model reads: its window, a blend's larger
# part's window, or the whole context for the copy search (None).
CONTEXT_FORM_SPANS = {"table": 2, "ngram": 2, "blend": 2, "blend-order3": 3, "reflective": None}
NUMPY_DTYPES = [np.uint8, np.int8, np.uint16, np.int16, np.int32, np.uint32, np.int64, np.uint64]


@functools.cache
def context_form_model(kind, vocab):
    """One shared model per case: at V=64 the order-2 windows are tabled,
    at V=401 they take the memo route."""
    if kind == "blend-order3":
        return BlendModel(TableModel(vocab, seed=5), TableModel(vocab, seed=6, order=3), 0.4)
    return build_backend(kind, vocab)


def context_forms(model, ctx):
    """``ctx`` as a list, a tuple, a numpy array of each dtype and a caller's
    ``array`` of each typecode that holds its tokens, and as a session's
    buffer when every token is in the vocabulary."""
    forms = [list(ctx), tuple(ctx)]
    for dtype in NUMPY_DTYPES:
        info = np.iinfo(dtype)
        if all(info.min <= t <= info.max for t in ctx):
            forms.append(np.array(ctx, dtype=dtype))
    for code in ARRAY_TYPECODES:
        try:
            forms.append(array(code, ctx))
        except OverflowError:
            pass
    if all(0 <= t < model.vocab_size for t in ctx):
        session = ModelSession(model)
        session.forward(ctx)
        forms.append(session._tokens)
    return forms


def marker_dense_context(vocab):
    """Tokens of the vocabulary, often the marker (V - 1) and a few repeats,
    so the copy search finds matches."""
    pool = st.integers(0, vocab - 1) | st.sampled_from([1, 2, vocab - 1])
    return st.lists(pool, min_size=1, max_size=10)


class TestContextForms:
    """Every model reads every form of a context alike: the same logits and
    q bytes for a list, a tuple, numpy arrays, a caller's ``array`` and a
    session's buffer, and the same ``InvalidTokenError`` for a token outside
    the vocabulary in the span the model reads. Only a session's buffer is
    read unchecked; a caller's ``array`` of the buffer's typecode is not."""

    @pytest.mark.parametrize("vocab", [64, 401])
    @pytest.mark.parametrize("kind", sorted(CONTEXT_FORM_SPANS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_form_gets_the_same_bytes(self, kind, vocab, data):
        model = context_form_model(kind, vocab)
        ctx = data.draw(marker_dense_context(vocab))
        want = model.next_logits(ctx).tobytes()
        want_q = model.next_distribution(ctx, 0.8).tobytes()
        for form in context_forms(model, ctx):
            assert model.next_logits(form).tobytes() == want, form
            assert model.next_distribution(form, 0.8).tobytes() == want_q, form

    @pytest.mark.parametrize("vocab", [64, 401])
    @pytest.mark.parametrize("kind", sorted(CONTEXT_FORM_SPANS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_bad_token_is_refused_alike_where_the_model_reads_it(self, kind, vocab, data):
        model, span = context_form_model(kind, vocab), CONTEXT_FORM_SPANS[kind]
        ctx = data.draw(marker_dense_context(vocab))
        bad = data.draw(st.sampled_from([-1, vocab, vocab + 136, 2**40]))
        at = data.draw(st.integers(0, len(ctx)))
        held = ctx[:at] + [bad] + ctx[at:]
        forms = context_forms(model, held)
        assert len(forms) > 3  # list, tuple and at least one typed form
        if span is None or len(held) - at <= span:
            message = f"^token {bad} outside vocabulary of size {vocab}$"
            for form in forms:
                with pytest.raises(InvalidTokenError, match=message):
                    model.next_logits(form)
                with pytest.raises(InvalidTokenError, match=message):
                    model.next_distribution(form, 0.8)
            return
        # A token older than every window the model reads is never read.
        want = model.next_logits(ctx[at:]).tobytes()
        want_q = model.next_distribution(ctx[at:], 0.8).tobytes()
        for form in forms:
            assert model.next_logits(form).tobytes() == want, form
            assert model.next_distribution(form, 0.8).tobytes() == want_q, form

    @pytest.mark.parametrize("form", [list, tuple, lambda c: array("B", c)], ids=["list", "tuple", "array"])
    def test_an_old_bad_token_is_refused_by_name_in_a_callers_array(self, form):
        # 200 is older than the base's window, so only the copy search reads it.
        model = ReflectionAwareModel(TableModel(64, seed=1), 63, 0.5)
        with pytest.raises(InvalidTokenError, match="^token 200 outside vocabulary of size 64$"):
            model.next_logits(form([1, 2, 200, 5, 63, 1, 2]))

    @pytest.mark.parametrize("vocab", [64, 401])
    @pytest.mark.parametrize("kind", sorted(CONTEXT_FORM_SPANS))
    def test_a_callers_array_of_the_buffer_typecode_is_checked(self, kind, vocab):
        # The bad token is the oldest one the model reads: its window's first
        # on the table, memo and blend routes, the context's first on the copy
        # route.
        model, span = context_form_model(kind, vocab), CONTEXT_FORM_SPANS[kind]
        tail = [1, vocab - 1, 2, 1, vocab - 1, 2]
        ctx = array(token_typecode(vocab), [vocab] + (tail[len(tail) - span + 1 :] if span else tail))
        message = f"^token {vocab} outside vocabulary of size {vocab}$"
        for call in (model.next_logits, lambda c: model.next_distribution(c, 0.8)):
            with pytest.raises(InvalidTokenError, match=message):
                call(ctx)


def test_building_models_leaves_numpy_random_unimported():
    # numpy.random takes ~16 ms to import (numpy 2.4, ``-X importtime``);
    # building models must not pull it into every process's set-up. The
    # first table-model miss imports it.
    code = (
        "import sys\n"
        "import reflectspec\n"
        "from reflectspec.models import BlendModel, ReflectionAwareModel, TableModel\n"
        "base, noise = TableModel(64, seed=1), TableModel(64, seed=2)\n"
        "ReflectionAwareModel(BlendModel(base, noise, 0.5), 63, 0.5)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert run_python(code, timeout=60).split() == ["False"]


class TestNgramModel:
    def test_unseen_context_is_uniform(self):
        m = NgramModel([[0, 1, 0, 1]], vocab_size=8, order=2, smoothing=1.0)
        dist = softmax(m.next_logits([5, 6]), 1.0)
        assert np.allclose(dist, 1.0 / 8, atol=1e-12)

    def test_hand_count_repeated_token(self):
        # Corpus "a a a": after "a", P(a) = (2 + s) / (2 + s * V).
        for smoothing in (1.0, 0.25):
            m = NgramModel([[0, 0, 0]], vocab_size=3, order=1, smoothing=smoothing)
            p = math.exp(m.next_logits([0])[0])
            assert abs(p - (2 + smoothing) / (2 + smoothing * 3)) < 1e-12

    def test_hand_count_alternating(self):
        # Corpus "a b a b", order 2: after "a" the mass concentrates on "b".
        m = NgramModel([[0, 1, 0, 1]], vocab_size=2, order=2, smoothing=1.0)
        dist = softmax(m.next_logits([0]), 1.0)
        assert np.argmax(dist) == 1
        assert abs(dist[1] - 3 / 4) < 1e-12
        # Full two-token context: "a b" was followed by "a" once.
        dist2 = softmax(m.next_logits([0, 1]), 1.0)
        assert abs(dist2[0] - 2 / 3) < 1e-12

    def test_logits_are_exact_log_probabilities(self):
        m = NgramModel([[0, 1, 2, 1, 0]], vocab_size=4, order=2, smoothing=0.5)
        rng = make_rng(4)
        for _ in range(20):
            logits = m.next_logits(random_context(rng, 4))
            assert abs(np.exp(logits).sum() - 1.0) < 1e-9

    def test_invalid_smoothing(self):
        with pytest.raises(InvalidConfigError):
            NgramModel([[0, 1]], vocab_size=4, order=1, smoothing=0.0)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_smoothing_rejected(self, smoothing):
        message = f"^smoothing must be finite and > 0, got {smoothing!r}$"
        with pytest.raises(InvalidConfigError, match=message):
            NgramModel([[0, 1]], vocab_size=4, order=1, smoothing=smoothing)

    def test_empty_corpus(self):
        with pytest.raises(InvalidConfigError):
            NgramModel([], vocab_size=4, order=1, smoothing=1.0)

    def test_a_huge_order_builds_at_once(self):
        # A document holds no n-gram longer than itself, so an order past
        # every document's length counts what the document's own length does.
        code = (
            "import time\n"
            "from reflectspec.models import NgramModel\n"
            "docs = [[0, 1, 2, 3], [1, 2, 3, 0]]\n"
            "start = time.perf_counter()\n"
            "m = NgramModel(docs, 5, order=10**6)\n"
            "seconds = time.perf_counter() - start\n"
            "small = NgramModel(docs, 5, order=3)\n"
            "same = (m._pair_counts, m._ctx_counts) == (small._pair_counts, small._ctx_counts)\n"
            "print(seconds, same)\n"
        )
        seconds, same = run_python(code, timeout=20).split()
        assert float(seconds) < 1.0 and same == "True"


@st.composite
def ngram_cases(draw):
    """(corpus, vocab, order, smoothing, contexts) with edge cases drawn
    explicitly: tokens 0 and V-1, documents shorter than the order, single
    tokens, empty documents, and one-document as well as many-document
    corpora."""
    vocab = draw(st.integers(2, 12))
    order = draw(st.integers(1, 3))
    token = st.one_of(st.just(0), st.just(vocab - 1), st.integers(0, vocab - 1))
    short_doc = st.lists(token, min_size=1, max_size=order)
    doc = st.one_of(short_doc, st.lists(token, max_size=20))
    if draw(st.booleans()):
        corpus = [draw(st.lists(token, min_size=1, max_size=30))]
    else:
        corpus = draw(st.lists(doc, min_size=1, max_size=6).filter(lambda ds: any(ds)))
    smoothing = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 4.0))
    contexts = draw(st.lists(st.lists(token, max_size=order + 2), min_size=1, max_size=8))
    return corpus, vocab, order, smoothing, contexts


class TestNgramDifferential:
    @settings(max_examples=300, deadline=None)
    @given(ngram_cases())
    def test_counts_and_logits_match_reference(self, case):
        corpus, vocab, order, smoothing, contexts = case
        m = NgramModel(corpus, vocab, order=order, smoothing=smoothing)
        pair_counts, ctx_counts = ref_ngram_counts(corpus, order)
        assert m._pair_counts == pair_counts
        assert m._ctx_counts == ctx_counts
        for ctx in contexts + contexts[::-1]:  # the second half hits the memo
            want = ref_ngram_logits(pair_counts, ctx_counts, ctx, vocab, order, smoothing)
            assert np.array_equal(m.next_logits(ctx), want)

    def test_corpus_token_outside_vocabulary(self):
        with pytest.raises(InvalidTokenError, match="corpus token 4 "):
            NgramModel([[0, 1], [2, 4, 5]], 4, order=1)
        with pytest.raises(InvalidTokenError, match="corpus token -1 "):
            NgramModel([[0, -1]], 4, order=1)


class TestNgramCountFreeRow:
    @settings(max_examples=100, deadline=None)
    @given(
        vocab=st.integers(2, 700) | st.just(401),
        order=st.integers(1, 3),
        smoothing=st.floats(0.01, 4.0),
        data=st.data(),
    )
    def test_count_free_windows_share_one_read_only_row(self, vocab, order, smoothing, data):
        # Every count-free window keeps the one shared row, in a whole space
        # and a bounded memo alike.
        token = st.integers(0, vocab - 1)
        corpus = data.draw(st.lists(st.lists(token, min_size=1, max_size=30), min_size=1, max_size=4))
        windows = data.draw(st.lists(st.lists(token, min_size=1, max_size=order), max_size=40))
        whole = NgramModel(corpus, vocab, order=order, smoothing=smoothing)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "TABLE_BYTES", 0)
            m = NgramModel(corpus, vocab, order=order, smoothing=smoothing)
        assert m.capacity == models.MEMO_WINDOWS
        pair_counts, ctx_counts = ref_ngram_counts(corpus, order)
        unheld = (list(w) for w in itertools.product(range(vocab), repeat=order) if w not in pair_counts)
        free = [w for w in windows if tuple(w) not in pair_counts] + list(itertools.islice(unheld, 1))
        if not free:
            return  # the corpus holds every window
        row = m.next_logits(free[0])
        assert not row.flags.writeable
        assert np.array_equal(row, ref_ngram_logits(pair_counts, ctx_counts, free[0], vocab, order, smoothing))
        assert all(m.next_logits(w) is row for w in free + free[::-1])
        for held in pair_counts:
            assert m.next_logits(list(held)) is not row
        shared = whole.next_logits(free[0])
        assert shared.tobytes() == row.tobytes()
        assert all(whole.next_logits(w) is shared for w in free + free[::-1])


def ngram_memo_model(vocab=401, documents=5, order=2):
    rng = make_rng(9)
    docs = [random_context(rng, vocab, 40) for _ in range(documents)]
    return NgramModel(docs, vocab, order=order, smoothing=0.5), docs


class TestNgramMemo:
    def test_matches_fresh_instance_in_shuffled_order_and_after_eviction(self):
        # Every count-free window returns the same shared row, so only
        # windows the corpus holds can show the memo confusing two windows:
        # at least half the queried windows are held ones.
        for vocab, order in ((64, 3), (1024, 2)):
            m, docs = ngram_memo_model(vocab, documents=120, order=order)
            pair_counts, ctx_counts = ref_ngram_counts(docs, order)

            def fresh(w):
                return ref_ngram_logits(pair_counts, ctx_counts, w, vocab, order, 0.5)

            held = [w for w in pair_counts if w]
            windows = assert_memo_matches_fresh(m, fresh, vocab, seed=3, held=held)
            assert 2 * sum(tuple(w) in pair_counts for w in windows) >= len(windows)

    def test_never_exceeds_bound(self):
        for vocab in (64, 4096):
            assert_memo_stays_bounded(NgramModel([[0, 1, 2, 3]], vocab, order=3), vocab)

    @pytest.mark.parametrize("vocab", [8, 401])  # a whole space, a bounded one
    def test_returned_logits_are_read_only(self, vocab):
        m, _ = ngram_memo_model(vocab)
        logits = m.next_logits([1, 2])
        with pytest.raises(ValueError):
            logits[0] = 0.0
        with pytest.raises(ValueError):
            m.next_logits([1, 2])[:] += 1.0

    def test_numpy_tokens_share_the_plain_int_entry(self):
        m, _ = ngram_memo_model()
        plain = m.next_logits([3, 1, 2])
        assert m.next_logits([np.int64(1), np.int64(2)]) is plain
        assert len(m._memo) == 1


class TestDivergencePair:
    def test_eta_zero_identical(self):
        target, draft = make_divergence_pair(ModelSpec("table", 16, seed=2), 0.0)
        rng = make_rng(1)
        for _ in range(30):
            ctx = random_context(rng, 16)
            assert np.array_equal(target.next_logits(ctx), draft.next_logits(ctx))

    def test_eta_one_is_pure_noise(self):
        spec = ModelSpec("table", 16, seed=2)
        target, draft = make_divergence_pair(spec, 1.0)
        # At full noise the draft must be independent of the target: identical
        # to the derived noise backend, which differs from the target.
        from reflectspec.models import divergence_noise_model

        noise = divergence_noise_model(spec)
        rng = make_rng(1)
        contexts = [random_context(rng, 16) for _ in range(30)]
        for ctx in contexts:
            assert np.array_equal(draft.next_logits(ctx), noise.next_logits(ctx))
        assert any(
            not np.array_equal(draft.next_logits(c), target.next_logits(c)) for c in contexts
        )

    def test_eta_validated(self):
        with pytest.raises(InvalidConfigError):
            make_divergence_pair(ModelSpec("table", 16), 1.5)

    @pytest.mark.parametrize("eta", [1.5, -0.25, math.nan])
    def test_pair_models_rejects_eta_outside_unit_interval(self, eta):
        base, noise = TableModel(16, seed=2), TableModel(16, seed=3)
        with pytest.raises(InvalidConfigError, match=rf"^eta must lie in \[0, 1\], got {eta!r}$"):
            pair_models(base, noise, eta, 0.5, 15)

    def test_pair_models_rejects_negative_beta(self):
        base, noise = TableModel(16, seed=2), TableModel(16, seed=3)
        with pytest.raises(InvalidConfigError, match="beta"):
            pair_models(base, noise, 0.0, -0.5, 15)

    @pytest.mark.parametrize("beta", [1.5, math.nan])
    def test_pair_models_rejects_beta_above_one_or_nan(self, beta):
        base, noise = TableModel(16, seed=2), TableModel(16, seed=3)
        with pytest.raises(InvalidConfigError, match=rf"^beta must lie in \[0, 1\], got {beta!r}$"):
            pair_models(base, noise, 0.0, beta, 15)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("marker", [16, -1])
    def test_pair_models_rejects_marker_outside_vocabulary_at_any_beta(self, beta, marker):
        base, noise = TableModel(16, seed=2), TableModel(16, seed=3)
        with pytest.raises(InvalidConfigError, match=f"^marker {marker} outside vocabulary of size 16$"):
            pair_models(base, noise, 0.0, beta, marker)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_pair_models_rejects_a_marker_that_is_not_an_integer(self, beta):
        base, noise = TableModel(16, seed=2), TableModel(16, seed=3)
        with pytest.raises(InvalidConfigError, match=r"^marker must be an integer, got 1\.5$"):
            pair_models(base, noise, 0.0, beta, 1.5)

    def test_a_marker_that_is_not_an_integer_is_rejected_not_truncated(self):
        # int() would store marker 1.
        with pytest.raises(InvalidConfigError, match=r"^marker must be an integer, got 1\.5$"):
            ReflectionAwareModel(TableModel(8), 1.5, 0.5)
        model = ReflectionAwareModel(TableModel(8), np.int64(7), 0.5)
        assert model.marker == 7 and type(model.marker) is int

    def test_pair_models_endpoints(self):
        base, noise = TableModel(16, seed=2), TableModel(16, seed=3)
        target, draft = pair_models(base, noise, 0.0, 0.0, 15)
        assert target is base and draft is base  # no blend, no wrapper
        target, draft = pair_models(base, noise, 1.0, 0.5, 15)
        assert isinstance(target, ReflectionAwareModel)
        assert (target.base, target.marker, target.blend) == (base, 15, 0.5)
        assert np.array_equal(draft.next_logits([1, 2]), noise.next_logits([1, 2]))


class TestReflectionAware:
    @pytest.mark.parametrize("token", [-1, 99, 2.5])
    def test_a_bad_token_older_than_the_base_window_is_refused(self, token):
        # The base reads only the window (1, 2); the copy search reads all.
        model = ReflectionAwareModel(TableModel(16, seed=1), 15, 0.5)
        with pytest.raises(InvalidTokenError, match=f"^token {token} "):
            model.next_logits([token, 1, 2])

    def test_beta_zero_is_base(self):
        base = TableModel(16, seed=5)
        wrapped = ReflectionAwareModel(base, 15, 0.0)
        rng = make_rng(2)
        for _ in range(20):
            ctx = random_context(rng, 16)
            assert np.array_equal(wrapped.next_logits(ctx), base.next_logits(ctx))

    def test_full_blend_reemits_draft(self):
        vocab, marker = 32, 31
        base = TableModel(vocab, seed=7)
        model = ReflectionAwareModel(base, marker, 1.0)
        committed = [3, 4, 5, 6]
        draft = [7, 8, 9]
        prefix = committed[-2:]
        for j in range(len(draft)):
            ctx = committed + draft + [marker] + prefix + draft[:j]
            assert int(np.argmax(model.next_logits(ctx))) == draft[j]

    def test_marker_continuation_not_copied(self):
        # Once the replay has fully mirrored the pre-marker tail, the only
        # match continues with the marker itself; the model falls back to base.
        vocab, marker = 32, 31
        base = TableModel(vocab, seed=7)
        model = ReflectionAwareModel(base, marker, 1.0)
        committed = [3, 4, 5, 6]
        draft = [7, 8, 9]
        ctx = committed + draft + [marker] + committed[-2:] + draft
        assert np.array_equal(model.next_logits(ctx), base.next_logits(ctx))

    def test_no_marker_in_context_is_base(self):
        base = TableModel(16, seed=5)
        model = ReflectionAwareModel(base, 15, 0.7)
        ctx = [1, 2, 3, 4]
        assert np.array_equal(model.next_logits(ctx), base.next_logits(ctx))

    def test_blend_arithmetic(self):
        vocab, marker = 16, 15
        base = TableModel(vocab, seed=5)
        model = ReflectionAwareModel(base, marker, 0.5)
        # The only pre-marker occurrence of the tail [2, 3] continues with the
        # marker itself, so no copy target exists and base logits pass through.
        ctx = [1, 2, 3, marker, 2, 3]
        assert np.array_equal(model.next_logits(ctx), base.next_logits(ctx))
        # Here [2, 3] continues with 9: half base, half an 8.0 spike on 9.
        ctx2 = [2, 3, 9, 1, marker, 2, 3]
        want = 0.5 * base.next_logits(ctx2)
        want[9] += 0.5 * 8.0
        assert np.max(np.abs(model.next_logits(ctx2) - want)) <= 1e-12

    def test_marker_range_validated(self):
        with pytest.raises(InvalidConfigError):
            ReflectionAwareModel(TableModel(16, seed=1), 16, 0.5)


# A four-token vocabulary whose last token is the marker, so random contexts
# are dense in markers and in tail matches.
COPY_MARKER = 3
COPY_MODEL = ReflectionAwareModel(TableModel(COPY_MARKER + 1, seed=1), COPY_MARKER, 0.5)
copy_tokens = st.lists(st.integers(0, COPY_MARKER), max_size=30)
copy_tails = st.lists(st.integers(0, COPY_MARKER - 1), min_size=1, max_size=8)


def assert_copy_target_matches_reference(ctx, model=COPY_MODEL):
    """The copy target of ``ctx`` as a list, a tuple and the typed buffer a
    ``ModelSession`` passes equals the reference scan's; returns it."""
    want = ref_copy_target(ctx, model.marker)
    for c in (list(ctx), tuple(ctx), array(token_typecode(model.vocab_size), ctx)):
        assert model._copy_target(c) == want
    return want


# Above 256 tokens a token takes 2 or 4 bytes, so the bytes of the marker or
# of a tail can also start inside a token: with marker 1, token 256 is
# 00 01 00 00 and 65537 is 01 00 01 00 (little-endian). Only hits at token
# boundaries count.
WIDE_COPY_MARKER = 1
WIDE_COPY_POOLS = {300: [0, 1, 2, 256, 257], 65538: [0, 1, 256, 257, 65537]}
WIDE_COPY_MODELS = {
    vocab: ReflectionAwareModel(TableModel(vocab, seed=1), WIDE_COPY_MARKER, 0.5)
    for vocab in WIDE_COPY_POOLS
}


class TestCopyTargetDifferential:
    @settings(max_examples=400, deadline=None)
    @given(copy_tokens)
    def test_random_contexts(self, ctx):
        assert_copy_target_matches_reference(ctx)

    @settings(max_examples=100, deadline=None)
    @given(copy_tokens)
    def test_marker_as_last_token(self, ctx):
        assert_copy_target_matches_reference(ctx + [COPY_MARKER])
        assert COPY_MODEL._copy_target(ctx + [COPY_MARKER]) is None

    @settings(max_examples=200, deadline=None)
    @given(copy_tokens, copy_tails, st.integers(0, COPY_MARKER), copy_tokens)
    def test_planted_tail_with_any_continuation(self, pre, tail, cont, mid):
        # cont may be the marker itself, which the search must skip.
        assert_copy_target_matches_reference(pre + tail + [cont] + mid + [COPY_MARKER] + tail)
        assert_copy_target_matches_reference(pre + tail + [COPY_MARKER] + tail)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, COPY_MARKER), max_size=3),
        st.lists(st.integers(0, COPY_MARKER - 1), min_size=4, max_size=12),
    )
    def test_tail_longer_than_text_before_marker(self, pre, tail):
        assert_copy_target_matches_reference(pre + [COPY_MARKER] + tail)

    @pytest.mark.parametrize("vocab", sorted(WIDE_COPY_POOLS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_wide_vocabulary_contexts(self, vocab, data):
        pool = st.sampled_from(WIDE_COPY_POOLS[vocab])
        ctx = data.draw(st.lists(pool, max_size=24))
        assert_copy_target_matches_reference(ctx, WIDE_COPY_MODELS[vocab])

    @pytest.mark.parametrize(
        "ctx, want",
        [
            # No marker token, but the bytes of 65537, 0 hold the marker's
            # bytes 2 bytes into 65537.
            ([0, 65537, 0], None),
            # The same bytes again in the tail, after a real marker.
            ([0, 65537, 0, 7, 1, 0, 65537, 0], 7),
            # The tail [0] also matches 3 bytes into the first 0, where the
            # bytes after it read as 256.
            ([0, 0, 1, 1, 0], 0),
            # The tail [256] also matches 3 bytes into the second 256, where
            # the bytes after it read as 65536.
            ([256, 256, 1, 256, 1, 256], 256),
        ],
    )
    def test_unaligned_byte_matches_are_skipped(self, ctx, want):
        assert assert_copy_target_matches_reference(ctx, WIDE_COPY_MODELS[65538]) == want


class TestVocabularyBound:
    """numpy holds no float64 row longer than ``LONGEST_ROW``; at the first
    window's logits it raised a bare ``ValueError`` that named no setting.
    Only construction runs here, so no logits row is ever allocated."""

    LONGEST_ROW = np.iinfo(np.intp).max // 8

    def test_the_bound_is_numpys(self):
        with pytest.raises(ValueError):
            np.empty(self.LONGEST_ROW + 1)  # refused before any allocation

    @pytest.mark.parametrize("extra", [1, 2**61, 2**62, 2**63, 2**64])
    def test_window_models_reject_a_longer_row(self, extra):
        vocab = self.LONGEST_ROW + extra
        message = f"^vocab_size must be <= {self.LONGEST_ROW}, got {vocab}$"
        with pytest.raises(InvalidConfigError, match=message):
            TableModel(vocab, seed=1)
        with pytest.raises(InvalidConfigError, match=message):
            NgramModel([[0, 1, 2]], vocab)

    def test_the_longest_row_builds(self):
        assert TableModel(self.LONGEST_ROW, seed=1).vocab_size == self.LONGEST_ROW


class TestModelSpec:
    def test_invariants(self):
        with pytest.raises(InvalidConfigError):
            ModelSpec("table", 1)
        with pytest.raises(InvalidConfigError):
            ModelSpec("table", 8, order=0)
        with pytest.raises(InvalidConfigError):
            ModelSpec("nope", 8)

    @pytest.mark.parametrize("kind", ["table", "ngram"])
    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, 0.0, -5.0])
    def test_build_checks_smoothing_for_every_kind(self, kind, smoothing):
        spec = ModelSpec(kind, 8, smoothing=smoothing)
        message = f"^smoothing must be finite and > 0, got {smoothing!r}$"
        with pytest.raises(InvalidConfigError, match=message):
            build_model(spec, corpus=[[0, 1, 2]])

    def test_build_all_kinds(self):
        assert build_model(ModelSpec("table", 8)).vocab_size == 8
        assert build_model(ModelSpec("ngram", 8), corpus=[[0, 1, 2]]).vocab_size == 8
        with pytest.raises(InvalidConfigError):
            build_model(ModelSpec("ngram", 8))
