"""Language-model abstraction, cache sessions, and deterministic toy backends.

A model maps a token prefix to next-token logits; all backends here are pure
functions of (spec, prefix), so any claim about the decode pipeline can be
checked by from-scratch recomputation. ``ModelSession`` plays the KV-cache
role: it owns the committed tokens, the one context a model reads unchecked,
and memoized per-position rows (logits, or a draft's sampling distributions),
supports append-forward and truncate, and makes truncation semantics (the
dropped tokens never existed) explicit.

Backends:

- ``TableModel``: logits are a seeded hash of the trailing ``order`` context
  tokens, drawn uniformly from a bounded range.
- ``NgramModel``: counts-based log-probabilities with additive smoothing,
  built from a tokenized corpus.
- ``BlendModel``: convex combination of two backends' logits; used to build
  draft models of controllable quality.
- ``ReflectionAwareModel``: wraps a base backend and, whenever the context
  contains a designated marker token, blends toward re-emitting the token
  that followed the matching pre-marker context (an induction-style copy).
  This is the toy stand-in for a model that regenerates its own draft after
  a reflection probe.

``TableModel`` and ``NgramModel`` share the ``WindowModel`` base, which
holds the logits memo and states its policy.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidTokenError, SessionRangeError
from .tokens import derive_seed, sampling_distribution, setting_int, setting_real, token_ids

TABLE_LOGIT_LOW = -4.0
TABLE_LOGIT_HIGH = 4.0

# How many windows a WindowModel's memo keeps (its docstring states the
# policy): the whole space if it fits in TABLE_BYTES at 8 * V + ROW_OVERHEAD
# bytes a row (4,161 windows and 3.80 MB at V=64 and order 2), else the last
# MEMO_WINDOWS. ROW_OVERHEAD bounds a kept row's bytes beyond its data (the
# array object, key tuple, dict and deque entries): tracemalloc traces
# 150-260 in a memo of hundreds of rows, and 400 covers a dict just grown.
TABLE_BYTES = 4 * 1024 * 1024
MEMO_WINDOWS = 64
ROW_OVERHEAD = 400

# The longest float64 row numpy represents: its byte size must fit np.intp.
MAX_VOCAB_SIZE = np.iinfo(np.intp).max // 8

# Logit magnitude of the copy signal in ReflectionAwareModel. Chosen to
# dominate the table-model range at full blend while leaving finite spread.
COPY_LOGIT_BOOST = 8.0

MODEL_KINDS = ("table", "ngram")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a base backend.

    ``order`` is the number of trailing context tokens the backend conditions
    on; ``seed`` also seeds the pair's noise model (``divergence_noise_model``).
    """

    kind: str
    vocab_size: int
    seed: int = 0
    order: int = 2
    smoothing: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise InvalidConfigError(f"unknown model kind {self.kind!r}")
        setting_int("vocab_size", self.vocab_size, 2)
        setting_int("seed", self.seed)
        setting_int("order", self.order, 1)


class Model:
    """Next-token logits as a pure function of the token prefix."""

    vocab_size: int
    window_key = None  # a context's row key, where a memo of ``capacity`` keeps rows
    whole_space = False  # the memo keeps every window's row
    _q_memo: _Memo | None = None

    def next_logits(self, context: Sequence[int]) -> np.ndarray:
        """Logits predicting the token after ``context``. Must not mutate it."""
        raise NotImplementedError

    def next_distribution(self, context: Sequence[int], temperature: float) -> np.ndarray:
        """``sampling_distribution(self.next_logits(context), temperature)``.

        A model that keeps its ``whole_space`` keeps each row, read-only, in
        a ``_Memo`` of ``capacity`` rows for the last temperature asked; a
        new temperature replaces the memo once its first row is computed, so
        a refused one leaves it as it was. A bounded memo would serve almost
        no draft window twice, so any other model keeps no row.
        """
        if not self.whole_space:
            return sampling_distribution(self.next_logits(context), temperature)
        key = self.window_key(context)
        memo = self._q_memo
        if memo is None or memo.temperature != temperature:
            memo = _Memo(self.capacity, temperature)
        elif (row := memo.get(key)) is not None:
            return row
        row = sampling_distribution(self.next_logits(context), temperature)
        self._q_memo = memo
        return memo.put(key, row)


class _Memo(dict):
    """Read-only rows keyed by window, at most ``capacity`` of them: ``put``
    evicts the oldest inserted first, and a hit refreshes nothing.
    ``temperature`` is the rows' temperature if they are distributions."""

    def __init__(self, capacity: int, temperature: float | None = None):
        self.capacity = capacity
        self.temperature = temperature
        # Keys oldest first: ``next(iter(self))`` would walk every deleted slot.
        self._order: deque[tuple[int, ...]] = deque()

    def put(self, key: tuple[int, ...], row: np.ndarray) -> np.ndarray:
        row.flags.writeable = False
        if len(self) >= self.capacity:
            del self[self._order.popleft()]
        self[key] = row
        self._order.append(key)
        return row


class _Tokens(array):
    """A session's token buffer, the one context a model reads unchecked
    (``_window``): only ``ModelSession`` builds one, checking each token
    before appending it, and hands it only to its own model, whose parts
    share its vocabulary. A slice or copy is a plain ``array``."""


def _window(context: Sequence[int], order: int, vocab_size: int) -> Sequence[int]:
    """The last ``order`` tokens of ``context``: as they are in a session's
    buffer, else through ``token_ids``, which names a token it refuses."""
    window = context[-order:]
    return window if type(context) is _Tokens else token_ids(window, vocab_size)


class ModelSession:
    """A model's committed context plus per-position cached rows.

    The tokens live in the session's own buffer (``_Tokens``), an ``array``
    of the narrowest unsigned type that holds the model's vocabulary;
    ``forward`` passes it to the model as the context, which the model reads
    unchecked, and ``tokens`` returns a list copy. A row is the model's
    logits or, in a session given a ``temperature`` (the draft's), its
    ``next_distribution``. ``forward`` computes rows only for the new
    positions and memoizes them; ``truncate`` discards tokens and rows
    beyond the kept length, after which the session behaves exactly as if
    the dropped tokens were never fed.
    """

    def __init__(self, model: Model, temperature: float | None = None):
        self.model = model
        self.temperature = temperature
        self._tokens = _Tokens(token_typecode(model.vocab_size))
        self._rows: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[int]:
        return self._tokens.tolist()

    @property
    def last_row(self) -> np.ndarray:
        """The cached row predicting the token after the current context."""
        if not self._rows:
            raise SessionRangeError("the session is empty: it holds no row")
        return self._rows[-1]

    last_logits = last_row  # the name read where the rows are logits

    def forward(self, new_tokens: Sequence[int]) -> list[np.ndarray]:
        """Append tokens and return the row at each appended position.

        The row at appended position j predicts the token at position j+1
        and depends only on tokens up to j (causality is inherited from the
        backend being a pure function of the prefix). Tokens are checked
        by ``token_ids`` before any is appended, and a row that raises
        leaves the session's tokens and rows as they were before the call.
        """
        model, temperature, rows = self.model, self.temperature, self._rows
        toks = token_ids(new_tokens, model.vocab_size)
        if not toks:
            raise InvalidConfigError("forward requires at least one token")
        keep = len(self._tokens)
        try:
            for t in toks:
                self._tokens.append(t)
                if temperature is None:
                    rows.append(model.next_logits(self._tokens))
                else:
                    rows.append(model.next_distribution(self._tokens, temperature))
        except BaseException:  # a row that raises leaves the session as it was
            self.truncate(keep)
            raise
        return rows[-len(toks) :]

    def truncate(self, keep_length: int) -> None:
        """Shorten committed tokens and cached rows to ``keep_length``."""
        if not 0 <= setting_int("keep_length", keep_length) <= len(self._tokens):
            raise SessionRangeError(
                f"keep_length {keep_length} outside [0, {len(self._tokens)}], the session's length"
            )
        del self._tokens[keep_length:]
        del self._rows[keep_length:]


class WindowModel(Model):
    """A backend whose logits are a pure function of the window: the
    trailing ``order`` context tokens, or the whole context when it is
    shorter. Subclasses give the formula as ``window_logits(window)``.

    Logits rows are kept in one ``_Memo`` keyed by the window's tokens
    (``window_key``). A space whose every window of length 0 to ``order``
    fits in ``TABLE_BYTES`` at ``8 * V + ROW_OVERHEAD`` bytes a row is kept
    whole (``whole_space``; ``capacity`` is its window count), so no window
    is computed twice, and so are its q rows (``next_distribution``). A
    larger space keeps the last ``MEMO_WINDOWS`` logits rows and no q row:
    its job is the reflective step's second copy, which re-reads the first
    copy's windows ``shift_len`` positions later, so a step whose
    ``shift_len`` is above about ``MEMO_WINDOWS`` recomputes them.

    A window that holds a token outside the vocabulary, or one that is not
    an integer, is an ``InvalidTokenError`` naming it, whatever the memo
    holds; a numpy integer reads as its value (``_window`` checks any
    context but a session's buffer). Returned arrays are shared between
    calls and read-only.
    """

    whole_space = True  # unless the space overflows TABLE_BYTES

    def __init__(self, vocab_size: int, order: int):
        self.vocab_size = vocab_size = setting_int("vocab_size", vocab_size, 2)
        if vocab_size > MAX_VOCAB_SIZE:
            raise InvalidConfigError(f"vocab_size must be <= {MAX_VOCAB_SIZE}, got {vocab_size}")
        self.order = order = setting_int("order", order, 1)
        # Counting stops once the space overflows its budget, so a huge
        # order never sums huge powers of V.
        self.capacity = 0
        for n in range(order + 1):
            self.capacity += vocab_size**n
            if self.capacity * (8 * vocab_size + ROW_OVERHEAD) > TABLE_BYTES:
                self.capacity, self.whole_space = MEMO_WINDOWS, False
                break
        self._memo = _Memo(self.capacity)

    def window_key(self, context: Sequence[int]) -> tuple[int, ...]:
        """``context``'s window as a tuple of plain ints."""
        return tuple(_window(context, self.order, self.vocab_size))

    def next_logits(self, context: Sequence[int]) -> np.ndarray:
        key = self.window_key(context)
        logits = self._memo.get(key)
        if logits is None:
            logits = self._memo.put(key, self.window_logits(key))
        return logits

    def window_logits(self, window: tuple[int, ...]) -> np.ndarray:
        """Fresh logits predicting the token after ``window``."""
        raise NotImplementedError


class TableModel(WindowModel):
    """Seeded hash-table backend: bounded logits per (seed, window).

    Logits are drawn uniformly from [``TABLE_LOGIT_LOW``, ``TABLE_LOGIT_HIGH``)
    by ``Generator(PCG64(window_seed))``, where the window seed is a blake2b
    hash of the seed and the window's tokens, each as 8 little-endian bytes.
    The seed is hashed as a signed 64-bit integer, so it must lie in
    [-2**63, 2**63).
    """

    def __init__(self, vocab_size: int, seed: int = 0, order: int = 2):
        super().__init__(vocab_size, order)
        self.seed = seed = setting_int("seed", seed)
        if not -(2**63) <= seed < 2**63:
            raise InvalidConfigError(f"seed must lie in [-2**63, 2**63), got {seed}")
        self._seed_bytes = self.seed.to_bytes(8, "little", signed=True)

    def window_logits(self, window: tuple[int, ...]) -> np.ndarray:
        h = hashlib.blake2b(self._seed_bytes, digest_size=8)
        for t in window:
            h.update(int(t).to_bytes(8, "little"))
        gen = np.random.Generator(np.random.PCG64(int.from_bytes(h.digest(), "little")))
        return gen.uniform(TABLE_LOGIT_LOW, TABLE_LOGIT_HIGH, size=self.vocab_size)


class NgramModel(WindowModel):
    """Count-based backend with additive smoothing.

    ``corpus`` is a sequence of documents, each a sequence of token ids;
    empty documents are skipped. ``order`` is the context length: predictions
    condition on up to ``order`` trailing tokens, falling back to however many
    are available. Counts are gathered per document, for every context length
    from 0 to ``order``, so short queries near a sequence start still hit real
    statistics. The returned logits are exact log-probabilities:

        log((count(context, t) + smoothing) / (count(context) + smoothing * V))

    Every context the corpus never holds has the same logits,
    log(smoothing / (smoothing * V)): they are computed once at construction
    and all such windows share that one read-only row.
    """

    def __init__(
        self,
        corpus: Sequence[Sequence[int]],
        vocab_size: int,
        order: int = 2,
        smoothing: float = 1.0,
    ):
        _check_smoothing(smoothing)
        super().__init__(vocab_size, order)
        try:
            docs = [ids for doc in corpus if (ids := token_ids(doc, self.vocab_size))]
        except (InvalidTokenError, TypeError) as exc:  # a TypeError: no sequence of documents
            raise InvalidTokenError(f"corpus {exc}") from None
        if not docs:
            raise InvalidConfigError("corpus must be non-empty")
        self.smoothing = float(smoothing)
        # Every (context, token) pair is an n-gram of length 1 to order + 1;
        # one Counter over the per-length windows of each document counts
        # them all. A document holds no n-gram longer than itself.
        grams: Counter[tuple[int, ...]] = Counter()
        for doc in docs:
            for n in range(1, min(self.order + 1, len(doc)) + 1):
                grams.update(zip(*(doc[k:] for k in range(n))))
        self._pair_counts: dict[tuple[int, ...], dict[int, int]] = {}
        self._ctx_counts: dict[tuple[int, ...], int] = {}
        for gram, count in grams.items():
            ctx = gram[:-1]
            self._pair_counts.setdefault(ctx, {})[gram[-1]] = count
            self._ctx_counts[ctx] = self._ctx_counts.get(ctx, 0) + count

        self._count_free = self._logits({}, 0)
        self._count_free.flags.writeable = False

    def window_logits(self, window: tuple[int, ...]) -> np.ndarray:
        pairs = self._pair_counts.get(window)
        if pairs is None:
            return self._count_free
        return self._logits(pairs, self._ctx_counts[window])

    def _logits(self, pairs: dict[int, int], total: int) -> np.ndarray:
        counts = np.zeros(self.vocab_size, dtype=np.float64)
        for tok, c in pairs.items():
            counts[tok] = c
        return np.log((counts + self.smoothing) / (total + self.smoothing * self.vocab_size))


class BlendModel(Model):
    """Convex combination of two backends: (1-w)*primary + w*secondary.

    The primary is read through its own ``next_logits``, and so through its
    memo, because the draft's primary is the target's base, whose rows the
    target reads too. The secondary must be a ``WindowModel``, and is read
    through its formula, ``window_logits`` of its own window (``_window``):
    its only reader is the blend, whose rows are kept per window
    (``next_distribution``), so it keeps no row, which nothing would read.

    A blend of two ``WindowModel``s is a function of its larger-order
    part's window, so it keys its rows by that part's ``window_key`` and
    keeps them where that part keeps its ``whole_space``.
    """

    def __init__(self, primary: Model, secondary: WindowModel, weight: float):
        if not isinstance(secondary, WindowModel):
            raise InvalidConfigError(
                f"a blend's secondary must be a WindowModel, got {type(secondary).__name__}"
            )
        if primary.vocab_size != secondary.vocab_size:
            raise InvalidConfigError("blended models must share a vocabulary")
        self.weight = setting_real("weight", weight, 0, 1)
        self.vocab_size = primary.vocab_size
        self.primary = primary
        self.secondary = secondary
        if isinstance(primary, WindowModel):
            space = max(primary, secondary, key=lambda part: part.order)
            self.window_key, self.capacity = space.window_key, space.capacity
            self.whole_space = space.whole_space

    def next_logits(self, context: Sequence[int]) -> np.ndarray:
        secondary = self.secondary
        window = tuple(_window(context, secondary.order, self.vocab_size))
        primary = (1.0 - self.weight) * self.primary.next_logits(context)
        return primary + self.weight * secondary.window_logits(window)


class ReflectionAwareModel(Model):
    """Base backend plus an induction-style copy behavior after a marker.

    When the context contains the marker token, the model locates the token
    that followed the most recent pre-marker occurrence of the post-marker
    tail and blends ``blend`` of the way toward a logit spike of
    ``COPY_LOGIT_BOOST`` on that token. With a draft copy replayed after the
    marker this re-emits the original draft, position by position. Matches
    whose continuation is the marker itself are skipped so the probe token
    never gets amplified.

    The context is searched as a typed token buffer: a session's buffer as
    is, and any other sequence, a caller's ``array`` too, converted once
    through ``token_ids``, so a bad token anywhere in it is an
    ``InvalidTokenError``. The search copies the buffer's bytes once and
    runs two C-level ``bytes.rfind`` scans, one for the last marker and one
    for the nearest earlier copy of the tail; a hit that is not at a token
    boundary, or whose continuation is the marker, resumes the scan before
    it. No Python loop runs over every position. ``tests/reference_impl.py``
    keeps the plain loop it must agree with.
    """

    def __init__(self, base: Model, marker: int, blend: float):
        marker = setting_int("marker", marker)
        if not 0 <= marker < base.vocab_size:
            raise InvalidConfigError(
                f"marker {marker} outside vocabulary of size {base.vocab_size}"
            )
        self.blend = setting_real("blend", blend, 0, 1)
        self.vocab_size = base.vocab_size
        self.base = base
        self.marker = marker
        self._typecode = token_typecode(self.vocab_size)
        self._mark = array(self._typecode, [self.marker]).tobytes()

    def next_logits(self, context: Sequence[int]) -> np.ndarray:
        base_logits = self.base.next_logits(context)
        if self.blend == 0.0:
            return base_logits
        copy_token = self._copy_target(context)
        if copy_token is None:
            return base_logits
        # (1-blend)*base + blend*spike without building the spike: off the
        # copy token the spike adds 0.0, which changes no value.
        out = (1.0 - self.blend) * base_logits
        out[copy_token] += self.blend * COPY_LOGIT_BOOST
        return out

    def _copy_target(self, context: Sequence[int]) -> int | None:
        if type(context) is not _Tokens:
            context = array(self._typecode, token_ids(context, self.vocab_size))
        size = context.itemsize
        data = context.tobytes()
        mark = self._mark
        m = data.rfind(mark)
        while m > 0 and m % size:  # a hit off a token boundary
            m = data.rfind(mark, 0, m + size - 1)
        if m < 0:
            return None
        tail = data[m + size :]
        if not tail:
            return None
        n = len(tail)
        # The copy and its continuation lie before the marker. A hit off a
        # token boundary, or continued by the marker, resumes the scan
        # before it.
        s = data.rfind(tail, 0, max(m - size, 0))
        while s >= 0:
            nxt = s + n
            if s % size == 0 and data[nxt : nxt + size] != mark:
                return context[nxt // size]
            s = data.rfind(tail, 0, nxt - 1)
        return None


def token_typecode(vocab_size: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds every token id
    below ``vocab_size``. No typecode holds ids of 2**64 or more."""
    for code in "BHIQ":
        if vocab_size <= 1 << (8 * array(code).itemsize):
            return code
    raise InvalidConfigError(f"vocab_size must be <= 2**64, got {vocab_size}")


def _check_smoothing(smoothing: float) -> None:
    """Reject a smoothing that is not finite and positive, NaN included."""
    if not 0 < setting_real("smoothing", smoothing) < np.inf:
        raise InvalidConfigError(f"smoothing must be finite and > 0, got {smoothing!r}")


def divergence_noise_model(base_spec: ModelSpec) -> TableModel:
    """The independent noise backend paired with a base model.

    Its seed is derived from the base seed with a fixed tag, so a pair is
    fully determined by the base spec.
    """
    return TableModel(
        base_spec.vocab_size,
        seed=derive_seed("divergence-noise", base_spec.seed),
        order=base_spec.order,
    )


def pair_models(
    base: Model, noise: WindowModel, eta: float, beta: float, marker: int
) -> tuple[Model, Model]:
    """The (target, draft) pair every decode and sweep cell runs on.

    The target is ``base``, wrapped in ``ReflectionAwareModel`` (copy blend
    ``beta`` after ``marker``) when beta > 0. The draft blends ``base`` with
    ``noise`` at rate ``eta``: at eta=0 it is ``base`` itself, at eta=1 a
    model unrelated to the target. The draft reads ``base`` through its
    memo, which the target shares, and ``noise`` through its formula, so
    the noise model keeps no rows (``BlendModel``). An eta or beta outside
    [0, 1], NaN included, is rejected here under its own name, and so is a
    marker outside the vocabulary, whatever beta is.
    """
    eta, beta = setting_real("eta", eta, 0, 1), setting_real("beta", beta, 0, 1)
    if not 0 <= setting_int("marker", marker) < base.vocab_size:
        raise InvalidConfigError(f"marker {marker} outside vocabulary of size {base.vocab_size}")
    draft = base if eta == 0 else BlendModel(base, noise, eta)
    target = ReflectionAwareModel(base, marker, beta) if beta > 0 else base
    return target, draft


def build_model(spec: ModelSpec, corpus: Sequence[Sequence[int]] | None = None) -> Model:
    """Construct a base backend from its spec.

    ``corpus`` is required for the ngram kind and ignored otherwise. The
    spec's smoothing is checked for every kind, although only the ngram
    kind reads it, so a bad value fails the same way whatever the kind.
    """
    _check_smoothing(spec.smoothing)
    if spec.kind == "table":  # ModelSpec admits no kind but MODEL_KINDS
        return TableModel(spec.vocab_size, seed=spec.seed, order=spec.order)
    if corpus is None:
        raise InvalidConfigError("ngram models require a corpus")
    return NgramModel(corpus, spec.vocab_size, order=spec.order, smoothing=spec.smoothing)
