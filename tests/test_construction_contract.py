"""The error contract of the construction exports.

Each of ``TableModel``, ``NgramModel``, ``BlendModel``,
``ReflectionAwareModel``, ``ModelSpec``, ``build_model``, ``pair_models``,
``make_rng``, ``one_hot``, ``IntTokenizer``, ``resolve_template`` and
``decode`` either returns, or raises a ``ReflectSpecError`` whose message
names the argument at fault (a token is named as a token). None raises a
bare exception or coerces a value silently: 1.5 is no integer setting and
"0.3" no real one. Settings, tokens, corpora and template texts are drawn
from well-formed values and from the values a caller passes by mistake;
``decode``'s target and draft also from values that are no model. The
other model and tokenizer arguments are drawn from built ones, and
``decode``'s config from valid ones: ``DecodeConfig`` holds its settings'
own contract (``test_engine.py``'s ``TestValidation``).
"""

import inspect
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspec.bench import SweepSpec
from reflectspec.corpus import IntTokenizer, WordTokenizer
from reflectspec.engine import DecodeConfig, decode
from reflectspec.errors import ReflectSpecError
from reflectspec.models import (
    MODEL_KINDS,
    BlendModel,
    ModelSession,
    ModelSpec,
    NgramModel,
    ReflectionAwareModel,
    TableModel,
    build_model,
    pair_models,
)
from reflectspec.reflective import ReflectiveTemplate, resolve_template
from reflectspec.tokens import make_rng, one_hot

VOCAB = 16

MISTAKES = st.sampled_from(
    [1.5, -0.5, math.nan, "2", None, True, np.int64(2), np.uint8(3), np.float64(2.0)]
)
SCALARS = st.one_of(st.integers(min_value=-3, max_value=VOCAB + 3), MISTAKES)
SEEDS = st.one_of(SCALARS, st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]))
REALS = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5),
    st.sampled_from([0, 1, math.inf, -math.inf, "0.5", None, np.float32(0.25), np.float64(0.75)]),
    MISTAKES,
)
GOOD_TOKENS = st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5)
TOKENS = st.one_of(GOOD_TOKENS, st.lists(SCALARS, max_size=5))
CORPORA = st.one_of(
    st.lists(GOOD_TOKENS, min_size=1, max_size=3), st.lists(st.one_of(TOKENS, SCALARS), max_size=3),
    MISTAKES,
)

# Built models, shared: a memo changes no row. Two vocabularies, so a pair
# may disagree; the last is no WindowModel, so it is no blend's secondary.
MODELS = st.sampled_from([
    TableModel(8, seed=1),
    TableModel(VOCAB, seed=2),
    NgramModel([[1, 2, 3, 1, 2]], VOCAB, order=1),
    ReflectionAwareModel(TableModel(VOCAB, seed=3), 15, 0.5),
])
NOT_MODELS = st.sampled_from([None, "table", 3, ModelSpec("table", VOCAB)])
CONFIGS = [
    DecodeConfig(gamma=2, max_new_tokens=4),
    DecodeConfig(strategy="exact", temperature=0.0, max_new_tokens=3),
    DecodeConfig(strategy="vanilla", reflect=False, max_new_tokens=2),
]
TEMPLATE_TEXTS = st.one_of(
    st.sampled_from(
        ["${draft}", "${draft} [BACK] ${prefix} ${draft}", "${draft} 3 ${draft}",
         "${draft} x ${draft}", "${draft} ${prefix}", "${draft} ${draft} ${draft}", ""]
    ),
    st.text(alphabet="${}draftpe x3", max_size=12),
    MISTAKES,
    st.just(b"${draft}"),
)


def table_model(data):
    model = TableModel(data.draw(SCALARS), data.draw(SEEDS), data.draw(SCALARS))
    assert all(type(v) is int for v in (model.vocab_size, model.seed, model.order))
    assert model.next_logits([0, 1]).shape == (model.vocab_size,)


def ngram_model(data):
    model = NgramModel(data.draw(CORPORA), data.draw(SCALARS), data.draw(SCALARS), data.draw(REALS))
    assert 0 < model.smoothing < math.inf
    assert model.next_logits([1]).shape == (model.vocab_size,)


def blend_model(data):
    primary = data.draw(MODELS)
    model = BlendModel(primary, data.draw(st.one_of(MODELS, NOT_MODELS)), data.draw(REALS))
    assert 0 <= model.weight <= 1 and model.next_logits([1]).shape == (primary.vocab_size,)


def reflection_aware_model(data):
    base = data.draw(MODELS)
    model = ReflectionAwareModel(base, data.draw(SCALARS), data.draw(REALS))
    assert type(model.marker) is int and 0 <= model.blend <= 1
    assert model.next_logits([model.marker, 1]).shape == (base.vocab_size,)


def model_spec(data):
    kind = data.draw(st.sampled_from([*MODEL_KINDS, "bogus", None]))
    ModelSpec(kind, data.draw(SCALARS), data.draw(SEEDS), data.draw(SCALARS), data.draw(REALS))
    assert kind in MODEL_KINDS


def build(data):
    spec = ModelSpec(
        data.draw(st.sampled_from(MODEL_KINDS)),
        data.draw(st.integers(min_value=2, max_value=VOCAB)),
        data.draw(SEEDS),
        data.draw(st.integers(min_value=1, max_value=3)),
        data.draw(REALS),
    )
    model = build_model(spec, data.draw(st.one_of(st.none(), CORPORA)))
    assert model.vocab_size == spec.vocab_size


def pair(data):
    base = data.draw(MODELS)
    target, draft = pair_models(
        base, data.draw(st.one_of(MODELS, NOT_MODELS)), data.draw(REALS), data.draw(REALS),
        data.draw(SCALARS),
    )
    assert target.vocab_size == draft.vocab_size == base.vocab_size


def rng(data):
    assert isinstance(make_rng(data.draw(SEEDS)), np.random.Generator)


def hot(data):
    token, vocab_size = data.draw(SCALARS), data.draw(SCALARS)
    p = one_hot(token, vocab_size)
    assert p.shape == (vocab_size,) and p[operator.index(token)] == 1.0 and p.sum() == 1.0


def int_tokenizer(data):
    vocab_size = data.draw(SCALARS)
    assert IntTokenizer(vocab_size).encode("[BACK]") == [vocab_size - 1]


def template(data):
    tokenizer = data.draw(st.sampled_from([IntTokenizer, WordTokenizer]))
    tokenizer = tokenizer(VOCAB) if tokenizer is IntTokenizer else tokenizer()
    result = resolve_template(data.draw(TEMPLATE_TEXTS), tokenizer)
    assert result.prefix_len == 0 and result.reflective == (result.text.count("${draft}") == 2)


def run_decode(data):
    target, draft = (data.draw(st.one_of(MODELS, NOT_MODELS)) for _ in range(2))
    config = data.draw(st.sampled_from(CONFIGS))
    out, stats = decode(target, draft, data.draw(TOKENS), config)
    assert 1 <= len(out) <= config.max_new_tokens and stats.steps


# Each call, the parameters its case draws, and the words one of which its
# errors name.
CALLS = {
    "TableModel": (table_model, TableModel, ("vocab_size", "seed", "order"), ("vocab_size", "seed", "order")),
    "NgramModel": (
        ngram_model, NgramModel, ("corpus", "vocab_size", "order", "smoothing"),
        ("corpus", "vocab_size", "order", "smoothing"),
    ),
    "BlendModel": (
        blend_model, BlendModel, ("primary", "secondary", "weight"),
        ("secondary", "vocabulary", "weight"),
    ),
    "ReflectionAwareModel": (
        reflection_aware_model, ReflectionAwareModel, ("base", "marker", "blend"), ("marker", "blend"),
    ),
    "ModelSpec": (
        model_spec, ModelSpec, ("kind", "vocab_size", "seed", "order", "smoothing"),
        ("kind", "vocab_size", "seed", "order"),
    ),
    "build_model": (build, build_model, ("spec", "corpus"), ("seed", "smoothing", "corpus")),
    "pair_models": (
        pair, pair_models, ("base", "noise", "eta", "beta", "marker"),
        ("eta", "beta", "marker", "secondary", "vocabulary"),
    ),
    "make_rng": (rng, make_rng, ("seed",), ("seed",)),
    "one_hot": (hot, one_hot, ("token", "vocab_size"), ("token", "vocab_size")),
    "IntTokenizer": (int_tokenizer, IntTokenizer, ("vocab_size",), ("vocab_size",)),
    "resolve_template": (
        template, resolve_template, ("text", "tokenizer"), ("template", "text", "token"),
    ),
    "decode": (
        run_decode, decode, ("target", "draft", "prompt_tokens", "config"),
        ("target", "draft", "prompt", "token", "vocabulary"),
    ),
}


def test_every_parameter_is_drawn():
    for name, (_, function, drawn, _) in CALLS.items():
        params = [p for p in inspect.signature(function).parameters if p != "self"]
        assert tuple(params) == drawn, name


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_each_call_returns_or_names_the_argument(data):
    name = data.draw(st.sampled_from(sorted(CALLS)))
    case, _, _, named = CALLS[name]
    try:
        case(data)
    except ReflectSpecError as exc:
        assert any(word in str(exc) for word in named), (name, str(exc))


# Calls that raised a bare exception or coerced a value silently, each
# with the message that now names its argument.
T8 = TableModel(8, seed=1)
PROBED = {
    "weight a string": (lambda: BlendModel(T8, TableModel(8), "0.5"), "weight must be a real number"),
    "blend a string": (lambda: ReflectionAwareModel(T8, 7, "0.5"), "blend must be a real number"),
    "eta a string": (lambda: pair_models(T8, TableModel(8), "0.5", 0.5, 7), "eta must be a real number"),
    "beta a string": (lambda: pair_models(T8, TableModel(8), 0.0, "0.5", 7), "beta must be a real number"),
    "smoothing a string": (
        lambda: NgramModel([[1, 2]], 8, smoothing="1"), "smoothing must be a real number",
    ),
    "table vocab_size a string": (lambda: TableModel("64"), "vocab_size must be an integer"),
    "table order 1.5": (lambda: TableModel(64, order=1.5), "order must be an integer"),
    "spec vocab_size a string": (lambda: ModelSpec("table", "64"), "vocab_size must be an integer"),
    "one_hot vocab_size a string": (lambda: one_hot(1, "4"), "vocab_size must be an integer"),
    "table seed 1.5": (lambda: TableModel(64, seed=1.5), "seed must be an integer, got 1.5"),
    "rng seed 1.5": (lambda: make_rng(1.5), "seed must be an integer, got 1.5"),
    "rng seed a string": (lambda: make_rng("3"), "seed must be an integer, got '3'"),
    "rng seed negative": (lambda: make_rng(-1), r"seed must be >= 0, got -1"),
    "decode draft None": (lambda: decode(T8, None, [1, 2], DecodeConfig()), "draft must be a Model"),
    "template text None": (lambda: resolve_template(None, IntTokenizer(8)), "template text must be a str"),
    "forward an int": (lambda: ModelSession(TableModel(8)).forward(5), "tokens must be a sequence, got 5"),
    "tokenizer vocab_size a string": (lambda: IntTokenizer("8"), "vocab_size must be an integer, got '8'"),
    "spec seed a string": (lambda: ModelSpec("ngram", 8, seed="x"), "seed must be an integer, got 'x'"),
    "corpus None": (lambda: NgramModel(None, 8), "corpus 'NoneType' object is not iterable"),
    "corpus document an int": (lambda: NgramModel([5], 8), "corpus tokens must be a sequence, got 5"),
    "one_hot vocab_size negative": (lambda: one_hot(0, -1), "vocab_size must be >= 1, got -1"),
    "sweep prefix_len 1.5": (
        lambda: SweepSpec(((1, 2),), ModelSpec("table", 8), templates=(ReflectiveTemplate((7,)),), prefix_len=1.5),
        r"prefix_len must be an integer, got 1\.5",
    ),
}


@pytest.mark.parametrize("name", PROBED)
def test_each_probed_call_names_its_argument(name):
    call, message = PROBED[name]
    with pytest.raises(ReflectSpecError, match=f"^{message}"):
        call()
