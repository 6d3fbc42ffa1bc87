"""Command-line interface: single decodes, parameter sweeps, and selftest.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.

Defaults follow the package's reference configuration: alpha 0.3, prefix
length 4, draft length 5, temperature 0.8, and the ``[BACK]`` probe
template. Without a corpus the CLI runs in raw-integer token mode over a
seeded table model; with ``--corpus`` it builds a word tokenizer and
count-based models from the file.

``decode`` and ``sweep`` take the same setting flags, defined once in
``_add_setting_args``: each grid flag takes one comma-separated grid, and
templates and prompts repeat. ``build_spec`` turns them into a
``SweepSpec``; ``decode`` runs its one cell and refuses a second value of
any setting. A decode is seeded with ``--seed`` itself, a sweep cell with a
stream derived from it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .bench import (
    REPORT_FORMATS,
    CellRunner,
    SweepSpec,
    acceptance_by_position,
    emit_report,
    mean_accepted_tokens,
    run_sweep,
    sweep_cells,
    write_decode_stats,
)
from .corpus import (
    BACK_WORD,
    IntTokenizer,
    WordTokenizer,
    load_corpus_documents,
    load_prompt_lines,
)
from .engine import ENTROPY_SOURCES, EXACT_MATCH_MODES, STRATEGIES, decode
from .errors import InvalidConfigError, ReflectSpecError
from .models import MODEL_KINDS, ModelSpec
from .reflective import DEFAULT_TEMPLATE_TEXT, resolve_template
from .selftest import run_all


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ReflectSpecError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectspec",
        description="Speculative decoding with reflective verification on toy backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="run a single decode and print tokens plus stats")
    _add_setting_args(p_decode)
    p_decode.add_argument("--out", help="write a decode stats JSON file here")
    p_decode.add_argument(
        "--full-stats",
        action="store_true",
        help="include feed sizes and wall time in the stats file (breaks byte-reproducibility)",
    )
    p_decode.add_argument(
        "--timing", action="store_true", help="print toy-backend wall time on stdout"
    )
    p_decode.add_argument("--verbose", "-v", action="store_true", help="print per-step detail")
    p_decode.set_defaults(func=cmd_decode)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and write a report file")
    _add_setting_args(p_sweep)
    p_sweep.add_argument(
        "--seeds", type=_grid(int), action=_Once, default="0", help="comma-separated seed grid"
    )
    p_sweep.add_argument("--out", required=True, help="report file path")
    p_sweep.add_argument("--format", choices=REPORT_FORMATS, default="csv", help="report format")
    p_sweep.add_argument("--jobs", type=_jobs, default=1, help="parallel worker processes (>= 1)")
    p_sweep.add_argument(
        "--timing",
        action="store_true",
        help="include toy-backend timing columns (breaks byte-reproducibility)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _add_setting_args(p: argparse.ArgumentParser) -> None:
    """The settings of a decode, shared by ``decode`` and ``sweep``."""
    p.add_argument(
        "--target-model",
        choices=MODEL_KINDS,
        default="table",
        help="target backend (ngram requires --corpus)",
    )
    p.add_argument("--vocab-size", type=int, default=64, help="vocabulary size (integer mode)")
    p.add_argument("--seed", type=int, default=0, help="model and decode base seed")
    p.add_argument("--order", type=int, default=2, help="context order of the toy backends")
    p.add_argument("--smoothing", type=float, default=1.0, help="ngram additive smoothing")
    p.add_argument(
        "--beta",
        type=float,
        default=0.0,
        help="reflection-aware blend of the target (0 disables the wrapper)",
    )
    p.add_argument(
        "--marker",
        type=int,
        default=None,
        help="marker token id for the reflection-aware wrapper (default: the [BACK] token)",
    )
    p.add_argument("--corpus", help="corpus file: whitespace tokens, one document per line")
    p.add_argument(
        "--alpha", type=_grid(_finite), action=_Once, default="0.3",
        help="comma-separated reflective fusion weights",
    )
    p.add_argument(
        "--gamma", type=_grid(int), action=_Once, default="5",
        help="comma-separated draft tokens per step",
    )
    p.add_argument(
        "--strategy",
        type=_grid(_strategy),
        action=_Once,
        default="specsample",
        help=f"comma-separated verification strategies from {','.join(STRATEGIES)} "
        "(vanilla = no speculation)",
    )
    p.add_argument(
        "--eta",
        type=_grid(_finite),
        action=_Once,
        default="0",
        help="comma-separated draft divergences: 0 drafts with the target's base, "
        "1 with an unrelated table",
    )
    p.add_argument(
        "--template-inline",
        action="append",
        default=[],
        help="template text, e.g. '${draft} [BACK] ${prefix} ${draft}' (repeatable)",
    )
    p.add_argument(
        "--template-file", action="append", default=[], help="read a template from a file (repeatable)"
    )
    p.add_argument(
        "--prompt", action="append", default=[], help="prompt text in the active tokenizer (repeatable)"
    )
    p.add_argument("--prompt-file", help="prompt set file, one prompt per line")
    p.add_argument("--temperature", type=_finite, default=0.8, help="sampling temperature (0 = greedy)")
    p.add_argument("--epsilon", type=float, default=0.3, help="typical-sampling probability cap")
    p.add_argument("--delta", type=float, default=0.2, help="typical-sampling entropy scale")
    p.add_argument("--prefix-len", type=int, default=4, help="committed tokens replayed before the second copy")
    p.add_argument("--max-tokens", type=int, default=64, help="maximum new tokens to emit")
    p.add_argument("--eos-token", type=int, default=None, help="stop after this token id")
    p.add_argument(
        "--entropy-source",
        choices=ENTROPY_SOURCES,
        default="original",
        help="distribution whose entropy gates typical sampling",
    )
    p.add_argument(
        "--match-mode",
        choices=EXACT_MATCH_MODES,
        default="sample",
        help="exact-match verification draws samples or takes the argmax",
    )


def _grid(parse):
    """An argparse type: comma-separated ``parse`` values, empty items
    skipped; a grid with no items is a usage error naming its flag."""

    def grid(text: str) -> tuple:
        try:
            values = tuple(parse(v.strip()) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} grid: {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"grid {text!r} holds no values")
        return values

    return grid


class _Once(argparse.Action):
    """Stores a grid flag's values. A second use of the flag is a usage
    error: argparse would keep only the last grid."""

    def __call__(self, parser, namespace, values, option_string=None):
        # Until the flag is given, the namespace holds its unparsed default.
        if getattr(namespace, self.dest) is not self.default:
            raise argparse.ArgumentError(
                self,
                f"given more than once; give all its values in one comma-separated "
                f"grid, e.g. {option_string} a,b",
            )
        setattr(namespace, self.dest, values)


def _finite(text: str) -> float:
    """A float that a strict JSON report can hold: NaN and the infinities
    are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _strategy(text: str) -> str:
    if text not in STRATEGIES:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {text!r} (choose from {', '.join(STRATEGIES)})"
        )
    return text


# ---------------------------------------------------------------------------
# Settings assembly
# ---------------------------------------------------------------------------


def build_spec(args, seeds: tuple[int, ...]) -> tuple[IntTokenizer | WordTokenizer, SweepSpec]:
    """Build the tokenizer and the sweep spec of CLI arguments over ``seeds``.

    In word mode the vocabulary grows while the corpus, templates, prompts,
    and marker are encoded, and is frozen before the base spec is made.
    """
    template_texts = list(args.template_inline)
    template_texts += [Path(path).read_text(encoding="utf-8").strip() for path in args.template_file]
    prompt_texts = list(args.prompt)
    if args.prompt_file:
        prompt_texts.extend(load_prompt_lines(args.prompt_file))
    if not prompt_texts:
        raise InvalidConfigError(f"{args.command} needs --prompt or --prompt-file")
    corpus_docs = None
    if args.corpus:
        tokenizer: IntTokenizer | WordTokenizer = WordTokenizer()
        corpus_docs = load_corpus_documents(args.corpus, tokenizer)
    else:
        if args.target_model == "ngram":
            raise InvalidConfigError("ngram models require --corpus")
        tokenizer = IntTokenizer(args.vocab_size)
    templates = [resolve_template(text, tokenizer) for text in template_texts or [DEFAULT_TEMPLATE_TEXT]]
    prompts = [tokenizer.encode(text, extend=True) for text in prompt_texts]
    for prompt in prompts:
        if not prompt:
            raise InvalidConfigError("prompts must hold at least one token")
    marker = args.marker
    if marker is None:
        marker = tokenizer.encode(BACK_WORD, extend=True)[0]
    if tokenizer.vocab_size < 2:
        raise InvalidConfigError("effective vocabulary must hold at least two tokens")
    spec = SweepSpec(
        prompts=tuple(tuple(p) for p in prompts),
        base=ModelSpec(
            args.target_model, tokenizer.vocab_size, seed=args.seed, order=args.order,
            smoothing=args.smoothing,
        ),
        alphas=args.alpha,
        gammas=args.gamma,
        strategies=args.strategy,
        etas=args.eta,
        templates=tuple(templates),
        seeds=seeds,
        corpus=tuple(tuple(d) for d in corpus_docs) if corpus_docs else None,
        beta=args.beta,
        marker=marker,
        temperature=args.temperature,
        prefix_len=args.prefix_len,
        max_new_tokens=args.max_tokens,
        epsilon=args.epsilon,
        delta=args.delta,
        entropy_source=args.entropy_source,
        eos_token=args.eos_token,
        exact_match_mode=args.match_mode,
    )
    return tokenizer, spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    tokenizer, spec = build_spec(args, seeds=(args.seed,))
    for flag, values in (
        ("--alpha", spec.alphas),
        ("--gamma", spec.gammas),
        ("--strategy", spec.strategies),
        ("--eta", spec.etas),
        ("--template-inline or --template-file", spec.templates),
        ("--prompt or --prompt-file", spec.prompts),
    ):
        if len(values) > 1:
            raise InvalidConfigError(f"decode takes one value of {flag}, got {len(values)}")
    [(_, (alpha, gamma, strategy, eta, template, seed))] = sweep_cells(spec)
    target, draft = CellRunner(spec).models(eta)
    config = spec.cell_config(alpha, gamma, strategy, template, seed)
    start = time.perf_counter()
    output, stats = decode(target, draft, list(spec.prompts[0]), config)
    wall_time = time.perf_counter() - start

    print("output tokens:", " ".join(str(t) for t in output))
    if isinstance(tokenizer, WordTokenizer):
        print("output text:", tokenizer.decode(output))
    mat = mean_accepted_tokens(stats)
    print(f"steps: {stats.num_steps}  emitted: {stats.total_tokens_emitted}  mat: {mat:.4f}")
    if strategy != "vanilla":
        rates = acceptance_by_position(stats.steps, config.gamma)
        print("acceptance by position:", " ".join(f"{r:.3f}" for r in rates))
        print(f"mean input budget/step: {stats.total_input_tokens / stats.num_steps:.2f}")
        print(f"draft forwards: {stats.total_draft_forwards}")
    if args.verbose:
        for i, s in enumerate(stats.steps):
            print(f"  step {i}: accepted {s.accepted_n}, emitted {s.tokens_emitted}")
    if args.timing:
        print(f"wall time: {wall_time:.4f}s (toy backends; not a production throughput number)")
    if args.out:
        write_decode_stats(stats, args.out, include_diagnostics=args.full_stats)
        print(f"stats written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    _, spec = build_spec(args, seeds=args.seeds)
    rows = run_sweep(spec, jobs=args.jobs)
    emit_report(rows, args.format, args.out, include_timing=args.timing)
    failures = [r for r in rows if r.error]
    print(f"wrote {len(rows)} rows to {args.out} ({len(failures)} failed cells)")
    return 0


def cmd_selftest(args) -> int:
    results = run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
