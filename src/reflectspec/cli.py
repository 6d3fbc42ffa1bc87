"""Command-line interface: single decodes, parameter sweeps, and selftest.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.

Defaults follow the package's reference configuration: alpha 0.3, prefix
length 4, draft length 5, temperature 0.8, and the ``[BACK]`` probe
template. Without a corpus the CLI runs in raw-integer token mode over a
seeded table model; with ``--corpus`` it builds a word tokenizer and
count-based models from the file.

``decode`` runs a one-cell sweep's cell: ``build_spec`` turns either
command's flags into a ``SweepSpec``, so every decode flag means the same in
a sweep. A decode is seeded with ``--seed`` itself, a sweep cell with a
stream derived from it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    CellRunner,
    SweepSpec,
    acceptance_by_position,
    emit_report,
    mean_accepted_tokens,
    run_sweep,
    write_decode_stats,
)
from .corpus import (
    BACK_WORD,
    IntTokenizer,
    WordTokenizer,
    load_corpus_documents,
    load_prompt_lines,
)
from .engine import decode
from .errors import InvalidConfigError, ReflectSpecError
from .models import ModelSpec
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
    except (ReflectSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectspec",
        description="Speculative decoding with reflective verification on toy backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="run a single decode and print tokens plus stats")
    _add_model_args(p_decode)
    _add_decode_args(p_decode)
    p_decode.add_argument("--prompt", help="prompt text (tokens in the active tokenizer)")
    p_decode.add_argument("--prompt-file", help="file whose first line is the prompt")
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
    _add_model_args(p_sweep)
    _add_decode_args(p_sweep, sweep=True)
    p_sweep.add_argument("--prompt", action="append", default=[], help="add one prompt (repeatable)")
    p_sweep.add_argument("--prompt-file", help="prompt set file, one prompt per line")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seed grid")
    p_sweep.add_argument("--out", required=True, help="report file path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_sweep.add_argument(
        "--timing",
        action="store_true",
        help="include toy-backend timing columns (breaks byte-reproducibility)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--target-model",
        choices=("table", "ngram"),
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


def _add_decode_args(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    if sweep:
        p.add_argument("--alpha", default="0.3", help="comma-separated alpha grid")
        p.add_argument("--gamma", default="5", help="comma-separated draft length grid")
        p.add_argument(
            "--strategy",
            default="specsample",
            help="comma-separated strategies from: exact,specsample,typical,vanilla",
        )
        p.add_argument("--eta", default="0", help="comma-separated draft divergence grid")
        p.add_argument(
            "--template-inline",
            action="append",
            default=[],
            help="add a template variant written inline (repeatable)",
        )
        p.add_argument(
            "--template-file",
            action="append",
            default=[],
            help="add a template variant from a file (repeatable)",
        )
    else:
        p.add_argument("--alpha", type=float, default=0.3, help="reflective fusion weight")
        p.add_argument("--gamma", type=int, default=5, help="draft tokens per step")
        p.add_argument(
            "--eta",
            type=float,
            default=0.0,
            help="draft divergence: 0 drafts with the target's base, 1 with an unrelated table",
        )
        p.add_argument(
            "--strategy",
            choices=("exact", "specsample", "typical", "vanilla"),
            default="specsample",
            help="verification strategy (vanilla = no speculation)",
        )
        p.add_argument("--template-inline", help="template text, e.g. '${draft} [BACK] ${prefix} ${draft}'")
        p.add_argument("--template-file", help="read the template from a file")
    p.add_argument("--temperature", type=float, default=0.8, help="sampling temperature (0 = greedy)")
    p.add_argument("--epsilon", type=float, default=0.3, help="typical-sampling probability cap")
    p.add_argument("--delta", type=float, default=0.2, help="typical-sampling entropy scale")
    p.add_argument("--prefix-len", type=int, default=4, help="committed tokens replayed before the second copy")
    p.add_argument("--max-tokens", type=int, default=64, help="maximum new tokens to emit")
    p.add_argument("--eos-token", type=int, default=None, help="stop after this token id")
    p.add_argument(
        "--entropy-source",
        choices=("original", "fused"),
        default="original",
        help="distribution whose entropy gates typical sampling",
    )
    p.add_argument(
        "--match-mode",
        choices=("sample", "greedy"),
        default="sample",
        help="exact-match verification draws samples or takes the argmax",
    )


# ---------------------------------------------------------------------------
# Settings assembly
# ---------------------------------------------------------------------------


def _template_text(args, sweep: bool = False) -> list[str]:
    if sweep:
        texts = list(args.template_inline)
        for path in args.template_file:
            texts.append(Path(path).read_text(encoding="utf-8").strip())
        return texts or [DEFAULT_TEMPLATE_TEXT]
    if args.template_inline and args.template_file:
        raise InvalidConfigError("give either --template-inline or --template-file, not both")
    if args.template_inline:
        return [args.template_inline]
    if args.template_file:
        return [Path(args.template_file).read_text(encoding="utf-8").strip()]
    return [DEFAULT_TEMPLATE_TEXT]


def _prompt_texts(args, sweep: bool = False) -> list[str]:
    if sweep:
        texts = list(args.prompt)
        if args.prompt_file:
            texts.extend(load_prompt_lines(args.prompt_file))
        if not texts:
            raise InvalidConfigError("sweep needs --prompt or --prompt-file")
        return texts
    if args.prompt and args.prompt_file:
        raise InvalidConfigError("give either --prompt or --prompt-file, not both")
    if args.prompt:
        return [args.prompt]
    if args.prompt_file:
        return [load_prompt_lines(args.prompt_file)[0]]
    raise InvalidConfigError("decode needs --prompt or --prompt-file")


def build_spec(
    args, template_texts: list[str], prompt_texts: list[str], **grids
) -> tuple[IntTokenizer | WordTokenizer, SweepSpec]:
    """Build the tokenizer and the sweep spec of CLI arguments; ``grids``
    gives the spec's grid axes (one value each for a single decode).

    In word mode the vocabulary grows while the corpus, templates, prompts,
    and marker are encoded, and is frozen before the base spec is made.
    """
    corpus_docs = None
    if args.corpus:
        tokenizer: IntTokenizer | WordTokenizer = WordTokenizer()
        corpus_docs = load_corpus_documents(args.corpus, tokenizer)
    else:
        if args.target_model == "ngram":
            raise InvalidConfigError("ngram models require --corpus")
        tokenizer = IntTokenizer(args.vocab_size)
    templates = [resolve_template(text, tokenizer) for text in template_texts]
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
        templates=tuple(templates),
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
        **grids,
    )
    return tokenizer, spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    tokenizer, spec = build_spec(
        args,
        _template_text(args),
        _prompt_texts(args),
        alphas=(args.alpha,),
        gammas=(args.gamma,),
        strategies=(args.strategy,),
        etas=(args.eta,),
        seeds=(args.seed,),
    )
    target, draft = CellRunner(spec).models(args.eta)
    config = spec.cell_config(args.alpha, args.gamma, args.strategy, spec.templates[0], args.seed)
    output, stats = decode(target, draft, list(spec.prompts[0]), config)

    print("output tokens:", " ".join(str(t) for t in output))
    if isinstance(tokenizer, WordTokenizer):
        print("output text:", tokenizer.decode(output))
    mat = mean_accepted_tokens(stats)
    print(f"steps: {stats.num_steps}  emitted: {stats.total_tokens_emitted}  mat: {mat:.4f}")
    if args.strategy != "vanilla":
        rates = acceptance_by_position(stats.steps, config.gamma)
        print("acceptance by position:", " ".join(f"{r:.3f}" for r in rates))
        print(f"mean input budget/step: {stats.total_input_tokens / stats.num_steps:.2f}")
        print(f"draft forwards: {stats.total_draft_forwards}")
    if args.verbose:
        for i, s in enumerate(stats.steps):
            print(f"  step {i}: accepted {s.accepted_n}, emitted {s.tokens_emitted}")
    if args.timing:
        print(
            f"wall time: {stats.total_wall_time:.4f}s "
            "(toy backends; not a production throughput number)"
        )
    if args.out:
        write_decode_stats(stats, args.out, include_diagnostics=args.full_stats)
        print(f"stats written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    _, spec = build_spec(
        args,
        _template_text(args, sweep=True),
        _prompt_texts(args, sweep=True),
        alphas=_grid(args.alpha, float),
        gammas=_grid(args.gamma, int),
        strategies=_grid(args.strategy, str.strip),
        etas=_grid(args.eta, float),
        seeds=_grid(args.seeds, int),
    )
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


def _grid(text: str, parse) -> tuple:
    """Values of a comma-separated grid flag; empty items are skipped."""
    return tuple(parse(v) for v in text.split(",") if v.strip())


if __name__ == "__main__":
    sys.exit(main())
