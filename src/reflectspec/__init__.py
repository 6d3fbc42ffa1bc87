"""Speculative decoding with reflective verification on toy model backends.

Drafts are verified by playing them twice around a reflection probe in one
forward pass, fusing the paired logits, and handing the fused distribution
to an exact-match, speculative-sampling, or typical-sampling acceptance
rule. Deterministic toy backends make every pipeline claim checkable by
enumeration or from-scratch replay.
"""

from .bench import (
    ReportRow,
    SweepSpec,
    emit_report,
    mean_accepted_tokens,
    run_sweep,
    write_decode_stats,
)
from .drafting import DraftBundle, generate_draft
from .engine import DecodeConfig, RunStats, StepStats, commit_and_prune, decode
from .errors import (
    DegenerateResidualError,
    InternalConsistencyError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidLogitsError,
    InvalidTokenError,
    ReflectSpecError,
    SessionRangeError,
)
from .models import (
    BlendModel,
    Model,
    ModelSession,
    ModelSpec,
    NgramModel,
    ReflectionAwareModel,
    TableModel,
    build_model,
    pair_models,
)
from .reflective import (
    DEFAULT_TEMPLATE_TEXT,
    ReflectiveLayout,
    ReflectiveTemplate,
    build_reflective_input,
    fuse,
    paired_forward,
    resolve_template,
)
from .tokens import (
    derive_seed,
    entropy,
    make_rng,
    one_hot,
    sample,
    sampling_distribution,
    softmax,
)
from .verification import (
    VerificationResult,
    exact_step_distribution,
    residual_distribution,
    typical_threshold,
    verify_exact_match,
    verify_speculative_sampling,
    verify_typical,
)

__version__ = "0.1.0"
