"""Uncertainty-aware tree search over language-model reasoning steps.

States grow one thought at a time; each candidate is valued by repeated
sampling under a temperature schedule, the sample variance is its local
uncertainty, and search (beam or depth-first) selects by the confidence
ratio value / (uncertainty + epsilon).
"""

from .backends import (
    Backend,
    BackendRequest,
    BackendResponse,
    HttpBackend,
    ResponseCache,
    cached_generate,
    generate,
)
from .model import (
    BackendUnavailableError,
    InvalidArgumentError,
    RunRecord,
    SearchConfig,
    SearchExhaustedError,
    StateStore,
    Transcript,
    extend_state,
)
from .search import run_method, tout_bfs, tout_dfs
from .uncertainty import (
    aggregate_value,
    confidence_score,
    evaluate_state,
    temperature_schedule,
    variance,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendRequest",
    "BackendResponse",
    "BackendUnavailableError",
    "HttpBackend",
    "InvalidArgumentError",
    "ResponseCache",
    "RunRecord",
    "SearchConfig",
    "SearchExhaustedError",
    "StateStore",
    "Transcript",
    "aggregate_value",
    "cached_generate",
    "confidence_score",
    "evaluate_state",
    "extend_state",
    "generate",
    "run_method",
    "temperature_schedule",
    "tout_bfs",
    "tout_dfs",
    "variance",
    "__version__",
]
