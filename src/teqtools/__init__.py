"""Tournament equilibrium set machinery and the order-24 two-minimal-sets instance."""

from .core import (
    MAX_ORDER,
    AltSet,
    FormatError,
    Tournament,
    altset,
    derive_seed,
    dominators,
    find_isomorphism,
    full_set,
    is_isomorphism,
    members,
    parse,
    random_tournament,
    restrict,
    serialize,
)
from .counterexample import (
    CounterexampleInstance,
    VerificationReport,
    build_counterexample,
    verify_claims,
)
from .search import SearchConfig, SearchReport, compose_structured, search_random
from .teq import (
    DeadlineExceeded,
    TeqCache,
    bruteforce_minimal_retentive_sets,
    is_retentive,
    minimal_retentive_sets,
    teq_bruteforce,
    teq_of_subset,
)

__version__ = "0.1.0"
