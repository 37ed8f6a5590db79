"""Online budget-constrained adapter selection from noisy on/off audits.

The engine repeatedly trains the active adapter set, audits sampled units by
toggling their gates against a validation oracle, smooths the noisy
utilities, and re-solves a density-greedy knapsack under a parameter budget,
with vote-counter hysteresis suppressing configuration chatter. A final
guard-free re-solve picks the configuration that is re-finetuned from
scratch.
"""

__version__ = "0.1.0"

from . import errors
from .allocator import (
    AllocatorParams,
    Budget,
    apply_hysteresis,
    brute_force_optimum,
    final_resolve,
    gate_cost,
    greedy_allocate,
    swap_resolve,
)
from .driver import (
    LoopDriver,
    RunConfig,
    RunReport,
    compute_diagnostics,
    default_oracle_spec,
    default_run_config,
    run_full,
    run_random_baseline,
    sweep,
    write_diagnostics_csv,
)
from .fsm import FsmParams, FsmStabilizer
from .oracle import (
    OracleSpec,
    ReplayOracle,
    SyntheticOracle,
    TraceRecordingOracle,
    gates_to_bits,
    replay_trace,
)
from .sampler import SamplerParams, coverage_lower_bound, sample_audit_batch
from .space import (
    AdapterUnit,
    AuditSpace,
    BackboneDesc,
    Family,
    Slot,
    Template,
    Topology,
    default_backbone,
    default_space,
    default_templates,
    raw_param_count,
)
from .tracker import SmoothingParams, UtilityTable, UtilityTracker

