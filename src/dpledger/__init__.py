"""Multi-group Gaussian aggregation with clipping, an append-only privacy
ledger, and post-hoc Renyi-DP accounting.

The trusted core is two modules, ledger and accountant, which import
nothing else from the package but errors: ledger bytes -> epsilon reads no
other code. Mechanisms emit (clip bound, noise std) tuples, the ledger
records them next to the sampling facts, and the accountant recomputes the
guarantee from the ledger alone. Strategy code imports from the core,
never the reverse.

The reported epsilon holds for the rounds that ran only if the recorded
facts are true of them, and two steps outside the core are trusted to
make them true. The sampler must include each record independently at
exactly the recorded rate q: the harness records the q of the one
sampling.SamplerConfig it draws with, a multiple of 2^-64, and
sampling.draw_sample includes each record at exactly that q.
mechanisms.group_query must keep each record's effect on each group's
pre-noise sum within the recorded clip, and add the recorded sigma_sum
times the row of unit Gaussians it is given. Those rows must be
independent: mechanisms.draw_round_noise draws each group's row for each
round from its own keyed stream, and the harness must hand each round
its own rows and reuse none. Allocation and calibration only choose the
values that get recorded, so a mistake there changes the guarantee
without making it wrong. The known break is microbatch_reduce at size
k > 1: each row it hands group_query averages several records picked by
their position in the sample, so one added record moves a group's sum by
far more than its clip (ROADMAP item 1).

Each exported name is imported from its submodule on first access, so
importing the package, or the core alone, loads nothing else.
"""

import importlib

_MODULE_OF = {
    "OrderGrid": "accountant",
    "PrivacyGuarantee": "accountant",
    "RdpProfile": "accountant",
    "account_ledger": "accountant",
    "compose_rdp": "accountant",
    "epsilon_at_delta": "accountant",
    "rdp_step": "accountant",
    "AllocationRequest": "allocation",
    "AllocationStrategy": "allocation",
    "ClipSplit": "allocation",
    "Knob": "allocation",
    "allocate": "allocation",
    "calibrate": "allocation",
    "dim_adjusted_allocation": "allocation",
    "proportional_allocation": "allocation",
    "split_clip_budget": "allocation",
    "AccountingRefusal": "errors",
    "CalibrationError": "errors",
    "ConfigurationError": "errors",
    "InfiniteSensitivityError": "errors",
    "InsecureLedgerError": "errors",
    "LedgerParseError": "errors",
    "LedgerUsageError": "errors",
    "SensitivityRangeError": "errors",
    "UnsupportedPolicyError": "errors",
    "SyntheticDataset": "harness",
    "TrainConfig": "harness",
    "TrainReport": "harness",
    "dp_sgd_train": "harness",
    "generate_synthetic": "harness",
    "make_sgd_partition": "harness",
    "sigmas_for_target_z": "harness",
    "FormalRow": "ledger",
    "Ledger": "ledger",
    "PrivacyTuple": "ledger",
    "SampleEvent": "ledger",
    "SamplingPolicy": "ledger",
    "SumQueryEvent": "ledger",
    "deserialize": "ledger",
    "effective_z": "ledger",
    "formal_ledger": "ledger",
    "serialize": "ledger",
    "GroupEstimate": "mechanisms",
    "RoundContext": "mechanisms",
    "draw_round_noise": "mechanisms",
    "gaussian_sum": "mechanisms",
    "group_query": "mechanisms",
    "microbatch_reduce": "mechanisms",
    "run_partitioned_round": "mechanisms",
    "SecureStream": "prng",
    "coerce_seed": "prng",
    "new_seed": "prng",
    "Sample": "sampling",
    "SamplerConfig": "sampling",
    "draw_sample": "sampling",
    "fixed_size_sample": "sampling",
    "partition_epoch": "sampling",
    "GroupPartition": "vectors",
    "GroupSpec": "vectors",
    "Mechanism": "vectors",
    "clip_rows": "vectors",
    "clip_to_norm": "vectors",
}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # A name outside the table raises AttributeError, so `from dpledger
    # import cli` falls through to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
