"""Multi-group Gaussian aggregation with clipping, an append-only privacy
ledger, and post-hoc Renyi-DP accounting.

The trusted core is two modules, ledger and accountant, which import
nothing else from the package but errors: ledger bytes -> epsilon reads no
other code. Mechanisms emit (clip bound, noise std) tuples, the ledger
records them next to the sampling facts, and the accountant recomputes the
guarantee from the ledger alone. Strategy code (sampling, mechanisms,
allocation, calibration, the training harness) imports from the core,
never the reverse, and can be arbitrarily wrong without making the
reported epsilon wrong, because it only influences what gets recorded,
never how records are interpreted.

Each exported name is imported from its submodule on first access, so
importing the package, or the core alone, loads nothing else.
"""

import importlib

_MODULE_OF = {
    "AccountingSupport": "accountant",
    "OrderGrid": "accountant",
    "PrivacyGuarantee": "accountant",
    "RdpProfile": "accountant",
    "account_ledger": "accountant",
    "compose_rdp": "accountant",
    "epsilon_at_delta": "accountant",
    "policy_accounting_support": "accountant",
    "rdp_step": "accountant",
    "AllocationRequest": "allocation",
    "AllocationStrategy": "allocation",
    "ClipSplit": "allocation",
    "Knob": "allocation",
    "allocate": "allocation",
    "calibrate": "allocation",
    "dim_adjusted_allocation": "allocation",
    "effective_z": "allocation",
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
    "EffectiveQuery": "ledger",
    "Ledger": "ledger",
    "PrivacyTuple": "ledger",
    "RoundQuery": "ledger",
    "SampleEvent": "ledger",
    "SamplingPolicy": "ledger",
    "SumQueryEvent": "ledger",
    "deserialize": "ledger",
    "formal_ledger": "ledger",
    "round_compose": "ledger",
    "serialize": "ledger",
    "GroupEstimate": "mechanisms",
    "RoundContext": "mechanisms",
    "gaussian_sum": "mechanisms",
    "joint_group_query": "mechanisms",
    "microbatch_reduce": "mechanisms",
    "run_partitioned_round": "mechanisms",
    "separate_group_query": "mechanisms",
    "SecureStream": "prng",
    "coerce_seed": "prng",
    "new_seed": "prng",
    "Sample": "sampling",
    "SamplerConfig": "sampling",
    "draw_sample": "sampling",
    "fixed_size_sample": "sampling",
    "partition_epoch": "sampling",
    "poisson_sample": "sampling",
    "GroupPartition": "vectors",
    "GroupSpec": "vectors",
    "Mechanism": "vectors",
    "RecordVectors": "vectors",
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
