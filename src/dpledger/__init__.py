"""Multi-group Gaussian aggregation with clipping, an append-only privacy
ledger, and post-hoc Renyi-DP accounting.

The trusted core is small on purpose: mechanisms emit (clip bound, noise
std) tuples, the ledger records them next to the sampling facts, and the
accountant recomputes the guarantee from the ledger alone. Strategy code
(noise allocation, clip splitting, calibration, the training harness) can
be arbitrarily wrong without making the reported epsilon wrong, because it
only influences what gets recorded, never how records are interpreted.
"""

from .accountant import (
    Knob,
    OrderGrid,
    PrivacyGuarantee,
    RdpProfile,
    account_ledger,
    baseline_guarantee,
    baseline_noise_multiplier,
    calibrate,
    compose_rdp,
    epsilon_at_delta,
    rdp_step,
)
from .allocation import (
    AllocationRequest,
    AllocationStrategy,
    ClipSplit,
    allocate,
    dim_adjusted_allocation,
    effective_z,
    proportional_allocation,
    split_clip_budget,
)
from .errors import (
    AccountingRefusal,
    CalibrationError,
    ConfigurationError,
    InfiniteSensitivityError,
    InsecureLedgerError,
    LedgerParseError,
    LedgerUsageError,
    SensitivityRangeError,
    UnsupportedPolicyError,
)
from .harness import (
    SyntheticDataset,
    TrainConfig,
    TrainReport,
    dp_sgd_train,
    generate_synthetic,
    make_sgd_partition,
    sigmas_for_target_z,
)
from .ledger import (
    Ledger,
    RoundQuery,
    SampleEvent,
    SumQueryEvent,
    deserialize,
    formal_ledger,
    serialize,
)
from .mechanisms import (
    EffectiveQuery,
    GroupEstimate,
    RoundContext,
    gaussian_sum,
    joint_group_query,
    microbatch_reduce,
    round_compose,
    run_partitioned_round,
    separate_group_query,
)
from .prng import SecureStream, coerce_seed, new_seed
from .sampling import (
    AccountingSupport,
    Sample,
    SamplerConfig,
    SamplingPolicy,
    draw_sample,
    fixed_size_sample,
    partition_epoch,
    poisson_sample,
    policy_accounting_support,
)
from .vectors import (
    GroupPartition,
    GroupSpec,
    Mechanism,
    PrivacyTuple,
    RecordVectors,
    clip_rows,
    clip_to_norm,
)

__version__ = "0.1.0"
