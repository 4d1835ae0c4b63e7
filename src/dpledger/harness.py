"""Desk-scale private training demo: logistic regression under the full
sample / clip / noise / record / account pipeline.

The model is binary logistic regression with two parameter groups
(weights, bias) plus a third privatized group carrying a per-record
correctness indicator, so every round answers heterogeneous queries: two
gradient averages and one metric average. The indicator lives in [0, 1],
so its clip bound of 1 is a prior fact about the query, not a data-derived
choice. Averages always divide by q * n, never by the realized sample
size, and the true (non-noisy) metric never reaches any report.

A run states its sampling rate once, as TrainConfig.q. dp_sgd_train
makes it the one Poisson SamplerConfig of the run, and every round
records and divides by that config's q, the rate at which the sampler
includes each record, exactly.

No round loops over its records: one forward pass gives the sampled
examples' probabilities, from which come their gradients (m x dim,
written over the gathered features), bias gradients and indicators
(m x 1 each); these are checked for finiteness once and pass through
microbatch_reduce and the group queries as one batch of blocks.

Determinism contract: (seed, config) fixes the dataset, every sample,
every noise draw, the ledger bytes, and therefore the reported guarantee.
It holds although rounds are sampled ahead: while the main thread draws
the dataset and the holdout, one worker thread draws rounds 0, 1, ... in
order, and the loop draws any round after those itself. A round's sample
is a function of (seed, round) alone, so which thread draws it changes
no bit. Likewise a round's noise is a function of (seed, group, round)
alone, so the loop draws it for a batch of rounds at a time, and the
batch size changes no bit either.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .accountant import PrivacyGuarantee, account_ledger
from .allocation import AllocationRequest, AllocationStrategy, allocate
from .errors import AccountingRefusal
from .ledger import Ledger, SamplingPolicy, _check_round, serialize
from .mechanisms import (
    RoundContext,
    draw_round_noise,
    microbatch_reduce,
    run_partitioned_round,
)
from .prng import _PAIR_BLOCK, SecureStream, coerce_seed
from .sampling import Sample, SamplerConfig, draw_sample
from .vectors import GroupPartition, GroupSpec, Mechanism

# Rounds whose noise one draw_round_noise call draws: enough to spread a
# Box-Muller pass's per-call cost over many rounds. dp_sgd_train takes
# fewer when a group's batch would exceed one _PAIR_BLOCK of pairs (but
# never fewer than one round), so a batch's memory stays bounded.
_NOISE_BATCH_ROUNDS = 50


@dataclass(frozen=True)
class SyntheticDataset:
    """Two Gaussian clusters with labels alternating 0, 1, 0, 1, ..."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be n x dim, labels a length-n vector")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on n")


def generate_synthetic(
    n: int, dim: int, separation: float, seed, *, stream_index: int = 0
) -> SyntheticDataset:
    """Deterministic two-cluster classification data.

    Labels alternate exactly (class balance is exact for even n). Features
    are standard Gaussians shifted +/- separation/2 along one fixed random
    unit direction. stream_index selects a disjoint random stream so a
    held-out split can be drawn independently of the training split.
    """
    if n < 2:
        raise ValueError(f"need at least 2 examples, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if not (math.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be nonnegative, got {separation}")
    seed = coerce_seed(seed)
    # The cluster axis comes from its own stream so every stream_index
    # (train, holdout) sees the same geometry, just disjoint noise.
    axis_stream = SecureStream(seed, "synthetic-axis", 0)
    direction = axis_stream.standard_normal(dim)
    norm = float(np.sqrt(np.dot(direction, direction)))
    if norm == 0.0:
        direction = np.zeros(dim)
        direction[0] = 1.0
    else:
        direction = direction / norm
    stream = SecureStream(seed, "synthetic-data", stream_index)
    labels = np.arange(n, dtype=np.int64) % 2
    # The noise draw becomes the features in place: label-0 (even) rows
    # move by -offset, label-1 (odd) rows by +offset.
    features = stream.standard_normal(n * dim).reshape(n, dim)
    offset = (separation / 2.0) * direction
    features[0::2] -= offset
    features[1::2] += offset
    return SyntheticDataset(features=features, labels=labels)


def forward_probabilities(features: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """P(label = 1 | x) under the logistic model, numerically stable."""
    u = features @ w + b
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def per_example_gradients(
    features: np.ndarray,
    labels: np.ndarray,
    probabilities: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """d loss / d(w, b) for every example, from its P(label = 1 | x) at
    the current parameters: ((p - y) x, (p - y)). The weight gradients are
    written to out if given, which may be features itself."""
    residual = probabilities - labels
    return np.multiply(features, residual[:, None], out=out), residual


def make_sgd_partition(
    *,
    clip_weights: float,
    clip_bias: float,
    sigma_weights: float,
    sigma_bias: float,
    sigma_metrics: float,
) -> GroupPartition:
    """Weights, bias, and the correctness-indicator metric as three
    separate-mechanism groups. Sigmas are per-average noise stds. Groups
    carry no dimensions; the blocks do."""
    groups = (
        GroupSpec(
            member_names=("weights",),
            mechanism=Mechanism.SEPARATE,
            clip_s=clip_weights,
            noise_sigma=sigma_weights,
        ),
        GroupSpec(
            member_names=("bias",),
            mechanism=Mechanism.SEPARATE,
            clip_s=clip_bias,
            noise_sigma=sigma_bias,
        ),
        GroupSpec(
            member_names=("metrics",),
            mechanism=Mechanism.SEPARATE,
            clip_s=1.0,
            noise_sigma=sigma_metrics,
        ),
    )
    return GroupPartition(groups=groups)


def sigmas_for_target_z(
    target_z: float, clip_bounds, q: float, n: int
) -> tuple[float, ...]:
    """Per-average sigmas that make one round's effective multiplier
    exactly target_z: the proportional allocation's sum-level sigmas
    z * sqrt(G) * S_g, divided by q * n."""
    _check_round(q, n)
    # Proportional allocation does not read the dimensions; 1 stands in.
    req = AllocationRequest(
        target_z=target_z,
        group_bounds=tuple((s, 1) for s in clip_bounds),
        strategy=AllocationStrategy.PROPORTIONAL,
    )
    return tuple(sigma / (q * n) for sigma in allocate(req))


@dataclass(frozen=True)
class TrainConfig:
    """Everything dp_sgd_train needs; see field comments for semantics."""

    n: int
    dim: int
    rounds: int
    q: float
    microbatch_size: int
    partition: GroupPartition
    learning_rate: float
    seed: bytes
    delta: float
    separation: float = 4.0
    holdout_n: int = 1000
    insecure_test_mode: bool = False
    ledger_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", coerce_seed(self.seed))
        _check_round(self.q, self.n)
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.microbatch_size < 1:
            raise ValueError(
                f"microbatch_size must be at least 1, got {self.microbatch_size}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.holdout_n < 2:
            raise ValueError(f"holdout_n must be at least 2, got {self.holdout_n}")
        if not (math.isfinite(self.separation) and self.separation >= 0):
            raise ValueError(
                f"separation must be finite and nonnegative, got {self.separation}"
            )
        names = self.partition.member_names()
        if names != {"weights", "bias", "metrics"}:
            raise ValueError(
                f"partition must cover exactly weights/bias/metrics, got {sorted(names)}"
            )
        zero_noise = [g.name for g in self.partition.groups if g.noise_sigma == 0.0]
        if zero_noise and not self.insecure_test_mode:
            raise ValueError(
                f"groups {zero_noise} have zero noise; set insecure_test_mode=True "
                f"to run without privacy"
            )


def _sample_ahead(
    sampler: SamplerConfig, rounds: int, ahead: deque[Sample], stop: threading.Event
) -> None:
    """Draw rounds 0, 1, ... into ahead until stop is set or every round is
    drawn. A failure ends the look-ahead quietly: the loop then draws the
    missing round itself, and raises there."""
    for t in range(rounds):
        if stop.is_set():
            return
        try:
            ahead.append(draw_sample(sampler, t))
        except Exception:
            return


@dataclass(frozen=True)
class TrainReport:
    """Training outcome. holdout_accuracy is a non-private test-harness
    measurement on held-out synthetic data; metric_estimates are the
    privatized per-round indicators, the only metric stream that exists."""

    holdout_accuracy: float
    metric_estimates: tuple[float, ...]
    ledger: Ledger
    ledger_path: str | None
    guarantee: PrivacyGuarantee | None
    refusal: str | None


def dp_sgd_train(cfg: TrainConfig) -> TrainReport:
    """Run the full pipeline and account the emitted ledger.

    Per round: sample records, compute per-example gradients and the
    correctness indicator at the current parameters, reduce microbatches,
    answer each group's noisy average query, step the parameters by the
    noisy gradient estimate, and append the round's events to the ledger.
    If the accountant refuses the finished ledger (zero-noise rounds) the
    report carries the refusal text instead of a number pretending to be a
    guarantee.
    """
    sampler = SamplerConfig(SamplingPolicy.POISSON_IID, cfg.n, cfg.seed, q=cfg.q)
    # Sampling does not depend on the model, so rounds are drawn ahead on
    # a worker thread while this one draws the data.
    ahead: deque[Sample] = deque()
    stop = threading.Event()
    worker = threading.Thread(
        target=_sample_ahead,
        args=(sampler, cfg.rounds, ahead, stop),
        name="dpledger-sample-ahead",
    )
    worker.start()
    try:
        data = generate_synthetic(cfg.n, cfg.dim, cfg.separation, cfg.seed)
        holdout = generate_synthetic(
            cfg.holdout_n, cfg.dim, cfg.separation, cfg.seed, stream_index=1
        )
    finally:
        stop.set()
        worker.join()

    labels = data.labels.astype(np.float64)
    widths = {"weights": cfg.dim, "bias": 1, "metrics": 1}
    # No group is wider than all members together.
    widest_pairs = (sum(widths.values()) + 1) // 2
    batch_rounds = max(1, min(_NOISE_BATCH_ROUNDS, _PAIR_BLOCK // widest_pairs))
    w = np.zeros(cfg.dim)
    b = 0.0
    ledger = Ledger()
    metric_estimates: list[float] = []

    for t in range(cfg.rounds):
        round_id = ledger.record_sample(sampler.q, cfg.n, sampler.policy.value)
        if t % batch_rounds == 0:
            noise_rounds = range(t, min(t + batch_rounds, cfg.rounds))
            noise = draw_round_noise(cfg.seed, cfg.partition, widths, noise_rounds)
        sample = ahead.popleft() if ahead else draw_sample(sampler, t)
        xs = data.features.take(sample.indices, axis=0)
        ys = labels.take(sample.indices)
        probs = forward_probabilities(xs, w, b)
        correct = ((probs >= 0.5) == (ys == 1.0)).astype(np.float64)
        grad_w, grad_b = per_example_gradients(xs, ys, probs, out=xs)
        if not (np.isfinite(grad_w).all() and np.isfinite(grad_b).all()):
            raise ValueError(f"non-finite gradients in round {round_id}")
        batch = microbatch_reduce(
            {"weights": grad_w, "bias": grad_b[:, None], "metrics": correct[:, None]},
            cfg.microbatch_size,
        )
        ctx = RoundContext(
            q=sampler.q,
            n=cfg.n,
            round_id=round_id,
            insecure_test_mode=cfg.insecure_test_mode,
        )
        round_noise = {name: rows[t % batch_rounds] for name, rows in noise.items()}
        estimates = run_partitioned_round(
            batch, cfg.partition, ctx, round_noise, ledger=ledger
        )
        ledger.close_round()

        by_member = {
            member: value
            for est in estimates.values()
            for member, value in zip(est.member_names, est.estimates)
        }
        metric_estimates.append(float(by_member["metrics"][0]))
        w = w - cfg.learning_rate * by_member["weights"]
        b = b - cfg.learning_rate * float(by_member["bias"][0])

    holdout_scores = holdout.features @ w + b
    holdout_acc = float(np.mean((holdout_scores >= 0.0) == (holdout.labels == 1)))

    ledger_path = cfg.ledger_path
    if ledger_path is not None:
        with open(ledger_path, "wb") as fh:
            fh.write(serialize(ledger))

    guarantee = None
    refusal = None
    try:
        guarantee = account_ledger(ledger, cfg.delta)
    except AccountingRefusal as exc:
        refusal = str(exc)

    return TrainReport(
        holdout_accuracy=holdout_acc,
        metric_estimates=tuple(metric_estimates),
        ledger=ledger,
        ledger_path=ledger_path,
        guarantee=guarantee,
        refusal=refusal,
    )
