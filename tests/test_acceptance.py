"""Acceptance gate: one test per criterion, one printed verdict line each.

Every test times its own work where a runtime budget applies, and every
expected number is either an algebraic identity, a quadrature-oracle value
computed in this session, or a statistical bound at three standard errors
on fixed CSPRNG streams (deterministic, not flaky).
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_QZ, ORACLE_ORDERS, criterion, open_ledger
from dpledger import (
    ClipSplit,
    GroupSpec,
    Knob,
    Ledger,
    OrderGrid,
    SamplerConfig,
    SamplingPolicy,
    SecureStream,
    TrainConfig,
    account_ledger,
    calibrate,
    clip_rows,
    compose_rdp,
    deserialize,
    dim_adjusted_allocation,
    dp_sgd_train,
    draw_sample,
    effective_z,
    epsilon_at_delta,
    group_query,
    make_sgd_partition,
    partition_epoch,
    proportional_allocation,
    rdp_step,
    serialize,
    split_clip_budget,
)
from dpledger.cli import main
from dpledger.sampling import fixed_size_sample

DELTA = 1e-5


def test_criterion_01_single_query_equivalence():
    with criterion(1, "per-group mechanisms equal one normalized query (rel 1e-9)"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        q, n = 0.25, 8
        for gi, g_count in enumerate((1, 2, 5)):
            for k in (1, 3):
                specs = []
                dims = {}
                for g in range(g_count):
                    members = tuple(f"g{g}m{j}" for j in range(k))
                    specs.append(
                        GroupSpec(
                            member_names=members,
                            clip_s=float(rng.uniform(0.5, 3.0)),
                            sigma_sum=q * n * float(rng.uniform(0.05, 0.5)),
                            name=f"g{g}",
                        )
                    )
                    dims[f"g{g}"] = tuple(int(rng.integers(2, 5)) for _ in range(k))
                total_dim = sum(sum(d) for d in dims.values())
                records = [
                    {
                        m: rng.normal(size=dims[s.name][j])
                        for s in specs
                        for j, m in enumerate(s.member_names)
                    }
                    for _ in range(3)
                ]
                batch = {m: np.array([rec[m] for rec in records]) for m in records[0]}
                master = SecureStream(
                    1000 + gi, f"acceptance-eq/{g_count}/{k}", 0
                ).standard_normal(total_dim)

                at = 0
                per_group = {}
                ledger = open_ledger(q, n)
                for spec in specs:
                    d = sum(dims[spec.name])
                    per_group[spec.name] = group_query(
                        batch, spec, master[at : at + d], ledger=ledger
                    )
                    at += d

                sigma_sums = {s.name: s.sigma_sum for s in specs}
                scaled_rows = []
                for rec in records:
                    parts = []
                    for spec in specs:
                        v = np.concatenate([rec[m] for m in spec.member_names])
                        clipped = clip_rows(v[None, :], spec.clip_s)[0]
                        parts.append(clipped / sigma_sums[spec.name])
                    scaled_rows.append(np.concatenate(parts))
                combined = np.array(scaled_rows).sum(axis=0) + master
                assert combined.shape == (total_dim,)

                at = 0
                for spec in specs:
                    d = sum(dims[spec.name])
                    expect = combined[at : at + d] * sigma_sums[spec.name] / (q * n)
                    got = np.concatenate(
                        [per_group[spec.name][m] for m in spec.member_names]
                    )
                    assert np.allclose(got, expect, rtol=1e-9, atol=0.0)
                    at += d
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_criterion_02_joint_clip_noise_scales():
    with criterion(2, "joint scales (1, 100) give output noise stds (0.01, 1.0)"):
        start = time.perf_counter()
        spec = GroupSpec(
            member_names=("a", "b"),
            clip_s=1.0,
            sigma_sum=0.01,
            joint_scales=(1.0, 100.0),
        )
        ledger = open_ledger(1.0, 1)
        stream = SecureStream(b"acceptance-c2-00", "noise/a+b", 0)
        reps = 100_000
        first = np.empty(reps)
        second = np.empty(reps)
        empty = {"a": np.empty((0, 1)), "b": np.empty((0, 1))}
        for i in range(reps):
            est = group_query(empty, spec, stream.standard_normal(2), ledger=ledger)
            first[i] = est["a"][0]
            second[i] = est["b"][0]
        assert abs(first.std() / 0.01 - 1.0) <= 0.02
        assert abs(second.std() / 1.0 - 1.0) <= 0.02
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_03_flat_and_per_layer_recovery():
    with criterion(3, "flat and per-layer clipping recovered exactly"):
        rng = np.random.default_rng(3)
        layer_dims = {"l1": 3, "l2": 2, "l3": 4}
        names = tuple(layer_dims)
        total_dim = sum(layer_dims.values())
        q, n = 0.5, 4
        ledger = open_ledger(q, n)
        sigma_sum = q * n * 0.25
        records = [{m: rng.normal(size=layer_dims[m]) for m in names} for _ in range(2)]
        batch = {m: np.array([rec[m] for rec in records]) for m in names}
        total_s = 2.0

        # flat: the whole parameter vector is one group with the whole budget
        (flat_s,) = split_clip_budget(total_s, layer_dims.values(), ClipSplit.FLAT)
        noise = SecureStream(b"acceptance-c3-00", "flat", 0).standard_normal(total_dim)
        spec = GroupSpec(
            member_names=names, clip_s=flat_s, sigma_sum=sigma_sum, name="all",
        )
        est = group_query(batch, spec, noise, ledger=ledger)
        got = np.concatenate([est[m] for m in names])
        # the group's rule on each record alone: a noiseless query of it
        alone = open_ledger(1.0, 1)
        quiet = GroupSpec(member_names=names, clip_s=flat_s, sigma_sum=0.0)
        clipped = []
        for r in records:
            one = {m: r[m][None, :] for m in names}
            out = group_query(
                one, quiet, np.zeros(total_dim), ledger=alone, insecure_test_mode=True
            )
            clipped.append(np.concatenate([out[m] for m in names]))
            # flat clipping scales the whole vector by one factor
            v = np.concatenate([r[m] for m in names])
            scale = min(1.0, flat_s / math.sqrt(np.dot(v, v)))
            assert np.allclose(clipped[-1], scale * v, rtol=1e-12, atol=0.0)
        manual = (clipped[0] + clipped[1] + sigma_sum * noise) / (q * n)
        assert np.array_equal(got, manual)

        # per-layer: one group per member, each holding total_s / sqrt(m)
        bounds = split_clip_budget(
            total_s, [layer_dims[m] for m in names], ClipSplit.PER_LAYER
        )
        assert all(b == total_s / math.sqrt(len(names)) for b in bounds)
        at = 0
        for m, bound in zip(names, bounds):
            d = layer_dims[m]
            layer_noise = noise[at : at + d]
            at += d
            spec = GroupSpec(
                member_names=(m,), clip_s=bound, sigma_sum=sigma_sum,
            )
            est = group_query(batch, spec, layer_noise, ledger=ledger)
            manual = (
                clip_rows(records[0][m][None, :], bound)[0]
                + clip_rows(records[1][m][None, :], bound)[0]
                + sigma_sum * layer_noise
            ) / (q * n)
            assert np.array_equal(est[m], manual)


def test_criterion_04_full_sampling_rdp_exact():
    with criterion(4, "rdp_step(q=1, z) = order/(2 z^2) to 1e-12"):
        grid = OrderGrid(tuple(float(v) for v in range(2, 65)))
        for z in (0.5, 1.0, 2.0):
            profile = rdp_step(1.0, z, grid)
            for lam, got in zip(grid.orders, profile.values):
                assert abs(got - lam / (2.0 * z * z)) <= 1e-12


def test_criterion_05_rdp_matches_quadrature_oracle(oracle_table):
    with criterion(5, "binomial-expansion RDP matches quadrature (rel 1e-6)"):
        start = time.perf_counter()
        grid = OrderGrid(tuple(float(v) for v in ORACLE_ORDERS))
        worst = 0.0
        for q, z in ACCEPTANCE_QZ:
            profile = rdp_step(q, z, grid)
            for lam, got in zip(ORACLE_ORDERS, profile.values):
                want = oracle_table.rdp(q, z, lam)
                rel = abs(got - want) / want
                worst = max(worst, rel)
                assert rel <= 1e-6, (q, z, lam, got, want)
        elapsed = oracle_table.elapsed_seconds + (time.perf_counter() - start)
        print(f"  worst relative error {worst:.3e}, oracle+check {elapsed:.1f}s")
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def _thousand_round_ledger() -> Ledger:
    led = Ledger()
    for _ in range(1000):
        rid = led.record_sample(q=0.01, n=10_000, policy_tag="poisson_iid")
        led.record_sum_query(rid, clip_s=1.0, sigma_sum=1.1, group_name="weights")
        led.close_round()
    return led


def test_criterion_06_end_to_end_accounting(oracle_table):
    with criterion(6, "T=1000 epsilon matches oracle (rel 1e-4), bit-stable"):
        led = _thousand_round_ledger()
        first = account_ledger(led, DELTA)
        second = account_ledger(led, DELTA)
        assert second.epsilon == first.epsilon
        assert second.achieving_order == first.achieving_order

        reread = account_ledger(deserialize(serialize(led)), DELTA)
        assert reread.epsilon == first.epsilon
        assert reread.achieving_order == first.achieving_order

        candidates = [
            1000.0 * oracle_table.rdp(0.01, 1.1, lam)
            + math.log(1.0 / DELTA) / (lam - 1.0)
            for lam in ORACLE_ORDERS
        ]
        oracle_eps = min(candidates)
        assert math.isfinite(first.epsilon)
        assert abs(first.epsilon - oracle_eps) / oracle_eps <= 1e-4
        print(f"  epsilon {first.epsilon!r} vs oracle {oracle_eps!r}")


def _eps_of(q, z, rounds):
    return epsilon_at_delta(compose_rdp([rdp_step(q, z)] * rounds), DELTA).epsilon


def test_criterion_07_calibration_self_consistency():
    with criterion(7, "calibrating z and q hits epsilon 2.0 within 1e-3"):
        z = calibrate(
            2.0, DELTA, rounds=1000, knob=Knob.NOISE_MULTIPLIER, q=0.01,
            bounds=(0.5, 4.0), tolerance=1e-3,
        )
        assert abs(_eps_of(0.01, z, 1000) - 2.0) <= 1e-3
        q = calibrate(
            2.0, DELTA, rounds=1000, knob=Knob.SAMPLING_RATE, z=1.1,
            bounds=(1e-4, 0.5), tolerance=1e-3,
        )
        assert abs(_eps_of(q, 1.1, 1000) - 2.0) <= 1e-3

        probe_eps_q = [_eps_of(x, 1.1, 100) for x in (0.002, 0.01, 0.05, 0.2, 0.5)]
        assert all(a < b for a, b in zip(probe_eps_q, probe_eps_q[1:]))
        probe_eps_z = [_eps_of(0.01, x, 100) for x in (0.6, 0.9, 1.3, 2.0, 3.0)]
        assert all(a > b for a, b in zip(probe_eps_z, probe_eps_z[1:]))


def test_criterion_08_allocation_conservation():
    with criterion(8, "allocations return effective_z = target_z to 1e-12"):
        rng = np.random.default_rng(88)
        for strategy in ("proportional", "dim_adjusted"):
            for _ in range(1000):
                g = int(rng.integers(1, 9))
                target = float(rng.uniform(0.3, 5.0))
                bounds = tuple(
                    (float(rng.uniform(0.1, 4.0)), int(rng.integers(1, 500)))
                    for _ in range(g)
                )
                clips, dims = zip(*bounds)
                if strategy == "proportional":
                    sigmas = proportional_allocation(target, clips)
                else:
                    sigmas = dim_adjusted_allocation(target, clips, dims)
                tuples = [(s, sig) for (s, _), sig in zip(bounds, sigmas)]
                got = effective_z(tuples)
                assert abs(got - target) <= 1e-12 * target, (strategy, got, target)


def test_criterion_09_sampler_statistics():
    with criterion(9, "sampler statistics within 3 standard errors; disjoint partitions"):
        # Poisson mean sample size
        n, q, trials = 10_000, 0.01, 1000
        cfg = SamplerConfig(
            policy=SamplingPolicy.POISSON_IID, n=n, seed=b"acceptance-c9-p0", q=q
        )
        sizes = [len(draw_sample(cfg, t).indices) for t in range(trials)]
        se = math.sqrt(n * q * (1.0 - q) / trials)
        assert abs(float(np.mean(sizes)) - n * q) <= 3.0 * se

        # fixed-size sampling: every 2-subset of 4 records equally frequent
        cfg = SamplerConfig(
            policy=SamplingPolicy.FIXED_SIZE_WOR, n=4, seed=b"acceptance-c9-f0",
            batch_size=2,
        )
        draws = 60_000
        counts: dict[frozenset, int] = {}
        for t in range(draws):
            key = frozenset(fixed_size_sample(cfg, t).indices)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        p = 1.0 / 6.0
        se = math.sqrt(p * (1.0 - p) / draws)
        for count in counts.values():
            assert abs(count / draws - p) <= 3.0 * se

        # disjoint partition: batches never overlap, epoch after epoch
        cfg = SamplerConfig(
            policy=SamplingPolicy.DISJOINT_PARTITION, n=103, seed=b"acceptance-c9-d0",
            batch_size=20,
        )
        for epoch in range(4):
            batches = partition_epoch(cfg, epoch)
            seen: set[int] = set()
            for batch in batches:
                ids = set(batch.indices)
                assert len(ids) == 20
                assert not (ids & seen)
                seen |= ids
            assert len(seen) == 100  # remainder dropped, never duplicated


def test_criterion_10_harness_sanity():
    with criterion(10, "test-mode learns (>= 0.99); private run epsilon finite and reproducible"):
        start = time.perf_counter()
        part = make_sgd_partition(
            clip_weights=4.0, clip_bias=1.0,
            sigma_weights=0.0, sigma_bias=0.0, sigma_metrics=0.0,
        )
        cfg = TrainConfig(
            n=400, dim=5, rounds=200, q=1.0,
            microbatch_size=1, partition=part, learning_rate=0.5,
            seed=b"acceptance-c10a0", delta=DELTA, separation=8.0,
            insecure_test_mode=True,
        )
        report = dp_sgd_train(cfg)
        assert report.holdout_accuracy >= 0.99

        sigmas = proportional_allocation(1.1, (1.0, 0.5, 1.0))
        part = make_sgd_partition(
            clip_weights=1.0, clip_bias=0.5,
            sigma_weights=sigmas[0], sigma_bias=sigmas[1], sigma_metrics=sigmas[2],
        )
        cfg = TrainConfig(
            n=10_000, dim=2, rounds=1000, q=0.01,
            microbatch_size=1, partition=part, learning_rate=1.0,
            seed=b"acceptance-c10b0", delta=DELTA,
        )
        private = dp_sgd_train(cfg)
        assert private.guarantee is not None
        assert math.isfinite(private.guarantee.epsilon)
        recomputed = account_ledger(private.ledger, DELTA)
        assert recomputed.epsilon == private.guarantee.epsilon
        reread = account_ledger(deserialize(serialize(private.ledger)), DELTA)
        assert reread.epsilon == private.guarantee.epsilon
        elapsed = time.perf_counter() - start
        print(
            f"  test-mode acc {report.holdout_accuracy:.3f}, "
            f"private eps {private.guarantee.epsilon!r}, {elapsed:.1f}s"
        )
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_11_separation_of_concerns(tmp_path, capsys):
    with criterion(11, "guarantee flows only through recorded values; insecure refused"):
        # same target z through two allocation strategies: the recorded
        # sigmas differ, the ledger bytes differ, the guarantee does not
        target = 1.3
        bounds = ((1.0, 10), (0.5, 1), (2.0, 40))
        clips, dims = zip(*bounds)
        ledgers = {}
        for strategy, sigmas in (
            ("proportional", proportional_allocation(target, clips)),
            ("dim_adjusted", dim_adjusted_allocation(target, clips, dims)),
        ):
            led = Ledger()
            for _ in range(5):
                rid = led.record_sample(q=0.02, n=5_000, policy_tag="poisson_iid")
                for gi, ((clip, _), sigma) in enumerate(zip(bounds, sigmas)):
                    led.record_sum_query(
                        rid, clip_s=clip, sigma_sum=sigma, group_name=f"g{gi}"
                    )
                led.close_round()
            ledgers[strategy] = led
        blobs = {s: serialize(l) for s, l in ledgers.items()}
        eps = {s: account_ledger(l, DELTA).epsilon for s, l in ledgers.items()}
        strategies = list(ledgers)
        assert blobs[strategies[0]] != blobs[strategies[1]]
        a, b = eps[strategies[0]], eps[strategies[1]]
        assert abs(a - b) <= 1e-9 * a
        # and a genuinely different recorded z does move the guarantee
        other = Ledger()
        for _ in range(5):
            rid = other.record_sample(q=0.02, n=5_000, policy_tag="poisson_iid")
            other.record_sum_query(rid, clip_s=1.0, sigma_sum=1.8, group_name="g0")
            other.close_round()
        assert account_ledger(other, DELTA).epsilon != pytest.approx(a, rel=1e-6)

        # an insecure round makes the CLI refuse with a nonzero exit
        out = tmp_path / "out"
        code = main(
            [
                "train", "--n", "100", "--dim", "2", "--rounds", "3",
                "--q", "0.1", "--learning-rate", "0.5", "--holdout-n", "50",
                "--delta", "1e-5", "--seed", "00112233445566778899aabbccddeeff",
                "--out-dir", str(out), "--insecure-no-noise",
            ]
        )
        assert code == 0
        code = main(["account", "--ledger", str(out / "ledger.txt"), "--delta", "1e-5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "refused" in captured.err
