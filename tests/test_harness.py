import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dpledger import (
    Ledger,
    SecureStream,
    TrainConfig,
    account_ledger,
    deserialize,
    dp_sgd_train,
    generate_synthetic,
    make_sgd_partition,
    serialize,
    sigmas_for_target_z,
)
from dpledger import harness
from dpledger.allocation import effective_z
from dpledger.harness import forward_probabilities, per_example_gradients

SEED = b"harness-tests-00"


def _config(
    seed,
    *,
    n=200,
    dim=5,
    rounds=20,
    q=1.0,
    z=None,
    lr=0.5,
    separation=4.0,
    sigma_metrics=None,
    insecure=False,
    ledger_path=None,
    clip_weights=4.0,
):
    clips = (clip_weights, 1.0, 1.0)
    if z is None:
        sw = sb = 0.0
        sm = 0.0 if sigma_metrics is None else sigma_metrics
    else:
        sw, sb, sm = sigmas_for_target_z(z, clips, q, n)
        if sigma_metrics is not None:
            sm = sigma_metrics
    partition = make_sgd_partition(
        clip_weights=clips[0],
        clip_bias=clips[1],
        sigma_weights=sw,
        sigma_bias=sb,
        sigma_metrics=sm,
    )
    return TrainConfig(
        n=n,
        dim=dim,
        rounds=rounds,
        q=q,
        microbatch_size=1,
        partition=partition,
        learning_rate=lr,
        seed=seed,
        delta=1e-5,
        separation=separation,
        insecure_test_mode=insecure,
        ledger_path=ledger_path,
    )


# ---------------------------------------------------------------- synthetic


def test_synthetic_deterministic_bytes():
    a = generate_synthetic(64, 3, 4.0, SEED)
    b = generate_synthetic(64, 3, 4.0, SEED)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = generate_synthetic(64, 3, 4.0, b"harness-tests-01")
    assert a.features.tobytes() != c.features.tobytes()


def test_synthetic_labels_alternate_and_balance():
    data = generate_synthetic(10, 2, 4.0, SEED)
    assert list(data.labels) == [0, 1] * 5
    assert len(data.labels) == 10


def test_synthetic_two_points_widely_separable():
    data = generate_synthetic(2, 1, 1000.0, SEED)
    assert abs(float(data.features[0, 0] - data.features[1, 0])) > 100.0


def test_synthetic_stream_index_gives_disjoint_noise_same_geometry():
    train = generate_synthetic(100, 4, 6.0, SEED, stream_index=0)
    holdout = generate_synthetic(100, 4, 6.0, SEED, stream_index=1)
    assert train.features.tobytes() != holdout.features.tobytes()
    # same cluster axis: class-mean difference vectors must align
    def axis(d):
        gap = d.features[d.labels == 1].mean(axis=0) - d.features[d.labels == 0].mean(axis=0)
        return gap / np.linalg.norm(gap)

    assert float(np.dot(axis(train), axis(holdout))) > 0.95


@pytest.mark.parametrize("separation", [0.0, 4.0])
@pytest.mark.parametrize("n, dim", [(2, 1), (7, 3), (64, 5)])
def test_synthetic_features_are_noise_plus_the_signed_offset(n, dim, separation):
    # the out-of-place formula: one noise array plus an n x dim outer product
    direction = SecureStream(SEED, "synthetic-axis", 0).standard_normal(dim)
    direction = direction / float(np.sqrt(np.dot(direction, direction)))
    noise = SecureStream(SEED, "synthetic-data", 0).standard_normal(n * dim)
    signs = np.where(np.arange(n) % 2 == 1, 1.0, -1.0)
    want = noise.reshape(n, dim) + np.outer(signs * (separation / 2.0), direction)
    got = generate_synthetic(n, dim, separation, SEED).features
    assert got.shape == (n, dim)
    assert got.tobytes() == want.tobytes()


def test_synthetic_peak_memory_is_about_its_features():
    tracemalloc.start()
    try:
        data = generate_synthetic(20_000, 100, 4.0, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * data.features.nbytes, peak / data.features.nbytes


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(1, 2, 1.0, SEED)
    with pytest.raises(ValueError):
        generate_synthetic(4, 0, 1.0, SEED)
    with pytest.raises(ValueError):
        generate_synthetic(4, 2, -1.0, SEED)


# -------------------------------------------------------------------- model


def test_forward_probabilities_is_logistic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 4))
    w = rng.normal(size=4)
    b = 0.3
    got = forward_probabilities(x, w, b)
    want = 1.0 / (1.0 + np.exp(-(x @ w + b)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def example_loss(x: np.ndarray, y: int, w: np.ndarray, b: float) -> float:
    """Logistic loss of one example: softplus(u) - y*u with u = x.w + b."""
    u = float(np.dot(x, w) + b)
    return float(np.logaddexp(0.0, u) - y * u)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        dim = 5
        x = rng.normal(size=dim)
        y = int(rng.integers(0, 2))
        w = rng.normal(size=dim)
        b = float(rng.normal())
        probs = forward_probabilities(x[None, :], w, b)
        grad_w, grad_b = per_example_gradients(x[None, :], np.array([float(y)]), probs)
        fd_w = np.empty(dim)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd_w[j] = (example_loss(x, y, w + e, b) - example_loss(x, y, w - e, b)) / (2 * h)
        fd_b = (example_loss(x, y, w, b + h) - example_loss(x, y, w, b - h)) / (2 * h)
        np.testing.assert_allclose(grad_w[0], fd_w, rtol=1e-6, atol=1e-9)
        assert float(grad_b[0]) == pytest.approx(fd_b, rel=1e-6, abs=1e-9)


def test_partition_shape():
    part = make_sgd_partition(
        clip_weights=2.0, clip_bias=1.0, sigma_weights=0.1,
        sigma_bias=0.1, sigma_metrics=0.1,
    )
    by_name = {g.name: g for g in part.groups}
    assert set(by_name) == {"weights", "bias", "metrics"}
    assert by_name["metrics"].clip_s == 1.0  # indicator lives in [0, 1]


def test_sigmas_for_target_z_round_trip():
    sigmas = sigmas_for_target_z(1.0, (1.0,), 0.01, 10_000)
    assert sigmas == (0.01,)
    clips = (4.0, 1.0, 1.0)
    for z in (0.7, 1.1, 3.0):
        sigmas = sigmas_for_target_z(z, clips, 0.05, 400)
        got = effective_z([(c, 0.05 * 400 * sig) for c, sig in zip(clips, sigmas)])
        assert got == pytest.approx(z, rel=1e-12)
    with pytest.raises(ValueError):
        sigmas_for_target_z(0.0, clips, 0.05, 400)
    with pytest.raises(ValueError):
        sigmas_for_target_z(1.0, (), 0.05, 400)


@pytest.mark.parametrize("q, n", [(0.0, 400), (0.05, 0), (-0.5, 400), (1.5, 400)])
def test_sigmas_for_target_z_checks_q_and_n(q, n):
    with pytest.raises(ValueError):
        sigmas_for_target_z(1.0, (1.0,), q, n)


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        _config(SEED, z=None, insecure=False)  # zero noise needs the flag
    with pytest.raises(ValueError):
        _config(SEED, rounds=0, z=1.1, q=0.5)
    cfg = _config(SEED, z=1.1, q=0.5)
    with pytest.raises(ValueError):
        TrainConfig(**{**cfg.__dict__, "delta": 0.0})


# ----------------------------------------------------------------- training


def test_test_mode_learns_separable_data():
    report = dp_sgd_train(
        _config(SEED, n=400, dim=5, rounds=200, q=1.0, separation=8.0, insecure=True)
    )
    assert report.holdout_accuracy >= 0.99
    assert report.refusal is not None  # zero-noise rounds: no guarantee
    assert report.guarantee is None


def test_noise_dominated_training_does_not_learn():
    accs = []
    for s in range(5):
        report = dp_sgd_train(
            _config(100 + s, n=200, dim=100, rounds=20, q=0.1, z=100.0, lr=0.1)
        )
        accs.append(report.holdout_accuracy)
        assert abs(report.holdout_accuracy - 0.5) <= 0.1
    assert abs(float(np.mean(accs)) - 0.5) <= 0.1


def test_zero_separation_data_is_unlearnable():
    accs = [
        dp_sgd_train(
            _config(200 + s, n=200, dim=4, rounds=30, q=1.0, separation=0.0, insecure=True)
        ).holdout_accuracy
        for s in range(4)
    ]
    assert abs(float(np.mean(accs)) - 0.5) <= 0.05


def test_report_guarantee_is_pure_function_of_ledger(tmp_path):
    path = tmp_path / "run.ledger"
    report = dp_sgd_train(
        _config(SEED, n=100, dim=3, rounds=10, q=0.1, z=1.1, ledger_path=str(path))
    )
    assert report.guarantee is not None and math.isfinite(report.guarantee.epsilon)
    again = account_ledger(report.ledger, 1e-5)
    assert again.epsilon == report.guarantee.epsilon
    # and through the serialized bytes, with no mechanism re-execution
    from_disk = account_ledger(deserialize(path.read_bytes()), 1e-5)
    assert from_disk.epsilon == report.guarantee.epsilon
    assert from_disk.achieving_order == report.guarantee.achieving_order


def test_metric_noise_does_not_touch_the_model():
    # weights and bias keep zero noise in both runs; only the metric sigma
    # changes, so the trajectory and holdout accuracy must be identical
    clean = dp_sgd_train(_config(SEED, rounds=15, insecure=True))
    noised = dp_sgd_train(_config(SEED, rounds=15, insecure=True, sigma_metrics=0.05))
    assert noised.holdout_accuracy == clean.holdout_accuracy
    assert len(clean.metric_estimates) == len(noised.metric_estimates) == 15
    # clean run's estimates are the exact clipped averages; every privatized
    # round must differ from that true value
    for true_value, private_value in zip(clean.metric_estimates, noised.metric_estimates):
        assert private_value != true_value


def test_true_metrics_absent_from_artifacts(tmp_path):
    path = tmp_path / "run.ledger"
    report = dp_sgd_train(
        _config(SEED, rounds=10, q=0.5, z=1.5, ledger_path=str(path))
    )
    blob = path.read_bytes().decode("ascii")
    for line in blob.splitlines()[1:]:
        assert line.split(" ", 1)[0] in {"sample", "sum"}
    # the ledger carries bounds and noise, never estimates
    for value in report.metric_estimates:
        assert float.hex(value) not in blob


def test_training_deterministic_and_ledger_seed_free(tmp_path):
    p1, p2, p3 = (tmp_path / f"run{i}.ledger" for i in range(3))
    r1 = dp_sgd_train(_config(SEED, rounds=12, q=0.5, z=1.5, ledger_path=str(p1)))
    r2 = dp_sgd_train(_config(SEED, rounds=12, q=0.5, z=1.5, ledger_path=str(p2)))
    assert p1.read_bytes() == p2.read_bytes()
    assert r1.holdout_accuracy == r2.holdout_accuracy
    assert r1.metric_estimates == r2.metric_estimates
    assert r1.guarantee.epsilon == r2.guarantee.epsilon
    # a different seed redraws data and noise but the recorded privacy
    # parameters, hence the ledger bytes and the guarantee, are unchanged
    r3 = dp_sgd_train(
        _config(b"harness-tests-03", rounds=12, q=0.5, z=1.5, ledger_path=str(p3))
    )
    assert p1.read_bytes() == p3.read_bytes()
    assert r3.metric_estimates != r1.metric_estimates
    assert r3.guarantee.epsilon == r1.guarantee.epsilon


@pytest.mark.parametrize(
    "q, n, match",
    [
        (0.0, 200, "q must be in"),
        (-0.5, 200, "q must be in"),
        (1.5, 200, "q must be in"),
        (math.nan, 200, "q must be in"),
        (0.5, 200.0, "n must be an integer"),
        (0.5, 200.5, "n must be an integer"),
        (0.5, True, "n must be an integer"),
    ],
)
def test_train_config_refuses_q_outside_unit_interval_and_non_integer_n(q, n, match):
    cfg = _config(SEED, z=1.1, q=0.5)
    with pytest.raises(ValueError, match=match):
        TrainConfig(**{**cfg.__dict__, "q": q, "n": n})


@pytest.mark.parametrize("q", [0.05, 3e-5])
def test_each_round_records_the_rate_its_sampler_ran(q, monkeypatch):
    # 3e-5 is below 2^-12, so the sampler runs at it rounded down to a
    # multiple of 2^-64; every round records that rate, bit for bit.
    real_draw = harness.draw_sample
    seen = {}

    def draw(sampler, t):
        seen[t] = sampler
        return real_draw(sampler, t)

    monkeypatch.setattr(harness, "draw_sample", draw)
    report = dp_sgd_train(_config(SEED, n=400, rounds=30, q=q, z=1.5))
    rounds = report.ledger.rounds()
    assert sorted(seen) == list(range(30)) and len(rounds) == 30
    for sample, _ in rounds:
        assert sample.q.hex() == seen[sample.round_id].q.hex()
    ran = seen[0].q
    assert (ran == q) == (q >= 2.0**-12)


# -------------------------------------------------------- sampling ahead


def _per_round_noise(seed, partition, widths, rounds):
    """draw_round_noise as one SecureStream draw per group and round."""
    return {
        spec.name: np.array(
            [
                SecureStream(seed, f"noise/{spec.name}", t).standard_normal(
                    sum(widths[m] for m in spec.member_names)
                )
                for t in rounds
            ]
        )
        for spec in partition.groups
    }


def _run_with_look_ahead(monkeypatch, case, rounds, per_round_noise=False):
    """Train once with rounds sampled ahead as `case` says, and with each
    round's noise drawn on its own by _per_round_noise if per_round_noise;
    return the report, per completed draw (round, drawn on the main
    thread), and the rounds of each noise draw."""
    real_draw, real_data = harness.draw_sample, harness.generate_synthetic
    real_noise = _per_round_noise if per_round_noise else harness.draw_round_noise
    drawn = []
    noise_rounds = []
    ready = threading.Event()  # the data may be returned
    ahead_target = {
        "none": 0,
        "some": 4,
        "all": rounds,
        "fails": min(2, rounds - 1),
    }[case]

    def draw(sampler, t):
        on_main = threading.current_thread() is threading.main_thread()
        if not on_main and case == "fails" and t == ahead_target:
            ready.set()
            raise RuntimeError("look-ahead draw failed")
        if not on_main and case == "some" and t >= ahead_target:
            time.sleep(0.2)  # time for the main thread to stop the worker
        sample = real_draw(sampler, t)
        drawn.append((t, on_main))
        if not on_main and t == ahead_target - 1 and case != "fails":
            ready.set()
        return sample

    def data(n, dim, separation, seed, *, stream_index=0):
        if stream_index == 0 and case != "none":
            assert ready.wait(10), "the look-ahead never reached its target round"
        return real_data(n, dim, separation, seed, stream_index=stream_index)

    def draw_noise(seed, partition, widths, rounds):
        noise_rounds.append(rounds)
        return real_noise(seed, partition, widths, rounds)

    monkeypatch.setattr(harness, "draw_sample", draw)
    monkeypatch.setattr(harness, "generate_synthetic", data)
    monkeypatch.setattr(harness, "draw_round_noise", draw_noise)
    if per_round_noise:
        monkeypatch.setattr(harness, "_NOISE_BATCH_ROUNDS", 1)
    if case == "none":
        monkeypatch.setattr(harness, "_sample_ahead", lambda *args: None)
    try:
        report = dp_sgd_train(_config(SEED, rounds=rounds, q=0.5, z=1.5))
    finally:
        monkeypatch.undo()
    return report, drawn, noise_rounds


_B = harness._NOISE_BATCH_ROUNDS


@pytest.mark.parametrize("case", ["none", "some", "all", "fails"])
def test_rounds_sampled_ahead_change_no_bit(monkeypatch, capfd, case):
    for rounds in (1, _B - 1, _B, _B + 1, 2 * _B + 3):
        if case == "some" and rounds == 1:
            continue  # one round leaves none to sample ahead of the loop
        _check_look_ahead_and_noise_batches(monkeypatch, capfd, case, rounds)


def _check_look_ahead_and_noise_batches(monkeypatch, capfd, case, rounds):
    # the reference draws every round inline and each group's noise for
    # each round from its own SecureStream.standard_normal call
    want, inline, per_round = _run_with_look_ahead(
        monkeypatch, "none", rounds, per_round_noise=True
    )
    assert inline == [(t, True) for t in range(rounds)]
    assert per_round == [range(t, t + 1) for t in range(rounds)]
    got, drawn, batches = _run_with_look_ahead(monkeypatch, case, rounds)
    assert batches == [range(t, min(t + _B, rounds)) for t in range(0, rounds, _B)]
    # every round is drawn exactly once, on one thread or the other
    assert sorted(t for t, _ in drawn) == list(range(rounds))
    ahead = sorted(t for t, on_main in drawn if not on_main)
    assert ahead == list(range(len(ahead)))  # a prefix of the rounds
    if case == "some":
        assert 4 <= len(ahead) < rounds
    else:
        fails = min(2, rounds - 1)
        assert len(ahead) == {"none": 0, "all": rounds, "fails": fails}[case]
    assert serialize(got.ledger) == serialize(want.ledger)
    assert got.metric_estimates == want.metric_estimates
    assert got.holdout_accuracy == want.holdout_accuracy
    assert got.guarantee.epsilon == want.guarantee.epsilon
    assert capfd.readouterr().err == ""  # the worker prints nothing


def test_a_wide_model_draws_fewer_rounds_of_noise_at_once(monkeypatch):
    # 3000 weights, a bias and a metric: no group passes 1501 pairs a
    # round, so 43 rounds of noise fill at most one Box-Muller block
    real = harness.draw_round_noise
    batches = []

    def draw_noise(seed, partition, widths, rounds):
        batches.append(rounds)
        return real(seed, partition, widths, rounds)

    monkeypatch.setattr(harness, "draw_round_noise", draw_noise)
    dp_sgd_train(_config(SEED, n=20, dim=3000, rounds=45, q=0.5, z=1.5))
    assert batches == [range(0, 43), range(43, 45)]


def test_concurrent_trainings_sample_ahead_without_losing_a_round(monkeypatch):
    # three runs at once, each with its sampler and Box-Muller threads,
    # switching often; each must match the same run with every round
    # drawn inline
    def config(seed):
        return _config(seed, n=20_000, dim=20, rounds=30, q=0.05, z=1.5)

    seeds = [b"harness-tests-%02d" % k for k in range(3)]
    with monkeypatch.context() as patched:
        patched.setattr(harness, "_sample_ahead", lambda *args: None)
        want = {seed: dp_sgd_train(config(seed)) for seed in seeds}
    got = {}

    def train(seed):
        got[seed] = dp_sgd_train(config(seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=train, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in seeds:
        assert serialize(got[seed].ledger) == serialize(want[seed].ledger)
        assert got[seed].metric_estimates == want[seed].metric_estimates
        assert got[seed].holdout_accuracy == want[seed].holdout_accuracy


def test_a_failing_data_draw_stops_the_look_ahead(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("no data")

    monkeypatch.setattr(harness, "generate_synthetic", broken)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="no data"):
        dp_sgd_train(_config(SEED, rounds=500, q=0.5, z=1.5))
    assert threading.active_count() == before

