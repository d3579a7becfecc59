"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The training-backed criteria (05-08) are the slow ones; the whole module
is sized to finish on a laptop-class machine in well under the stated
budgets.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sensorq import cli, ingest, metrics, nn
from sensorq.agent import AgentHyperParams, td_loss, train, Batch
from sensorq.env import EnvConfig, SensorEnv
from sensorq.experiments import (
    ExperimentSpec,
    run_compare,
    run_interference_sweep,
    run_weight_sweep,
)
from sensorq.signals import KINDS

from oracles import fd_gradient, naive_detection, naive_forward, \
    naive_quality, naive_redundancy, naive_td_loss, stacked_log, value_iteration
from toy_mdp import GAMMA, OPTIMAL, ToyMdpEnv, mdp_step


@contextmanager
def criterion(number: int, label: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {label} ({time.time() - started:.1f}s)")


def flatten(params):
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params.layers])


def unflatten(flat, template):
    layers, i = [], 0
    for w, b in template.layers:
        layers.append(
            (np.array(flat[i : i + w.size]).reshape(w.shape),
             np.array(flat[i + w.size : i + w.size + b.size]))
        )
        i += w.size + b.size
    return nn.NetworkParams(layers)


def test_01_gradient_fidelity():
    with criterion(1, "analytic gradients match central finite differences"):
        start = time.time()
        rng = np.random.default_rng(20240401)
        worst = 0.0
        for _ in range(20):
            n_hidden = int(rng.integers(1, 3))
            sizes = [int(rng.integers(2, 6))] + [
                int(rng.integers(2, 7)) for _ in range(n_hidden)
            ] + [int(rng.integers(2, 5))]
            params = nn.init_network(sizes, rng)
            # keep pre-activations away from ReLU kinks so the piecewise-linear
            # finite differences are clean at h=1e-5
            for _ in range(50):
                x = rng.normal(size=sizes[0])
                acts, zs = nn.forward_cached(params, x[None, :])
                if min(np.abs(z).min() for z in zs[:-1]) > 1e-3:
                    break
            g = rng.normal(size=sizes[-1])

            def scalar(flat, params=params, x=x, g=g):
                return float(g @ nn.forward_batch(unflatten(flat, params), x[None])[0])

            analytic = flatten(nn.backward_batch(params, nn.forward_cached(params, x[None]), g[None]))
            numeric = np.array(fd_gradient(scalar, flatten(params).tolist(), h=1e-5))
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4, f"worst relative error {worst:.2e}"
        assert time.time() - start < 5.0


def test_02_bellman_and_loss_oracle():
    with criterion(2, "bellman targets and td loss match brute force to 1e-12"):
        start = time.time()
        rng = np.random.default_rng(77)
        for _ in range(100):
            sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(2, 4))]
            online = nn.init_network(sizes, rng)
            target = nn.init_network(sizes, rng)
            gamma = float(rng.uniform(0.0, 1.0))
            n = int(rng.integers(1, 8))
            transitions = []
            for _ in range(n):
                s = rng.normal(size=sizes[0])
                s2 = rng.normal(size=sizes[0])
                a = int(rng.integers(sizes[-1]))
                r = float(rng.normal())
                done = bool(rng.integers(2))
                transitions.append((s, a, r, s2, done))
            batch = Batch(
                np.array([t[0] for t in transitions]),
                np.array([t[1] for t in transitions]),
                np.array([t[2] for t in transitions]),
                np.array([t[3] for t in transitions]),
                np.array([t[4] for t in transitions]),
            )
            loss, _ = td_loss(batch, online, target, gamma)
            naive = naive_td_loss(
                [(t[0].tolist(), t[1], t[2], t[3].tolist(), t[4]) for t in transitions],
                [(w.tolist(), b.tolist()) for w, b in online.layers],
                [(w.tolist(), b.tolist()) for w, b in target.layers],
                gamma,
            )
            assert abs(loss - naive) < 1e-12
        assert time.time() - start < 1.0


def test_03_soft_update_geometry():
    with criterion(3, "k soft updates shrink the gap by exactly (1-tau)^k"):
        rng = np.random.default_rng(5)
        online = nn.init_network([4, 8, 3], rng)
        for tau, k in [(0.005, 40), (0.1, 12), (0.5, 6), (1.0, 1)]:
            target = nn.init_network([4, 8, 3], rng)
            gap0 = [
                (wo - wt, bo - bt)
                for (wo, bo), (wt, bt) in zip(online.layers, target.layers)
            ]
            current = target
            for _ in range(k):
                current = nn.soft_update(online, current, tau)
            factor = (1.0 - tau) ** k
            for (wo, bo), (wc, bc), (gw, gb) in zip(online.layers, current.layers, gap0):
                assert np.max(np.abs((wo - wc) - factor * gw)) < 1e-12
                assert np.max(np.abs((bo - bc) - factor * gb)) < 1e-12


def test_04_epsilon_greedy_statistics():
    with criterion(4, "greedy frequency at eps=0.2, |A|=2 is 0.900 +- 0.01"):
        from sensorq.agent import select_action

        rng = np.random.default_rng(314159)
        q = np.tile([0.25, 0.75], (100_000, 1))  # one deciding sensor per row
        hits = select_action(q, np.ones(100_000, dtype=bool), 0.2, rng).count(1)
        freq = hits / 100_000
        assert abs(freq - 0.900) < 0.01, f"greedy frequency {freq:.4f}"


def test_05_tabular_sanity():
    with criterion(5, "dqn on the 2-state mdp recovers value iteration"):
        start = time.time()
        q_star = value_iteration(2, 2, mdp_step, GAMMA)
        hypers = AgentHyperParams(
            gamma=GAMMA, tau=0.01, eps_start=1.0, eps_min=0.2, eps_decay=0.99,
            batch_size=32, replay_capacity=5000, warmup=64, lr=3e-3, hidden=(32, 32),
        )
        result = train(ToyMdpEnv(), hypers, 400, seed=3)
        worst = 0.0
        for state in (0, 1):
            obs = np.zeros(2)
            obs[state] = 1.0
            q = nn.forward_batch(result.params, obs[None])[0]
            assert int(np.argmax(q)) == OPTIMAL[state]
            worst = max(worst, float(np.max(np.abs(q - np.array(q_star[state])))))
        assert worst < 0.05, f"worst q error {worst:.3f}"
        assert time.time() - start < 30.0


def test_06_comparison_orderings(tmp_path):
    with criterion(6, "dqn beats fixed(1) on energy and redundancy, matched random on detection"):
        start = time.time()
        spec = ExperimentSpec(
            env=EnvConfig(),
            hypers=AgentHyperParams(),
            seeds=[1, 2, 3],
            out_dir=tmp_path / "compare",
            policies=["fixed(1)", "random(0.25)", "threshold(0.15)", "dqn"],
            train_episodes=300,
            eval_episodes=20,
        )
        reports = run_compare(spec, check=True)  # check raises on any violated ordering
        by = {r.policy: r for r in reports}
        dqn, fixed = by["dqn"], by["fixed(1)"]
        assert dqn.energy_mj < fixed.energy_mj
        assert dqn.redundancy_pct < fixed.redundancy_pct
        print(
            f"    dqn {dqn.energy_mj:.1f}mJ/{dqn.redundancy_pct:.1f}% vs "
            f"fixed(1) {fixed.energy_mj:.1f}mJ/{fixed.redundancy_pct:.1f}%"
        )
        assert time.time() - start < 600.0


ACCEPT_SWEEP_ENV = dict(epochs=120)
ACCEPT_SWEEP_EPISODES = 150


def test_07_weight_sweep_trends(tmp_path):
    with criterion(7, "energy-heavy weights sample cheapest, info-heavy weights score best"):
        spec = ExperimentSpec(
            env=EnvConfig(**ACCEPT_SWEEP_ENV),
            hypers=AgentHyperParams(),
            seeds=[1, 2, 3, 4],
            out_dir=tmp_path / "weights",
            train_episodes=ACCEPT_SWEEP_EPISODES,
            eval_episodes=12,
        )
        cells = run_weight_sweep(spec, check=True)
        for cell in cells:
            r = cell["report"]
            print(f"    {cell['triple']}: quality={r.quality:.3f} energy={r.energy_mj:.1f}mJ")


def test_08_interference_trends(tmp_path):
    with criterion(8, "quality declines with interference; dqn degrades least vs fixed(1)"):
        spec = ExperimentSpec(
            env=EnvConfig(**ACCEPT_SWEEP_ENV),
            hypers=AgentHyperParams(),
            seeds=[1, 2, 3, 4, 5],
            out_dir=tmp_path / "interference",
            policies=["fixed(1)", "random(0.25)", "threshold(0.15)", "dqn"],
            eta_grid=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            train_episodes=ACCEPT_SWEEP_EPISODES,
            eval_episodes=10,
        )
        cells = run_interference_sweep(spec, check=True)
        curves = {}
        for cell in cells:
            curves.setdefault(cell["policy"], []).append((cell["eta"], cell["quality"]))
        for policy, curve in sorted(curves.items()):
            curve.sort()
            drop = curve[0][1] - curve[-1][1]
            print(f"    {policy:16s} drop {drop:+.3f}")


def test_09_metrics_oracles():
    with criterion(9, "metrics match an independent re-scan on 1000 random logs"):
        rng = np.random.default_rng(90210)
        for _ in range(1000):
            T = int(rng.integers(2, 25))
            n_sensors = int(rng.integers(1, 3))
            sensors = []
            for _ in range(n_sensors):
                truth = rng.normal(0.0, 1.0, size=T).cumsum()
                n = int(rng.integers(0, T + 1))
                epochs = sorted(rng.choice(T, size=n, replace=False).tolist())
                samples = [(int(e), float(truth[e] + rng.normal(0, 0.1))) for e in epochs]
                n_events = min(int(rng.integers(0, 4)), T)
                events = sorted(rng.choice(T, size=n_events, replace=False).tolist())
                lo, hi = float(truth.min()), float(truth.max())
                sensors.append((truth, samples, rng.uniform(0, 2, size=T), events, (lo, hi)))
            log = stacked_log(*zip(*sensors))
            delta, window = 0.05, 2
            want_q = np.mean([
                naive_quality(truth.tolist(), samples, hi - lo)
                for truth, samples, _, _, (lo, hi) in sensors
            ])
            want_r = np.mean([naive_redundancy(samples, delta, hi - lo)
                              for _, samples, _, _, (lo, hi) in sensors])
            want_d = np.mean([naive_detection(events, samples, window)
                              for _, samples, _, events, _ in sensors])
            assert abs(metrics.data_quality(log) - want_q) < 1e-9
            assert metrics.redundancy_rate(log, delta) == want_r
            assert metrics.event_detection_rate(log, window) == want_d


def test_10_ingest_counts_and_slots(tmp_path):
    with criterion(10, "fabricated traces give exact keep/skip counts and slot indices"):
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "\n".join(
                [
                    "2004-03-01 00:00:05.0 0 1 20.0 40.0 100.0 2.70",  # slot 0
                    "2004-03-01 00:01:04.0 1 1 21.0 40.0 100.0 2.70",  # slot 0 (wins)
                    "2004-03-01 00:01:06.0 2 1 22.0 40.0 100.0 2.70",  # slot 1
                    "2004-03-01 00:02:06.0 3 1 23.0 40.0 100.0 2.70",  # slot 2
                    "",  # wrong field count
                    "2004-03-01 00:02:30.0 4 1 200.0 40.0 100.0 2.70",  # plausibility
                    "2004-03-01 00:02:40.0 5 1 oops 40.0 100.0 2.70",  # unparseable
                ]
            )
            + "\n"
        )
        grid, report = ingest.load_trace(trace, delta_t=60.0)
        assert report.total == 7
        assert report.kept == 4
        assert report.skipped == {
            ingest.R_FIELDS: 1,
            ingest.R_RANGE: 1,
            ingest.R_NUMBER: 1,
        }
        assert grid.motes == [1]
        # hand-computed floor((t - t0) / 60): offsets 0, 59, 61, 121 s
        np.testing.assert_array_equal(grid.values[0, KINDS.index("temperature")], [21.0, 22.0, 23.0])
        np.testing.assert_array_equal(grid.present, [[True, True, True]])


def test_11_manifest_determinism(tmp_path):
    with criterion(11, "re-running a manifest reproduces byte-identical outputs"):
        config = tmp_path / "config.json"
        config.write_text(
            """
            {
              "env": {"sensors": ["temperature", "voltage"], "epochs": 30},
              "agent": {"batch_size": 16, "warmup": 32, "hidden": [16, 16]},
              "experiment": {"policies": ["fixed(1)", "random(0.25)", "dqn"],
                             "train_episodes": 10, "eval_episodes": 3}
            }
            """
        )
        a, b = tmp_path / "a", tmp_path / "b"
        # run b reads nothing but a's manifest: seeds and defaults come from it
        for argv in (["--config", str(config), "--out", str(a), "--seeds", "1,2"],
                     ["--config", str(a / "manifest.json"), "--out", str(b)]):
            assert cli.main(["compare", *argv, "--train", "--plotdata"]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert "manifest.json" in names and "compare.csv" in names
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
