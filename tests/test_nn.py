import numpy as np
import pytest

from sensorq import nn

from oracles import adam_layers, fd_gradient, naive_forward, soft_blend_layers


def tiny_net(sizes, seed):
    return nn.init_network(sizes, np.random.default_rng(seed))


def zero_grad(params):
    """A gradient of zeros laid out like params."""
    zeros = params.copy()
    zeros.flat[:] = 0.0
    return zeros


def flatten(params):
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params.layers])


def unflatten(flat, template):
    layers = []
    i = 0
    for w, b in template.layers:
        nw = w.size
        layers.append(
            (np.array(flat[i : i + nw]).reshape(w.shape), np.array(flat[i + nw : i + nw + b.size]))
        )
        i += nw + b.size
    return nn.NetworkParams(layers)


class TestForward:
    def test_all_zero_params_give_zero_output(self):
        params = zero_grad(tiny_net([3, 5, 2], 0))
        assert np.array_equal(nn.forward_batch(params, np.ones(3)[None])[0], np.zeros(2))

    def test_identity_linear_layer(self):
        params = nn.NetworkParams([(np.eye(2), np.zeros(2))])
        out = nn.forward_batch(params, np.array([0.3, -0.7])[None])[0]
        assert np.array_equal(out, np.array([0.3, -0.7]))

    def test_seeded_243_matches_straight_line_reimplementation(self):
        # Oracle: explicit-loop forward pass, values frozen from the same run.
        params = tiny_net([2, 4, 3], 424243)
        x = np.random.default_rng(424243)  # consume the same draws as init
        rng = np.random.default_rng(424243)
        for fan_in, fan_out in [(2, 4), (4, 3)]:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            rng.uniform(-bound, bound, size=(fan_out, fan_in))
        x = rng.normal(size=2)
        got = nn.forward_batch(params, x[None])[0]
        layers = [(w.tolist(), b.tolist()) for w, b in params.layers]
        expected = naive_forward(layers, x.tolist())
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
        frozen = [-0.075287642131786, -0.09045984093677671, 0.07470401110270955]
        np.testing.assert_allclose(got, frozen, rtol=0, atol=1e-15)

    def test_forward_is_pure(self):
        params = tiny_net([4, 8, 3], 7)
        x = np.random.default_rng(1).normal(size=4)
        a = nn.forward_batch(params, x[None])[0]
        b = nn.forward_batch(params, x[None])[0]
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        params = tiny_net([3, 4, 2], 1)
        with pytest.raises(ValueError):
            nn.forward_batch(params, np.zeros(5)[None])[0]

    def test_batch_forward_matches_single(self):
        params = tiny_net([5, 6, 4], 3)
        xs = np.random.default_rng(9).normal(size=(7, 5))
        batch = nn.forward_batch(params, xs)
        for i in range(7):
            # allow BLAS path differences between (1,n) and (7,n) matmuls
            one = nn.forward_batch(params, xs[i][None])[0]
            np.testing.assert_allclose(batch[i], one, rtol=0, atol=1e-12)


class TestBackward:
    def test_zero_grad_out_gives_zero_gradient(self):
        params = tiny_net([3, 4, 2], 5)
        grads = nn.backward_batch(params, nn.forward_cached(params, np.ones(3)[None]), np.zeros(2)[None])
        assert all(
            np.array_equal(gw, np.zeros_like(gw)) and np.array_equal(gb, np.zeros_like(gb))
            for gw, gb in grads.layers
        )

    def test_single_linear_layer_analytic(self):
        w = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 3.0]])
        params = nn.NetworkParams([(w, np.zeros(3))])
        x = np.array([1.5, -2.5])
        grads = nn.backward_batch(
            params, nn.forward_cached(params, x[None]), np.array([1.0, 0.0, 0.0])[None]
        )
        expected_w = np.zeros_like(w)
        expected_w[0] = x
        np.testing.assert_array_equal(grads.layers[0][0], expected_w)
        np.testing.assert_array_equal(grads.layers[0][1], np.array([1.0, 0.0, 0.0]))

    def test_gradient_matches_finite_differences(self):
        params = tiny_net([2, 4, 3], 11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=2)
        g = rng.normal(size=3)

        def scalar(flat):
            p = unflatten(flat, params)
            return float(g @ nn.forward_batch(p, x[None])[0])

        analytic = flatten(nn.backward_batch(params, nn.forward_cached(params, x[None]), g[None]))
        numeric = np.array(fd_gradient(scalar, flatten(params).tolist(), h=1e-5))
        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_shape_mismatch_rejected(self):
        params = tiny_net([3, 4, 2], 1)
        with pytest.raises(ValueError):
            nn.backward_batch(params, nn.forward_cached(params, np.zeros(3)[None]), np.zeros(5)[None])

    def test_batch_backward_sums_per_sample(self):
        params = tiny_net([3, 5, 2], 21)
        rng = np.random.default_rng(22)
        xs = rng.normal(size=(4, 3))
        gs = rng.normal(size=(4, 2))
        batch = nn.backward_batch(params, nn.forward_cached(params, xs), gs)
        summed = zero_grad(params)
        for i in range(4):
            one = nn.backward_batch(params, nn.forward_cached(params, xs[i][None]), gs[i][None])
            summed = nn.NetworkParams(
                [
                    (aw + bw, ab + bb)
                    for (aw, ab), (bw, bb) in zip(summed.layers, one.layers)
                ]
            )
        for (gw, gb), (sw, sb) in zip(batch.layers, summed.layers):
            np.testing.assert_allclose(gw, sw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gb, sb, rtol=0, atol=1e-12)


class TestAdam:
    def scalar_net(self, value):
        return nn.NetworkParams([(np.array([[value]]), np.zeros(1))])

    def test_zero_gradient_keeps_params(self):
        params = tiny_net([3, 4, 2], 2)
        before = params.copy()
        state = nn.adam_init(params)
        new, state2 = nn.adam_step(params, zero_grad(params), state)
        for (w, b), (w2, b2) in zip(before.layers, new.layers):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)
        assert state2.step == 1

    def test_first_step_hand_substitution(self):
        # m=0.2, v=0.004, mhat=2, vhat=4 -> delta = 0.1*2/(2+1e-8)
        params = self.scalar_net(1.0)
        grads = nn.NetworkParams([(np.array([[2.0]]), np.zeros(1))])
        state = nn.adam_init(params, step_size=0.1)
        new, _ = nn.adam_step(params, grads, state)
        assert abs(new.layers[0][0][0, 0] - 0.9000000005) < 1e-12

    def test_two_identical_steps_hand_substitution(self):
        params = self.scalar_net(1.0)
        grads = nn.NetworkParams([(np.array([[2.0]]), np.zeros(1))])
        state = nn.adam_init(params, step_size=0.1)
        params, state = nn.adam_step(params, grads, state)
        params, state = nn.adam_step(params, grads, state)
        assert state.step == 2
        assert abs(params.layers[0][0][0, 0] - 0.8000000010000006) < 1e-12

    def test_non_finite_gradient_rejected(self):
        params = self.scalar_net(1.0)
        grads = nn.NetworkParams([(np.array([[np.nan]]), np.zeros(1))])
        state = nn.adam_init(params)
        state.m[:] = 0.5
        state.v[:] = 0.25
        with pytest.raises(ValueError):
            nn.adam_step(params, grads, state)
        assert params.layers[0][0][0, 0] == 1.0
        assert np.array_equal(state.m, [0.5, 0.5]) and np.array_equal(state.v, [0.25, 0.25])
        assert state.step == 0


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        online = tiny_net([3, 4, 2], 31)
        target = tiny_net([3, 4, 2], 32)
        blended = nn.soft_update(online, target, 1.0)
        for (wo, bo), (wb, bb) in zip(online.layers, blended.layers):
            np.testing.assert_array_equal(wo, wb)
            np.testing.assert_array_equal(bo, bb)

    def test_hand_value(self):
        online = nn.NetworkParams([(np.array([[2.0]]), np.zeros(1))])
        target = nn.NetworkParams([(np.array([[0.0]]), np.zeros(1))])
        out = nn.soft_update(online, target, 0.1)
        assert abs(out.layers[0][0][0, 0] - 0.2) < 1e-15

    def test_repeated_updates_shrink_gap_geometrically(self):
        online = tiny_net([2, 3, 2], 41)
        target = tiny_net([2, 3, 2], 42)
        tau, k = 0.25, 6
        gap0 = [
            (wo - wt, bo - bt)
            for (wo, bo), (wt, bt) in zip(online.layers, target.layers)
        ]
        current = target
        for _ in range(k):
            current = nn.soft_update(online, current, tau)
        factor = (1 - tau) ** k
        for (wo, bo), (wc, bc), (gw, gb) in zip(online.layers, current.layers, gap0):
            np.testing.assert_allclose(wo - wc, factor * gw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bo - bc, factor * gb, rtol=0, atol=1e-12)

    def test_result_is_convex_combination(self):
        rng = np.random.default_rng(55)
        for tau in (0.05, 0.5, 0.95):
            online = tiny_net([3, 4, 2], int(rng.integers(1e6)))
            target = tiny_net([3, 4, 2], int(rng.integers(1e6)))
            before = target.copy()
            out = nn.soft_update(online, target, tau)
            for (wo, _), (wt, _), (wx, _) in zip(online.layers, before.layers, out.layers):
                lo = np.minimum(wo, wt) - 1e-12
                hi = np.maximum(wo, wt) + 1e-12
                assert ((wx >= lo) & (wx <= hi)).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nn.soft_update(tiny_net([2, 3, 2], 1), tiny_net([2, 4, 2], 1), 0.5)


class TestFlatUpdate:
    def test_matches_per_layer_oracle_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        online = tiny_net([10, 64, 64, 2], 1)
        target = online.copy()
        state = nn.adam_init(online, step_size=1e-3)
        ref = [(w.copy(), b.copy()) for w, b in online.layers]
        ref_target = [(w.copy(), b.copy()) for w, b in target.layers]
        ref_m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in ref]
        ref_v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in ref]
        for t in range(1, 51):
            scale = 10.0 ** rng.uniform(-4, 1)
            g = [(scale * rng.normal(size=w.shape), scale * rng.normal(size=b.shape)) for w, b in ref]
            online, state = nn.adam_step(online, nn.NetworkParams(g), state)
            target = nn.soft_update(online, target, 0.005)
            ref, ref_m, ref_v = adam_layers(ref, g, ref_m, ref_v, t, 1e-3, 0.9, 0.999, 1e-8)
            ref_target = soft_blend_layers(ref, ref_target, 0.005)
        flat = lambda layers: np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])
        assert state.step == 50
        assert np.array_equal(online.flat, flat(ref))
        assert np.array_equal(state.m, flat(ref_m))
        assert np.array_equal(state.v, flat(ref_v))
        assert np.array_equal(target.flat, flat(ref_target))

    def test_layers_are_views_of_flat(self):
        params = tiny_net([3, 4, 2], 8)
        params.flat[:] = np.arange(params.flat.size)
        assert params.layers[0][0][1, 0] == 3.0 and params.layers[0][1][0] == 12.0
        assert params.layers[1][0][0, 0] == 16.0 and params.layers[1][1][1] == 25.0

    def test_copy_is_independent_of_in_place_updates(self):
        online = tiny_net([3, 4, 2], 9)
        target = online.copy()  # what a hard target copy keeps
        kept = online.flat.copy()
        state = nn.adam_init(online, step_size=0.1)
        grads = nn.NetworkParams([(np.ones_like(w), np.ones_like(b)) for w, b in online.layers])
        online, state = nn.adam_step(online, grads, state)
        nn.soft_update(online, online.copy(), 0.5)
        assert not np.array_equal(online.flat, kept)
        assert np.array_equal(target.flat, kept)
        assert np.array_equal(target.layers[0][0].ravel(), kept[:12])


class TestSnapshot:
    def test_round_trip_is_exact(self, tmp_path):
        params = tiny_net([10, 64, 64, 2], 99)
        path = tmp_path / "net.txt"
        nn.save_network(params, path)
        loaded = nn.load_network(path)
        assert loaded.layer_sizes == params.layer_sizes
        for (w, b), (w2, b2) in zip(params.layers, loaded.layers):
            assert np.array_equal(w, w2)
            assert np.array_equal(b, b2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("something else\n1 2 3\n")
        with pytest.raises(ValueError):
            nn.load_network(path)
