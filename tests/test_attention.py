"""attention bodies, the standard path, and the constant-input path."""

import numpy as np
import pytest

from attnfold import AttentionKind, InvariantError, ShapeError
from attnfold.attention import (AsrSlot, asr_apply_raw, asr_vector_raw, attn_forward_raw,
                                body_forward_raw, init_tensor, pool_forward_raw)
from attnfold.kernels import gap_forward, sigmoid


def make_slot(kind, channels=8, **kw):
    return AsrSlot(slot_id="s", kind=kind, channels=channels, **kw)


def slot_values(slot, seed=0):
    rng = np.random.default_rng(seed)
    values = {f"s.{role}": init_tensor(role, shape, rng)
              for role, shape in slot.kind.param_shapes(slot.channels).items()}
    values["s.psi"] = slot.init_psi()
    return values


def no_body(psi):
    """The body-less variant's vector: sigma(psi) directly."""
    return body_forward_raw(AttentionKind("no_body"), len(psi), {}, psi[None])[0][0]


class TestKindValidation:
    def test_reduction_must_divide(self):
        with pytest.raises(InvariantError, match="reduction"):
            make_slot(AttentionKind("se", reduction=3), channels=8)

    def test_eca_kernel_odd(self):
        with pytest.raises(InvariantError, match="odd"):
            AttentionKind("eca", kernel=4)

    def test_unknown_variant(self):
        with pytest.raises(InvariantError):
            AttentionKind("blah")


class TestBodyForward:
    def test_ie_zero_params_gives_half(self):
        kind = AttentionKind("ie")
        u = np.random.default_rng(0).standard_normal(6)
        v = body_forward_raw(kind, 6, {"gamma": np.zeros(6), "beta": np.zeros(6)},
                             u[None])[0][0]
        np.testing.assert_allclose(v, np.full(6, 0.5), atol=1e-15)

    def test_se_zero_w2_gives_half(self):
        kind = AttentionKind("se", reduction=2)
        rng = np.random.default_rng(1)
        params = {"w1": rng.standard_normal((3, 6)), "w2": np.zeros((6, 3))}
        v = body_forward_raw(kind, 6, params, rng.standard_normal((1, 6)))[0][0]
        np.testing.assert_allclose(v, np.full(6, 0.5), atol=1e-15)

    def test_se_matches_manual_composition(self):
        kind = AttentionKind("se", reduction=2)
        rng = np.random.default_rng(2)
        w1 = rng.standard_normal((4, 8))
        w2 = rng.standard_normal((8, 4))
        u = rng.standard_normal(8)
        v = body_forward_raw(kind, 8, {"w1": w1, "w2": w2}, u[None])[0][0]
        expected = sigmoid(w2 @ np.maximum(w1 @ u, 0.0))
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_output_in_open_unit_interval(self):
        for kind in (AttentionKind("se", reduction=2), AttentionKind("ie"),
                     AttentionKind("eca")):
            slot = make_slot(kind)
            values = slot_values(slot, seed=3)
            v = asr_vector_raw(slot, values)[0]
            assert (v > 0).all() and (v < 1).all()

    def test_cbam_body_takes_a_constant_or_a_pooled_input(self):
        rng = np.random.default_rng(35)
        p = {"w1": rng.standard_normal((2, 4)), "w2": rng.standard_normal((4, 2))}
        u = rng.standard_normal(8)
        mlp = lambda t: p["w2"] @ np.maximum(p["w1"] @ t, 0.0)
        v = body_forward_raw(AttentionKind("cbam", reduction=2), 4, p, u[None])[0][0]
        np.testing.assert_allclose(v, sigmoid(mlp(u[:4]) + mlp(u[4:])), atol=1e-14)
        with pytest.raises(ShapeError, match="srm body expects input dim"):
            body_forward_raw(AttentionKind("srm"), 4, {}, np.ones((1, 7)))


class TestAttnStandard:
    def test_ie_constant_channels(self):
        kind = AttentionKind("ie")
        rng = np.random.default_rng(4)
        const = rng.standard_normal(5)
        x = np.broadcast_to(const[None, :, None, None], (2, 5, 3, 3)).copy()
        p = {"gamma": np.ones(5), "beta": np.zeros(5)}
        y, v = attn_forward_raw(kind, 5, p, x)[:2]
        np.testing.assert_allclose(v, sigmoid(np.tile(const, (2, 1))), atol=1e-14)

    def test_vector_in_unit_interval(self):
        kind = AttentionKind("srm")
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5, 5))
        p = {"w_mean": np.ones(4), "w_std": np.ones(4)}
        _, v = attn_forward_raw(kind, 4, p, x)[:2]
        assert ((v > 0) & (v < 1)).all()

    def test_se_matches_gap_body_composition(self):
        kind = AttentionKind("se", reduction=2)
        rng = np.random.default_rng(6)
        params = {"w1": rng.standard_normal((2, 4)), "w2": rng.standard_normal((4, 2))}
        x = rng.standard_normal((3, 4, 4, 4))
        y, v = attn_forward_raw(kind, 4, params, x)[:2]
        u = gap_forward(x)
        for i in range(3):
            expected_v = sigmoid(params["w2"] @ np.maximum(params["w1"] @ u[i], 0))
            np.testing.assert_allclose(v[i], expected_v, atol=1e-14)
            np.testing.assert_allclose(y[i], x[i] * expected_v[:, None, None],
                                       atol=1e-14)

    def test_srm_single_pixel_std_zero(self):
        kind = AttentionKind("srm")
        x = np.random.default_rng(7).standard_normal((2, 3, 1, 1))
        u, _ = pool_forward_raw(kind, x)
        np.testing.assert_array_equal(u[:, 3:], np.zeros((2, 3)))

    def test_cbam_pool_is_avg_and_max(self):
        kind = AttentionKind("cbam", reduction=2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 3, 3))
        u, _ = pool_forward_raw(kind, x)
        np.testing.assert_allclose(u[:, :4], x.mean(axis=(2, 3)), atol=1e-15)
        np.testing.assert_allclose(u[:, 4:], x.max(axis=(2, 3)), atol=1e-15)

    def test_spa_pool_layout(self):
        kind = AttentionKind("spa", levels=(1, 2))
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 4, 4))
        u, _ = pool_forward_raw(kind, x)
        assert u.shape == (1, 10)
        np.testing.assert_allclose(u[0, :2], x[0].mean(axis=(1, 2)), atol=1e-15)
        np.testing.assert_allclose(u[0, 2], x[0, 0, :2, :2].mean(), atol=1e-15)
        np.testing.assert_allclose(u[0, 9], x[0, 1, 2:, 2:].mean(), atol=1e-15)


class TestAsrVector:
    def test_zero_body_gives_half(self):
        slot = make_slot(AttentionKind("se", reduction=2))
        values = slot_values(slot)
        values["s.w2"] = np.zeros_like(values["s.w2"])
        v = asr_vector_raw(slot, values)[0]
        np.testing.assert_allclose(v, np.full(8, 0.5), atol=1e-15)

    def test_frozen_constant_ie(self):
        slot = make_slot(AttentionKind("ie"), psi_mode="frozen_constant", psi_init=0.1)
        values = {"s.gamma": np.ones(8), "s.beta": np.zeros(8),
                  "s.psi": slot.init_psi()}
        v = asr_vector_raw(slot, values)[0]
        np.testing.assert_allclose(v, np.full(8, 1 / (1 + np.exp(-0.1))),
                                   atol=1e-12)
        assert v[0] == pytest.approx(0.52498, abs=1e-5)

    def test_input_independent(self):
        slot = make_slot(AttentionKind("srm"))
        values = slot_values(slot, seed=10)
        v1 = asr_vector_raw(slot, values)[0]
        v2 = asr_vector_raw(slot, values)[0]
        assert v1.tobytes() == v2.tobytes()

    def test_psi_dims_per_kind(self):
        assert make_slot(AttentionKind("se", reduction=2)).psi_dim == 8
        assert make_slot(AttentionKind("srm")).psi_dim == 16
        assert make_slot(AttentionKind("spa", levels=(1, 2))).psi_dim == 40
        assert make_slot(AttentionKind("cbam", reduction=2)).psi_dim == 8

    def test_frozen_modes_not_trainable(self):
        assert make_slot(AttentionKind("ie"), psi_mode="frozen_gaussian",
                         psi_init=0.3, psi_seed=4).psi_trainable is False
        assert make_slot(AttentionKind("ie")).psi_trainable is True


class TestAsrApply:
    def test_identity_when_v_one(self):
        # drive psi strongly positive so v is within 1e-12 of 1
        slot = make_slot(AttentionKind("no_body"), psi_mode="frozen_constant",
                         psi_init=40.0)
        values = {"s.psi": slot.init_psi()}
        x = np.random.default_rng(11).standard_normal((2, 8, 3, 3))
        y = asr_apply_raw(slot, values, x)[0]
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_matches_loop_oracle(self):
        slot = make_slot(AttentionKind("ie"))
        values = slot_values(slot, seed=12)
        x = np.random.default_rng(13).standard_normal((2, 8, 3, 3))
        v = asr_vector_raw(slot, values)[0]
        y = asr_apply_raw(slot, values, x)[0]
        expected = np.empty_like(x)
        for n in range(2):
            for c in range(8):
                expected[n, c] = x[n, c] * v[c]
        np.testing.assert_array_equal(y, expected)

    def test_delta_stacking_multiplies_and_shrinks(self):
        slots = [make_slot(AttentionKind("ie"), delta_index=d) for d in range(3)]
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 8, 3, 3))
        y = x.copy()
        prod = np.ones(8)
        for d, slot in enumerate(slots):
            values = slot_values(slot, seed=20 + d)
            v = asr_vector_raw(slot, values)[0]
            prod *= v
            y = asr_apply_raw(slot, values, y)[0]
        np.testing.assert_allclose(y, x * prod[None, :, None, None], atol=1e-14)
        assert ((prod > 0) & (prod < 1)).all()
        # feature magnitude is non-increasing in the stack depth
        assert np.abs(y).sum() <= np.abs(x).sum()


class TestNoBody:
    def test_zero_psi(self):
        v = no_body(np.zeros(6))
        np.testing.assert_allclose(v, np.full(6, 0.5), atol=1e-15)

    def test_limit_at_20(self):
        v = no_body(np.full(4, 20.0))
        assert (v > 1 - 1e-8).all()

    def test_matches_scalar_sigmoid(self):
        psi = np.random.default_rng(15).standard_normal(9)
        v = no_body(psi)
        np.testing.assert_allclose(v, 1 / (1 + np.exp(-psi)), atol=1e-14)


class TestCbamAsrSingleBranch:
    def test_constant_input_uses_one_branch(self):
        kind = AttentionKind("cbam", reduction=2)
        slot = make_slot(kind, channels=4)
        values = slot_values(slot, seed=16)
        v = asr_vector_raw(slot, values)[0]
        w1, w2 = values["s.w1"], values["s.w2"]
        psi = values["s.psi"]
        expected = sigmoid(w2 @ np.maximum(w1 @ psi, 0.0))
        np.testing.assert_allclose(v, expected, atol=1e-14)

    def test_standard_input_uses_both(self):
        kind = AttentionKind("cbam", reduction=2)
        rng = np.random.default_rng(17)
        p = {"w1": rng.standard_normal((2, 4)), "w2": rng.standard_normal((4, 2))}
        x = rng.standard_normal((1, 4, 3, 3))
        _, v, _ = attn_forward_raw(kind, 4, p, x)
        avg = x.mean(axis=(2, 3))[0]
        mx = x.max(axis=(2, 3))[0]
        mlp = lambda t: p["w2"] @ np.maximum(p["w1"] @ t, 0.0)
        np.testing.assert_allclose(v[0], sigmoid(mlp(avg) + mlp(mx)), atol=1e-14)


class TestEca:
    def test_circular_conv(self):
        kind = AttentionKind("eca", kernel=3)
        slot = make_slot(kind, channels=5)
        w = np.array([0.25, 0.5, -0.125])
        psi = np.arange(5.0)
        values = {"s.w": w, "s.psi": psi}
        v = asr_vector_raw(slot, values)[0]
        expected = np.empty(5)
        for c in range(5):
            acc = 0.0
            for j in range(3):
                acc += w[j] * psi[(c + j - 1) % 5]
            expected[c] = 1 / (1 + np.exp(-acc))
        np.testing.assert_allclose(v, expected, atol=1e-14)
