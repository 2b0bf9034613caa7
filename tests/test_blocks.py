"""Blocks: shape contracts, structural identities, permutation oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvseg import tensor as T
from msvseg.blocks import (_UPSAMPLERS, BatchNorm2d, BlockConfig, FLKPE, LKPE, MSVSSBlock,
                           MultiScaleFFN, PatchEmbed, PatchExpand, PatchMerge,
                           SS2DBlock, TransposedConvUp, UpsampleConv, VSSBlock,
                           pixel_shuffle, space_to_depth, upsample_nearest2x)
from msvseg.gradcheck import _f64_params
from msvseg.tensor import Rng, Tensor


def rt(seed, shape, dtype=np.float32):
    return Tensor(Rng(seed).normal(shape).astype(dtype))


def cfg(c, **kw):
    kw.setdefault("state_size", 4)
    return BlockConfig(channels=c, **kw)


def _shuffle_map(h, w, c, r):
    """Gather map: out[y, x, c] = in[y//r, x//r, c*r*r + (y%r)*r + x%r]."""
    oy, ox, oc = np.indices((h * r, w * r, c // (r * r)))
    return ((oy // r) * w + ox // r) * c + oc * r * r + (oy % r) * r + ox % r


def _space_to_depth_map(h, w, c, r):
    oy, ox, oc = np.indices((h // r, w // r, c * r * r))
    g = oc % (r * r)
    return ((oy * r + g // r) * w + (ox * r + g % r)) * c + oc // (r * r)


def _nearest_map(h, w, c, r):
    oy, ox, oc = np.indices((h * 2, w * 2, c))
    return ((oy // 2) * w + ox // 2) * c + oc


class TestPixelShuffle:
    @pytest.mark.parametrize("op,index_map,shape,r", [
        (pixel_shuffle, _shuffle_map, (3, 5, 8), 2),
        (pixel_shuffle, _shuffle_map, (2, 3, 32), 4),
        (space_to_depth, _space_to_depth_map, (4, 6, 3), 2),
        (space_to_depth, _space_to_depth_map, (8, 4, 2), 4),
        (lambda x, r: upsample_nearest2x(x), _nearest_map, (4, 5, 3), 2),
    ])
    def test_matches_index_map_definition(self, op, index_map, shape, r):
        # forward gathers through the map; backward scatter-adds through it.
        # The upsample's backward sums the four gradients of a pixel in another
        # order than np.add.at; integer-valued gradients make any order exact.
        idx = index_map(*shape, r)
        x = Tensor(Rng(70).normal(shape), dtype=np.float64, requires_grad=True)
        y = op(x, r)
        assert np.array_equal(y.data, x.data.ravel()[idx])
        grad = Rng(71).integers(-2 ** 20, 2 ** 20, idx.shape).astype(np.float64)
        T.tsum(T.mul(y, Tensor(grad, dtype=np.float64))).backward()
        expected = np.zeros(x.data.size)
        np.add.at(expected, idx.ravel(), grad.ravel())
        assert np.array_equal(x.grad, expected.reshape(shape))

    def test_channel_group_convention(self):
        # group g of output channel c lands at (h*r + g//r, w*r + g%r)
        x = np.zeros((1, 1, 4), dtype=np.float32)
        x[0, 0, :] = [10, 11, 12, 13]
        y = pixel_shuffle(Tensor(x), 2)
        assert y.data.shape == (2, 2, 1)
        assert y.data[..., 0].tolist() == [[10, 11], [12, 13]]

    def test_bijection_with_space_to_depth(self):
        x = rt(0, (4, 6, 8))
        assert np.array_equal(pixel_shuffle(space_to_depth(x, 2), 2).data, x.data)
        y = rt(1, (6, 4, 8))
        assert np.array_equal(space_to_depth(pixel_shuffle(y, 2), 2).data, y.data)

    @given(st.integers(min_value=1, max_value=3), st.sampled_from([2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_bijection_property(self, cmul, r):
        x = Tensor(Rng(cmul * 10 + r).normal((3, 2, cmul * r * r)).astype(np.float64))
        assert np.array_equal(space_to_depth(pixel_shuffle(x, r), r).data, x.data)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            pixel_shuffle(rt(2, (2, 2, 6)), 2)

    def test_nearest_upsample_enumeration(self):
        y = upsample_nearest2x(Tensor(np.array([[[5.0]]])))
        assert y.data.tolist() == [[[5.0], [5.0]], [[5.0], [5.0]]]


class TestSS2DBlock:
    @pytest.mark.parametrize("hw", [(1, 1), (3, 5), (8, 8)])
    def test_shape_preserved(self, hw):
        block = SS2DBlock(Rng(3), cfg(6))
        y = block(rt(4, hw + (6,)))
        assert y.data.shape == hw + (6,)

    def test_inner_width_doubles(self):
        block = SS2DBlock(Rng(5), cfg(6))
        assert block.proj_in.weight.data.shape == (6, 12)
        assert block.proj_out.weight.data.shape == (12, 6)


class TestMultiScaleFFN:
    def test_default_kernel_set(self):
        assert BlockConfig(channels=8).kernel_set == (1, 3, 5)

    def test_expansion_is_four(self):
        ffn = MultiScaleFFN(Rng(6), cfg(8))
        assert ffn.expand.weight.data.shape == (8, 32)

    def test_zeroed_branches_leave_inner_residual(self):
        ffn = MultiScaleFFN(Rng(7), cfg(4))
        x = rt(8, (5, 5, 4))
        for branch in ffn.branches:
            branch.kernel.data[:] = 0.0
        got = ffn(x)
        inner = T.gelu(ffn.expand(x))
        expected = ffn.reduce(inner)
        assert np.allclose(got.data, expected.data, atol=1e-6)

    @pytest.mark.parametrize("kernel_set", [(1,), (3,), (1, 3, 5), (3, 7)])
    def test_merged_kernel_matches_per_branch_sum(self, kernel_set):
        # oracle: h plus one depthwise conv per branch, as separate ops
        def per_branch(ffn, x):
            h = T.gelu(ffn.expand(x))
            s = h
            for branch in ffn.branches:
                s = s + branch(h)
            return ffn.reduce(s)

        ffn = MultiScaleFFN(Rng(12), cfg(3, kernel_set=kernel_set))
        params = _f64_params(ffn, jitter_rng=Rng(13))
        x = Tensor(Rng(14).normal((2, 6, 5, 3)), dtype=np.float64, requires_grad=True)
        w = T.constant(Rng(15).normal((2, 6, 5, 3)))
        results = []
        for forward in (lambda: ffn(x), lambda: per_branch(ffn, x)):
            for t in [x] + params:
                t.grad = None
            y = forward()
            T.tsum(T.mul(y, w)).backward()
            results.append([y.data] + [t.grad.copy() for t in [x] + params])
        for got, ref in zip(*results):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestResidualBlocks:
    @pytest.mark.parametrize("cls", [MSVSSBlock, VSSBlock])
    def test_zeroed_branches_give_identity(self, cls):
        block = cls(Rng(9), cfg(6))
        block.mixer.proj_out.weight.data[:] = 0.0
        block.mixer.proj_out.bias.data[:] = 0.0
        block.ffn.reduce.weight.data[:] = 0.0
        block.ffn.reduce.bias.data[:] = 0.0
        x = rt(10, (4, 4, 6))
        assert np.array_equal(block(x).data, x.data)

    @pytest.mark.parametrize("cls", [MSVSSBlock, VSSBlock])
    def test_shape_preserved(self, cls):
        block = cls(Rng(11), cfg(4))
        y = block(rt(12, (6, 7, 4)))
        assert y.data.shape == (6, 7, 4)

    def test_vss_equals_msvss_with_zeroed_branches_and_copied_weights(self):
        msvss = MSVSSBlock(Rng(13), cfg(6))
        vss = VSSBlock(Rng(14), cfg(6))
        msvss_params = dict(msvss.named_parameters())
        for name, p in vss.named_parameters():
            p.data[...] = msvss_params[name].data
        for branch in msvss.ffn.branches:
            branch.kernel.data[:] = 0.0
        x = rt(15, (5, 5, 6))
        assert np.allclose(vss(x).data, msvss(x).data, atol=1e-6)


class TestPatchResamplers:
    def test_patch_embed_shapes(self):
        pe = PatchEmbed(Rng(16), 16)
        assert pe(rt(17, (3, 32, 32))).data.shape == (8, 8, 16)
        pe2 = PatchEmbed(Rng(18), 96)
        assert pe2(rt(19, (3, 224, 224))).data.shape == (56, 56, 96)

    def test_patch_embed_constant_image_gives_identical_patches(self):
        pe = PatchEmbed(Rng(20), 8)
        y = pe(Tensor(np.full((3, 16, 16), 0.37, dtype=np.float32)))
        flat = y.data.reshape(-1, 8)
        assert np.allclose(flat, flat[:1], atol=1e-6)

    def test_patch_embed_indivisible_rejected(self):
        with pytest.raises(ValueError):
            PatchEmbed(Rng(21), 8)(rt(22, (3, 30, 32)))

    def test_patch_merge_shapes(self):
        pm = PatchMerge(Rng(23), 96)
        assert pm(rt(24, (56, 56, 96))).data.shape == (28, 28, 192)

    def test_patch_merge_single_position(self):
        pm = PatchMerge(Rng(25), 1)
        y = pm(rt(26, (2, 2, 1)))
        assert y.data.shape == (1, 1, 2)

    def test_patch_merge_odd_rejected(self):
        with pytest.raises(ValueError):
            PatchMerge(Rng(27), 4)(rt(28, (5, 6, 4)))

    def test_merge_then_expand_restores_extents(self):
        x = rt(29, (6, 6, 8))
        merged = PatchMerge(Rng(30), 8)(x)
        restored = LKPE(Rng(31), 16)(merged)
        assert restored.data.shape == x.data.shape


class TestUpsamplers:
    @pytest.mark.parametrize("kind", ["lkpe", "patch_expand", "transposed_conv", "upsample_block"])
    def test_shape_contract(self, kind):
        up = _UPSAMPLERS[kind](Rng(32), 8)
        y = up(rt(33, (4, 5, 8)))
        assert y.data.shape == (8, 10, 4)

    def test_lkpe_shape_ladder(self):
        # halving: 8C at stride 32 must meet the 4C skip at stride 16
        assert LKPE(Rng(34), 768)(rt(35, (7, 7, 768), np.float32)).data.shape == (14, 14, 384)

    def test_odd_channels_rejected(self):
        for kind in ("lkpe", "patch_expand", "transposed_conv", "upsample_block"):
            with pytest.raises(ValueError):
                _UPSAMPLERS[kind](Rng(36), 7)

    def test_lkpe_reduces_to_patch_expand(self):
        # with a delta depthwise kernel, LKPE is PatchExpand with the
        # per-sample batch norm and ReLU between expansion and pixel shuffle
        lkpe = LKPE(Rng(38), 8)
        pex = PatchExpand(Rng(39), 8)
        pex.expand.weight.data[...] = lkpe.expand.weight.data
        pex.norm.gamma.data[...] = lkpe.norm.gamma.data
        pex.norm.beta.data[...] = lkpe.norm.beta.data
        lkpe.expand.bias.data[:] = 0.0
        lkpe.dwconv.kernel.data[:] = 0.0
        lkpe.dwconv.kernel.data[:, 1, 1] = 1.0
        x = Tensor(np.abs(Rng(40).normal((4, 4, 8))).astype(np.float32) + 0.1)
        got = lkpe(x)
        h = pex.expand(x).data.astype(np.float64)
        h = (h - h.mean(axis=(0, 1), keepdims=True)) / np.sqrt(h.var(axis=(0, 1), keepdims=True) + 1e-5)
        expected = pex.norm(pixel_shuffle(Tensor(np.maximum(h, 0.0).astype(np.float32)), 2))
        assert np.allclose(got.data, expected.data, atol=1e-5)

    def test_lkpe_matches_index_mapping_oracle(self):
        # identity-duplicating expansion + delta depthwise kernel: the output
        # is a pixel shuffle of the normalized, rectified duplicated input,
        # then layer norm
        c, h, w = 4, 3, 3
        lkpe = LKPE(Rng(41), c)
        lkpe.expand.weight.data[:] = 0.0
        for j in range(2 * c):
            lkpe.expand.weight.data[j % c, j] = 1.0
        lkpe.expand.bias.data[:] = 0.0
        lkpe.dwconv.kernel.data[:] = 0.0
        lkpe.dwconv.kernel.data[:, 1, 1] = 1.0
        x = np.abs(Rng(42).normal((h, w, c))) + 0.1

        # direct index-mapping oracle, nested loops
        dup = np.empty((h, w, 2 * c))
        for j in range(2 * c):
            dup[..., j] = x[..., j % c]
        # per-sample batch norm over (H, W), unit scale and zero shift, then ReLU
        dup = (dup - dup.mean(axis=(0, 1), keepdims=True)) / np.sqrt(
            dup.var(axis=(0, 1), keepdims=True) + 1e-5)
        dup = np.maximum(dup, 0.0)
        shuffled = np.empty((2 * h, 2 * w, c // 2))
        for oc in range(c // 2):
            for oy in range(2 * h):
                for ox in range(2 * w):
                    g = (oy % 2) * 2 + ox % 2
                    shuffled[oy, ox, oc] = dup[oy // 2, ox // 2, oc * 4 + g]
        mu = shuffled.mean(axis=-1, keepdims=True)
        var = shuffled.var(axis=-1, keepdims=True)
        expected = (shuffled - mu) / np.sqrt(var + 1e-5)

        got = lkpe(Tensor(x.astype(np.float32)))
        assert np.allclose(got.data, expected, atol=1e-4)

    def test_transposed_conv_uniform_kernel_constant_input(self):
        up = TransposedConvUp(Rng(43), 4)
        up.proj.weight.data[:] = 0.5
        up.proj.bias.data[:] = 0.0
        y = up(Tensor(np.full((3, 3, 4), 2.0, dtype=np.float32)))
        assert np.allclose(y.data, y.data.ravel()[0])

    def test_upsample_conv_halves_channels(self):
        up = UpsampleConv(Rng(44), 8)
        assert up(rt(45, (3, 3, 8))).data.shape == (6, 6, 4)


class TestShapeSweep:
    @pytest.mark.parametrize("hw", [(4, 4), (5, 7), (8, 6), (12, 12), (33, 17), (64, 4)])
    def test_residual_blocks_preserve_any_extent(self, hw):
        block = MSVSSBlock(Rng(60), cfg(4))
        assert block(rt(61, hw + (4,))).data.shape == hw + (4,)

    @pytest.mark.parametrize("hw", [(4, 4), (6, 10), (32, 64)])
    def test_resamplers_across_even_extents(self, hw):
        h, w = hw
        assert PatchMerge(Rng(62), 4)(rt(63, (h, w, 4))).data.shape == (h // 2, w // 2, 8)
        assert LKPE(Rng(64), 8)(rt(65, (h, w, 8))).data.shape == (2 * h, 2 * w, 4)
        assert FLKPE(Rng(66), 4, 5)(rt(67, (h, w, 4))).data.shape == (5, 4 * h, 4 * w)


class TestFLKPE:
    def test_shape_ladder(self):
        head = FLKPE(Rng(46), 96, 9)
        assert head(rt(47, (14, 14, 96))).data.shape == (9, 56, 56)
        head2 = FLKPE(Rng(48), 16, 4)
        assert head2(rt(49, (8, 8, 16))).data.shape == (4, 32, 32)

    def test_expansion_is_sixteen(self):
        head = FLKPE(Rng(50), 8, 2)
        assert head.expand.weight.data.shape == (8, 128)


class TestBatchNormModule:
    def test_eval_default_is_stateless(self):
        bn = BatchNorm2d(4)
        x = rt(52, (3, 3, 4))
        y1 = bn(x)
        y2 = bn(x)
        assert np.array_equal(y1.data, y2.data)
