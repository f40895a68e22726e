import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grfsq.errors import InvalidCode, InvalidConfig, InvalidIndex, InvalidInput, TooLarge
from grfsq.fsq import (
    ENUMERATION_CAP,
    LevelSpec,
    bound,
    codes_to_index,
    enumerate_codebook,
    fsq_dequantize,
    fsq_quantize,
    index_to_codes,
    ste_gradient,
)

SPEC5 = LevelSpec((5,))
SPEC5x4 = LevelSpec((5, 5, 5, 5))

# frozen from a 30-digit mpmath evaluation of tanh(0.8)
TANH_08 = 0.6640367702678490


def brute_force_index(y: np.ndarray, spec: LevelSpec) -> int:
    """Exhaustive nearest codeword in L2; ties resolve to the larger flat index."""
    book = enumerate_codebook(spec)
    d2 = ((book - y) ** 2).sum(axis=1)
    return int(np.flatnonzero(d2 == d2.min()).max())


class TestLevelSpec:
    def test_basic_properties(self):
        assert SPEC5x4.d == 4
        assert SPEC5x4.codebook_size == 625
        assert SPEC5x4.strides == (1, 5, 25, 125)

    @pytest.mark.parametrize("levels", [(), (1,), (5, 1), (0, 3)])
    def test_invalid_levels(self, levels):
        with pytest.raises(InvalidConfig):
            LevelSpec(levels)

    def test_codebook_size_must_fit_u64(self):
        LevelSpec((2,) * 63)  # 2^63 is fine
        with pytest.raises(InvalidConfig):
            LevelSpec((2,) * 65)


class TestBound:
    def test_zero_maps_to_zero(self):
        assert bound([0.0, 0.0], LevelSpec((5, 5))).tolist() == [0.0, 0.0]

    def test_saturation(self):
        assert abs(bound([1e9], SPEC5)[0] - 1.0) < 1e-12

    def test_reference_point(self):
        assert abs(bound([0.8], SPEC5)[0] - TANH_08) < 1e-12

    @pytest.mark.parametrize("bad", [[float("nan")], [float("inf")], [-float("inf")]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidInput):
            bound(bad, SPEC5)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidInput):
            bound([0.1, 0.2], SPEC5)


class TestFsqQuantize:
    def test_midpoint_of_odd_grid(self):
        codes, values = fsq_quantize([0.0], SPEC5)
        assert codes.tolist() == [2]
        assert values.tolist() == [0.0]

    def test_saturates_to_top_level(self):
        codes, values = fsq_quantize([10.0], SPEC5)
        assert codes.tolist() == [4]
        assert values.tolist() == [1.0]

    def test_reference_point(self):
        # tanh(0.6) = 0.537, closest of {-1,-0.5,0,0.5,1} is 0.5
        codes, values = fsq_quantize([0.6], SPEC5)
        assert codes.tolist() == [3]
        assert values.tolist() == [0.5]
        assert codes_to_index(codes, SPEC5) == brute_force_index(bound([0.6], SPEC5), SPEC5)

    def test_tie_breaks_toward_larger_code(self):
        # atanh(0.25) is exactly midway between levels 0.0 and 0.5 after tanh
        z = math.atanh(0.25)
        assert math.tanh(z) == 0.25
        codes, _ = fsq_quantize([z], SPEC5)
        assert codes.tolist() == [3]

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            fsq_quantize([float("nan")], SPEC5)

    @pytest.mark.parametrize("spec", [SPEC5x4, LevelSpec((4, 5)), LevelSpec((2, 3, 7))])
    def test_matches_brute_force_search(self, spec):
        rng = np.random.default_rng(1234)
        for z in rng.normal(0.0, 1.5, size=(500, spec.d)):
            codes, _ = fsq_quantize(z, spec)
            assert codes_to_index(codes, spec) == brute_force_index(bound(z, spec), spec)

    def test_deterministic(self):
        z = np.random.default_rng(9).normal(size=4)
        a = fsq_quantize(z, SPEC5x4)
        b = fsq_quantize(z, SPEC5x4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestFsqDequantize:
    def test_extremes_and_center(self):
        assert fsq_dequantize([0], SPEC5).tolist() == [-1.0]
        assert fsq_dequantize([2], SPEC5).tolist() == [0.0]
        assert fsq_dequantize([4], SPEC5).tolist() == [1.0]

    def test_grid_formula_per_dimension(self):
        values = fsq_dequantize([1, 3], LevelSpec((4, 5)))
        assert values[0] == -1.0 + 2.0 * 1 / 3.0
        assert abs(values[0] - (-1.0 / 3.0)) < 1e-15
        assert values[1] == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidCode):
            fsq_dequantize([5], SPEC5)
        with pytest.raises(InvalidCode):
            fsq_dequantize([-1], SPEC5)

    def test_values_are_exact_grid_points(self):
        spec = LevelSpec((3, 6, 9))
        for index in range(spec.codebook_size):
            codes = index_to_codes(index, spec)
            values = fsq_dequantize(codes, spec)
            for i, (k, l) in enumerate(zip(codes, spec.levels)):
                assert values[i] == -1.0 + (2.0 * k) / (l - 1.0)


class TestIndexBijection:
    def test_flat_examples(self):
        assert codes_to_index([0, 0, 0, 0], SPEC5x4) == 0
        assert codes_to_index([1, 0, 0, 0], SPEC5x4) == 1
        assert codes_to_index([4, 4, 4, 4], SPEC5x4) == 624

    def test_inverse_examples(self):
        assert index_to_codes(0, SPEC5x4).tolist() == [0, 0, 0, 0]
        assert index_to_codes(624, SPEC5x4).tolist() == [4, 4, 4, 4]
        assert index_to_codes(7, LevelSpec((2, 2, 2))).tolist() == [1, 1, 1]

    def test_errors(self):
        with pytest.raises(InvalidIndex):
            index_to_codes(625, SPEC5x4)
        with pytest.raises(InvalidIndex):
            index_to_codes(-1, SPEC5x4)
        with pytest.raises(InvalidCode):
            codes_to_index([5, 0, 0, 0], SPEC5x4)

    @pytest.mark.parametrize("spec", [SPEC5x4, LevelSpec((3, 4, 7)), LevelSpec((2,))])
    def test_exhaustive_round_trip(self, spec):
        for index in range(spec.codebook_size):
            assert codes_to_index(index_to_codes(index, spec), spec) == index

    def test_round_trip_above_signed_64_bit(self):
        # 255**8 > 2**63: indices past the signed range must still round-trip
        spec = LevelSpec((255,) * 8)
        assert spec.codebook_size > 2**63
        for index in (0, 2**63 - 1, 2**63, 2**63 + 12345, spec.codebook_size - 1):
            codes = index_to_codes(index, spec)
            assert codes_to_index(codes, spec) == index
        assert index_to_codes(spec.codebook_size - 1, spec).tolist() == [254] * 8
        assert codes_to_index([254] * 8, spec) == spec.codebook_size - 1

    @given(
        levels=st.lists(st.integers(2, 9), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, levels, data):
        spec = LevelSpec(tuple(levels))
        index = data.draw(st.integers(0, spec.codebook_size - 1))
        assert codes_to_index(index_to_codes(index, spec), spec) == index


class TestSteGradient:
    def test_unit_at_origin(self):
        assert ste_gradient([0.0], SPEC5, [1.0]).tolist() == [1.0]

    def test_saturated_region(self):
        assert abs(ste_gradient([100.0], SPEC5, [1.0])[0]) < 1e-12

    def test_reference_point(self):
        # frozen central finite difference of tanh at 0.5 (step 1e-5), doubled
        got = ste_gradient([0.5], SPEC5, [2.0])[0]
        assert abs(got - 1.5728954659130145) < 1e-5

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        spec = LevelSpec((5, 5, 5))
        h = 1e-5
        for z in rng.normal(0.0, 2.0, size=(100, 3)):
            grad = ste_gradient(z, spec, np.ones(3))
            fd = (np.tanh(z + h) - np.tanh(z - h)) / (2 * h)
            assert np.max(np.abs(grad - fd)) < 1e-5

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            ste_gradient([float("inf")], SPEC5, [1.0])


class TestEnumerateCodebook:
    def test_two_levels(self):
        assert enumerate_codebook(LevelSpec((2,))).tolist() == [[-1.0], [1.0]]

    def test_three_levels(self):
        assert enumerate_codebook(LevelSpec((3,))).tolist() == [[-1.0], [0.0], [1.0]]

    def test_default_grid(self):
        book = enumerate_codebook(SPEC5x4)
        assert book.shape == (625, 4)
        assert len(np.unique(book, axis=0)) == 625
        assert book[624].tolist() == [1.0, 1.0, 1.0, 1.0]
        # flat-index ordering: dimension 0 is least significant
        assert book[1].tolist() == [-0.5, -1.0, -1.0, -1.0]

    def test_rows_match_dequantize(self):
        spec = LevelSpec((4, 3))
        book = enumerate_codebook(spec)
        for index in range(spec.codebook_size):
            assert np.array_equal(book[index], fsq_dequantize(index_to_codes(index, spec), spec))

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_codebook(LevelSpec((10,) * 7))
        with pytest.raises(TooLarge):
            enumerate_codebook(SPEC5x4, cap=100)
        assert ENUMERATION_CAP == 10**6
