"""Vector algebra, validation and serialization of the dense field types."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import graphlap as gl
from graphlap.grid import format_cell, write_csv, write_pgm, write_table
from graphlap.solver import IterateRecord, write_trace_csv

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def images(max_side=6):
    shapes = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=max_side)
    return arrays(np.float64, shapes, elements=finite_floats).map(gl.ImageGrid)


def image_pairs(max_side=6):
    """Two ImageGrids of one common shape."""
    shapes = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=max_side)
    return shapes.flatmap(
        lambda s: st.tuples(
            arrays(np.float64, s, elements=finite_floats).map(gl.ImageGrid),
            arrays(np.float64, s, elements=finite_floats).map(gl.ImageGrid),
        )
    )


class TestConstruction:
    def test_values_are_float64_and_read_only(self):
        img = gl.ImageGrid([[1, 2], [3, 4]])
        assert img.values.dtype == np.float64
        with pytest.raises(ValueError):
            img.values[0, 0] = 5.0

    def test_input_array_is_copied(self):
        src = np.ones((2, 2))
        img = gl.ImageGrid(src)
        src[0, 0] = 7.0
        assert img.values[0, 0] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(gl.NonFiniteError):
            gl.ImageGrid([[0.0, bad]])
        with pytest.raises(gl.NonFiniteError):
            gl.Sinogram([[bad]])

    @pytest.mark.parametrize("bad", [[], [1.0, 2.0], [[[1.0]]], [[]]])
    def test_wrong_rank_or_empty_rejected(self, bad):
        with pytest.raises(gl.ShapeMismatch):
            gl.ImageGrid(bad)

    def test_shape_accessors(self):
        img = gl.ImageGrid(np.zeros((3, 5)))
        assert (img.height, img.width, img.shape) == (3, 5, (3, 5))
        sino = gl.Sinogram(np.zeros((4, 7)))
        assert (sino.num_angles, sino.num_detectors, sino.shape) == (4, 7, (4, 7))


class TestAlgebra:
    def test_dot_of_zeros_is_zero(self):
        z = gl.ImageGrid(np.zeros((4, 4)))
        assert gl.dot(z, z) == 0.0

    def test_dot_of_distinct_unit_pixels_is_zero(self):
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        a[0, 1] = 1.0
        b[2, 2] = 1.0
        assert gl.dot(gl.ImageGrid(a), gl.ImageGrid(b)) == 0.0

    def test_dot_hand_computed_sum_of_squares(self):
        # 0.2^2 + 0.3^2 + 0.5^2 + 0.1^2 = 0.39
        u = gl.ImageGrid([[0.2, 0.3], [0.5, 0.1]])
        assert gl.dot(u, u) == pytest.approx(0.39, abs=1e-12)
        assert gl.norm(u) == pytest.approx(math.sqrt(0.39), abs=1e-12)

    def test_norm_of_zeros(self):
        assert gl.norm(gl.ImageGrid(np.zeros((2, 5)))) == 0.0

    def test_norm_outside_the_range_of_squares(self):
        # the squares underflow to 0 or overflow to inf; the norm does neither
        assert gl.norm(gl.ImageGrid([[1e-200]])) == 1e-200
        assert gl.norm(gl.ImageGrid([[0.0, -1e-200]])) == 1e-200
        with np.errstate(over="ignore"):
            assert gl.norm(gl.ImageGrid([[3e200, 4e200]])) == pytest.approx(5e200, rel=1e-15)

    def test_mixed_types_rejected(self):
        with pytest.raises(gl.ShapeMismatch):
            gl.dot(gl.ImageGrid(np.zeros((2, 2))), gl.Sinogram(np.zeros((2, 2))))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(gl.ShapeMismatch):
            gl.add(gl.ImageGrid(np.zeros((2, 2))), gl.ImageGrid(np.zeros((2, 3))))

    @given(image_pairs())
    def test_dot_is_bit_symmetric(self, pair):
        a, b = pair
        assert gl.dot(a, b) == gl.dot(b, a)

    # Drawn pairs are those whose dot is 0 or normal.  Below the smallest
    # normal every product rounds to a multiple of 2^-1074, so a sum of a few
    # can exceed ||a|| ||b|| by more than any relative slack (a = b =
    # [[3.5e-162, 4.3e-162]] gives 3.5e-323 against 3e-323); from the smallest
    # normal up, that absolute error is below 1e-14 of the result.  The
    # single-entry examples are one correctly rounded product, which the
    # slack covers even where it is subnormal.
    @given(image_pairs().filter(lambda pair: not 0.0 < abs(gl.dot(*pair)) < np.finfo(float).tiny))
    @example((gl.ImageGrid([[1.0]]), gl.ImageGrid([[1.1125369292536007e-308]])))
    @example((gl.ImageGrid([[3e-158]]), gl.ImageGrid([[7e-159]])))
    def test_cauchy_schwarz(self, pair):
        a, b = pair
        assert abs(gl.dot(a, b)) <= gl.norm(a) * gl.norm(b) * (1.0 + 1e-12)

    @given(images())
    def test_axpy_minus_one_cancels_exactly(self, a):
        assert gl.norm(gl.axpy(-1.0, a, a)) == 0.0

    @given(image_pairs())
    def test_axpy_zero_is_identity(self, pair):
        x, y = pair
        assert np.array_equal(gl.axpy(0.0, x, y).values, y.values)

    @given(image_pairs())
    def test_add_sub_axpy_consistent(self, pair):
        x, y = pair
        direct = gl.add(y, x)
        assert np.array_equal(gl.axpy(1.0, x, y).values, direct.values)
        back = gl.sub(direct, x)
        assert np.allclose(back.values, y.values, rtol=0, atol=1e-9)

    def test_scale_preserves_type(self):
        s = gl.scale(2.0, gl.Sinogram([[1.0, 2.0]]))
        assert isinstance(s, gl.Sinogram)
        assert np.array_equal(s.values, [[2.0, 4.0]])


class TestSerialization:
    def test_pgm_header_and_payload(self, tmp_path):
        img = gl.ImageGrid([[0.0, 1.0], [0.5, 2.0]])  # 2.0 clamps to 255
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[len(b"P5\n2 2\n255\n"):] == bytes([0, 255, 128, 255])

    def test_pgm_clamps_negatives(self, tmp_path):
        path = tmp_path / "neg.pgm"
        write_pgm(gl.ImageGrid([[-3.0]]), path)
        assert path.read_bytes().endswith(bytes([0]))

    def test_csv_round_trip_is_lossless(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(3))
        vals = rng.standard_normal((5, 7)) * np.logspace(-300, 2, 35).reshape(5, 7)
        vals[0, 0] = 1.0 / 3.0
        img = gl.ImageGrid(vals)
        path = tmp_path / "img.csv"
        write_csv(img, path)
        again = np.array([[float(cell) for cell in line.split(",")] for line in path.read_text().splitlines()])
        assert again.tobytes() == img.values.tobytes()


class TestTableWriter:
    @pytest.mark.parametrize("value, text", [
        (7, "7"), (np.int64(7), "7"), (True, "True"), ("adjoint", "adjoint"), (None, ""),
        (0.1, "0.1"), (-0.0, "-0.0"), (5e-324, "5e-324"), (1e300, "1e+300"), (math.nan, "nan"),
        (np.float64(0.1), "0.1"), (np.float64(-0.0), "-0.0"), (np.float64(5e-324), "5e-324"),
        (np.float64(1e300), "1e+300"), (np.float64(math.nan), "nan"),
    ])
    def test_cell_text(self, value, text):
        assert format_cell(value) == text

    def test_append_writes_the_header_once(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [(1, 0.5)], ("a", "b"), append=True)
        write_table(path, [(2, None)], ("a", "b"), append=True)
        assert path.read_text() == "a,b\n1,0.5\n2,\n"

    def test_no_columns_writes_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [("stale",)])
        write_table(path, [(1, 2.0), ("x", -0.0)])
        assert path.read_text() == "1,2.0\nx,-0.0\n"

    def test_trace_csv_bytes(self, tmp_path):
        trace = [
            IterateRecord(k=0, residual=30.5, alpha=0.1, beta=np.float64(0.0), laplacian_term_norm=5e-324,
                          error_to_truth=1e300),
            IterateRecord(k=1, residual=2.0, alpha=0.5, beta=1.0, laplacian_term_norm=0.0),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == (b"k,residual,alpha,beta,laplacian_term_norm,error_to_truth\n"
                                     b"0,30.5,0.1,0.0,5e-324,1e+300\n"
                                     b"1,2.0,0.5,1.0,0.0,\n")
