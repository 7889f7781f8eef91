"""Binary grid/silhouette formats and viewpoint JSON interchange."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsel.geometry import Viewpoint
from voxsel.grid import OccupancySet, VoxelGrid
from voxsel.io import (
    FormatError,
    SIL_MAGIC,
    VXG_MAGIC,
    parse_sil,
    parse_vxg,
    read_sil,
    read_vxg,
    sil_bytes,
    viewpoint_from_dict,
    viewpoint_to_dict,
    vxg_bytes,
    write_sil,
    write_vxg,
)
from voxsel.synthesis import SilhouetteImage


def random_float_grid(rng, dims):
    # float32 payload: draw values already quantized so round-trips are exact
    vals = rng.random(dims, dtype=np.float32).astype(np.float64)
    return VoxelGrid(vals)


def random_occ(rng, dims):
    return OccupancySet(rng.random(dims) < 0.5)


def random_sil(rng, dims):
    return SilhouetteImage(rng.random(dims) < 0.5)


dims3 = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
dims2 = st.tuples(st.integers(1, 9), st.integers(1, 9))


class TestVxgFormat:
    def test_header_layout(self):
        g = VoxelGrid.zeros((2, 3, 4))
        data = vxg_bytes(g)
        assert data[:8] == b"VXGRID01"
        assert struct.unpack("<III", data[8:20]) == (2, 3, 4)
        assert data[20] == 0
        assert len(data) == 21 + 4 * 24

    def test_bit_flag_layout_lsb_first(self):
        bits = np.zeros((3, 3, 1), dtype=bool)
        bits[0, 0, 0] = True  # flat index 0
        bits[2, 1, 0] = True  # flat index (0*3+1)*3+2 = 5
        bits[2, 2, 0] = True  # flat index 8
        data = vxg_bytes(OccupancySet(bits))
        assert data[20] == 1
        payload = data[21:]
        assert len(payload) == 2  # 9 bits packed, final byte zero-padded
        assert payload[0] == (1 << 0) | (1 << 5)
        assert payload[1] == 1

    @given(st.integers(0, 10_000), dims3)
    @settings(max_examples=120, deadline=None)
    def test_float_round_trip(self, seed, dims):
        g = random_float_grid(np.random.default_rng(seed), dims)
        back = parse_vxg(vxg_bytes(g))
        assert isinstance(back, VoxelGrid)
        assert back.dims == g.dims
        assert np.array_equal(back.values, g.values)

    @given(st.integers(0, 10_000), dims3)
    @settings(max_examples=120, deadline=None)
    def test_bits_round_trip(self, seed, dims):
        s = random_occ(np.random.default_rng(seed), dims)
        back = parse_vxg(vxg_bytes(s))
        assert isinstance(back, OccupancySet)
        assert np.array_equal(back.bits, s.bits)

    def test_file_round_trip(self, tmp_path):
        g = random_float_grid(np.random.default_rng(0), (4, 4, 4))
        path = tmp_path / "grid.vxg"
        write_vxg(path, g)
        assert np.array_equal(read_vxg(path).values, g.values)

    def test_only_grids_and_occupancy_sets_serialize(self):
        with pytest.raises(TypeError, match="expected VoxelGrid or OccupancySet, got ndarray"):
            vxg_bytes(np.zeros((2, 2, 2)))

    def test_bad_magic_rejected_with_position(self):
        data = b"VOXELS00" + vxg_bytes(VoxelGrid.zeros((2, 2, 2)))[8:]
        with pytest.raises(FormatError, match=r"bad magic.*offset 0"):
            parse_vxg(data)

    def test_unknown_flag_rejected_with_position(self):
        data = bytearray(vxg_bytes(VoxelGrid.zeros((2, 2, 2))))
        data[20] = 7
        with pytest.raises(FormatError, match=r"unknown payload flag 7.*offset 20"):
            parse_vxg(bytes(data))

    def test_truncated_header_rejected(self):
        with pytest.raises(FormatError, match="truncated"):
            parse_vxg(b"VXGRID01\x02")

    def test_short_payload_rejected(self):
        data = vxg_bytes(VoxelGrid.zeros((2, 2, 2)))
        with pytest.raises(FormatError, match="payload bytes"):
            parse_vxg(data[:-3])

    def test_long_payload_rejected(self):
        data = vxg_bytes(VoxelGrid.zeros((2, 2, 2))) + bytes(4)
        with pytest.raises(FormatError, match="expected 32 payload bytes for 8 voxels, got 36"):
            parse_vxg(data)

    def test_bit_payload_size_mismatch_rejected(self):
        data = vxg_bytes(OccupancySet(np.ones((3, 3, 2), dtype=bool)))  # 18 bits in 3 bytes
        with pytest.raises(FormatError, match="expected 3 payload bytes for 18 bits, got 2"):
            parse_vxg(data[:-1])
        with pytest.raises(FormatError, match="expected 3 payload bytes for 18 bits, got 4"):
            parse_vxg(data + b"\x00")

    def test_zero_dim_rejected(self):
        data = VXG_MAGIC + struct.pack("<IIIB", 0, 2, 2, 0)
        with pytest.raises(FormatError, match="dims must be positive"):
            parse_vxg(data)

    def test_non_finite_values_rejected(self):
        flat = np.full(8, np.inf, dtype="<f4")
        data = VXG_MAGIC + struct.pack("<IIIB", 2, 2, 2, 0) + flat.tobytes()
        with pytest.raises(FormatError, match="non-finite"):
            parse_vxg(data)

    def test_out_of_range_values_clamped_with_warning(self):
        flat = np.full(8, 1.5, dtype="<f4")
        data = VXG_MAGIC + struct.pack("<IIIB", 2, 2, 2, 0) + flat.tobytes()
        with pytest.warns(UserWarning, match="clamped"):
            g = parse_vxg(data)
        assert g.values.max() == 1.0

    def test_payload_is_x_fastest(self):
        vals = np.zeros((2, 2, 2))
        vals[1, 0, 0] = 1.0  # flat index 1 in x-fastest order
        data = vxg_bytes(VoxelGrid(vals))
        floats = np.frombuffer(data[21:], dtype="<f4")
        assert floats[1] == 1.0
        assert floats.sum() == 1.0

    def test_float_payload_holds_every_index_x_fastest(self):
        vals = np.arange(2 * 3 * 4).reshape((2, 3, 4)) / 32.0  # exact in float32
        floats = np.frombuffer(vxg_bytes(VoxelGrid(vals))[21:], dtype="<f4")
        for x in range(2):
            for y in range(3):
                for z in range(4):
                    assert floats[(z * 3 + y) * 2 + x] == vals[x, y, z]

    def test_bit_payload_holds_every_index_x_fastest(self):
        bits = np.random.default_rng(3).random((3, 4, 5)) < 0.5
        payload = np.frombuffer(vxg_bytes(OccupancySet(bits))[21:], dtype=np.uint8)
        flat = np.unpackbits(payload, count=60, bitorder="little")
        for x in range(3):
            for y in range(4):
                for z in range(5):
                    assert flat[(z * 4 + y) * 3 + x] == bits[x, y, z]


class TestSilFormat:
    def test_header_layout(self):
        sil = SilhouetteImage(np.zeros((3, 5), dtype=bool))
        data = sil_bytes(sil)
        assert data[:8] == b"SILIMG01"
        assert struct.unpack("<II", data[8:16]) == (3, 5)
        assert len(data) == 16 + 2  # 15 bits -> 2 bytes

    def test_bit_order_lsb_first_y_fastest(self):
        px = np.zeros((3, 3), dtype=bool)
        px[0, 0] = True  # flat 0
        px[2, 1] = True  # flat 1*3+2 = 5
        px[2, 2] = True  # flat 8
        data = sil_bytes(SilhouetteImage(px))
        assert data[16] == (1 << 0) | (1 << 5)
        assert data[17] == 1

    def test_payload_holds_every_index_y_fastest(self):
        px = np.array([[True, False, True], [True, True, False]])
        payload = np.frombuffer(sil_bytes(SilhouetteImage(px))[16:], dtype=np.uint8)
        flat = np.unpackbits(payload, count=6, bitorder="little")
        for y in range(2):
            for z in range(3):
                assert flat[z * 2 + y] == px[y, z]

    @given(st.integers(0, 10_000), dims2)
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, seed, dims):
        sil = random_sil(np.random.default_rng(seed), dims)
        back = parse_sil(sil_bytes(sil))
        assert back.dims == sil.dims
        assert np.array_equal(back.pixels, sil.pixels)

    def test_file_round_trip(self, tmp_path):
        sil = random_sil(np.random.default_rng(4), (6, 7))
        path = tmp_path / "view.sil"
        write_sil(path, sil)
        assert np.array_equal(read_sil(path).pixels, sil.pixels)

    def test_bad_magic_rejected(self):
        sil = SilhouetteImage(np.zeros((2, 2), dtype=bool))
        data = b"SILHOU00" + sil_bytes(sil)[8:]
        with pytest.raises(FormatError, match=r"bad magic.*offset 0"):
            parse_sil(data)

    def test_truncated_rejected(self):
        with pytest.raises(FormatError, match="truncated"):
            parse_sil(b"SILIMG01")

    def test_payload_size_mismatch_rejected(self):
        sil = SilhouetteImage(np.ones((4, 4), dtype=bool))
        with pytest.raises(FormatError, match="payload bytes"):
            parse_sil(sil_bytes(sil) + b"\x00")

    def test_zero_dim_rejected(self):
        data = SIL_MAGIC + struct.pack("<II", 4, 0)
        with pytest.raises(FormatError, match="dims must be positive"):
            parse_sil(data)


class TestViewpointJson:
    def test_round_trip(self):
        v = Viewpoint(-135.0, 22.5)
        assert viewpoint_from_dict(viewpoint_to_dict(v)) == v

    def test_roll_is_omitted(self):
        assert set(viewpoint_to_dict(Viewpoint(0.0, 0.0))) == {"yaw", "pitch"}

    @given(st.floats(-180.0, 179.999), st.floats(-90.0, 90.0))
    def test_lossless_for_finite_angles(self, yaw, pitch):
        v = Viewpoint(yaw, pitch)
        back = viewpoint_from_dict(viewpoint_to_dict(v))
        assert back.yaw == v.yaw and back.pitch == v.pitch

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="yaw"):
            viewpoint_from_dict({"pitch": 10.0})
        with pytest.raises(ValueError, match="yaw"):
            viewpoint_from_dict({"yaw": None, "pitch": 1.0})

    @pytest.mark.parametrize(
        "obj",
        [
            {"yaw": "30", "pitch": 0.0},
            {"yaw": 30.0, "pitch": "0"},
            {"yaw": True, "pitch": 0.0},
            {"yaw": 30, "pitch": False},
            {"yaw": [30], "pitch": 0},
            {"yaw": {"deg": 30}, "pitch": 0},
            1,
            [30, 0],
        ],
    )
    def test_non_numeric_angles_rejected(self, obj):
        with pytest.raises(ValueError, match="numeric 'yaw' and 'pitch'"):
            viewpoint_from_dict(obj)

    def test_integer_angles_accepted(self):
        assert viewpoint_from_dict({"yaw": 30, "pitch": -10}) == Viewpoint(30.0, -10.0)

    @pytest.mark.parametrize("key", ["yaw", "pitch"])
    def test_an_integer_angle_too_large_for_a_float_rejected(self, key):
        obj = {"yaw": 0, "pitch": 0}
        obj[key] = 10**400  # what json.loads makes of a 1 followed by 400 zeros
        with pytest.raises(ValueError, match="numeric 'yaw' and 'pitch'"):
            viewpoint_from_dict(obj)
