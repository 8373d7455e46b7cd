import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spinloc import (
    DEFAULT_CONSTANTS,
    DEFAULT_REGISTRY,
    Frame,
    FrameError,
    ParseError,
    PhysicalConstants,
    Vector3,
    default_registry,
    frame_from_axis,
    load_config,
    rotation_between,
)


def test_dipolar_coefficient_value():
    # independent evaluation of mu0 * gamma_e * gamma_n * hbar / 2
    expected = 4e-7 * math.pi * 28e9 * 10.705e6 * 1.054e-34 / 2.0
    assert DEFAULT_CONSTANTS.dipolar_coefficient == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.9850213500286056e-23, rel=1e-14)


def test_gamma_n_band_enforced():
    assert PhysicalConstants(gamma_n=10.75e6).gamma_n == 10.75e6
    with pytest.raises(ValueError):
        PhysicalConstants(gamma_n=10.5e6)
    with pytest.raises(ValueError):
        PhysicalConstants(gamma_n=11.0e6)


def test_fixed_constants_reject_overrides():
    # gamma_n is the one field; the others are constants of the class
    with pytest.raises(TypeError):
        PhysicalConstants(D=2.88e9)
    with pytest.raises(TypeError):
        PhysicalConstants(gamma_e=28e9)
    assert PhysicalConstants(gamma_n=10.75e6).D == PhysicalConstants.D == 2.87e9


def test_frame_rejects_non_rotation():
    with pytest.raises(ValueError):
        Frame("scaled", 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        Frame("mirror", np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        Frame("flat", np.eye(2))


def test_default_registry_contents():
    reg = default_registry()
    assert reg.names() == ["lab", "nv0", "nv180", "nv270", "nv90"]
    assert "nv0" in reg
    assert "nv45" not in reg


def test_registry_strictness():
    reg = default_registry()
    with pytest.raises(ValueError):
        reg.register(Frame("lab", np.eye(3)))
    with pytest.raises(FrameError):
        reg.get("nv45")


def test_sensor_axis_direction_in_lab():
    # the (1,1,1) symmetry axis through lab axes along <110>, <-110>, <001>
    R = DEFAULT_REGISTRY.get("nv0").rotation_to_lab
    np.testing.assert_allclose(
        R[:, 2], [math.sqrt(2.0 / 3.0), 0.0, math.sqrt(1.0 / 3.0)], atol=1e-12)
    # y basis vector comes out along the lab y axis for this choice of x
    np.testing.assert_allclose(R[:, 1], [0.0, 1.0, 0.0], atol=1e-12)


def test_lab_z_seen_from_sensor_frame():
    R = rotation_between(DEFAULT_REGISTRY.get("lab"), DEFAULT_REGISTRY.get("nv0"))
    np.testing.assert_allclose(
        R @ [0.0, 0.0, 1.0], [-math.sqrt(2.0 / 3.0), 0.0, math.sqrt(1.0 / 3.0)],
        atol=1e-12)


def test_orientation_axes_are_tetrahedral():
    reg = DEFAULT_REGISTRY
    axes = [reg.get(n).rotation_to_lab[:, 2] for n in ("nv0", "nv90", "nv180", "nv270")]
    for i in range(4):
        for j in range(i + 1, 4):
            assert axes[i] @ axes[j] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_frame_from_axis_handles_axis_along_z():
    fr = frame_from_axis("up", (0, 0, 1))
    R = fr.rotation_to_lab
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_frame_from_axis_rejects_zero_axis():
    with pytest.raises(ValueError):
        frame_from_axis("null", (0, 0, 0))


def test_vector_arithmetic_same_frame():
    a = Vector3([1.0, 2.0, 3.0], "nv0")
    b = Vector3([0.5, -1.0, 0.0], "nv0")
    np.testing.assert_allclose((a + b).components, [1.5, 1.0, 3.0])
    np.testing.assert_allclose((a - b).components, [0.5, 3.0, 3.0])
    np.testing.assert_allclose((-a).components, [-1.0, -2.0, -3.0])
    assert a.scale(2.0).norm() == pytest.approx(2.0 * a.norm())


def test_vector_mixed_frame_arithmetic_raises():
    a = Vector3([1.0, 0.0, 0.0], "lab")
    b = Vector3([1.0, 0.0, 0.0], "nv0")
    with pytest.raises(FrameError):
        a + b


def test_vector_validation():
    with pytest.raises(ValueError):
        Vector3([1.0, 2.0])
    with pytest.raises(ValueError):
        Vector3([np.nan, 0.0, 0.0])


def test_rotation_between_same_frame_is_identity():
    fr = DEFAULT_REGISTRY.get("nv90")
    np.testing.assert_allclose(rotation_between(fr, fr), np.eye(3), atol=1e-15)


_FRAMES = st.sampled_from(["lab", "nv0", "nv90", "nv180", "nv270"])
_COMPONENT = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT), _FRAMES, _FRAMES)
def test_rotation_round_trip(comps, f1, f2):
    v = np.array(comps)
    there = rotation_between(DEFAULT_REGISTRY.get(f1), DEFAULT_REGISTRY.get(f2)) @ v
    back = rotation_between(DEFAULT_REGISTRY.get(f2), DEFAULT_REGISTRY.get(f1)) @ there
    np.testing.assert_allclose(back, v, atol=1e-9)
    assert np.linalg.norm(there) == pytest.approx(np.linalg.norm(v), abs=1e-9)


def test_config_round_trip(tmp_path):
    # every frame of the default registry written as an explicit matrix
    path = tmp_path / "config.yaml"
    frames = {name: {"rotation_to_lab": DEFAULT_REGISTRY.get(name).rotation_to_lab.tolist()}
              for name in DEFAULT_REGISTRY.names() if name != "lab"}
    path.write_text(yaml.safe_dump({"constants": {"gamma_n": 10.71e6}, "frames": frames}),
                    encoding="utf-8")
    constants, registry = load_config(path)
    assert constants.gamma_n == 10.71e6
    assert registry.names() == DEFAULT_REGISTRY.names()
    np.testing.assert_allclose(
        registry.get("nv270").rotation_to_lab,
        DEFAULT_REGISTRY.get("nv270").rotation_to_lab, atol=1e-15)


def test_config_rejects_unknown_constant(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("constants:\n  speed_of_light: 3.0e8\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1: malformed config: unknown constant"):
        load_config(path)


@pytest.mark.parametrize("text,message", [
    ("constant:\n  gamma_n: 10.6e6\n", "unknown config section 'constant'"),
    ("pipeline:\n  samples: 10\n", "unknown config section 'pipeline'"),
    ("constants:\n  D: 2.87e9\n", "malformed config: fixed constant 'D'"),
    ("constants:\n  gamma_n: 10.6e6\n  hbar: 1.054e-34\n",
     "malformed config: fixed constant 'hbar'"),
    ("frames:\n  probe:\n    axis: [1, -1, -1]\n    rotation_to_lab: identity\n",
     "malformed config: frame 'probe': config needs a mapping with exactly one of"),
    ("frames:\n  nv90:\n    axis: [1, 1, 1]\n    tilt_deg: 3\n",
     "malformed config: frame 'nv90': config needs a mapping with exactly one of"),
    ("frames:\n  probe: 5\n",
     "malformed config: frame 'probe': config needs a mapping with exactly one of"),
], ids=("misspelled_section", "other_section", "fixed_D", "fixed_hbar",
        "frame_axis_and_rotation", "frame_unread_key", "frame_not_a_mapping"))
def test_config_rejects_other_sections_and_constants(tmp_path, text, message):
    # a config holds gamma_n and frames and nothing else: a misspelled
    # section, a restated fixed constant or a frame key that is not read
    # is an error, not a no-op
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f":1: {message}"):
        load_config(path)


def test_config_frame_from_axis(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("frames:\n  probe:\n    axis: [1, -1, -1]\n", encoding="utf-8")
    _, registry = load_config(path)
    # same axis as the built-in nv270 orientation
    np.testing.assert_allclose(
        registry.get("probe").rotation_to_lab,
        DEFAULT_REGISTRY.get("nv270").rotation_to_lab, atol=1e-12)
    assert "nv0" in registry
