"""``EnvironmentProfile.degrade`` in row blocks against the whole-frame chain.

``_reference_degrade`` keeps the chain ``degrade`` ran on whole frames
(ambient light, vignette, shot noise, read noise, four full-frame calls)
verbatim, with the four noise helpers as they were then, as the oracle
the row-block form must match bit for bit.  The comparison is on the
uint64 bit patterns of the float result, which the uint8 capture pins
cannot see, and on the generator's next draw afterwards.
"""

import numpy as np
import pytest

from repro.bench.faults_campaign import CAMPAIGN_SENSOR
from repro.channel.environment import (
    BLOCK_ROWS,
    EnvironmentProfile,
    dark_room,
    indoor,
    outdoor,
)


def _reference_gaussian_noise(image, sigma, rng):
    image = np.asarray(image, dtype=np.float64)
    if sigma <= 0:
        return image.copy()
    out = rng.normal(0.0, sigma, size=image.shape)
    out += image
    return np.clip(out, 0.0, 1.0, out=out)


def _reference_shot_noise(image, photons_at_white, rng):
    image = np.asarray(image, dtype=np.float64)
    if photons_at_white <= 0:
        return image.copy()
    rate = np.clip(image, 0.0, 1.0)
    rate *= photons_at_white
    if photons_at_white >= 100:
        photons = rng.standard_normal(image.shape)
        photons *= np.sqrt(rate)
        photons += rate
    else:
        photons = np.asarray(rng.poisson(rate), dtype=np.float64)
    photons /= photons_at_white
    return np.clip(photons, 0.0, 1.0, out=photons)


def _reference_ambient_light(image, ambient):
    image = np.asarray(image, dtype=np.float64)
    ambient = float(np.clip(ambient, 0.0, 1.0))
    out = image * (1.0 - ambient)
    out += ambient
    return out


def _reference_vignette(image, strength=0.2):
    image = np.asarray(image, dtype=np.float64)
    height, width = image.shape[:2]
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    r = np.sqrt(((xs - cx) / max(cx, 1)) ** 2 + ((ys - cy) / max(cy, 1)) ** 2)
    falloff = 1.0 - strength * np.clip(r / np.sqrt(2.0), 0.0, 1.0) ** 2
    if image.ndim == 3:
        falloff = falloff[..., np.newaxis]
    out = image * falloff
    return np.clip(out, 0.0, 1.0, out=out)


def _reference_degrade(env, image, rng):
    out = _reference_ambient_light(image, env.ambient)
    out = _reference_vignette(out, env.vignette_strength)
    out = _reference_shot_noise(out, env.photons_at_white, rng)
    out = _reference_gaussian_noise(out, env.read_noise_sigma, rng)
    return out


def _image(shape, seed, low=0.0, high=1.0):
    return np.random.default_rng(seed).uniform(low, high, size=shape)


def _assert_same_bits_and_stream(env, image, seed=3):
    before = image.copy()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = env.degrade(image, rng)
    ref = _reference_degrade(env, image, ref_rng)
    assert out.dtype == ref.dtype == np.float64
    assert out.shape == ref.shape
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(rng.standard_normal(5).view(np.uint64),
                          ref_rng.standard_normal(5).view(np.uint64))
    assert np.array_equal(image, before)


_PROFILES = {
    "indoor": indoor(),
    "outdoor": outdoor(),
    "dark_room": dark_room(),
    "poisson": EnvironmentProfile(name="dim", photons_at_white=50.0),
    "no_read_noise": EnvironmentProfile(name="quiet", read_noise_sigma=0.0),
    "no_shot_noise": EnvironmentProfile(name="ideal", photons_at_white=0.0),
    "ambient_below_0": EnvironmentProfile(name="neg", ambient=-0.2),
    "ambient_above_1": EnvironmentProfile(name="wash", ambient=1.3),
    "no_vignette": EnvironmentProfile(name="flat", vignette_strength=0.0),
}

_HEIGHTS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]


class TestDegradeMatchesWholeFrameChain:
    @pytest.mark.parametrize("name", sorted(_PROFILES))
    @pytest.mark.parametrize("channels", [0, 3])
    def test_profiles_on_small_frames(self, name, channels):
        for height in _HEIGHTS:
            shape = (height, 37) if channels == 0 else (height, 37, channels)
            image = _image(shape, seed=height + channels)
            _assert_same_bits_and_stream(_PROFILES[name], image, seed=height)

    @pytest.mark.parametrize("name", sorted(_PROFILES))
    def test_inputs_slightly_outside_unit_range(self, name):
        for shape in [(BLOCK_ROWS + 1, 23, 3), (2 * BLOCK_ROWS - 1, 23)]:
            image = _image(shape, seed=11, low=-0.05, high=1.05)
            _assert_same_bits_and_stream(_PROFILES[name], image, seed=12)

    @pytest.mark.parametrize("name", ["indoor", "outdoor", "dark_room", "poisson"])
    def test_paper_frame(self, name):
        _assert_same_bits_and_stream(_PROFILES[name], _image((480, 800, 3), seed=5))

    def test_campaign_sensor(self):
        _assert_same_bits_and_stream(indoor(), _image((*CAMPAIGN_SENSOR, 3), seed=6))
        _assert_same_bits_and_stream(outdoor(), _image(CAMPAIGN_SENSOR, seed=7))

    def test_strided_and_integer_inputs(self):
        image = _image((2 * BLOCK_ROWS + 3, 40, 3), seed=8)
        _assert_same_bits_and_stream(indoor(), image[::-1, ::2])
        levels = np.round(image * 255).astype(np.uint8)
        _assert_same_bits_and_stream(outdoor(), levels)

    def test_consecutive_captures_share_one_stream(self):
        env, image = indoor(), _image((3 * BLOCK_ROWS + 1, 19, 3), seed=9)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            out = env.degrade(image, rng)
            ref = _reference_degrade(env, image, ref_rng)
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
