import pytest

from temcodec.signals import BandSpec, ModulatedTone, TWO_PI
from temcodec.tem import TemParams, encode_two_channel, interleave


@pytest.fixture(scope="session")
def test_signal():
    """The shipped presets' waveform: 50 Hz carrier, 10 Hz sinc envelope,
    2.5 Hz sinc phase modulation, amplitude 2."""
    return ModulatedTone(TWO_PI * 50.0, TWO_PI * 10.0, TWO_PI * 2.5, 2.0)


@pytest.fixture(scope="session")
def band_35_65():
    return BandSpec(TWO_PI * 35.0, TWO_PI * 65.0)


@pytest.fixture(scope="session")
def two_channel_record(test_signal):
    """Two-channel encode of the test waveform with bandwidth-sized interval."""
    delta = (1.0 / 30.0) / 2.0
    params = TemParams(kappa=1.0, delta=delta, bias=3.0, amplitude_bound=2.0)
    train_a, train_b = encode_two_channel(
        test_signal, params, (-1.0, 1.0), alpha=1.5 * delta
    )
    return params, train_a, train_b, interleave(train_a, train_b)
