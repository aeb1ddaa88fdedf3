import warnings

import numpy as np
import pytest

from zzkit import SquidSpec, TransmonSpec, load_fixture


@pytest.fixture(scope="session")
def chip1():
    return load_fixture("chip1")


@pytest.fixture(scope="session")
def chip2():
    return load_fixture("chip2")


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def make_transmon(ej_hz, ec_hz, d=0.0, flux=0.0):
    return TransmonSpec(SquidSpec(ej_hz, d, flux), ec_hz)


@pytest.fixture(autouse=True)
def _quiet_transmon_regime_warnings():
    # tests probe edges of the E_J/E_C range on purpose; keep output readable
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield
