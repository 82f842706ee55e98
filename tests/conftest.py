import pytest

from levicav.cavity import CavityConfig, Sphere
from levicav.sphere import DielectricObject, DriveConfig, TweezerConfig
from levicav.constants import CODATA, TWO_PI


@pytest.fixture
def ref_cavity() -> CavityConfig:
    """d = 4 mm, F = 1e5, lambda = 1064 nm reference cavity."""
    return CavityConfig(length_d=4e-3, finesse_F=1e5, wavelength_lambda=1.064e-6)


@pytest.fixture
def silica_sphere() -> DielectricObject:
    """250 nm fused-silica sphere."""
    return DielectricObject(shape=Sphere(radius=250e-9), density_rho=2201.0, eps1=2.1,
                            eps2=2.5e-10)


@pytest.fixture
def ref_tweezer() -> TweezerConfig:
    """I0/W0^2 = 2 W/um^4."""
    return TweezerConfig(intensity_I0=2e12, waist_W0=1e-6)


@pytest.fixture
def ref_drive() -> DriveConfig:
    """0.5 mW drive at 1064 nm, red sideband deferred."""
    return DriveConfig(power_P=0.5e-3, laser_omega_L=TWO_PI * CODATA.c / 1.064e-6)
