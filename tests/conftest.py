import pytest

from ravu.backends import MockBackend
from ravu.config import RavuConfig
from ravu.evaluate import build_video
from ravu.synth import synth_world


@pytest.fixture
def backend():
    return MockBackend()


@pytest.fixture(scope="session")
def world():
    return synth_world(7)


@pytest.fixture(scope="session")
def assets(world):
    return build_video(
        world.observations_text, world.tracklets_text, MockBackend(), RavuConfig()
    )
