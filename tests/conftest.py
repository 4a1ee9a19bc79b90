import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from stokesproj import femspace, mesh, mms


@pytest.fixture(scope="session")
def grid2():
    return mesh.build_grid(2)


@pytest.fixture(scope="session")
def grid4():
    return mesh.build_grid(4)


@pytest.fixture(scope="session")
def case():
    return mms.berrone_case(0.01)


@pytest.fixture(scope="session")
def load_at():
    """``load_at(case, disc)`` is a function of t: the forcing load of
    ``case`` at time t on the free velocity DOFs, summed from the separable
    terms as ``schemes.run`` sums them."""

    def build(case, disc):
        terms = [(tf, disc.free_load(sf)) for tf, sf in case.forcing_terms()]
        return lambda t: sum(tf(t) * vec for tf, vec in terms)

    return build


@pytest.fixture(scope="session")
def space_p1_grid4(grid4):
    return femspace.build_space(grid4, 1)
