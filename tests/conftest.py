import pytest
from hypothesis import settings

from plueckerdec import Subspace, ext_field, make_code
from plueckerdec.matgf import mat_from_text

# One profile for the whole suite: no per-example deadline, since a shared
# or loaded host stretches single examples, and a fixed example sequence,
# so every run of the suite checks the same inputs.
settings.register_profile("repo", deadline=None, derandomize=True)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def f4():
    """F_4 with modulus x^2+x+1."""
    return ext_field(2, 2)


@pytest.fixture(scope="session")
def demo_code(f4):
    """The [2x2, 2, 2] code over F_2 with g = (alpha, 1)."""
    return make_code(2, 4, 2, 2, g=[f4.alpha(), f4.one()])


@pytest.fixture(scope="session")
def received_r1(demo_code):
    return Subspace(mat_from_text(demo_code.ext.base, "1 0 1 0;0 0 0 1"))


@pytest.fixture(scope="session")
def received_r2(demo_code):
    return Subspace(mat_from_text(demo_code.ext.base, "1 0 0 1;0 1 1 1"))
