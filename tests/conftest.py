import pytest

from kleinwiman.fields import WIMAN_PRIME, preset_field


@pytest.fixture(scope="session")
def klein_exact():
    return preset_field("klein-exact")


@pytest.fixture(scope="session")
def klein_modp():
    return preset_field("klein-mod4733")


@pytest.fixture(scope="session")
def wiman_exact():
    return preset_field("wiman-exact")


@pytest.fixture(scope="session")
def wiman_modp():
    return preset_field("modp", WIMAN_PRIME)


@pytest.fixture(scope="session")
def klein_group_exact(klein_exact):
    from kleinwiman.groups import klein_group
    return klein_group(klein_exact)


@pytest.fixture(scope="session")
def valentiner_group_modp(wiman_modp):
    from kleinwiman.groups import valentiner_group
    return valentiner_group(wiman_modp)


@pytest.fixture(scope="session")
def klein_config_exact(klein_exact):
    from kleinwiman.configs import build_klein
    return build_klein(klein_exact)


@pytest.fixture(scope="session")
def klein_config_modp(klein_modp):
    from kleinwiman.configs import build_klein
    return build_klein(klein_modp)


@pytest.fixture(scope="session")
def wiman_config_modp(wiman_modp):
    from kleinwiman.configs import build_wiman
    return build_wiman(wiman_modp)


@pytest.fixture(scope="session")
def char7_config():
    from kleinwiman.configs import build_klein_char7
    return build_klein_char7()


@pytest.fixture(scope="session")
def klein_inv_exact(klein_exact):
    from kleinwiman.invariants import klein_invariants
    return klein_invariants(klein_exact)


@pytest.fixture(scope="session")
def klein_inv_modp(klein_modp):
    from kleinwiman.invariants import klein_invariants
    return klein_invariants(klein_modp)


@pytest.fixture(scope="session")
def wiman_inv_modp(wiman_modp):
    from kleinwiman.invariants import wiman_invariants
    return wiman_invariants(wiman_modp)


@pytest.fixture(scope="session")
def wiman_inv_exact(wiman_exact):
    from kleinwiman.invariants import wiman_invariants
    return wiman_invariants(wiman_exact)


@pytest.fixture(scope="session")
def klein_points_modp(klein_config_modp):
    from kleinwiman.fatideals import PointSet
    return PointSet.from_config(klein_config_modp)


@pytest.fixture(scope="session")
def klein_points_exact(klein_config_exact):
    from kleinwiman.fatideals import PointSet
    return PointSet.from_config(klein_config_exact)


@pytest.fixture(scope="session")
def klein_gens_modp(klein_points_modp):
    from kleinwiman.fatideals import minimal_generators
    return minimal_generators(klein_points_modp, 13)


@pytest.fixture(scope="session")
def klein_gens_exact(klein_points_exact):
    from kleinwiman.fatideals import minimal_generators
    return minimal_generators(klein_points_exact, 13)


@pytest.fixture(scope="session")
def wiman_points_modp(wiman_config_modp):
    from kleinwiman.fatideals import PointSet
    return PointSet.from_config(wiman_config_modp)


@pytest.fixture(scope="session")
def wiman_config_exact(wiman_exact):
    from kleinwiman.configs import build_wiman
    return build_wiman(wiman_exact)


@pytest.fixture(scope="session")
def wiman_points_exact(wiman_config_exact):
    from kleinwiman.fatideals import PointSet
    return PointSet.from_config(wiman_config_exact)


@pytest.fixture(scope="session")
def wiman_gens_modp(wiman_points_modp):
    from kleinwiman.fatideals import minimal_generators
    return minimal_generators(wiman_points_modp, 29)


@pytest.fixture(scope="session")
def char7_points(char7_config):
    from kleinwiman.fatideals import PointSet
    return PointSet.from_config(char7_config)


@pytest.fixture(scope="session")
def char7_gens(char7_points):
    from kleinwiman.fatideals import minimal_generators
    return minimal_generators(char7_points, 13)
