import numpy as np
import pytest

from dimorph.config import parse_measure, sample_traits
from dimorph.errors import ConfigError
from dimorph.measures import TraitGrid

GRID = TraitGrid(-6.0, 6.0, 48)

BAD_SPECS = {
    "sd-zero": {"shape": "gaussian", "mean": 0.0, "sd": 0.0},
    "sd-negative": {"shape": "gaussian", "mean": 0.0, "sd": -0.5},
    "gaussian-off-grid": {"shape": "gaussian", "mean": 80.0, "sd": 0.1},
    "point-off-grid": {"shape": "point", "at": 7.5},
    "uniform-reversed": {"shape": "uniform", "lo": 1.0, "hi": -1.0},
    "uniform-off-grid": {"shape": "uniform", "lo": 7.0, "hi": 9.0},
    "unknown-shape": {"shape": "cauchy"},
    "missing-field": {"shape": "gaussian", "mean": 0.0},
}


@pytest.mark.parametrize("spec", list(BAD_SPECS.values()), ids=list(BAD_SPECS))
def test_bad_initial_spec_fails_alike_for_measure_and_traits(spec):
    with pytest.raises(ConfigError) as measure_err:
        parse_measure(spec, GRID, "initial_male.")
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError) as traits_err:
        sample_traits(spec, 10, GRID, rng, "initial_male.")
    assert str(traits_err.value) == str(measure_err.value)
    assert "initial_male" in str(measure_err.value)
    assert rng.random() == np.random.default_rng(0).random()  # no draw was taken


def test_negative_trait_count_rejected():
    spec = {"shape": "gaussian", "mean": 0.0, "sd": 0.5}
    with pytest.raises(ConfigError, match="field initial_female.count must be non-negative"):
        sample_traits(spec, -1, GRID, np.random.default_rng(0), "initial_female.")
    assert sample_traits(spec, 0, GRID, np.random.default_rng(0), "initial_female.").size == 0


@pytest.mark.parametrize("spec, draw", [
    ({"shape": "gaussian", "mean": 5.5, "sd": 0.5}, lambda rng: rng.normal(5.5, 0.5, 200)),
    ({"shape": "uniform", "lo": -7.0, "hi": 0.0}, lambda rng: rng.uniform(-7.0, 0.0, 200)),
    ({"shape": "point", "at": -6.0}, lambda rng: np.full(200, -6.0)),
], ids=["gaussian", "uniform", "point"])
def test_accepted_spec_draws_are_unchanged_by_the_checks(spec, draw):
    # checking a spec takes no draw: the traits are the plain draws, clamped
    parse_measure(spec, GRID, "initial_male.")
    traits = sample_traits(spec, 200, GRID, np.random.default_rng(3), "initial_male.")
    expected = np.clip(draw(np.random.default_rng(3)), GRID.x_min, GRID.x_max)
    np.testing.assert_array_equal(traits, expected)


def test_tabulated_traits_read_their_csv_once(tmp_path, monkeypatch):
    import dimorph.config
    from dimorph.io import read_measure_csv, write_measure_csv
    from dimorph.measures import gaussian_measure

    path = tmp_path / "m.csv"
    write_measure_csv(path, gaussian_measure(GRID, 0.3, 0.5))
    reads = []

    def counted(*args):
        reads.append(args[0])
        return read_measure_csv(*args)

    monkeypatch.setattr(dimorph.config, "read_measure_csv", counted)
    traits = sample_traits({"shape": "tabulated", "path": str(path)}, 200, GRID,
                           np.random.default_rng(0), "initial_male.")
    assert reads == [str(path)]
    assert traits.size == 200 and abs(traits.mean() - 0.3) < 0.2
