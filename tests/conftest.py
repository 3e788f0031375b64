import pytest

from diracosc.model import FieldConfiguration, StateIndex, SymmetryLimit
from diracosc.spectrum import default_window, find_states

# regression matrix: both symmetries x n = 0..3 x m = -2..2, one field
# configuration per symmetry
REGRESSION_CONFIGS = {
    SymmetryLimit.SPIN: FieldConfiguration(M=1.0, a=1.0, b=1.0, B=0.5, phi_AB=0.6),
    SymmetryLimit.PSEUDOSPIN: FieldConfiguration(M=1.0, a=1.0, b=1.0, B=2.0, phi_AB=1.0),
}


@pytest.fixture(scope="session")
def regression_configs():
    """The regression matrix's field configuration per symmetry."""
    return REGRESSION_CONFIGS


@pytest.fixture(scope="session")
def regression_matrix():
    """Every bound state of the regression matrix: (cfg, sym, idx, state)."""
    rows = []
    for sym, cfg in REGRESSION_CONFIGS.items():
        window = default_window(cfg)
        for n in range(4):
            for m in range(-2, 3):
                idx = StateIndex(n, m)
                for state in find_states(cfg, sym, idx, window):
                    rows.append((cfg, sym, idx, state))
    return rows
