import pytest

from jacktop import jackref


@pytest.fixture
def forget_jack_vectors():
    """Empties the oracle's Jack-vector memo (`jackref.M_VECTORS`), now and
    at each call of the returned function, so the next character of a
    diagram reads the disk cache, if one is set, or computes its vector
    again."""
    forget = jackref.M_VECTORS.clear
    forget()
    return forget
