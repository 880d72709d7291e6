import pytest

from jacktop import jackref


@pytest.fixture
def forget_jack_vectors():
    """Empties the oracle's Jack-vector memos (`_basis(n)._m_vectors`,
    n <= 10), now and at each call of the returned function, so the next
    character of a diagram reads the disk cache, if one is set, or
    computes its vector again."""
    def forget():
        for n in range(11):
            jackref._basis(n)._m_vectors.clear()

    forget()
    return forget
