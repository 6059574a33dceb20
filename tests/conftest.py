import sys

import pytest


@pytest.fixture
def int_str_limit():
    """Python's default int-string limit (4300 digits), whatever the
    environment sets, restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
