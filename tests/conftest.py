"""Fixtures shared by the test modules."""
import pytest

import dcswin.tensor as T


@pytest.fixture(params=[T._GRAD_CHUNK_BYTES, 0], ids=["keep", "rebuild"])
def attention_weights(request, monkeypatch):
    """Run a test on both of the attention rules' paths: at the default
    chunk size a test's small weights are kept for backward, and at 0
    bytes every window's weights are rebuilt from their row statistics."""
    monkeypatch.setattr(T, "_GRAD_CHUNK_BYTES", request.param)
    return request.param
