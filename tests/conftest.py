import pytest

from superbraid import cli


@pytest.fixture(autouse=True)
def empty_run_workspace():
    # suites share what they build through cli's run workspace, so each test
    # starts from an empty one, as a fresh process would
    cli._WORKSPACE.clear()
