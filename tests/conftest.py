import pytest

from motiveforge import verify


@pytest.fixture(scope="session")
def verify_report():
    """The registry run that ``motiveforge verify`` prints: every suite,
    1000 cases, the shipped seed.  Computed once per session."""
    return verify.run("all", cases=1000)


@pytest.fixture(scope="session")
def registry_passes(verify_report):
    """Assert that each named ``verify`` check passed in ``verify_report``.

    Invariants that cross module boundaries are written once, as checks in
    ``verify._CHECKS``; a unit test that states one looks its result up
    here instead of repeating the arithmetic."""
    by_name = {r.name: r for r in verify_report.results}

    def passes(*names):
        for name in names:
            assert by_name[name].status == "pass", (name, by_name[name].details)
    return passes
