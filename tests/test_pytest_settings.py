"""The suite's own pytest settings: a failing property test is reported by
name and the run goes on past it.

Warnings are errors, and when a hypothesis test fails, hypothesis imports
libcst to write a patch with the failing example; libcst's import warns.
As an error inside pytest's report hook that warning would end the run
with INTERNALERROR, before the later tests and without the failure's name.
"""

import shutil
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_failing_property_is_named_and_the_run_goes_on(pytester):
    shutil.copy(PYPROJECT, pytester.path)  # the same filterwarnings
    pytester.makepyfile(
        test_two="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property_fails(x):
            assert x < 5

        def test_plain():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.stdout.fnmatch_lines(["FAILED test_two.py::test_property_fails - *"])
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
