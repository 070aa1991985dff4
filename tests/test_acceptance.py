"""Verification suite, one test per criterion.

Each check runs in the one configuration `sgtorus verify` runs and
prints its one-line PASS/FAIL summary with the measured numbers; run
with -s or -rA to see the lines for passing tests too.
"""

import pytest

from sgtorus import acceptance

_CHECKS = {fn.__name__.removeprefix("check_"): fn
           for fn in acceptance.ALL_CHECKS}


@pytest.mark.parametrize("name", list(_CHECKS), ids=list(_CHECKS))
def test_criterion(name):
    result = _CHECKS[name]()
    print(result.line())
    assert result.passed, result.line()
