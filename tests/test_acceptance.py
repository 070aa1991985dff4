"""Verification suite, one test per criterion.

Each check runs in the one configuration `sgtorus verify` runs and
prints its one-line PASS/FAIL summary with the measured numbers; run
with -s or -rA to see the lines for passing tests too.
"""

import time

import numpy as np
import pytest

from sgtorus import acceptance

_CHECKS = {fn.__name__.removeprefix("check_"): fn
           for fn in acceptance.ALL_CHECKS}


@pytest.mark.parametrize("name", list(_CHECKS), ids=list(_CHECKS))
def test_criterion(name):
    result = _CHECKS[name]()
    print(result.line())
    assert result.passed, result.line()


def test_run_all_times_every_check(monkeypatch):
    # a check reads no clock and leaves elapsed at 0.0; run_all fills it
    # with the call's wall time, and a numpy bool passes as a bool
    def fake(name, passed):
        def check():
            time.sleep(0.002)
            return acceptance.CheckResult(name, passed, {})
        return check

    monkeypatch.setattr(acceptance, "ALL_CHECKS",
                        (fake("a", np.bool_(True)), fake("b", False)))
    assert acceptance.ALL_CHECKS[0]().elapsed == 0.0
    results = acceptance.run_all()
    assert [r.name for r in results] == ["a", "b"]
    assert [r.passed for r in results] == [True, False]
    assert all(type(r.passed) is bool for r in results)
    assert all(r.elapsed >= 0.002 for r in results)
